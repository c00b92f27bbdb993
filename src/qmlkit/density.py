"""Density matrices for pure and mixed states.

Beyond the textbook constructors and the trace-rule expectation, this module
provides the partial trace, which the neural-network label readout needs to
reduce a register to a sub-register.  It is a single einsum over the qubit
axes of the matrix; the index-pair summation it replaces lives in the tests
as the reference.  A matrix from outside goes through ``DensityMatrix``: the
dense-matrix cap on its dimension alone, the operator entry check of
``state`` (square, power-of-two dimension, finite entries), then Hermiticity,
trace 1 and no negative eigenvalue.  Outer products of unit states and
reductions of valid densities skip all of it through ``_trusted``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .state import Observable, StateVector, _check_dense_cap, _validate_positions
from .state import _real, _square_matrix, _unchecked

DENSITY_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-1 matrix."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_dense_cap(int(self.dim).bit_length() - 1, "density matrix")
        m = _square_matrix(self)
        if np.max(np.abs(m - m.conj().T)) >= DENSITY_TOL:
            raise DomainError("density matrix is not Hermitian")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) >= DENSITY_TOL:
            raise DomainError(f"density matrix has trace {trace}, expected 1")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -DENSITY_TOL:
            raise DomainError(f"density matrix has negative eigenvalue {smallest}")

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @classmethod
    def _trusted(cls, dim: int, matrix: np.ndarray) -> "DensityMatrix":
        # Valid by construction: a unit state's outer product, a reduction.
        matrix.setflags(write=False)
        return _unchecked(cls, dim=dim, matrix=matrix)


def pure_density(psi: StateVector) -> DensityMatrix:
    """The rank-1 outer product |psi><psi|, refused over ``DENSE_MATRIX_CAP``
    qubits before it is built."""
    _check_dense_cap(psi.n_qubits, "density matrix")
    return DensityMatrix._trusted(psi.dim, np.outer(psi.amps, psi.amps.conj()))


def mixed_density(parts: list[tuple[float, StateVector]]) -> DensityMatrix:
    """Convex combination sum_i p_i |psi_i><psi_i|, refused over
    ``DENSE_MATRIX_CAP`` qubits before it is built."""
    if not parts:
        raise DomainError("mixed state needs at least one component")
    probs = np.array([p for p, _ in parts], dtype=float)
    if np.any(probs < 0):
        raise DomainError(f"negative probability in {probs}")
    if not abs(probs.sum() - 1.0) <= 1e-9:  # a NaN sum is refused too
        raise DomainError(f"probabilities sum to {probs.sum()}, expected 1")
    _check_dense_cap(parts[0][1].n_qubits, "density matrix")
    dim = parts[0][1].dim
    matrix = np.zeros((dim, dim), dtype=complex)
    for p, psi in parts:
        if psi.dim != dim:
            raise DomainError("mixed-state components must share a dimension")
        matrix += p * np.outer(psi.amps, psi.amps.conj())
    return DensityMatrix(dim, matrix)


def trace_expectation(rho: DensityMatrix, obs: Observable) -> float:
    """<O> = Tr(rho O) for a pure or mixed state."""
    if rho.dim != obs.dim:
        raise DomainError(f"dimension mismatch: density {rho.dim}, observable {obs.dim}")
    return _real(np.trace(rho.matrix @ obs.matrix), "trace expectation")


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density on the kept qubit positions (trace out the rest).

    The matrix is viewed as 2n qubit axes (n row, n column); one einsum
    gives each traced qubit the same label on its row and column axis and
    lists the kept row axes, then the kept column axes, in ``keep`` order.
    """
    n = rho.n_qubits
    kept = _validate_positions(n, keep)
    rows = list(range(n))
    cols = [n + q if q in kept else q for q in range(n)]
    grid = rho.matrix.reshape([2] * (2 * n))
    dim_keep = 2 ** len(kept)
    reduced = np.einsum(grid, rows + cols, kept + [n + q for q in kept])
    return DensityMatrix._trusted(dim_keep, reduced.reshape(dim_keep, dim_keep))
