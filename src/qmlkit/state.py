"""Complex state vectors over qubit registers.

A register of ``n`` qubits is a dense vector of ``2**n`` complex amplitudes.
Basis indices follow the bitstring read left to right: the leftmost ket
symbol is the most significant bit, so ``|10>`` is index 2 of a 2-qubit
register.  Qubit positions use the same convention: qubit 0 is the leftmost
(most significant) qubit.

States are immutable after construction and never renormalized silently:
a vector that is not normalized within ``NORM_TOL`` is rejected, and callers
that want renormalization must ask for it via :func:`normalize`.

Registers over ``MAX_QUBITS`` and dense ``2^n x 2^n`` matrices over
``DENSE_MATRIX_CAP`` are refused with their byte count before anything is
built.  Every measurement draws one basis index through the chunked
inverse CDF of ``rng.inverse_cdf``, in O(chunk) memory besides the
collapsed state.  The first draw from a state streams |c_i|^2 over all 2^n
amplitudes and the state keeps the running total at the end of each chunk;
every later draw from it reads one chunk (a state of one chunk keeps its
whole CDF and reads none).  A subset measurement reads its bits off that
index and scales the kept slice straight into one zero-filled buffer.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError
from .rng import RngStream, cdf_table, inverse_cdf

MAX_QUBITS = 24          # dense 2^24 complex vector is the desk-scale budget
DENSE_MATRIX_CAP = 12    # a dense 2^n x 2^n complex matrix is 256 MiB at 12
NORM_TOL = 1e-9
HERMITIAN_TOL = 1e-9
RESIDUE_TOL = 1e-9       # imaginary part at which an expectation is refused


def _check_n_qubits(n_qubits: int) -> int:
    n = int(n_qubits)
    if n < 1:
        raise DomainError(f"need at least one qubit, got {n}")
    if n > MAX_QUBITS:
        size = f"{16 * 2**n:,}" if n <= 64 else f"16 x 2^{n}"  # no huge integer past 64
        raise ConfigError(
            f"{n} qubits exceeds the cap of {MAX_QUBITS}: the state needs {size} bytes"
        )
    return n


def _check_dense_cap(n_qubits: int, what: str) -> None:
    if n_qubits > DENSE_MATRIX_CAP:
        size = f"{16 * 4**n_qubits:,}" if n_qubits <= 32 else f"16 x 4^{n_qubits}"
        raise ConfigError(
            f"{what} on {n_qubits} qubits needs {size} bytes; "
            f"the dense-matrix cap is {DENSE_MATRIX_CAP} qubits"
        )


def _square_matrix(dim: int, matrix) -> np.ndarray:
    """The operator entry check: ``matrix`` as a read-only complex ``dim x
    dim`` array, refused when its shape is wrong, ``dim`` is not a power of
    two or an entry is NaN or infinite (a NaN would pass every later test)."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise DomainError(f"matrix has shape {m.shape}, expected ({dim}, {dim})")
    d = len(m)  # ``dim`` as a Python int
    if d < 1 or d & (d - 1):
        raise DomainError(f"matrix dimension {dim} is not a power of two")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix has NaN or infinite entries")
    m.setflags(write=False)
    return m


def _unchecked(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields``, with no check: for
    values valid by construction; all others go through ``cls`` itself."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _real(value, what: str) -> float:
    """The real part of an expectation, refused at a residue of ``RESIDUE_TOL``."""
    value = complex(value)
    if abs(value.imag) >= RESIDUE_TOL:
        raise DomainError(f"{what} has imaginary residue {value.imag}")
    return value.real


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over ``2**n_qubits`` basis states."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        n = _check_n_qubits(self.n_qubits)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**n,):
            raise DomainError(
                f"amplitude vector has shape {amps.shape}, expected ({2**n},)"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        # Written so that a NaN norm fails the comparison and is rejected.
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise DomainError(f"state not normalized: sum |c_i|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _trusted(cls, n_qubits: int, amps: np.ndarray) -> "StateVector":
        # Normalized by construction: a basis state, a measured slice.
        amps.setflags(write=False)
        return _unchecked(cls, n_qubits=n_qubits, amps=amps)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def probabilities(self) -> np.ndarray:
        """|c_i|^2 per basis state, squared in place in one temporary."""
        return self._probs_of(0, self.dim)

    def _probs_of(self, lo: int, hi: int) -> np.ndarray:
        probs = np.abs(self.amps[lo:hi])
        return np.square(probs, out=probs)

    @cached_property
    def _cdf(self) -> tuple:
        """``rng.cdf_table`` of |c_i|^2, made by the first draw and kept,
        since the amplitudes never change: the chunk totals, plus the
        probabilities and CDF of a state of one chunk (no larger than the
        state itself)."""
        ends, probs, cdf = cdf_table(self._probs_of, self.dim)
        return (ends, probs, cdf) if len(ends) == 1 else (ends, None, None)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix whose eigenvalues are the possible measured values."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = _square_matrix(self.dim, self.matrix)
        if np.max(np.abs(m - m.conj().T)) >= HERMITIAN_TOL:
            raise DomainError("observable matrix is not Hermitian")
        object.__setattr__(self, "matrix", m)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvector columns."""
        return np.linalg.eigh(self.matrix)


@dataclass(frozen=True)
class MeasurementOutcome:
    basis_index: int
    collapsed: StateVector
    probability: float


def normalize(amps: np.ndarray, n_qubits: int | None = None) -> StateVector:
    """Build a state from an unnormalized amplitude vector, explicitly
    rescaling one owned complex copy of it in place."""
    amps = np.array(amps, dtype=complex)
    with np.errstate(over="ignore"):  # refused below, not warned
        norm = np.linalg.norm(amps)
    if norm == 0:
        raise DomainError("cannot normalize the zero vector")
    if norm == np.inf:
        raise DomainError("cannot normalize amplitudes whose sum |c_i|^2 overflows the float range")
    if n_qubits is None:
        n_qubits = int(np.log2(len(amps)))
        if 2**n_qubits != len(amps):
            raise DomainError(f"length {len(amps)} is not a power of two")
    amps /= norm
    return StateVector(n_qubits, amps)


def basis_state(n_qubits: int, index: int) -> StateVector:
    """The standard basis vector ``|index>`` of an ``n_qubits`` register."""
    n = _check_n_qubits(n_qubits)
    if not 0 <= index < 2**n:
        raise DomainError(f"basis index {index} out of range for {n} qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector._trusted(n, amps)


def from_bits(bits: str) -> StateVector:
    """Basis state from a bitstring, e.g. ``"10"`` -> index 2 of 2 qubits."""
    if not bits or any(b not in "01" for b in bits):
        raise DomainError(f"invalid bitstring {bits!r}")
    return basis_state(len(bits), int(bits, 2))


def inner_product(bra: StateVector, ket: StateVector) -> complex:
    """The bracket <bra|ket> = sum conj(bra_i) * ket_i."""
    if bra.dim != ket.dim:
        raise DomainError(f"dimension mismatch: {bra.dim} vs {ket.dim}")
    return complex(np.vdot(bra.amps, ket.amps))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Joint state of two registers; amplitude (i, j) lands at i*dim(b) + j.

    A joint register over ``MAX_QUBITS`` is refused before it is built.
    """
    _check_n_qubits(a.n_qubits + b.n_qubits)
    return StateVector(a.n_qubits + b.n_qubits, np.kron(a.amps, b.amps))


def expectation(obs: Observable, psi: StateVector) -> float:
    """<psi|O|psi> as a real number; a large imaginary residue is an error."""
    if obs.dim != psi.dim:
        raise DomainError(f"dimension mismatch: observable {obs.dim}, state {psi.dim}")
    return _real(np.vdot(psi.amps, obs.matrix @ psi.amps), "expectation")


def variance(obs: Observable, psi: StateVector) -> float:
    """<psi|(O - <O>)^2|psi>, the spread of measured values around the mean."""
    mean = expectation(obs, psi)
    shifted = obs.matrix - mean * np.eye(obs.dim)
    return _real(np.vdot(psi.amps, shifted @ (shifted @ psi.amps)), "variance")


def _sample_index(psi: StateVector, rng: RngStream) -> tuple[int, float]:
    """A Born-rule basis index and its probability, by ``inverse_cdf`` on
    one ``rng.uniform()``.  The first draw from a state streams |c_i|^2 one
    chunk at a time and keeps the chunk totals; a later draw from the same
    state reads only the chunk that holds it (a state of one chunk, none)."""
    return inverse_cdf(psi._probs_of, psi.dim, rng.uniform, psi._cdf)


def measure_all(psi: StateVector, rng: RngStream) -> MeasurementOutcome:
    """Sample a full computational-basis measurement and collapse the state;
    only the collapsed basis state is full-size."""
    index, probability = _sample_index(psi, rng)
    return MeasurementOutcome(
        basis_index=index,
        collapsed=basis_state(psi.n_qubits, index),
        probability=probability,
    )


def _validate_positions(n_qubits: int, qubits) -> list[int]:
    positions = [int(q) for q in qubits]
    if len(set(positions)) != len(positions):
        raise DomainError(f"qubit positions must be distinct, got {positions}")
    for q in positions:
        if not 0 <= q < n_qubits:
            raise DomainError(f"qubit position {q} out of range for {n_qubits} qubits")
    return positions


def measure_subset(
    psi: StateVector, qubits, rng: RngStream
) -> tuple[str, StateVector]:
    """Measure the given qubit positions; return their bits and the
    renormalized post-measurement state on all qubits.

    A subset's distribution is the marginal of the full one, so the bits
    are read off one ``_sample_index`` draw, in the order the positions
    were given; no |c|^2 vector is built.  No positions measure nothing,
    draw nothing and return ``("", psi)``.
    """
    positions = _validate_positions(psi.n_qubits, qubits)
    if not positions:
        return "", psi
    n = psi.n_qubits
    grid = psi.amps.reshape([2] * n)
    index, _ = _sample_index(psi, rng)
    bits = "".join(str(index >> (n - 1 - q) & 1) for q in positions)

    # Keep the slice of the measured bits, scaled by its own norm (taken
    # first: it copies the slice) and written straight into a fresh np.zeros
    # buffer, whose other pages stay untouched.
    selector: list = [slice(None)] * n
    for q, bit in zip(positions, bits):
        selector[q] = slice(int(bit), int(bit) + 1)
    kept = grid[tuple(selector)]
    norm = np.linalg.norm(kept)
    # Dividing by a positive finite norm normalizes; only a draw clamped
    # onto a zero tail can leave nothing to renormalize.
    if not 0.0 < norm < np.inf:
        raise DomainError(f"state not normalized: measured slice has norm {norm!r}")
    projected = np.zeros(grid.shape, dtype=complex)
    np.divide(kept, norm, out=projected[tuple(selector)])
    return bits, StateVector._trusted(n, projected.reshape(-1))


def is_product_two_subsystems(psi: StateVector, split: int) -> bool:
    """True iff the state factors across the left ``split`` qubits.

    Computed as a numerical rank-1 test of the amplitude matrix reshaped to
    ``2**split x 2**(n-split)`` (a Schmidt-rank check): the state is a
    product iff the second singular value vanishes relative to the first.
    """
    if not 1 <= split < psi.n_qubits:
        raise DomainError(f"split {split} invalid for {psi.n_qubits} qubits")
    matrix = psi.amps.reshape(2**split, -1)
    singular = np.linalg.svd(matrix, compute_uv=False)
    return bool(singular[1] / singular[0] < 1e-9)
