"""Overlap and distance estimation subroutines.

These bridge classical vectors and quantum registers: a real vector is
amplitude-encoded into ceil(log2 N) qubits, overlaps are read out through
the swap-test circuit, and Euclidean distances come from the two-state
construction whose ancilla overlap encodes |a-b|^2 / 2Z.

Every estimator carries both an exact analytic value (computed from the
simulated final state) and a shot-based value; callers pick the path that
fits their purpose.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gates import apply, controlled, standard_gate
from .minimizer import argmin_via_search
from .rng import RngStream
from .state import StateVector

DEFAULT_SHOTS = 4096


@dataclass(frozen=True)
class EncodedVector:
    """A classical vector stored as amplitudes: raw = norm * amplitudes."""

    raw: np.ndarray
    norm: float
    state: StateVector


@dataclass(frozen=True)
class OverlapEstimate:
    p0_hat: float
    overlap_sq_hat: float
    shots: int
    exact_p0: float

    @property
    def overlap_sq_exact(self) -> float:
        return min(max(2.0 * self.exact_p0 - 1.0, 0.0), 1.0)


@dataclass(frozen=True)
class DistanceEstimate:
    z: float
    dist_sq: float
    inner_prod: float


def encode(a) -> EncodedVector:
    """Amplitude-encode a nonzero real vector, zero-padded to a power of two."""
    raw = np.asarray(a, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise DomainError("encode expects a nonempty 1-D vector")
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise DomainError("cannot encode the zero vector")
    n_qubits = max(1, math.ceil(math.log2(raw.size)))
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[: raw.size] = raw / norm
    return EncodedVector(raw=raw, norm=norm, state=StateVector(n_qubits, amps))


def _swap_test_p0(registers: StateVector, group_a: list[int], group_b: list[int]) -> float:
    """Exact control-qubit |0> probability of the swap test.

    ``registers`` must carry the control at qubit 0 (prepared in |0>) plus
    the two equal-size groups to compare.
    """
    state = apply(standard_gate("H"), [0], registers)
    fredkin = controlled(standard_gate("SWAP"))
    for qa, qb in zip(group_a, group_b):
        state = apply(fredkin, [0, qa, qb], state)
    state = apply(standard_gate("H"), [0], state)
    probs = state.probabilities()
    return float(probs[: probs.size // 2].sum())


def _check_shots(shots: int) -> None:
    if shots < 1:
        raise DomainError(f"shots must be >= 1, got {shots}")


def _estimate_p0(exact_p0: float, shots: int, rng: RngStream) -> float:
    # Each shot re-prepares the same state, so control measurements are
    # i.i.d. Bernoulli draws at the exact probability.
    draws = rng.gen.random(shots)
    return float(np.count_nonzero(draws < exact_p0)) / shots


def swap_test(
    a: StateVector, b: StateVector, shots: int = DEFAULT_SHOTS, rng: RngStream | None = None
) -> OverlapEstimate:
    """Estimate |<a|b>|^2 from control measurements of the swap-test circuit.

    P(control = 0) equals 1/2 + |<a|b>|^2 / 2: one half for orthogonal
    inputs, one for identical inputs.
    """
    if a.n_qubits != b.n_qubits:
        raise DomainError(
            f"swap test needs equal registers, got {a.n_qubits} and {b.n_qubits} qubits"
        )
    _check_shots(shots)
    n = a.n_qubits
    joint = StateVector(
        1 + 2 * n, np.kron(np.array([1.0, 0.0], dtype=complex), np.kron(a.amps, b.amps))
    )
    exact_p0 = _swap_test_p0(joint, list(range(1, 1 + n)), list(range(1 + n, 1 + 2 * n)))
    p0_hat = _estimate_p0(exact_p0, shots, rng) if rng is not None else exact_p0
    return OverlapEstimate(
        p0_hat=p0_hat,
        overlap_sq_hat=min(max(2.0 * p0_hat - 1.0, 0.0), 1.0),
        shots=shots,
        exact_p0=exact_p0,
    )


def dist_calc(
    a,
    b,
    shots: int = DEFAULT_SHOTS,
    rng: RngStream | None = None,
    mode: str = "exact",
) -> DistanceEstimate:
    """Squared Euclidean distance |a-b|^2 via state encoding, |a-b|^2 = 2Z o
    with Z = |a|^2 + |b|^2 and o the squared ancilla overlap.

    Prepares psi = (|0,a> + |1,b>)/sqrt(2) and phi = (|a| |0> - |b| |1>)/sqrt(Z)
    and swap-tests phi against psi's ancilla qubit (the data register rides
    along uncontracted).  The inner product a.b follows from the polarization
    identity.
    """
    ea, eb = encode(a), encode(b)
    if ea.raw.size != eb.raw.size:
        raise DomainError(f"dimension mismatch: {ea.raw.size} vs {eb.raw.size}")
    if mode not in ("exact", "shots"):
        raise DomainError(f"unknown distance mode {mode!r}")
    _check_shots(shots)
    z = ea.norm**2 + eb.norm**2
    n = ea.state.n_qubits

    psi = np.concatenate([ea.state.amps, eb.state.amps]) / math.sqrt(2.0)
    phi = np.array([ea.norm, -eb.norm], dtype=complex) / math.sqrt(z)
    control = np.array([1.0, 0.0], dtype=complex)
    joint = StateVector(1 + 1 + (1 + n), np.kron(control, np.kron(phi, psi)))

    exact_p0 = _swap_test_p0(joint, [1], [2])
    if mode == "shots":
        if rng is None:
            raise DomainError("shots mode requires an RngStream")
        p0 = _estimate_p0(exact_p0, shots, rng)
    else:
        p0 = exact_p0
    overlap_sq = min(max(2.0 * p0 - 1.0, 0.0), 1.0)
    dist_sq = 2.0 * z * overlap_sq
    return DistanceEstimate(
        z=z, dist_sq=dist_sq, inner_prod=(ea.norm**2 + eb.norm**2 - dist_sq) / 2.0
    )


def median_calc(
    points,
    shots: int = DEFAULT_SHOTS,
    rng: RngStream | None = None,
    mode: str = "exact",
) -> tuple[int, np.ndarray]:
    """The set median: the member minimizing the sum of Euclidean distances
    to all other members, with the argmin taken by quantum minimum finding.
    """
    vectors = [np.asarray(p, dtype=float) for p in points]
    if not vectors:
        raise DomainError("median of an empty point set")
    if len({v.size for v in vectors}) != 1:
        raise DomainError("median points must share a dimension")
    if len(vectors) == 1:
        return 0, vectors[0]
    if rng is None:
        raise DomainError("median_calc requires an RngStream")
    m = len(vectors)
    sums = np.zeros(m)
    for i in range(m):
        for j in range(i + 1, m):
            d = math.sqrt(dist_calc(vectors[i], vectors[j], shots, rng, mode).dist_sq)
            sums[i] += d
            sums[j] += d
    best = argmin_via_search(sums, rng)
    return best, vectors[best]
