"""Overlap and distance estimation subroutines.

These bridge classical vectors and quantum registers: a real vector is
amplitude-encoded into ceil(log2 N) qubits, overlaps are read out through
the swap-test circuit, and Euclidean distances come from the two-state
construction whose ancilla overlap encodes |a-b|^2 / 2Z.

One kernel, ``_swap_test_p0``, runs every swap test, on a batch of pairs:
a slice of pairs is one register with extra qubits that index the pairs,
and the gates act on it through ``gates.apply``.  A batch is one point
against many (a row against the k-means centroids, a median candidate
against the later points, a QPCA row against the top eigenvectors), and a
slice holds at most 2^16 amplitudes unless one pair alone needs more, so
memory never grows with all pairs; a pair over the qubit cap is refused
before anything is allocated.  Each estimator carries the exact value from
the simulated final state and a shot-based value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .gates import apply, controlled, standard_gate
from .minimizer import argmin_via_search
from .rng import RngStream
from .state import MAX_QUBITS, StateVector, _check_n_qubits

DEFAULT_SHOTS = 4096

_H = standard_gate("H")
_FREDKIN = controlled(standard_gate("SWAP"))
_PLUS = _H.matrix[:, 0]  # the control qubit after the first H
# Amplitudes of one batched swap-test register (1 MiB); larger registers
# ran slower per amplitude through the gate kernel's transposes.
_SLICE_AMPS = 2**16
# Shot draws of one batch may take as much memory as a state at the qubit
# cap: 2^24 complex amplitudes, 256 MiB.
_DRAW_BYTES_CAP = 16 * 2**MAX_QUBITS


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
        return float(overlap_sq(self.exact_p0))


@dataclass(frozen=True)
class DistanceEstimate:
    z: float
    dist_sq: float
    inner_prod: float


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norms and zero-padded amplitude encodings of the rows of a matrix."""
    if not np.all(np.isfinite(rows)):
        raise DomainError("cannot encode a vector with NaN or infinite entries")
    # One dot product per row, summed as np.linalg.norm sums one vector.
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())
    if np.any(norms == 0.0):
        raise DomainError("cannot encode the zero vector")
    amps = np.zeros((len(rows), 2 ** max(1, math.ceil(math.log2(rows.shape[1])))), dtype=complex)
    amps[:, : rows.shape[1]] = rows / norms[:, None]
    return norms, amps


def encode(a) -> EncodedVector:
    """Amplitude-encode a nonzero real vector, zero-padded to a power of two."""
    raw = np.asarray(a, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise DomainError("encode expects a nonempty 1-D vector")
    norms, amps = _unit_rows(raw[None])
    n_qubits = amps.shape[1].bit_length() - 1
    return EncodedVector(raw=raw, norm=float(norms[0]), state=StateVector(n_qubits, amps[0]))


def _swap_test_p0(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Exact control-qubit |0> probability of the swap test, one per row.

    Row b runs the register |0> (x) left[b] (x) right[b], with the Fredkin
    ladder swapping each qubit of ``left`` with the matching leading qubit
    of ``right``; further qubits of ``right`` ride along.  Rows run in
    slices of w = 4^j pairs, each slice as one register whose trailing 2j
    qubits index its pairs, sum_b |pair_b>|b> / sqrt(w), held to
    ``_SLICE_AMPS`` amplitudes unless one pair alone is larger; a short
    last slice repeats its pairs to fill w.  Scaling by 1/sqrt(w) = 2^-j is
    exact, so each p0 carries the bits of a lone register.
    """
    batch, dim_left = left.shape
    half = dim_left * right.shape[1]
    n_pair = _check_n_qubits(half.bit_length())
    n_left = dim_left.bit_length() - 1
    width = 1
    while width < batch and 8 * half * width <= _SLICE_AMPS:
        width *= 4
    p0 = np.empty(batch)
    for start in range(0, batch, width):
        count = min(width, batch - start)
        w = 1
        while w < count:
            w *= 4
        rows = start + np.arange(w) % count
        pairs = (left[rows, :, None] * right[rows, None, :]).reshape(w, half).T
        joint = (_PLUS[:, None, None] * pairs) / math.sqrt(w)
        state = StateVector(n_pair + (w.bit_length() - 1), joint.reshape(-1))
        for q in range(1, 1 + n_left):
            state = apply(_FREDKIN, [0, q, q + n_left], state)
        state = apply(_H, [0], state)
        final = state.amps[: half * w].reshape(half, w)[:, :count]
        # Sum each pair along a contiguous axis, in a lone register's order.
        p0[start : start + count] = (np.abs(np.ascontiguousarray(final.T)) ** 2).sum(axis=1) * w
    return p0


def _check_shots(shots: int) -> None:
    if shots < 1:
        raise DomainError(f"shots must be >= 1, got {shots}")


def _estimate_p0(exact_p0: np.ndarray, shots: int, rng: RngStream | None) -> np.ndarray:
    """Shot estimates of each p0 (the exact values when ``rng`` is None).

    Each shot re-prepares the same state, so control measurements are
    i.i.d. Bernoulli draws at the exact probability; row b takes the b-th
    block of ``shots`` draws, as one call per row would.  A batch whose
    draws would pass ``_DRAW_BYTES_CAP`` is refused before any draw.
    """
    if rng is None:
        return exact_p0
    need = 8 * exact_p0.size * shots
    if need > _DRAW_BYTES_CAP:
        raise ConfigError(
            f"{exact_p0.size} x {shots} shot draws need {need / 2**20:,.0f} MiB, "
            f"over the {_DRAW_BYTES_CAP // 2**20} MiB budget"
        )
    draws = rng.gen.random((exact_p0.size, shots))
    return np.count_nonzero(draws < exact_p0[:, None], axis=1) / shots


def overlap_sq(p0):
    """|<a|b>|^2 = 2 p0 - 1, clamped into [0, 1] against estimation noise."""
    return np.clip(2.0 * p0 - 1.0, 0.0, 1.0)


def swap_tests(
    a: StateVector, others, shots: int = DEFAULT_SHOTS, rng: RngStream | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact and estimated p0 of ``a`` against each state of ``others``, as
    one batch (the estimate is exact without ``rng``)."""
    for b in others:
        if b.n_qubits != a.n_qubits:
            raise DomainError(
                f"swap test needs equal registers, got {a.n_qubits} and {b.n_qubits} qubits"
            )
    _check_shots(shots)
    right = np.array([b.amps for b in others]).reshape(-1, a.dim)
    exact_p0 = _swap_test_p0(np.broadcast_to(a.amps, right.shape), right)
    return exact_p0, _estimate_p0(exact_p0, shots, rng)


def swap_test(
    a: StateVector, b: StateVector, shots: int = DEFAULT_SHOTS, rng: RngStream | None = None
) -> OverlapEstimate:
    """Estimate |<a|b>|^2 from control measurements of the swap-test circuit.

    P(control = 0) equals 1/2 + |<a|b>|^2 / 2: one half for orthogonal
    inputs, one for identical inputs.
    """
    (exact_p0,), (p0_hat,) = swap_tests(a, [b], shots, rng)
    return OverlapEstimate(
        p0_hat=float(p0_hat),
        overlap_sq_hat=float(overlap_sq(p0_hat)),
        shots=shots,
        exact_p0=float(exact_p0),
    )


def distances(
    a,
    others,
    shots: int = DEFAULT_SHOTS,
    rng: RngStream | None = None,
    mode: str = "exact",
) -> tuple[np.ndarray, np.ndarray]:
    """Z and |a-b|^2 = 2Z o for each row b of ``others`` as one batch, with
    Z = |a|^2 + |b|^2 and o the squared ancilla overlap.

    Each pair prepares psi = (|0,a> + |1,b>)/sqrt(2) and
    phi = (|a| |0> - |b| |1>)/sqrt(Z) and swap-tests phi against psi's
    ancilla qubit (the data register rides along uncontracted).
    """
    if mode not in ("exact", "shots"):
        raise DomainError(f"unknown distance mode {mode!r}")
    _check_shots(shots)
    if mode == "shots" and rng is None:
        raise DomainError("shots mode requires an RngStream")
    ea = encode(a)
    rows = np.atleast_2d(np.asarray(others, dtype=float))
    if rows.shape[1] != ea.raw.size:
        raise DomainError(f"dimension mismatch: {ea.raw.size} vs {rows.shape[1]}")
    norms, amps = _unit_rows(rows)
    z = ea.norm**2 + norms**2
    phi = np.stack([np.full_like(norms, ea.norm), -norms], axis=1).astype(complex)
    psi = np.concatenate([np.broadcast_to(ea.state.amps, amps.shape), amps], axis=1)
    p0 = _swap_test_p0(phi / np.sqrt(z)[:, None], psi / math.sqrt(2.0))
    p0 = _estimate_p0(p0, shots, rng if mode == "shots" else None)
    return z, 2.0 * z * overlap_sq(p0)


def dist_calc(
    a,
    b,
    shots: int = DEFAULT_SHOTS,
    rng: RngStream | None = None,
    mode: str = "exact",
) -> DistanceEstimate:
    """Squared Euclidean distance |a-b|^2 via state encoding (``distances``
    on one pair); the inner product a.b follows by polarization."""
    (z,), (dist_sq,) = distances(a, [b], shots, rng, mode)
    return DistanceEstimate(
        z=float(z), dist_sq=float(dist_sq), inner_prod=float(z - dist_sq) / 2.0
    )


def median_calc(
    points,
    shots: int = DEFAULT_SHOTS,
    rng: RngStream | None = None,
    mode: str = "exact",
) -> tuple[int, np.ndarray]:
    """The set median: the member minimizing the sum of Euclidean distances
    to all other members, with the argmin taken by quantum minimum finding.
    Point i's distances to the points after it run as one batch.
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
    sums = np.zeros(len(vectors))
    for i in range(len(vectors) - 1):
        d = np.sqrt(distances(vectors[i], vectors[i + 1 :], shots, rng, mode)[1])
        sums[i] += d.sum()
        sums[i + 1 :] += d
    best = argmin_via_search(sums, rng)
    return best, vectors[best]
