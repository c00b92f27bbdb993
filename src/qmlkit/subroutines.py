"""Overlap and distance estimation subroutines.

These bridge classical vectors and quantum registers: a real vector is
amplitude-encoded into ceil(log2 N) qubits, overlaps are read out through
the swap-test circuit, and Euclidean distances come from the two-state
construction whose ancilla overlap encodes |a-b|^2 / 2Z.

``swap_test`` runs one pair of states as one register, |+> (x) a (x) b,
whose gates act on it through ``gates.apply``.  The distance test's p0 has
a closed form in the norms and |a-b|^2, so ``distance_p0`` builds no
register; its callers pair the rows with the live centroids of a k-means
pass, or the points i < j of a set median, in batches of whole rows of at
most ``MAX_BATCH_PAIRS`` pairs.  Each estimator carries the exact p0 and a
shot-based value, drawn in chunks of at most 16 * ``_SLICE_AMPS`` bytes in
the order of one batch per point.
"""
from __future__ import annotations

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
# Entries of one chunk of distance differences, and complex amplitudes'
# worth (64 KiB) of one chunk of shot draws; on the clustering benchmark,
# drawing a whole k-means pass's shots at once peaked 7 MiB higher.
_SLICE_AMPS = 2**12
# Pairs of one k-means or set-median distance batch: their per-pair arrays
# (indices, Z, p0, estimates) take a few MiB, where a whole pass or median
# would grow with rows x centroids or with the square of the point count.
MAX_BATCH_PAIRS = 2**16
# The shot draws of one point's pairs may take as much memory as a state at
# the qubit cap, 2^24 complex amplitudes (256 MiB); more is refused.
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


@dataclass(frozen=True)
class DistanceEstimate:
    z: float
    dist_sq: float
    inner_prod: float


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Norms of the rows of a matrix, refused unless every row has an
    amplitude encoding: finite entries, a squared norm within the float
    range (neither overflowing nor rounding to 0), and within ``MAX_QUBITS``
    qubits.  A refusal names the
    first row that has none."""
    # One dot product per row, summed as np.linalg.norm sums one vector.  A
    # non-finite entry or an overflowing sum makes its norm non-finite.
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())
    if not (np.all(np.isfinite(norms)) and np.all(norms)):
        row = int(np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))[0])
        if not np.all(np.isfinite(rows[row])):
            reason = "it has NaN or infinite entries"
        elif norms[row]:
            reason = "its squared norm overflows the float range"
        elif np.any(rows[row]):
            reason = "its squared norm underflows the float range"
        else:
            reason = "it is the zero vector"
        raise DomainError(f"row {row} has no amplitude encoding: {reason}")
    _check_n_qubits(_encoded_qubits(rows.shape[1]))
    return norms


def _encoded_qubits(size: int) -> int:
    """ceil(log2 size) qubits, at least one, to amplitude-encode a vector."""
    return max(1, (size - 1).bit_length())


def encode(a) -> EncodedVector:
    """Amplitude-encode a nonzero real vector, zero-padded to a power of two."""
    raw = np.asarray(a, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise DomainError("encode expects a nonempty 1-D vector")
    norm = _row_norms(raw[None])[0]
    n_qubits = _encoded_qubits(raw.size)
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[: raw.size] = raw / norm
    return EncodedVector(raw=raw, norm=float(norm), state=StateVector(n_qubits, amps))


def _swap_test_p0(a: StateVector, b: StateVector) -> float:
    """Exact control-qubit |0> probability of the swap test on one pair.

    The register |+> (x) a (x) b runs the Fredkin ladder, which swaps each
    qubit of ``a`` with the matching qubit of ``b``, and then H on the
    control; p0 is the weight of its control-0 half.
    """
    n = a.n_qubits
    # Refused before the joint amplitudes are built.
    state = StateVector(_check_n_qubits(1 + 2 * n), np.kron(_PLUS, np.kron(a.amps, b.amps)))
    for q in range(1, 1 + n):
        state = apply(_FREDKIN, [0, q, q + n], state)
    state = apply(_H, [0], state)
    return float((np.abs(state.amps[: state.dim // 2]) ** 2).sum())


def _check_draw_budget(need: int, what: str) -> None:
    """Refuse draws whose arrays would take more than ``_DRAW_BYTES_CAP``."""
    if need > _DRAW_BYTES_CAP:
        raise ConfigError(  # nearest MiB in integers: a float quotient overflows past 1e308
            f"{what} need {(need + 2**19) // 2**20:,} MiB, over the {_DRAW_BYTES_CAP // 2**20} MiB budget"
        )


def _check_shots(shots: int) -> None:
    if shots < 1:
        raise DomainError(f"shots must be >= 1, got {shots}")


def _estimate_p0(
    exact_p0: np.ndarray, shots: int, rng: RngStream | None, row: int | None = None
) -> np.ndarray:
    """Shot estimates of each p0 (the exact values when ``rng`` is None).

    Each shot re-prepares the same state, so control measurements are
    i.i.d. Bernoulli draws at the exact probability; pair b takes the b-th
    block of ``shots`` draws, as one call per pair would.  The draws are
    made in chunks of pairs, each within 16 * ``_SLICE_AMPS`` bytes unless
    one pair alone needs more (Philox gives the same stream in any
    chunking).  A row of ``row`` pairs (by default the whole batch) whose
    draws would pass ``_DRAW_BYTES_CAP`` is refused before any draw.
    """
    if rng is None:
        return exact_p0
    row = exact_p0.size if row is None else int(row)
    _check_draw_budget(8 * row * shots, f"{row} x {shots} shot draws")
    step = max(1, 2 * _SLICE_AMPS // shots)
    p0_hat = np.empty_like(exact_p0)
    for start in range(0, exact_p0.size, step):
        exact = exact_p0[start : start + step]
        draws = rng.gen.random((exact.size, shots))
        p0_hat[start : start + step] = np.count_nonzero(draws < exact[:, None], axis=1) / shots
    return p0_hat


def overlap_sq(p0):
    """|<a|b>|^2 = 2 p0 - 1, clamped into [0, 1] against estimation noise."""
    return np.clip(2.0 * p0 - 1.0, 0.0, 1.0)


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
    exact_p0 = _swap_test_p0(a, b)
    (p0_hat,) = _estimate_p0(np.array([exact_p0]), shots, rng)
    return OverlapEstimate(
        p0_hat=float(p0_hat),
        overlap_sq_hat=float(overlap_sq(p0_hat)),
        shots=shots,
        exact_p0=float(exact_p0),
    )


def distance_p0(left, right, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Z = |a|^2 + |b|^2 and the exact swap-test p0 of each distance pair.

    ``pairs`` = (rows of ``left``, rows of ``right``) lists the pairs by
    index; a 1-D ``left`` is one row.

    Each pair prepares psi = (|0,a> + |1,b>)/sqrt(2) and
    phi = (|a| |0> - |b| |1>)/sqrt(Z) and swap-tests phi against psi's
    ancilla qubit (the data register rides along uncontracted): projecting
    the ancilla onto phi leaves (a - b)/sqrt(2Z), so o = |a-b|^2 / 2Z and
    p0 = 1/2 + o/2.  That form is computed with no register, |a-b|^2 as
    the summed squares of each pair's gathered differences, in chunks of
    ``_SLICE_AMPS`` entries; the Gram form Z - 2 a.b would cancel for
    near-equal points.
    """
    left = np.atleast_2d(np.asarray(left, dtype=float))
    right = np.atleast_2d(np.asarray(right, dtype=float))
    if left.size == 0:
        raise DomainError("encode expects a nonempty 1-D vector")
    if left.shape[1] != right.shape[1]:
        raise DomainError(f"dimension mismatch: {left.shape[1]} vs {right.shape[1]}")
    rows, cols = (np.asarray(index) for index in pairs)
    if rows.shape != cols.shape:
        raise DomainError(f"{rows.size} left rows cannot pair with {cols.size} right rows")
    dist_sq = np.empty(rows.size)
    chunk = max(1, _SLICE_AMPS // left.shape[1])
    with np.errstate(over="ignore"):  # refused below, not warned
        z = np.square(_row_norms(left))[rows] + np.square(_row_norms(right))[cols]
        for start in range(0, z.size, chunk):
            diff = left[rows[start : start + chunk]] - right[cols[start : start + chunk]]
            dist_sq[start : start + chunk] = np.einsum("ij,ij->i", diff, diff)
        # Every entry is >= 0 or inf, so the largest is finite exactly when
        # every pair's is.
        if not (2.0 * z.max(initial=0.0) < np.inf and dist_sq.max(initial=0.0) < np.inf):
            raise DomainError(
                "a distance pair overflows the float range: 2(|a|^2 + |b|^2) or |a-b|^2 is "
                "not finite; rescale the data"
            )
    return z, 0.5 + 0.5 * (dist_sq / (2.0 * z))


def estimate_dist_sq(
    z: np.ndarray,
    exact_p0: np.ndarray,
    shots: int = DEFAULT_SHOTS,
    rng: RngStream | None = None,
    row: int | None = None,
) -> np.ndarray:
    """|a-b|^2 = 2Z o for pairs from ``distance_p0``, with o the squared
    ancilla overlap: exact without ``rng``, else from ``shots`` draws per
    pair in pair order, where a row of ``row`` pairs (by default all of
    them) whose draws pass the shot-memory budget is refused."""
    _check_shots(shots)
    return 2.0 * z * overlap_sq(_estimate_p0(exact_p0, shots, rng, row))


def distances(
    a,
    others,
    shots: int = DEFAULT_SHOTS,
    rng: RngStream | None = None,
    mode: str = "exact",
    pairs=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Z and |a-b|^2 for pairs of rows as one batch: exact, or estimated
    from shots in ``shots`` mode (see ``distance_p0``).

    A vector ``a`` pairs with each row of ``others``; a matrix ``a`` pairs
    row b with row b of ``others``; ``pairs`` = (rows of ``a``, rows of
    ``others``) lists the pairs by index instead.  The pairs of one row of
    ``a`` are the unit the shot-memory budget refuses.
    """
    if mode not in ("exact", "shots"):
        raise DomainError(f"unknown distance mode {mode!r}")
    if mode == "shots" and rng is None:
        raise DomainError("shots mode requires an RngStream")
    left = np.asarray(a, dtype=float)
    if pairs is None:
        cols = np.arange(len(np.atleast_2d(others)))
        pairs = (np.zeros_like(cols) if left.ndim == 1 else np.arange(len(left)), cols)
    z, p0 = distance_p0(left, others, pairs)
    row = np.bincount(pairs[0]).max(initial=0)
    return z, estimate_dist_sq(z, p0, shots, rng if mode == "shots" else None, row)


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
    The pairs i < j run in i-major order, in ``distances`` batches of whole
    points of at most ``MAX_BATCH_PAIRS`` pairs (up to 257 points are one
    batch), and the sums accumulate point by point as per-point batches
    would.
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
    matrix = np.array(vectors)
    sums = np.zeros(m)
    step = max(1, MAX_BATCH_PAIRS // (m - 1))
    for first in range(0, m - 1, step):
        block = np.arange(first, min(first + step, m - 1))
        i, j = np.nonzero(np.arange(m) > block[:, None])
        d = np.sqrt(distances(matrix, matrix, shots, rng, mode, (block[i], j))[1])
        start = 0
        for point in block:
            row = d[start : start + m - 1 - point]
            sums[point] += row.sum()
            sums[point + 1 :] += row
            start += row.size
    best = argmin_via_search(sums, rng)
    return best, vectors[best]
