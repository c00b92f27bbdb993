"""Grover search over black-box sign oracles.

The oracle is conceptually a diagonal gate flipping the amplitude sign of
marked inputs.  Searches do not apply the rounds one by one: with k of
N = 2^n inputs marked, oracle and inversion around the mean keep the state in
span{|marked>, |unmarked>}, where each round is a rotation by 2*theta with
sin(theta) = sqrt(k/N) (Boyer, Brassard, Hoyer and Tapp,
arXiv:quant-ph/9605034).  After any number of rounds the state is therefore
fixed by the sorted marked indices and two amplitudes.  A search makes one
O(2^n) pass of the predicate to find the marked indices, then measures by
binary search over the two-level cumulative distribution in O(log^2 N)
(``_measure_marked``, which ``minimizer.minimize`` shares).  It builds no
2^n amplitude vector; the final state is built only when it is read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError
from .rng import RngStream
from .state import MAX_QUBITS, StateVector

# Inputs per call of a vectorized predicate, so that marking a wide search
# holds index and mask temporaries of this size rather than of 2^n.
_MARK_CHUNK = 2**16


@dataclass(frozen=True)
class SignOracle:
    """Black-box predicate on n-bit inputs, acting as |x> -> (-1)^f(x) |x>.

    ``predicate_vectorized``, when provided, must agree with ``predicate``
    on every input; it lets array-backed predicates mark a block of inputs
    in one call instead of one Python call per input.
    """

    n_bits: int
    predicate: Callable[[int], bool]
    marked_count_hint: int | None = None
    predicate_vectorized: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 1 <= self.n_bits <= MAX_QUBITS:
            raise DomainError(f"oracle bit width {self.n_bits} out of range")

    def marked_indices(self) -> np.ndarray:
        """The marked inputs in ascending order, from one pass over all 2^n."""
        dim = 2**self.n_bits
        if self.predicate_vectorized is None:
            return np.fromiter((x for x in range(dim) if self.predicate(x)), dtype=np.intp)
        return np.concatenate([
            start + np.flatnonzero(np.asarray(
                self.predicate_vectorized(np.arange(start, min(start + _MARK_CHUNK, dim))),
                dtype=bool,
            ))
            for start in range(0, dim, _MARK_CHUNK)
        ])


@dataclass(frozen=True, eq=False)
class GroverResult:
    """A search's measurement, round count and success probability.

    ``final_state`` is built from the marked indices and the two amplitudes
    on first read, in O(2^n), and cached.
    """

    measured_index: int
    iterations_used: int
    success_probability: float
    _n_bits: int = field(repr=False)
    _marked: np.ndarray = field(repr=False)
    _amplitudes: tuple[float, float] = field(repr=False)

    @cached_property
    def final_state(self) -> StateVector:
        mask = np.zeros(2**self._n_bits, dtype=bool)
        mask[self._marked] = True
        amps = np.where(mask, *self._amplitudes)
        return StateVector(self._n_bits, amps / np.linalg.norm(amps))


def default_iterations(n_bits: int, marked_count: int) -> int:
    """floor(pi/4 * sqrt(2^n / k)), the amplitude-amplification optimum."""
    if marked_count <= 0:
        marked_count = 1
    return int(math.floor(math.pi / 4.0 * math.sqrt(2**n_bits / marked_count)))


def two_level_amplitudes(n_marked: int, dim: int, rounds: int) -> tuple[float, float]:
    """(marked, unmarked) amplitude after ``rounds`` Grover rounds from the
    uniform state over ``dim`` inputs with ``n_marked`` of them marked, in
    the closed form ``grover_search`` documents.  The k = 0 and k = N
    branches avoid dividing by a zero marked or unmarked count; there every
    amplitude is the same."""
    if n_marked == 0:
        uniform = 1.0 / math.sqrt(dim)
        return uniform, uniform
    if n_marked == dim:
        uniform = (-1.0) ** rounds / math.sqrt(dim)
        return uniform, uniform
    angle = (2 * rounds + 1) * math.asin(math.sqrt(n_marked / dim))
    return math.sin(angle) / math.sqrt(n_marked), math.cos(angle) / math.sqrt(dim - n_marked)


def _measure_marked(marked: np.ndarray, dim: int, rounds: int, u: float) -> int:
    """Index measured after ``rounds`` Grover rounds with the ascending
    indices ``marked`` marked, for the uniform draw ``u`` in [0, 1).

    It is the inverse-CDF draw of ``RngStream.choice`` without the CDF: the
    smallest i whose cumulative probability exceeds ``u`` times the total,
    found by binary search.  The cumulative probability up to i is summed as
    p_marked * M + p_unmarked * (i + 1 - M), with M = #marked <= i, so that
    each term, and their rounded sum, is non-decreasing in i.
    """
    k = marked.size
    amp_marked, amp_unmarked = two_level_amplitudes(k, dim, rounds)
    p_marked, p_unmarked = amp_marked**2, amp_unmarked**2
    target = u * (p_marked * k + p_unmarked * (dim - k))
    lo, hi = 0, dim - 1
    while lo < hi:
        mid = (lo + hi) // 2
        below = int(marked.searchsorted(mid, "right"))
        if p_marked * below + p_unmarked * (mid + 1 - below) > target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def grover_search(
    o: SignOracle, rng: RngStream, iterations: int | None = None
) -> GroverResult:
    """Uniform superposition, ``iterations`` rounds of oracle + inversion
    around the mean, then a full measurement.

    The rounds are not simulated one at a time.  With k of N inputs marked
    and theta = asin(sqrt(k/N)), each marked amplitude is
    sin((2r+1)theta)/sqrt(k) and each unmarked one cos((2r+1)theta)/sqrt(N-k).
    With nothing marked the state stays uniform and ``success_probability``
    is 0; with everything marked the amplitudes are (-1)^r/sqrt(N) and
    ``success_probability`` is 1.

    A search costs one pass of the predicate over all 2^n inputs, O(k) for
    the success probability and an O(log^2 N) measurement, which takes one
    ``rng.uniform()``, the same double ``RngStream.choice`` would, whatever
    the round count.  ``final_state`` costs O(2^n) more, on its first read.

    With no iteration count given, uses the optimum for the oracle's
    ``marked_count_hint`` (assumed 1 when absent).  A negative count is a
    ``DomainError``.  An unmarked measured index is reported, never raised.
    """
    n = o.n_bits
    if iterations is None:
        iterations = default_iterations(n, o.marked_count_hint or 1)
    if iterations < 0:
        raise DomainError(f"Grover round count must be >= 0, got {iterations}")
    marked = o.marked_indices()
    amplitudes = two_level_amplitudes(marked.size, 2**n, iterations)
    measured = _measure_marked(marked, 2**n, iterations, rng.uniform())
    # k copies of the marked probability, summed the way numpy sums the
    # marked entries of a full probability vector, so the value is bit-equal
    # to that sum; k * p can differ from it in the last bits.
    success = float(np.full(marked.size, np.square(amplitudes[0])).sum())
    return GroverResult(
        measured_index=measured,
        iterations_used=iterations,
        success_probability=success,
        _n_bits=n,
        _marked=marked,
        _amplitudes=amplitudes,
    )
