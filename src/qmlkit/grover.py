"""Grover search over black-box sign oracles.

The oracle is conceptually a diagonal gate flipping the amplitude sign of
marked inputs.  Searches do not apply the rounds one by one: with k of
N = 2^n inputs marked, oracle and inversion around the mean keep the state in
span{|marked>, |unmarked>}, where each round is a rotation by 2*theta with
sin(theta) = sqrt(k/N) (Boyer, Brassard, Hoyer and Tapp,
arXiv:quant-ph/9605034).  After any number of rounds the state is therefore
fixed by the sorted marked indices and two amplitudes.  Marking costs O(k)
for an oracle that states its marked set, else one pass over all 2^n inputs,
and a measurement (``_measure_marked``, which ``minimizer.minimize`` shares)
O(log k) probes of the marked set plus a closed form settled by galloping.
It builds no 2^n amplitude vector; the final state is built only when read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .rng import RngStream
from .state import MAX_QUBITS, StateVector

# The angle (2r+1)*theta carries a rounding error of about (2r+1)*theta*2^-53,
# which nears the 1e-9 of the acceptance tolerances past 2^21 rounds; the
# default at MAX_QUBITS bits is 3,216.
MAX_ROUNDS = 2**21


@dataclass(frozen=True)
class SignOracle:
    """Black-box predicate on n-bit inputs, acting as |x> -> (-1)^f(x) |x>.

    ``marked``, when given, states the marked set: a strictly increasing
    integer array in [0, 2^n) that agrees with ``predicate``, checked in O(k)
    and kept read-only.  Without it, marking is one predicate pass over 2^n.
    """

    n_bits: int
    predicate: Callable[[int], bool]
    marked_count_hint: int | None = None
    marked: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.n_bits <= MAX_QUBITS:
            raise DomainError(f"oracle bit width {self.n_bits} out of range")
        if self.marked is None:
            return
        marked = np.asarray(self.marked)
        if marked.ndim != 1 or marked.dtype.kind not in "iu":
            raise DomainError(f"marked set must be 1-D integers, not {marked.dtype}{marked.shape}")
        marked = np.ascontiguousarray(marked, dtype=np.intp).view()
        if np.any(marked[1:] <= marked[:-1]):
            raise DomainError("marked indices must be strictly increasing")
        if marked.size and not 0 <= marked[0] <= marked[-1] < 2**self.n_bits:
            raise DomainError(f"marked {marked[0]}..{marked[-1]} outside [0, 2^{self.n_bits})")
        marked.flags.writeable = False
        object.__setattr__(self, "marked", marked)

    def marked_indices(self) -> np.ndarray:
        """The marked inputs in ascending order: ``marked`` when given, else
        from one pass of the predicate over all 2^n inputs."""
        if self.marked is not None:
            return self.marked
        return np.fromiter((x for x in range(2**self.n_bits) if self.predicate(x)), dtype=np.intp)


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
        uniform = (-1.0 if rounds % 2 else 1.0) / math.sqrt(dim)
        return uniform, uniform
    angle = (2 * rounds + 1) * math.asin(math.sqrt(n_marked / dim))
    return math.sin(angle) / math.sqrt(n_marked), math.cos(angle) / math.sqrt(dim - n_marked)


def _first_true(exceeds: Callable[[int], bool], lo: int, hi: int, start: int) -> int:
    """Smallest i in [lo, hi) with ``exceeds(i)``, or ``hi`` if none, for a
    predicate non-decreasing in i: steps doubling away from ``start`` (in
    [lo, hi]) bracket it and bisection settles it, in O(log |i - start|)."""
    a = b = start
    step = 1
    while a > lo and exceeds(a - 1):
        a, b, step = max(lo, a - step), a - 1, step * 2
    step = 1
    while b < hi and not exceeds(b):
        a, b, step = b + 1, min(hi, b + step), step * 2
    while a < b:
        mid = (a + b) // 2
        a, b = (a, mid) if exceeds(mid) else (mid + 1, b)
    return a


def _measure_marked(marked: np.ndarray, dim: int, rounds: int, u: float) -> int:
    """Index measured after ``rounds`` Grover rounds with the ascending
    indices ``marked`` marked, for the uniform draw ``u`` in [0, 1).

    It is the inverse-CDF draw of ``RngStream.choice`` without the CDF: the
    smallest i whose cumulative probability exceeds ``u`` times the total
    (the last index always does: its sum is the total).  The sum up to i is
    p_marked * M + p_unmarked * (i + 1 - M), with M = #marked <= i, so that
    each term, and their rounded sum, is non-decreasing in i.  Probing the
    sum at the marked inputs, O(log k) times, finds the gap that holds i;
    there M is fixed, and the sum solved for i is settled by galloping (it
    can be thousands of indices off when p_unmarked is tiny).
    """
    k = marked.size
    amp_marked, amp_unmarked = two_level_amplitudes(k, dim, rounds)
    p_marked, p_unmarked = amp_marked**2, amp_unmarked**2
    target = u * (p_marked * k + p_unmarked * (dim - k))
    at = memoryview(marked)
    # The first marked input past the target ends the gap (start: where equal shares put it).
    j = _first_true(
        lambda j: p_marked * (j + 1) + p_unmarked * (at[j] - j) > target, 0, k, int(u * k)
    )
    lo, hi = (at[j - 1] + 1 if j else 0), (at[j] if j < k else dim)
    # p_unmarked > 0: |cos| of a double angle is never below about 2^-62.
    first = (target - p_marked * j) / p_unmarked + j
    return _first_true(
        lambda i: p_marked * j + p_unmarked * (i + 1 - j) > target,
        lo, hi, int(min(max(first, lo), hi)),
    )


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

    A search costs the oracle's marking (O(k) for a stated marked set, one
    predicate pass over all 2^n inputs otherwise), O(k) for the success
    probability and a measurement of O(log k) probes plus a settled closed
    form, which takes one ``rng.uniform()``, the same double
    ``RngStream.choice`` would, whatever the round count.  ``final_state``
    costs O(2^n) more, on its first read.

    With no iteration count given, uses the optimum for the oracle's
    ``marked_count_hint`` (assumed 1 when absent).  A negative count is a
    ``DomainError`` and one over ``MAX_ROUNDS`` a ``ConfigError``, both
    raised before any draw.  An unmarked measured index is reported, never
    raised.
    """
    n = o.n_bits
    if iterations is None:
        iterations = default_iterations(n, o.marked_count_hint or 1)
    if iterations < 0:
        raise DomainError(f"Grover round count must be >= 0, got {iterations}")
    if iterations > MAX_ROUNDS:
        bits = int(iterations).bit_length()
        count = f"{iterations:,}" if bits <= 64 else f"of 2^{bits - 1} or more"
        raise ConfigError(
            f"Grover round count {count} is over the cap of {MAX_ROUNDS:,} (2^21): "
            "past it the float angle (2r+1)*theta carries a rounding error near the "
            "1e-9 of the acceptance tolerances"
        )
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
