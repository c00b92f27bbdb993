"""Grover search over black-box sign oracles.

The oracle is conceptually a diagonal gate flipping the amplitude sign of
marked inputs; only its +-1 diagonal is ever built.  Searches do not apply
the rounds one by one: with k of N = 2^n inputs marked, oracle and
inversion around the mean keep the state in span{|marked>, |unmarked>},
where each round is a rotation by 2*theta with sin(theta) = sqrt(k/N)
(Boyer, Brassard, Hoyer and Tapp, arXiv:quant-ph/9605034).  The final state
after any number of rounds is therefore built directly in O(2^n) time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .rng import RngStream
from .state import MAX_QUBITS, StateVector


@dataclass(frozen=True)
class SignOracle:
    """Black-box predicate on n-bit inputs, acting as |x> -> (-1)^f(x) |x>.

    ``predicate_vectorized``, when provided, must agree with ``predicate``
    on every input; it lets array-backed predicates mark all inputs in one
    shot instead of 2^n Python calls.
    """

    n_bits: int
    predicate: Callable[[int], bool]
    marked_count_hint: int | None = None
    predicate_vectorized: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 1 <= self.n_bits <= MAX_QUBITS:
            raise DomainError(f"oracle bit width {self.n_bits} out of range")

    def signs(self) -> np.ndarray:
        """The +-1 diagonal induced by the predicate."""
        if self.predicate_vectorized is not None:
            marks = np.asarray(
                self.predicate_vectorized(np.arange(2**self.n_bits)), dtype=bool
            )
        else:
            marks = np.fromiter(
                (bool(self.predicate(x)) for x in range(2**self.n_bits)),
                dtype=bool,
                count=2**self.n_bits,
            )
        return np.where(marks, -1.0, 1.0)


@dataclass(frozen=True)
class GroverResult:
    measured_index: int
    iterations_used: int
    final_state: StateVector
    success_probability: float


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


def grover_search(
    o: SignOracle, rng: RngStream, iterations: int | None = None
) -> GroverResult:
    """Uniform superposition, ``iterations`` rounds of oracle + inversion
    around the mean, then a full measurement.

    The rounds are not simulated one at a time: the final state is built in
    closed form in O(2^n), whatever the round count.  With k of N inputs
    marked and theta = asin(sqrt(k/N)), each marked amplitude is
    sin((2r+1)theta)/sqrt(k) and each unmarked one cos((2r+1)theta)/sqrt(N-k).
    With nothing marked the state stays uniform and ``success_probability``
    is 0; with everything marked the amplitudes are (-1)^r/sqrt(N) and
    ``success_probability`` is 1.

    With no iteration count given, uses the optimum for the oracle's
    ``marked_count_hint`` (assumed 1 when absent).  A negative count is a
    ``DomainError``.  An unmarked measured index is reported, never raised.
    """
    n = o.n_bits
    if iterations is None:
        iterations = default_iterations(n, o.marked_count_hint or 1)
    if iterations < 0:
        raise DomainError(f"Grover round count must be >= 0, got {iterations}")
    marked = o.signs() < 0
    amp_marked, amp_unmarked = two_level_amplitudes(
        int(np.count_nonzero(marked)), marked.size, iterations
    )
    amps = np.where(marked, amp_marked, amp_unmarked)
    probs = amps**2
    measured = rng.choice(probs / probs.sum())
    final = StateVector(n, amps / np.linalg.norm(amps))
    success = float(probs[marked].sum())
    return GroverResult(
        measured_index=measured,
        iterations_used=iterations,
        final_state=final,
        success_probability=success,
    )
