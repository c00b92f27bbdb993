"""Quantum minimum finding over a black-box objective on n-bit inputs.

The control loop is Durr and Hoyer's (arXiv:quant-ph/9607014): iterate
threshold searches that mark every input whose objective value is strictly
below the current best, run Grover with a randomized round count (drawn
from a growing window so the unknown marked count cannot trap the search),
and accept the measured candidate when it improves.  The threshold
comparison itself is an ordinary host-side comparison.

A Grover measurement with k of N inputs marked needs only two numbers, the
marked and the unmarked probability of the two-level closed form, plus the
ascending marked set.  That set is one O(N) compare of the objective's value
table against the threshold, made at the start and on each accepted
improvement, of which there are an expected O(log N).  Each main iteration
then measures through ``grover._measure_marked``, the sampler
``grover.grover_search`` also uses, which inverts the cumulative distribution
in O(log k) probes of the k marked inputs plus a settled closed-form index,
building no oracle, amplitude vector or state.  An objective given only as a
callable is evaluated once per input into such a table first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .grover import SignOracle, _measure_marked
from .rng import RngStream
from .state import MAX_QUBITS

MAIN_ITERATION_FACTOR = 4.5   # main-loop budget = ceil(factor * sqrt(2^n))
WINDOW_GROWTH = 8.0 / 7.0
MAX_MAIN_ITERATIONS = 2**20   # 57x the default budget at MAX_QUBITS bits


@dataclass(frozen=True)
class ObjectiveFn:
    """Total real-valued objective on {0,1}^n, evaluated by integer index.

    ``table`` is an optional dense value array backing ``eval``; without it
    ``minimize`` evaluates ``eval`` once per input to build one.
    """

    n_bits: int
    eval: Callable[[int], float]
    table: np.ndarray | None = None

    def __post_init__(self):
        if not 1 <= self.n_bits <= MAX_QUBITS:
            raise DomainError(f"objective bit width {self.n_bits} out of range")

    def bits(self, x: int) -> str:
        return format(x, f"0{self.n_bits}b")

    @staticmethod
    def from_table(values) -> "ObjectiveFn":
        table = np.asarray(values, dtype=float)
        if len(table) < 2:
            raise DomainError("objective table needs at least two entries")
        n_bits = int(math.log2(len(table)))
        if 2**n_bits != len(table):
            raise DomainError(f"objective table length {len(table)} is not a power of two")
        nan = np.flatnonzero(np.isnan(table))
        if nan.size:
            raise DomainError(f"objective table entry {nan[0]} is NaN")
        return ObjectiveFn(n_bits, lambda x: float(table[x]), table=table)


@dataclass(frozen=True)
class MinimizeResult:
    argmin_bits: str
    min_value: float
    main_iterations: int
    oracle_calls: int
    trace: list[tuple[float, int]] = field(default_factory=list)


def threshold_oracle(f: ObjectiveFn, y: float) -> SignOracle:
    """Sign oracle marking exactly the inputs with f(x) < y (strictly)."""
    marked = None if f.table is None else np.flatnonzero(f.table < y)
    return SignOracle(f.n_bits, lambda x: f.eval(x) < y, marked=marked)


def argmin_via_search(values, rng: RngStream) -> int:
    """Index of the smallest entry, found by quantum minimum finding.

    The candidate list is padded to the next power of two with +inf
    sentinels so it forms an n-bit domain.  The search is probabilistic; if
    it ever reports a sentinel (possible only when every iteration missed),
    the true argmin is substituted by a host-side scan so callers always get
    a valid index.
    """
    table = np.asarray(values, dtype=float)
    if table.ndim != 1 or table.size == 0:
        raise DomainError("argmin needs a nonempty 1-D value list")
    if table.size == 1:
        return 0
    n_bits = max(1, math.ceil(math.log2(table.size)))
    padded = np.full(2**n_bits, np.inf)
    padded[: table.size] = table
    result = minimize(ObjectiveFn.from_table(padded), rng)
    index = int(result.argmin_bits, 2)
    if index >= table.size or not np.isfinite(result.min_value):
        return int(np.argmin(table))
    return index


def default_budget(n_bits: int) -> int:
    return int(math.ceil(MAIN_ITERATION_FACTOR * math.sqrt(2**n_bits)))


def minimize(
    f: ObjectiveFn,
    rng: RngStream,
    max_main_iterations: int | None = None,
) -> MinimizeResult:
    """Find the global minimum of ``f`` with high probability.

    Runs a fixed budget of main iterations (default ``ceil(4.5 * sqrt(2^n))``;
    a negative budget is a ``DomainError``, and one over
    ``MAX_MAIN_ITERATIONS`` a ``ConfigError`` raised before any draw) and
    returns the best input seen, including the random starting point.
    The per-iteration Grover round count is drawn uniformly from [0, m) with
    the window m starting at 1, growing by 8/7 on every failed iteration up
    to sqrt(2^n), and resetting to 1 on every accepted improvement.

    The call costs one O(N) compare of the value table (built by
    evaluating ``f`` once per input when ``f`` has none) at the start and on
    each accepted improvement, of which there are an expected O(log N), and
    per main iteration a ``grover._measure_marked`` draw of O(log k) probes
    of the k marked inputs plus a settled closed form; each measurement
    consumes one ``rng.uniform()``, the same double ``RngStream.choice``
    would.  A NaN value is a ``DomainError``, as in
    ``ObjectiveFn.from_table``.
    """
    n = f.n_bits
    budget = default_budget(n) if max_main_iterations is None else int(max_main_iterations)
    if budget < 0:
        raise DomainError(f"main-iteration budget must be >= 0, got {budget}")
    if budget > MAX_MAIN_ITERATIONS:
        # One (threshold, candidate) trace entry takes about 72 bytes.
        raise ConfigError(
            f"main-iteration budget {budget:,} is over the {MAX_MAIN_ITERATIONS:,} cap: "
            f"its trace would hold {budget:,} entries, about {72 * budget // 2**20:,} MiB"
        )
    dim = 2**n
    table = f.table
    if table is None:
        table = ObjectiveFn.from_table([f.eval(x) for x in range(dim)]).table
    best_x = rng.randint(dim)
    best_y = float(table[best_x])
    marked = np.flatnonzero(table < best_y)
    window = 1
    window_cap = max(1, math.floor(math.sqrt(dim)))
    trace: list[tuple[float, int]] = []
    oracle_calls = 0
    for _ in range(budget):
        rounds = rng.randint(window)
        candidate = _measure_marked(marked, dim, rounds, rng.uniform())
        oracle_calls += rounds
        trace.append((best_y, candidate))
        value = float(table[candidate])
        if value < best_y:
            best_x, best_y = candidate, value
            marked = np.flatnonzero(table < best_y)
            window = 1
        else:
            window = min(math.ceil(window * WINDOW_GROWTH), window_cap)
    return MinimizeResult(
        argmin_bits=f.bits(best_x),
        min_value=best_y,
        main_iterations=budget,
        oracle_calls=oracle_calls,
        trace=trace,
    )
