"""Quantum minimum finding over a black-box objective on n-bit inputs.

The control loop iterates threshold searches: mark every input whose
objective value is strictly below the current best, run Grover with a
randomized round count (drawn from a growing window so the unknown marked
count cannot trap the search), and accept the measured candidate when it
improves.  The threshold comparison itself is an ordinary host-side
comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .grover import SignOracle, grover_search
from .rng import RngStream
from .state import MAX_QUBITS

MAIN_ITERATION_FACTOR = 4.5   # main-loop budget = ceil(factor * sqrt(2^n))
WINDOW_GROWTH = 8.0 / 7.0


@dataclass(frozen=True)
class ObjectiveFn:
    """Total real-valued objective on {0,1}^n, evaluated by integer index.

    ``table`` is an optional dense value array backing ``eval``; when present
    the threshold oracles mark inputs with one vectorized comparison.
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
    vectorized = None
    if f.table is not None:
        table = f.table
        vectorized = lambda xs: table[xs] < y
    return SignOracle(f.n_bits, lambda x: f.eval(x) < y, predicate_vectorized=vectorized)


def argmin_via_search(values, rng: RngStream, max_main_iterations: int | None = None) -> int:
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
    result = minimize(ObjectiveFn.from_table(padded), rng, max_main_iterations)
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
    a negative budget is a ``DomainError``) and returns the best input seen,
    including the random starting point.
    The per-iteration Grover round count is drawn uniformly from [0, m) with
    the window m starting at 1, growing by 8/7 on every failed iteration up
    to sqrt(2^n), and resetting to 1 on every accepted improvement.
    """
    n = f.n_bits
    budget = default_budget(n) if max_main_iterations is None else int(max_main_iterations)
    if budget < 0:
        raise DomainError(f"main-iteration budget must be >= 0, got {budget}")
    best_x = rng.randint(2**n)
    best_y = float(f.eval(best_x))
    window = 1
    window_cap = max(1, math.floor(math.sqrt(2**n)))
    trace: list[tuple[float, int]] = []
    oracle_calls = 0
    for _ in range(budget):
        rounds = rng.randint(window)
        oracle = threshold_oracle(f, best_y)
        result = grover_search(oracle, rng, iterations=rounds)
        oracle_calls += rounds
        candidate = result.measured_index
        trace.append((best_y, candidate))
        value = float(f.eval(candidate))
        if value < best_y:
            best_x, best_y = candidate, value
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
