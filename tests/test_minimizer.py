import math

import numpy as np
import pytest

from qmlkit import minimizer
from qmlkit.errors import ConfigError, DomainError
from qmlkit.minimizer import (
    ObjectiveFn,
    argmin_via_search,
    default_budget,
    minimize,
    threshold_oracle,
)
from qmlkit.rng import RngStream

# 3-bit landscape with a unique global minimum at input 100.
DEMO_TABLE = [1.0, 2.0, 3.0, 3.0, 0.0, 3.0, 3.0, 3.0]
DEMO = ObjectiveFn.from_table(DEMO_TABLE)


class TestThresholdOracle:
    def test_marks_below_two(self):
        oracle = threshold_oracle(DEMO, 2.0)
        marked = {x for x in range(8) if oracle.predicate(x)}
        assert marked == {0b000, 0b100}

    def test_minus_infinity_marks_nothing(self):
        oracle = threshold_oracle(DEMO, -math.inf)
        assert not any(oracle.predicate(x) for x in range(8))

    def test_above_max_marks_everything(self):
        oracle = threshold_oracle(DEMO, max(DEMO_TABLE) + 1)
        assert all(oracle.predicate(x) for x in range(8))


class TestMinimize:
    def test_demo_objective_seeded_run(self):
        result = minimize(DEMO, RngStream(123))
        assert result.argmin_bits == "100"
        assert result.min_value == 0.0
        assert result.main_iterations == default_budget(3)

    def test_constant_objective(self):
        constant = ObjectiveFn.from_table([5.0] * 8)
        result = minimize(constant, RngStream(3))
        assert result.min_value == 5.0
        # Strict-inequality thresholds never accept an equal value.
        thresholds = [t for t, _ in result.trace]
        assert all(t == 5.0 for t in thresholds)

    def test_popcount_objective(self):
        popcount = ObjectiveFn(4, lambda x: float(bin(x).count("1")))
        result = minimize(popcount, RngStream(9))
        assert result.argmin_bits == "0000"
        assert result.min_value == 0.0

    def test_trace_thresholds_non_increasing(self):
        result = minimize(DEMO, RngStream(77))
        thresholds = [t for t, _ in result.trace]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))

    def test_min_value_matches_argmin(self):
        result = minimize(DEMO, RngStream(5))
        assert result.min_value == DEMO.eval(int(result.argmin_bits, 2))

    def test_demo_success_rate(self):
        wins = sum(
            minimize(DEMO, RngStream(seed)).argmin_bits == "100" for seed in range(200)
        )
        assert wins >= 190

    def test_random_injective_success_rate(self):
        tables = np.random.default_rng(2024)
        wins = 0
        runs = 200
        for seed in range(runs):
            n_bits = int(tables.integers(3, 9))
            values = tables.permutation(2**n_bits).astype(float)
            objective = ObjectiveFn.from_table(values)
            result = minimize(objective, RngStream(10_000 + seed))
            wins += int(result.argmin_bits, 2) == int(np.argmin(values))
        assert wins >= 0.95 * runs

    def test_oracle_round_budget_pinned(self):
        # Regression guard: total Grover rounds stay within a fixed multiple
        # of sqrt(2^n) across seeds (measured headroom, not an asymptotic proof).
        cap_factor = 40.0
        gen = np.random.default_rng(7)
        for seed in range(30):
            n_bits = int(gen.integers(3, 9))
            values = gen.permutation(2**n_bits).astype(float)
            result = minimize(ObjectiveFn.from_table(values), RngStream(seed))
            assert result.oracle_calls <= cap_factor * math.sqrt(2**n_bits)

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError, match="-1"):
            minimize(DEMO, RngStream(0), max_main_iterations=-1)

    def test_budget_over_cap_refused_before_any_draw(self):
        calls = []
        objective = ObjectiveFn(3, lambda x: calls.append(x) or float(x))
        rng = RngStream(0)
        with pytest.raises(
            ConfigError,
            match=r"^main-iteration budget 1,048,577 is over the 1,048,576 cap: "
            r"its trace would hold 1,048,577 entries, about 72 MiB$",
        ):
            minimize(objective, rng, max_main_iterations=2**20 + 1)
        # Past about 2.6e312 a float estimate of the trace would overflow.
        with pytest.raises(ConfigError, match=r"entries, about 6(,\d{3}){105} MiB$"):
            minimize(objective, rng, max_main_iterations=10**320)
        assert calls == []
        assert rng.uniform() == RngStream(0).uniform()

    def test_budget_at_cap_runs(self, monkeypatch):
        monkeypatch.setattr(minimizer, "MAX_MAIN_ITERATIONS", 5)
        assert minimize(DEMO, RngStream(0), max_main_iterations=5).main_iterations == 5
        with pytest.raises(ConfigError, match="over the 5 cap"):
            minimize(DEMO, RngStream(0), max_main_iterations=6)

    def test_marked_set_takes_no_sort(self, monkeypatch):
        # The inputs below a threshold are one compare of the table, already
        # ascending: no argsort of the table and no re-sort of a prefix.
        def refuse(*args, **kwargs):
            raise AssertionError("minimize sorted an array")

        values = np.random.default_rng(29).normal(size=2**10)
        monkeypatch.setattr(np, "argsort", refuse)
        monkeypatch.setattr(np, "sort", refuse)
        result = minimize(ObjectiveFn.from_table(values), RngStream(29))
        assert len({threshold for threshold, _ in result.trace}) > 2
        assert result.min_value == values.min()

    def test_zero_budget_returns_starting_point(self):
        result = minimize(DEMO, RngStream(0), max_main_iterations=0)
        assert result.main_iterations == 0 and result.oracle_calls == 0
        assert result.trace == []
        assert result.min_value == DEMO.eval(int(result.argmin_bits, 2))

    def test_bad_table_length(self):
        with pytest.raises(DomainError):
            ObjectiveFn.from_table([1.0, 2.0, 3.0])

    def test_nan_entry_rejected_with_index(self):
        with pytest.raises(DomainError, match="entry 1 is NaN"):
            ObjectiveFn.from_table([0.5, math.nan, 2.0, math.nan])

    def test_callable_nan_value_rejected(self):
        objective = ObjectiveFn(2, lambda x: math.nan if x == 2 else float(x))
        with pytest.raises(DomainError, match="entry 2 is NaN"):
            minimize(objective, RngStream(1))

    def test_infinite_entries_allowed(self):
        objective = ObjectiveFn.from_table([math.inf, 2.0, -1.0, math.inf])
        result = minimize(objective, RngStream(4))
        assert result.argmin_bits == "10" and result.min_value == -1.0


class TestArgminViaSearch:
    def test_returns_true_argmin_with_padding(self):
        values = [3.0, 1.0, 2.0]
        hits = sum(
            argmin_via_search(values, RngStream(seed)) == 1 for seed in range(50)
        )
        assert hits >= 48

    def test_single_candidate(self):
        assert argmin_via_search([4.2], RngStream(0)) == 0

    def test_result_always_valid_index(self):
        gen = np.random.default_rng(0)
        for seed in range(100):
            values = gen.normal(size=int(gen.integers(2, 9)))
            index = argmin_via_search(values, RngStream(seed))
            assert 0 <= index < len(values)
