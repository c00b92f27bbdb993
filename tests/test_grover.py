import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmlkit import minimizer
from qmlkit.errors import ConfigError, DomainError
from qmlkit.grover import (
    MAX_ROUNDS,
    SignOracle,
    _measure_marked,
    default_iterations,
    grover_search,
    two_level_amplitudes,
)
from qmlkit.rng import RngStream
from qmlkit.state import StateVector

SQRT2 = math.sqrt(2)


def rotation_law(n_bits: int, marked: int, rounds: int) -> float:
    angle = math.asin(math.sqrt(marked / 2**n_bits))
    return math.sin((2 * rounds + 1) * angle) ** 2


def oracle_signs(o: SignOracle) -> np.ndarray:
    """The +-1 diagonal of the oracle gate, from its marked inputs."""
    signs = np.ones(2**o.n_bits)
    signs[o.marked_indices()] = -1.0
    return signs


def _invert_about_mean(amps: np.ndarray) -> np.ndarray:
    """The diffusion 2A - I (A_ij = 1/N) on each column of ``amps``."""
    return 2.0 * amps.mean(axis=0) - amps


def _reference_grover(
    o: SignOracle, rng: RngStream, iterations: int | None = None
) -> SimpleNamespace:
    """Slow reference for ``grover_search``: simulates every round as an
    oracle sign flip followed by inversion around the mean, and measures
    through ``RngStream.choice``."""
    n = o.n_bits
    dim = 2**n
    if iterations is None:
        iterations = default_iterations(n, o.marked_count_hint or 1)
    signs = oracle_signs(o)
    amps = np.full(dim, 1.0 / math.sqrt(dim))
    for _ in range(iterations):
        amps = _invert_about_mean(signs * amps)
    probs = amps**2
    measured = rng.choice(probs / probs.sum())
    final = StateVector(n, amps / np.linalg.norm(amps))
    success = float(probs[signs < 0].sum())
    return SimpleNamespace(
        measured_index=measured,
        iterations_used=iterations,
        final_state=final,
        success_probability=success,
    )


def _reference_minimize(
    f: minimizer.ObjectiveFn,
    rng: RngStream,
    max_main_iterations: int | None = None,
    search=grover_search,
) -> minimizer.MinimizeResult:
    """Slow reference for ``minimizer.minimize``: every main iteration builds
    the threshold oracle over all inputs, runs ``search`` on it and measures
    through ``RngStream.choice``."""
    n = f.n_bits
    budget = (
        minimizer.default_budget(n) if max_main_iterations is None else max_main_iterations
    )
    best_x = rng.randint(2**n)
    best_y = float(f.eval(best_x))
    window = 1
    window_cap = max(1, math.floor(math.sqrt(2**n)))
    trace = []
    oracle_calls = 0
    for _ in range(budget):
        rounds = rng.randint(window)
        oracle = minimizer.threshold_oracle(f, best_y)
        candidate = search(oracle, rng, iterations=rounds).measured_index
        oracle_calls += rounds
        trace.append((best_y, candidate))
        value = float(f.eval(candidate))
        if value < best_y:
            best_x, best_y = candidate, value
            window = 1
        else:
            window = min(math.ceil(window * minimizer.WINDOW_GROWTH), window_cap)
    return minimizer.MinimizeResult(
        argmin_bits=f.bits(best_x),
        min_value=best_y,
        main_iterations=budget,
        oracle_calls=oracle_calls,
        trace=trace,
    )


def _set_oracle(n_bits: int, marked: np.ndarray) -> SignOracle:
    members = frozenset(int(x) for x in marked)
    return SignOracle(
        n_bits, lambda x: x in members, marked_count_hint=len(members), marked=marked
    )


def _reference_measure_marked(marked: np.ndarray, dim: int, rounds: int, u: float) -> int:
    """Slow reference for ``grover._measure_marked``: bisection over all N
    indices, counting the marked inputs at or below each probe by
    ``searchsorted``, in O(log^2 N).  It evaluates the same cumulative sum
    in the same float operations, so the two must agree index for index."""
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


class TestOracleGate:
    """The oracle gate's +-1 diagonal, as ``oracle_signs`` builds it."""

    def test_two_bit_literal(self):
        oracle = SignOracle(2, lambda x: x == 2)
        assert np.array_equal(oracle_signs(oracle), [1, 1, -1, 1])

    def test_nothing_marked_is_identity(self):
        oracle = SignOracle(2, lambda x: False)
        assert np.array_equal(oracle_signs(oracle), np.ones(4))

    def test_threshold_style_marking(self):
        # Objective with minimum at 100: values below 2 sit at 000 and 100.
        values = {4: 0, 0: 1, 1: 2}
        oracle = SignOracle(3, lambda x: values.get(x, 3) < 2)
        expected = np.ones(8)
        expected[0] = expected[4] = -1
        assert np.array_equal(oracle_signs(oracle), expected)


class TestDiffusion:
    """Inversion around the mean: the reference's step, and one closed-form
    round of ``grover_search``."""

    def test_two_bit_literal(self):
        matrix = _invert_about_mean(np.eye(4))
        assert np.allclose(np.diag(matrix), -0.5)
        off = matrix[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.5)

    def test_involution(self):
        matrix = _invert_about_mean(np.eye(8))
        assert np.allclose(matrix @ matrix, np.eye(8), atol=1e-12)

    def test_three_qubit_worked_table(self):
        # One round on the uniform state with the second element marked.
        oracle = SignOracle(3, lambda x: x == 1, marked_count_hint=1)
        after = grover_search(oracle, RngStream(0), iterations=1).final_state.amps
        expected = np.full(8, SQRT2 / 8)
        expected[1] = 5 * SQRT2 / 8
        assert np.allclose(after, expected, atol=1e-12)


class TestSearch:
    def test_two_bit_single_round_exact(self):
        oracle = SignOracle(2, lambda x: x == 2, marked_count_hint=1)
        result = grover_search(oracle, RngStream(0), iterations=1)
        assert np.allclose(result.final_state.amps, [0, 0, 1, 0], atol=1e-12)
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)
        assert result.measured_index == 2

    def test_three_bit_two_rounds(self):
        oracle = SignOracle(3, lambda x: x == 1, marked_count_hint=1)
        result = grover_search(oracle, RngStream(0), iterations=2)
        assert abs(result.final_state.amps[1]) == pytest.approx(
            11 * SQRT2 / 16, abs=1e-12
        )
        assert result.success_probability == pytest.approx(0.9453125, abs=1e-9)

    def test_everything_marked_stays_uniform(self):
        oracle = SignOracle(2, lambda x: True, marked_count_hint=4)
        result = grover_search(oracle, RngStream(5))
        assert result.iterations_used == 0
        probs = result.final_state.probabilities()
        assert np.allclose(probs, 0.25, atol=1e-12)
        assert result.success_probability == pytest.approx(1.0)

    def test_nothing_marked_degrades_gracefully(self):
        oracle = SignOracle(3, lambda x: False)
        result = grover_search(oracle, RngStream(5), iterations=3)
        assert result.success_probability == 0.0
        assert 0 <= result.measured_index < 8

    def test_default_iteration_count(self):
        assert default_iterations(2, 1) == 1
        assert default_iterations(3, 1) == 2
        assert default_iterations(3, 2) == 1

    def test_amplitudes_stay_real(self):
        oracle = SignOracle(4, lambda x: x in (3, 9), marked_count_hint=2)
        result = grover_search(oracle, RngStream(1), iterations=2)
        assert np.max(np.abs(result.final_state.amps.imag)) == 0.0

    def test_rotation_law_all_sizes(self):
        # Simulated success after r rounds follows the closed-form rotation.
        for n in range(1, 7):
            for k in range(0, 2**n + 1):
                marked = frozenset(range(k))
                oracle = SignOracle(n, lambda x, m=marked: x in m, marked_count_hint=k)
                for rounds in {0, 1, default_iterations(n, k), default_iterations(n, k) + 2}:
                    result = grover_search(oracle, RngStream(0), iterations=rounds)
                    assert result.success_probability == pytest.approx(
                        rotation_law(n, k, rounds), abs=1e-9
                    )

    def test_overcooking_reduces_success(self):
        for n in range(3, 7):
            oracle = SignOracle(n, lambda x: x == 1, marked_count_hint=1)
            best = grover_search(oracle, RngStream(0)).success_probability
            overcooked_rounds = round(math.pi / 2 * math.sqrt(2**n))
            overcooked = grover_search(
                oracle, RngStream(0), iterations=overcooked_rounds
            ).success_probability
            assert overcooked < best

    def test_negative_round_count_rejected(self):
        oracle = SignOracle(3, lambda x: x == 1, marked_count_hint=1)
        with pytest.raises(DomainError, match="-2"):
            grover_search(oracle, RngStream(0), iterations=-2)

    @pytest.mark.parametrize("rounds", [MAX_ROUNDS + 1, 10**300, 10**400])
    def test_round_count_over_cap_refused_before_the_draw(self, rounds):
        oracle = SignOracle(3, lambda x: x == 1, marked_count_hint=1)
        stream = RngStream(4)
        with pytest.raises(ConfigError, match="cap of 2,097,152"):
            grover_search(oracle, stream, iterations=rounds)
        assert stream.uniform() == RngStream(4).uniform()

    @pytest.mark.parametrize("rounds", [0, 1, 2, 7, 10**400, 10**400 + 1])
    def test_everything_marked_sign_is_round_parity(self, rounds):
        sign = -1.0 if rounds % 2 else 1.0
        assert two_level_amplitudes(4, 4, rounds) == (sign / 2, sign / 2)


class TestAgainstReference:
    """The closed-form kernel against the per-round loop it replaced."""

    @staticmethod
    def _marked_counts(n: int, gen: np.random.Generator) -> list[int]:
        dim = 2**n
        if n <= 6:
            return list(range(dim + 1))
        sample = gen.choice(np.arange(4, dim - 3), size=6, replace=False)
        return sorted({0, 1, 2, 3, dim // 2, dim - 3, dim - 2, dim - 1, dim, *map(int, sample)})

    def test_amplitudes_and_draws_agree(self):
        gen = np.random.default_rng(31)
        for n in range(1, 11):
            dim = 2**n
            for k in self._marked_counts(n, gen):
                oracle = _set_oracle(n, np.sort(gen.choice(dim, size=k, replace=False)))
                best = default_iterations(n, k)
                overcooked = round(math.pi / 2 * math.sqrt(dim / max(k, 1)))
                for rounds in {0, 1, best, best + 2, overcooked}:
                    seed = int(gen.integers(2**32))
                    fast = grover_search(oracle, RngStream(seed), iterations=rounds)
                    slow = _reference_grover(oracle, RngStream(seed), iterations=rounds)
                    assert np.max(
                        np.abs(fast.final_state.amps - slow.final_state.amps)
                    ) <= 1e-9, (n, k, rounds)
                    assert fast.success_probability == pytest.approx(
                        slow.success_probability, abs=1e-9
                    )
                    assert fast.measured_index == slow.measured_index
                    assert fast.iterations_used == slow.iterations_used == rounds

    def test_worked_values_agree(self):
        cases = [
            (SignOracle(2, lambda x: x == 2, marked_count_hint=1), 1, [0, 0, 1, 0]),
            (
                SignOracle(3, lambda x: x == 1, marked_count_hint=1),
                2,
                [-SQRT2 / 16] + [11 * SQRT2 / 16] + [-SQRT2 / 16] * 6,
            ),
        ]
        for oracle, rounds, expected in cases:
            fast = grover_search(oracle, RngStream(0), iterations=rounds)
            slow = _reference_grover(oracle, RngStream(0), iterations=rounds)
            assert np.max(np.abs(fast.final_state.amps - slow.final_state.amps)) <= 1e-12
            assert np.max(np.abs(fast.final_state.amps - expected)) <= 1e-12
            assert abs(fast.success_probability - slow.success_probability) <= 1e-12

    def test_default_rounds_agree(self):
        oracle = _set_oracle(9, np.array([17, 200, 311]))
        for seed in range(20):
            fast = grover_search(oracle, RngStream(seed))
            slow = _reference_grover(oracle, RngStream(seed))
            assert fast.iterations_used == slow.iterations_used == default_iterations(9, 3)
            assert fast.measured_index == slow.measured_index

    @pytest.mark.parametrize("n_bits, seed", [(10, 4), (12, 8)])
    def test_minimize_trace_unchanged(self, n_bits, seed):
        table = np.random.default_rng(seed).normal(size=2**n_bits)
        objective = minimizer.ObjectiveFn.from_table(table)
        fast = minimizer.minimize(objective, RngStream(seed))
        slow = _reference_minimize(objective, RngStream(seed), search=_reference_grover)
        assert fast.trace == slow.trace
        assert fast.argmin_bits == slow.argmin_bits
        assert fast.oracle_calls == slow.oracle_calls


class TestSortedThreshold:
    """The table path of ``minimize`` (marked set by one compare of the
    table, binary-search draw) against the oracle + ``grover_search`` path
    it replaced, and the binary-search draw against ``RngStream.choice``."""

    @settings(max_examples=80)
    @given(
        n_bits=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        rounds=st.integers(0, 200),
        data=st.data(),
    )
    def test_measurement_matches_grover_search(self, n_bits, seed, rounds, data):
        dim = 2**n_bits
        k = data.draw(st.integers(0, dim), label="k")
        marked = np.sort(np.random.default_rng(seed).choice(dim, size=k, replace=False))
        # grover_search draws through _measure_marked too, so the reference
        # is the round-by-round simulation measured by RngStream.choice.
        expected = _reference_grover(
            _set_oracle(n_bits, marked), RngStream(seed), iterations=rounds
        )
        u = RngStream(seed).uniform()
        assert minimizer._measure_marked(marked, dim, rounds, u) == expected.measured_index

    def test_draw_on_cdf_boundary_goes_right(self):
        # Like RngStream.choice's searchsorted(side="right"): a draw equal
        # to a cumulative probability picks the next index.
        none = np.array([], dtype=int)
        assert [minimizer._measure_marked(none, 4, 0, u) for u in (0.0, 0.5, 0.75)] == [0, 2, 3]

    @settings(max_examples=60)
    @given(
        n_bits=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        levels=st.sampled_from([1, 2, 3, 8, 64, None]),
        infinite=st.integers(0, 3),
        minus_infinite=st.integers(0, 2),
        zeros=st.integers(0, 4),
        budget=st.one_of(st.none(), st.integers(0, 400)),
    )
    def test_minimize_matches_reference(
        self, n_bits, seed, levels, infinite, minus_infinite, zeros, budget
    ):
        # ``levels`` forces ties (None draws distinct normals); up to three
        # +inf entries stand in for ``argmin_via_search``'s padding.  Then up
        # to two -inf entries, and up to four zeros of random sign: -0.0 and
        # 0.0 compare equal, so neither marks the other.
        gen = np.random.default_rng(seed)
        dim = 2**n_bits
        if levels is None:
            table = gen.normal(size=dim)
        else:
            table = gen.integers(0, levels, size=dim).astype(float)
        table[gen.choice(dim, size=min(infinite, dim - 1), replace=False)] = np.inf
        table[gen.choice(dim, size=min(minus_infinite, dim), replace=False)] = -np.inf
        signs = gen.random(min(zeros, dim)) < 0.5
        table[gen.choice(dim, size=signs.size, replace=False)] = np.where(signs, -0.0, 0.0)
        objective = minimizer.ObjectiveFn.from_table(table)
        fast = minimizer.minimize(objective, RngStream(seed), budget)
        slow = _reference_minimize(objective, RngStream(seed), budget)
        assert fast == slow

    @pytest.mark.parametrize("seed", [9, 21, 33])
    def test_callable_objective_matches_reference(self, seed):
        popcount = minimizer.ObjectiveFn(6, lambda x: float(bin(x).count("1")))
        fast = minimizer.minimize(popcount, RngStream(seed))
        slow = _reference_minimize(popcount, RngStream(seed))
        assert fast == slow


class TestTwoLevelDraw:
    """``_measure_marked``'s search over the k marked inputs and then one
    gap between them, against the O(log^2 N) bisection over all N indices
    it replaced, and the marked set an oracle states up front."""

    @staticmethod
    def _marked_set(gen: np.random.Generator, dim: int, k: int) -> np.ndarray:
        """About k sorted inputs below ``dim`` (exactly k for k in {0, 1,
        dim - 1, dim}): min(k, dim - k) random draws set or clear a mask."""
        mark = 2 * k <= dim
        mask = np.full(dim, not mark)
        mask[gen.integers(0, dim, size=min(k, dim - k))] = mark
        return np.flatnonzero(mask)

    @settings(max_examples=120, deadline=None)
    @given(
        n_bits=st.integers(1, 24),
        count=st.sampled_from(["none", "one", "random", "all-but-one", "all"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_bisection(self, n_bits, count, seed, data):
        dim = 2**n_bits
        counts = {"none": 0, "one": 1, "all-but-one": dim - 1, "all": dim}
        k = counts[count] if count in counts else data.draw(st.integers(0, dim), label="k")
        gen = np.random.default_rng(seed)
        marked = self._marked_set(gen, dim, k)
        k = marked.size
        rounds = data.draw(st.integers(0, 3 * default_iterations(n_bits, k)), label="rounds")
        # Draws that land on a cumulative-sum step, and the double below it,
        # test the ">" of the inverse CDF at the exact boundary.
        amp_marked, amp_unmarked = two_level_amplitudes(k, dim, rounds)
        p_marked, p_unmarked = amp_marked**2, amp_unmarked**2
        i = int(gen.integers(dim))
        below = int(marked.searchsorted(i, "right"))
        step = (p_marked * below + p_unmarked * (i + 1 - below)) / (
            p_marked * k + p_unmarked * (dim - k)
        )
        draws = [0.0, math.nextafter(1.0, 0.0), step, math.nextafter(step, 0.0)]
        draws += [data.draw(st.floats(0.0, 1.0, exclude_max=True), label="u"), *gen.random(3)]
        for u in (float(u) for u in draws if 0.0 <= u < 1.0):
            assert _measure_marked(marked, dim, rounds, u) == _reference_measure_marked(
                marked, dim, rounds, u
            ), (n_bits, k, rounds, u)

    @pytest.mark.parametrize(
        "marked, message",
        [
            ([3, 1], "strictly increasing"),
            ([1, 1], "strictly increasing"),
            ([-1, 2], r"marked -1\.\.2 outside"),
            ([2, 8], r"marked 2\.\.8 outside \[0, 2\^3\)"),
            ([[1, 2]], r"1-D integers, not int\d+\(1, 2\)"),
            ([1.0, 2.0], r"1-D integers, not float64\(2,\)"),
        ],
        ids=["unsorted", "duplicate", "negative", "past-2^n", "2-D", "float"],
    )
    def test_stated_marked_set_refused(self, marked, message):
        with pytest.raises(DomainError, match=message):
            SignOracle(3, lambda x: False, marked=np.array(marked))

    def test_stated_marked_set_is_read_only(self):
        given = np.array([1, 5], dtype=np.int32)
        predicate = frozenset({1, 5}).__contains__
        oracle = SignOracle(3, predicate, marked=given)
        assert oracle.marked_indices().tolist() == [1, 5]
        assert oracle.marked.dtype == np.intp and not oracle.marked.flags.writeable
        assert given.flags.writeable
        # ``marked`` takes no part in equality, hashing or repr.
        plain = SignOracle(3, predicate)
        assert oracle == plain and hash(oracle) == hash(plain) and repr(oracle) == repr(plain)


def _closed_form_success(mask: np.ndarray, rounds: int) -> float:
    """The success probability as the full-vector closed form summed it:
    the marked entries of the squared amplitude vector."""
    amps = np.where(mask, *two_level_amplitudes(int(np.count_nonzero(mask)), mask.size, rounds))
    probs = amps**2
    return float(probs[mask].sum())


class TestLazySearch:
    """The search that builds no 2^n vector against the round-by-round
    reference and the full-vector closed form it replaced."""

    @settings(max_examples=150)
    @given(
        n_bits=st.integers(1, 12),
        count=st.sampled_from(["none", "one", "random", "all-but-one", "all"]),
        schedule=st.sampled_from(["zero", "optimum", "past"]),
        seed=st.integers(0, 2**32 - 1),
        stated=st.booleans(),
        data=st.data(),
    )
    def test_matches_reference(self, n_bits, count, schedule, seed, stated, data):
        dim = 2**n_bits
        counts = {"none": 0, "one": 1, "all-but-one": dim - 1, "all": dim}
        k = counts[count] if count in counts else data.draw(st.integers(0, dim), label="k")
        marked = np.sort(np.random.default_rng(seed).choice(dim, size=k, replace=False))
        oracle = _set_oracle(n_bits, marked)
        if not stated:
            oracle = SignOracle(n_bits, oracle.predicate, marked_count_hint=k)
        optimum = default_iterations(n_bits, k)
        if schedule == "zero":
            rounds = 0
        elif schedule == "optimum":
            rounds = None
        else:
            rounds = data.draw(st.integers(optimum + 1, 3 * optimum + 4), label="rounds")
        fast = grover_search(oracle, RngStream(seed), iterations=rounds)
        slow = _reference_grover(oracle, RngStream(seed), iterations=rounds)
        assert fast.iterations_used == slow.iterations_used
        assert fast.iterations_used == (optimum if rounds is None else rounds)
        assert fast.measured_index == slow.measured_index
        assert np.max(np.abs(fast.final_state.amps - slow.final_state.amps)) <= 1e-12
        mask = np.zeros(dim, dtype=bool)
        mask[marked] = True
        assert fast.success_probability == _closed_form_success(mask, fast.iterations_used)

    def test_marked_indices_both_predicates(self):
        # A stated marked set and a pass of the plain predicate mark the
        # same inputs, at both ends and around dim // 2.
        for n_bits in (1, 3, 17):
            dim = 2**n_bits
            marked = np.array(sorted({0, 5 % dim, dim // 2 - 1, dim // 2, dim - 1}))
            oracle = _set_oracle(n_bits, marked)
            plain = SignOracle(n_bits, oracle.predicate)
            assert oracle.marked_indices().tolist() == marked.tolist()
            assert plain.marked_indices().tolist() == marked.tolist()
            expected = np.where(np.isin(np.arange(dim), marked), -1.0, 1.0)
            assert np.array_equal(oracle_signs(oracle), expected)

    @pytest.fixture
    def built(self, monkeypatch):
        """Qubit counts of the StateVectors constructed during the test."""
        built = []
        post_init = StateVector.__post_init__

        def counting(state):
            built.append(state.n_qubits)
            post_init(state)

        monkeypatch.setattr(StateVector, "__post_init__", counting)
        return built

    def test_state_built_only_when_read(self, built):
        result = grover_search(_set_oracle(10, np.array([3, 700])), RngStream(2))
        assert built == []
        state = result.final_state
        assert built == [10]
        assert result.final_state is state and built == [10]

    def test_cli_builds_state_only_for_reported_amplitudes(self, built):
        from qmlkit import cli

        assert cli.run(["grover", "--bits", "13", "--marked", "5", "--output", os.devnull])[0] == 0
        assert built == []
        assert cli.run(["grover", "--bits", "12", "--marked", "5", "--output", os.devnull])[0] == 0
        assert built == [12]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_cli_24_bit_search_peak_rss(self):
        # The full-vector search peaked at 694 MiB, 2.7 times the 256 MiB
        # complex state of 24 qubits.  The bound is one 2^24 array of 8-byte
        # entries, far above the search's own needs: the CLI states its
        # marked set, so no 2^24 marking pass runs, and the draw reads k
        # marked indices.
        # The child reports VmHWM, its own address space's peak: Linux
        # carries the launching process's peak into a child's ru_maxrss
        # across exec, so under a large test process ru_maxrss reads high.
        import qmlkit

        src = str(Path(qmlkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = (
            "import os\n"
            "from qmlkit import cli\n"
            "code, report = cli.run(['grover', '--bits', '24', '--marked', '1,2,3',\n"
            "                        '--seed', '1', '--output', os.devnull])\n"
            "with open('/proc/self/status') as status:\n"
            "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
            "print(code, report['results']['iterations'], peak)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout
        code, rounds, peak_kib = map(int, out.split())
        assert (code, rounds) == (0, default_iterations(24, 3))
        assert peak_kib < 128 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"
