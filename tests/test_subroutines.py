import math
import warnings

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings, strategies as st

from conftest import random_state
from qmlkit.errors import ConfigError, DomainError
from qmlkit.gates import apply, controlled, standard_gate
from qmlkit.minimizer import argmin_via_search
from qmlkit import subroutines
from qmlkit.clustering import ClusterConfig, Dataset, kmeans, kmedians
from qmlkit.rng import RngStream
from qmlkit.state import StateVector, basis_state, inner_product
from qmlkit.subroutines import (
    dist_calc,
    distances,
    encode,
    median_calc,
    overlap_sq,
    swap_test,
)


# Per-pair reference: one kron-built register per pair, with the control
# prepared by H, and one validated ``gates.apply`` per gate.

def reference_swap_test_p0(registers: StateVector, group_a, group_b) -> float:
    state = apply(standard_gate("H"), [0], registers)
    fredkin = controlled(standard_gate("SWAP"))
    for qa, qb in zip(group_a, group_b):
        state = apply(fredkin, [0, qa, qb], state)
    state = apply(standard_gate("H"), [0], state)
    probs = state.probabilities()
    return float(probs[: probs.size // 2].sum())


def reference_estimate_p0(exact_p0: float, shots: int, rng: RngStream | None) -> float:
    if rng is None:
        return exact_p0
    draws = rng.gen.random(shots)
    return float(np.count_nonzero(draws < exact_p0)) / shots


def reference_swap_test(a: StateVector, b: StateVector, shots: int, rng) -> tuple[float, float]:
    """(exact p0, estimated p0) of one pair."""
    n = a.n_qubits
    control = np.array([1.0, 0.0], dtype=complex)
    joint = StateVector(1 + 2 * n, np.kron(control, np.kron(a.amps, b.amps)))
    exact_p0 = reference_swap_test_p0(
        joint, list(range(1, 1 + n)), list(range(1 + n, 1 + 2 * n))
    )
    return exact_p0, reference_estimate_p0(exact_p0, shots, rng)


def reference_encode(v) -> tuple[float, StateVector]:
    v = np.asarray(v, dtype=float)
    n = max(1, math.ceil(math.log2(v.size)))
    amps = np.zeros(2**n, dtype=complex)
    amps[: v.size] = v / np.linalg.norm(v)
    return float(np.linalg.norm(v)), StateVector(n, amps)


def reference_dist_sq(a, b, shots: int, rng, mode: str) -> tuple[float, float]:
    """(Z, |a-b|^2) of one pair."""
    (norm_a, ea), (norm_b, eb) = reference_encode(a), reference_encode(b)
    z = norm_a**2 + norm_b**2
    psi = np.concatenate([ea.amps, eb.amps]) / math.sqrt(2.0)
    phi = np.array([norm_a, -norm_b], dtype=complex) / math.sqrt(z)
    control = np.array([1.0, 0.0], dtype=complex)
    joint = StateVector(3 + ea.n_qubits, np.kron(control, np.kron(phi, psi)))
    p0 = reference_estimate_p0(
        reference_swap_test_p0(joint, [1], [2]), shots, rng if mode == "shots" else None
    )
    return z, 2.0 * z * min(max(2.0 * p0 - 1.0, 0.0), 1.0)


def reference_median_index(points, shots: int, rng: RngStream, mode: str) -> int:
    m = len(points)
    sums = np.zeros(m)
    for i in range(m):
        for j in range(i + 1, m):
            d = math.sqrt(reference_dist_sq(points[i], points[j], shots, rng, mode)[1])
            sums[i] += d
            sums[j] += d
    return argmin_via_search(sums, rng)


def reference_median_sums(points, shots: int, rng: RngStream, mode: str) -> np.ndarray:
    """Summed distances with one ``distances`` batch per point against the
    points after it, as the set median ran before it was one batch."""
    m = len(points)
    sums = np.zeros(m)
    for i in range(m - 1):
        d = np.sqrt(distances(points[i], points[i + 1 :], shots, rng, mode)[1])
        sums[i] += d.sum()
        sums[i + 1 :] += d
    return sums


def slice_caps():
    """``_SLICE_AMPS`` caps from 8 to 2^16, so that a batch's distance
    differences and shot draws run in one chunk, in many, or with a short
    last chunk."""
    return st.sampled_from([2**k for k in range(3, 17)])


def _next_draws(rng: RngStream) -> list[float]:
    """Two streams left at the same position give the same next draws."""
    return rng.gen.random(4).tolist()


@st.composite
def swap_batches(draw):
    """A state of n <= 6 qubits and 1-8 states to test it against; one of
    them may be a copy of the first state, which puts p0 at exactly 1."""
    n = draw(st.integers(1, 6))
    batch = draw(st.integers(1, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_state(gen, n)
    others = [random_state(gen, n) for _ in range(batch)]
    if draw(st.booleans()):
        others[draw(st.integers(0, batch - 1))] = a
    return a, others


@st.composite
def distance_batches(draw):
    """A vector of 1-64 entries (up to 6 data qubits) and 1-8 others, drawn
    at mixed scales; one of the others may be a copy or a multiple of it,
    and one may be the near-equal a (1 + eps), eps in 1e-12...1e-6."""
    dim = draw(st.integers(1, 64))
    batch = draw(st.integers(1, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = gen.normal(size=dim) * 10.0 ** gen.uniform(-2, 2)
    others = gen.normal(size=(batch, dim)) * 10.0 ** gen.uniform(-2, 2, size=(batch, 1))
    if draw(st.booleans()):
        others[draw(st.integers(0, batch - 1))] = a * draw(st.sampled_from([1.0, -2.0, 0.5]))
    if draw(st.booleans()):
        eps = 10.0 ** draw(st.floats(-12.0, -6.0))
        others[draw(st.integers(0, batch - 1))] = a * (1.0 + eps)
    return a, others


class TestEncode:
    def test_three_four_normalizes(self):
        encoded = encode([3.0, 4.0])
        assert encoded.norm == 5.0
        assert np.allclose(encoded.state.amps, [0.6, 0.8], atol=1e-12)

    def test_unit_basis_vector(self):
        e1 = np.zeros(8)
        e1[0] = 1.0
        assert np.array_equal(encode(e1).state.amps, basis_state(3, 0).amps)

    def test_register_width_is_log2(self):
        assert encode(np.ones(8)).state.n_qubits == 3
        assert encode(np.ones(5)).state.n_qubits == 3      # padded to 8
        assert encode(np.ones(1024)).state.n_qubits == 10

    def test_padding_entries_are_exact_zeros(self):
        encoded = encode([1.0, 2.0, 2.0])
        assert encoded.state.amps[3] == 0.0
        reconstructed = encoded.norm * encoded.state.amps[:3].real
        assert np.allclose(reconstructed, [1.0, 2.0, 2.0], atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            encode([0.0, 0.0])


class TestSwapTest:
    def test_identical_states(self, np_rng):
        psi = random_state(np_rng, 2)
        assert swap_test(psi, psi).exact_p0 == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        estimate = swap_test(basis_state(2, 0), basis_state(2, 3))
        assert estimate.exact_p0 == pytest.approx(0.5, abs=1e-12)
        assert overlap_sq(estimate.exact_p0) == pytest.approx(0.0, abs=1e-12)

    def test_worked_overlap(self):
        a = StateVector(1, np.array([0.6, 0.8], dtype=complex))
        b = StateVector(1, np.array([0.8, 0.6], dtype=complex))
        assert swap_test(a, b).exact_p0 == pytest.approx(0.96080, abs=1e-12)

    def test_formula_on_random_pairs(self, np_rng):
        for _ in range(50):
            a = random_state(np_rng, 2)
            b = random_state(np_rng, 2)
            expected = 0.5 + 0.5 * abs(inner_product(a, b)) ** 2
            assert swap_test(a, b).exact_p0 == pytest.approx(expected, abs=1e-12)

    def test_shot_estimator_three_sigma_coverage(self, np_rng):
        shots = 4096
        streams = RngStream(55).split(200)
        misses = 0
        for trial in range(200):
            a = random_state(np_rng, 1)
            b = random_state(np_rng, 1)
            estimate = swap_test(a, b, shots=shots, rng=streams[trial])
            sigma = math.sqrt(estimate.exact_p0 * (1 - estimate.exact_p0) / shots)
            if abs(estimate.p0_hat - estimate.exact_p0) >= 3 * sigma:
                misses += 1
        assert misses <= 2   # >= 99% coverage

    def test_register_mismatch(self):
        with pytest.raises(DomainError, match="^swap test needs equal registers, got 1 and 2 "):
            swap_test(basis_state(1, 0), basis_state(2, 0))


class TestSwapTestBatch:
    """``swap_test`` on each pair of a batch against the per-pair reference,
    and its refusals."""

    @settings(max_examples=60)
    @given(swap_batches(), st.integers(0, 2**32 - 1), st.integers(1, 64))
    def test_matches_per_pair_reference(self, case, seed, shots):
        a, others = case
        exact_p0 = [swap_test(a, b).exact_p0 for b in others]
        reference = [reference_swap_test(a, b, shots, None)[0] for b in others]
        assert np.max(np.abs(np.subtract(exact_p0, reference))) <= 1e-12
        assert [swap_test(a, b).p0_hat for b in others] == exact_p0

        rng, pair_rng = RngStream(seed), RngStream(seed)
        p0_hat = [swap_test(a, b, shots, rng).p0_hat for b in others]
        pair_hat = [reference_swap_test(a, b, shots, pair_rng)[1] for b in others]
        assert p0_hat == pair_hat
        assert _next_draws(rng) == _next_draws(pair_rng)

    def test_register_over_qubit_cap_refused(self):
        psi = basis_state(12, 0)
        with pytest.raises(ConfigError, match="25 qubits exceeds the cap of 24"):
            swap_test(psi, psi)

    def test_zero_shots_rejected(self, np_rng):
        psi = random_state(np_rng, 1)
        with pytest.raises(DomainError, match="shots must be >= 1, got 0"):
            swap_test(psi, psi, shots=0)

    def test_unequal_widths_refused(self, np_rng):
        a, b = random_state(np_rng, 2), random_state(np_rng, 1)
        with pytest.raises(DomainError, match="^swap test needs equal registers, got 2 and 1 "):
            swap_test(a, b)


class TestDistanceBatch:
    @settings(max_examples=60)
    @given(distance_batches(), st.integers(0, 2**32 - 1), st.integers(1, 64), slice_caps())
    def test_matches_per_pair_reference(self, case, seed, shots, cap):
        a, others = case
        with mock.patch.object(subroutines, "_SLICE_AMPS", cap):
            z, dist_sq = distances(a, others)
        for j, b in enumerate(others):
            ref_z, ref_dist_sq = reference_dist_sq(a, b, shots, None, "exact")
            assert z[j] == pytest.approx(ref_z, rel=1e-12)
            assert abs(dist_sq[j] - ref_dist_sq) <= 1e-12 * max(ref_dist_sq, ref_z)

        batched_rng, pair_rng = RngStream(seed), RngStream(seed)
        with mock.patch.object(subroutines, "_SLICE_AMPS", cap):
            _, dist_hat = distances(a, others, shots, batched_rng, "shots")
        pair_hat = [reference_dist_sq(a, b, shots, pair_rng, "shots")[1] for b in others]
        assert dist_hat == pytest.approx(pair_hat, rel=1e-12)
        assert _next_draws(batched_rng) == _next_draws(pair_rng)

    @settings(max_examples=60)
    @given(
        st.integers(1, 6), st.integers(1, 5), st.integers(1, 33), st.integers(0, 2**32 - 1),
        st.integers(1, 64), slice_caps(),
    )
    def test_index_pairs_match_row_batches(self, n_left, n_right, dim, seed, shots, cap):
        # Each left row against a random subset of the right rows, in
        # row-major order: one indexed batch equals one batch per left row,
        # bit for bit, and leaves the stream where they leave it.
        gen = np.random.default_rng(seed)
        left = gen.normal(size=(n_left, dim)) * 10.0 ** gen.uniform(-2, 2, size=(n_left, 1))
        right = gen.normal(size=(n_right, dim)) * 10.0 ** gen.uniform(-2, 2, size=(n_right, 1))
        right[0] = left[0] * gen.choice([1.0, -0.5])
        cols = [np.flatnonzero(gen.random(n_right) < 0.7) for _ in range(n_left)]
        pairs = (np.repeat(np.arange(n_left), [c.size for c in cols]), np.concatenate(cols))
        for mode in ("exact", "shots"):
            batched_rng, row_rng = RngStream(seed), RngStream(seed)
            with mock.patch.object(subroutines, "_SLICE_AMPS", cap):
                z, dist_sq = distances(left, right, shots, batched_rng, mode, pairs)
                rows = [
                    distances(a, right[c], shots, row_rng, mode)
                    for a, c in zip(left, cols) if c.size
                ]
            want_z = np.concatenate([r[0] for r in rows] or [np.empty(0)])
            want_dist_sq = np.concatenate([r[1] for r in rows] or [np.empty(0)])
            assert z.tobytes() == want_z.tobytes()
            assert dist_sq.tobytes() == want_dist_sq.tobytes()
            assert _next_draws(batched_rng) == _next_draws(row_rng)

    def test_matrix_pairs_row_by_row(self, np_rng):
        left, right = np_rng.normal(size=(3, 5)), np_rng.normal(size=(3, 5))
        z, dist_sq = distances(left, right, shots=200, rng=RngStream(4), mode="shots")
        want = distances(left, right, 200, RngStream(4), "shots", (np.arange(3), np.arange(3)))
        assert (z.tobytes(), dist_sq.tobytes()) == (want[0].tobytes(), want[1].tobytes())
        with pytest.raises(DomainError, match="3 left rows cannot pair with 2 right rows"):
            distances(left, right[:2])

    def test_row_draws_over_budget_refused(self, np_rng):
        # The pairs of one left row are the unit the budget refuses; the
        # whole batch may pass it.
        left, right = np_rng.normal(size=(4, 3)), np_rng.normal(size=(2, 3))
        pairs = (np.repeat(np.arange(4), 2), np.tile(np.arange(2), 4))
        with mock.patch.object(subroutines, "_DRAW_BYTES_CAP", 8 * 2 * 100):
            distances(left, right, 100, RngStream(0), "shots", pairs)
            with pytest.raises(ConfigError, match="2 x 101 shot draws need"):
                distances(left, right, 101, RngStream(0), "shots", pairs)

    def test_left_norm_squared_as_one_vector(self):
        # |a| squares to 0.05982499999999999 by Python's float power and to
        # 0.059824999999999996 by numpy's square; every batch form squares
        # it as numpy does (|b|^2 is below the last bit of Z).
        a, b = np.array([-0.052, 0.239]), np.array([[1e-9, 0.0]])
        norm = encode(a).norm
        assert norm**2 != float(np.square(norm))
        for left in (a, a[None]):
            assert distances(left, b)[0][0] == np.square(norm)

    def test_dist_calc_is_a_batch_of_one(self, np_rng):
        a, b = np_rng.normal(size=5), np_rng.normal(size=5)
        estimate = dist_calc(a, b, shots=300, rng=RngStream(8), mode="shots")
        z, dist_sq = distances(a, [b], shots=300, rng=RngStream(8), mode="shots")
        assert (estimate.z, estimate.dist_sq) == (z[0], dist_sq[0])
        assert estimate.inner_prod == (z[0] - dist_sq[0]) / 2.0

    @pytest.mark.parametrize("mode", ["exact", "shots"])
    def test_distance_paths_build_no_register(self, np_rng, mode):
        # Distances come from their closed form: no distance, median or
        # clustering path runs the swap-test kernel, applies a gate or
        # builds a state.
        points = np_rng.normal(size=(12, 3))
        cfg = ClusterConfig(k=2, distance_mode=mode, shots=64)
        refuse = mock.Mock(side_effect=AssertionError("swap-test register built"))
        with mock.patch.object(subroutines, "_swap_test_p0", refuse), \
                mock.patch.object(subroutines, "apply", refuse), \
                mock.patch.object(StateVector, "__post_init__", refuse):
            distances(points[0], points[1:], 64, RngStream(1), mode)
            dist_calc(points[0], points[1], 64, RngStream(2), mode)
            median_calc(points, 64, RngStream(3), mode)
            kmeans(Dataset(points), cfg, RngStream(4))
            kmedians(Dataset(points), cfg, RngStream(5))
        refuse.assert_not_called()

    def test_exact_mode_draws_nothing(self, np_rng):
        rng = RngStream(1)
        distances(np_rng.normal(size=3), np_rng.normal(size=(4, 3)), rng=rng)
        assert _next_draws(rng) == _next_draws(RngStream(1))

    def test_zero_row_rejected(self):
        with pytest.raises(DomainError, match="zero vector"):
            distances([1.0, 2.0], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        with pytest.raises(DomainError, match="NaN or infinite"):
            distances([1.0, 2.0], [[1.0, 0.0], [bad, 1.0]])

    @pytest.mark.parametrize("far", [1.1e154, 3e153], ids=["z", "twice-z"])
    def test_overflowing_pair_refused_before_any_draw(self, far):
        # Every row's squared norm is finite, and so is 2Z for the pair with
        # row 0; for the pair with row 1, Z = |a|^2 + |b|^2 or 2Z is not.
        rng = RngStream(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(DomainError, match="^a distance pair overflows the float range"):
                distances([9e153], [[1.0], [far]], rng=rng, mode="shots")
        assert _next_draws(rng) == _next_draws(RngStream(1))

    def test_shots_mode_requires_stream(self):
        with pytest.raises(DomainError, match="RngStream"):
            distances([1.0, 2.0], [[1.0, 0.0]], mode="shots")


class TestDistCalc:
    def test_identical_vectors(self):
        estimate = dist_calc([1.5, -2.0], [1.5, -2.0])
        assert estimate.dist_sq == pytest.approx(0.0, abs=1e-9)

    def test_orthonormal_pair(self):
        estimate = dist_calc([1.0, 0.0], [0.0, 1.0])
        assert estimate.dist_sq == pytest.approx(2.0, abs=1e-9)
        assert estimate.inner_prod == pytest.approx(0.0, abs=1e-9)
        assert estimate.z == pytest.approx(2.0, abs=1e-12)

    def test_scaled_copy(self):
        estimate = dist_calc([3.0, 4.0], [6.0, 8.0])
        assert estimate.dist_sq == pytest.approx(25.0, abs=1e-9)
        assert estimate.inner_prod == pytest.approx(50.0, abs=1e-9)

    def test_matches_host_distance_many_dims(self, np_rng):
        for dim in (2, 3, 5, 17, 64, 1000, 1024):
            a = np_rng.normal(size=dim)
            b = np_rng.normal(size=dim)
            estimate = dist_calc(a, b)
            assert estimate.dist_sq == pytest.approx(
                float(np.sum((a - b) ** 2)), abs=1e-9 * max(1.0, np.sum((a - b) ** 2))
            )
            assert estimate.inner_prod == pytest.approx(
                float(a @ b), abs=1e-8
            )

    def test_scale_property(self, np_rng):
        a = np_rng.normal(size=4)
        b = np_rng.normal(size=4)
        base = dist_calc(a, b).dist_sq
        scaled = dist_calc(3.0 * a, 3.0 * b).dist_sq
        assert scaled == pytest.approx(9.0 * base, rel=1e-9)

    def test_shots_mode_converges(self):
        rng = RngStream(4)
        estimate = dist_calc([1.0, 0.0], [0.0, 1.0], shots=200_000, rng=rng, mode="shots")
        assert estimate.dist_sq == pytest.approx(2.0, abs=0.05)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            dist_calc([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            dist_calc([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_z_symmetric_bit_for_bit(self):
        # The pair whose left and right squarings once differed in the last bit.
        a, b = [-0.052, 0.239], [1e-9, 0.0]
        assert dist_calc(a, b).z == dist_calc(b, a).z == 0.059824999999999996

    @settings(max_examples=100)
    @given(st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_symmetric_bit_for_bit(self, dim, seed):
        gen = np.random.default_rng(seed)
        a, b = gen.normal(size=(2, dim)) * 10.0 ** gen.uniform(-3, 3, size=(2, 1))
        there, back = dist_calc(a, b), dist_calc(b, a)
        assert there.z == back.z


class TestMedianCalc:
    def test_singleton(self):
        index, point = median_calc([[0.0, 1.0]], rng=RngStream(0))
        assert index == 0
        assert np.array_equal(point, [0.0, 1.0])

    def test_three_points_brute_force(self):
        points = [[1.0, 0.0], [1.0, 0.1], [5.0, 5.0]]
        sums = [
            sum(np.linalg.norm(np.subtract(p, q)) for q in points) for p in points
        ]
        expected = int(np.argmin(sums))
        index, _ = median_calc(points, rng=RngStream(21))
        assert index == expected

    def test_collinear_middle_point(self):
        points = [[1.0, 0.0], [2.0, 1e-6], [3.0, 0.0]]
        index, point = median_calc(points, rng=RngStream(8))
        assert index == 1

    def test_member_of_input_set(self, np_rng):
        for seed in range(20):
            points = [np_rng.normal(size=3) for _ in range(int(np_rng.integers(2, 7)))]
            index, point = median_calc(points, rng=RngStream(seed))
            assert any(np.array_equal(point, p) for p in points)

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            median_calc([], rng=RngStream(0))

    @settings(max_examples=40)
    @given(
        st.integers(2, 12), st.integers(1, 9), st.integers(0, 2**32 - 1),
        st.sampled_from(["exact", "shots"]), st.integers(1, 64), slice_caps(),
        st.sampled_from([1, 10, 2**16]),
    )
    def test_sums_match_point_batches(self, m, dim, seed, mode, shots, cap, batch):
        # Batches of several points' pairs (or all of them) give the same
        # sums, bit for bit, as one batch per point, under a draw budget that
        # one point's row fits but the whole set passes; the argmin then
        # sees the same stream.
        gen = np.random.default_rng(seed)
        points = list(gen.normal(size=(m, dim)) * 10.0 ** gen.uniform(-1, 1, size=(m, 1)))
        points[-1] = points[0].copy()
        seen = []

        def recording_argmin(values, rng):
            seen.append(np.array(values))
            return argmin_via_search(values, rng)

        batched_rng, point_rng = RngStream(seed), RngStream(seed)
        with mock.patch.object(subroutines, "_SLICE_AMPS", cap), \
                mock.patch.object(subroutines, "MAX_BATCH_PAIRS", batch), \
                mock.patch.object(subroutines, "_DRAW_BYTES_CAP", 8 * (m - 1) * shots), \
                mock.patch.object(subroutines, "argmin_via_search", recording_argmin):
            index, _ = median_calc(points, shots, batched_rng, mode)
            sums = reference_median_sums(points, shots, point_rng, mode)
        assert seen[0].tobytes() == sums.tobytes()
        assert index == argmin_via_search(sums, point_rng)
        assert _next_draws(batched_rng) == _next_draws(point_rng)

    @pytest.mark.parametrize("mode", ["exact", "shots"])
    def test_matches_per_pair_reference(self, np_rng, mode):
        for seed in range(6):
            points = list(np_rng.normal(size=(int(np_rng.integers(2, 9)), 3)))
            batched_rng, pair_rng = RngStream(seed), RngStream(seed)
            index, _ = median_calc(points, shots=64, rng=batched_rng, mode=mode)
            assert index == reference_median_index(points, 64, pair_rng, mode)
            assert _next_draws(batched_rng) == _next_draws(pair_rng)
