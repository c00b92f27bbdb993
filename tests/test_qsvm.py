import math
import time

import numpy as np
import pytest

from qmlkit import qsvm
from qmlkit.errors import ConfigError, DomainError
from qmlkit.qsvm import (
    AlphaGrid,
    KernelSpec,
    LabeledDataset,
    SvmSolution,
    _default_penalty,
    _penalized_table,
    decision_value,
    dual_objective,
    kernel_matrix,
    predict,
    solve,
)
from qmlkit.rng import RngStream

TWO_POINT = LabeledDataset([[-1.0], [1.0]], [-1, 1])
FOUR_POINT = LabeledDataset(
    [[-2.0, 0.0], [-1.0, -0.5], [1.0, 0.5], [2.0, 0.0]], [-1, -1, 1, 1]
)
XOR = LabeledDataset(
    [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], [1, 1, -1, -1]
)
LINEAR = KernelSpec("linear")


def enumerate_optimum(data, spec, grid, penalty):
    """Independent exhaustive scan of the penalized dual over the full grid."""
    kernel = kernel_matrix(data, spec)
    q = (data.labels[:, None] * data.labels[None, :]) * kernel
    best_index, best_value = 0, math.inf
    for index in range(2 ** (data.m * grid.bits_per_alpha)):
        levels = [
            (index >> ((data.m - 1 - i) * grid.bits_per_alpha)) % grid.levels
            for i in range(data.m)
        ]
        a = np.array(levels) * grid.step
        value = 0.5 * a @ q @ a - a.sum() + penalty * float(a @ data.labels) ** 2
        if value < best_value:
            best_index, best_value = index, value
    return best_index, best_value


def grid_alphas(index, m, grid):
    return np.array(
        [
            ((index >> ((m - 1 - i) * grid.bits_per_alpha)) % grid.levels) * grid.step
            for i in range(m)
        ]
    )


def reference_penalized_table(data, kernel, grid, penalty):
    """The whole-grid build: every index's levels and multipliers at once."""
    indices = np.arange(2 ** (data.m * grid.bits_per_alpha), dtype=np.int64)
    shifts = [(data.m - 1 - i) * grid.bits_per_alpha for i in range(data.m)]
    levels = np.stack([(indices >> s) & (grid.levels - 1) for s in shifts], axis=1)
    alphas = levels * grid.step
    q = (data.labels[:, None] * data.labels[None, :]) * kernel
    quad = 0.5 * np.einsum("ij,jk,ik->i", alphas, q, alphas)
    balance = alphas @ data.labels
    return quad - alphas.sum(axis=1) + penalty * balance**2


class TestKernelSpec:
    @pytest.mark.parametrize("gamma", [5.0, 0.0, -1.0, math.nan])
    def test_gamma_rejected_on_linear_kernel(self, gamma):
        # Only the gaussian kernel reads gamma; on the linear kernel it would
        # be a setting that does nothing.
        with pytest.raises(DomainError, match=r"gamma is read only by the gaussian kernel"):
            KernelSpec("linear", gamma=gamma)

    def test_gaussian_requires_positive_gamma(self):
        assert KernelSpec("gaussian", gamma=0.5).gamma == 0.5
        for gamma in (None, 0.0, -1.0):
            with pytest.raises(DomainError, match="gaussian kernel requires gamma > 0"):
                KernelSpec("gaussian", gamma=gamma)


class TestKernelMatrix:
    def test_linear_orthonormal_rows(self):
        data = LabeledDataset([[1.0, 0.0], [0.0, 1.0]], [1, -1])
        assert np.allclose(kernel_matrix(data, LINEAR), np.eye(2), atol=1e-12)

    def test_gaussian_diagonal_is_one(self):
        spec = KernelSpec("gaussian", gamma=1.3)
        k = kernel_matrix(XOR, spec)
        assert np.allclose(np.diag(k), 1.0, atol=1e-12)

    def test_gaussian_worked_entry(self):
        data = LabeledDataset([[0.0, 0.0], [1.0, 1.0]], [1, -1])
        k = kernel_matrix(data, KernelSpec("gaussian", gamma=0.5))
        assert k[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_symmetric_and_psd(self):
        gen = np.random.default_rng(2)
        data = LabeledDataset(gen.normal(size=(5, 3)), [1, -1, 1, -1, 1])
        k = kernel_matrix(data, KernelSpec("gaussian", gamma=0.8))
        assert np.allclose(k, k.T, atol=1e-12)
        assert np.linalg.eigvalsh(k)[0] >= -1e-9


class TestDualObjective:
    def test_zero_alphas(self):
        assert dual_objective(np.zeros(2), TWO_POINT, kernel_matrix(TWO_POINT, LINEAR)) == 0.0

    def test_hand_expanded_quadratic(self):
        data = LabeledDataset([[1.0, 0.0], [0.0, 1.0]], [1, -1])
        value = dual_objective([1.0, 1.0], data, np.eye(2))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_matches_dense_grid_scan(self):
        grid = AlphaGrid(bits_per_alpha=2, alpha_max=2.0)
        best_index, _ = enumerate_optimum(FOUR_POINT, LINEAR, grid, penalty=0.0)
        best = grid_alphas(best_index, FOUR_POINT.m, grid)
        kernel = kernel_matrix(FOUR_POINT, LINEAR)
        dense_best = min(
            dual_objective(grid_alphas(i, FOUR_POINT.m, grid), FOUR_POINT, kernel)
            for i in range(2**8)
        )
        assert dual_objective(best, FOUR_POINT, kernel) == pytest.approx(dense_best, abs=1e-6)

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            dual_objective([-0.1, 0.0], TWO_POINT, kernel_matrix(TWO_POINT, LINEAR))


class TestSolve:
    def test_symmetric_two_point(self):
        grid = AlphaGrid(bits_per_alpha=3)
        solution = solve(TWO_POINT, LINEAR, grid, RngStream(3))
        assert solution.theta[0] > 0
        assert solution.alphas[0] == solution.alphas[1]
        # Decision boundary sits at the origin.
        assert decision_value(solution, TWO_POINT, LINEAR, [0.0]) == pytest.approx(
            0.0, abs=1e-9
        )
        assert predict(solution, TWO_POINT, LINEAR, [-0.5]) == -1
        assert predict(solution, TWO_POINT, LINEAR, [0.5]) == 1

    def test_matches_exhaustive_enumeration_after_polish(self):
        instances = [
            (TWO_POINT, LINEAR, AlphaGrid(bits_per_alpha=3)),
            (FOUR_POINT, LINEAR, AlphaGrid(bits_per_alpha=3)),
            (XOR, KernelSpec("gaussian", gamma=2.0), AlphaGrid(bits_per_alpha=3)),
        ]
        for data, spec, grid in instances:
            kernel = kernel_matrix(data, spec)
            from qmlkit.qsvm import _default_penalty, _penalized_table

            penalty = _default_penalty(kernel)
            table = _penalized_table(data, kernel, grid, penalty)
            _, best_value = enumerate_optimum(data, spec, grid, penalty)
            for seed in range(10):
                solution = solve(data, spec, grid, RngStream(seed))
                got = table[
                    sum(
                        int(round(solution.alphas[i] / grid.step))
                        << ((data.m - 1 - i) * grid.bits_per_alpha)
                        for i in range(data.m)
                    )
                ]
                assert got == pytest.approx(best_value, abs=1e-9)

    def test_search_alone_finds_grid_optimum_usually(self):
        # Before any polish, the quantum search itself lands on the global
        # grid optimum in at least 95% of seeded runs.
        from qmlkit.minimizer import ObjectiveFn, minimize
        from qmlkit.qsvm import _default_penalty, _penalized_table

        grid = AlphaGrid(bits_per_alpha=3)
        kernel = kernel_matrix(FOUR_POINT, LINEAR)
        table = _penalized_table(FOUR_POINT, kernel, grid, _default_penalty(kernel))
        best = float(table.min())
        hits = sum(
            table[int(minimize(ObjectiveFn.from_table(table), RngStream(seed)).argmin_bits, 2)]
            == best
            for seed in range(40)
        )
        assert hits >= 38

    def test_duplicate_support_vector_keeps_direction(self):
        extended = LabeledDataset([[-1.0], [1.0], [1.0]], [-1, 1, 1])
        grid = AlphaGrid(bits_per_alpha=3)
        base = solve(TWO_POINT, LINEAR, grid, RngStream(1))
        dup = solve(extended, LINEAR, grid, RngStream(1))
        assert np.sign(dup.theta[0]) == np.sign(base.theta[0])
        assert predict(dup, extended, LINEAR, [-0.5]) == -1
        assert predict(dup, extended, LINEAR, [0.5]) == 1

    def test_xor_gaussian_separates_linear_cannot(self):
        grid = AlphaGrid(bits_per_alpha=3)
        gaussian = KernelSpec("gaussian", gamma=2.0)
        solution = solve(XOR, gaussian, grid, RngStream(5))
        correct = sum(
            predict(solution, XOR, gaussian, x) == y
            for x, y in zip(XOR.vectors, XOR.labels)
        )
        assert correct == 4
        # Exhaustive scan: no linear-kernel grid point classifies all four.
        kernel = kernel_matrix(XOR, LINEAR)
        for index in range(2 ** (4 * grid.bits_per_alpha)):
            alphas = grid_alphas(index, 4, grid)
            support = [i for i in range(4) if alphas[i] > 0]
            if support:
                b = float(
                    np.mean(
                        [
                            (alphas * XOR.labels) @ kernel[:, i] - XOR.labels[i]
                            for i in support
                        ]
                    )
                )
            else:
                b = 0.0
            scores = (alphas * XOR.labels) @ kernel - b
            labels = np.where(scores >= 0, 1, -1)
            assert not np.array_equal(labels, XOR.labels)

    def test_penalized_value_no_worse_than_zero_point(self):
        grid = AlphaGrid(bits_per_alpha=3)
        from qmlkit.qsvm import _default_penalty, _penalized_table

        for seed in range(5):
            kernel = kernel_matrix(FOUR_POINT, LINEAR)
            penalty = _default_penalty(kernel)
            table = _penalized_table(FOUR_POINT, kernel, grid, penalty)
            solution = solve(FOUR_POINT, LINEAR, grid, RngStream(seed))
            index = sum(
                int(round(solution.alphas[i] / grid.step)) << ((4 - 1 - i) * 3)
                for i in range(4)
            )
            assert table[index] <= table[0] + 1e-12

    def test_constraint_residual_within_grid_bound(self):
        grid = AlphaGrid(bits_per_alpha=3)
        for data, spec in ((TWO_POINT, LINEAR), (FOUR_POINT, LINEAR)):
            for seed in range(5):
                solution = solve(data, spec, grid, RngStream(seed))
                residual = abs(float(solution.alphas @ data.labels))
                assert residual <= grid.step * data.m + 1e-12

    def test_alphas_nonnegative_and_support_indices(self):
        solution = solve(FOUR_POINT, LINEAR, AlphaGrid(bits_per_alpha=3), RngStream(7))
        assert np.all(solution.alphas >= 0)
        assert solution.support_indices == [
            i for i, a in enumerate(solution.alphas) if a > 0
        ]

    def test_single_class_rejected(self):
        data = LabeledDataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(DomainError):
            solve(data, LINEAR, AlphaGrid(bits_per_alpha=2), RngStream(0))

    def test_bit_budget_cap(self):
        gen = np.random.default_rng(0)
        data = LabeledDataset(gen.normal(size=(8, 2)), [1, -1] * 4)
        with pytest.raises(ConfigError, match=r"24-bit grid's table would hold 8 x 2\^24 bytes$"):
            solve(data, LINEAR, AlphaGrid(bits_per_alpha=3), RngStream(0))
        # The refusal states the size without building the integer 2^bits,
        # whose decimal form alone would overrun int-to-str limits.
        started = time.perf_counter()
        with pytest.raises(ConfigError, match=r"would hold 8 x 2\^8000000 bytes$"):
            solve(data, LINEAR, AlphaGrid(bits_per_alpha=10**6), RngStream(0))
        assert time.perf_counter() - started < 1


class TestPenalizedTable:
    @pytest.mark.parametrize("chunk", [3, 1000, 2**12, 2**16])
    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_chunked_build_matches_whole_grid(self, monkeypatch, chunk, kind):
        gen = np.random.default_rng(41)
        data = LabeledDataset(gen.normal(size=(7, 3)), [1, -1, 1, 1, -1, -1, 1])
        spec = KernelSpec(kind, gamma=0.7 if kind == "gaussian" else None)
        kernel = kernel_matrix(data, spec)
        grid = AlphaGrid(bits_per_alpha=2, alpha_max=3.0)  # 14 bits
        monkeypatch.setattr(qsvm, "_TABLE_CHUNK", chunk)
        table = _penalized_table(data, kernel, grid, _default_penalty(kernel))
        want = reference_penalized_table(data, kernel, grid, _default_penalty(kernel))
        assert table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m, bits", [(1, 3), (4, 2), (10, 2), (5, 4)])
    def test_grid_alphas_match_per_index_decode(self, m, bits):
        grid = AlphaGrid(bits_per_alpha=bits, alpha_max=3.0)
        indices = np.random.default_rng(m).integers(0, 2 ** (m * bits), size=64)
        got = qsvm._grid_alphas(indices, m, grid)
        want = np.array([grid_alphas(int(i), m, grid) for i in indices])
        assert got.shape == (64, m) and got.tobytes() == want.tobytes()


class TestPredict:
    def test_training_points_recovered(self):
        grid = AlphaGrid(bits_per_alpha=3)
        solution = solve(FOUR_POINT, LINEAR, grid, RngStream(11))
        for x, y in zip(FOUR_POINT.vectors, FOUR_POINT.labels):
            assert predict(solution, FOUR_POINT, LINEAR, x) == y

    def test_boundary_tie_breaks_positive(self):
        solution = solve(TWO_POINT, LINEAR, AlphaGrid(bits_per_alpha=3), RngStream(1))
        assert predict(solution, TWO_POINT, LINEAR, [0.0]) == 1

    def test_far_point_along_direction(self):
        solution = solve(TWO_POINT, LINEAR, AlphaGrid(bits_per_alpha=3), RngStream(1))
        assert predict(solution, TWO_POINT, LINEAR, [100.0]) == 1

    def test_invariant_under_nonsupport_duplicate(self):
        grid = AlphaGrid(bits_per_alpha=3)
        base = solve(TWO_POINT, LINEAR, grid, RngStream(4))
        # Append a deep-in-class point carrying zero multiplier: scores and
        # bias are exactly unchanged.
        extended = LabeledDataset([[-1.0], [1.0], [5.0]], [-1, 1, 1])
        padded = SvmSolution(
            alphas=np.append(base.alphas, 0.0),
            theta=base.theta,
            b=base.b,
            dual_value=base.dual_value,
            support_indices=base.support_indices,
        )
        for probe in ([-2.0], [-0.3], [0.0], [0.7], [3.0]):
            assert predict(padded, extended, LINEAR, probe) == predict(
                base, TWO_POINT, LINEAR, probe
            )

    def test_model_dataset_mismatch_rejected(self):
        solution = solve(TWO_POINT, LINEAR, AlphaGrid(bits_per_alpha=3), RngStream(1))
        for score in (predict, decision_value):
            with pytest.raises(DomainError, match="model does not match the dataset"):
                score(solution, FOUR_POINT, LINEAR, [0.0, 0.0])

    def test_class_is_sign_of_decision_value(self):
        solution = solve(FOUR_POINT, LINEAR, AlphaGrid(bits_per_alpha=3), RngStream(11))
        for probe in ([-3.0, 1.0], [-0.1, 0.0], [0.0, 0.0], [0.2, -0.4], [4.0, 2.0]):
            value = decision_value(solution, FOUR_POINT, LINEAR, probe)
            assert predict(solution, FOUR_POINT, LINEAR, probe) == (1 if value >= 0 else -1)
