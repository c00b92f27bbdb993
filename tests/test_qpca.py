import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmlkit import qpca, subroutines
from qmlkit.density import DensityMatrix
from qmlkit.errors import ConfigError, DomainError
from qmlkit.qpca import (
    PcaInput,
    build_density,
    build_model,
    eigen_sample,
    evolution_unitary,
    extract_scores,
    preprocess,
)
from qmlkit.rng import RngStream
from qmlkit.state import StateVector
from qmlkit.subroutines import overlap_sq, swap_tests


def manual_input(rows) -> PcaInput:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return PcaInput(raw=rows, demeaned=rows, rows=rows, standardize=False)


def reference_swaptest_scores(model, prepared, r, shots, rng) -> np.ndarray:
    """Swap-test scores with one ``swap_tests`` batch per row, as they were
    computed before the rows were batched."""
    rows = qpca._padded_rows(prepared)
    vectors = model.eigenvectors[:, :r]
    exact = rows @ vectors.real
    n = model.rho.n_qubits
    eigvecs = [StateVector(n, v.astype(complex)) for v in vectors.T]
    scores = np.empty_like(exact)
    for i, row in enumerate(rows):
        _, p0_hat = swap_tests(StateVector(n, row.astype(complex)), eigvecs, shots, rng)
        scores[i] = np.copysign(np.sqrt(overlap_sq(p0_hat)), exact[i])
    return scores


def tilted_pair_input():
    # Unit rows with overlap 1/2: mixing them gives eigenvalues exactly
    # 3/4 and 1/4.
    return manual_input([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])


class TestPreprocess:
    def test_symmetric_pair(self):
        prepared = preprocess([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(prepared.rows, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-12)

    def test_column_means_vanish(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(7, 5)) + 3.0)
        assert np.allclose(prepared.demeaned.mean(axis=0), 0.0, atol=1e-9)

    def test_rows_unit_norm(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(3, 4)))
        assert np.allclose(np.linalg.norm(prepared.rows, axis=1), 1.0, atol=1e-12)

    def test_standardize_scales_columns(self, np_rng):
        raw = np_rng.normal(size=(20, 3)) * (1.0, 5.0, 0.2)
        prepared = preprocess(raw, standardize=True)
        scaled = prepared.demeaned / prepared.demeaned.std(axis=0)
        assert np.allclose(
            prepared.rows, scaled / np.linalg.norm(scaled, axis=1)[:, None], atol=1e-12
        )

    def test_degenerate_row_named(self):
        with pytest.raises(DomainError, match="row 2"):
            preprocess([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])


class TestBuildDensity:
    def test_single_row_is_rank_one(self):
        rho = build_density(manual_input([[0.6, 0.8]]))
        assert np.linalg.matrix_rank(rho.matrix) == 1

    def test_opposite_rows_give_projector(self):
        rho = build_density(manual_input([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_trace_one(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(6, 3)))
        rho = build_density(prepared)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_pads_to_power_of_two(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(5, 3)))
        assert build_density(prepared).dim == 4

    def test_matches_host_covariance_eigensystem(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(9, 4)))
        model = build_model(prepared)
        host_cov = prepared.rows.T @ prepared.rows / prepared.rows.shape[0]
        values, vectors = np.linalg.eigh(host_cov)
        values, vectors = values[::-1], vectors[:, ::-1]
        assert np.allclose(model.eigenvalues, values, atol=1e-9)
        for j in range(4):
            overlap = abs(vectors[:, j] @ model.eigenvectors[:, j].real)
            assert overlap == pytest.approx(1.0, abs=1e-9)


class TestEvolutionUnitary:
    def test_maximally_mixed_is_global_phase(self):
        rho = DensityMatrix(2, np.eye(2) / 2)
        unitary = evolution_unitary(rho, 1.7)
        assert np.allclose(unitary.matrix, np.exp(-1.7j / 2) * np.eye(2), atol=1e-12)

    def test_spectral_mapping(self):
        model = build_model(tilted_pair_input(), t=math.pi)
        unitary = evolution_unitary(model.rho, math.pi)
        for j, lam in enumerate(model.eigenvalues):
            phi = model.eigenvectors[:, j]
            assert np.allclose(
                unitary.matrix @ phi, np.exp(-1j * lam * math.pi) * phi, atol=1e-9
            )

    def test_small_time_limit_is_identity(self):
        rho = build_density(tilted_pair_input())
        unitary = evolution_unitary(rho, 1e-9)
        assert np.allclose(unitary.matrix, np.eye(2), atol=1e-8)

    def test_nonpositive_time_rejected(self):
        rho = build_density(tilted_pair_input())
        with pytest.raises(DomainError):
            evolution_unitary(rho, 0.0)


class TestEigenSample:
    def test_rank_one_always_first_component(self):
        model = build_model(manual_input([[1.0, 0.0], [-1.0, 0.0]]))
        samples = eigen_sample(model, 50, RngStream(1))
        assert {s.component_index for s in samples} == {0}
        assert all(s.lambda_measured == pytest.approx(1.0, abs=1e-12) for s in samples)

    def test_component_frequencies_binomial(self):
        model = build_model(tilted_pair_input())
        samples = eigen_sample(model, 10_000, RngStream(10))
        first = sum(s.counts for s in samples if s.component_index == 0)
        assert 7309 <= first <= 7691

    def test_dyadic_eigenvalues_read_exactly(self):
        # lambda * t / 2pi = 3/8 and 1/8 are dyadic in the register, so every
        # draw reads the exact eigenvalue.
        model = build_model(tilted_pair_input())
        for sample in eigen_sample(model, 2_000, RngStream(3)):
            expected = model.eigenvalues[sample.component_index]
            assert sample.lambda_measured == pytest.approx(expected, abs=1e-12)

    def test_register_resolution_bound(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(6, 4)))
        model = build_model(prepared)
        samples = eigen_sample(model, 3_000, RngStream(4))
        resolution = 2 * math.pi / (model.t * 2**model.n_control)
        for j in range(len(model.eigenvalues)):
            per_component = [s for s in samples if s.component_index == j]
            if not per_component:
                continue
            modal = max(per_component, key=lambda s: s.counts)
            assert abs(modal.lambda_measured - model.eigenvalues[j]) <= resolution + 1e-12

    def test_counts_sum_to_samples(self):
        model = build_model(tilted_pair_input())
        samples = eigen_sample(model, 777, RngStream(0))
        assert sum(s.counts for s in samples) == 777


class TestExtractScores:
    def test_line_data_scores(self):
        model = build_model(manual_input([[1.0, 0.0], [-1.0, 0.0]]))
        scores = extract_scores(model, manual_input([[1.0, 0.0], [-1.0, 0.0]]), 2)
        assert np.allclose(scores.scores[:, 0], [1.0, -1.0], atol=1e-12)
        assert np.allclose(scores.scores[:, 1], 0.0, atol=1e-12)

    def test_eigenvector_equal_to_row(self):
        prepared = manual_input([[1.0, 0.0], [-1.0, 0.0]])
        model = build_model(prepared)
        scores = extract_scores(model, prepared, 1)
        assert abs(scores.scores[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_exact_scores_equal_projection(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(8, 4)))
        model = build_model(prepared)
        scores = extract_scores(model, prepared, 4)
        assert np.allclose(
            scores.scores, prepared.rows @ model.eigenvectors.real, atol=1e-9
        )

    def test_reconstruction_at_full_rank(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(8, 4)))
        model = build_model(prepared)
        scores = extract_scores(model, prepared, 4)
        rebuilt = scores.scores @ model.eigenvectors.real.T
        assert np.allclose(rebuilt, prepared.rows, atol=1e-9)

    def test_swaptest_mode_near_exact(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(5, 4)))
        model = build_model(prepared)
        exact = extract_scores(model, prepared, 2)
        noisy = extract_scores(
            model, prepared, 2, mode="swaptest", shots=200_000, rng=RngStream(12)
        )
        assert np.allclose(noisy.scores, exact.scores, atol=0.02)
        assert np.all(np.sign(noisy.scores) == np.sign(exact.scores))

    @settings(max_examples=25)
    @given(
        m=st.integers(2, 12),
        features=st.integers(2, 9),
        seed=st.integers(0, 2**16),
        shots=st.sampled_from([1, 7, 256]),
        cap=st.sampled_from([2**4, 2**6, 2**12]),
        batch=st.sampled_from([1, 5, 2**16]),
        data=st.data(),
    )
    def test_matches_per_row_reference(self, m, features, seed, shots, cap, batch, data):
        # Batches of whole rows (a row per batch up to all rows in one) give
        # the scores of one batch per row, bit for bit, and leave the stream
        # where it left it.
        prepared = preprocess(np.random.default_rng(seed).normal(size=(m, features)))
        model = build_model(prepared)
        r = data.draw(st.integers(1, model.eigenvectors.shape[1]))
        batched_rng, row_rng = RngStream(seed), RngStream(seed)
        with mock.patch.object(subroutines, "_SLICE_AMPS", cap), \
                mock.patch.object(qpca, "MAX_BATCH_PAIRS", batch):
            got = extract_scores(model, prepared, r, "swaptest", shots, batched_rng).scores
            want = reference_swaptest_scores(model, prepared, r, shots, row_rng)
        assert got.tobytes() == want.tobytes()
        assert batched_rng.gen.random(4).tolist() == row_rng.gen.random(4).tolist()

    def test_one_kernel_call_per_batch(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(200, 8)))
        model = build_model(prepared)
        calls = []

        def counting(left, right):
            calls.append(len(left))
            return subroutines._swap_test_p0(left, right)

        with mock.patch.object(qpca, "_swap_test_p0", counting):
            extract_scores(model, prepared, 3, "swaptest", 64, RngStream(0))
            assert calls == [600]
            with mock.patch.object(qpca, "MAX_BATCH_PAIRS", 250):
                extract_scores(model, prepared, 3, "swaptest", 64, RngStream(0))
        assert calls[1:] == [249] * 2 + [102]

    def test_swaptest_rejects_non_unit_row(self):
        prepared = manual_input([[1.0, 0.0], [0.6, 0.0]])
        model = build_model(manual_input([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DomainError, match=r"row 1 not normalized: sum \|c_i\|\^2 = 0\.36"):
            extract_scores(model, prepared, 1, "swaptest", 64, RngStream(0))

    def test_swaptest_shots_checked(self):
        prepared = tilted_pair_input()
        model = build_model(prepared)
        with pytest.raises(DomainError, match="shots must be >= 1, got 0"):
            extract_scores(model, prepared, 1, "swaptest", 0, RngStream(0))

    def test_swaptest_draw_budget_per_row(self, np_rng):
        # One row's draws (2 components x 64 shots) fit the budget; the whole
        # table's do not, and still runs, with the same scores.
        prepared = preprocess(np_rng.normal(size=(6, 4)))
        model = build_model(prepared)
        want = extract_scores(model, prepared, 2, "swaptest", 64, RngStream(3)).scores
        with mock.patch.object(subroutines, "_DRAW_BYTES_CAP", 8 * 2 * 64):
            got = extract_scores(model, prepared, 2, "swaptest", 64, RngStream(3)).scores
        assert got.tobytes() == want.tobytes()
        with mock.patch.object(subroutines, "_DRAW_BYTES_CAP", 8 * 2 * 64 - 1):
            with pytest.raises(ConfigError, match="2 x 64 shot draws"):
                extract_scores(model, prepared, 2, "swaptest", 64, RngStream(3))

    def test_component_count_validated(self):
        model = build_model(tilted_pair_input())
        with pytest.raises(DomainError):
            extract_scores(model, tilted_pair_input(), 3)

    def test_score_variance_tracks_eigenvalues(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(40, 4)))
        model = build_model(prepared)
        scores = extract_scores(model, prepared, 4).scores
        second_moment = (scores**2).mean(axis=0)
        assert np.allclose(second_moment, model.eigenvalues, atol=1e-9)
