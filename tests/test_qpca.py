import math

import numpy as np
import pytest

from qmlkit.density import DensityMatrix
from qmlkit.errors import DomainError
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


def manual_input(rows) -> PcaInput:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return PcaInput(raw=rows, demeaned=rows, rows=rows, standardize=False)


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
