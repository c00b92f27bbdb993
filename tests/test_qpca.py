import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmlkit import fourier, qpca, state, subroutines
from qmlkit.density import DensityMatrix, mixed_density
from qmlkit.errors import ConfigError, DomainError
from qmlkit.gates import GateMatrix
from qmlkit.qpca import (
    PcaInput,
    PcaModel,
    PcaSample,
    build_model,
    eigen_sample,
    extract_scores,
    preprocess,
)
from qmlkit.rng import RngStream
from qmlkit.state import StateVector
from qmlkit.subroutines import overlap_sq, swap_test
from conftest import random_state, reference_control_distribution


def manual_input(rows) -> PcaInput:
    return PcaInput(rows=np.atleast_2d(np.asarray(rows, dtype=float)))


def reference_rows(raw: np.ndarray, standardize: bool = False) -> np.ndarray:
    """Demeaned, optionally standardized, unit rows, zero-padded to 2^n columns."""
    scaled = raw - raw.mean(axis=0)
    if standardize:
        scaled = scaled / scaled.std(axis=0)
    unit = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return np.pad(unit, ((0, 0), (0, 2 ** math.ceil(math.log2(raw.shape[1])) - raw.shape[1])))


def build_density(input: PcaInput) -> DensityMatrix:
    """The dense rho = R^T R / M over the padded rows R: the reference that
    ``build_model`` never forms."""
    rows = input.rows
    return DensityMatrix._trusted(rows.shape[1], rows.T @ rows / rows.shape[0])


def dense_eigensystem(input: PcaInput) -> tuple[np.ndarray, np.ndarray]:
    """All of the dense rho's eigenvalues, descending, with their vectors."""
    values, vectors = np.linalg.eigh(build_density(input).matrix)
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


def reference_swaptest_scores(model, prepared, r, shots, rng) -> np.ndarray:
    """Swap-test scores with one register-built ``swap_test`` per (row,
    component) pair, in row-major order."""
    rows = prepared.rows
    vectors = model.eigenvectors[:, :r]
    exact = rows @ vectors
    n = rows.shape[1].bit_length() - 1
    scores = np.empty_like(exact)
    for i, row in enumerate(rows):
        for j, vector in enumerate(vectors.T):
            p0_hat = swap_test(StateVector(n, row), StateVector(n, vector), shots, rng).p0_hat
            scores[i, j] = np.copysign(np.sqrt(overlap_sq(p0_hat)), exact[i, j])
    return scores


def evolution_unitary(rho: DensityMatrix, t: float) -> GateMatrix:
    """exp(-i rho t) from the eigendecomposition of rho."""
    if t <= 0:
        raise DomainError("evolution time must be > 0")
    values, vectors = np.linalg.eigh(rho.matrix)
    phases = np.exp(-1j * values * t)
    return GateMatrix._trusted(rho.dim, (vectors * phases) @ vectors.conj().T)


def reference_density(input: PcaInput) -> np.ndarray:
    """rho as the sum of one outer product per encoded row."""
    rows = input.rows
    rho = np.zeros((rows.shape[1], rows.shape[1]), dtype=complex)
    for row in rows:
        rho += np.outer(row, row)
    return rho / rows.shape[0]


def reference_eigen_sample(model, rho, m_samples, rng) -> list[PcaSample]:
    """``eigen_sample`` with the simulated register: the controlled-gate
    phase-estimation circuit on exp(i rho t) for the dense ``rho``, built
    from its own eigendecomposition, for every sampled component; the same
    draws in the same order."""
    probs = np.clip(model.eigenvalues, 0.0, None)
    component_counts = rng.gen.multinomial(m_samples, probs / probs.sum())
    forward = evolution_unitary(rho, model.t).dagger()
    dim = 2**model.n_control
    samples = []
    for j, count in enumerate(component_counts):
        if count == 0:
            continue
        eigvec = StateVector(rho.n_qubits, model.eigenvectors[:, j].astype(complex))
        register_probs = reference_control_distribution(forward, eigvec, model.n_control)
        draws = rng.gen.choice(dim, size=count, p=register_probs / register_probs.sum())
        for a, n_hits in zip(*np.unique(draws, return_counts=True)):
            samples.append(PcaSample(j, 2.0 * math.pi * (int(a) / dim) / model.t, int(n_hits)))
    return samples


class RecordingGenerator:
    """Passes draws through to a generator and keeps every ``choice`` call's
    probability vector."""

    def __init__(self, gen):
        self.gen = gen
        self.register_probs = []

    def multinomial(self, n, pvals):
        self.component_counts = self.gen.multinomial(n, pvals)
        return self.component_counts

    def choice(self, dim, size, p):
        self.register_probs.append(p)
        return self.gen.choice(dim, size=size, p=p)


def tilted_pair_input():
    # Unit rows with overlap 1/2: mixing them gives eigenvalues exactly
    # 3/4 and 1/4.
    return manual_input([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])


class TestPreprocess:
    def test_symmetric_pair(self):
        prepared = preprocess([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(prepared.rows, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-12)

    def test_column_means_vanish(self, np_rng):
        raw = np_rng.normal(size=(7, 5)) + 3.0
        assert np.allclose(preprocess(raw).rows, reference_rows(raw), rtol=0.0, atol=1e-12)

    def test_rows_unit_norm(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(3, 4)))
        assert np.allclose(np.linalg.norm(prepared.rows, axis=1), 1.0, atol=1e-12)

    def test_standardize_scales_columns(self, np_rng):
        raw = np_rng.normal(size=(20, 3)) * (1.0, 5.0, 0.2)
        assert np.allclose(
            preprocess(raw, standardize=True).rows, reference_rows(raw, standardize=True),
            rtol=0.0, atol=1e-12,
        )

    @pytest.mark.parametrize("standardize", [False, True])
    def test_holds_one_padded_copy(self, standardize):
        # 300 x 4,096 features: 9.4 MiB of rows, demeaned, scaled and
        # normalized in place.  What stays allocated is the rows alone, and
        # the peak adds one temporary of their size (std's deviations, or the
        # squares behind the row norms); 1 MiB covers the column statistics.
        raw = np.random.default_rng(30).normal(size=(300, 4096)) * 2.0 + 1.0
        tracemalloc.start()
        try:
            prepared = preprocess(raw, standardize=standardize)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = prepared.rows.nbytes
        assert left <= rows + 2**20, (left, rows)
        assert peak <= 2 * rows + 2**20, (peak, rows)

    def test_degenerate_row_named(self):
        with pytest.raises(DomainError, match="row 2"):
            preprocess([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])


class TestBuildDensity:
    """The dense reference rho, and the model's agreement with it."""

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

    def test_refused_over_dense_cap(self, np_rng):
        # Five features pad to 8, over a cap of 2 qubits (4 dimensions).  Four
        # rows keep the Gram side at the cap, so the model is built; five
        # rows pass it on both sides, and the model is refused.
        with mock.patch.object(state, "DENSE_MATRIX_CAP", 2):
            model = build_model(preprocess(np_rng.normal(size=(4, 5))))
            assert model.eigenvectors.shape == (8, 3)
            with pytest.raises(ConfigError, match=(
                r"^5 rows and 8 padded features both pass the dense-matrix cap of 4: "
                r"the eigensystem needs a 5 x 5 matrix$"
            )):
                build_model(preprocess(np_rng.normal(size=(5, 5))))

    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (40, 17), (300, 64)])
    def test_matches_sum_of_outer_products(self, shape):
        gen = np.random.default_rng(shape[1])
        prepared = preprocess(gen.normal(size=(shape[0] + 1, shape[1])))
        rho = build_density(prepared)
        assert np.max(np.abs(rho.matrix - reference_density(prepared))) <= 1e-14

    def test_model_runs_one_decomposition(self, np_rng):
        # rho is trusted by construction, so the validating constructor's
        # eigvalsh does not run; build_model's one eigh is the only one.
        prepared = preprocess(np_rng.normal(size=(30, 12)))

        def refuse(*args, **kwargs):
            raise AssertionError("build_model must not run eigvalsh")

        with mock.patch.object(np.linalg, "eigvalsh", refuse):
            model = build_model(prepared)
        assert model.eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pads_to_power_of_two(self, np_rng):
        prepared = preprocess(np_rng.normal(size=(5, 3)))
        assert prepared.rows.shape == (5, 4) and not prepared.rows[:, 3].any()
        assert build_density(prepared).dim == 4
        assert build_model(prepared).eigenvectors.shape == (4, 4)

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


class TestEigensystem:
    """The eigensystem from the smaller Gram side against the dense rho."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 40),
        features=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_dense_reference(self, m, features, seed, data):
        # M < d, M = d and M > d; duplicated rows lower the rank further.
        gen = np.random.default_rng(seed)
        raw = gen.normal(size=(m, features))
        copies = data.draw(st.integers(0, m - 2))
        raw[m - copies:] = raw[gen.integers(0, m - copies, size=copies)]
        prepared = preprocess(raw)
        model = build_model(prepared)
        values, vectors = model.eigenvalues, model.eigenvectors
        want_values, want_vectors = dense_eigensystem(prepared)
        kept, dim = len(values), len(want_values)
        assert kept == dim if m >= dim else kept < m
        assert np.max(np.abs(values - want_values[:kept])) <= 1e-12
        assert np.all(want_values[kept:] <= qpca._RANK_TOL * want_values[0])
        assert np.max(np.abs(vectors.T @ vectors - np.eye(kept))) <= 1e-10
        lead = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), np.arange(kept)]
        assert np.all(lead > 0)
        scores = extract_scores(model, prepared, kept).scores
        assert np.array_equal(scores, prepared.rows @ vectors)
        for j in range(kept):
            if np.min(np.abs(np.delete(want_values, j) - want_values[j]), initial=1.0) > 1e-6:
                want = want_vectors[:, j] * np.sign(want_vectors[:, j] @ vectors[:, j])
                assert np.max(np.abs(vectors[:, j] - want)) <= 1e-10

    @pytest.mark.parametrize("noise", [1e-2, 1e-4])
    def test_small_components_kept(self, noise):
        # 8 rows near a 3-dimensional span of 32 features: the other 4 of
        # the 7 demeaned directions carry values of noise^2 relative, which
        # float64 rows still determine.  Lifted columns stay orthonormal to
        # the rounding of the Gram eigensystem relative to the smallest
        # kept value.
        gen = np.random.default_rng(8)
        raw = gen.normal(size=(8, 3)) @ gen.normal(size=(3, 32))
        prepared = preprocess(raw + noise * gen.normal(size=(8, 32)))
        model = build_model(prepared)
        values, vectors = model.eigenvalues, model.eigenvectors
        want_values, _ = dense_eigensystem(prepared)
        assert len(values) == 7 and values[-1] < 1e-3 * values[0]
        assert np.max(np.abs(values - want_values[:7])) <= 1e-12
        bound = 4 * np.finfo(float).eps * values[0] / values[-1]
        assert np.max(np.abs(vectors.T @ vectors - np.eye(7))) <= bound

    def test_wide_rows_run_no_dense_eigh(self):
        # 12 rows x 64 features: the only eigh is the 12 x 12 Gram matrix's,
        # and the 11 values of the demeaned rows' rank are kept.
        prepared = preprocess(np.random.default_rng(12).normal(size=(12, 64)))
        shapes = []
        eigh = np.linalg.eigh

        def recording(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return eigh(matrix, *args, **kwargs)

        with mock.patch.object(np.linalg, "eigh", recording):
            model = build_model(prepared)
        assert shapes == [(12, 12)]
        assert model.eigenvectors.shape == (64, 11)
        assert model.eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)


class TestEvolutionUnitary:
    def test_maximally_mixed_is_global_phase(self):
        rho = DensityMatrix(2, np.eye(2) / 2)
        unitary = evolution_unitary(rho, 1.7)
        assert np.allclose(unitary.matrix, np.exp(-1.7j / 2) * np.eye(2), atol=1e-12)

    def test_spectral_mapping(self):
        model = build_model(tilted_pair_input(), t=math.pi)
        unitary = evolution_unitary(build_density(tilted_pair_input()), math.pi)
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
    @settings(max_examples=40)
    @given(
        n_qubits=st.integers(1, 4),
        n_control=st.integers(1, 8),
        t=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_register_matches_simulated(self, n_qubits, n_control, t, seed):
        gen = np.random.default_rng(seed)
        weights = gen.dirichlet(np.ones(3))
        rho = mixed_density([(float(w), random_state(gen, n_qubits)) for w in weights])
        values, vectors = np.linalg.eigh(rho.matrix)
        model = PcaModel(t, values[::-1], vectors[:, ::-1], n_control)
        rng = RngStream(seed)
        rng.gen = recording = RecordingGenerator(rng.gen)
        eigen_sample(model, 64, rng)
        forward = evolution_unitary(rho, t).dagger()
        sampled = np.flatnonzero(recording.component_counts)
        assert len(recording.register_probs) == len(sampled)
        for j, got in zip(sampled, recording.register_probs):
            eigvec = StateVector(n_qubits, model.eigenvectors[:, j].astype(complex))
            want = reference_control_distribution(forward, eigvec, n_control)
            assert np.max(np.abs(got - want / want.sum())) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_sampler(self, seed):
        gen = np.random.default_rng(seed)
        prepared = preprocess(gen.normal(size=(12, 3 + seed)) * np.arange(1, 4 + seed))
        model = build_model(prepared, n_control=4 + seed)
        got = eigen_sample(model, 2_000, RngStream(seed))
        want = reference_eigen_sample(model, build_density(prepared), 2_000, RngStream(seed))
        assert got == want

    def test_wide_rows_match_reference_sampler(self):
        # 6 rows x 20 features: lifted eigenvectors against the register on
        # the dense 32 x 32 rho's exponential.
        prepared = preprocess(np.random.default_rng(7).normal(size=(6, 20)))
        model = build_model(prepared, n_control=5)
        got = eigen_sample(model, 2_000, RngStream(7))
        want = reference_eigen_sample(model, build_density(prepared), 2_000, RngStream(7))
        assert got == want and len(model.eigenvalues) == 5

    def test_builds_no_unitary_and_simulates_no_register(self):
        model = build_model(tilted_pair_input())

        def refuse(*args, **kwargs):
            raise AssertionError("eigen_sample must not build or simulate the register")

        with mock.patch.object(fourier, "control_distribution", refuse), \
                mock.patch.object(np.linalg, "eigh", refuse):
            samples = eigen_sample(model, 500, RngStream(2))
        assert sum(s.counts for s in samples) == 500

    def test_control_count_refusals(self):
        # Refused before the first draw: the caller's stream does not move.
        model = build_model(tilted_pair_input(), n_control=0)
        stream = RngStream(0)
        with pytest.raises(DomainError, match="^need at least one control qubit$"):
            eigen_sample(model, 10, stream)
        assert stream.uniform() == RngStream(0).uniform()
        model = build_model(tilted_pair_input(), n_control=24)
        stream = RngStream(0)
        with pytest.raises(ConfigError, match="^25 qubits exceeds the cap of 24: the state"):
            eigen_sample(model, 10, stream)
        assert stream.uniform() == RngStream(0).uniform()

    def test_nonpositive_time_rejected(self):
        model = build_model(tilted_pair_input(), t=0.0)
        stream = RngStream(3)
        with pytest.raises(DomainError, match="evolution time must be > 0"):
            eigen_sample(model, 10, stream)
        assert stream.uniform() == RngStream(3).uniform()

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

    def test_memory_holds_no_eigenvector_copies(self):
        # 300 rows x 1,000 features: 1,024-amplitude eigenvectors, of which
        # the samples keep none.
        model = build_model(preprocess(np.random.default_rng(16).normal(size=(300, 1000))))
        tracemalloc.start()
        try:
            samples = eigen_sample(model, 4096, RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(s.counts for s in samples) == 4096
        assert peak <= 2**20, peak


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
        data=st.data(),
    )
    def test_matches_per_row_reference(self, m, features, seed, shots, cap, data):
        # Shots drawn at the closed-form p0, in draw chunks set by ``cap``,
        # give the scores of one register-built swap test per pair, bit for
        # bit, and leave the stream where it leaves it.
        prepared = preprocess(np.random.default_rng(seed).normal(size=(m, features)))
        model = build_model(prepared)
        r = data.draw(st.integers(1, model.eigenvectors.shape[1]))
        batched_rng, row_rng = RngStream(seed), RngStream(seed)
        with mock.patch.object(subroutines, "_SLICE_AMPS", cap):
            got = extract_scores(model, prepared, r, "swaptest", shots, batched_rng).scores
            want = reference_swaptest_scores(model, prepared, r, shots, row_rng)
        assert got.tobytes() == want.tobytes()
        assert batched_rng.gen.random(4).tolist() == row_rng.gen.random(4).tolist()

    def test_swaptest_builds_no_register(self, np_rng):
        # Swap-test scores come from the closed-form p0: no path runs the
        # swap-test kernel, applies a gate or builds a state.
        prepared = preprocess(np_rng.normal(size=(200, 8)))
        model = build_model(prepared)
        refuse = mock.Mock(side_effect=AssertionError("swap-test register built"))
        with mock.patch.object(subroutines, "_swap_test_p0", refuse), \
                mock.patch.object(subroutines, "apply", refuse), \
                mock.patch.object(StateVector, "__post_init__", refuse):
            scores = extract_scores(model, prepared, 3, "swaptest", 64, RngStream(0)).scores
        refuse.assert_not_called()
        assert scores.shape == (200, 3)

    @settings(max_examples=40)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), same=st.sampled_from([0, 1, -1]))
    def test_closed_form_p0_matches_register_kernel(self, n, seed, same):
        # For real unit rows the swap test's control probability is
        # 1/2 + <x|phi>^2 / 2, which swap-test scores draw at; ``same`` puts
        # phi at +-x, where p0 is 1.
        gen = np.random.default_rng(seed)
        x, phi = gen.normal(size=(2, 2**n))
        x /= np.linalg.norm(x)
        phi = same * x if same else phi / np.linalg.norm(phi)
        register = subroutines._swap_test_p0(StateVector(n, x), StateVector(n, phi))
        assert abs((0.5 + 0.5 * np.square(x @ phi)) - register) <= 1e-14

    def test_swaptest_memory_holds_no_pair_copies(self):
        # 1,024 rows x 16 features x 4 components: the (row, component) pairs
        # as two complex arrays would take 2 x 1 MiB.
        prepared = preprocess(np.random.default_rng(3).normal(size=(1024, 16)))
        model = build_model(prepared)
        tracemalloc.start()
        try:
            scores = extract_scores(model, prepared, 4, "swaptest", 4096, RngStream(5)).scores
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (1024, 4)
        assert peak <= 1.25 * 2**20, peak

    def test_swaptest_rejects_non_unit_row(self):
        prepared = manual_input([[1.0, 0.0], [0.6, 0.0]])
        model = build_model(manual_input([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DomainError, match=r"row 1 not normalized: sum \|c_i\|\^2 = 0\.36"):
            extract_scores(model, prepared, 1, "swaptest", 64, RngStream(0))

    def test_swaptest_rejects_nan_row(self):
        prepared = manual_input([[1.0, 0.0], [math.nan, 0.0]])
        model = build_model(manual_input([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DomainError, match=r"^row 1 not normalized: sum \|c_i\|\^2 = nan$"):
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
