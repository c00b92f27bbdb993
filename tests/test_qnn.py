import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_state
from qmlkit.density import mixed_density, partial_trace, pure_density
from qmlkit.errors import DomainError
from qmlkit.qnn import (
    _PAULI,
    QnnEncoding,
    QnnParameters,
    QnnTrainConfig,
    build_unitary,
    cost,
    encode_example,
    finite_difference_gradient,
    _label_expectations,
    _pauli_sum,
    forward,
    pauli_word,
    train,
    unitary_from_pauli_coefficients,
)
from qmlkit.rng import RngStream
from qmlkit.state import StateVector

ENC = QnnEncoding(k=1, m=1)
NOT_TASK = [(0, 0, 1), (1, 0, 0)]


def reference_word(word_index: int, n: int) -> np.ndarray:
    """P_{k_1} (x) ... (x) P_{k_n} by explicit Kronecker products."""
    matrix = np.array([[1.0 + 0j]])
    for pos in range(n):
        digit = (word_index >> (2 * (n - 1 - pos))) & 3
        matrix = np.kron(matrix, _PAULI[digit])
    return matrix


def reference_generator(alphas: np.ndarray, n: int) -> np.ndarray:
    generator = np.zeros((2**n, 2**n), dtype=complex)
    for w in np.nonzero(alphas)[0]:
        generator += alphas[w] * reference_word(int(w), n)
    return generator


def reference_label_expectations(matrix: np.ndarray, m: int) -> np.ndarray:
    """tr(rho sigma_i^(q)) with each one-qubit Pauli kron-padded to m qubits."""
    out = np.empty((m, 3))
    for q in range(m):
        for i in (1, 2, 3):
            word = np.array([[1.0 + 0j]])
            for pos in range(m):
                word = np.kron(word, _PAULI[i] if pos == q else _PAULI[0])
            out[q, i - 1] = float(np.trace(matrix @ word).real)
    return out


class TestPauliGenerator:
    @settings(max_examples=40)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(0.0, 0.9))
    def test_matches_kron_sum(self, n, seed, sparsity):
        gen = np.random.default_rng(seed)
        alphas = gen.normal(size=4**n)
        alphas[gen.random(4**n) < sparsity] = 0.0
        assert np.max(np.abs(_pauli_sum(alphas, n) - reference_generator(alphas, n))) <= 1e-12

    @settings(max_examples=30)
    @given(st.data())
    def test_one_hot_words_at_five_and_six_qubits(self, data):
        n = data.draw(st.sampled_from([5, 6]))
        w = data.draw(st.integers(0, 4**n - 1))
        assert np.array_equal(pauli_word(w, n), reference_word(w, n))

    def test_word_index_out_of_range(self):
        with pytest.raises(DomainError):
            pauli_word(16, 2)


class TestLabelExpectations:
    @settings(max_examples=40)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_matches_kron_reference(self, m, parts, seed):
        gen = np.random.default_rng(seed)
        weights = gen.random(parts)
        rho = mixed_density([(float(w), random_state(gen, m)) for w in weights / weights.sum()])
        got = _label_expectations(rho.matrix[None], m)[0]
        assert np.max(np.abs(got - reference_label_expectations(rho.matrix, m))) <= 1e-12


def reference_forward(unitary, enc, x1, x2):
    """The reduced label density the generic way: a basis state, a matvec,
    the pure density of the result and an n-qubit partial trace."""
    out = StateVector(enc.n_total, unitary @ encode_example(x1, x2, enc).amps)
    return partial_trace(pure_density(out), list(range(2 * enc.k, enc.n_total)))


def reference_cost(params, enc, dataset, cfg) -> float:
    """The cost one example at a time, each label qubit read from its own
    one-qubit partial trace."""
    unitary = build_unitary(params, enc)
    total = 0.0
    for j, (x1, x2, y) in enumerate(dataset):
        if not 0 <= y < 2**enc.m:
            raise DomainError(f"label {y} overflows {enc.m} bits")
        rho_y = reference_forward(unitary, enc, x1, x2)
        if cfg.cost_kind == "overlap":
            total -= float(rho_y.matrix[y, y].real)
            continue
        model = np.empty((enc.m, 3))
        target = np.zeros((enc.m, 3))
        for q in range(enc.m):
            single = partial_trace(rho_y, [q]).matrix
            model[q] = np.einsum("ab,iba->i", single, _PAULI[1:]).real
            target[q, 2] = 1.0 - 2.0 * ((y >> (enc.m - 1 - q)) & 1)
        weights = np.ones(3) if cfg.f_weights is None else np.asarray(cfg.f_weights)[j]
        total += float(np.sum(weights * (model - target) ** 2))
    return total


class TestReadoutMatchesReference:
    @settings(max_examples=80)
    @given(st.data())
    def test_cost_and_forward(self, data):
        k, m = data.draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1)]))
        enc = QnnEncoding(k=k, m=m)
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.floats(0.05, 1.5))
        params = QnnParameters(gen.normal(scale=scale, size=4**enc.n_total))
        example = st.tuples(
            st.integers(0, 2**k - 1), st.integers(0, 2**k - 1), st.integers(0, 2**m - 1)
        )
        dataset = data.draw(st.lists(example, min_size=1, max_size=8))
        dataset += dataset[: data.draw(st.integers(0, len(dataset)))]   # repeated inputs
        weight_shape = data.draw(st.sampled_from([None, (), (3,), (m, 1), (m, 3)]))
        f_weights = None if weight_shape is None else gen.random((len(dataset), *weight_shape))
        unitary = build_unitary(params, enc)
        for kind in ("overlap", "pauli"):
            cfg = QnnTrainConfig(cost_kind=kind, f_weights=f_weights)
            got = cost(params, enc, dataset, cfg)
            assert abs(got - reference_cost(params, enc, dataset, cfg)) <= 1e-12
        for x1, x2, _ in dataset:
            got = forward(params, enc, x1, x2).matrix
            want = reference_forward(unitary, enc, x1, x2).matrix
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_feature_overflow_in_cost(self):
        with pytest.raises(DomainError, match=r"features \(0, 2\) overflow 1 bits"):
            cost(QnnParameters(np.zeros(64)), ENC, [(1, 1, 0), (0, 2, 0)], QnnTrainConfig())


def label_fidelity(params, enc, x1, x2, y) -> float:
    rho = forward(params, enc, x1, x2)
    return float(rho.matrix[y, y].real)


class TestEncoding:
    def test_zero_features(self):
        assert np.argmax(encode_example(0, 0, ENC).amps) == 0

    def test_first_feature_bit_placement(self):
        assert np.argmax(encode_example(1, 0, ENC).amps) == 4   # |100>

    def test_two_bit_features(self):
        enc = QnnEncoding(k=2, m=1)
        assert np.argmax(encode_example(2, 1, enc).amps) == 18  # |10 01 0>

    def test_overflow_rejected(self):
        with pytest.raises(DomainError):
            encode_example(2, 0, ENC)

    def test_qubit_cap(self):
        with pytest.raises(DomainError):
            QnnEncoding(k=3, m=1)


class TestBuildUnitary:
    def test_zero_parameters_identity(self):
        u = build_unitary(QnnParameters(np.zeros(64)), ENC)
        assert np.allclose(u, np.eye(8), atol=1e-12)

    def test_identity_word_is_global_phase(self):
        alphas = np.zeros(64)
        alphas[0] = 0.9
        u = build_unitary(QnnParameters(alphas), ENC)
        assert np.allclose(u, np.exp(0.9j) * np.eye(8), atol=1e-12)

    def test_single_qubit_flip_word(self):
        # exp(i (pi/2) sigma_1) = i sigma_1 by the cosine/sine identity.
        u = unitary_from_pauli_coefficients([0.0, math.pi / 2, 0.0, 0.0], 1)
        assert np.allclose(u, 1j * pauli_word(1, 1), atol=1e-12)

    def test_unitary_for_random_parameters(self, np_rng):
        for _ in range(10):
            params = QnnParameters(np_rng.normal(scale=0.5, size=64))
            u = build_unitary(params, ENC)
            assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            build_unitary(QnnParameters(np.zeros(16)), ENC)


class TestForward:
    def test_identity_network_outputs_zero_label(self):
        rho = forward(QnnParameters(np.zeros(64)), ENC, 1, 1)
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_label_flip_word(self):
        # sigma_1 on the label qubit alone: exp(i pi/2 P) is X up to phase.
        alphas = np.zeros(64)
        alphas[1] = math.pi / 2                    # word (0, 0, 1)
        rho = forward(QnnParameters(alphas), ENC, 0, 1)
        assert np.allclose(rho.matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_reduced_state_is_valid_density(self, np_rng):
        from qmlkit.density import DensityMatrix

        for _ in range(5):
            params = QnnParameters(np_rng.normal(scale=0.7, size=64))
            rho = forward(params, ENC, 1, 0)
            # Revalidate through the checked constructor.
            DensityMatrix(rho.dim, rho.matrix)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-9)


class TestCost:
    def test_perfect_classifier_overlap(self):
        dataset = [(0, 0, 0), (1, 1, 0)]
        assert cost(QnnParameters(np.zeros(64)), ENC, dataset, QnnTrainConfig()) == (
            pytest.approx(-2.0, abs=1e-12)
        )

    def test_wrong_labels_overlap_zero(self):
        dataset = [(0, 0, 1), (1, 0, 1)]
        assert cost(QnnParameters(np.zeros(64)), ENC, dataset, QnnTrainConfig()) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_pauli_cost_hand_value(self):
        # Identity network predicts |0>; target |1> flips <sigma_3> from +1
        # to -1, contributing (1-(-1))^2 = 4 per example.
        dataset = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
        cfg = QnnTrainConfig(cost_kind="pauli")
        assert cost(QnnParameters(np.zeros(64)), ENC, dataset, cfg) == pytest.approx(
            12.0, abs=1e-12
        )

    def test_pauli_cost_two_label_qubits(self):
        # With m = 2, each label qubit contributes its own axis mismatch.
        enc = QnnEncoding(k=1, m=2)
        cfg = QnnTrainConfig(cost_kind="pauli")
        identity = QnnParameters(np.zeros(4**4))
        assert cost(identity, enc, [(0, 0, 3)], cfg) == pytest.approx(8.0, abs=1e-12)
        assert cost(identity, enc, [(0, 0, 2)], cfg) == pytest.approx(4.0, abs=1e-12)
        assert cost(identity, enc, [(0, 0, 0)], cfg) == pytest.approx(0.0, abs=1e-12)

    def test_cost_bounds(self, np_rng):
        dataset = [(0, 0, 1), (1, 1, 0)]
        for _ in range(10):
            params = QnnParameters(np_rng.normal(scale=0.6, size=64))
            overlap = cost(params, ENC, dataset, QnnTrainConfig())
            assert -2.0 - 1e-9 <= overlap <= 1e-9
            pauli = cost(params, ENC, dataset, QnnTrainConfig(cost_kind="pauli"))
            assert pauli >= -1e-9

    def test_global_phase_invariance(self, np_rng):
        dataset = [(0, 0, 1), (1, 0, 0)]
        for kind in ("overlap", "pauli"):
            cfg = QnnTrainConfig(cost_kind=kind)
            alphas = np_rng.normal(scale=0.4, size=64)
            base = cost(QnnParameters(alphas), ENC, dataset, cfg)
            shifted = alphas.copy()
            shifted[0] += 1.234
            assert cost(QnnParameters(shifted), ENC, dataset, cfg) == pytest.approx(
                base, abs=1e-9
            )

    def test_label_overflow(self):
        with pytest.raises(DomainError):
            cost(QnnParameters(np.zeros(64)), ENC, [(0, 0, 2)], QnnTrainConfig())


class TestGradient:
    def test_two_point_matches_five_point(self, np_rng):
        dataset = [(0, 0, 1), (1, 0, 0)]
        cfg = QnnTrainConfig()
        params = QnnParameters(np_rng.normal(scale=0.3, size=64))
        coarse = finite_difference_gradient(params, ENC, dataset, cfg, stencil=2)
        fine = finite_difference_gradient(params, ENC, dataset, cfg, stencil=5)
        scale = np.maximum(np.abs(fine), 1e-6)
        assert np.max(np.abs(coarse - fine) / scale) < 1e-4


class TestTrain:
    def test_already_minimal_trace_is_flat(self):
        # Labels consistent with the identity network and a zero start: the
        # cost begins at its floor and stays there.
        dataset = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        cfg = QnnTrainConfig(epochs=3)
        _, trace = train(
            ENC, dataset, cfg, RngStream(0), initial=QnnParameters(np.zeros(64))
        )
        assert all(value == pytest.approx(-3.0, abs=1e-6) for value in trace)

    def test_single_example_converges(self):
        cfg = QnnTrainConfig(eta=0.1, epochs=60)
        _, trace = train(ENC, [(1, 1, 0)], cfg, RngStream(0))
        assert trace[-1] <= -0.99

    def test_not_function_reaches_high_fidelity(self):
        cfg = QnnTrainConfig(eta=0.1, epochs=60)
        params, _ = train(ENC, NOT_TASK, cfg, RngStream(0))
        for x1, x2, y in NOT_TASK:
            assert label_fidelity(params, ENC, x1, x2, y) >= 0.99

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            train(ENC, [], QnnTrainConfig(), RngStream(0))

    def test_negative_epochs_rejected(self):
        with pytest.raises(DomainError, match="epoch count must be >= 0, got -1"):
            QnnTrainConfig(epochs=-1)

    @pytest.mark.parametrize("field", ["eta", "fd_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_step_sizes_must_be_finite_and_positive(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite and > 0"):
            QnnTrainConfig(**{field: value})

    def test_zero_epochs_returns_initial_cost(self):
        _, trace = train(ENC, NOT_TASK, QnnTrainConfig(epochs=0), RngStream(0))
        assert len(trace) == 1
