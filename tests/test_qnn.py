import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_state
from qmlkit import qnn
from qmlkit.density import mixed_density, partial_trace, pure_density
from qmlkit.errors import ConfigError, DomainError
from qmlkit.qnn import (
    _PAULI,
    QnnEncoding,
    QnnParameters,
    QnnTrainConfig,
    build_unitary,
    cost,
    finite_difference_gradient,
    _costs,
    _input_index,
    _label_expectations,
    _pauli_sum,
    forward,
    train,
    unitary_from_pauli_coefficients,
)
from qmlkit.rng import RngStream
from qmlkit.state import StateVector, basis_state

ENC = QnnEncoding(k=1, m=1)
NOT_TASK = [(0, 0, 1), (1, 0, 0)]


def pauli_word(word_index: int, n: int) -> np.ndarray:
    """The tensor product selected by the base-4 digits of ``word_index``."""
    one_hot = np.zeros(4**n)
    one_hot[word_index] = 1.0
    return _pauli_sum(one_hot, n)


def encode_example(x1: int, x2: int, enc: QnnEncoding):
    """Basis state |bits(x1), bits(x2), 0...0> of the full register."""
    return basis_state(enc.n_total, int(_input_index(x1, x2, enc)[0]))


def reference_fd_gradient(params, enc, dataset, cfg, stencil=2, words=None) -> np.ndarray:
    """The finite-difference gradient one word and one ``cost`` call at a time,
    over all words or the given ones (the others are NaN)."""
    h = cfg.fd_step
    alphas = params.alphas
    grad = np.full_like(alphas, np.nan)

    def at(shift: np.ndarray) -> float:
        return cost(QnnParameters(alphas + shift), enc, dataset, cfg)

    for w in range(alphas.size) if words is None else words:
        e = np.zeros_like(alphas)
        e[w] = 1.0
        if stencil == 2:
            grad[w] = (at(h * e) - at(-h * e)) / (2 * h)
        else:
            grad[w] = (
                -at(2 * h * e) + 8 * at(h * e) - 8 * at(-h * e) + at(-2 * h * e)
            ) / (12 * h)
    return grad


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
        with pytest.raises(ConfigError, match=re.escape(
            "7 qubits exceed the 6-qubit trainability cap: the network has 16,384 parameters, "
            "and one gradient scores 32,768 shifted parameter rows"
        )):
            QnnEncoding(k=3, m=1)
        with pytest.raises(ConfigError, match=re.escape("has 4^2000000000001 parameters")):
            QnnEncoding(k=10**12, m=1)


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


class TestStackedCosts:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_matches_per_row_reference(self, data):
        k, m = data.draw(st.sampled_from([(1, 1), (1, 2)]))
        enc = QnnEncoding(k=k, m=m)
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.floats(0.05, 1.5))
        rows = gen.normal(scale=scale, size=(data.draw(st.integers(1, 9)), 4**enc.n_total))
        size = data.draw(st.integers(1, 6))
        dataset = [(int(gen.integers(2**k)), int(gen.integers(2**k)), int(gen.integers(2**m)))
                   for _ in range(size)]
        weight_shape = data.draw(st.sampled_from([None, (), (3,), (m, 1), (m, 3)]))
        f_weights = None if weight_shape is None else gen.random((size, *weight_shape))
        # The gradient below is checked under the last kind drawn here.
        for kind in data.draw(st.permutations(["overlap", "pauli"])):
            cfg = QnnTrainConfig(cost_kind=kind, f_weights=f_weights)
            want = [reference_cost(QnnParameters(row), enc, dataset, cfg) for row in rows]
            got = _costs(rows, enc, dataset, cfg)
            assert got.shape == (len(rows),)
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))
        # Rows per gradient chunk: an uneven split of the shifts, or one chunk.
        per_chunk = data.draw(st.sampled_from([7, 4096]))
        params = QnnParameters(rows[0])
        # All 64 words at n = 3; at n = 4, the two ends and 22 of the others.
        words = np.arange(64) if enc.n_total == 3 else np.unique(
            np.r_[0, 255, gen.choice(np.arange(1, 255), 22, replace=False)])
        with mock.patch.object(qnn, "_STACK_ENTRIES", per_chunk * rows.shape[1]):
            for stencil in (2, 5):
                got = finite_difference_gradient(params, enc, dataset, cfg, stencil)
                want = reference_fd_gradient(params, enc, dataset, cfg, stencil, words)
                assert np.max(np.abs(got[words] - want[words])) <= 1e-9

    def test_one_eigh_per_chunk(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(matrices):
            calls.append(matrices.shape)
            return eigh(matrices)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        params = QnnParameters(np.random.default_rng(3).normal(scale=0.3, size=64))
        finite_difference_gradient(params, ENC, NOT_TASK, QnnTrainConfig())
        shifted = 2 * 64
        chunks = math.ceil(shifted / max(1, qnn._STACK_ENTRIES // 64))
        assert len(calls) <= chunks < shifted
        assert sum(shape[0] for shape in calls) == shifted

    def test_many_examples_shrink_the_chunks(self, monkeypatch):
        # 512 examples at n = 3: a row's input columns (512 x 8 entries), not
        # its 64 coefficients, set how many rows one chunk holds.
        calls = []
        eigh = np.linalg.eigh

        def counted(matrices):
            calls.append(matrices.shape[0])
            return eigh(matrices)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        gen = np.random.default_rng(5)
        dataset = [tuple(int(v) for v in row) for row in gen.integers(0, 2, (512, 3))]
        params = QnnParameters(gen.normal(scale=0.3, size=64))
        cfg = QnnTrainConfig()
        tracemalloc.start()
        got = finite_difference_gradient(params, ENC, dataset, cfg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert sum(calls) == 2 * 64
        assert max(calls) * 512 * 8 <= qnn._STACK_ENTRIES
        # A few complex arrays of _STACK_ENTRIES entries; one 128-row stack
        # of input columns alone would take 8 MiB.
        assert peak < 8 * 16 * qnn._STACK_ENTRIES
        words = np.array([0, 1, 37, 63])
        want = reference_fd_gradient(params, ENC, dataset, cfg, 2, words)
        # Costs near -512 agree to a few ulps (1e-13 each); 1 / 2h scales that.
        assert np.max(np.abs(got[words] - want[words])) <= 1e-7


class TestWeightsFit:
    def test_leading_axis_is_the_example_count(self):
        dataset = [(0, 0, 1), (1, 0, 0)]
        for rows in (1, 3):
            cfg = QnnTrainConfig(cost_kind="pauli", f_weights=np.ones((rows, 3)))
            with pytest.raises(DomainError, match=r"do not fit 2 examples: expected \(2, \.\.\.\)"):
                cost(QnnParameters(np.zeros(64)), ENC, dataset, cfg)

    def test_other_axes_broadcast_to_label_qubits_by_three(self):
        cfg = QnnTrainConfig(cost_kind="pauli", f_weights=np.ones((3, 2)))
        with pytest.raises(DomainError, match=r"shape \(3, 2\) .* broadcasting to \(1, 3\)"):
            cost(QnnParameters(np.zeros(64)), ENC, [(0, 0, 1), (1, 0, 0), (0, 1, 0)], cfg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_refused(self, bad):
        with pytest.raises(DomainError, match="weights must be finite and nonnegative"):
            QnnTrainConfig(cost_kind="pauli", f_weights=np.array([1.0, bad]))


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

    def test_rising_cost_halves_eta_once_then_stops(self, monkeypatch):
        # A cost that rises every epoch: the 25th rise halves eta, and the
        # 25th rise after that ends training, 50 epochs in.
        values = iter(range(1000))
        monkeypatch.setattr(qnn, "cost", lambda *args: float(next(values)))
        monkeypatch.setattr(qnn, "finite_difference_gradient", lambda *args: np.ones(64))
        params, trace = train(
            ENC, NOT_TASK, QnnTrainConfig(eta=0.5, epochs=1000), RngStream(0),
            initial=QnnParameters(np.zeros(64)),
        )
        assert trace == [float(v) for v in range(51)]
        assert params.alphas.tolist() == [-(25 * 0.5 + 25 * 0.25)] * 64

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cost_refused(self, monkeypatch, bad):
        values = iter([1.0, 0.5, bad])
        monkeypatch.setattr(qnn, "cost", lambda *args: next(values))
        monkeypatch.setattr(qnn, "finite_difference_gradient", lambda *args: np.zeros(64))
        with pytest.raises(DomainError, match="diverged to a non-finite cost at epoch 1$"):
            train(ENC, NOT_TASK, QnnTrainConfig(epochs=5), RngStream(0),
                  initial=QnnParameters(np.zeros(64)))

    def test_zero_epochs_returns_initial_cost(self):
        _, trace = train(ENC, NOT_TASK, QnnTrainConfig(epochs=0), RngStream(0))
        assert len(trace) == 1
