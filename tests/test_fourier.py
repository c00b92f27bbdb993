import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_state, random_unitary, reference_control_distribution
from qmlkit.errors import DomainError
from qmlkit.fourier import (
    classical_dft,
    control_distribution,
    phase_estimate,
    qft_circuit,
    qft_gate,
    rounding_success_probability,
)
from qmlkit.gates import Circuit, GateMatrix, apply, controlled, kron, run_circuit, standard_gate
from qmlkit.rng import RngStream
from qmlkit.state import StateVector, basis_state

QFT2_LITERAL = 0.5 * np.array(
    [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]
)


def reference_dft(x) -> np.ndarray:
    """The O(N^2) direct sum y_k = sum_j x_j exp(2 pi i k j / N) / sqrt(N)."""
    n = len(x)
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) @ x / np.sqrt(n)


@st.composite
def phase_estimation_cases(draw, eigenvector: bool = True):
    """A random unitary on 1-3 qubits, one of its eigenvectors (or, with
    ``eigenvector=False``, a random state), and 1-5 control qubits."""
    m = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = random_unitary(gen, 2**m)
    if eigenvector:
        vector = np.linalg.eig(matrix)[1][:, draw(st.integers(0, 2**m - 1))]
        target = StateVector(m, vector / np.linalg.norm(vector))
    else:
        target = random_state(gen, m)
    return GateMatrix(2**m, matrix), target, draw(st.integers(1, 5))


@st.composite
def random_circuits(draw):
    """A random circuit on 1-8 qubits of 1-12 named, controlled and random
    1-2-qubit gates, and an eigenvector of its matrix."""
    n = draw(st.integers(1, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        width = 1 if n == 1 else int(gen.integers(1, 3))
        targets = tuple(int(q) for q in gen.choice(n, size=width, replace=False))
        kind = int(gen.integers(3))
        if kind == 0:
            gate = standard_gate(["H", "X", "Z"][int(gen.integers(3))]) if width == 1 else (
                controlled(standard_gate("X")))
        elif kind == 1:
            gate = standard_gate("R", phase=float(gen.uniform(0, 2 * math.pi)))
            gate = gate if width == 1 else controlled(gate)
        else:
            gate = GateMatrix(2**width, random_unitary(gen, 2**width))
        steps.append((gate, targets))
    circuit = Circuit(n, steps)
    vectors = np.linalg.eig(circuit.matrix())[1]
    vector = vectors[:, draw(st.integers(0, 2**n - 1))]
    return circuit, StateVector(n, vector / np.linalg.norm(vector))


def two_sine_signal(n_samples: int = 1000) -> np.ndarray:
    j = np.arange(n_samples)
    return 2 * np.sin(2 * np.pi * 10 * j / n_samples) + 0.3 * np.sin(
        2 * np.pi * 50 * j / n_samples
    )


class TestClassicalDft:
    def test_two_sine_peaks(self):
        magnitudes = np.abs(classical_dft(two_sine_signal()))
        top4 = set(np.argsort(magnitudes)[-4:].tolist())
        assert top4 == {10, 50, 950, 990}

    def test_constant_signal_peaks_at_zero(self):
        spectrum = classical_dft(np.ones(64))
        assert np.argmax(np.abs(spectrum)) == 0
        assert np.max(np.abs(spectrum[1:])) == pytest.approx(0.0, abs=1e-12)

    def test_impulse_is_flat(self):
        impulse = np.zeros(32)
        impulse[0] = 1.0
        magnitudes = np.abs(classical_dft(impulse))
        assert np.allclose(magnitudes, 1 / math.sqrt(32), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            classical_dft([])

    @given(st.integers(1, 1024), st.integers(0, 2**32 - 1))
    def test_matches_direct_sum(self, n, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=n) + 1j * gen.normal(size=n)
        assert np.max(np.abs(classical_dft(x) - reference_dft(x))) <= 1e-9


class TestQftGate:
    def test_two_qubit_literal(self):
        assert np.allclose(qft_gate(2).matrix, QFT2_LITERAL, atol=1e-12)

    def test_single_qubit_is_hadamard(self):
        assert np.allclose(qft_gate(1).matrix, standard_gate("H").matrix, atol=1e-12)

    def test_component_formula(self, np_rng):
        # b_1 = (a_0 + a_1 e^{i pi/2} + a_2 e^{i pi} + a_3 e^{3 i pi/2}) / 2 and
        # siblings, checked against direct application.
        psi = random_state(np_rng, 2)
        out = apply(qft_gate(2), [0, 1], psi)
        a = psi.amps
        for k in range(4):
            expected = sum(a[j] * cmath.exp(2j * math.pi * k * j / 4) for j in range(4)) / 2
            assert out.amps[k] == pytest.approx(expected, abs=1e-12)

    def test_unitary_to_rounding_at_ten_qubits(self):
        matrix = qft_gate(10).matrix
        assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(2**10))) <= 1e-12

    def test_gate_matches_classical_transform(self, np_rng):
        for n in range(1, 11):
            psi = random_state(np_rng, n)
            via_gate = apply(qft_gate(n), list(range(n)), psi)
            via_reference = classical_dft(psi.amps)
            assert np.allclose(via_gate.amps, via_reference, atol=1e-9)


class TestQftCircuit:
    def test_two_qubit_matches_literal(self):
        assert np.allclose(qft_circuit(2).matrix(), QFT2_LITERAL, atol=1e-12)

    def test_single_qubit_is_one_hadamard(self):
        circuit = qft_circuit(1)
        assert len(circuit.steps) == 1
        gate, targets = circuit.steps[0]
        assert gate.name == "H" and targets == (0,)

    def test_matches_matrix_up_to_eight_qubits(self):
        for n in range(1, 9):
            err = np.max(np.abs(qft_circuit(n).matrix() - qft_gate(n).matrix))
            assert err < 1e-9

    def test_circuit_application_on_state(self, np_rng):
        psi = random_state(np_rng, 4)
        via_circuit = run_circuit(qft_circuit(4), psi)
        via_matrix = apply(qft_gate(4), [0, 1, 2, 3], psi)
        assert np.allclose(via_circuit.amps, via_matrix.amps, atol=1e-9)


class TestInverseQft:
    """The inverse transform is the gate's ``dagger()``."""

    def test_single_qubit_self_inverse(self):
        assert np.allclose(qft_gate(1).dagger().matrix, standard_gate("H").matrix, atol=1e-12)

    def test_round_trip(self, np_rng):
        psi = random_state(np_rng, 3)
        there = apply(qft_gate(3), [0, 1, 2], psi)
        back = apply(qft_gate(3).dagger(), [0, 1, 2], there)
        assert np.allclose(back.amps, psi.amps, atol=1e-12)

    def test_one_qubit_literal(self):
        expected = np.array([[1, 1], [1, cmath.exp(-1j * math.pi)]]) / math.sqrt(2)
        assert np.allclose(qft_gate(1).dagger().matrix, expected, atol=1e-12)

    def test_product_is_identity(self):
        prod = qft_gate(4).matrix @ qft_gate(4).dagger().matrix
        assert np.max(np.abs(prod - np.eye(16))) < 1e-12


def diagonal_phase_unitary(theta: float) -> GateMatrix:
    return GateMatrix(2, np.diag([1.0, cmath.exp(2j * math.pi * theta)]))


class TestPhaseEstimation:
    def test_identity_zero_phase(self):
        estimate = phase_estimate(standard_gate("I"), basis_state(1, 0), 1, RngStream(0))
        assert estimate.measured_register == 0
        assert estimate.theta_estimate == 0.0
        assert estimate.success_probability == pytest.approx(1.0, abs=1e-9)

    def test_exact_quarter_phase(self):
        estimate = phase_estimate(
            diagonal_phase_unitary(0.25), basis_state(1, 1), 2, RngStream(0)
        )
        assert estimate.measured_register == 1
        assert estimate.theta_estimate == 0.25
        assert estimate.success_probability == pytest.approx(1.0, abs=1e-9)
        assert estimate.delta == pytest.approx(0.0, abs=1e-12)

    def test_third_phase_meets_lower_bound(self):
        estimate = phase_estimate(
            diagonal_phase_unitary(1 / 3), basis_state(1, 1), 4, RngStream(0)
        )
        assert estimate.success_probability >= 4 / math.pi**2 - 1e-9

    def test_dyadic_phases_recovered_exactly(self):
        for n in range(1, 6):
            for a in range(2**n):
                estimate = phase_estimate(
                    diagonal_phase_unitary(a / 2**n), basis_state(1, 1), n, RngStream(a)
                )
                assert estimate.measured_register == a
                assert estimate.success_probability == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_eigenvector(self):
        plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
        with pytest.raises(DomainError):
            phase_estimate(diagonal_phase_unitary(0.3), plus, 3, RngStream(0))

    def test_eigenvector_of_random_unitary(self, np_rng):
        matrix = random_unitary(np_rng, 4)
        values, vectors = np.linalg.eig(matrix)
        unitary = GateMatrix(4, matrix)
        phi = StateVector(2, vectors[:, 0] / np.linalg.norm(vectors[:, 0]))
        estimate = phase_estimate(unitary, phi, 6, RngStream(8))
        theta_true = (cmath.phase(values[0]) / (2 * math.pi)) % 1.0
        assert abs(estimate.theta_estimate - theta_true) <= 1 / 2**6 + 1e-9 or (
            1 - abs(estimate.theta_estimate - theta_true) <= 1 / 2**6 + 1e-9
        )


class TestControlDistribution:
    @settings(max_examples=60)
    @given(phase_estimation_cases())
    def test_matches_controlled_gate_circuit(self, case):
        u, target, n_control = case
        probs = control_distribution(u, target, n_control)
        reference = reference_control_distribution(u, target, n_control)
        assert np.max(np.abs(probs - reference)) <= 1e-12

    @settings(max_examples=30)
    @given(phase_estimation_cases(eigenvector=False))
    def test_refuses_non_eigenvectors(self, case):
        u, target, n_control = case
        with pytest.raises(DomainError, match="^state is not an eigenvector of the unitary"):
            control_distribution(u, target, n_control)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="gate of dim 2"):
            control_distribution(standard_gate("H"), basis_state(2, 0), 2)
        with pytest.raises(DomainError, match="gate of dim 2"):
            phase_estimate(standard_gate("H"), basis_state(2, 0), 2, RngStream(0))


class TestCircuitPhaseEstimation:
    @settings(max_examples=30)
    @given(random_circuits(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_circuit_matches_its_matrix(self, case, n_control, seed):
        circuit, target = case
        dense = GateMatrix(2**circuit.n_qubits, circuit.matrix())
        got = phase_estimate(circuit, target, n_control, RngStream(seed))
        want = phase_estimate(dense, target, n_control, RngStream(seed))
        assert got.measured_register == want.measured_register
        assert got.theta_estimate == want.theta_estimate
        assert abs(got.success_probability - want.success_probability) <= 1e-12
        assert abs(got.delta - want.delta) <= 1e-12

    def test_circuit_dimension_mismatch(self):
        circuit = Circuit(1, [(standard_gate("Z"), (0,))])
        with pytest.raises(DomainError, match="circuit on 1 qubits cannot run on 2-qubit"):
            control_distribution(circuit, basis_state(2, 0), 2)

    def test_twelve_qubit_dense_unitary_at_eight_controls(self):
        # Six random 2-qubit unitaries and one eigenvector of each: their
        # Kronecker products are a 4096 x 4096 U and an eigenvector of it
        # whose phase is the sum of the six.
        gen = np.random.default_rng(12)
        blocks = [random_unitary(gen, 4) for _ in range(6)]
        u = kron([GateMatrix(4, block) for block in blocks])
        vector, phase = np.ones(1), 0.0
        for block in blocks:
            values, vectors = np.linalg.eig(block)
            vector = np.kron(vector, vectors[:, 0] / np.linalg.norm(vectors[:, 0]))
            phase += cmath.phase(values[0])
        started = time.perf_counter()
        estimate = phase_estimate(u, StateVector(12, vector), 8, RngStream(3))
        assert time.perf_counter() - started < 1.0
        theta = (phase / (2 * math.pi)) % 1.0
        nearest = (theta - estimate.delta) * 2**8
        assert abs(nearest - round(nearest)) <= 1e-9
        assert abs(estimate.delta) <= 0.5 / 2**8
        assert estimate.success_probability == pytest.approx(
            rounding_success_probability(estimate.delta, 8), abs=1e-9
        )


class TestRoundingSuccessProbability:
    def test_zero_error_limit(self):
        for n in range(1, 9):
            assert rounding_success_probability(0.0, n) == 1.0

    def test_half_bin_error_approaches_bound(self):
        values = [
            rounding_success_probability(0.5 / 2**n, n) for n in range(4, 12)
        ]
        # Decreasing toward 4/pi^2 from above as the register grows.
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 4 / math.pi**2
        assert values[-1] == pytest.approx(4 / math.pi**2, abs=5e-3)

    def test_formula_matches_full_simulation(self):
        for theta in (0.03, 0.11, 0.77):
            n = 3
            nearest = round(theta * 2**n) % 2**n
            delta = theta - nearest / 2**n
            probs = reference_control_distribution(
                diagonal_phase_unitary(theta), basis_state(1, 1), n
            )
            assert probs[nearest] == pytest.approx(
                rounding_success_probability(delta, n), abs=1e-9
            )

    def test_analytic_probability_matches_formula_random_phases(self):
        gen = np.random.default_rng(31)
        for _ in range(100):
            n = int(gen.integers(4, 9))
            theta = float(gen.random())
            estimate = phase_estimate(
                diagonal_phase_unitary(theta), basis_state(1, 1), n, RngStream(0)
            )
            assert estimate.success_probability >= 4 / math.pi**2 - 1e-9
            assert estimate.success_probability == pytest.approx(
                rounding_success_probability(estimate.delta, n), abs=1e-9
            )

    def test_out_of_range_delta(self):
        with pytest.raises(DomainError):
            rounding_success_probability(0.6 / 2**3, 3)

    def test_empirical_rate_three_sigma(self):
        theta = 0.2371
        n = 5
        probs = control_distribution(diagonal_phase_unitary(theta), basis_state(1, 1), n)
        nearest = round(theta * 2**n) % 2**n
        expected = probs[nearest]
        rng = RngStream(2718)
        shots = 10_000
        hits = sum(rng.choice(probs) == nearest for _ in range(shots))
        sigma = math.sqrt(expected * (1 - expected) / shots)
        assert abs(hits / shots - expected) <= 3 * sigma
