import numpy as np
import pytest
from hypothesis import settings

from qmlkit.fourier import qft_gate
from qmlkit.gates import GateMatrix, apply, controlled, standard_gate
from qmlkit.state import StateVector, basis_state, tensor

# Property tests draw the same examples on every run (seeded from each test's
# name), keep no example database, and allow for slow shared machines.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def np_rng():
    return np.random.default_rng(12345)


def random_state(gen: np.random.Generator, n_qubits: int) -> StateVector:
    amps = gen.normal(size=2**n_qubits) + 1j * gen.normal(size=2**n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def random_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    raw = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reference_control_distribution(
    u: GateMatrix, eigenvector: StateVector, n_control: int
) -> np.ndarray:
    """Phase estimation's control register by the full circuit: Hadamards on
    the controls, controlled U^(2^j) built by repeated squaring, then the
    inverse transform gate on the controls."""
    m = eigenvector.n_qubits
    state = tensor(basis_state(n_control, 0), eigenvector)
    for q in range(n_control):
        state = apply(standard_gate("H"), [q], state)
    power = u
    for j in range(n_control):
        ctrl = n_control - 1 - j
        state = apply(controlled(power), [ctrl] + list(range(n_control, n_control + m)), state)
        if j < n_control - 1:
            power = GateMatrix(power.dim, power.matrix @ power.matrix)
    state = apply(qft_gate(n_control).dagger(), list(range(n_control)), state)
    return state.probabilities().reshape(2**n_control, 2**m).sum(axis=1)
