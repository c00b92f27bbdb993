import numpy as np
import pytest
from hypothesis import settings

from qmlkit.state import StateVector

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
