import math
import os

import numpy as np
import pytest
from hypothesis import settings

from qmlkit.errors import DomainError
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


def reference_ingest_csv(path: str, schema: str):
    """``cli.ingest_csv`` as a line-by-line reader: every line of the file is
    read, stripped and parsed cell by cell, and the first bad line raises."""
    if not os.path.exists(path):
        raise DomainError(f"input file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except UnicodeDecodeError:
        raise DomainError(f"{path}: not UTF-8 text") from None
    rows = [(i + 1, line) for i, line in enumerate(lines) if line]
    if not rows:
        raise DomainError(f"{path}: no data rows")
    for lineno, line in rows:
        if "_" in line or not line.isascii():
            raise DomainError(f"{path}:{lineno}: non-numeric cell")

    if schema == "objective":
        return _reference_objective(path, rows)

    parsed = []
    width = None
    for lineno, line in rows:
        cells = [c.strip() for c in line.split(",")]
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise DomainError(f"{path}:{lineno}: non-numeric cell") from None
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"{path}:{lineno}: NaN or infinite value")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DomainError(
                f"{path}:{lineno}: expected {width} columns, found {len(values)}"
            )
        parsed.append(values)
    matrix = np.array(parsed)

    if schema == "vectors":
        return matrix
    if schema in ("labeled", "labeled-integers"):
        if matrix.shape[1] < 2:
            raise DomainError(f"{path}: labeled data needs features plus a label column")
        features, labels = matrix[:, :-1], matrix[:, -1]
        bad = np.flatnonzero(~np.isin(labels, (-1.0, 1.0)))
        if bad.size:
            raise DomainError(f"{path}:{rows[bad[0]][0]}: label {labels[bad[0]]} is not -1 or 1")
        if schema == "labeled-integers":
            bad = np.flatnonzero(np.any(features != np.floor(features), axis=1))
            if bad.size:
                raise DomainError(
                    f"{path}:{rows[bad[0]][0]}: features {features[bad[0]].tolist()} "
                    "are not integers"
                )
        return features, labels
    raise DomainError(f"unknown ingestion schema {schema!r}")


def _reference_objective(path: str, rows):
    seen: dict[str, int] = {}
    entries = []
    n_bits = None
    for lineno, line in rows:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise DomainError(f"{path}:{lineno}: expected 'bitstring,value'")
        bits, raw_value = cells
        if not bits or bits.strip("01"):
            raise DomainError(f"{path}:{lineno}: invalid bitstring {bits!r}")
        if bits in seen:
            raise DomainError(
                f"{path}:{lineno}: duplicate bitstring {bits!r} (first on line {seen[bits]})"
            )
        seen[bits] = lineno
        if n_bits is None:
            n_bits = len(bits)
        elif len(bits) != n_bits:
            raise DomainError(f"{path}:{lineno}: bitstring width differs from {n_bits}")
        try:
            value = float(raw_value)
        except ValueError:
            raise DomainError(f"{path}:{lineno}: non-numeric value") from None
        if not math.isfinite(value):
            raise DomainError(f"{path}:{lineno}: NaN or infinite value")
        entries.append((int(bits, 2), value))
    if len(entries) != 2**n_bits:
        raise DomainError(
            f"{path}: objective covers {len(entries)} of {2**n_bits} inputs"
        )
    table = np.empty(2**n_bits)
    for index, value in entries:
        table[index] = value
    return table
