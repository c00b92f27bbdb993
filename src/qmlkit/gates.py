"""Unitary gates, circuits, and their application to state vectors.

A matrix from outside (a custom step of a circuit document, the CLI's
matrix document) enters through the public ``GateMatrix`` constructor: the
one operator entry check of ``state`` (square, power-of-two dimension,
finite entries), then the d^3 unitarity product.  A gate built from checked
ones (a fixed table, an adjoint, a Kronecker product, a controlled gate, a
fused block) is unitary by construction and skips both through
``_trusted``; every state it reaches is still norm-checked.  ``apply``
updates only the addressed qubits'
amplitude strides; the fully kron-expanded matrix is never materialized (the
tests keep that construction as the reference).  Arrays of at most
``_CHUNK_AMPS`` entries are contracted in one transpose-matmul-transpose,
faster there on a leading target; larger ones are streamed in sub-blocks of
about one chunk, each gathered with the targets in front, multiplied once
and written into the single output array, so applying a gate holds the
input, the output and O(chunk).  The one-piece kernel thus lives both here,
for small arrays, and in the tests, as the reference.  The same kernel runs a
circuit's steps on the identity to give ``Circuit.matrix``, which is held to
``DENSE_MATRIX_CAP`` qubits.  ``run_circuit`` fuses consecutive steps
into blocks of at most ``FUSION_WIDTH`` qubits and applies each block once
(the tests keep the per-step loop as the reference).

Control convention: for controlled gates the control qubit is the first
(most significant) qubit of the gate's register, i.e. ``controlled(U)`` is
the block-diagonal ``[[I, 0], [0, U]]``.
"""
from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .state import (
    DENSE_MATRIX_CAP,
    StateVector,
    _check_dense_cap,
    _check_n_qubits,
    _square_matrix,
    _unchecked,
    _validate_positions,
)

UNITARY_TOL = 1e-9
FUSION_WIDTH = 6        # qubits in one fused block of ``run_circuit``
_CHUNK_AMPS = 2**16     # amplitudes per sub-block of ``_apply_matrix`` (1 MiB)

_SQRT2_INV = 1.0 / np.sqrt(2.0)

_FIXED_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": _SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}
_GATE_ALIASES = {"NOT": "X"}


@dataclass(frozen=True)
class GateMatrix:
    """Square unitary matrix acting on ``log2(dim)`` qubits."""

    dim: int
    matrix: np.ndarray
    name: str | None = None

    def __post_init__(self):
        m = _square_matrix(self.dim, self.matrix)
        if np.max(np.abs(m @ m.conj().T - np.eye(self.dim))) >= UNITARY_TOL:
            raise DomainError("matrix is not unitary")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, dim: int, matrix: np.ndarray, name: str | None = None) -> "GateMatrix":
        # Unitary by construction: a fixed table, an adjoint, a product or
        # block of checked gates.
        matrix.setflags(write=False)
        return _unchecked(cls, dim=dim, matrix=matrix, name=name)

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def dagger(self) -> "GateMatrix":
        return GateMatrix._trusted(self.dim, self.matrix.conj().T)


def standard_gate(name: str, phase: float | None = None) -> GateMatrix:
    """Named gate: one of I, X/NOT, Y, Z, H, SWAP, or R(phase).

    ``R`` is the phase-shift gate diag(1, e^{i*phase}) and requires ``phase``.
    """
    key = _GATE_ALIASES.get(name.upper(), name.upper())
    if key == "R":
        if phase is None:
            raise DomainError("gate R requires a phase")
        return GateMatrix._trusted(
            2, np.diag([1.0, np.exp(1j * phase)]), name=f"R({phase!r})"
        )
    if key not in _FIXED_GATES:
        raise DomainError(f"unknown gate name {name!r}")
    return GateMatrix._trusted(len(_FIXED_GATES[key]), _FIXED_GATES[key], name=key)


def kron(gates: list[GateMatrix]) -> GateMatrix:
    """Kronecker product of gates in list order (first gate most significant)."""
    if not gates:
        raise DomainError("kron of an empty gate list")
    matrix = gates[0].matrix
    for g in gates[1:]:
        matrix = np.kron(matrix, g.matrix)
    return GateMatrix._trusted(matrix.shape[0], matrix)


def controlled(u: GateMatrix) -> GateMatrix:
    """Add a control qubit as the new most significant qubit of ``u``."""
    d = u.dim
    matrix = np.eye(2 * d, dtype=complex)
    matrix[d:, d:] = u.matrix
    name = f"C-{u.name}" if u.name else None
    return GateMatrix._trusted(2 * d, matrix, name=name)


def apply(gate: GateMatrix, targets, psi: StateVector) -> StateVector:
    """Apply ``gate`` to the listed qubit positions, identity elsewhere.

    ``targets[0]`` is the gate's most significant qubit.  A fresh state is
    returned; the input is never mutated.
    """
    positions = _validate_positions(psi.n_qubits, targets)
    if gate.dim != 2 ** len(positions):
        raise DomainError(
            f"gate of dim {gate.dim} cannot act on {len(positions)} qubits"
        )
    return StateVector(psi.n_qubits, _apply_matrix(gate.matrix, positions, psi.amps))


def _apply_matrix(matrix: np.ndarray, positions: list[int], amps: np.ndarray) -> np.ndarray:
    """``matrix`` on the qubit ``positions`` of every column of ``amps``.

    ``amps`` has shape ``(2^n,)`` or ``(2^n, columns)``; the trailing column
    axis rides along untouched, so a circuit run on the identity yields its
    unitary.  Above ``_CHUNK_AMPS`` entries the leading non-target qubits
    are fixed one value at a time, and each sub-block of about one chunk is
    gathered with its targets in front, contracted with the gate and written
    straight into the output, so the working memory is the input, the output
    and O(chunk).
    """
    n = amps.shape[0].bit_length() - 1
    grid = amps.reshape([2] * n + list(amps.shape[1:]))
    rest = [ax for ax in range(n) if ax not in positions]
    # A size-selected fast path, not a duplicate of the streamed one below:
    # on a leading target the transposes are views and the matmul runs on
    # the array as it lies.  A 1-qubit gate on qubit 0 of 2^16 amplitudes
    # took 0.13-0.19 ms, streamed 0.9-1.4 ms, on a 2-core Xeon.
    if amps.size <= _CHUNK_AMPS:
        # Bring target axes to the front, contract with the gate, restore order.
        order = positions + rest + list(range(n, grid.ndim))
        grid = np.transpose(grid, order)
        flat = matrix @ grid.reshape(len(matrix), -1)
        grid = flat.reshape(grid.shape)
        return np.transpose(grid, np.argsort(order)).reshape(amps.shape)
    fixed = rest[: min(len(rest), (amps.size // _CHUNK_AMPS).bit_length() - 1)]
    inner = [ax for ax in range(grid.ndim) if ax not in fixed]
    order = [inner.index(q) for q in positions] + [
        i for i, ax in enumerate(inner) if ax not in positions
    ]
    out = np.empty(amps.shape, dtype=np.result_type(matrix, amps))
    out_grid = out.reshape(grid.shape)
    selector: list = [slice(None)] * grid.ndim
    for bits in np.ndindex(*[2] * len(fixed)):
        for ax, bit in zip(fixed, bits):
            selector[ax] = bit
        block = np.transpose(grid[tuple(selector)], order)
        flat = matrix @ block.reshape(len(matrix), -1)
        np.transpose(out_grid[tuple(selector)], order)[...] = flat.reshape(block.shape)
    return out


@dataclass(frozen=True)
class Circuit:
    """Ordered gate applications on a fixed-size register."""

    n_qubits: int
    steps: list[tuple[GateMatrix, tuple[int, ...]]] = field(default_factory=list)

    def __post_init__(self):
        _check_n_qubits(self.n_qubits)
        for index, (gate, targets) in enumerate(self.steps):
            try:
                positions = _validate_positions(self.n_qubits, targets)
            except DomainError as exc:
                raise DomainError(f"step {index}: {exc}") from None
            if gate.dim != 2 ** len(positions):
                raise DomainError(
                    f"step {index}: gate dim {gate.dim} does not match {len(positions)} targets"
                )

    def matrix(self) -> np.ndarray:
        """Full unitary of the circuit: its steps run on the identity.

        Refused above ``DENSE_MATRIX_CAP`` qubits before anything is built.
        """
        _check_dense_cap(self.n_qubits, "circuit matrix")
        total = np.eye(2**self.n_qubits, dtype=complex)
        for gate, targets in self.steps:
            positions = _validate_positions(self.n_qubits, targets)
            total = _apply_matrix(gate.matrix, positions, total)
        return total

    def to_json(self) -> str:
        doc = {"n_qubits": self.n_qubits, "steps": []}
        for gate, targets in self.steps:
            entry: dict = {"targets": list(targets)}
            if gate.name and gate.name in _FIXED_GATES:
                entry["gate"] = gate.name
            elif gate.name and gate.name.startswith("R("):
                entry["gate"] = "R"
                entry["phase"] = float(gate.name[2:-1])
            else:
                entry["gate"] = [
                    [[z.real, z.imag] for z in row] for row in gate.matrix
                ]
            doc["steps"].append(entry)
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "Circuit":
        """The circuit of a ``to_json`` document.  A malformed document is a
        ``DomainError`` that names the missing key or the bad field, and the
        index of the step it is in."""
        return Circuit._from_doc(json.loads(text))

    @staticmethod
    def _from_doc(doc) -> "Circuit":
        if not isinstance(doc, dict):
            raise DomainError(f"a circuit document must be a JSON object, got {reprlib.repr(doc)}")
        n_qubits = _integer(_key(doc, "n_qubits"), "'n_qubits'")
        entries = _key(doc, "steps")
        if not isinstance(entries, list):
            raise DomainError(f"'steps' must be a list, got {reprlib.repr(entries)}")
        steps = []
        for index, entry in enumerate(entries):
            try:
                steps.append(_step_from_doc(entry))
            except DomainError as exc:
                raise type(exc)(f"step {index}: {exc}") from None
        return Circuit(n_qubits, steps)


def _key(doc: dict, key: str):
    if key not in doc:
        raise DomainError(f"missing key {key!r}")
    return doc[key]


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return value


def _step_from_doc(entry) -> tuple[GateMatrix, tuple[int, ...]]:
    if not isinstance(entry, dict):
        raise DomainError(f"a step must be a JSON object, got {reprlib.repr(entry)}")
    spec = _key(entry, "gate")
    targets = _key(entry, "targets")
    if not isinstance(targets, list):
        raise DomainError(f"'targets' must be a list, got {reprlib.repr(targets)}")
    for q in targets:
        _integer(q, "'targets' entry")
    if isinstance(spec, str):
        phase = entry.get("phase")
        if phase is not None and not _finite(phase):
            raise DomainError(f"'phase' must be a finite number, got {reprlib.repr(phase)}")
        gate = standard_gate(spec, phase=phase)
    elif isinstance(spec, list):
        gate = GateMatrix(len(spec), matrix_from_json(spec, "'gate'"))
    else:
        raise DomainError(f"'gate' must be a gate name or a matrix, got {reprlib.repr(spec)}")
    return gate, tuple(targets)


def _finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def matrix_from_json(rows, what: str = "matrix") -> np.ndarray:
    """Nested ``[[re, im], ...]`` rows back to a complex matrix.  Rows that
    do not convert are a ``DomainError`` naming the first bad row or entry
    of ``what``."""
    try:
        return np.array(
            [[complex(re, im) for re, im in row] for row in rows], dtype=complex
        )
    except (TypeError, ValueError, OverflowError):
        raise DomainError(_matrix_fault(rows, what)) from None


def _matrix_fault(rows, what: str) -> str:
    """Why ``matrix_from_json`` could not convert ``rows``."""
    if not isinstance(rows, list):
        return f"{what} must be a list of rows, got {reprlib.repr(rows)}"
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            return f"{what} row {i} must be a list of [re, im] pairs, got {reprlib.repr(row)}"
        for j, pair in enumerate(row):
            entry = f"{what} entry [{i}][{j}]"
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(v, (int, float)) for v in pair)
            ):
                return f"{entry} must be a pair [re, im] of numbers, got {reprlib.repr(pair)}"
            try:
                complex(*pair)
            except OverflowError:
                return f"{entry} is out of the float range, got {reprlib.repr(pair)}"
    return f"{what} rows differ in length: {sorted({len(row) for row in rows})}"


def run_circuit(circuit: Circuit, psi: StateVector) -> StateVector:
    """Run the circuit's steps on ``psi``, fused into blocks.

    Consecutive steps are packed greedily, in order, while the union of
    their qubits stays within ``FUSION_WIDTH``; a step that would widen the
    union past it starts the next block.  A block of several steps becomes
    one small unitary on its qubits (its steps run on the identity, as in
    ``Circuit.matrix``) and is applied once; a block of one step applies
    that step's own gate, so a gate wider than ``FUSION_WIDTH`` stands
    alone.  Steps are never reordered, so the result equals the per-step
    run up to rounding.
    """
    if circuit.n_qubits != psi.n_qubits:
        raise DomainError(
            f"circuit on {circuit.n_qubits} qubits cannot run on {psi.n_qubits}-qubit state"
        )
    for block in _fusion_blocks(circuit.steps):
        if len(block) == 1:
            gate, targets = block[0]
            psi = apply(gate, list(targets), psi)
            continue
        qubits = sorted({q for _, targets in block for q in targets})
        local = {q: i for i, q in enumerate(qubits)}
        steps = [(gate, tuple(local[q] for q in targets)) for gate, targets in block]
        matrix = Circuit(len(qubits), steps).matrix()
        psi = apply(GateMatrix._trusted(len(matrix), matrix), qubits, psi)
    return psi


def _fusion_blocks(steps) -> list[list]:
    """Consecutive runs of ``steps`` whose qubit union fits ``FUSION_WIDTH``."""
    blocks: list[list] = []
    qubits: set[int] = set()
    for step in steps:
        union = qubits | set(step[1])
        if blocks and len(union) <= FUSION_WIDTH:
            blocks[-1].append(step)
            qubits = union
        else:
            blocks.append([step])
            qubits = set(step[1])
    return blocks
