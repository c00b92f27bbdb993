import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_state, random_unitary
from qmlkit import fourier, gates
from qmlkit.errors import ConfigError, DomainError
from qmlkit.gates import (
    DENSE_MATRIX_CAP,
    FUSION_WIDTH,
    Circuit,
    GateMatrix,
    apply,
    controlled,
    kron,
    run_circuit,
    standard_gate,
)
from qmlkit.state import StateVector, _validate_positions, basis_state, from_bits

def expand_to_register(gate: GateMatrix, targets, n_qubits: int) -> np.ndarray:
    """Full ``2^n x 2^n`` matrix of ``gate`` on ``targets`` within a register.

    Quadratically more expensive than :func:`apply`; used as a test oracle.
    """
    positions = _validate_positions(n_qubits, targets)
    rest = [ax for ax in range(n_qubits) if ax not in positions]
    full = np.kron(gate.matrix, np.eye(2 ** len(rest), dtype=complex))
    # The kron above acts on the permuted register (targets first); conjugate
    # by the permutation that maps register order to that layout.
    order = positions + rest
    perm = _axis_permutation_matrix(order, n_qubits)
    return perm.T @ full @ perm


def _axis_permutation_matrix(order: list[int], n_qubits: int) -> np.ndarray:
    dim = 2**n_qubits
    perm = np.zeros((dim, dim))
    for i in range(dim):
        bits = format(i, f"0{n_qubits}b")
        j = int("".join(bits[q] for q in order), 2)
        perm[j, i] = 1.0
    return perm


def run_circuit_per_step(circuit: Circuit, psi: StateVector) -> StateVector:
    """One ``apply`` per step, unfused; the reference for ``run_circuit``."""
    for gate, targets in circuit.steps:
        psi = apply(gate, list(targets), psi)
    return psi


def apply_matrix_unchunked(matrix: np.ndarray, positions, amps: np.ndarray) -> np.ndarray:
    """``gates._apply_matrix`` in one piece: one full transposed copy, one
    matmul over the whole state, one transpose back.  The reference for the
    chunked kernel, which must agree with it bitwise at the real chunk size."""
    n = amps.shape[0].bit_length() - 1
    grid = amps.reshape([2] * n + list(amps.shape[1:]))
    rest = [ax for ax in range(n) if ax not in positions]
    order = positions + rest + list(range(n, grid.ndim))
    grid = np.transpose(grid, order)
    flat = matrix @ grid.reshape(len(matrix), -1)
    grid = flat.reshape(grid.shape)
    return np.transpose(grid, np.argsort(order)).reshape(amps.shape)


@st.composite
def random_circuits(draw, max_qubits=6, max_steps=6):
    """Up to ``max_steps`` steps of random 1-3 qubit unitaries on
    n <= ``max_qubits`` qubits."""
    n = draw(st.integers(1, max_qubits))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for _ in range(draw(st.integers(0, max_steps))):
        width = draw(st.integers(1, min(n, 3)))
        targets = tuple(draw(st.permutations(range(n)))[:width])
        steps.append((GateMatrix(2**width, random_unitary(gen, 2**width)), targets))
    return Circuit(n, steps)


H_LITERAL = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
EQ55 = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]]
) / math.sqrt(2)


class TestStandardGates:
    def test_hadamard_literal(self):
        assert np.allclose(standard_gate("H").matrix, H_LITERAL, atol=1e-15)

    def test_swap_on_01(self):
        out = apply(standard_gate("SWAP"), [0, 1], from_bits("01"))
        assert np.array_equal(out.amps, from_bits("10").amps)

    def test_phase_gate_core(self):
        assert np.allclose(
            standard_gate("R", phase=math.pi / 2).matrix, np.diag([1, 1j]), atol=1e-15
        )

    def test_not_alias_and_unknown(self):
        assert np.array_equal(standard_gate("NOT").matrix, standard_gate("X").matrix)
        with pytest.raises(DomainError):
            standard_gate("TOFFOLI")
        with pytest.raises(DomainError):
            standard_gate("R")

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            GateMatrix(2, np.array([[1, 1], [0, 1]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # A NaN would fail no comparison in the unitarity check.
        with pytest.raises(DomainError, match="matrix has NaN or infinite entries"):
            GateMatrix(2, np.array([[1, 0], [0, bad]]))

    def test_numpy_integer_dim_is_stored_as_int(self):
        gate = GateMatrix(np.int64(4), np.eye(4))
        assert type(gate.dim) is int and gate.n_qubits == 2


class TestKron:
    def test_hadamard_with_identity(self):
        got = kron([standard_gate("H"), standard_gate("I")])
        assert np.allclose(got.matrix, EQ55, atol=1e-15)

    def test_identity_pair(self):
        assert np.allclose(kron([standard_gate("I")] * 2).matrix, np.eye(4))

    def test_double_hadamard_uniform(self):
        gate = kron([standard_gate("H"), standard_gate("H")])
        out = apply(gate, [0, 1], basis_state(2, 0))
        assert np.allclose(out.amps, 0.25**0.5, atol=1e-12)

    def test_empty_list(self):
        with pytest.raises(DomainError):
            kron([])


class TestControlled:
    def test_controlled_phase_literal(self):
        got = controlled(standard_gate("R", phase=math.pi / 2))
        assert np.allclose(got.matrix, np.diag([1, 1, 1, 1j]), atol=1e-15)

    def test_cnot_truth_table(self):
        cnot = controlled(standard_gate("X"))
        assert np.array_equal(apply(cnot, [0, 1], from_bits("10")).amps, from_bits("11").amps)
        assert np.array_equal(apply(cnot, [0, 1], from_bits("11")).amps, from_bits("10").amps)

    def test_control_off_is_identity(self, np_rng):
        for _ in range(5):
            u = GateMatrix(2, random_unitary(np_rng, 2))
            phi = random_state(np_rng, 1)
            joint = StateVector(2, np.kron([1, 0], phi.amps))
            out = apply(controlled(u), [0, 1], joint)
            assert np.allclose(out.amps, joint.amps, atol=1e-12)

    def test_commutes_with_control_measurement(self, np_rng):
        # With the control in a basis state, measuring it before or after the
        # controlled gate changes nothing.
        from qmlkit.rng import RngStream
        from qmlkit.state import measure_subset

        u = GateMatrix(2, random_unitary(np_rng, 2))
        for control_bit in (0, 1):
            phi = random_state(np_rng, 1)
            joint = StateVector(
                2, np.kron([1 - control_bit, control_bit], phi.amps)
            )
            after_gate = apply(controlled(u), [0, 1], joint)
            bits, collapsed = measure_subset(after_gate, [0], RngStream(0))
            assert bits == str(control_bit)
            bits2, pre_collapsed = measure_subset(joint, [0], RngStream(0))
            assert np.allclose(
                collapsed.amps, apply(controlled(u), [0, 1], pre_collapsed).amps, atol=1e-12
            )


class TestApply:
    def test_hadamard_on_first_qubit(self):
        out = apply(standard_gate("H"), [0], basis_state(2, 0))
        assert np.allclose(out.amps, np.array([1, 0, 1, 0]) / math.sqrt(2), atol=1e-15)

    def test_swap_after_hadamard(self):
        mid = apply(standard_gate("H"), [0], basis_state(2, 0))
        out = apply(standard_gate("SWAP"), [0, 1], mid)
        assert np.allclose(out.amps, np.array([1, 1, 0, 0]) / math.sqrt(2), atol=1e-15)

    def test_identity_noop(self, np_rng):
        psi = random_state(np_rng, 3)
        assert np.allclose(apply(standard_gate("I"), [1], psi).amps, psi.amps)

    def test_norm_preserved_random_gates(self, np_rng):
        for _ in range(20):
            width = int(np_rng.integers(1, 3))
            gate = GateMatrix(2**width, random_unitary(np_rng, 2**width))
            psi = random_state(np_rng, 4)
            targets = list(np_rng.choice(4, size=width, replace=False))
            out = apply(gate, targets, psi)
            assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-9)

    def test_matches_expanded_matrix(self, np_rng):
        for _ in range(10):
            n = int(np_rng.integers(2, 6))
            width = int(np_rng.integers(1, min(n, 3) + 1))
            gate = GateMatrix(2**width, random_unitary(np_rng, 2**width))
            targets = list(np_rng.choice(n, size=width, replace=False))
            psi = random_state(np_rng, n)
            fast = apply(gate, targets, psi)
            full = expand_to_register(gate, targets, n) @ psi.amps
            assert np.allclose(fast.amps, full, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            apply(standard_gate("SWAP"), [0], basis_state(2, 0))


class TestCircuit:
    def test_hadamard_then_swap(self):
        circuit = Circuit(
            2, [(standard_gate("H"), (0,)), (standard_gate("SWAP"), (0, 1))]
        )
        out = run_circuit(circuit, basis_state(2, 0))
        assert np.allclose(out.amps, np.array([1, 1, 0, 0]) / math.sqrt(2), atol=1e-15)

    def test_empty_circuit(self, np_rng):
        psi = random_state(np_rng, 2)
        assert np.allclose(run_circuit(Circuit(2, []), psi).amps, psi.amps)

    def test_transform_decomposition_matches_matrix(self, np_rng):
        from qmlkit.fourier import qft_circuit, qft_gate

        psi = random_state(np_rng, 2)
        via_circuit = run_circuit(qft_circuit(2), psi)
        via_matrix = qft_gate(2).matrix @ psi.amps
        assert np.allclose(via_circuit.amps, via_matrix, atol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            run_circuit(Circuit(2, []), basis_state(3, 0))

    @settings(max_examples=60)
    @given(random_circuits())
    def test_matrix_matches_expanded_composition(self, circuit):
        expected = np.eye(2**circuit.n_qubits, dtype=complex)
        for gate, targets in circuit.steps:
            expected = expand_to_register(gate, list(targets), circuit.n_qubits) @ expected
        assert np.max(np.abs(circuit.matrix() - expected)) <= 1e-12

    def test_matrix_refused_over_dense_cap(self):
        assert DENSE_MATRIX_CAP == 12
        with pytest.raises(ConfigError, match="13 qubits needs 1,073,741,824 bytes"):
            Circuit(13, []).matrix()
        with pytest.raises(ConfigError, match="transform matrix on 13 qubits needs 1,073,741,824"):
            fourier.qft_gate(13)
        # Past 32 qubits the size is stated, not built: 16 * 4**20000 has 12,000 digits.
        with pytest.raises(ConfigError, match=r"on 20000 qubits needs 16 x 4\^20000 bytes;"):
            fourier.qft_gate(20000)

    def test_json_round_trip(self, np_rng):
        custom = GateMatrix(2, random_unitary(np_rng, 2))
        circuit = Circuit(
            3,
            [
                (standard_gate("H"), (0,)),
                (standard_gate("R", phase=0.75), (2,)),
                (standard_gate("SWAP"), (1, 2)),
                (custom, (1,)),
            ],
        )
        restored = Circuit.from_json(circuit.to_json())
        assert restored.n_qubits == 3
        assert np.allclose(restored.matrix(), circuit.matrix(), atol=1e-12)

    def test_from_json_rejects_non_unitary_step(self):
        shear = [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]
        doc = {"n_qubits": 2, "steps": [{"gate": "H", "targets": [0]},
                                        {"gate": shear, "targets": [1]}]}
        with pytest.raises(DomainError, match="not unitary"):
            Circuit.from_json(json.dumps(doc))

    def test_constructor_errors_name_the_step(self):
        h = standard_gate("H")
        with pytest.raises(DomainError, match=r"^step 1: qubit position 5 out of range for 2"):
            Circuit(2, [(h, (0,)), (h, (5,))])
        with pytest.raises(DomainError, match=r"^step 0: gate dim 2 does not match 2 targets$"):
            Circuit(2, [(h, (0, 1))])
        shear = [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]
        doc = {"n_qubits": 1, "steps": [{"gate": "H", "targets": [0]},
                                        {"gate": shear, "targets": [0]}]}
        with pytest.raises(DomainError, match=r"^step 1: matrix is not unitary$"):
            Circuit.from_json(json.dumps(doc))

    def test_from_json_valid_document_unchanged(self):
        # Integer targets, an R phase and a custom matrix read back as the
        # constructors build them.
        doc = {"n_qubits": 2, "steps": [
            {"gate": "h", "targets": [1]},
            {"gate": "R", "phase": 1, "targets": [0]},
            {"gate": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], "targets": [1]},
        ]}
        circuit = Circuit.from_json(json.dumps(doc))
        assert [targets for _, targets in circuit.steps] == [(1,), (0,), (1,)]
        assert circuit.steps[1][0].name == "R(1)"
        assert np.array_equal(circuit.steps[2][0].matrix, standard_gate("X").matrix)


def _recording_apply(monkeypatch) -> list:
    """Route ``run_circuit``'s applies through a recorder of (gate, targets)."""
    calls = []

    def recording(gate, targets, psi):
        calls.append((gate, list(targets)))
        return apply(gate, targets, psi)

    monkeypatch.setattr(gates, "apply", recording)
    return calls


def fusion_blocks_rescan(steps) -> list[list]:
    """``gates._fusion_blocks`` by rescanning: each block scans every
    remaining step in order and takes a step that keeps its qubit union
    within ``FUSION_WIDTH`` and shares no qubit with a step it left out.
    Quadratic in the steps; the reference for the queue-based packer."""
    blocks, remaining = [], list(steps)
    while remaining:
        block, qubits, blocked, rest = [], set(), set(), []
        for step in remaining:
            targets = set(step[1])
            if not block or (len(qubits | targets) <= FUSION_WIDTH and not targets & blocked):
                block.append(step)
                qubits |= targets
            else:
                rest.append(step)
                blocked |= targets
        blocks.append(block)
        remaining = rest
    return blocks


@st.composite
def step_lists(draw, max_qubits=12, max_steps=60):
    """``(index, targets)`` steps on n <= ``max_qubits`` qubits: 1-3 qubit
    targets, and about one step in twenty wider than ``FUSION_WIDTH`` when
    the register allows it."""
    n = draw(st.integers(1, max_qubits))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for index in range(draw(st.integers(0, max_steps))):
        if n > FUSION_WIDTH and gen.random() < 0.05:
            width = int(gen.integers(FUSION_WIDTH + 1, n + 1))
        else:
            width = int(gen.integers(1, min(n, 3) + 1))
        steps.append((index, tuple(gen.permutation(n)[:width].tolist())))
    return steps


class TestFusion:
    @settings(max_examples=40)
    @given(random_circuits(max_qubits=10, max_steps=30), st.integers(0, 2**32 - 1))
    def test_matches_per_step_reference(self, circuit, seed):
        psi = random_state(np.random.default_rng(seed), circuit.n_qubits)
        fused = run_circuit(circuit, psi).amps
        assert np.max(np.abs(fused - run_circuit_per_step(circuit, psi).amps)) <= 1e-12

    @settings(max_examples=200)
    @given(step_lists())
    def test_blocks_match_rescan_reference(self, steps):
        assert gates._fusion_blocks(steps) == fusion_blocks_rescan(steps)

    @settings(max_examples=200)
    @given(step_lists())
    def test_block_layout(self, steps):
        blocks = gates._fusion_blocks(steps)
        order = [index for block in blocks for index, _ in block]
        assert sorted(order) == list(range(len(steps)))
        for block in blocks:
            union = {q for _, targets in block for q in targets}
            assert len(union) <= FUSION_WIDTH or len(block) == 1
        # Two steps that share a qubit keep their order; equivalently, a
        # step placed ahead of an earlier one shares no qubit with it.
        position = {index: at for at, index in enumerate(order)}
        for i, (_, first) in enumerate(steps):
            for j in range(i + 1, len(steps)):
                if position[j] < position[i]:
                    assert not set(first) & set(steps[j][1]), (i, j)

    def test_packing_is_near_linear(self):
        # 200,000 steps pack in well under a second with per-qubit queues; a
        # rescan of the remaining steps per block took about a minute.
        gen = np.random.default_rng(12)
        qubits = gen.random((200_000, 12)).argsort(axis=1).tolist()
        widths = gen.integers(1, 4, size=200_000).tolist()
        steps = [(None, tuple(row[:width])) for row, width in zip(qubits, widths)]
        start = time.perf_counter()
        blocks = gates._fusion_blocks(steps)
        elapsed = time.perf_counter() - start
        assert sum(map(len, blocks)) == len(steps)
        assert elapsed < 5.0, f"packing 200,000 steps took {elapsed:.2f} s"

    def test_layer_packs_into_two_blocks(self, np_rng, monkeypatch):
        # One layer shaped like the benchmark's: four 1-qubit gates, then a
        # controlled phase, a SWAP and a random 2-qubit unitary on fresh pairs.
        # The SWAP would make the union 8 qubits, so it opens the second block.
        steps = [
            (standard_gate("H"), (3,)),
            (standard_gate("H"), (9,)),
            (standard_gate("X"), (0,)),
            (standard_gate("R", phase=0.4), (11,)),
            (controlled(standard_gate("R", phase=1.3)), (5, 2)),
            (standard_gate("SWAP"), (7, 10)),
            (GateMatrix(4, random_unitary(np_rng, 4)), (1, 8)),
        ]
        circuit = Circuit(12, steps)
        psi = random_state(np_rng, 12)
        calls = _recording_apply(monkeypatch)
        out = run_circuit(circuit, psi)
        assert [targets for _, targets in calls] == [[0, 2, 3, 5, 9, 11], [1, 7, 8, 10]]
        assert np.max(np.abs(out.amps - run_circuit_per_step(circuit, psi).amps)) <= 1e-12

    def test_later_step_joins_the_open_block(self, np_rng, monkeypatch):
        # Two layers shaped like the benchmark's.  The second layer's last
        # three steps act only on the first block's qubits and share none
        # with the steps the first block left out, so they join it: two
        # blocks, where packing consecutive steps made three.
        cr = controlled(standard_gate("R", phase=1.3))
        steps = [
            (standard_gate("H"), (3,)),
            (standard_gate("H"), (9,)),
            (standard_gate("X"), (0,)),
            (standard_gate("R", phase=0.4), (11,)),
            (cr, (5, 2)),
            (standard_gate("SWAP"), (7, 10)),
            (GateMatrix(4, random_unitary(np_rng, 4)), (1, 8)),
            (standard_gate("H"), (4,)),
            (standard_gate("H"), (6,)),
            (standard_gate("X"), (8,)),
            (standard_gate("R", phase=2.1), (1,)),
            (cr, (0, 3)),
            (standard_gate("SWAP"), (9, 11)),
            (GateMatrix(4, random_unitary(np_rng, 4)), (2, 5)),
        ]
        circuit = Circuit(12, steps)
        assert [len(block) for block in gates._fusion_blocks(steps)] == [8, 6]
        psi = random_state(np_rng, 12)
        calls = _recording_apply(monkeypatch)
        out = run_circuit(circuit, psi)
        assert [targets for _, targets in calls] == [[0, 2, 3, 5, 9, 11], [1, 4, 6, 7, 8, 10]]
        assert np.max(np.abs(out.amps - run_circuit_per_step(circuit, psi).amps)) <= 1e-12

    def test_gate_wider_than_block_stands_alone(self, np_rng, monkeypatch):
        wide = GateMatrix(2 ** (FUSION_WIDTH + 1), random_unitary(np_rng, 2 ** (FUSION_WIDTH + 1)))
        cnot = controlled(standard_gate("X"))
        circuit = Circuit(
            8,
            [
                (standard_gate("H"), (7,)),
                (wide, (6, 0, 1, 2, 3, 4, 5)),
                (standard_gate("H"), (7,)),
                (cnot, (6, 7)),
            ],
        )
        psi = random_state(np_rng, 8)
        calls = _recording_apply(monkeypatch)
        out = run_circuit(circuit, psi)
        # The second H shares no qubit with the wide gate, so it joins the
        # first into one H.H block; the wide gate is a single-step block and
        # is applied as its own object.
        assert [targets for _, targets in calls] == [[7], [6, 0, 1, 2, 3, 4, 5], [6, 7]]
        assert np.allclose(calls[0][0].matrix, np.eye(2), atol=1e-12)
        assert calls[1][0] is wide
        assert np.max(np.abs(out.amps - run_circuit_per_step(circuit, psi).amps)) <= 1e-12


def _unitarity_error(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix @ matrix.conj().T - np.eye(len(matrix)))))


@st.composite
def checked_gates(draw, max_qubits=3):
    """A random unitary on 1-``max_qubits`` qubits, through the checked
    public constructor."""
    width = draw(st.integers(1, max_qubits))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return GateMatrix(2**width, random_unitary(gen, 2**width))


class TestDerivedGates:
    """Gates derived from checked ones skip the constructor's unitarity
    product; this property holds each such construction to it instead."""

    @settings(max_examples=40)
    @given(
        checked_gates(),
        checked_gates(),
        st.floats(-2 * math.pi, 2 * math.pi),
        st.integers(1, 10),
        st.integers(0, 5),
        random_circuits(),
    )
    def test_unitary_to_rounding(self, a, b, phase, n_qft, squarings, circuit):
        power = a.matrix
        for _ in range(squarings):   # phase estimation's U^(2^j)
            power = power @ power
        derived = [
            kron([a, b]).matrix,
            controlled(a).matrix,
            a.dagger().matrix,
            standard_gate("R", phase=phase).matrix,
            fourier.qft_gate(n_qft).matrix,
            power,
            circuit.matrix(),   # a fused block of ``run_circuit``
        ]
        for matrix in derived:
            assert _unitarity_error(matrix) <= 1e-12


@st.composite
def kernel_cases(draw):
    """A random gate on 1-6 targets in any order of an n <= 12 register, with
    or without a trailing column axis, and a chunk of 2^2-2^8 entries smaller
    than the array, so the chunked branch runs."""
    n = draw(st.integers(3, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, min(n, 6)))
    targets = list(draw(st.permutations(range(n)))[:width])
    columns = draw(st.sampled_from([None, 1, 3, 4]))
    shape = (2**n,) if columns is None else (2**n, columns)
    amps = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    chunk = 2 ** draw(st.integers(2, min(8, n - 1)))
    return random_unitary(gen, 2**width), targets, amps, chunk


class TestChunkedKernel:
    @settings(max_examples=60)
    @given(kernel_cases())
    def test_matches_unchunked_with_tiny_chunks(self, case):
        matrix, targets, amps, chunk = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gates, "_CHUNK_AMPS", chunk)
            out = gates._apply_matrix(matrix, targets, amps)
        assert out.shape == amps.shape
        # Tiny chunks send OpenBLAS down other kernels, so allow rounding.
        assert np.max(np.abs(out - apply_matrix_unchunked(matrix, targets, amps))) <= 1e-12

    def test_bitwise_at_real_chunk_size(self, np_rng):
        psi = random_state(np_rng, 18)
        assert psi.dim > gates._CHUNK_AMPS
        for targets in ([17, 3, 9, 0], [5], [0, 1], [12, 2, 16, 7, 1, 14]):
            matrix = random_unitary(np_rng, 2 ** len(targets))
            out = apply(GateMatrix(len(matrix), matrix), targets, psi).amps
            assert np.array_equal(out, apply_matrix_unchunked(matrix, targets, psi.amps))

    def test_circuit_matrix_uses_the_kernel(self, np_rng):
        # 9 qubits of identity columns are 2^18 entries, past one chunk.
        steps = [
            (GateMatrix(4, random_unitary(np_rng, 4)), (8, 2)),
            (standard_gate("H"), (0,)),
            (GateMatrix(8, random_unitary(np_rng, 8)), (4, 7, 1)),
        ]
        expected = np.eye(2**9, dtype=complex)
        for gate, targets in steps:
            expected = apply_matrix_unchunked(gate.matrix, list(targets), expected)
        assert np.array_equal(Circuit(9, steps).matrix(), expected)

    def test_run_circuit_peak_memory(self):
        # Two live states (the previous block's output and the next one's)
        # plus O(chunk) per block; the unchunked kernel reaches three states.
        n = 20
        psi = basis_state(n, 0)
        circuit = Circuit(n, [(standard_gate("H"), (q,)) for q in range(n)])
        state_bytes = 16 * 2**n
        tracemalloc.start()
        try:
            out = run_circuit(circuit, psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.amps[-1] == pytest.approx(2 ** (-n / 2))
        assert peak <= 2 * state_bytes + 4 * 16 * gates._CHUNK_AMPS
