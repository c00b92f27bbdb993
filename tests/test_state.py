import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmlkit import rng as rng_module
from qmlkit.density import DensityMatrix
from qmlkit.errors import ConfigError, DomainError
from qmlkit.gates import GateMatrix
from qmlkit.rng import RngStream
from qmlkit.state import (
    Observable,
    StateVector,
    basis_state,
    expectation,
    from_bits,
    inner_product,
    is_product_two_subsystems,
    measure_all,
    measure_subset,
    normalize,
    tensor,
    variance,
    _validate_positions,
)
from conftest import random_state


def measure_subset_reference(psi: StateVector, qubits, rng: RngStream):
    """The bits of the index ``measure_all_reference`` draws, read at the
    measured positions; the collapse as first written: zero a full copy,
    copy the kept slice in, and renormalize the whole vector."""
    positions = _validate_positions(psi.n_qubits, qubits)
    n = psi.n_qubits
    index, _ = measure_all_reference(psi, rng)
    word = format(index, f"0{n}b")
    bits = "".join(word[q] for q in positions)
    grid = psi.amps.reshape([2] * n)
    selector: list = [slice(None)] * n
    for q, bit in zip(positions, bits):
        selector[q] = int(bit)
    projected = np.zeros_like(grid)
    projected[tuple(selector)] = grid[tuple(selector)]
    amps = projected.reshape(-1)
    return bits, StateVector(n, amps / np.linalg.norm(amps))


def choice_reference(probabilities, rng: RngStream) -> int:
    """``RngStream.choice`` on one full vector, as first written: a full sum
    check, a clipped copy, one ``cumsum`` and a ``searchsorted``."""
    p = np.asarray(probabilities, dtype=float)
    total = p.sum()
    if not abs(total - 1.0) <= 1e-9 + 1e-5:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    cdf = np.cumsum(np.clip(p, 0.0, None))
    index = int(np.searchsorted(cdf, rng.uniform() * cdf[-1], side="right"))
    return min(index, len(p) - 1)


def measure_all_reference(psi: StateVector, rng: RngStream) -> tuple[int, float]:
    """Index and probability of ``measure_all`` from the full |c_i|^2 vector."""
    probs = np.square(np.abs(psi.amps))
    index = choice_reference(probs, rng)
    return index, float(probs[index])


class _TopDraw:
    """Stands in for the generator: every draw is 1.0, past any real draw,
    so the sampled target is the CDF's total and the last index is taken."""

    def random(self):
        return 1.0


@st.composite
def sampled_states(draw):
    """A dense, sparse or zero-tailed state on n <= 10 qubits, a sampler
    chunk of 2-64 entries, and a draw seed."""
    n = draw(st.integers(1, 10))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    kind = draw(st.sampled_from(["dense", "sparse", "zero tail"]))
    if kind == "sparse":
        amps[gen.random(2**n) < 0.9] = 0
        amps[gen.integers(2**n)] = 1
    elif kind == "zero tail":
        amps[draw(st.integers(1, 2**n)) :] = 0
        amps[0] = 1
    chunk = 2 ** draw(st.integers(1, 6))
    return StateVector(n, amps / np.linalg.norm(amps)), chunk, draw(st.integers(0, 2**32 - 1))


@st.composite
def measurement_runs(draw):
    """A dense, sparse, zero-tailed or zero-headed state on n <= 10 qubits
    (a zero head puts the mass, and so most draws, in the last chunk), a
    sampler chunk of 2-16 entries, and 1-6 calls: ``None`` for
    ``measure_all`` or 1-3 distinct positions for ``measure_subset``, each
    with a draw seed."""
    psi, _, _ = draw(sampled_states())
    if draw(st.booleans()):
        psi = StateVector(psi.n_qubits, psi.amps[::-1].copy())
    chunk = draw(st.integers(2, 16))
    n = psi.n_qubits
    positions = st.permutations(range(n)).flatmap(
        lambda order: st.integers(1, min(n, 3)).map(lambda k: order[:k])
    )
    calls = st.tuples(st.none() | positions, st.integers(0, 2**32 - 1))
    return psi, chunk, draw(st.lists(calls, min_size=1, max_size=6))


@st.composite
def subset_measurements(draw):
    """A random state on n <= 8 qubits and 1-3 distinct qubits in any order."""
    n = draw(st.integers(1, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qubits = draw(st.permutations(range(n)))[: draw(st.integers(1, min(n, 3)))]
    return random_state(gen, n), qubits, draw(st.integers(0, 2**32 - 1))


EXAMPLE = StateVector(1, np.array([0.5j, math.sqrt(3) / 2]))
POSITION = Observable(2, np.diag([1.0, 2.0]))
SIGMA1 = Observable(2, np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA2 = Observable(2, np.array([[0, -1j], [1j, 0]]))
SIGMA3 = Observable(2, np.diag([1.0, -1.0]))


class TestBasisState:
    def test_single_qubit_identity(self):
        assert np.array_equal(basis_state(1, 0).amps, [1, 0])

    def test_bitstring_ten_is_index_two(self):
        # |10> with the leftmost qubit most significant.
        assert np.array_equal(basis_state(2, 2).amps, [0, 0, 1, 0])
        assert np.array_equal(from_bits("10").amps, [0, 0, 1, 0])

    def test_last_basis_vector(self):
        e7 = basis_state(3, 7)
        assert e7.dim == 8
        assert e7.amps[7] == 1 and np.count_nonzero(e7.amps) == 1

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            basis_state(2, 4)

    def test_qubit_cap(self):
        with pytest.raises(ConfigError):
            basis_state(25, 0)


class TestStateValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_no_silent_renormalization(self):
        # Slightly off norm is rejected, not fixed up.
        with pytest.raises(DomainError):
            StateVector(1, np.array([1.0 + 1e-4, 0.0]))
        explicit = normalize(np.array([2.0, 0.0]))
        assert explicit.amps[0] == 1.0

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            StateVector(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "amps",
        [
            [math.nan, 0.0],
            [1.0, math.nan],
            [complex(0.0, math.nan), 0.0],
            [math.inf, 0.0],
            [-math.inf, 0.0],
            [complex(math.inf, math.inf), 0.0],
        ],
    )
    def test_rejects_non_finite(self, amps):
        with pytest.raises(DomainError):
            StateVector(1, np.array(amps))


class TestInnerProduct:
    def test_worked_example(self):
        assert inner_product(basis_state(1, 0), EXAMPLE) == pytest.approx(0.5j)

    def test_self_overlap_is_one(self, np_rng):
        psi = random_state(np_rng, 3)
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        assert inner_product(basis_state(1, 1), basis_state(1, 0)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            inner_product(basis_state(1, 0), basis_state(2, 0))


class TestTensor:
    def test_basis_concatenation(self):
        assert np.array_equal(tensor(basis_state(1, 0), basis_state(1, 1)).amps, [0, 1, 0, 0])

    def test_superposition_with_zero(self):
        plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
        joint = tensor(plus, basis_state(1, 0))
        expected = np.array([1, 0, 1, 0]) / math.sqrt(2)
        assert np.allclose(joint.amps, expected, atol=1e-12)

    def test_two_copies_equal_weights(self):
        plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
        assert np.allclose(tensor(plus, plus).amps, [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_norm_multiplicative(self, np_rng):
        for _ in range(20):
            a = random_state(np_rng, 2)
            b = random_state(np_rng, 3)
            joint = tensor(a, b)
            assert np.linalg.norm(joint.amps) == pytest.approx(1.0, abs=1e-9)

    def test_refused_over_cap_before_it_is_built(self, monkeypatch):
        def kron(*args):
            raise AssertionError("np.kron called before the cap check")

        big, small = basis_state(12, 0), basis_state(13, 0)
        monkeypatch.setattr(np, "kron", kron)
        tracemalloc.start()
        try:
            message = "25 qubits exceeds the cap of 24: the state needs 536,870,912 bytes"
            with pytest.raises(ConfigError, match=message):
                tensor(big, small)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestOperatorEntryCheck:
    """Gates, observables and density matrices from outside pass one entry
    check: shape, power-of-two dimension, finite entries."""

    @pytest.mark.parametrize("operator", [GateMatrix, Observable, DensityMatrix])
    @pytest.mark.parametrize(
        "dim, matrix, message",
        [
            (2, np.eye(4) / 4, "matrix has shape (4, 4), expected (2, 2)"),
            (3, np.eye(3) / 3, "matrix dimension 3 is not a power of two"),
            (0, np.zeros((0, 0)), "matrix dimension 0 is not a power of two"),
            (2, np.diag([math.nan, math.nan]), "matrix has NaN or infinite entries"),
            (2, np.diag([math.inf, 1.0]), "matrix has NaN or infinite entries"),
            (2, np.diag([1.0, -math.inf]), "matrix has NaN or infinite entries"),
        ],
        ids=["shape", "three", "zero", "nan", "inf", "minus-inf"],
    )
    def test_refused_with_one_message(self, operator, dim, matrix, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the test
            with pytest.raises(DomainError) as refused:
                operator(dim, matrix)
        assert str(refused.value) == message

    @pytest.mark.parametrize("operator", [GateMatrix, Observable, DensityMatrix])
    def test_accepted_matrix_is_read_only(self, operator):
        built = operator(2, np.eye(2) / (2 if operator is DensityMatrix else 1))
        assert built.matrix.dtype == complex and not built.matrix.flags.writeable


class TestExpectationVariance:
    def test_expectation_worked_example(self):
        assert expectation(POSITION, EXAMPLE) == pytest.approx(1.75, abs=1e-12)

    def test_identity_observable(self, np_rng):
        psi = random_state(np_rng, 2)
        assert expectation(Observable(4, np.eye(4)), psi) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_case(self):
        assert expectation(SIGMA3, basis_state(1, 0)) == pytest.approx(1.0)

    def test_variance_worked_example(self):
        assert variance(POSITION, EXAMPLE) == pytest.approx(0.1875, abs=1e-12)
        assert math.sqrt(variance(POSITION, EXAMPLE)) == pytest.approx(0.433, abs=5e-4)

    def test_variance_eigenstate_zero(self):
        assert variance(POSITION, basis_state(1, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_variance_sigma1_on_zero(self):
        # Hand evaluation: <0|s1|0> = 0 and <0|s1^2|0> = 1, so Var = 1.
        assert variance(SIGMA1, basis_state(1, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError, match="^observable matrix is not Hermitian$"):
            Observable(2, np.array([[0, 1], [0, 0]]))

    def test_imaginary_residue_refused(self):
        # Hermitian within HERMITIAN_TOL per entry, yet the 28 residues of
        # the upper triangle add up to an imaginary part of 3.15e-9.
        near = np.ones((8, 8)) - np.eye(8) + 0.9e-9j * np.triu(np.ones((8, 8)), 1)
        with pytest.raises(DomainError, match="^expectation has imaginary residue 3.1"):
            expectation(Observable(8, near), normalize(np.ones(8)))

    def test_dimension_mismatch_refused(self):
        with pytest.raises(DomainError, match="^dimension mismatch: observable 2, state 4$"):
            expectation(POSITION, basis_state(2, 0))

    def test_expectation_matches_eigendecomposition(self, np_rng):
        for _ in range(25):
            raw = np_rng.normal(size=(4, 4)) + 1j * np_rng.normal(size=(4, 4))
            obs = Observable(4, (raw + raw.conj().T) / 2)
            psi = random_state(np_rng, 2)
            values, vectors = obs.eigensystem()
            weights = np.abs(vectors.conj().T @ psi.amps) ** 2
            assert expectation(obs, psi) == pytest.approx(
                float(values @ weights), abs=1e-9
            )

    def test_heisenberg_commutator_bound(self, np_rng):
        for _ in range(50):
            psi = random_state(np_rng, 1)
            lhs = variance(SIGMA1, psi) * variance(SIGMA2, psi)
            commutator = SIGMA1.matrix @ SIGMA2.matrix - SIGMA2.matrix @ SIGMA1.matrix
            rhs = 0.25 * abs(np.vdot(psi.amps, commutator @ psi.amps)) ** 2
            assert lhs >= rhs - 1e-9


class TestMeasureAll:
    def test_basis_state_deterministic(self):
        outcome = measure_all(from_bits("10"), RngStream(0))
        assert outcome.basis_index == 2
        assert outcome.probability == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(outcome.collapsed.amps, from_bits("10").amps)

    def test_uniform_qubit_frequency(self):
        psi = StateVector(1, np.array([1, 1]) / math.sqrt(2))
        rng = RngStream(42)
        hits = sum(measure_all(psi, rng).basis_index == 0 for _ in range(100_000))
        assert 0.494 <= hits / 100_000 <= 0.506

    def test_search_output_always_marked(self):
        final = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
        for rng in RngStream(3).split(50):
            assert measure_all(final, rng).basis_index == 2

    def test_probability_matches_amplitude(self, np_rng):
        psi = random_state(np_rng, 3)
        outcome = measure_all(psi, RngStream(5))
        expected = abs(psi.amps[outcome.basis_index]) ** 2
        assert outcome.probability == pytest.approx(expected, abs=1e-12)

    def test_distribution_three_qubits(self):
        gen = np.random.default_rng(0)
        psi = random_state(gen, 3)
        rng = RngStream(7)
        shots = 100_000
        counts = np.zeros(8)
        for _ in range(shots):
            counts[measure_all(psi, rng).basis_index] += 1
        probs = psi.probabilities()
        sigma = np.sqrt(probs * (1 - probs) / shots)
        assert np.all(np.abs(counts / shots - probs) <= 3 * sigma)


class TestChunkedSampler:
    @settings(max_examples=80)
    @given(sampled_states())
    def test_measure_all_matches_full_vector(self, case):
        psi, chunk, seed = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "_CHUNK", chunk)
            outcome = measure_all(psi, RngStream(seed))
            clamped = measure_all(psi, _top_stream())
        index, probability = measure_all_reference(psi, RngStream(seed))
        assert outcome.basis_index == index
        assert np.float64(outcome.probability).tobytes() == np.float64(probability).tobytes()
        assert np.array_equal(outcome.collapsed.amps, basis_state(psi.n_qubits, index).amps)
        top_index, top_probability = measure_all_reference(psi, _top_stream())
        assert (clamped.basis_index, clamped.probability) == (top_index, top_probability)

    def test_landing_in_last_chunk_reads_it_once(self):
        # The first pass keeps the last chunk; only a draw landing earlier
        # reads its chunk a second time.
        calls = []

        def counting(lo, hi):
            calls.append((lo, hi))
            return np.full(hi - lo, 1 / size)

        size = 8
        assert rng_module.inverse_cdf(counting, size, lambda: 0.3) == (2, 1 / 8)
        assert calls == [(0, 8)]
        size = 12
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "_CHUNK", 4)
            calls.clear()
            assert rng_module.inverse_cdf(counting, 12, lambda: 0.9)[0] == 10
            assert calls == [(0, 4), (4, 8), (8, 12)]
            calls.clear()
            assert rng_module.inverse_cdf(counting, 12, lambda: 0.1)[0] == 1
            assert calls == [(0, 4), (4, 8), (8, 12), (0, 4)]

    def test_zero_tail_clamps_to_last_index(self):
        amps = np.zeros(2**5, dtype=complex)
        amps[:3] = 1 / math.sqrt(3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "_CHUNK", 4)
            outcome = measure_all(StateVector(5, amps), _top_stream())
        assert (outcome.basis_index, outcome.probability) == (31, 0.0)

    def test_measure_all_at_real_chunk_size(self):
        gen = np.random.default_rng(17)
        amps = gen.normal(size=2**18) + 1j * gen.normal(size=2**18)
        amps[2**17 :] *= 1e-3   # most of the mass in the first half
        psi = StateVector(18, amps / np.linalg.norm(amps))
        assert psi.dim > rng_module._CHUNK
        for seed in range(20):
            outcome = measure_all(psi, RngStream(seed))
            index, probability = measure_all_reference(psi, RngStream(seed))
            assert (outcome.basis_index, outcome.probability) == (index, probability)

    @pytest.mark.parametrize("chunk", [2, 8, 2**16])
    def test_choice_matches_full_vector_with_negative_residue(self, chunk):
        gen = np.random.default_rng(chunk)
        probs = gen.random(300) ** 4
        residue = gen.integers(300, size=30)
        probs[residue] = 0.0
        probs /= probs.sum()
        probs[residue] = -1e-18
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "_CHUNK", chunk)
            for seed in range(40):
                assert RngStream(seed).choice(probs) == choice_reference(probs, RngStream(seed))
            assert _top_stream().choice(probs) == choice_reference(probs, _top_stream()) == 299

    def test_bad_sum_raises_before_the_draw(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "_CHUNK", 2)
            for bad in ([0.25, 0.25, 0.25, 0.25 + 1e-3], [0.25, math.nan, 0.25, 0.5], []):
                stream = RngStream(4)
                with pytest.raises(ValueError, match="expected 1"):
                    stream.choice(np.array(bad))
                assert stream.uniform() == RngStream(4).uniform()

    @settings(max_examples=80)
    @given(measurement_runs())
    def test_later_draws_match_fresh_copies(self, case):
        # Draws after the first reuse the state's kept chunk totals; each
        # call on a fresh copy makes the whole pass.  Every result and the
        # stream position after it must be the same, to the bit, and the
        # index that of the full-vector reference.
        psi, chunk, calls = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "_CHUNK", chunk)
            for positions, seed in calls:
                stream, fresh_stream = RngStream(seed), RngStream(seed)
                fresh = StateVector(psi.n_qubits, psi.amps.copy())
                index, probability = measure_all_reference(psi, RngStream(seed))
                if positions is None:
                    got, want = measure_all(psi, stream), measure_all(fresh, fresh_stream)
                    # Non-negative, non-NaN floats: equal values are equal bits.
                    assert (got.basis_index, got.probability) == (
                        want.basis_index, want.probability) == (index, probability)
                    got_after, want_after = got.collapsed, want.collapsed
                else:
                    bits, got_after = measure_subset(psi, positions, stream)
                    fresh_bits, want_after = measure_subset(fresh, positions, fresh_stream)
                    word = format(index, f"0{psi.n_qubits}b")
                    assert bits == fresh_bits == "".join(word[q] for q in positions)
                assert got_after.amps.tobytes() == want_after.amps.tobytes()
                assert stream.uniform() == fresh_stream.uniform()
        assert "_cdf" in vars(psi)

    def test_later_draw_reads_at_most_one_chunk(self, np_rng, monkeypatch):
        probs_of = StateVector._probs_of
        calls = []

        def counting(self, lo, hi):
            calls.append((lo, hi))
            return probs_of(self, lo, hi)

        monkeypatch.setattr(StateVector, "_probs_of", counting)
        for n, most in ((20, 1), (4, 0)):
            psi = random_state(np_rng, n)
            measure_all(psi, RngStream(0))
            assert len(calls) >= psi.dim // rng_module._CHUNK
            for seed in range(1, 6):
                calls.clear()
                outcome = measure_all(psi, RngStream(seed))
                assert len(calls) <= most
                index, probability = measure_all_reference(psi, RngStream(seed))
                assert (outcome.basis_index, outcome.probability) == (index, probability)
            calls.clear()

    def test_measure_all_peak_memory(self, np_rng):
        # The collapsed basis state plus a few sampler chunks; no full-length
        # probability or CDF array.
        psi = random_state(np_rng, 20)
        tracemalloc.start()
        try:
            measure_all(psi, RngStream(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * psi.dim + 4 * 16 * rng_module._CHUNK


def _top_stream() -> RngStream:
    stream = RngStream(0)
    stream.gen = _TopDraw()
    return stream


class TestMeasureSubset:
    def test_no_positions_measure_nothing(self, np_rng):
        psi = random_state(np_rng, 3)
        stream = RngStream(6)
        bits, after = measure_subset(psi, [], stream)
        assert bits == "" and after is psi
        assert stream.uniform() == RngStream(6).uniform()

    def test_peak_memory(self, np_rng):
        # The collapsed state is the one full-size buffer alive at the peak:
        # the kept slice is scaled straight into it.
        psi = random_state(np_rng, 20)
        tracemalloc.start()
        try:
            bits, _ = measure_subset(psi, [3, 11, 17], RngStream(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bits) == 3
        assert peak <= 16 * psi.dim + 2**20

    def test_unentangled_qubit(self):
        psi = StateVector(2, np.array([1, 1, 0, 0]) / math.sqrt(2))
        bits, after = measure_subset(psi, [0], RngStream(1))
        assert bits == "0"
        assert np.allclose(after.amps, psi.amps, atol=1e-12)

    def test_entangled_pair_forces_partner(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        for rng in RngStream(2).split(20):
            bits, after = measure_subset(bell, [0], rng)
            if bits == "0":
                assert np.allclose(after.amps, [1, 0, 0, 0], atol=1e-12)
            else:
                assert np.allclose(after.amps, [0, 0, 0, 1], atol=1e-12)

    def test_first_register_of_threshold_search_state(self):
        # Two equally weighted survivors in the first register: measuring it
        # collapses to one of them with probability one half each.
        first = np.zeros(8)
        first[0] = first[4] = 1 / math.sqrt(2)
        psi = StateVector(5, np.kron(first, [0, 0, 1, 0]).astype(complex))
        seen = {"000": 0, "100": 0}
        for rng in RngStream(11).split(400):
            bits, after = measure_subset(psi, [0, 1, 2], rng)
            seen[bits] += 1
            # The threshold register is untouched.
            grid = np.abs(after.amps.reshape(8, 4)) ** 2
            assert grid.sum(axis=0)[2] == pytest.approx(1.0, abs=1e-9)
        assert set(seen) == {"000", "100"}
        assert abs(seen["000"] / 400 - 0.5) <= 3 * math.sqrt(0.25 / 400)

    def test_repeat_measurement_idempotent(self, np_rng):
        for trial in range(10):
            psi = random_state(np_rng, 3)
            bits, after = measure_subset(psi, [1, 2], RngStream(trial))
            bits2, _ = measure_subset(after, [1, 2], RngStream(trial + 1000))
            assert bits2 == bits

    def test_position_order_sets_bit_order(self):
        psi = from_bits("011")
        bits, _ = measure_subset(psi, [2, 0], RngStream(0))
        assert bits == "10"
        bits, _ = measure_subset(psi, [0, 2], RngStream(0))
        assert bits == "01"

    @settings(max_examples=60)
    @given(subset_measurements())
    def test_matches_reference(self, case):
        psi, qubits, seed = case
        stream, ref_stream = RngStream(seed), RngStream(seed)
        bits, after = measure_subset(psi, qubits, stream)
        ref_bits, ref_after = measure_subset_reference(psi, qubits, ref_stream)
        assert bits == ref_bits
        assert np.max(np.abs(after.amps - ref_after.amps)) <= 1e-12
        # One uniform drawn, as measure_all draws it: later draws keep their bits.
        assert stream.uniform() == ref_stream.uniform()

    def test_bits_are_those_of_measure_all_index(self, np_rng, monkeypatch):
        # Neither the |c|^2 vector nor the explicit-vector sampler is used:
        # the bits are read off the index measure_all draws on the same seed.
        def refuse(*args):
            raise AssertionError("measure_subset built a probability table")

        monkeypatch.setattr(StateVector, "probabilities", refuse)
        monkeypatch.setattr(RngStream, "choice", refuse)
        psi = random_state(np_rng, 6)
        for seed in range(20):
            bits, _ = measure_subset(psi, [4, 1, 5], RngStream(seed))
            index = format(measure_all(psi, RngStream(seed)).basis_index, "06b")
            assert bits == index[4] + index[1] + index[5]

    def test_invalid_positions(self):
        psi = basis_state(2, 0)
        with pytest.raises(DomainError):
            measure_subset(psi, [0, 0], RngStream(0))
        with pytest.raises(DomainError):
            measure_subset(psi, [2], RngStream(0))


class TestSeparability:
    def test_equal_mixture_is_product(self):
        psi = StateVector(2, np.array([0.5, 0.5, 0.5, 0.5]))
        assert is_product_two_subsystems(psi, 1)

    def test_entangled_pair_is_not(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert not is_product_two_subsystems(bell, 1)

    def test_basis_state_is_product(self):
        assert is_product_two_subsystems(from_bits("01"), 1)

    def test_invalid_split(self):
        with pytest.raises(DomainError):
            is_product_two_subsystems(basis_state(2, 0), 2)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = [RngStream(99).randint(1000) for _ in range(5)]
        b = [RngStream(99).randint(1000) for _ in range(5)]
        # Fresh streams with the same seed replay the same draws.
        first = [RngStream(99) for _ in range(2)]
        assert [s.randint(1000) for s in first][0] == [RngStream(99).randint(1000)][0]
        assert a == b

    def test_choice_sum_tolerance(self):
        # np.isclose's test: atol 1e-9 plus rtol 1e-5 of the expected 1.
        assert RngStream(0).choice(np.array([0.5, 0.5 + 2e-6])) in (0, 1)
        for bad in ([0.5, 0.5 + 1e-3], [math.nan, 0.5]):
            with pytest.raises(ValueError, match="expected 1"):
                RngStream(0).choice(np.array(bad))

    def test_choice_consumes_one_uniform(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        cdf = np.cumsum(probs)
        for seed in range(20):
            sampled, reference = RngStream(seed), RngStream(seed)
            index = sampled.choice(probs)
            assert index == int(np.searchsorted(cdf, reference.uniform() * cdf[-1], "right"))
            assert sampled.uniform() == reference.uniform()

    def test_choice_leaves_probabilities_unchanged(self):
        # The clipped copy is accumulated in place, never the caller's array.
        probs = np.array([0.25, -1e-18, 0.5, 0.25])
        before = probs.tobytes()
        RngStream(3).choice(probs)
        assert probs.tobytes() == before

    def test_split_streams_differ(self):
        left, right = RngStream(1).split(2)
        assert [left.randint(10**6) for _ in range(4)] != [
            right.randint(10**6) for _ in range(4)
        ]
