import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_state
from qmlkit.density import (
    DensityMatrix,
    mixed_density,
    partial_trace,
    pure_density,
    trace_expectation,
)
from qmlkit.errors import ConfigError, DomainError
from qmlkit.state import Observable, StateVector, basis_state, expectation, tensor

EXAMPLE = StateVector(1, np.array([0.5j, math.sqrt(3) / 2]))
UNIFORM = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
POSITION = Observable(2, np.diag([1.0, 2.0]))


def reference_partial_trace(rho: DensityMatrix, keep) -> np.ndarray:
    """Index-pair summation: for every pair of kept-group indices, sum the
    input entries over all assignments of the traced qubits."""
    n = rho.n_qubits
    kept = list(keep)
    traced = [q for q in range(n) if q not in kept]
    groups = []
    for kept_bits in range(2 ** len(kept)):
        base = 0
        for pos, q in enumerate(kept):
            if kept_bits >> (len(kept) - 1 - pos) & 1:
                base |= 1 << (n - 1 - q)
        out = np.empty(2 ** len(traced), dtype=np.intp)
        for t in range(2 ** len(traced)):
            idx = base
            for pos, q in enumerate(traced):
                if t >> (len(traced) - 1 - pos) & 1:
                    idx |= 1 << (n - 1 - q)
            out[t] = idx
        groups.append(out)
    dim_keep = 2 ** len(kept)
    reduced = np.empty((dim_keep, dim_keep), dtype=complex)
    for i in range(dim_keep):
        for j in range(dim_keep):
            reduced[i, j] = np.sum(rho.matrix[groups[i], groups[j]])
    return reduced


@st.composite
def densities_and_keeps(draw):
    """A pure (one part) or mixed density on n <= 6 qubits, plus an ordered
    selection of qubits to keep."""
    n = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = gen.random(draw(st.integers(1, 3)))
    parts = [(float(w), random_state(gen, n)) for w in weights / weights.sum()]
    order = draw(st.permutations(range(n)))
    keep = order[: draw(st.integers(0, n))]
    return mixed_density(parts), keep


class TestPureDensity:
    def test_worked_matrix_literal(self):
        rho = pure_density(EXAMPLE)
        root3 = math.sqrt(3)
        expected = np.array(
            [[0.25, 0.25j * root3], [-0.25j * root3, 0.75]]
        )
        assert np.allclose(rho.matrix, expected, atol=1e-12)

    def test_ground_state(self):
        assert np.allclose(pure_density(basis_state(1, 0)).matrix, np.diag([1, 0]))

    def test_trace_one_and_rank_one(self, np_rng):
        rho = pure_density(random_state(np_rng, 2))
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        values = np.linalg.eigvalsh(rho.matrix)
        assert np.sum(values > 1e-9) == 1


class TestDensityCap:
    """13-qubit densities (1 GiB) are refused before any 4^n buffer exists."""

    @staticmethod
    def _refused(build, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense matrix was allocated before the cap check")

        for name in ("outer", "zeros"):
            monkeypatch.setattr(np, name, refuse)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="on 13 qubits needs 1,073,741,824 bytes"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_pure_density(self, monkeypatch):
        psi = basis_state(13, 0)
        self._refused(lambda: pure_density(psi), monkeypatch)

    def test_mixed_density(self, monkeypatch):
        parts = [(0.5, basis_state(13, 0)), (0.5, basis_state(13, 1))]
        self._refused(lambda: mixed_density(parts), monkeypatch)

    def test_validating_constructor(self, monkeypatch):
        # Refused on its dimension alone, before the matrix is looked at.
        self._refused(lambda: DensityMatrix(2**13, np.eye(2)), monkeypatch)


class TestDensityRefusals:
    """The properties ``DensityMatrix`` checks past the operator entry check
    (the entry check itself is in ``test_state.TestOperatorEntryCheck``)."""

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0.5, 0.1], [0.0, 0.5]], "density matrix is not Hermitian"),
            (np.eye(2), "density matrix has trace (2+0j), expected 1"),
            (np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -0.5"),
        ],
        ids=["hermitian", "trace", "negative"],
    )
    def test_property_refused(self, matrix, message):
        with pytest.raises(DomainError) as refused:
            DensityMatrix(2, matrix)
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "parts, message",
        [
            ([], "mixed state needs at least one component"),
            ([(-0.5, basis_state(1, 0)), (1.5, basis_state(1, 1))],
             "negative probability in [-0.5  1.5]"),
            ([(0.6, basis_state(1, 0)), (0.6, basis_state(1, 1))],
             "probabilities sum to 1.2, expected 1"),
            ([(math.nan, basis_state(1, 0))], "probabilities sum to nan, expected 1"),
            ([(0.5, basis_state(1, 0)), (0.5, basis_state(2, 0))],
             "mixed-state components must share a dimension"),
        ],
        ids=["empty", "negative", "sum", "nan", "dimensions"],
    )
    def test_mixture_refused(self, parts, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as refused:
                mixed_density(parts)
        assert str(refused.value) == message

    def test_trace_expectation_dimension_mismatch(self):
        with pytest.raises(DomainError, match="^dimension mismatch: density 4, observable 2$"):
            trace_expectation(pure_density(basis_state(2, 0)), POSITION)

    def test_trace_expectation_imaginary_residue(self):
        # Hermitian within tolerance per entry; the residues add up to 3.15e-9.
        near = np.ones((8, 8)) - np.eye(8) + 0.9e-9j * np.triu(np.ones((8, 8)), 1)
        uniform = StateVector(3, np.ones(8) / math.sqrt(8))
        with pytest.raises(DomainError, match="^trace expectation has imaginary residue 3.1"):
            trace_expectation(pure_density(uniform), Observable(8, near))


class TestMixedDensity:
    def test_worked_mixture_literal(self):
        rho = mixed_density([(0.25, EXAMPLE), (0.75, UNIFORM)])
        root3 = math.sqrt(3)
        expected = (
            np.array(
                [[7.0, 6.0 + 1j * root3], [6.0 - 1j * root3, 9.0]]
            )
            / 16.0
        )
        assert np.allclose(rho.matrix, expected, atol=1e-12)

    def test_single_part_is_pure(self, np_rng):
        psi = random_state(np_rng, 2)
        assert np.allclose(
            mixed_density([(1.0, psi)]).matrix, pure_density(psi).matrix, atol=1e-12
        )

    def test_equal_mixture_is_maximally_mixed(self):
        rho = mixed_density([(0.5, basis_state(1, 0)), (0.5, basis_state(1, 1))])
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_bad_probability_vector(self):
        with pytest.raises(DomainError):
            mixed_density([(0.6, basis_state(1, 0)), (0.6, basis_state(1, 1))])
        with pytest.raises(DomainError):
            mixed_density([(-0.5, basis_state(1, 0)), (1.5, basis_state(1, 1))])

    def test_spectrum_in_unit_interval(self, np_rng):
        parts = [(0.2, random_state(np_rng, 2)) for _ in range(4)]
        parts.append((0.2, random_state(np_rng, 2)))
        rho = mixed_density(parts)
        values = np.linalg.eigvalsh(rho.matrix)
        assert values[0] >= -1e-9 and values[-1] <= 1 + 1e-9


class TestTraceExpectation:
    def test_pure_worked_value(self):
        assert trace_expectation(pure_density(EXAMPLE), POSITION) == pytest.approx(
            1.75, abs=1e-12
        )

    def test_mixed_worked_value(self):
        rho = mixed_density([(0.25, EXAMPLE), (0.75, UNIFORM)])
        assert trace_expectation(rho, POSITION) == pytest.approx(1.5625, abs=1e-12)

    def test_identity_gives_one(self, np_rng):
        rho = mixed_density([(0.3, random_state(np_rng, 1)), (0.7, random_state(np_rng, 1))])
        assert trace_expectation(rho, Observable(2, np.eye(2))) == pytest.approx(1.0)

    def test_agrees_with_state_expectation(self, np_rng):
        for _ in range(20):
            psi = random_state(np_rng, 2)
            raw = np_rng.normal(size=(4, 4)) + 1j * np_rng.normal(size=(4, 4))
            obs = Observable(4, (raw + raw.conj().T) / 2)
            assert trace_expectation(pure_density(psi), obs) == pytest.approx(
                expectation(obs, psi), abs=1e-9
            )


class TestPartialTrace:
    def test_product_state_factorizes(self, np_rng):
        a = random_state(np_rng, 1)
        b = random_state(np_rng, 2)
        rho = pure_density(tensor(a, b))
        left = partial_trace(rho, [0])
        assert np.allclose(left.matrix, pure_density(a).matrix, atol=1e-12)
        right = partial_trace(rho, [1, 2])
        assert np.allclose(right.matrix, pure_density(b).matrix, atol=1e-12)

    def test_entangled_pair_reduces_to_maximally_mixed(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        for keep in ([0], [1]):
            reduced = partial_trace(pure_density(bell), keep)
            assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_numpy_integer_dim(self):
        rho = DensityMatrix(np.int64(4), np.eye(4) / 4)
        assert type(rho.dim) is int and rho.n_qubits == 2
        assert np.allclose(partial_trace(rho, [1]).matrix, np.eye(2) / 2)

    def test_keep_all_is_identity_operation(self, np_rng):
        rho = pure_density(random_state(np_rng, 2))
        assert np.allclose(partial_trace(rho, [0, 1]).matrix, rho.matrix)

    def test_keep_order_reorders_output_register(self, np_rng):
        a = random_state(np_rng, 1)
        b = random_state(np_rng, 1)
        c = random_state(np_rng, 1)
        rho = pure_density(tensor(tensor(a, b), c))
        swapped = partial_trace(rho, [2, 0])
        expected = pure_density(tensor(c, a))
        assert np.allclose(swapped.matrix, expected.matrix, atol=1e-12)

    def test_trace_preserving_and_valid(self, np_rng):
        for _ in range(10):
            parts = [(0.5, random_state(np_rng, 3)), (0.5, random_state(np_rng, 3))]
            rho = mixed_density(parts)
            reduced = partial_trace(rho, [2, 0])
            # DensityMatrix construction re-validates Hermiticity, trace, PSD.
            assert isinstance(reduced, DensityMatrix)
            assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60)
    @given(densities_and_keeps())
    def test_matches_index_pair_reference(self, case):
        rho, keep = case
        reduced = partial_trace(rho, keep)
        assert reduced.dim == 2 ** len(keep)
        assert np.max(np.abs(reduced.matrix - reference_partial_trace(rho, keep))) <= 1e-12

    def test_keep_all_in_new_order_permutes(self, np_rng):
        a, b = random_state(np_rng, 1), random_state(np_rng, 2)
        reordered = partial_trace(pure_density(tensor(a, b)), [1, 2, 0])
        expected = pure_density(tensor(b, a))
        assert np.allclose(reordered.matrix, expected.matrix, atol=1e-12)

    def test_invalid_positions(self):
        rho = pure_density(basis_state(2, 0))
        with pytest.raises(DomainError):
            partial_trace(rho, [0, 0])
