"""Principal component analysis through density-matrix eigen-sampling.

The preprocessed rows (demeaned, optionally standardized, unit-normalized)
mix into the density matrix rho = (1/M) sum |x_i><x_i|, the covariance up to
that normalization.  Components are drawn with probability equal to their
eigenvalue; each draw reads the eigenvalue back out of a phase-estimation
register run on the matrix exponential of rho, and scores are overlaps of
rows with sampled eigenvectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix
from .errors import DomainError
from .fourier import control_distribution
from .gates import GateMatrix
from .rng import RngStream
from .state import NORM_TOL, StateVector
from .subroutines import (
    MAX_BATCH_PAIRS,
    _check_draw_budget,
    _check_shots,
    _estimate_p0,
    _swap_test_p0,
    overlap_sq,
)

DEFAULT_TIME = math.pi       # keeps phases at lambda/2 in [0, 1/2]: no wraparound
DEFAULT_CONTROLS = 8


@dataclass(frozen=True)
class PcaInput:
    raw: np.ndarray
    demeaned: np.ndarray
    rows: np.ndarray          # demeaned (optionally standardized), unit rows
    standardize: bool


@dataclass(frozen=True)
class PcaModel:
    rho: DensityMatrix
    t: float
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # orthonormal columns, matching order
    n_control: int


@dataclass(frozen=True)
class PcaSample:
    component_index: int
    lambda_measured: float
    eigvec: StateVector
    counts: int


@dataclass(frozen=True)
class ScoreMatrix:
    scores: np.ndarray        # M x R, column j for the j-th largest eigenvalue


def preprocess(raw, standardize: bool = False) -> PcaInput:
    """Demean columns, optionally standardize them, and normalize every row."""
    matrix = np.atleast_2d(np.asarray(raw, dtype=float))
    if matrix.shape[0] < 2:
        raise DomainError("need at least two rows")
    demeaned = matrix - matrix.mean(axis=0)
    scaled = demeaned
    if standardize:
        spread = demeaned.std(axis=0)
        if np.any(spread <= 1e-12):
            raise DomainError("cannot standardize a constant column")
        scaled = demeaned / spread
    norms = np.linalg.norm(scaled, axis=1)
    degenerate = np.nonzero(norms <= 1e-12)[0]
    if degenerate.size:
        raise DomainError(
            f"row {degenerate[0]} is zero after demeaning and has no amplitude encoding"
        )
    return PcaInput(
        raw=matrix, demeaned=demeaned, rows=scaled / norms[:, None], standardize=standardize
    )


def _padded_rows(input: PcaInput) -> np.ndarray:
    n_features = input.rows.shape[1]
    dim = 2 ** max(1, math.ceil(math.log2(n_features)))
    padded = np.zeros((input.rows.shape[0], dim))
    padded[:, :n_features] = input.rows
    return padded


def build_density(input: PcaInput) -> DensityMatrix:
    """rho = (1/M) sum of outer products of the encoded rows."""
    rows = _padded_rows(input)
    dim = rows.shape[1]
    rho = np.zeros((dim, dim), dtype=complex)
    for row in rows:
        rho += np.outer(row, row)
    return DensityMatrix(dim, rho / rows.shape[0])


def _oriented_eigensystem(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    values, vectors = rho.eigensystem()
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = vectors[:, order]
    for j in range(vectors.shape[1]):
        column = vectors[:, j]
        nonzero = np.nonzero(np.abs(column) > 1e-12)[0]
        if nonzero.size and column[nonzero[0]].real < 0:
            vectors[:, j] = -column
    return values, vectors


def build_model(
    input: PcaInput, t: float = DEFAULT_TIME, n_control: int = DEFAULT_CONTROLS
) -> PcaModel:
    rho = build_density(input)
    values, vectors = _oriented_eigensystem(rho)
    return PcaModel(
        rho=rho, t=t, eigenvalues=values, eigenvectors=vectors, n_control=n_control
    )


def evolution_unitary(rho: DensityMatrix, t: float) -> GateMatrix:
    """exp(-i rho t) from the eigendecomposition of rho."""
    if t <= 0:
        raise DomainError("evolution time must be > 0")
    values, vectors = rho.eigensystem()
    phases = np.exp(-1j * values * t)
    return GateMatrix._trusted(rho.dim, (vectors * phases) @ vectors.conj().T)


def eigen_sample(model: PcaModel, m_samples: int, rng: RngStream) -> list[PcaSample]:
    """Draw components with probability equal to their eigenvalue and read
    each eigenvalue from the phase register as lambda = 2 pi theta / t.

    Phase estimation runs on the conjugate transpose of exp(-i rho t), whose
    eigenphases are +lambda t / 2 pi, so the register converts directly.
    Draws of one component share a circuit; its register distribution is
    computed once and the draws are sampled from it.  Returns one record per
    observed (component, register value) pair.
    """
    if m_samples < 1:
        raise DomainError("need at least one sample")
    # Refused before any draw: per draw, a uniform double, an int64 index and
    # its sorted copy (18 bytes measured at the peak).
    _check_draw_budget(24 * m_samples, f"{m_samples:,} eigen-sample draws")
    probs = np.clip(model.eigenvalues, 0.0, None)
    component_counts = rng.gen.multinomial(m_samples, probs / probs.sum())
    forward = evolution_unitary(model.rho, model.t).dagger()
    dim = 2**model.n_control
    samples: list[PcaSample] = []
    for j, count in enumerate(component_counts):
        if count == 0:
            continue
        eigvec = StateVector(model.rho.n_qubits, model.eigenvectors[:, j].astype(complex))
        register_probs = control_distribution(forward, eigvec, model.n_control)
        draws = rng.gen.choice(dim, size=count, p=register_probs / register_probs.sum())
        for a, n_hits in zip(*np.unique(draws, return_counts=True)):
            samples.append(
                PcaSample(
                    component_index=j,
                    lambda_measured=2.0 * math.pi * (int(a) / dim) / model.t,
                    eigvec=eigvec,
                    counts=int(n_hits),
                )
            )
    return samples


def _check_unit_rows(amps: np.ndarray, what: str) -> None:
    """The ``StateVector`` norm check on every row of ``amps`` at once."""
    norm_sq = np.einsum("ij,ij->i", amps.conj(), amps).real
    # Written so that a NaN norm fails the comparison and is rejected.
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= NORM_TOL))
    if bad.size:
        raise DomainError(
            f"{what} {bad[0]} not normalized: sum |c_i|^2 = {float(norm_sq[bad[0]])!r}"
        )


def extract_scores(
    model: PcaModel,
    input: PcaInput,
    r_components: int,
    mode: str = "exact",
    shots: int = 4096,
    rng: RngStream | None = None,
) -> ScoreMatrix:
    """Scores s_i^(j) = <x_i | phi_j> for the top r components.

    Exact mode computes the overlaps directly.  Swap-test mode estimates the
    magnitude |s|^2 from control measurements and takes the sign from the
    exact overlap (the squared readout alone cannot recover it).  The
    (row, component) pairs run through the swap-test kernel in row-major
    order, in batches of whole rows of at most ``MAX_BATCH_PAIRS`` pairs;
    each row's ``shots`` draws per pair come in that order, as one batch
    per row would draw them, and one row's draws are the unit the
    shot-memory budget refuses.
    """
    available = model.eigenvectors.shape[1]
    if not 1 <= r_components <= available:
        raise DomainError(f"components must be in [1, {available}], got {r_components}")
    if mode not in ("exact", "swaptest"):
        raise DomainError(f"unknown score mode {mode!r}")
    rows = _padded_rows(input)
    vectors = model.eigenvectors[:, :r_components]
    exact = rows @ vectors.real
    if mode == "exact":
        return ScoreMatrix(scores=exact)
    if rng is None:
        raise DomainError("swaptest mode requires an RngStream")
    row_amps = rows.astype(complex)
    eigvecs = np.ascontiguousarray(vectors.T, dtype=complex)
    _check_unit_rows(eigvecs, "eigenvector")
    _check_unit_rows(row_amps, "row")
    _check_shots(shots)
    scores = np.empty_like(exact)
    step = max(1, MAX_BATCH_PAIRS // r_components)
    for start in range(0, len(rows), step):
        block = row_amps[start : start + step]
        exact_p0 = _swap_test_p0(
            np.repeat(block, r_components, axis=0), np.tile(eigvecs, (len(block), 1))
        )
        p0_hat = _estimate_p0(exact_p0, shots, rng, row=r_components).reshape(len(block), -1)
        scores[start : start + step] = np.copysign(
            np.sqrt(overlap_sq(p0_hat)), exact[start : start + step]
        )
    return ScoreMatrix(scores=scores)
