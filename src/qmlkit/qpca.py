"""Principal component analysis through density-matrix eigen-sampling.

The preprocessed rows (demeaned, optionally standardized, unit-normalized)
mix into the density matrix rho = R^T R / M = (1/M) sum |x_i><x_i|, the
covariance up to that normalization.  Components are drawn with probability
equal to their eigenvalue; each draw reads the eigenvalue back out of a
phase-estimation register run on the matrix exponential of rho.  On an
eigenvector that register's distribution is phase estimation's closed form
in the eigenvalue, so no unitary is built and no register simulated.  rho
has rank at most M and is never formed: its one eigensystem comes from the
smaller of R^T R / M and the Gram matrix R R^T / M (the method of
snapshots); the tests keep the dense rho and the simulated register as the
reference.  The eigensystem serves sampling and scores, which are overlaps
of rows with eigenvectors; a swap test on a real unit row and an eigenvector
has p0 = 1/2 + <x|phi>^2 / 2, so swap-test scores draw their shots at that
closed form and build no register.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import state
from .errors import ConfigError, DomainError
from .fourier import register_distribution
from .rng import RngStream
from .state import _check_n_qubits
from .subroutines import DEFAULT_SHOTS, _check_draw_budget, _check_shots, _estimate_p0, overlap_sq

DEFAULT_TIME = math.pi       # keeps phases at lambda/2 in [0, 1/2]: no wraparound
DEFAULT_CONTROLS = 8
_RANK_TOL = 1e-10    # of the largest eigenvalue: below it a lifted column is off by > 1e-6


@dataclass(frozen=True)
class PcaInput:
    rows: np.ndarray          # unit rows of the scaled data, zero-padded to 2^n columns


@dataclass(frozen=True)
class PcaModel:
    t: float
    eigenvalues: np.ndarray   # descending, those the data determine
    eigenvectors: np.ndarray  # orthonormal columns of 2^n amplitudes, matching order
    n_control: int


@dataclass(frozen=True)
class PcaSample:
    component_index: int
    lambda_measured: float
    counts: int


@dataclass(frozen=True)
class ScoreMatrix:
    scores: np.ndarray        # M x R, column j for the j-th largest eigenvalue


def preprocess(raw, standardize: bool = False) -> PcaInput:
    """Demean columns, optionally standardize them, and normalize rows, in the padded copy."""
    matrix = np.atleast_2d(np.asarray(raw, dtype=float))
    m, n_features = matrix.shape
    if m < 2:
        raise DomainError("need at least two rows")
    rows = np.zeros((m, 2 ** max(1, math.ceil(math.log2(n_features)))))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        scaled = np.subtract(matrix, matrix.mean(axis=0), out=rows[:, :n_features])
        if standardize:
            spread = scaled.std(axis=0)
            if not np.isfinite(spread).all():
                column = np.flatnonzero(~np.isfinite(spread))[0]
                raise DomainError(f"column {column}'s variance overflows the float range")
            if np.any(spread <= 1e-12):
                raise DomainError("cannot standardize a constant column")
            scaled /= spread
        norms = np.linalg.norm(scaled, axis=1)
    overflow = np.flatnonzero(~np.isfinite(norms))
    if overflow.size:
        raise DomainError(
            f"row {overflow[0]}'s squared norm after demeaning overflows the float range"
        )
    degenerate = np.nonzero(norms <= 1e-12)[0]
    if degenerate.size:
        raise DomainError(
            f"row {degenerate[0]} is zero after demeaning and has no amplitude encoding"
        )
    scaled /= norms[:, None]
    return PcaInput(rows=rows)


def _eigensystem(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvector columns of rho = R^T R / M, each
    column's first entry past 1e-12 positive, from ``eigh`` of the smaller of
    R^T R / M and R R^T / M; refused when both sides pass ``DENSE_MATRIX_CAP``
    qubits' dimensions.  A Gram eigenvector u lifts to R^T u, of norm
    sqrt(M lambda), divided by its measured norm so a small-lambda column
    stays unit; values at or below ``_RANK_TOL`` times the largest are dropped,
    which keeps rho's numerical rank (M - 1 for demeaned rows).  Lifted columns
    are orthonormal to about 1e-16 times lambda_max over the smallest kept value.
    """
    m, dim = rows.shape
    side, cap = min(m, dim), 2**state.DENSE_MATRIX_CAP
    if side > cap:
        raise ConfigError(f"{m:,} rows and {dim:,} padded features both pass the dense-matrix "
                          f"cap of {cap:,}: the eigensystem needs a {side:,} x {side:,} matrix")
    lifted = m < dim
    values, vectors = np.linalg.eigh((rows @ rows.T if lifted else rows.T @ rows) / m)
    order = np.argsort(values)[::-1]
    if lifted:
        order = order[values[order] > _RANK_TOL * values[order[0]]]
    values, vectors = values[order], vectors[:, order]
    if lifted:
        vectors = rows.T @ vectors
        vectors /= np.linalg.norm(vectors, axis=0)
    lead = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), np.arange(len(values))]
    vectors[:, lead < 0] *= -1.0
    return values, vectors


def build_model(
    input: PcaInput, t: float = DEFAULT_TIME, n_control: int = DEFAULT_CONTROLS
) -> PcaModel:
    values, vectors = _eigensystem(input.rows)
    return PcaModel(t=t, eigenvalues=values, eigenvectors=vectors, n_control=n_control)


def eigen_sample(model: PcaModel, m_samples: int, rng: RngStream) -> list[PcaSample]:
    """Draw components with probability equal to their eigenvalue and read
    each eigenvalue from the phase register as lambda = 2 pi theta / t.

    The register runs on exp(i rho t), whose eigenphase on component j is
    theta_j = lambda_j t / 2 pi.  On that eigenvector its distribution is
    ``fourier.register_distribution`` at the angle lambda_j t, one FFT that
    the component's draws share.  Returns one record per observed
    (component, register value) pair.
    """
    if m_samples < 1:
        raise DomainError("need at least one sample")
    # Refused before any draw: per draw, a uniform double, an int64 index and
    # its sorted copy (18 bytes measured at the peak).
    _check_draw_budget(24 * m_samples, f"{m_samples:,} eigen-sample draws")
    if model.t <= 0:
        raise DomainError("evolution time must be > 0")
    if model.n_control < 1:
        raise DomainError("need at least one control qubit")
    _check_n_qubits(model.n_control + model.eigenvectors.shape[0].bit_length() - 1)
    probs = np.clip(model.eigenvalues, 0.0, None)
    component_counts = rng.gen.multinomial(m_samples, probs / probs.sum())
    dim = 2**model.n_control
    samples: list[PcaSample] = []
    for j, count in enumerate(component_counts):
        if count == 0:
            continue
        register_probs = register_distribution(model.eigenvalues[j] * model.t, model.n_control)
        draws = rng.gen.choice(dim, size=count, p=register_probs / register_probs.sum())
        samples.extend(
            PcaSample(component_index=j, counts=int(n_hits),
                      lambda_measured=2.0 * math.pi * (int(a) / dim) / model.t)
            for a, n_hits in zip(*np.unique(draws, return_counts=True))
        )
    return samples


def extract_scores(
    model: PcaModel,
    input: PcaInput,
    r_components: int,
    mode: str = "exact",
    shots: int = DEFAULT_SHOTS,
    rng: RngStream | None = None,
) -> ScoreMatrix:
    """Scores s_i^(j) = <x_i | phi_j> for the top r components.

    Exact mode computes the overlaps directly.  Swap-test mode estimates the
    magnitude |s|^2 from control measurements and takes the sign from the
    exact overlap (the squared readout alone cannot recover it).  Each row
    must be a unit vector, whose swap test against a component has the
    control probability p0 = 1/2 + s^2 / 2; ``shots`` draws per (row,
    component) pair come at that p0 in row-major order, as one
    ``subroutines.swap_test`` per pair would draw them, and one row's draws
    are the unit the shot-memory budget refuses.
    """
    available = model.eigenvectors.shape[1]
    if not 1 <= r_components <= available:
        raise DomainError(f"components must be in [1, {available}], got {r_components}")
    if mode not in ("exact", "swaptest"):
        raise DomainError(f"unknown score mode {mode!r}")
    vectors = model.eigenvectors[:, :r_components]
    exact = input.rows @ vectors
    if mode == "exact":
        return ScoreMatrix(scores=exact)
    if rng is None:
        raise DomainError("swaptest mode requires an RngStream")
    # Real dot products per row: a complex copy of 300 x 16,384 rows takes 75 MiB.
    norm_sq = np.einsum("ij,ij->i", input.rows, input.rows)
    # Written so that a NaN norm fails the comparison and is rejected.
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= state.NORM_TOL))
    if bad.size:
        raise DomainError(f"row {bad[0]} not normalized: sum |c_i|^2 = {float(norm_sq[bad[0]])!r}")
    _check_shots(shots)
    p0_hat = _estimate_p0(0.5 + 0.5 * np.square(exact).ravel(), shots, rng, row=r_components)
    return ScoreMatrix(
        scores=np.copysign(np.sqrt(overlap_sq(p0_hat)).reshape(exact.shape), exact)
    )
