"""Support vector machine trained by quantum minimization over a discretized
dual problem.

Each Lagrange multiplier is encoded in a fixed number of bits on a uniform
grid [0, alpha_max]; the balance constraint sum(alpha_i y_i) = 0 enters the
searched objective as a squared penalty so the minimum-finding oracle stays
a plain threshold predicate.  After the quantum search a host-side polish
pass descends over immediate grid neighbors, guarding the probabilistic miss
without changing the search's asymptotics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .minimizer import ObjectiveFn, minimize
from .rng import RngStream

GRID_BITS_CAP = 20   # dense table of 2^bits objective values
_TABLE_CHUNK = 2**16  # grid indices whose multipliers are built at once


@dataclass(frozen=True)
class LabeledDataset:
    vectors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        y = np.asarray(self.labels, dtype=float)
        if y.shape != (v.shape[0],):
            raise DomainError(f"{v.shape[0]} rows but {y.shape} labels")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise DomainError("labels must be exactly -1 or +1")
        v.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "labels", y)

    @property
    def m(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class KernelSpec:
    kind: str                       # linear | gaussian
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian"):
            raise DomainError(f"unknown kernel {self.kind!r}")
        if self.kind != "gaussian" and self.gamma is not None:
            raise DomainError(
                f"gamma is read only by the gaussian kernel, got gamma={self.gamma} "
                f"with the {self.kind} kernel"
            )
        if self.gamma is not None and not np.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite, got {self.gamma}")
        if self.kind == "gaussian" and (self.gamma is None or self.gamma <= 0):
            raise DomainError("gaussian kernel requires gamma > 0")


@dataclass(frozen=True)
class AlphaGrid:
    """Uniform multiplier grid: values j * alpha_max / (2^bits - 1)."""

    bits_per_alpha: int
    alpha_max: float = 4.0
    penalty_coeff: float | None = None    # None -> spectral default at solve time

    def __post_init__(self):
        if self.bits_per_alpha < 1:
            raise DomainError("need at least one bit per multiplier")
        if not 0 < self.alpha_max < np.inf:
            raise DomainError(f"alpha_max must be finite and > 0, got {self.alpha_max}")
        if self.penalty_coeff is not None and not 0 <= self.penalty_coeff < np.inf:
            raise DomainError(f"penalty_coeff must be finite and >= 0, got {self.penalty_coeff}")

    @property
    def levels(self) -> int:
        return 2**self.bits_per_alpha

    @property
    def step(self) -> float:
        return self.alpha_max / (self.levels - 1)


@dataclass(frozen=True)
class SvmSolution:
    alphas: np.ndarray
    theta: np.ndarray | None
    b: float
    dual_value: float
    support_indices: list[int]


def kernel_matrix(data: LabeledDataset, spec: KernelSpec) -> np.ndarray:
    x = data.vectors
    if spec.kind == "linear":
        return x @ x.T
    sq = np.sum(x**2, axis=1)
    dist_sq = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    return np.exp(-spec.gamma * np.clip(dist_sq, 0.0, None))


def dual_objective(alphas, data: LabeledDataset, kernel: np.ndarray) -> float:
    """(1/2) sum_ij a_i a_j y_i y_j K_ij - sum_i a_i."""
    a = np.asarray(alphas, dtype=float)
    if a.shape != (data.m,):
        raise DomainError(f"expected {data.m} multipliers, got shape {a.shape}")
    if np.any(a < 0):
        raise DomainError("multipliers must be nonnegative")
    q = (data.labels[:, None] * data.labels[None, :]) * kernel
    return float(0.5 * a @ q @ a - a.sum())


def _default_penalty(kernel: np.ndarray) -> float:
    eigenvalues = np.linalg.eigvalsh(kernel)
    coeff = 10.0 * abs(float(eigenvalues[0]))
    if coeff < 1e-9:
        # A singular kernel would leave the balance constraint unenforced;
        # fall back to the spectral radius.
        coeff = 10.0 * max(1.0, float(np.max(np.abs(eigenvalues))))
    return coeff


def _penalized_table(
    data: LabeledDataset, kernel: np.ndarray, grid: AlphaGrid, penalty: float
) -> np.ndarray:
    """The penalized dual at every grid index, built ``_TABLE_CHUNK``
    indices at a time: a whole 20-bit grid of ten multipliers would hold
    2^20 x 10 int64 levels and their float multipliers (80 MiB each) at
    once, while each entry needs only its own row."""
    total_bits = data.m * grid.bits_per_alpha
    if total_bits > GRID_BITS_CAP:
        raise DomainError(
            f"{data.m} multipliers at {grid.bits_per_alpha} bits exceed the "
            f"{GRID_BITS_CAP}-bit search cap"
        )
    shifts = [(data.m - 1 - i) * grid.bits_per_alpha for i in range(data.m)]
    q = (data.labels[:, None] * data.labels[None, :]) * kernel
    table = np.empty(2**total_bits)
    for start in range(0, table.size, _TABLE_CHUNK):
        indices = np.arange(start, min(start + _TABLE_CHUNK, table.size), dtype=np.int64)
        levels = np.stack([(indices >> s) & (grid.levels - 1) for s in shifts], axis=1)
        alphas = levels * grid.step
        quad = 0.5 * np.einsum("ij,jk,ik->i", alphas, q, alphas)
        balance = alphas @ data.labels
        table[start : start + indices.size] = quad - alphas.sum(axis=1) + penalty * balance**2
    return table


def _neighbor_descent(index: int, table: np.ndarray, m: int, bits: int) -> int:
    """Greedy descent over coordinate +-1 grid steps until locally optimal."""
    levels = 2**bits
    current = index
    improved = True
    while improved:
        improved = False
        for slot in range(m):
            shift = (m - 1 - slot) * bits
            level = (current >> shift) & (levels - 1)
            for delta in (-1, 1):
                if not 0 <= level + delta < levels:
                    continue
                candidate = current + delta * (1 << shift)
                if table[candidate] < table[current]:
                    current = candidate
                    improved = True
    return current


def solve(
    data: LabeledDataset, spec: KernelSpec, grid: AlphaGrid, rng: RngStream
) -> SvmSolution:
    """Minimize the penalized dual over the multiplier grid.

    Runs quantum minimum finding on the full grid, polishes the winner by
    neighbor descent, and recovers the separating direction (linear kernel)
    and the bias from the support vectors.  The reported dual value excludes
    the penalty term.
    """
    if len(set(data.labels.tolist())) < 2:
        raise DomainError("training data contains a single class")
    kernel = kernel_matrix(data, spec)
    penalty = grid.penalty_coeff if grid.penalty_coeff is not None else _default_penalty(kernel)
    table = _penalized_table(data, kernel, grid, penalty)
    result = minimize(ObjectiveFn.from_table(table), rng)
    best = _neighbor_descent(
        int(result.argmin_bits, 2), table, data.m, grid.bits_per_alpha
    )

    shifts = [(data.m - 1 - i) * grid.bits_per_alpha for i in range(data.m)]
    alphas = np.array(
        [((best >> s) & (grid.levels - 1)) * grid.step for s in shifts]
    )
    support = [i for i in range(data.m) if alphas[i] > 0]
    theta = None
    if spec.kind == "linear":
        theta = (alphas * data.labels) @ data.vectors
    if support:
        residuals = [
            float((alphas * data.labels) @ kernel[:, i] - data.labels[i])
            for i in support
        ]
        b = float(np.mean(residuals))
    else:
        b = 0.0
    return SvmSolution(
        alphas=alphas,
        theta=theta,
        b=b,
        dual_value=dual_objective(alphas, data, kernel),
        support_indices=support,
    )


def _kernel_against(x, data: LabeledDataset, spec: KernelSpec) -> np.ndarray:
    point = np.asarray(x, dtype=float)
    if spec.kind == "linear":
        return data.vectors @ point
    return np.exp(-spec.gamma * np.sum((data.vectors - point) ** 2, axis=1))


def decision_value(model: SvmSolution, data: LabeledDataset, spec: KernelSpec, x) -> float:
    """The score sum_i a_i y_i K(x_i, x) - b."""
    if model.alphas.shape != (data.m,):
        raise DomainError("model does not match the dataset")
    return float((model.alphas * data.labels) @ _kernel_against(x, data, spec) - model.b)


def predict(model: SvmSolution, data: LabeledDataset, spec: KernelSpec, x) -> int:
    """Class of ``x``: the sign of its ``decision_value``, with ties to +1."""
    return 1 if decision_value(model, data, spec, x) >= 0 else -1
