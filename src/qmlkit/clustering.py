"""Lloyd-style k-means and k-medians with quantum distance estimation.

Assignment distances come from the distance swap test's p0, read in
closed form from each pair's row differences (exact or shot-estimated), a
whole Lloyd pass of (row, centroid) pairs per batch of at most
``MAX_BATCH_PAIRS``; the nearest-centroid choice is either a host argmin
or quantum minimum finding over the centroid indices.
Both algorithms run one Lloyd loop (``_lloyd``) and differ only in the
centroid update and the stop rule: k-means takes member means and stops
when no centroid moves by ``eta`` or more; k-medians takes the quantum
set-median (so its centroids are always dataset rows) and stops when no
centroid changes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .minimizer import argmin_via_search
from .rng import RngStream
from .subroutines import (
    DEFAULT_SHOTS,
    MAX_BATCH_PAIRS,
    _row_norms,
    distance_p0,
    estimate_dist_sq,
    median_calc,
)

ZERO_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Row-per-example matrix; every row must have an amplitude encoding
    (``subroutines._row_norms``)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if v.size == 0:
            raise DomainError("empty dataset")
        _row_norms(v)
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_features(self) -> int:
        return self.vectors.shape[1]


@dataclass
class ClusterConfig:
    k: int
    max_iterations: int = 100
    eta: float = 1e-4
    distance_mode: str = "exact"           # exact | shots
    shots: int = DEFAULT_SHOTS
    use_grover_argmin: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be >= 1")
        if self.max_iterations < 1:
            raise DomainError(f"iteration budget must be >= 1, got {self.max_iterations}")
        if not 0 < self.eta < np.inf:
            raise DomainError(f"eta must be finite and > 0, got {self.eta}")
        if self.distance_mode not in ("exact", "shots"):
            raise DomainError(f"unknown distance mode {self.distance_mode!r}")


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    iterations: int
    converged: bool
    trace: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _init_centroids(data: Dataset, k: int, rng: RngStream) -> np.ndarray:
    rows = rng.gen.permutation(data.m)[:k]
    return data.vectors[np.sort(rows)].copy()


def _assign(
    data: Dataset,
    centroids: np.ndarray,
    cfg: ClusterConfig,
    rng: RngStream,
    warnings: list[str],
) -> np.ndarray:
    """Nearest-centroid index of every row.  The (row, centroid) pairs run
    in row-major order, in distance batches of whole rows of at most
    ``MAX_BATCH_PAIRS`` pairs (a pass of up to 2^16 / k rows is one batch).
    """
    # A mean update can produce the zero vector, which has no amplitude
    # encoding; distances to it fall back to host arithmetic.
    zero = np.linalg.norm(centroids, axis=1) <= ZERO_NORM_TOL
    for j in np.flatnonzero(zero):
        warnings.append(f"centroid {j} has zero norm; host-side distance used")
    step = max(1, MAX_BATCH_PAIRS // len(centroids))
    return np.concatenate(
        [
            _assign_rows(data.vectors[start : start + step], centroids, zero, cfg, rng)
            for start in range(0, data.m, step)
        ]
    )


def _assign_rows(
    rows: np.ndarray, centroids: np.ndarray, zero: np.ndarray, cfg: ClusterConfig, rng: RngStream
) -> np.ndarray:
    """Nearest-centroid indices of ``rows`` from one distance batch.  The
    search-based argmin draws from the stream between rows, so with it each
    row's shot estimates are drawn just before its argmin, as one batch per
    row would draw them."""
    live = ~zero
    n_live = int(np.count_nonzero(live))
    dists = np.empty((len(rows), len(centroids)))
    dists[:, zero] = np.sum((rows[:, None, :] - centroids[zero]) ** 2, axis=2)
    pairs = (np.repeat(np.arange(len(rows)), n_live), np.tile(np.arange(n_live), len(rows)))
    z, p0 = distance_p0(rows, centroids[live], pairs)
    draw_rng = rng if cfg.distance_mode == "shots" else None
    if not cfg.use_grover_argmin:
        dist_sq = estimate_dist_sq(z, p0, cfg.shots, draw_rng, n_live)
        dists[:, live] = dist_sq.reshape(len(rows), -1)
        return np.argmin(dists, axis=1)
    assignments = np.empty(len(rows), dtype=int)
    for i in range(len(rows)):
        row = slice(i * n_live, (i + 1) * n_live)
        dists[i, live] = estimate_dist_sq(z[row], p0[row], cfg.shots, draw_rng)
        assignments[i] = argmin_via_search(dists[i], rng)
    return assignments


def _repair_empty(
    data: Dataset,
    centroids: np.ndarray,
    assignments: np.ndarray,
    cfg: ClusterConfig,
    rng: RngStream,
    warnings: list[str],
) -> None:
    for j in range(cfg.k):
        if np.any(assignments == j):
            continue
        # Reseed with the point farthest from its currently assigned centroid.
        gaps = np.sum((data.vectors - centroids[assignments]) ** 2, axis=1)
        farthest = int(np.argmax(gaps))
        centroids[j] = data.vectors[farthest]
        assignments[farthest] = j
        warnings.append(f"empty cluster {j} reseeded with row {farthest}")


def _within_cluster_cost(data: Dataset, centroids: np.ndarray, assignments: np.ndarray) -> float:
    return float(
        np.sum((data.vectors - centroids[assignments]) ** 2)
    )


def _lloyd(
    data: Dataset,
    cfg: ClusterConfig,
    rng: RngStream,
    initial_centroids: np.ndarray | None,
    update: Callable[[np.ndarray], np.ndarray],
    settled: Callable[[np.ndarray, np.ndarray, float], bool],
) -> ClusterModel:
    """The Lloyd iteration both clusterings share: assign every row to its
    nearest centroid, reseed empty clusters, replace each centroid by
    ``update(members)``, and stop once ``settled(old, new, max_shift)``
    holds or the iteration budget runs out.
    """
    if cfg.k > data.m:
        raise DomainError(f"k = {cfg.k} exceeds the {data.m} data rows")
    if initial_centroids is None:
        centroids = _init_centroids(data, cfg.k, rng)
    else:
        centroids = np.array(initial_centroids, dtype=float)
        expected = (cfg.k, data.n_features)
        if centroids.shape != expected:
            raise DomainError(
                f"initial centroids have shape {centroids.shape}, expected {expected}"
            )
    warnings: list[str] = []
    trace: list[dict] = []
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        assignments = _assign(data, centroids, cfg, rng, warnings)
        _repair_empty(data, centroids, assignments, cfg, rng, warnings)
        new_centroids = centroids.copy()
        for j in range(cfg.k):
            new_centroids[j] = update(data.vectors[assignments == j])
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        converged = settled(centroids, new_centroids, shift)
        centroids = new_centroids
        trace.append(
            {
                "iteration": iterations,
                "max_centroid_shift": shift,
                "within_cluster_cost": _within_cluster_cost(data, centroids, assignments),
            }
        )
        if converged:
            break
    return ClusterModel(
        k=cfg.k,
        centroids=centroids,
        assignments=assignments,
        iterations=iterations,
        converged=converged,
        trace=trace,
        warnings=warnings,
    )


def kmeans(
    data: Dataset,
    cfg: ClusterConfig,
    rng: RngStream,
    initial_centroids: np.ndarray | None = None,
) -> ClusterModel:
    """Iterate nearest-centroid assignment and mean updates until every
    centroid moves less than ``cfg.eta`` or the iteration budget runs out.
    """
    return _lloyd(
        data, cfg, rng, initial_centroids,
        update=lambda members: members.mean(axis=0),
        settled=lambda old, new, shift: shift < cfg.eta,
    )


def kmedians(
    data: Dataset,
    cfg: ClusterConfig,
    rng: RngStream,
    initial_centroids: np.ndarray | None = None,
) -> ClusterModel:
    """Like k-means, but centroids are quantum set-medians of their members,
    and convergence means the centroids stopped changing exactly.
    """
    return _lloyd(
        data, cfg, rng, initial_centroids,
        update=lambda members: median_calc(list(members), cfg.shots, rng, cfg.distance_mode)[1],
        settled=lambda old, new, shift: np.array_equal(new, old),
    )
