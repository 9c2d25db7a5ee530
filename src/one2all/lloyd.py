"""Default base clusterer: best-of-restarts kmeans++ plus weighted Lloyd.

Works only in squared Euclidean space, where the weighted mean minimizes
each cell's cost. Other spaces must plug in their own base clusterer.

Every Lloyd step runs through `_step`: the nearest-centroid kernel, then one
weighted `np.bincount` per coordinate, which adds each cell's rows in row
order. `base_cluster` computes the weighted rows and the row norms once and
reuses them in every step; `lloyd_step` computes them for its one step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CentroidSet, MetricSpace, _lower, as_points, as_weights, require_finite
from .errors import UnsupportedSpaceError
from .kmeanspp import run_trace


@dataclass
class BaseClustererConfig:
    k: int
    restarts: int = 5
    lloyd_iters: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.lloyd_iters < 0:
            raise ValueError("lloyd_iters must be >= 0")


def _require_sq_euclidean(space: MetricSpace):
    if space.kind != "euclidean" or space.power != 2.0:
        raise UnsupportedSpaceError(
            "centroid averaging needs squared Euclidean distance"
        )


def lloyd_step(space: MetricSpace, X, w, Q) -> np.ndarray:
    """One Lloyd iteration: each centroid moves to its cell's weighted mean.

    A centroid whose cell is empty is re-seeded at the point currently
    farthest from its owner (successive farthest points when several cells
    are empty), so the centroid count never shrinks.
    """
    _require_sq_euclidean(space)
    X = as_points(X)
    Q = as_points(Q)
    w = as_weights(w, X.shape[0])
    require_finite(points=X, centroids=Q)
    if X.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: points d={X.shape[1]}, centroids d={Q.shape[1]}")
    return _step(X, w, *_prepare(X, w), Q)


def _prepare(X: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weighted rows X * w (column-major, so each column is contiguous)
    and the squared row norms, which every step on (X, w) reuses."""
    return np.multiply(X, w[:, None], order="F"), np.einsum("ij,ij->i", X, X)


def _step(X: np.ndarray, w: np.ndarray, Xw: np.ndarray, norms: np.ndarray,
          Q: np.ndarray) -> np.ndarray:
    """lloyd_step on checked arrays, with _prepare(X, w) passed in."""
    k = Q.shape[0]
    dist = np.full(X.shape[0], np.inf)
    owner = np.zeros(X.shape[0], dtype=np.intp)
    _lower(X, Q, 0, dist, owner, norms)
    wsum = np.bincount(owner, weights=w, minlength=k)
    sums = np.empty((k, X.shape[1]))
    for j in range(X.shape[1]):
        sums[:, j] = np.bincount(owner, weights=Xw[:, j], minlength=k)
    new = np.empty_like(sums)
    nonempty = wsum > 0
    new[nonempty] = sums[nonempty] / wsum[nonempty, None]
    empty = np.flatnonzero(~nonempty)
    if empty.size:
        farthest = np.argsort(-dist)[: empty.size]
        new[empty] = X[farthest]
    return new


def base_cluster(space: MetricSpace, X, w, cfg: BaseClustererConfig) -> CentroidSet:
    """Best of cfg.restarts kmeans++ inits, refined by cfg.lloyd_iters steps."""
    _require_sq_euclidean(space)
    X = as_points(X)
    w = as_weights(w, X.shape[0])
    require_finite(points=X)
    k = min(cfg.k, X.shape[0])
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.restarts)
    best = None
    best_cost = np.inf
    for s in seeds:
        trace = run_trace(space, X, w, k, int(s))
        v = float(trace.prefix_costs[-1])
        if v < best_cost:
            best, best_cost = trace.centroids, v
    Q = np.asarray(best, dtype=np.float64)
    prepared = _prepare(X, w)
    for _ in range(cfg.lloyd_iters):
        Q2 = _step(X, w, *prepared, Q)
        if np.array_equal(Q2, Q):
            break
        Q = Q2
    return CentroidSet(Q)


def make_base(cfg: BaseClustererConfig):
    """Adapt a config to the wrapper's base-clusterer interface."""

    def base(space: MetricSpace, X, w) -> CentroidSet:
        return base_cluster(space, X, w, cfg)

    return base
