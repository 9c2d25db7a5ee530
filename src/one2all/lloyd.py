"""Default base clusterer: best-of-restarts kmeans++ plus weighted Lloyd.

Works only in squared Euclidean space, where the weighted mean minimizes
each cell's cost. `base_cluster(space, points, weights, k, seed)` is the
wrapper's default base; other spaces plug in their own with that signature.

Every Lloyd step runs through `_step`: the owners from `core._owners`, which
computes no distance where the GEMM screen leaves a row one candidate, then
one weighted `np.bincount` per coordinate, which adds each cell's rows in
row order. Distances are computed only to re-seed an empty cell.
`base_cluster` computes the weighted rows and the row norms once and reuses
them in every step; `lloyd_step` computes them for its one step.
"""

from __future__ import annotations

import numpy as np

from .core import (CentroidSet, MetricSpace, _fill, _operands, _owners, _row_norms, as_points,
                   as_weights, require_finite)
from .errors import UnsupportedSpaceError
from .kmeanspp import run_trace


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
    X, Q = _operands(space, X, Q)
    w = as_weights(w, X.shape[0])
    require_finite(points=X, centroids=Q)
    return _step(space, X, w, *_prepare(space, X, w), Q)


def _prepare(space: MetricSpace, X: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weighted rows X * w (column-major, so each column is contiguous)
    and the squared row norms, which every step on (X, w) reuses."""
    return np.multiply(X, w[:, None], order="F"), _row_norms(space, X)


def _step(space: MetricSpace, X: np.ndarray, w: np.ndarray, Xw: np.ndarray,
          norms: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """lloyd_step on checked arrays, with _prepare(space, X, w) passed in."""
    k = Q.shape[0]
    owner = _owners(X, Q, norms)
    wsum = np.bincount(owner, weights=w, minlength=k)
    sums = np.empty((k, X.shape[1]))
    for j in range(X.shape[1]):
        sums[:, j] = np.bincount(owner, weights=Xw[:, j], minlength=k)
    new = np.empty_like(sums)
    nonempty = wsum > 0
    new[nonempty] = sums[nonempty] / wsum[nonempty, None]
    empty = np.flatnonzero(~nonempty)
    if empty.size:
        dist = np.empty(X.shape[0])  # each row's distance to its owner, as nearest has it
        for j in np.flatnonzero(nonempty):
            _fill(space, X, Q[j], dist, np.flatnonzero(owner == j))
        farthest = np.argsort(-dist)[: empty.size]
        new[empty] = X[farthest]
    return new


def base_cluster(space: MetricSpace, X, w, k: int, seed: int = 0, restarts: int = 5,
                 lloyd_iters: int = 20) -> CentroidSet:
    """Best of `restarts` kmeans++ inits, refined by `lloyd_iters` steps."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if lloyd_iters < 0:
        raise ValueError("lloyd_iters must be >= 0")
    _require_sq_euclidean(space)
    X = as_points(X)
    w = as_weights(w, X.shape[0])
    k = min(k, X.shape[0])
    seeds = np.random.SeedSequence(seed).generate_state(restarts)
    best = None
    best_cost = np.inf
    for s in seeds:
        trace = run_trace(space, X, w, k, int(s))
        v = float(trace.prefix_costs[-1])
        if v < best_cost:
            best, best_cost = trace.centroids, v
    Q = np.asarray(best, dtype=np.float64)
    prepared = _prepare(space, X, w)
    for _ in range(lloyd_iters):
        Q2 = _step(space, X, w, *prepared, Q)
        if np.array_equal(Q2, Q):
            break
        Q = Q2
    return CentroidSet(Q)
