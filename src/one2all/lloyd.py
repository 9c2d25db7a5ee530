"""Default base clusterer: kmeans++, LocalSearch++ swaps, weighted Lloyd.

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
from .kmeanspp import _draw_index, run_trace

_LLOYD_ITERS = 20  # most Lloyd steps base_cluster takes after the swaps


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
    w = np.ones(X.shape[0]) if w is None else w  # every Lloyd sum reads an array
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


def _swaps(space: MetricSpace, X: np.ndarray, w: np.ndarray, idx: np.ndarray, swaps: int,
           rng: np.random.Generator) -> np.ndarray:
    """LocalSearch++ (Lattanzi and Sohler, ICML 2019) on the centroids X[idx]:
    each swap draws p by w * d(p, Q) and replaces the centroid whose
    replacement costs least, if the cost falls. Returns the new indices.

    dist has one `_fill` column per centroid. With d1 a row's nearest
    distance, a a centroid at it and d2 the nearest of the others, replacing
    centroid i changes the cost by the sum of w (min(d2, d_p) - min(d1, d_p))
    over rows with a = i: one bincount scores every i.
    """
    idx = idx.copy()
    m, k = X.shape[0], idx.size
    dist = np.empty((m, k), order="F")
    for j in range(k):
        _fill(space, X, X[idx[j]], dist[:, j])
    d_p = np.empty(m)
    taken = True
    for _ in range(swaps):
        if taken:
            owner = dist.argmin(axis=1)
            d1 = dist.min(axis=1)
            d2 = dist.copy(order="F")
            d2[np.arange(m), owner] = np.inf
            d2 = d2.min(axis=1)
            current = float(np.sum(w * d1))
        if not current > 0.0:  # every row is a centroid: nothing to draw
            break
        p = _draw_index(rng, w * d1)
        _fill(space, X, X[p], d_p)
        stay = np.minimum(d1, d_p)
        moved = np.minimum(d2, d_p)
        i = int(np.argmin(np.bincount(owner, weights=w * (moved - stay), minlength=k)))
        # summed as the cost is, so no rounding error takes a swap
        taken = float(np.sum(w * np.where(owner == i, moved, stay))) < current
        if taken:
            dist[:, i] = d_p
            idx[i] = p
    return idx


def base_cluster(space: MetricSpace, X, w, k: int, seed: int = 0) -> CentroidSet:
    """One kmeans++ seeding, 2k LocalSearch++ swaps, then up to `_LLOYD_ITERS` Lloyd steps."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_sq_euclidean(space)
    X = as_points(X)
    w = as_weights(w, X.shape[0])
    w = np.ones(X.shape[0]) if w is None else w  # the wrapper passes w', never None
    k = min(k, X.shape[0])
    trace_seed, swap_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    idx = run_trace(space, X, w, k, trace_seed).centroid_indices
    Q = X[_swaps(space, X, w, idx, 2 * k, np.random.default_rng(swap_seed))]
    prepared = _prepare(space, X, w)
    for _ in range(_LLOYD_ITERS):
        Q2 = _step(space, X, w, *prepared, Q)
        if np.array_equal(Q2, Q):
            break
        Q = Q2
    return CentroidSet(Q)
