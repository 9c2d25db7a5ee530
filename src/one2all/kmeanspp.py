"""Weighted kmeans++ (D²) seeding that keeps the whole centroid trace.

The wrapper and the oracle trace a uniform subsample S0 of the data
(`subsample_trace`): its prefix costs estimate the full data's v_i, and the
prefix they pick is then assigned over every row in one exact pass
(`core.nearest`). The base clusterer runs a trace of its own on each sample
to seed from. A trace keeps its centroids and prefix costs; `replay`
rebuilds each prefix's assignment on the trace's own rows by running the
trace's step (`_step`) again, so its states are the trace's by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .core import MetricSpace, _fill, _lower, as_points, as_weights, require_finite

_SUBSAMPLE = 10_000  # rows of S0, the subsample the wrapper and the oracle trace


@dataclass
class KmeansPPTrace:
    """Centroids m_1..m_ell, rows centroid_indices of points, with v_i = the
    cost of the first i of them over (points, weights)."""

    space: MetricSpace = field(repr=False)
    points: np.ndarray = field(repr=False)
    weights: np.ndarray | None = field(repr=False)
    centroid_indices: np.ndarray
    centroids: np.ndarray = field(repr=False)
    prefix_costs: np.ndarray

    @property
    def ell(self) -> int:
        return int(self.centroid_indices.shape[0])

    def prefix(self, i: int) -> np.ndarray:
        """Centroids of the length-i prefix, 1 <= i <= ell."""
        if not 1 <= i <= self.ell:
            raise IndexError(f"prefix length {i} outside 1..{self.ell}")
        return self.centroids[:i]


def _draw_index(rng: np.random.Generator, mass: np.ndarray, cum: np.ndarray | None = None
                ) -> int:
    """One categorical draw proportional to mass (one uniform, prefix sums).

    cum, if given, is an array like mass that receives the prefix sums.
    """
    cum = np.cumsum(mass, out=cum)
    r = rng.random() * cum[-1]
    idx = int(np.searchsorted(cum, r, side="right"))
    idx = min(idx, mass.shape[0] - 1)
    while mass[idx] == 0.0:  # fp edge: never land on a zero-mass point
        idx -= 1
    return idx


def _step(space: MetricSpace, X: np.ndarray, s: int, i: int, dist: np.ndarray,
          owner: np.ndarray, norms: np.ndarray | None) -> None:
    """Add X[s] as centroid i to the running assignment (dist, owner).

    Step 0 fills every row's exact distance (`core._fill`) and, for a
    Euclidean space, the squared row norms in the same sweep; owner must then
    be all zeros. Later steps lower the assignment through `core._lower`,
    which computes exact distances only where X[s] may be nearer.
    """
    if i == 0:
        _fill(space, X, X[s], dist, norms=norms)
    else:
        _lower(space, X, X[s : s + 1], i, dist, owner, norms)


def run_trace(space: MetricSpace, X, w, ell: int, seed: int) -> KmeansPPTrace:
    """D² seeding: m_1 ~ w_x, then m_i ~ w_x * d(x, prefix).

    Maintains per-point distance to the prefix incrementally, one centroid
    per `_step`. If residual mass hits zero before ell centroids (all points
    coincide with centroids) the trace stops there, so its ell is smaller.
    The n-length mass and prefix-sum buffers are allocated once and reused by
    every step. With unit weights (w None) the mass is the distances
    themselves, and the distance buffer holds ones for the first draw.
    """
    X = as_points(X)
    n = X.shape[0]
    w = as_weights(w, n)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > n:
        raise ValueError(f"ell={ell} exceeds n={n}")
    rng = np.random.default_rng(seed)
    dist, owner = np.ones(n) if w is None else np.empty(n), np.zeros(n, dtype=np.intp)
    norms = None if space.kind == "matrix" else np.empty(n)
    mass = dist if w is None else np.empty(n)  # 1.0 * dist is dist bit for bit
    cum = np.empty(n)
    chosen: list[int] = []
    costs: list[float] = []
    for i in range(ell):
        s = _draw_index(rng, mass if i or w is None else w, cum)  # the first by weight alone
        chosen.append(s)
        _step(space, X, s, i, dist, owner, norms)
        if mass is not dist:
            np.multiply(w, dist, out=mass)
        costs.append(float(np.sum(mass)))
        if i == 0 and not np.isfinite(costs[0]):
            require_finite(points=X)  # NaN or inf points make v_1 NaN or inf
        if not costs[-1] > 0.0:  # no mass left to draw from
            break

    idx = np.asarray(chosen, dtype=np.intp)
    return KmeansPPTrace(
        space=space,
        points=X,
        weights=w,
        centroid_indices=idx,
        centroids=X[idx],
        prefix_costs=np.asarray(costs),
    )


def subsample_trace(space: MetricSpace, X: np.ndarray, w: np.ndarray | None, ell: int,
                    trace_seed: int, sub_seed: int) -> KmeansPPTrace:
    """`run_trace` with ell steps over S0: min(n, max(_SUBSAMPLE, ell)) rows.

    The rows are uniform without replacement, drawn by sub_seed alone and kept
    in index order, and each weighs w n / |S0|, so S0's prefix costs estimate
    the full data's. With n <= _SUBSAMPLE, S0 is every row at weight
    w * 1.0 = w, so this is run_trace on (X, w) itself: the full data's trace.
    """
    n = X.shape[0]
    size = min(n, max(_SUBSAMPLE, ell))
    if size == n:  # every row, at weight w * 1.0, which is w (None for unit weights)
        return run_trace(space, X, w, ell, trace_seed)
    rows = np.sort(np.random.default_rng(sub_seed).choice(n, size, replace=False))
    w0 = np.full(rows.size, n / rows.size) if w is None else w[rows] * (n / rows.size)
    return run_trace(space, X[rows], w0, ell, trace_seed)


def replay(trace: KmeansPPTrace) -> Iterator[tuple[int, np.ndarray, np.ndarray, float]]:
    """Yield (i, owner, dist, v_i) for every prefix i = 1..ell.

    Each state comes from the trace's own `_step` on the trace's rows, one
    centroid at a time, so it equals the trace's after that step, bit for
    bit: one full `_fill` for m_1, then a one-centroid `_lower` per step. The
    yielded arrays are reused between iterations; copy them if they must
    outlive the loop step.
    """
    space, X = trace.space, trace.points
    dist, owner = np.empty(X.shape[0]), np.zeros(X.shape[0], dtype=np.intp)
    norms = None if space.kind == "matrix" else np.empty(X.shape[0])
    for i, s in enumerate(trace.centroid_indices):
        _step(space, X, s, i, dist, owner, norms)
        yield i + 1, owner, dist, float(trace.prefix_costs[i])
