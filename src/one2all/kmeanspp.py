"""Weighted kmeans++ (D²) seeding that keeps the whole centroid trace.

Every downstream stage consumes the same trace: the prefix costs v_i pick
the sweet spot, the final assignment feeds the sampling probabilities, and
the first k centroids seed the base clusterer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .core import MetricSpace, _lower, as_points, as_weights, pairwise


@dataclass
class KmeansPPTrace:
    """Centroids m_1..m_ell with v_i = cost of the first i of them."""

    space: MetricSpace = field(repr=False)
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    centroid_indices: np.ndarray
    centroids: np.ndarray = field(repr=False)
    prefix_costs: np.ndarray
    owner: np.ndarray = field(repr=False)  # final-prefix assignment
    dist: np.ndarray = field(repr=False)
    seed: int
    truncated: bool = False

    @property
    def ell(self) -> int:
        return int(self.centroid_indices.shape[0])

    def prefix(self, i: int) -> np.ndarray:
        """Centroids of the length-i prefix, 1 <= i <= ell."""
        if not 1 <= i <= self.ell:
            raise IndexError(f"prefix length {i} outside 1..{self.ell}")
        return self.centroids[:i]


def _draw_index(rng: np.random.Generator, mass: np.ndarray) -> int:
    """One categorical draw proportional to mass (one uniform, prefix sums)."""
    cum = np.cumsum(mass)
    r = rng.random() * cum[-1]
    idx = int(np.searchsorted(cum, r, side="right"))
    idx = min(idx, mass.shape[0] - 1)
    while mass[idx] == 0.0:  # fp edge: never land on a zero-mass point
        idx -= 1
    return idx


def _extender(space: MetricSpace, X: np.ndarray):
    """An empty prefix (dist = inf, owner = 0) and add(s, i), which makes X[s]
    centroid i: the rows strictly closer to it move to it, in place."""
    dist = np.full(X.shape[0], np.inf)
    owner = np.zeros(X.shape[0], dtype=np.intp)
    if space.kind == "matrix":
        def add(s: int, i: int) -> None:
            dnew = pairwise(space, X, X[s : s + 1])[:, 0]
            better = dnew < dist
            dist[better] = dnew[better]
            owner[better] = i

        return dist, owner, add
    norms = np.einsum("ij,ij->i", X, X)

    def add(s: int, i: int) -> None:
        _lower(X, X[s : s + 1], i, dist, owner, norms, space.power)

    return dist, owner, add


def run_trace(space: MetricSpace, X, w, ell: int, seed: int) -> KmeansPPTrace:
    """D² seeding: m_1 ~ w_x, then m_i ~ w_x * d(x, prefix).

    Maintains per-point distance to the prefix incrementally: one centroid
    per iteration, with exact distances only where it may be nearer. If
    residual mass hits zero before ell centroids (all points coincide with
    centroids) the trace truncates and says so.
    """
    X = as_points(X)
    n = X.shape[0]
    w = as_weights(w, n)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > n:
        raise ValueError(f"ell={ell} exceeds n={n}")
    rng = np.random.default_rng(seed)
    dist, owner, add = _extender(space, X)
    chosen: list[int] = []
    costs: list[float] = []
    mass = w  # the first centroid is drawn by weight alone
    for i in range(ell):
        if not np.any(mass > 0.0):
            break
        s = _draw_index(rng, mass)
        chosen.append(s)
        add(s, i)
        mass = w * dist
        costs.append(float(np.sum(mass)))

    idx = np.asarray(chosen, dtype=np.intp)
    return KmeansPPTrace(
        space=space,
        points=X,
        weights=w,
        centroid_indices=idx,
        centroids=X[idx],
        prefix_costs=np.asarray(costs),
        owner=owner,
        dist=dist,
        seed=seed,
        truncated=len(chosen) < ell,
    )


def replay(trace: KmeansPPTrace) -> Iterator[tuple[int, np.ndarray, np.ndarray, float]]:
    """Yield (i, owner, dist, v_i) for every prefix i = 1..ell.

    Adds the centroids one at a time, as building the trace did, so a full
    replay costs the same O(ell * n). The yielded arrays are reused
    between iterations; copy them if they must outlive the loop step.
    """
    dist, owner, add = _extender(trace.space, trace.points)
    for i, s in enumerate(trace.centroid_indices):
        add(s, i)
        yield i + 1, owner, dist, float(trace.prefix_costs[i])
