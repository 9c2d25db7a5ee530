"""Weighted kmeans++ (D²) seeding that keeps the whole centroid trace.

The wrapper and the oracle trace a uniform subsample S0 of the data
(`subsample_trace`): its prefix costs estimate the full data's v_i, and the
prefix they pick is then assigned over every row in one exact pass. The base
clusterer runs a trace of its own on each sample to seed from. The trace logs
which rows each step moved, so `replay` rebuilds any prefix's assignment from
the log without a second pass over the rows that stayed put. It also keeps
what its first step computed over every row, the squared row norms and the
step-1 distances, so later passes over the same points (`replay`, or `cost`
through `norms=`) need not compute them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .core import MetricSpace, _fill, _lower, as_points, as_weights, require_finite

_SUBSAMPLE = 10_000  # rows of S0, the subsample the wrapper and the oracle trace


@dataclass
class KmeansPPTrace:
    """Centroids m_1..m_ell with v_i = cost of the first i of them.

    owner and dist are the assignment to all ell centroids. moves is the
    move log: bit x of row i (0-based, np.packbits order) is set when point
    x moved to centroid i, that is, when x's owner in the length-(i+1)
    prefix is i. One (ell, ceil(n/8)) uint8 array holds the whole log.
    first_dist is the assignment to m_1 alone, where replay starts. norms
    holds the squared row norms of a Euclidean space's points (None for a
    matrix space); `cost` and `nearest` take them as `norms=`.
    """

    space: MetricSpace = field(repr=False)
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    centroid_indices: np.ndarray
    centroids: np.ndarray = field(repr=False)
    prefix_costs: np.ndarray
    owner: np.ndarray = field(repr=False)  # final-prefix assignment
    dist: np.ndarray = field(repr=False)
    moves: np.ndarray = field(repr=False)
    first_dist: np.ndarray = field(repr=False)
    norms: np.ndarray | None = field(repr=False)
    truncated: bool = False

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


def run_trace(space: MetricSpace, X, w, ell: int, seed: int) -> KmeansPPTrace:
    """D² seeding: m_1 ~ w_x, then m_i ~ w_x * d(x, prefix).

    Maintains per-point distance to the prefix incrementally: one centroid
    per iteration. Step 1 fills every row's exact distance (`core._fill`,
    which replay shares) and the squared row norms in the same sweep; later
    steps lower it through `core._lower`, which computes exact distances
    only where the new centroid may be nearer. If residual mass hits zero
    before ell centroids (all points coincide with centroids) the trace
    truncates and says so. After step i the rows that moved are exactly
    those with owner i, since every earlier owner is below i; they go into
    the move log. The n-length mass, prefix-sum and move buffers are
    allocated once and reused by every step; with unit weights the mass is
    the distances themselves.
    """
    X = as_points(X)
    n = X.shape[0]
    w = as_weights(w, n)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > n:
        raise ValueError(f"ell={ell} exceeds n={n}")
    rng = np.random.default_rng(seed)
    dist = np.empty(n)
    owner = np.zeros(n, dtype=np.intp)
    norms = None if space.kind == "matrix" else np.empty(n)
    moves = np.empty((ell, (n + 7) // 8), dtype=np.uint8)
    # With unit weights w·dist is dist bit for bit, so mass aliases dist.
    mass = dist if np.all(w == 1.0) else np.empty(n)
    cum = np.empty(n)
    moved = np.empty(n, dtype=bool)
    chosen: list[int] = []
    costs: list[float] = []
    for i in range(ell):
        s = _draw_index(rng, mass if i else w, cum)  # the first by weight alone
        chosen.append(s)
        if i == 0:
            _fill(space, X, X[s], dist, norms=norms)
            first_dist = dist.copy()
        else:
            _lower(space, X, X[s : s + 1], i, dist, owner, norms)
        moves[i] = np.packbits(np.equal(owner, i, out=moved))
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
        owner=owner,
        dist=dist,
        moves=moves[: len(chosen)],
        first_dist=first_dist,
        norms=norms,
        truncated=len(chosen) < ell,
    )


def subsample_trace(space: MetricSpace, X: np.ndarray, w: np.ndarray, ell: int,
                    trace_seed: int, sub_seed: int) -> KmeansPPTrace:
    """`run_trace` with ell steps over S0: min(n, max(_SUBSAMPLE, ell)) rows.

    The rows are uniform without replacement, drawn by sub_seed alone and kept
    in index order, and each weighs w n / |S0|, so S0's prefix costs estimate
    the full data's. With n <= _SUBSAMPLE, S0 is every row at weight w * 1.0,
    and the trace is the full data's bit for bit.
    """
    n = X.shape[0]
    rows = np.sort(np.random.default_rng(sub_seed).choice(n, min(n, max(_SUBSAMPLE, ell)),
                                                          replace=False))
    return run_trace(space, X[rows], w[rows] * (n / rows.size), ell, trace_seed)


def replay(trace: KmeansPPTrace) -> Iterator[tuple[int, np.ndarray, np.ndarray, float]]:
    """Yield (i, owner, dist, v_i) for every prefix i = 1..ell.

    Step 1 starts from a copy of the trace's step-1 distances. Each later
    step reads its moved rows from the trace's move log and fills distances
    for those rows alone, so every step costs O(moved rows) distance work
    plus an O(n / 8) unpack. The state equals the trace's own after each
    step, bit for bit. The yielded arrays are reused between iterations;
    copy them if they must outlive the loop step.
    """
    X = trace.points
    n = X.shape[0]
    dist = trace.first_dist.copy()
    owner = np.zeros(n, dtype=np.intp)
    for i, s in enumerate(trace.centroid_indices):
        if i:
            rows = np.flatnonzero(np.unpackbits(trace.moves[i], count=n).view(bool))
            owner[rows] = i
            _fill(trace.space, X, X[s], dist, rows)
        yield i + 1, owner, dist, float(trace.prefix_costs[i])
