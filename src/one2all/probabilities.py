"""one2all base probabilities and sweet-spot search.

A single centroid set M yields per-point probabilities pi that dominate the
pps base probabilities of every query Q whose cost is at least V(M), at
total mass (sample-size overhead) |pi|_1 <= 8 rho^2 |M| + 2 rho. Scanning
kmeans++ prefixes M_i for the cheapest candidate picks the "sweet spot". The
oracle scans the prefixes of a trace over a uniform subsample S0, which
estimates each candidate's size, then builds pi for the winner over every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CentroidSet, MetricSpace, _wsum, as_points, as_weights, nearest
from .kmeanspp import KmeansPPTrace, replay


@dataclass
class One2AllProbabilities:
    """pi per point, plus the centroids and cost it was built from."""

    pi: np.ndarray
    M: np.ndarray = field(repr=False)  # centroids kept after empty-cell drop
    cost_m: float = 0.0
    dropped_empty_cells: int = 0

    @property
    def overhead(self) -> float:
        return float(np.sum(self.pi))


def probs_from_assignment(
    w: np.ndarray | None,
    owner: np.ndarray,
    dist: np.ndarray,
    rho: float,
    M: np.ndarray,
    cost_m: float,
    frac: float = 1.0,
) -> One2AllProbabilities:
    """Build pi from a precomputed nearest-centroid assignment and its cost.

    cost_m must be the sum of w * dist (w None: unit weights); the trace
    holds it for every prefix. Centroids (rows of M) owning no points are
    dropped first (they change neither the assignment nor the cost); the
    count is kept as a diagnostic. Weights are positive, so a cell is empty
    exactly when its weight sum is 0; no point's owner is an empty cell, so
    owner indexes the weight sums of all cells as it stands. pi is multiplied
    by frac before its cap at 1 (`sweet_spot` on a subsample). A cost_m that
    is not >= 0 (NaN included) raises ValueError.
    """
    if not cost_m >= 0.0:
        raise ValueError(f"V(M) must be >= 0, not {cost_m!r}")
    # bincount's sums, added in the same index order, with no intp copy of owner
    cluster_w = np.zeros(M.shape[0])
    np.add.at(cluster_w, owner, 1.0 if w is None else w)
    keep = cluster_w > 0.0
    dropped = int(keep.size - np.count_nonzero(keep))
    if dropped:
        M = M[keep]
    unit = 1.0 if w is None else w  # 1.0 * x is x bit for bit
    pi = cluster_w[owner]  # pi is built in this array, beside one temporary at a time
    np.divide(8.0 * rho**2 * unit, pi, out=pi)
    if cost_m > 0.0:  # V(M)=0: only the within-cluster term remains
        scale = 2.0 * rho / cost_m  # 0 if V(M) overflowed, inf if it underflowed
        if not 0.0 < scale < np.inf:
            raise ValueError(f"2 rho / V(M) is {scale!r}: V(M) = {cost_m!r} at rho = {rho!r}")
        term1 = scale * unit
        term1 *= dist  # in place for an array of weights; a new array for a scalar
        np.maximum(term1, pi, out=pi)
    if frac != 1.0:
        pi *= frac
    np.minimum(1.0, pi, out=pi)
    return One2AllProbabilities(pi=pi, M=M, cost_m=cost_m, dropped_empty_cells=dropped)


# The smallest eps taken: eps**-2, the scale of every sampling probability,
# is then 2**1022, and it overflows a float64 at eps = 2**-512.
_EPS_MIN = 2.0**-511


def check_eps(eps: float) -> None:
    """Raise ValueError unless 2**-511 <= eps < inf (NaN included)."""
    if not _EPS_MIN <= eps < np.inf:
        raise ValueError(f"eps must be finite and at least 2**-511, not {eps!r}")


def one2all_probs(space: MetricSpace, X, w, M) -> One2AllProbabilities:
    """pi_x = min{1, max{2 rho w_x d_xM / V(M), 8 rho^2 w_x / w(cell of x)}}."""
    X = as_points(X)
    M = CentroidSet(M).points
    w = as_weights(w, X.shape[0])
    owner, dist = nearest(space, X, M)
    return probs_from_assignment(w, owner, dist, space.rho, M, _wsum(w, dist))


def sweet_spot(trace: KmeansPPTrace, C: float, eps: float, n: int | None = None
               ) -> tuple[int, One2AllProbabilities]:
    """Pick the kmeans++ prefix whose candidate sample is smallest.

    Minimizes |min{1, max{1, v_i/C} eps^-2 pi^(M_i)}|_1 over all prefixes, ties
    to the shortest, with pi per prefix built from the assignment `replay`
    rebuilds on the trace's own rows: no distance work beyond those rows.
    Returns the 1-based winning index and its pi.

    n, if given, says the trace is of a uniform subsample S0 of n rows, each
    weighing w n / |S0| (`kmeanspp.subsample_trace`). Each size is then
    estimated for the full data: a row of S0 has about n / |S0| times its
    full-data pi, so pi is scaled by |S0| / n before its cap at 1, and the
    sum by n / |S0|. The pi returned is the scaled one, over S0's rows.
    """
    if not 0 < C < np.inf:
        raise ValueError("sweet_spot needs a finite C > 0")
    check_eps(eps)
    w = trace.weights
    rho = trace.space.rho
    frac = 1.0 if n is None else trace.points.shape[0] / n
    best = np.inf
    for i, owner, dist, v_i in replay(trace):
        cand = probs_from_assignment(w, owner, dist, rho, trace.prefix(i), v_i, frac)
        total = float(np.sum(np.minimum(1.0, max(1.0, v_i / C) * eps**-2 * cand.pi))) / frac
        if i == 1 or total < best:
            best, i_star, probs = total, i, cand
    return i_star, probs
