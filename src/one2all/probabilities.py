"""one2all base probabilities and sweet-spot search.

A single centroid set M yields per-point probabilities pi that dominate the
pps base probabilities of every query Q whose cost is at least V(M), at
total mass (sample-size overhead) |pi|_1 <= 8 rho^2 |M| + 2 rho. Scanning
kmeans++ prefixes M_i for the cheapest candidate picks the "sweet spot".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CentroidSet, MetricSpace, as_points, as_weights, nearest
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
    w: np.ndarray,
    owner: np.ndarray,
    dist: np.ndarray,
    rho: float,
    M: np.ndarray,
    cost_m: float,
) -> One2AllProbabilities:
    """Build pi from a precomputed nearest-centroid assignment and its cost.

    cost_m must be float(np.sum(w * dist)); the trace already holds it for
    every prefix. Centroids (rows of M) owning no points are dropped first
    (they change neither the assignment nor the cost); the count is kept as
    a diagnostic. Weights are positive, so a cell is empty exactly when its
    weight sum is 0; no point's owner is an empty cell, so owner indexes the
    weight sums of all cells as it stands.
    """
    cluster_w = np.bincount(owner, weights=w, minlength=M.shape[0])
    keep = cluster_w > 0.0
    dropped = int(keep.size - np.count_nonzero(keep))
    if dropped:
        M = M[keep]
    pi = 8.0 * rho**2 * w
    pi /= cluster_w[owner]
    if cost_m > 0.0:  # V(M)=0: only the within-cluster term remains
        term1 = (2.0 * rho / cost_m) * w
        term1 *= dist
        np.maximum(term1, pi, out=pi)
    np.minimum(1.0, pi, out=pi)
    return One2AllProbabilities(pi=pi, M=M, cost_m=cost_m, dropped_empty_cells=dropped)


def sample_probs(pi: np.ndarray, alpha: float, eps: float) -> np.ndarray:
    """Sampling probabilities min{1, alpha eps^-2 pi} at scale alpha."""
    p = alpha * eps**-2 * pi
    return np.minimum(1.0, p, out=p)


def one2all_probs(space: MetricSpace, X, w, M) -> One2AllProbabilities:
    """pi_x = min{1, max{2 rho w_x d_xM / V(M), 8 rho^2 w_x / w(cell of x)}}."""
    X = as_points(X)
    M = CentroidSet(M).points
    w = as_weights(w, X.shape[0])
    owner, dist = nearest(space, X, M)
    return probs_from_assignment(w, owner, dist, space.rho, M, float(np.sum(w * dist)))


def sweet_spot(
    trace: KmeansPPTrace,
    mode: str = "exact",
    C: float | None = None,
    eps: float | None = None,
) -> tuple[int, One2AllProbabilities]:
    """Pick the kmeans++ prefix whose candidate sample is smallest.

    exact mode minimizes |min{1, max{1, v_i/C} eps^-2 pi^(M_i)}|_1 over all
    prefixes (pi per prefix from the assignment `replay` reads off the
    trace's move log); rough mode minimizes the proxy score i*v_i without
    touching pi. Ties go to the shortest prefix. Returns the 1-based winning
    index and its pi, built from the replayed prefix assignment: no distance
    pass beyond the moved rows'.
    """
    w = trace.weights
    rho = trace.space.rho
    if mode == "rough":
        scores = np.arange(1, trace.ell + 1) * trace.prefix_costs
        i_star = int(np.argmin(scores)) + 1
        for i, owner, dist, v_i in replay(trace):
            if i == i_star:
                break
        return i_star, probs_from_assignment(w, owner, dist, rho, trace.prefix(i_star), v_i)
    if mode != "exact":
        raise ValueError(f"unknown sweet-spot mode {mode!r}")
    if C is None or not C > 0 or eps is None or not eps > 0:
        raise ValueError("exact mode needs C > 0 and eps > 0")
    best = np.inf
    for i, owner, dist, v_i in replay(trace):
        cand = probs_from_assignment(w, owner, dist, rho, trace.prefix(i), v_i)
        total = float(np.sum(sample_probs(cand.pi, max(1.0, v_i / C), eps)))
        if i == 1 or total < best:
            best, i_star, probs = total, i, cand
    return i_star, probs
