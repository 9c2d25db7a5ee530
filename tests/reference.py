"""Proof checks and reference kernels the tests compare the package against.

The proof checks (brute-force pps mass, dominance and tail bounds) state
the paper's guarantees as code the tests run. They are exact but slow
(mo_pps_bruteforce enumerates every k-subset), and no run of the package
needs them: the package builds only the one2all probabilities and samples
from them. lloyd_step_add_at is the plain Lloyd step that lloyd.lloyd_step
must reproduce bit for bit, local_search_swaps the plain swap loop that
lloyd.base_cluster's swaps must reproduce, and matrix_nearest is the gathered-block
nearest that the package's one-centroid-at-a-time matrix kernels must match.
row_sum_nearest is the per-centroid loop of row-major exact distances (numpy's
row sum) that every Euclidean nearest must reproduce bit for bit, whatever
layout it sums in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, exp, log

import numpy as np

from one2all.core import MetricSpace, as_points, as_weights, cost, nearest
from one2all.kmeanspp import _draw_index
from one2all.probabilities import One2AllProbabilities
from one2all.sampling import draw, estimate_cost


def _weights(w, n: int) -> np.ndarray:
    """`as_weights`, with n ones for None: the references compute with arrays."""
    w = as_weights(w, n)
    return np.ones(n) if w is None else w


@dataclass
class PpsBase:
    """Per-point probability mass proportional to w_x * d(x, Q)."""

    psi: np.ndarray
    Q: np.ndarray = field(repr=False)
    total_cost: float = 0.0


def pps_base(space: MetricSpace, X, w, Q) -> PpsBase:
    X = as_points(X)
    Q = as_points(Q)
    w = _weights(w, X.shape[0])
    _, dist = nearest(space, X, Q)
    contrib = w * dist
    total = float(np.sum(contrib))
    if total <= 0.0:
        raise ValueError("cost of Q is zero; pps mass undefined")
    return PpsBase(psi=contrib / total, Q=Q, total_cost=total)


def mo_pps_bruteforce(
    space: MetricSpace, X, w, k: int, min_cost: float | None = None
) -> tuple[np.ndarray, float]:
    """Pointwise max of pps mass over every k-subset of X (test oracle).

    min_cost restricts the family to subsets whose cost is >= min_cost.
    Zero-cost subsets are skipped: they are answerable exactly with 0 and
    have no pps distribution.
    """
    X = as_points(X)
    n = X.shape[0]
    w = _weights(w, n)
    if comb(n, k) > 10**6:
        raise ValueError(f"refusing to enumerate C({n},{k}) subsets")
    psi = np.zeros(n)
    for sub in combinations(range(n), k):
        idx = np.asarray(sub, dtype=np.intp)
        _, dist = nearest(space, X, X[idx])
        contrib = w * dist
        total = float(np.sum(contrib))
        if total <= 0.0 or (min_cost is not None and total < min_cost):
            continue
        np.maximum(psi, contrib / total, out=psi)
    return psi, float(np.sum(psi))


def verify_dominance(space: MetricSpace, X, w, probs: One2AllProbabilities, Q) -> dict:
    """Check pi >= min{1, V(Q)/V(M)} * psi^(Q) pointwise (a theorem, exact).

    A zero-cost Q has no pps distribution and nothing to dominate; V(M)=0
    makes the scaling factor 1.
    """
    X = as_points(X)
    w = _weights(w, X.shape[0])
    vq = cost(space, X, w, Q)
    if vq <= 0.0:
        return {"holds": True, "worst_ratio": 0.0, "cost_q": 0.0}
    psi = pps_base(space, X, w, Q).psi
    factor = 1.0 if probs.cost_m <= 0.0 else min(1.0, vq / probs.cost_m)
    required = factor * psi
    ratio = required / probs.pi
    return {
        "holds": bool(np.all(required <= probs.pi + 1e-12)),
        "worst_ratio": float(ratio.max()),
        "cost_q": vq,
    }


def overestimate_bound(alpha: float, eps: float) -> float:
    """Closed-form bound on Pr[estimate >= V/alpha] for weak-pps samples.

    For alpha <= 0.5 the bound is min{alpha/(1-2alpha), exp(-(1-alpha)
    ln(1/alpha) eps^-2 / 2)} (alpha/(1-2alpha) is +inf at alpha = 0.5);
    alpha = 1 falls back to the upper Chernoff form at relative
    overshoot 1: exp(-ln2 * eps^-2 / 2), with threshold 2V.
    """
    if alpha == 1.0:
        return exp(-log(2.0) * eps**-2 / 2.0)
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must be in (0, 0.5] or exactly 1")
    chernoff = exp(-(1.0 - alpha) * log(1.0 / alpha) * eps**-2 / 2.0)
    ratio = alpha / (1.0 - 2.0 * alpha) if alpha < 0.5 else np.inf
    return float(min(ratio, chernoff))


def concentration_check(
    space: MetricSpace, X, w, Q, alpha: float, eps: float, trials: int, seed: int = 0
) -> dict:
    """Empirical overestimation frequency vs. the closed-form tail bound.

    Samples at probabilities alpha * eps^-2 * psi (capped at 1) and counts
    estimates at or above the threshold V/alpha (2V when alpha = 1).
    """
    X = as_points(X)
    n = X.shape[0]
    w = _weights(w, n)
    base = pps_base(space, X, w, Q)
    V = base.total_cost
    p = np.minimum(1.0, alpha * eps**-2 * base.psi)
    threshold = 2.0 * V if alpha == 1.0 else V / alpha
    seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    hits = 0
    for s in seeds:
        sample = draw(X, w, p, int(s))
        if estimate_cost(space, sample, Q) >= threshold:
            hits += 1
    freq = hits / trials
    bound = overestimate_bound(alpha, eps)
    sigma = float(np.sqrt(max(bound * (1.0 - bound), 1e-12) / trials))
    return {
        "frequency": freq,
        "bound": bound,
        "slack": 3.0 * sigma,
        "ok": freq <= bound + 3.0 * sigma,
        "threshold": threshold,
        "trials": trials,
    }


def lloyd_step_add_at(space: MetricSpace, X, w, Q) -> np.ndarray:
    """One weighted Lloyd step with np.add.at cell sums, in row order.

    Empty cells are re-seeded at the farthest points, as lloyd.lloyd_step
    documents.
    """
    X = as_points(X)
    Q = as_points(Q)
    w = _weights(w, X.shape[0])
    k = Q.shape[0]
    owner, dist = nearest(space, X, Q)
    wsum = np.bincount(owner, weights=w, minlength=k)
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, owner, X * w[:, None])
    new = np.empty_like(sums)
    nonempty = wsum > 0
    new[nonempty] = sums[nonempty] / wsum[nonempty, None]
    empty = np.flatnonzero(~nonempty)
    if empty.size:
        farthest = np.argsort(-dist)[: empty.size]
        new[empty] = X[farthest]
    return new


def local_search_swaps(space: MetricSpace, X, w, idx, swaps: int, seed: int) -> np.ndarray:
    """LocalSearch++ swaps on the centroids X[idx], by plain loop.

    Each swap draws p with probability proportional to w * d(p, Q) (one
    kmeanspp._draw_index draw from a default_rng(seed) stream), prices the
    replacement of each centroid by p with a full `cost` pass, and takes the
    cheapest, lowest index first, if it costs less than Q. Returns the indices.
    """
    X = as_points(X)
    w = _weights(w, X.shape[0])
    idx = [int(i) for i in idx]
    rng = np.random.default_rng(seed)
    current = cost(space, X, w, X[idx])
    for _ in range(swaps):
        if current <= 0.0:
            break
        p = _draw_index(rng, w * nearest(space, X, X[idx])[1])
        costs = [cost(space, X, w, X[idx[:i] + [p] + idx[i + 1:]]) for i in range(len(idx))]
        i = int(np.argmin(costs))
        if costs[i] < current:
            idx[i], current = p, costs[i]
    return np.asarray(idx)


def matrix_pairwise(space: MetricSpace, X, Q) -> np.ndarray:
    """A matrix space's (n, k) block of distances, gathered in one step."""
    return space.matrix[np.ix_(as_points(X), as_points(Q))]


def matrix_nearest(space: MetricSpace, X, Q) -> tuple[np.ndarray, np.ndarray]:
    """nearest on a matrix space from the whole (n, k) block: argmin picks
    the lowest index among ties."""
    mat = matrix_pairwise(space, X, Q)
    owner = np.argmin(mat, axis=1)
    return owner, mat[np.arange(mat.shape[0]), owner]


def row_sum_column(p, X, q) -> np.ndarray:
    """d(x, q) for every row x of X: difference, square, numpy's row sum, power."""
    diff = X - q
    np.square(diff, out=diff)
    col = diff.sum(axis=1)
    if p != 2.0:
        col **= p / 2.0
    return col


def row_sum_nearest(p, X, Q) -> tuple[np.ndarray, np.ndarray]:
    """nearest as a running minimum over row_sum_column, squared, with strict
    improvement (the lowest index wins ties; a row no centroid brings below
    inf keeps inf and owner 0), powered once at the end."""
    dist = np.full(X.shape[0], np.inf)
    owner = np.zeros(X.shape[0], dtype=np.intp)
    for j in range(Q.shape[0]):
        dj = row_sum_column(2.0, X, Q[j])
        better = dj < dist
        dist[better] = dj[better]
        owner[better] = j
    if p != 2.0:
        dist **= p / 2.0
    return owner, dist
