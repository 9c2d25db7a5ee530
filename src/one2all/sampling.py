"""pps probabilities, coordinated Poisson sampling, and the cost estimator.

Sampling is coordinated through one uniform variate per point, generated by
a counter-based (Philox) stream keyed on the seed. Growing the probability
vector under the same seed can only add members, never evict them, which is
what lets the adaptive stages reuse everything already sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, exp, log

import numpy as np

from .core import MetricSpace, as_points, as_weights, nearest
from .errors import DegenerateCostError


@dataclass
class PpsBase:
    """Per-point probability mass proportional to w_x * d(x, Q)."""

    psi: np.ndarray
    Q: np.ndarray = field(repr=False)
    total_cost: float = 0.0


def pps_base(space: MetricSpace, X, w, Q) -> PpsBase:
    X = as_points(X)
    Q = as_points(Q)
    w = as_weights(w, X.shape[0])
    _, dist = nearest(space, X, Q)
    contrib = w * dist
    total = float(np.sum(contrib))
    if total <= 0.0:
        raise DegenerateCostError("cost of Q is zero; pps mass undefined")
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
    w = as_weights(w, n)
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


def point_uniforms(seed: int, n: int) -> np.ndarray:
    """The fixed u_x in (0,1] for points 0..n-1, a pure function of the seed."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return 1.0 - rng.random(n)


@dataclass
class CoordinatedSample:
    """A Poisson sample S = {x : u_x <= p_x} with inverse-probability weights.

    points/weights are references to the full data; members indexes into
    them. Growth (with_probabilities) reuses the same u, so it only adds.
    """

    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    u: np.ndarray | None = field(repr=False)
    p: np.ndarray = field(repr=False)
    members: np.ndarray
    w_prime: np.ndarray = field(repr=False)
    seed: int | None = None

    @property
    def size(self) -> int:
        return int(self.members.shape[0])

    def member_points(self) -> np.ndarray:
        return self.points[self.members]

    def with_probabilities(self, p_new) -> "CoordinatedSample":
        """Same u, new (typically grown) probabilities."""
        if self.u is None:
            raise ValueError("sample was loaded without its uniforms; cannot regrow")
        p_new = np.asarray(p_new, dtype=np.float64)
        members = np.flatnonzero(self.u <= p_new)
        return CoordinatedSample(
            points=self.points,
            weights=self.weights,
            u=self.u,
            p=p_new,
            members=members,
            w_prime=self.weights[members] / p_new[members],
            seed=self.seed,
        )


def draw(points, weights, probs, seed: int, u: np.ndarray | None = None) -> CoordinatedSample:
    """Materialize the coordinated sample at the given inclusion probabilities.

    u overrides the seed-derived uniforms (tests plant adversarial draws).
    """
    points = as_points(points)
    n = points.shape[0]
    weights = as_weights(weights, n)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (n,):
        raise ValueError("need one probability per point")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if u is None:
        u = point_uniforms(seed, n)
    members = np.flatnonzero(u <= probs)
    return CoordinatedSample(
        points=points,
        weights=weights,
        u=u,
        p=probs,
        members=members,
        w_prime=weights[members] / probs[members],
        seed=seed,
    )


def estimate_cost(space: MetricSpace, sample: CoordinatedSample, Q) -> float:
    """Inverse-probability estimate of V(Q | X, w) from the sample.

    An empty sample estimates 0 (legitimate only when total mass was capped
    away; callers keep sum(p) >= 1).
    """
    if sample.size == 0:
        return 0.0
    _, dist = nearest(space, sample.member_points(), Q)
    return float(np.sum(sample.w_prime * dist))


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
    w = as_weights(w, n)
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
