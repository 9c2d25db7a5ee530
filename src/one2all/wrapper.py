"""Adaptive clustering over samples.

Run the base clusterer on a small coordinated sample, check its result
against the full data, and grow the sample until the clustering it found is
certified: its true cost is within (1+eps) of its sample cost and not below
the cost range the sample supports. The per-point uniforms are fixed once,
so every growth step only adds points.

A rejected round grows the sample by one of two rules:

- Q failed only the range test (V_Q < v_m / r): set r to
  max(r (1+eps), (1+eps) v_m / V_Q), which puts V_Q above the new floor, and
  grow once. The next round first re-tests that Q on the grown sample: its
  V_Q is exact already, so this costs one estimate over the sample and no
  base call or full-data pass. If it passes, the round accepts Q (logged
  with "retest": True); if not, the same round clusters the grown sample
  as usual (logged with "retest": False).
- Q failed the accuracy test (V_Q > (1+eps) estimate), alone or with the
  range test: at least double r, then keep doubling until the sample's
  estimate of the rejected Q clears the bar or the sample saturates.

The re-test keeps the certificate's meaning. Its range test reads only the
exact V_Q and r. Its accuracy test V_Q <= (1+eps) estimate uses a sample
that contains the one Q was fit on (growth only adds points), so the fit
can only bias the estimate low, which makes the test stricter, as in any
round, where Q was fit on the whole certifying sample. `rounds` counts a
re-test round like any other.

M, the centroid set the probabilities come from, is the prefix of a 2k-step
kmeans++ trace minimizing i v_i, traced on a uniform subsample S0
(`kmeanspp.subsample_trace`, drawn by the call seed alone). One exact pass
over all rows gives v_M, the assignment and, read after M's first k
centroids, the first candidate Q; r starts at v_M over S0's v_2k. Each
cost(Q) is a pass of its own, which keeps no row norms. The one2all bound
holds for any M, and both round tests read exact costs only: S0 sets the
sample's size, never what a certificate means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CentroidSet, MetricSpace, _lower, _wsum, as_points, as_weights, cost, nearest
from .kmeanspp import subsample_trace
from .lloyd import base_cluster
from .probabilities import check_eps, probs_from_assignment, sample_probs
from .sampling import draw, estimate_cost

_MAX_ROUNDS = 40  # rounds before an uncertified run gives up


@dataclass
class WrapperReport:
    certified: bool
    saturated: bool
    rounds: int
    r: float
    sample_size: int
    n: int
    best_cost: float
    sweet_spot_index: int
    cost_m: float  # v at the sweet-spot prefix
    sample_seed: int
    final_p: np.ndarray = field(repr=False)
    log: list = field(default_factory=list, repr=False)

    @property
    def sample_fraction(self) -> float:
        return self.sample_size / self.n


def _pick(prefix_costs: np.ndarray) -> int:
    """The prefix length i >= 1 minimizing the rough score i v_i, the shortest on ties."""
    return int(np.argmin(np.arange(1, prefix_costs.size + 1) * prefix_costs)) + 1


def run(
    space: MetricSpace,
    X,
    w,
    k: int,
    eps: float,
    base=None,
    seed: int = 0,
) -> tuple[CentroidSet, WrapperReport]:
    """Cluster (X, w) into k centroids over adaptively grown samples.

    base maps (space, points, weights, k, seed) to a CentroidSet and must
    honor the weights; default is `lloyd.base_cluster`. Each round that
    clusters calls it once, on the round's sample, with k and a seed derived
    from `seed`.
    """
    check_eps(eps)
    X = as_points(X)
    n = X.shape[0]
    w = as_weights(w, n)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    base = base_cluster if base is None else base  # at call time, so tracers see it
    trace_seed, sample_seed, base_seed, sub_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(4)
    )
    base_seeds = np.random.SeedSequence(base_seed).generate_state(_MAX_ROUNDS, np.uint64).tolist()
    trace = subsample_trace(space, X, w, min(2 * k, n), trace_seed, sub_seed)
    i_star = _pick(trace.prefix_costs)
    M, v_end = trace.prefix(i_star), float(trace.prefix_costs[-1])
    del trace  # S0 goes before the full-data pass
    # one exact pass over every row for M, read after its first k0 centroids
    k0 = min(k, i_star)
    owner, dist = nearest(space, X, M[:k0])
    v_m = _wsum(w, dist)
    best_q, best_v = CentroidSet(M[:k0]), v_m
    if i_star > k0:
        owner = owner.astype(np.min_scalar_type(i_star - 1), copy=False)  # holds every index
        _lower(space, X, M[k0:], k0, dist, owner, None)
        v_m = _wsum(w, dist)
    probs = probs_from_assignment(w, owner, dist, space.rho, M, v_m)
    del dist, owner
    log: list[dict] = []

    # fewer than 2k distinct points in S0 leave no residual cost there: r = inf
    # keeps every point (pi > 0), so the first round saturates and is exact
    r = v_m / v_end if v_end > 0.0 else np.inf

    certified = saturated = False
    rounds = 0
    retest = None  # (Q, V_Q) of a range-only rejection, to test again after growth
    sample = draw(X, w, sample_probs(probs.pi, r, eps), sample_seed)
    for rnd in range(_MAX_ROUNDS):
        rounds = rnd + 1
        if sample.size == 0:  # all mass capped away at tiny r; force growth
            log.append({"round": rounds, "r": r, "size": 0, "V_Q": np.inf,
                        "estimate": 0.0, "action": "empty"})
            r *= 2.0
            sample = sample.with_probabilities(sample_probs(probs.pi, r, eps))
            continue
        saturated = sample.saturated  # this round's; the growth below may saturate the next
        note = {}
        if retest is not None:
            Q, v_q = retest
            retest = None
            est = estimate_cost(space, sample, Q)
            if v_q <= (1.0 + eps) * est and v_q >= v_m / r:
                certified = True
                log.append({"round": rounds, "r": r, "size": sample.size, "V_Q": v_q,
                            "estimate": est, "action": "saturated" if saturated else "accept",
                            "retest": True})
                break
            note = {"retest": False}  # Q failed again: cluster this same sample
        Q = base(space, sample.member_points, sample.w_prime, k, base_seeds[rnd])
        v_q = cost(space, X, w, Q)
        if v_q < best_v:
            best_q, best_v = Q, v_q
        est = estimate_cost(space, sample, Q)
        accurate = v_q <= (1.0 + eps) * est
        in_range = v_q >= v_m / r
        certified = saturated or (accurate and in_range)
        action = "saturated" if saturated else "accept" if certified else "grow"
        log.append({"round": rounds, "r": r, "size": sample.size,
                    "V_Q": v_q, "estimate": est, "action": action, **note})
        if certified:
            break
        # which test rejected Q: V_Q > (1+eps) estimate, V_Q < v_m / r, or both
        log[-1]["reason"] = ("range" if accurate else "accuracy" if in_range else "both")
        if accurate and v_q > 0.0:  # (a zero V_Q is below every floor: only saturation helps)
            r = max(r * (1.0 + eps), (1.0 + eps) * v_m / v_q)
            sample = sample.with_probabilities(sample_probs(probs.pi, r, eps))
            retest = (Q, v_q)
            continue
        r = max(2.0, v_q / v_m) * r
        # grow until the rejected Q clears the bar (or the sample saturates)
        while True:
            sample = sample.with_probabilities(sample_probs(probs.pi, r, eps))
            est_rej = estimate_cost(space, sample, Q)
            if est_rej > min((1.0 + eps) * best_v, (1.0 - eps) * v_q) or sample.saturated:
                break
            r *= 2.0
    return best_q, WrapperReport(
        certified=certified,
        saturated=saturated,
        rounds=rounds,
        r=r,
        sample_size=sample.size,
        n=n,
        best_cost=best_v,
        sweet_spot_index=i_star,
        cost_m=v_m,
        sample_seed=sample_seed,
        final_p=sample.p,
        log=log,
    )
