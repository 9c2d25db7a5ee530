"""Adaptive clustering over samples.

Run the base clusterer on a small coordinated sample, check its result
against the full data, and grow the sample until the clustering it found is
certified: its true cost is within (1+eps) of its sample cost and not below
the cost range the sample supports. The per-point uniforms are fixed once,
so every growth step only adds points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CentroidSet, MetricSpace, as_points, as_weights, cost
from .kmeanspp import run_trace
from .lloyd import base_cluster
from .probabilities import sweet_spot
from .sampling import draw, estimate_cost


@dataclass
class WrapperReport:
    certified: bool
    saturated: bool
    rounds: int
    r: float
    sample_size: int
    n: int
    best_cost: float
    seed_cost: float  # cost of the first-k kmeans++ prefix
    sweet_spot_index: int
    cost_m: float  # v at the sweet-spot prefix
    eps: float
    k: int
    seed: int
    sample_seed: int
    final_p: np.ndarray = field(repr=False)
    log: list = field(default_factory=list, repr=False)

    @property
    def sample_fraction(self) -> float:
        return self.sample_size / self.n


def run(
    space: MetricSpace,
    X,
    w,
    k: int,
    eps: float,
    base=None,
    seed: int = 0,
    max_rounds: int = 40,
    copies: int = 1,
) -> tuple[CentroidSet, WrapperReport]:
    """Cluster (X, w) into k centroids over adaptively grown samples.

    base maps (space, points, weights, k, seed) to a CentroidSet and must
    honor the weights; default is `lloyd.base_cluster`. Each round passes it k
    and a seed derived from `seed`, and also clusters copies - 1 independent
    draws at the same probabilities with that seed, skipping empty ones, and
    keeps the cheapest result.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    X = as_points(X)
    n = X.shape[0]
    w = as_weights(w, n)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    base = base_cluster if base is None else base  # at call time, so tracers see it
    trace_seed, sample_seed, base_seed, confirm_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(4)
    )
    base_seeds = np.random.SeedSequence(base_seed).generate_state(max_rounds, np.uint64).tolist()
    ell = min(2 * k, n)
    trace = run_trace(space, X, w, ell, trace_seed)
    i_star, probs = sweet_spot(trace, "rough")
    v_m = float(trace.prefix_costs[i_star - 1])
    v_end = float(trace.prefix_costs[-1])
    k_prefix = min(k, trace.ell)
    best_q = CentroidSet(trace.prefix(k_prefix))
    best_v = float(trace.prefix_costs[k_prefix - 1])
    norms = trace.norms  # the row norms every certification pass reuses
    del trace  # nothing else of it is read again: let its n-length arrays go
    seed_cost = best_v
    log: list[dict] = []

    # fewer than 2k distinct points leave no residual cost: r = inf keeps
    # every point (pi > 0), so the first round saturates and is exact
    r = v_m / v_end if v_end > 0.0 else np.inf
    inv_eps2 = eps**-2

    def probs_at(r: float) -> np.ndarray:
        return np.minimum(1.0, r * inv_eps2 * probs.pi)

    certified = saturated = False
    rounds = 0
    sample = draw(X, w, probs_at(r), sample_seed)
    for rnd in range(max_rounds):
        rounds = rnd + 1
        if sample.size == 0:  # all mass capped away at tiny r; force growth
            log.append({"round": rounds, "r": r, "size": 0, "V_Q": np.inf,
                        "estimate": 0.0, "action": "empty"})
            r *= 2.0
            sample = sample.with_probabilities(probs_at(r))
            continue
        Q = base(space, sample.member_points, sample.w_prime, k, base_seeds[rnd])
        v_q = cost(space, X, w, Q, norms=norms)
        for s in np.random.SeedSequence(confirm_seed + rnd).generate_state(
                copies - 1, dtype=np.uint64):
            extra = draw(X, w, sample.p, int(s))
            if extra.size:
                alt_q = base(space, extra.member_points, extra.w_prime, k, base_seeds[rnd])
                alt_v = cost(space, X, w, alt_q, norms=norms)
                if alt_v < v_q:
                    Q, v_q = alt_q, alt_v
        if v_q < best_v:
            best_q, best_v = Q, v_q
        est = estimate_cost(space, sample, Q)
        saturated = sample.saturated  # this round's; the grow loop may saturate the next
        accurate = v_q <= (1.0 + eps) * est
        in_range = v_q >= v_m / r
        certified = saturated or (accurate and in_range)
        action = "saturated" if saturated else "accept" if certified else "grow"
        log.append({"round": rounds, "r": r, "size": sample.size,
                    "V_Q": v_q, "estimate": est, "action": action})
        if certified:
            break
        # which test rejected Q: V_Q > (1+eps) estimate, V_Q < v_m / r, or both
        log[-1]["reason"] = ("range" if accurate else "accuracy" if in_range else "both")
        r = max(2.0, v_q / v_m) * r
        # grow until the rejected Q clears the bar (or the sample saturates)
        while True:
            sample = sample.with_probabilities(probs_at(r))
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
        seed_cost=seed_cost,
        sweet_spot_index=i_star,
        cost_m=v_m,
        eps=eps,
        k=k,
        seed=seed,
        sample_seed=sample_seed,
        final_p=sample.p,
        log=log,
    )
