"""Coordinated Poisson sampling and the inverse-probability cost estimator.

Sampling is coordinated through one uniform variate per point, generated by
a counter-based (Philox) stream keyed on the seed. Growing the probability
vector under the same seed can only add members, never evict them, which is
what lets the adaptive stages reuse everything already sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MetricSpace, as_points, as_weights, nearest


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
        )


def draw(points, weights, probs, seed: int) -> CoordinatedSample:
    """Materialize the coordinated sample at the given inclusion probabilities."""
    points = as_points(points)
    n = points.shape[0]
    weights = as_weights(weights, n)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (n,):
        raise ValueError("need one probability per point")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    u = point_uniforms(seed, n)
    members = np.flatnonzero(u <= probs)
    return CoordinatedSample(
        points=points,
        weights=weights,
        u=u,
        p=probs,
        members=members,
        w_prime=weights[members] / probs[members],
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
