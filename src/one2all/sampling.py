"""Coordinated Poisson sampling and the inverse-probability cost estimator.

Sampling is coordinated through one uniform variate per point, generated by
a counter-based (Philox) stream keyed on the seed. Growing the probability
vector under the same seed can only add members, never evict them, which is
what lets the adaptive stages reuse everything already sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MetricSpace, _kept_inputs, as_points, as_weights, nearest


def point_uniforms(seed: int, n: int) -> np.ndarray:
    """The fixed u_x in (0,1] for points 0..n-1, a pure function of the seed."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    u = rng.random(n)
    return np.subtract(1.0, u, out=u)


@dataclass
class CoordinatedSample:
    """A Poisson sample S = {x : u_x <= p_x} with inverse-probability weights.

    p is full length and members index into it. member_points and
    member_weights are the members' rows, gathered once (ones for unit
    weights). points, weights and u are the full data; points None alone marks
    a sample loaded without its dataset, and weights None is unit weights.
    Growth (with_probabilities) reuses the same u, so it only adds members.
    member_norms (the members' squared norms) and, at low d, member_cols
    (member_points.T, C-contiguous) are what each estimate's `nearest` reads
    (`core._kept_inputs`), made by the first estimate of a Euclidean sample
    and never saved.
    """

    points: np.ndarray | None = field(repr=False)
    weights: np.ndarray | None = field(repr=False)
    u: np.ndarray | None = field(repr=False)
    p: np.ndarray = field(repr=False)
    members: np.ndarray
    member_points: np.ndarray = field(repr=False)
    member_weights: np.ndarray = field(repr=False)
    w_prime: np.ndarray = field(init=False, repr=False)
    saturated: bool = field(init=False)
    member_cols: np.ndarray | None = field(init=False, default=None, repr=False)
    member_norms: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.w_prime = self.member_weights / self.p[self.members]
        # a saturated sample is the full data, so its estimates are exact
        self.saturated = bool(self.p.size == 0 or self.p.min() >= 1.0)  # NaN fails

    @property
    def size(self) -> int:
        return int(self.members.shape[0])

    def with_probabilities(self, p_new) -> "CoordinatedSample":
        """Same u, new (typically grown) probabilities; needs the full data."""
        return _select(self.points, self.weights, self.u, np.asarray(p_new, dtype=np.float64))


def _select(points, weights, u, p) -> CoordinatedSample:
    members = np.flatnonzero(u <= p)
    member_weights = np.ones(members.size) if weights is None else weights[members]
    return CoordinatedSample(points, weights, u, p, members, points[members], member_weights)


def draw(points, weights, probs, seed: int) -> CoordinatedSample:
    """Materialize the coordinated sample at the given inclusion probabilities."""
    points = as_points(points)
    n = points.shape[0]
    weights = as_weights(weights, n)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (n,):
        raise ValueError("need one probability per point")
    if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):  # NaN fails
        raise ValueError("probabilities must lie in [0, 1]")
    return _select(points, weights, point_uniforms(seed, n), probs)


def estimate_cost(space: MetricSpace, sample: CoordinatedSample, Q) -> float:
    """Inverse-probability estimate of V(Q | X, w) from the sample.

    An empty sample estimates 0 (legitimate only when total mass was capped
    away; callers keep sum(p) >= 1).
    """
    if space.kind != "matrix" and sample.member_norms is None:
        sample.member_norms, sample.member_cols = _kept_inputs(sample.member_points)
    _, dist = nearest(space, sample.member_points, Q, norms=sample.member_norms,
                      cols=sample.member_cols)
    return float(np.sum(sample.w_prime * dist))
