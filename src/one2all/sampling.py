"""Coordinated Poisson sampling and the inverse-probability cost estimator.

Sampling is coordinated through one uniform variate per point, generated by
a counter-based (Philox) stream keyed on the seed. A sample is pi at a
scale s, p = min(1, s pi); growing s under the same seed only adds members,
never evicts them, so the adaptive stages reuse everything already sampled.
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

    p = min(1, scale pi) is made only when read; members index the full-length
    pi. member_points and member_weights are the members' rows, gathered once
    (ones for unit weights). points, weights and u are the full data; points
    None alone marks a sample loaded without its dataset, and weights None is
    unit weights. Growth (a larger scale) reuses the same u, so it only adds
    members. member_norms (the members' squared norms) and, at low d,
    member_cols (member_points.T, C-contiguous) are what each estimate's
    `nearest` reads (`core._kept_inputs`), made by its first estimate in a
    Euclidean space and never saved.
    """

    points: np.ndarray | None = field(repr=False)
    weights: np.ndarray | None = field(repr=False)
    u: np.ndarray | None = field(repr=False)
    pi: np.ndarray = field(repr=False)
    scale: float
    members: np.ndarray
    member_points: np.ndarray = field(repr=False)
    member_weights: np.ndarray = field(repr=False)
    w_prime: np.ndarray = field(init=False, repr=False)
    saturated: bool = field(init=False)
    member_cols: np.ndarray | None = field(init=False, default=None, repr=False)
    member_norms: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.w_prime = self.member_weights / np.minimum(1.0, self.scale * self.pi[self.members])
        # the full data, so exact estimates; fl(s x) is monotone, so s min(pi) is min(s pi)
        self.saturated = bool(self.pi.size == 0 or self.scale * self.pi.min() >= 1.0)  # NaN fails

    @property
    def p(self) -> np.ndarray:
        return np.minimum(1.0, self.scale * self.pi)

    @property
    def size(self) -> int:
        return int(self.members.shape[0])

    def with_probabilities(self, pi, scale: float = 1.0) -> "CoordinatedSample":
        """Same u, probabilities min(1, scale pi) (typically grown); needs the full data."""
        return _select(self.points, self.weights, self.u, np.asarray(pi, np.float64), scale)


def _select(points, weights, u, pi, scale) -> CoordinatedSample:
    m = np.flatnonzero(u <= scale * pi)  # u <= 1, so p's cap changes nothing
    member_weights = np.ones(m.size) if weights is None else weights[m]
    return CoordinatedSample(points, weights, u, pi, scale, m, points[m], member_weights)


def draw(points, weights, pi, seed: int, scale: float = 1.0) -> CoordinatedSample:
    """Materialize the coordinated sample at probabilities min(1, scale pi), scale > 0."""
    points = as_points(points)
    n = points.shape[0]
    weights = as_weights(weights, n)
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (n,):
        raise ValueError("need one probability per point")
    if not (scale > 0.0 and (pi.size == 0 or pi.min() >= 0.0 and pi.max() <= 1.0)):  # NaN fails
        raise ValueError(f"pi must lie in [0, 1] and scale {scale!r} be > 0")
    return _select(points, weights, point_uniforms(seed, n), pi, scale)


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
