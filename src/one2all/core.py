"""Relaxed metric spaces, weighted point sets, and exact clustering cost.

Distances are either powered Euclidean, d(x, y) = ||x - y||_2^p (a relaxed
metric with rho = 2^(p-1) for p > 1), or read from a precomputed symmetric
matrix.

Every Euclidean distance the package reports is computed one way: the
difference x - q, squared, then numpy's pairwise sum over the row, as
`pairwise` does. Owners, distances and costs are therefore the same however
the work is split into chunks, and whatever BLAS library and thread count
numpy uses.

The nearest-centroid kernel behind `nearest` and the kmeans++ trace uses a
GEMM only to decide which of those exact distances to compute. Per chunk of
rows it scores every centroid as s_j = ||q_j||^2 - 2 x.q_j, so that
||x - q_j||^2 is about s_j + ||x||^2. With u = 2^-53 and
gamma_n = n u / (1 - n u), dot-product error bounds hold for any summation
order, with or without fused multiply-add:

    |fl(x.q) - x.q|           <= gamma_d ||x|| ||q|| <= gamma_d (||x||^2 + ||q||^2) / 2
    |fl(||v||^2) - ||v||^2|   <= gamma_d ||v||^2
    |exact(x, q) - ||x-q||^2| <= gamma_{d+2} ||x-q||^2 <= 2 gamma_{d+2} (||x||^2 + ||q||^2)

The first two put the score plus ||x||^2 within 2 gamma_d (||x||^2 + ||q||^2)
of ||x - q||^2 and the third adds 2 gamma_{d+2}. Each of the four additions
the kernel rounds adds at most 2 u (||x||^2 + ||q||^2), and 4 (d + 4) u
covers the total with room for the second-order terms of gamma. So every
exact distance lies within

    margin(x) = 4 (d + 4) u (||x||^2 + max_j ||q_j||^2 + 2^-1021)

of s_j + ||x||^2; the 2^-1021 term covers products that underflow. A row is
skipped when its best score plus ||x||^2, less the margin, cannot beat its
current distance. Otherwise only centroids scoring within twice the margin
of the row's best can be nearest, and each of those gets an exact distance,
taken in index order with strict improvement. That is the running minimum
of the plain per-centroid loop, so ties still go to the lowest index. A
score that overflows to inf or NaN never skips anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Cap on elements per temporary buffer in the distance kernels (~8 MB float64).
_CHUNK_ELEMS = 1 << 20
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0  # u = 2^-53
_UNDERFLOW = 2.0 * np.finfo(np.float64).tiny  # u * 2^-1021 = 2^-1074


@dataclass(frozen=True)
class MetricSpace:
    """A relaxed metric: symmetric, d(x,x)=0, and d(x,y) <= rho*(d(x,z)+d(z,y))."""

    kind: str  # "euclidean" or "matrix"
    power: float = 2.0
    rho: float = 2.0
    matrix: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def euclidean(power: float = 2.0) -> "MetricSpace":
        """Powered Euclidean distance ||x-y||^power; power=2 is squared Euclidean."""
        if power <= 0:
            raise ValueError("power must be positive")
        rho = 1.0 if power <= 1.0 else 2.0 ** (power - 1.0)
        return MetricSpace(kind="euclidean", power=float(power), rho=rho)

    @staticmethod
    def from_matrix(
        matrix: np.ndarray,
        rho: float = 1.0,
        check_triples: int = 1000,
        seed: int = 0,
    ) -> "MetricSpace":
        """Distance matrix space; points are row/column indices.

        Symmetry and the rho-relaxed triangle inequality are validated on a
        random sample of triples (exhaustive validation is O(n^3)).
        """
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("distance matrix must be square")
        if rho < 1.0:
            raise ValueError("rho must be >= 1")
        if np.any(m < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.abs(np.diag(m)) > 0):
            raise ValueError("distance matrix must have zero diagonal")
        if not np.array_equal(m, m.T):
            raise ValueError("distance matrix must be symmetric")
        n = m.shape[0]
        if n >= 3 and check_triples > 0:
            rng = np.random.default_rng(seed)
            idx = rng.integers(0, n, size=(check_triples, 3))
            dxy = m[idx[:, 0], idx[:, 1]]
            via = m[idx[:, 0], idx[:, 2]] + m[idx[:, 2], idx[:, 1]]
            if np.any(dxy > rho * via * (1.0 + 1e-9)):
                raise ValueError(f"matrix violates the rho={rho} relaxed triangle inequality")
        return MetricSpace(kind="matrix", power=float("nan"), rho=float(rho), matrix=m)


@dataclass
class WeightedPointSet:
    """Points with positive weights. For matrix spaces, points are indices."""

    points: np.ndarray
    weights: np.ndarray

    def __init__(self, points: np.ndarray, weights: np.ndarray | None = None):
        points = np.asarray(points)
        if points.ndim == 1 and points.dtype.kind in "iu":
            pass  # index-based points for matrix spaces
        elif points.ndim == 2:
            points = np.asarray(points, dtype=np.float64)
        else:
            raise ValueError("points must be an (n, d) array, or 1-d integer indices")
        weights = as_weights(weights, points.shape[0])
        if points.shape[0] < 1:
            raise ValueError("need at least one point")
        self.points = points
        self.weights = weights

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass
class CentroidSet:
    """An ordered set of centroids; exact duplicates are dropped on construction."""

    points: np.ndarray

    def __init__(self, points: np.ndarray):
        points = as_points(points)
        if points.shape[0] < 1:
            raise ValueError("need at least one centroid")
        self.points = _dedup_rows(points)

    @property
    def k(self) -> int:
        return self.points.shape[0]


def _dedup_rows(points: np.ndarray) -> np.ndarray:
    if points.ndim == 1:
        _, first = np.unique(points, return_index=True)
    else:
        _, first = np.unique(points, axis=0, return_index=True)
    if first.size == points.shape[0]:
        return points
    return points[np.sort(first)]


def as_points(x) -> np.ndarray:
    """Normalize a CentroidSet / WeightedPointSet / array-like to an array."""
    if isinstance(x, (CentroidSet, WeightedPointSet)):
        return x.points
    arr = np.asarray(x)
    if arr.dtype.kind in "iu" and arr.ndim == 1:
        return arr
    return np.atleast_2d(np.asarray(arr, dtype=np.float64))


def require_finite(**arrays) -> None:
    """Raise ValueError naming the first array that holds NaN or inf.

    The distance kernels assume finite input. min and max propagate NaN, so
    the check needs no temporary array.
    """
    for what, values in arrays.items():
        a = np.asarray(values)
        if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise ValueError(f"{what} contain NaN or inf")


def as_weights(w, n: int) -> np.ndarray:
    """w as n finite, positive float64 weights (all ones for None), else ValueError."""
    if w is None:
        return np.ones(n)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("weights must be one per point")
    require_finite(weights=w)
    if w.size and w.min() <= 0.0:
        raise ValueError("weights must be positive")
    return w


def pairwise(space: MetricSpace, X, Q) -> np.ndarray:
    """Full (n, k) matrix of distances from each point to each centroid."""
    X = as_points(X)
    Q = as_points(Q)
    if space.kind == "matrix":
        return space.matrix[np.ix_(X, Q)]
    if X.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: points d={X.shape[1]}, centroids d={Q.shape[1]}")
    n, d = X.shape
    k = Q.shape[0]
    out = np.empty((n, k))
    step = max(1, _CHUNK_ELEMS // max(d, 1))
    for start in range(0, n, step):
        block = X[start : start + step]
        for j in range(k):
            diff = block - Q[j]
            np.square(diff, out=diff)
            out[start : start + step, j] = diff.sum(axis=1)
    if space.power != 2.0:
        out **= space.power / 2.0
    return out


def nearest(space: MetricSpace, X, Q) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (owner index, distance) to the nearest centroid.

    Memory stays O(n) even for large k; ties go to the lowest index.
    """
    X = as_points(X)
    Q = as_points(Q)
    if space.kind == "matrix":
        mat = space.matrix[np.ix_(X, Q)]
        owner = np.argmin(mat, axis=1)
        return owner, mat[np.arange(X.shape[0]), owner]
    if X.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: points d={X.shape[1]}, centroids d={Q.shape[1]}")
    dist = np.full(X.shape[0], np.inf)
    owner = np.zeros(X.shape[0], dtype=np.intp)
    _lower(X, Q, 0, dist, owner, np.einsum("ij,ij->i", X, X))
    if space.power != 2.0:
        dist **= space.power / 2.0
    return owner, dist


def _exact(diff: np.ndarray, q: np.ndarray, power: float, out: np.ndarray | None = None
           ) -> np.ndarray:
    """||x - q||^power for the gathered rows x in diff, which is overwritten.

    This is the one formula behind every distance the kernel and the trace
    replay report: the difference, squared, numpy's pairwise sum over the
    row, then the power. out, if given, receives the result.
    """
    diff -= q
    np.square(diff, out=diff)
    exact = diff.sum(axis=1, out=out)
    if power != 2.0:
        exact **= power / 2.0
    return exact


def _lower(X: np.ndarray, Q: np.ndarray, base: int, dist: np.ndarray,
           owner: np.ndarray, norms: np.ndarray, power: float = 2.0) -> None:
    """Lower (dist, owner) in place by the centroids Q, numbered from base.

    The result is that of a running minimum over the columns of
    pairwise(X, Q) with strict improvement: a row moves to centroid base + j
    only if ||x - Q[j]||^power is below dist, and the lowest index wins
    ties. dist holds distances raised to that same power; norms holds the
    squared row norms of X, which callers reuse across calls.
    """
    d = X.shape[1]
    k = Q.shape[0]
    qq = np.einsum("ij,ij->i", Q, Q)
    slack = qq.max() + _UNDERFLOW
    # temporaries per row: k scores, then d for the row once it is gathered;
    # sizing by 2d + k leaves room for the masks and per-row vectors as well
    step = max(1, _CHUNK_ELEMS // (2 * d + k))
    for start in range(0, X.shape[0], step):
        block = X[start : start + step]
        cur = dist[start : start + step]
        who = owner[start : start + step]
        score = Q @ block.T  # one row per centroid
        score *= -2.0
        score += qq[:, None]
        best = score.min(axis=0)
        xx = norms[start : start + step]
        margin = xx + slack
        margin *= 4.0 * (d + 4) * _UNIT_ROUNDOFF
        bound = best + xx
        bound -= margin  # at most the row's smallest exact distance
        if power != 2.0:
            np.maximum(bound, 0.0, out=bound)
            bound **= power / 2.0
            bound *= 1.0 - 1e-12  # pow is within a few ulps and monotone
        margin *= 2.0
        best += margin  # a score above this cannot be the row's nearest
        skip = score > best
        del score
        skip |= bound >= cur  # cannot beat the row's current distance
        cand = np.logical_not(skip, out=skip)  # NaN (overflow) never skips
        for j in range(k):
            rows = np.flatnonzero(cand[j])
            exact = _exact(block[rows], Q[j], power)
            better = exact < cur[rows]
            rows = rows[better]
            cur[rows] = exact[better]
            who[rows] = base + j


def cost(space: MetricSpace, X, weights, Q) -> float:
    """Clustering cost: the weighted sum of point-to-nearest-centroid distances."""
    X = as_points(X)
    _, dist = nearest(space, X, Q)
    if weights is None:
        return float(np.sum(dist))
    return float(np.sum(as_weights(weights, X.shape[0]) * dist))
