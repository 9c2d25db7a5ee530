"""Relaxed metric spaces, weighted point sets, and exact clustering cost.

Distances are either powered Euclidean, d(x, y) = ||x - y||_2^p (a relaxed
metric with rho = 2^(p-1) for p > 1), or read from a precomputed symmetric
matrix whose points are row indices. Two kernels compute every exact
distance, in either kind of space: `_fill` sets the distances from chosen
rows to one point (`pairwise`, kmeans++ step 1, `replay`, Lloyd's empty-cell
re-seed), and `_lower` lowers a running nearest-centroid assignment
(`nearest`, later kmeans++ steps). A matrix space reads the distances to
one centroid at a time from its (contiguous) row, which equals the column
by symmetry, so memory stays O(n) for any number of centroids. `_owners`
gives Lloyd the owners alone and computes a distance only where the screen
below cannot name the owner.

Every Euclidean distance is computed one way, by `_exact`: the difference
x - q, squared, then numpy's pairwise sum over the row. Owners, distances
and costs are therefore the same however the work is split into chunks, and
whatever BLAS library and thread count numpy uses.

`_lower` uses a GEMM only to decide which of those exact distances to
compute. Per chunk of rows it scores every centroid as
s_j = ||q_j||^2 - 2 x.q_j, so that ||x - q_j||^2 is about s_j + ||x||^2.
With u = 2^-53 and gamma_n = n u / (1 - n u), dot-product error bounds hold
for any summation order, with or without fused multiply-add:

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
score that overflows to inf or NaN never skips anything. With one centroid
(every kmeans++ step after the first) its score is the row's best, so only
the test against the current distance applies.

A centroid the screen drops scores more than twice the margin above the
best, so its exact distance is strictly above the best-scoring centroid's.
`_owners` screens a fresh assignment (every row at inf): a row left with a
single candidate is owned by it, with no distance computed, unless
||x||^2 + max_j ||q_j||^2 >= 2^1020, where that distance may round to inf
and so own nothing. Every other row gets the exact loop above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Cap on elements per temporary buffer in the distance kernels (~8 MB float64).
_CHUNK_ELEMS = 1 << 20
# Elements per block in _fill (512 KB of float64): the rows stay in cache
# through difference, square and sum, which runs 1.3-2x faster than
# _CHUNK_ELEMS-sized blocks at n = 1e5..5e5, d = 10..50 (2-vCPU x86 VM).
_GATHER_ELEMS = 1 << 16
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0  # u = 2^-53
_UNDERFLOW = 2.0 * np.finfo(np.float64).tiny  # u * 2^-1021 = 2^-1074
_HUGE = 2.0**1020  # squared sizes past this may overflow to inf in a distance


@dataclass(frozen=True)
class MetricSpace:
    """A relaxed metric: symmetric, d(x,x)=0, and d(x,y) <= rho*(d(x,z)+d(z,y))."""

    kind: str  # "euclidean" or "matrix"
    power: float = 2.0
    rho: float = 2.0
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        """Every space is checked here, however it was built, except for the
        relaxed triangle inequality (`from_matrix` samples it)."""
        if self.kind == "euclidean":
            if not self.power > 0:
                raise ValueError("power must be positive")
        elif self.kind == "matrix":
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("distance matrix must be square")
            require_finite(distances=m)
            if np.any(m < 0):
                raise ValueError("distances must be nonnegative")
            if np.any(np.abs(np.diag(m)) > 0):
                raise ValueError("distance matrix must have zero diagonal")
            if not np.array_equal(m, m.T):
                raise ValueError("distance matrix must be symmetric")
            object.__setattr__(self, "matrix", m)
        else:
            raise ValueError(f"space kind must be 'euclidean' or 'matrix', not {self.kind!r}")

    @staticmethod
    def euclidean(power: float = 2.0) -> "MetricSpace":
        """Powered Euclidean distance ||x-y||^power; power=2 is squared Euclidean."""
        rho = 1.0 if power <= 1.0 else 2.0 ** (power - 1.0)
        return MetricSpace(kind="euclidean", power=float(power), rho=rho)

    @staticmethod
    def from_matrix(matrix: np.ndarray, rho: float = 1.0) -> "MetricSpace":
        """Distance matrix space; points are row/column indices.

        The rho-relaxed triangle inequality is validated on 1000 triples
        drawn with seed 0 (exhaustive validation is O(n^3)).
        """
        if not rho >= 1.0:
            raise ValueError("rho must be >= 1")
        space = MetricSpace(kind="matrix", power=float("nan"), rho=float(rho), matrix=matrix)
        m = space.matrix
        n = m.shape[0]
        if n >= 3:
            idx = np.random.default_rng(0).integers(0, n, size=(1000, 3))
            dxy = m[idx[:, 0], idx[:, 1]]
            via = m[idx[:, 0], idx[:, 2]] + m[idx[:, 2], idx[:, 1]]
            if np.any(dxy > rho * via * (1.0 + 1e-9)):
                raise ValueError(f"matrix violates the rho={rho} relaxed triangle inequality")
        return space


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


def _operands(space: MetricSpace, X, Q) -> tuple[np.ndarray, np.ndarray]:
    """X and Q as arrays; Euclidean ones must agree in dimension."""
    X = as_points(X)
    Q = as_points(Q)
    if space.kind != "matrix" and X.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: points d={X.shape[1]}, centroids d={Q.shape[1]}")
    return X, Q


def pairwise(space: MetricSpace, X, Q) -> np.ndarray:
    """Full (n, k) matrix of distances from each point to each centroid."""
    X, Q = _operands(space, X, Q)
    out = np.empty((X.shape[0], Q.shape[0]))
    for j in range(Q.shape[0]):
        _fill(space, X, Q[j], out[:, j])
    if out.size and not np.isfinite(out.max()):
        require_finite(points=X, centroids=Q)
    return out


def nearest(space: MetricSpace, X, Q, *, norms: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (owner index, distance) to the nearest centroid.

    Memory stays O(n) even for large k; ties go to the lowest index.
    Euclidean distances are lowered squared and raised to the power once.
    norms, if given, are X's squared row norms as `run_trace` keeps them
    (`KmeansPPTrace.norms`), so this pass need not compute them; a matrix
    space ignores them.
    """
    X, Q = _operands(space, X, Q)
    dist = np.full(X.shape[0], np.inf)
    owner = np.zeros(X.shape[0], dtype=np.intp)
    if norms is not None and np.shape(norms) != (X.shape[0],):
        raise ValueError("norms must be one per point")
    if space.kind == "matrix":
        _lower(space, X, Q, 0, dist, owner, None)
        return owner, dist
    require_finite(centroids=Q)
    if norms is None:
        norms = _row_norms(space, X)
    _lower(MetricSpace.euclidean(2.0), X, Q, 0, dist, owner, norms)
    if dist.size and not np.isfinite(dist.max()):
        require_finite(points=X)  # a NaN or inf row keeps its initial inf
    if space.power != 2.0:
        dist **= space.power / 2.0
    return owner, dist


def _row_norms(space: MetricSpace, X: np.ndarray) -> np.ndarray | None:
    """The squared row norms `_lower` takes; a matrix space needs none."""
    return None if space.kind == "matrix" else np.einsum("ij,ij->i", X, X)


def _exact(diff: np.ndarray, q: np.ndarray, power: float, out: np.ndarray | None = None
           ) -> np.ndarray:
    """||x - q||^power for the gathered rows x in diff, which is overwritten.

    This is the one formula behind every Euclidean distance the package
    reports: the difference, squared, numpy's pairwise sum over the row,
    then the power. out, if given, receives the result.
    """
    diff -= q
    np.square(diff, out=diff)
    exact = diff.sum(axis=1, out=out)
    if power != 2.0:
        exact **= power / 2.0
    return exact


def _fill(space: MetricSpace, X: np.ndarray, q, dist: np.ndarray,
          rows: np.ndarray | None = None, norms: np.ndarray | None = None) -> None:
    """dist[rows] = d(X[rows], q), for every row when rows is None.

    No screen: every row asked for gets `_exact`, over blocks of at most
    _GATHER_ELEMS (and _CHUNK_ELEMS) elements, copied contiguously when rows
    is None and gathered by index otherwise. norms, if given (Euclidean, rows
    None), receives the squared row norms `_lower` takes, each computed from
    its block while the block is in cache.
    """
    if space.kind == "matrix":
        sel = slice(None) if rows is None else rows
        dist[sel] = space.matrix[q, X[sel]]
        return
    n = X.shape[0] if rows is None else rows.size
    step = max(1, min(_GATHER_ELEMS, _CHUNK_ELEMS) // max(X.shape[1], 1))
    buf = np.empty((min(step, n), X.shape[1]))
    for start in range(0, n, step):
        m = min(step, n - start)
        if rows is None:
            np.copyto(buf[:m], X[start : start + m])
            if norms is not None:
                np.einsum("ij,ij->i", buf[:m], buf[:m], out=norms[start : start + m])
            _exact(buf[:m], q, space.power, out=dist[start : start + m])
        else:
            part = rows[start : start + m]
            dist[part] = _exact(np.take(X, part, axis=0, out=buf[:m]), q, space.power)


def _screen(X: np.ndarray, Q: np.ndarray, norms: np.ndarray, dist: np.ndarray | None,
            power: float):
    """Yield (rows, cand) per chunk of a Euclidean X: the screen described above.

    rows is a slice of X and cand a (k, rows) mask that is False only where
    centroid j cannot be the row's nearest, or where no centroid can beat
    dist[row] (d^power; None stands for a fresh assignment, every row at
    inf).
    """
    d = X.shape[1]
    k = Q.shape[0]
    qq = np.einsum("ij,ij->i", Q, Q)
    slack = qq.max() + _UNDERFLOW
    # temporaries per row: k scores, then d for the row once it is gathered;
    # sizing by 2d + k leaves room for the masks and per-row vectors as well
    step = max(1, _CHUNK_ELEMS // (2 * d + k))
    for start in range(0, X.shape[0], step):
        rows = slice(start, start + step)
        score = Q @ X[rows].T  # one row per centroid
        score *= -2.0
        score += qq[:, None]
        best = score[0] if k == 1 else score.min(axis=0)
        xx = norms[rows]
        margin = xx + slack
        margin *= 4.0 * (d + 4) * _UNIT_ROUNDOFF
        bound = best + xx
        bound -= margin  # at most the row's smallest exact distance
        if power != 2.0:
            np.maximum(bound, 0.0, out=bound)
            bound **= power / 2.0
            bound *= 1.0 - 1e-12  # pow is within a few ulps and monotone
        skip = bound >= (np.inf if dist is None else dist[rows])  # cannot beat it
        if k == 1:
            skip = skip[None, :]
        else:
            margin *= 2.0
            best += margin  # a score above this cannot be the row's nearest
            far = score > best
            skip = np.logical_or(far, skip, out=far)
        del score
        yield rows, np.logical_not(skip, out=skip)  # NaN (overflow) never skips


def _running_min(block: np.ndarray, Q: np.ndarray, base: int, cand: np.ndarray,
                 cur: np.ndarray, who: np.ndarray, power: float) -> None:
    """Lower (cur, who) over the rows of block by each centroid where cand
    holds: `_exact` distances, in index order, with strict improvement."""
    for j in range(Q.shape[0]):
        rows = np.flatnonzero(cand[j])
        exact = _exact(block[rows], Q[j], power)
        better = exact < cur[rows]
        rows = rows[better]
        cur[rows] = exact[better]
        who[rows] = base + j


def _lower(space: MetricSpace, X: np.ndarray, Q: np.ndarray, base: int, dist: np.ndarray,
           owner: np.ndarray, norms: np.ndarray | None) -> None:
    """Lower (dist, owner) in place by the centroids Q, numbered from base.

    The result is that of a running minimum over the columns of
    pairwise(space, X, Q) with strict improvement, so the lowest index wins
    ties. A Euclidean space screens with the GEMM described above, and
    norms = _row_norms(space, X), which callers reuse across calls.
    """
    if space.kind == "matrix":
        for j in range(Q.shape[0]):
            col = space.matrix[Q[j], X]
            better = col < dist
            dist[better] = col[better]
            owner[better] = base + j
        return
    for rows, cand in _screen(X, Q, norms, dist, space.power):
        _running_min(X[rows], Q, base, cand, dist[rows], owner[rows], space.power)


def _owners(X: np.ndarray, Q: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The owners nearest(MetricSpace.euclidean(2.0), X, Q) reports.

    Exact distances only for rows with several candidates (ties, near-ties,
    overflowing scores) or too large to trust a lone one; see above.
    """
    k = Q.shape[0]
    owner = np.zeros(X.shape[0], dtype=np.intp)
    limit = _HUGE - np.einsum("ij,ij->i", Q, Q).max()
    index = np.arange(k, dtype=np.float64)
    for rows, cand in _screen(X, Q, norms, None, 2.0):
        single = cand.sum(axis=0) == 1
        single &= norms[rows] < limit
        who = owner[rows]
        pick = index @ cand  # a lone candidate's index, where single
        who[single] = pick[single]
        rest = np.flatnonzero(~single)
        if rest.size:
            sub = np.zeros(rest.size, dtype=np.intp)
            _running_min(X[rows][rest], Q, 0, cand[:, rest], np.full(rest.size, np.inf),
                         sub, 2.0)
            who[rest] = sub
    return owner


def cost(space: MetricSpace, X, weights, Q, *, norms: np.ndarray | None = None) -> float:
    """Clustering cost: the weighted sum of point-to-nearest-centroid distances.

    norms is passed on to `nearest`.
    """
    X = as_points(X)
    dist = nearest(space, X, Q, norms=norms)[1]
    if weights is not None:
        dist *= as_weights(weights, X.shape[0])  # in place: the same products
    return float(np.sum(dist))
