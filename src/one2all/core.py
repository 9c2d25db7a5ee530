"""Relaxed metric spaces, weighted point sets, and exact clustering cost.

Distances are either powered Euclidean, d(x, y) = ||x - y||_2^p (a relaxed
metric with rho = 2^(p-1) for p > 1), or read from a precomputed symmetric
matrix whose points are row indices. Two kernels compute every exact
distance, in either kind of space: `_fill` sets the distances from every
row to one point (`pairwise`, kmeans++ step 1, a one-centroid `nearest`),
and `_lower` lowers a running nearest-centroid assignment (`nearest`, later
kmeans++ steps, the wrapper's M past its first k centroids). `nearest` is
the one fresh assignment: `cost`, every estimate and the exact pass for the
wrapper's and the oracle's M are each one `nearest` call. A matrix space
reads the distances to one centroid at a time from its (contiguous) row,
which equals the column by symmetry, so memory stays O(n) for any number of
centroids.
`_owners` is the one pass that reads a fresh assignment's lone candidates:
it gives the owners alone, computing a distance only where the screen
below cannot name the owner. Lloyd reads its owners, and a fresh
feature-major `nearest` is `_owners` then one `_sweep` that writes each
row's distance to its owner.

Every Euclidean distance is computed one way, by `_exact`: the difference
x - q, squared, then numpy's pairwise sum over the row. Where X has at most
_COLUMNS_MAX_D columns, or a sample passes its members' kept transpose, the
block is feature-major instead, one row per coordinate, and `_colsum` makes
the same pairwise additions for all its points at once, one contiguous row
add each, where numpy would pay a reduction call per point: the same bits.
Owners, distances and costs are therefore the same however the work is
split into chunks or laid out, and whatever BLAS library and thread count
numpy uses.

A pass over every row holds one distance array and its owners, and no
other n-length array. `nearest` and `_owners` return owners in the
smallest unsigned type that holds k - 1 (`np.min_scalar_type`), one byte
for up to 256 centroids; a caller that lowers them by more centroids widens
them first.
Squared row norms only steer the screen below, so a pass that is given none
(`cost`, the pass for M) computes each chunk's from the rows it has just
multiplied; callers that pass over the same rows again keep theirs: a
kmeans++ trace its S0's, Lloyd its sample's, and a sample its members'.

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
and so own nothing. Every other row gets the exact loop above, whose
running minimum leaves a row at inf with owner 0. Either way the owner is
the loop's, and the sweep's `_colsum` distance to it has the row sum's bits.
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
# Widest X whose full-data passes (`_fill`, a fresh `nearest`) work on
# feature-major blocks, transposed as the difference is written. Of d in
# {10, 16, 20, 32, 50}, 20 is the widest at which neither was slower than
# row sums (2-vCPU x86 VM); at 32 the transposing write made `_fill` 40% slower.
_COLUMNS_MAX_D = 20
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0  # u = 2^-53
_UNDERFLOW = 2.0 * np.finfo(np.float64).tiny  # u * 2^-1021 = 2^-1074
_HUGE = 2.0**1020  # squared sizes past this may overflow to inf in a distance


@dataclass(frozen=True)
class MetricSpace:
    """A relaxed metric: symmetric, d(x,x)=0, and d(x,y) <= rho*(d(x,z)+d(z,y))."""

    kind: str  # "euclidean" or "matrix"
    power: float | None = None  # Euclidean: 2 unless given; matrix: NaN
    rho: float | None = None  # Euclidean: 2^(power-1), or 1 for power <= 1; matrix: 1 unless given
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        """Every space is checked here, however it was built. A matrix is
        checked against the relaxed triangle inequality on 1000 triples drawn
        with seed 0 (exhaustive validation is O(n^3))."""
        if self.kind == "euclidean":
            power = 2.0 if self.power is None else float(self.power)
            if not 0 < power < 511.5:  # 8 rho^2 = 2^(2p+1) overflows a float64 from p = 511.5 on
                raise ValueError(f"power must be positive and below 511.5, not {power!r}")
            rho = 1.0 if power <= 1.0 else 2.0 ** (power - 1.0)
            if self.rho is not None and self.rho != rho:
                raise ValueError(f"power {power!r} gives rho {rho!r}, not {self.rho!r}")
            if self.matrix is not None:
                raise ValueError("a Euclidean space takes no distance matrix")
        elif self.kind == "matrix":
            if self.power is not None and not np.isnan(self.power):
                raise ValueError("a matrix space takes no power")
            power, rho = float("nan"), 1.0 if self.rho is None else float(self.rho)
            if not 1.0 <= rho < np.inf:
                raise ValueError("rho must be >= 1 and finite")
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
            if m.shape[0] >= 3:
                x, y, z = np.random.default_rng(0).integers(0, m.shape[0], size=(1000, 3)).T
                if np.any(m[x, y] > rho * (m[x, z] + m[z, y]) * (1.0 + 1e-9)):
                    raise ValueError(f"matrix violates the rho={rho} relaxed triangle inequality")
            object.__setattr__(self, "matrix", m)
        else:
            raise ValueError(f"space kind must be 'euclidean' or 'matrix', not {self.kind!r}")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "rho", rho)

    @staticmethod
    def euclidean(power: float = 2.0) -> "MetricSpace":
        """Powered Euclidean distance ||x-y||^power; power=2 is squared Euclidean."""
        return MetricSpace("euclidean", power)

    @staticmethod
    def from_matrix(matrix: np.ndarray, rho: float = 1.0) -> "MetricSpace":
        """Distance matrix space; points are row/column indices."""
        return MetricSpace("matrix", rho=rho, matrix=matrix)


@dataclass
class WeightedPointSet:
    """Points with positive weights (None: unit). For matrix spaces, points are indices."""

    points: np.ndarray
    weights: np.ndarray | None

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
    """Normalize a CentroidSet or array-like to an array. A WeightedPointSet
    is refused, since its weights would be dropped."""
    if isinstance(x, WeightedPointSet):
        raise TypeError("pass a WeightedPointSet's .points and .weights separately; "
                        "as points alone its weights would be dropped")
    if isinstance(x, CentroidSet):
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


def as_weights(w, n: int) -> np.ndarray | None:
    """w as n finite, positive float64 weights, else ValueError; None (unit weights) stays None."""
    if w is None:
        return None
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


def nearest(space: MetricSpace, X, Q, *, norms: np.ndarray | None = None,
            cols: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (owner index, distance) to the nearest centroid.

    Memory stays O(n) even for large k; ties go to the lowest index.
    Euclidean distances are lowered squared and raised to the power once.
    Owners are in the smallest unsigned type that holds k - 1, as the pass
    writes them. At d <= _COLUMNS_MAX_D, or given cols, the owners are
    `_owners`' and one `_sweep` writes the distances to them. One centroid
    at d > _COLUMNS_MAX_D is `_fill`'s pass, with no screen. norms, if
    given, are X's squared row norms (a sample keeps its members');
    otherwise the screen computes each chunk's from its rows.
    cols, if given, is X.T as a C-contiguous array (a sample at low d keeps
    one), which the feature-major blocks are then read from. A matrix space
    ignores both.
    """
    X, Q = _operands(space, X, Q)
    if Q.shape[0] == 0:  # every distance would be inf, and the screen has no maximum
        raise ValueError("need at least one centroid")
    if norms is not None and np.shape(norms) != (X.shape[0],):
        raise ValueError("norms must be one per point")
    dtype = np.min_scalar_type(Q.shape[0] - 1)  # the owners'
    if space.kind == "matrix":
        owner, dist = np.zeros(X.shape[0], dtype=dtype), np.full(X.shape[0], np.inf)
        _lower(space, X, Q, 0, dist, owner, None)
        return owner, dist
    if cols is not None and np.shape(cols) != X.shape[::-1]:
        raise ValueError("cols must be the points' transpose")
    require_finite(centroids=Q)
    if cols is not None or _columnar(X):
        owner, dist = _owners(X, Q, norms), np.empty(X.shape[0])
        _sweep(X, cols, np.ascontiguousarray(Q.T), owner, dist)
    elif Q.shape[0] == 1:  # every row's owner; no screen can skip a row at inf
        owner, dist = np.zeros(X.shape[0], dtype=dtype), np.empty(X.shape[0])
        _fill(MetricSpace.euclidean(2.0), X, Q[0], dist)
    else:
        owner, dist = np.zeros(X.shape[0], dtype=dtype), np.full(X.shape[0], np.inf)
        _lower(MetricSpace.euclidean(2.0), X, Q, 0, dist, owner, norms)
    if dist.size and not np.isfinite(dist.max()):
        require_finite(points=X)  # a NaN or inf row is NaN or keeps inf
    if space.power != 2.0:
        dist **= space.power / 2.0
    return owner, dist


def _colsum(a: np.ndarray, lo: int = 0, n: int | None = None) -> np.ndarray:
    """Rows lo..lo+n-1 of a feature-major (d, m) block (every row by default),
    summed into a[lo] and returned: a.T.sum(axis=1) bit for bit.

    numpy adds a contiguous row of d values in pairwise order: below 8 one by
    one; up to 128 in 8 interleaved partial sums, added as a tree, then the
    rest one by one; above 128 as two halves, the first a multiple of 8 long.
    Here each of those additions adds two rows of a, so it is made for all m
    points at once, over contiguous memory.
    """
    n = a.shape[0] if n is None else n
    if n == 0:
        return np.zeros(a.shape[1])
    if n > 128:
        half = n // 2 - n // 2 % 8
        _colsum(a, lo, half)
        a[lo] += _colsum(a, lo + half, n - half)
        return a[lo]
    end = lo + 1 if n < 8 else lo + n - n % 8
    if n >= 8:
        r = a[lo : lo + 8]
        for i in range(lo + 8, end, 8):
            r += a[i : i + 8]
        r[0:8:2] += r[1:8:2]
        r[0:8:4] += r[2:8:4]
        r[0] += r[4]
    for i in range(end, lo + n):
        a[lo] += a[i]
    return a[lo]


def _exact(diff: np.ndarray, q, power: float, out: np.ndarray | None = None,
           cols: bool = False) -> np.ndarray:
    """||x - q||^power for the gathered points x in diff, which is overwritten.

    This is the one formula behind every Euclidean distance the package
    reports: the difference, squared, numpy's pairwise sum over the row,
    then the power. diff holds one row per point or, with cols, one row per
    coordinate (feature-major: q is then a column, or one column per point),
    summed by `_colsum` to the same bits and returned as a view of diff.
    q None means diff already holds x - q. out, if given (rows only),
    receives the result.
    """
    if q is not None:
        diff -= q
    np.square(diff, out=diff)
    exact = _colsum(diff) if cols else diff.sum(axis=1, out=out)
    if power != 2.0:
        exact **= power / 2.0
    return exact


def _fill(space: MetricSpace, X: np.ndarray, q, dist: np.ndarray,
          norms: np.ndarray | None = None) -> None:
    """dist = d(X, q), for every row of X.

    No screen: every row gets `_exact`, over contiguous copies of blocks of
    at most _GATHER_ELEMS (and _CHUNK_ELEMS) elements; at low d
    (`_columnar`) `_sweep` makes the pass on feature-major blocks. norms, if
    given (Euclidean), receives the squared row norms `_lower` takes, each
    computed from its block while the block is in cache.
    """
    if space.kind == "matrix":
        dist[:] = space.matrix[q, X]
        return
    if _columnar(X):
        _sweep(X, None, q[:, None], None, dist, space.power, norms)
        return
    n, step = X.shape[0], _block_rows(X)
    buf = np.empty((min(step, n), X.shape[1]))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        block = buf[: min(step, n - start)]
        np.copyto(block, X[rows])
        if norms is not None:
            np.einsum("ij,ij->i", block, block, out=norms[rows])
        _exact(block, q, space.power, out=dist[rows])


def _columnar(X: np.ndarray) -> bool:
    """Whether passes over the row-major X work on feature-major blocks."""
    return X.shape[1] <= _COLUMNS_MAX_D


def _kept_inputs(X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """What a Euclidean `nearest` over X can be passed to skip work that
    repeats on every pass: norms=, and at low d cols= (else None)."""
    return np.einsum("ij,ij->i", X, X), np.ascontiguousarray(X.T) if _columnar(X) else None


def _block_rows(X: np.ndarray) -> int:
    """Rows per block of at most _GATHER_ELEMS (and _CHUNK_ELEMS) elements."""
    return max(1, min(_GATHER_ELEMS, _CHUNK_ELEMS) // max(X.shape[1], 1))


def _screen(X: np.ndarray, Q: np.ndarray, norms: np.ndarray | None, dist: np.ndarray | None,
            power: float):
    """Yield (rows, cand, xx) per chunk of a Euclidean X: the screen described above.

    rows is a slice of X and cand a (k, rows) mask that is False only where
    centroid j cannot be the row's nearest, or where no centroid can beat
    dist[row] (d^power; None stands for a fresh assignment, every row at
    inf). xx holds the rows' squared norms: norms[rows], or computed from
    the rows if norms is None.
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
        xx = np.einsum("ij,ij->i", X[rows], X[rows]) if norms is None else norms[rows]
        with np.errstate(invalid="ignore"):  # an inf row's inf - inf: NaN, which never skips
            margin = xx + slack
            margin *= 4.0 * (d + 4) * _UNIT_ROUNDOFF
            bound = best + xx
            bound -= margin  # at most the row's smallest exact distance
            if k > 1:
                margin *= 2.0
                best += margin  # a score above this cannot be the row's nearest
        if power != 2.0:
            np.maximum(bound, 0.0, out=bound)
            bound **= power / 2.0
            bound *= 1.0 - 1e-12  # pow is within a few ulps and monotone
        skip = bound >= (np.inf if dist is None else dist[rows])  # cannot beat it
        if k == 1:
            skip = skip[None, :]
        else:
            far = score > best
            skip = np.logical_or(far, skip, out=far)
        del score
        yield rows, np.logical_not(skip, out=skip), xx  # NaN (overflow) never skips


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
    ties. A Euclidean space screens with the GEMM described above; norms,
    if given, are X's squared row norms, which callers that pass over X again
    keep, and None computes them per chunk. owner's dtype must hold every
    index written, base + len(Q) - 1: numpy raises OverflowError otherwise.
    """
    if space.kind == "matrix":
        for j in range(Q.shape[0]):
            col = space.matrix[Q[j], X]
            better = col < dist
            dist[better] = col[better]
            owner[better] = base + j
        return
    for rows, cand, _ in _screen(X, Q, norms, dist, space.power):
        _running_min(X[rows], Q, base, cand, dist[rows], owner[rows], space.power)


def _sweep(X: np.ndarray, XT: np.ndarray | None, QT: np.ndarray, first: np.ndarray | None,
           out: np.ndarray, power: float = 2.0, norms: np.ndarray | None = None) -> None:
    """out[i] = ||x - q||^power for every row x = X[i], and q the column
    first[i] of QT, or its only column (first is then not read).

    The blocks of `_block_rows` points are feature-major: read from XT (X.T,
    C-contiguous) if given, else transposed from X as the difference is
    written. norms, if given, receives the rows' squared norms, each
    computed from its block.
    """
    d, step = X.shape[1], _block_rows(X)
    buf = np.empty(d * min(step, out.size))
    for lo in range(0, out.size, step):
        hi = min(lo + step, out.size)
        at = slice(lo, hi)
        if norms is not None:
            np.einsum("ij,ij->i", X[at], X[at], out=norms[at])
        diff = buf[: d * (hi - lo)].reshape(d, hi - lo)
        q = QT if QT.shape[1] == 1 else np.take(QT, first[lo:hi], axis=1, out=diff, mode="clip")
        np.subtract(X[at].T if XT is None else XT[:, at], q, out=diff)
        out[lo:hi] = _exact(diff, None, power, cols=True)


def _owners(X: np.ndarray, Q: np.ndarray, norms: np.ndarray | None) -> np.ndarray:
    """The owners nearest(MetricSpace.euclidean(2.0), X, Q) reports, in its dtype.

    One screen of a fresh assignment: a row left with one candidate is owned
    by it, with no distance computed, unless ||x||^2 + max_j ||q_j||^2 >=
    _HUGE; every other row gets the exact loop. norms, if given, are X's
    squared row norms; None computes each chunk's.
    """
    k = Q.shape[0]
    owner = np.zeros(X.shape[0], dtype=np.min_scalar_type(k - 1))
    if k == 1:
        return owner
    limit = _HUGE - np.einsum("ij,ij->i", Q, Q).max()
    small = np.min_scalar_type(k)  # holds 0..k, so counts and lone indices are exact
    index = np.arange(k, dtype=small)
    for rows, cand, xx in _screen(X, Q, norms, None, 2.0):
        count = cand.sum(axis=0, dtype=small)
        # the lone candidate's index where count is 1, summed without a cast copy of cand
        owner[rows] = np.einsum("i,ij->j", index, cand, dtype=small)
        rest = np.flatnonzero((count != 1) | (xx >= limit))
        if rest.size:
            who = np.zeros(rest.size, dtype=owner.dtype)
            _running_min(X[rows][rest], Q, 0, cand[:, rest], np.full(rest.size, np.inf), who,
                         2.0)
            owner[rows.start + rest] = who
    return owner


def cost(space: MetricSpace, X, weights, Q) -> float:
    """Clustering cost: the weighted sum of point-to-nearest-centroid distances.

    One `nearest` pass, which keeps no row norms.
    """
    X = as_points(X)
    dist = nearest(space, X, Q)[1]
    return _wsum(as_weights(weights, X.shape[0]), dist, out=dist)


def _wsum(w: np.ndarray | None, d: np.ndarray, out: np.ndarray | None = None) -> float:
    """Sum of w * d (into out, if given); of d for unit weights (None), as 1.0 * d is d."""
    return float(np.sum(d if w is None else np.multiply(w, d, out=out)))
