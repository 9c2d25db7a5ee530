"""Weighted kmeans++ (D²) seeding that keeps the whole centroid trace.

Every downstream stage consumes the same trace: the prefix costs v_i pick
the sweet spot, the prefix assignments feed the sampling probabilities, and
the first k centroids seed the base clusterer. The trace logs which rows
each step moved, so `replay` rebuilds any prefix's assignment from the log
without a second pass over the rows that stayed put.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import core
from .core import MetricSpace, _exact, _lower, as_points, as_weights, pairwise

# Elements per replay gather and per first-step block (512 KB of float64):
# the rows stay in cache through difference, square and sum, which runs
# 1.3-2x faster than core._CHUNK_ELEMS-sized gathers at n = 1e5..5e5,
# d = 10..50 (2-vCPU x86 VM).
_GATHER_ELEMS = 1 << 16


@dataclass
class KmeansPPTrace:
    """Centroids m_1..m_ell with v_i = cost of the first i of them.

    owner and dist are the assignment to all ell centroids. moves is the
    move log: bit x of row i (0-based, np.packbits order) is set when point
    x moved to centroid i, that is, when x's owner in the length-(i+1)
    prefix is i. One (ell, ceil(n/8)) uint8 array holds the whole log.
    """

    space: MetricSpace = field(repr=False)
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    centroid_indices: np.ndarray
    centroids: np.ndarray = field(repr=False)
    prefix_costs: np.ndarray
    owner: np.ndarray = field(repr=False)  # final-prefix assignment
    dist: np.ndarray = field(repr=False)
    moves: np.ndarray = field(repr=False)
    seed: int
    truncated: bool = False

    @property
    def ell(self) -> int:
        return int(self.centroid_indices.shape[0])

    def prefix(self, i: int) -> np.ndarray:
        """Centroids of the length-i prefix, 1 <= i <= ell."""
        if not 1 <= i <= self.ell:
            raise IndexError(f"prefix length {i} outside 1..{self.ell}")
        return self.centroids[:i]


def _draw_index(rng: np.random.Generator, mass: np.ndarray) -> int:
    """One categorical draw proportional to mass (one uniform, prefix sums)."""
    cum = np.cumsum(mass)
    r = rng.random() * cum[-1]
    idx = int(np.searchsorted(cum, r, side="right"))
    idx = min(idx, mass.shape[0] - 1)
    while mass[idx] == 0.0:  # fp edge: never land on a zero-mass point
        idx -= 1
    return idx


def _first_step(space: MetricSpace, X: np.ndarray, s: int, dist: np.ndarray) -> None:
    """dist = d(X, X[s]) for every row: step 1 of the trace and of replay.

    Step 1 moves every row, so no screen can skip one. Contiguous blocks of
    at most _GATHER_ELEMS (and core._CHUNK_ELEMS) elements go through the
    formula every other step uses, with no gather by index.
    """
    if space.kind == "matrix":
        dist[:] = space.matrix[X, X[s]]
        return
    n, d = X.shape
    step = max(1, min(_GATHER_ELEMS, core._CHUNK_ELEMS) // max(d, 1))
    block = np.empty((min(step, n), d))
    for start in range(0, n, step):
        m = min(step, n - start)
        np.copyto(block[:m], X[start : start + m])
        _exact(block[:m], X[s], space.power, out=dist[start : start + m])


def _extender(space: MetricSpace, X: np.ndarray):
    """A prefix to fill (owner = 0; dist unset until _first_step) and
    add(s, i), which makes X[s] centroid i >= 1: the rows strictly closer to
    it move to it, in place."""
    dist = np.empty(X.shape[0])
    owner = np.zeros(X.shape[0], dtype=np.intp)
    if space.kind == "matrix":
        def add(s: int, i: int) -> None:
            dnew = pairwise(space, X, X[s : s + 1])[:, 0]
            better = dnew < dist
            dist[better] = dnew[better]
            owner[better] = i

        return dist, owner, add
    norms = np.einsum("ij,ij->i", X, X)

    def add(s: int, i: int) -> None:
        _lower(X, X[s : s + 1], i, dist, owner, norms, space.power)

    return dist, owner, add


def run_trace(space: MetricSpace, X, w, ell: int, seed: int) -> KmeansPPTrace:
    """D² seeding: m_1 ~ w_x, then m_i ~ w_x * d(x, prefix).

    Maintains per-point distance to the prefix incrementally: one centroid
    per iteration. Step 1 computes every row's exact distance with no
    screen (replay shares it); later steps compute exact distances only
    where the new centroid may be nearer. If
    residual mass hits zero before ell centroids (all points coincide with
    centroids) the trace truncates and says so. After step i the rows that
    moved are exactly those with owner i, since every earlier owner is
    below i; they go into the move log.
    """
    X = as_points(X)
    n = X.shape[0]
    w = as_weights(w, n)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > n:
        raise ValueError(f"ell={ell} exceeds n={n}")
    rng = np.random.default_rng(seed)
    dist, owner, add = _extender(space, X)
    moves = np.empty((ell, (n + 7) // 8), dtype=np.uint8)
    chosen: list[int] = []
    costs: list[float] = []
    mass = w  # the first centroid is drawn by weight alone
    for i in range(ell):
        if not np.any(mass > 0.0):
            break
        s = _draw_index(rng, mass)
        chosen.append(s)
        if i == 0:
            _first_step(space, X, s, dist)
        else:
            add(s, i)
        moves[i] = np.packbits(owner == i)
        mass = w * dist
        costs.append(float(np.sum(mass)))

    idx = np.asarray(chosen, dtype=np.intp)
    return KmeansPPTrace(
        space=space,
        points=X,
        weights=w,
        centroid_indices=idx,
        centroids=X[idx],
        prefix_costs=np.asarray(costs),
        owner=owner,
        dist=dist,
        moves=moves[: len(chosen)],
        seed=seed,
        truncated=len(chosen) < ell,
    )


def _row_setter(space: MetricSpace, X: np.ndarray, dist: np.ndarray):
    """set_rows(rows, s): dist[rows] = d(X[rows], X[s]), by the formula the
    trace used. Rows are gathered into buffers allocated once, at most
    _GATHER_ELEMS (and core._CHUNK_ELEMS) elements at a time."""
    if space.kind == "matrix":
        def set_rows(rows: np.ndarray, s: int) -> None:
            dist[rows] = space.matrix[X[rows], X[s]]

        return set_rows
    n, d = X.shape
    step = max(1, min(_GATHER_ELEMS, core._CHUNK_ELEMS) // max(d, 1))
    gather = np.empty((min(step, n), d))
    exact = np.empty(gather.shape[0])

    def set_rows(rows: np.ndarray, s: int) -> None:
        for start in range(0, rows.size, step):
            part = rows[start : start + step]
            m = part.size
            np.take(X, part, axis=0, out=gather[:m])
            dist[part] = _exact(gather[:m], X[s], space.power, out=exact[:m])

    return set_rows


def replay(trace: KmeansPPTrace) -> Iterator[tuple[int, np.ndarray, np.ndarray, float]]:
    """Yield (i, owner, dist, v_i) for every prefix i = 1..ell.

    Step 1 moves every row and is the trace's own _first_step. Each later
    step reads its moved rows from the trace's move log and computes
    distances for those rows alone, so step i costs O(moved rows) distance
    work plus an O(n / 8) unpack. The state equals the trace's own after
    each step, bit for bit. The yielded arrays are reused between
    iterations; copy them if they must outlive the loop step.
    """
    n = trace.points.shape[0]
    dist = np.empty(n)
    owner = np.zeros(n, dtype=np.intp)
    set_rows = _row_setter(trace.space, trace.points, dist)
    for i, s in enumerate(trace.centroid_indices):
        if i == 0:
            _first_step(trace.space, trace.points, s, dist)
        else:
            rows = np.flatnonzero(np.unpackbits(trace.moves[i], count=n).view(bool))
            set_rows(rows, s)
            owner[rows] = i
        yield i + 1, owner, dist, float(trace.prefix_costs[i])
