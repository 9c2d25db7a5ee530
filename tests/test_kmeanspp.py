"""D² seeding: selection law, prefix costs, determinism, truncation."""

import tracemalloc

import numpy as np
import pytest
from conftest import rand_instance, ref_cost

from one2all import core
from one2all.core import MetricSpace, cost, nearest, pairwise
from one2all.data import gen_gmm
from one2all.kmeanspp import replay, run_trace

SP2 = MetricSpace.euclidean(2.0)
LINE4 = np.array([[0.0], [1.0], [9.0], [10.0]])


def test_two_points_second_is_forced():
    X = np.array([[0.0], [10.0]])
    for seed in range(20):
        tr = run_trace(SP2, X, None, 2, seed)
        assert sorted(tr.centroid_indices.tolist()) == [0, 1]
        assert tr.prefix_costs[1] == 0.0
        assert tr.ell == 2


def test_first_draw_uniform_frequency():
    n, trials = 5, 10000
    X = np.arange(n, dtype=np.float64).reshape(-1, 1)
    counts = np.zeros(n)
    for seed in range(trials):
        counts[run_trace(SP2, X, None, 1, seed).centroid_indices[0]] += 1
    freq = counts / trials
    sigma = np.sqrt((1 / n) * (1 - 1 / n) / trials)
    assert np.all(np.abs(freq - 1 / n) <= 3 * sigma)


def test_first_draw_weight_proportional():
    X = np.array([[0.0], [1.0]])
    w = np.array([3.0, 1.0])
    hits = sum(run_trace(SP2, X, w, 1, s).centroid_indices[0] == 0 for s in range(4000))
    sigma = np.sqrt(0.75 * 0.25 / 4000)
    assert abs(hits / 4000 - 0.75) <= 3 * sigma


# Exact unordered-pair law for the 4-point line {0,1,9,10}, p=2, unit w,
# derived by enumerating the 4 first picks and, for each, the 3 residual
# D² masses: from 0 -> {1:1, 9:81, 10:100}/182, from 1 -> {0:1, 9:64,
# 10:81}/146, from 9 and 10 mirror those. Pair prob = avg of its two paths.
_PAIR_LAW = {
    (0, 1): (1 / 182 + 1 / 146) / 4,
    (0, 2): (81 / 182 + 81 / 146) / 4,
    (0, 3): (100 / 182 + 100 / 182) / 4,
    (1, 2): (64 / 146 + 64 / 146) / 4,
    (1, 3): (81 / 146 + 81 / 182) / 4,
    (2, 3): (1 / 146 + 1 / 182) / 4,
}


def test_pair_distribution_matches_hand_enumerated_chain():
    assert sum(_PAIR_LAW.values()) == pytest.approx(1.0, abs=1e-12)
    trials = 100_000
    counts = {pair: 0 for pair in _PAIR_LAW}
    for seed in range(trials):
        tr = run_trace(SP2, LINE4, None, 2, seed)
        counts[tuple(sorted(tr.centroid_indices.tolist()))] += 1
    for pair, want in _PAIR_LAW.items():
        got = counts[pair] / trials
        sigma = np.sqrt(want * (1 - want) / trials)
        assert abs(got - want) <= 4 * sigma, (pair, got, want)


def test_prefix_costs_nonincreasing_and_match_recompute():
    for seed in range(15):
        sp, X, w = rand_instance(seed, n=60, d=3)
        tr = run_trace(sp, X, w, 8, seed)
        v = tr.prefix_costs
        assert np.all(np.diff(v) <= 1e-12)
        for i in range(1, tr.ell + 1):
            direct = cost(sp, X, w, tr.prefix(i))
            assert v[i - 1] == pytest.approx(direct, rel=1e-9)


def test_final_cost_matches_reference_loops():
    sp, X, w = rand_instance(3, n=25, d=2, p=1.0)
    tr = run_trace(sp, X, w, 4, seed=9)
    assert tr.prefix_costs[-1] == pytest.approx(
        ref_cost(1.0, X, w, tr.centroids), rel=1e-9
    )


def test_same_seed_reproduces_bit_exactly():
    sp, X, w = rand_instance(1, n=80, d=4)
    a = run_trace(sp, X, w, 6, seed=42)
    b = run_trace(sp, X, w, 6, seed=42)
    np.testing.assert_array_equal(a.centroid_indices, b.centroid_indices)
    np.testing.assert_array_equal(a.prefix_costs, b.prefix_costs)


def test_unit_weights_trace_as_any_equal_weights():
    # Unit weights skip the w·dist multiply. Doubling every weight doubles
    # each mass, prefix sum and draw exactly, so that trace, which multiplies,
    # draws the same rows at twice the costs, bit for bit.
    X = gen_gmm(3000, 4, 5, seed=8).points.points
    for space in (SP2, MetricSpace.euclidean(1.0)):
        unit = run_trace(space, X, None, 12, seed=4)
        double = run_trace(space, X, np.full(len(X), 2.0), 12, seed=4)
        np.testing.assert_array_equal(unit.centroid_indices, double.centroid_indices)
        assert (2.0 * unit.prefix_costs).tobytes() == double.prefix_costs.tobytes()


def test_truncates_when_distinct_points_run_out():
    X = np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]])
    tr = run_trace(SP2, X, None, 5, seed=0)
    assert tr.ell < 5
    assert tr.ell == 3
    assert tr.prefix_costs[-1] == 0.0
    vals = sorted(X[tr.centroid_indices].ravel().tolist())
    assert vals == [0.0, 1.0, 2.0]


def test_zero_distance_points_never_reselected():
    X = np.array([[0.0], [0.0], [0.0], [5.0], [5.0]])
    for seed in range(30):
        tr = run_trace(SP2, X, None, 2, seed)
        vals = X[tr.centroid_indices].ravel()
        assert vals[0] != vals[1]


def test_owner_dist_consistent_with_centroids():
    sp, X, w = rand_instance(7, n=50, d=3)
    tr = run_trace(sp, X, w, 5, seed=11)
    for _, owner, dist, _ in replay(tr):
        pass
    want_owner, want_dist = nearest(sp, X, tr.centroids)
    np.testing.assert_array_equal(owner, want_owner)
    np.testing.assert_array_equal(dist, want_dist)


def test_replay_reproduces_trace_prefixes():
    sp, X, w = rand_instance(2, n=40, d=2)
    tr = run_trace(sp, X, w, 6, seed=5)
    seen = 0
    for i, owner, dist, v in replay(tr):
        seen = i
        assert v == tr.prefix_costs[i - 1]
        assert np.sum(w * dist) == v
        want_owner, want_dist = nearest(sp, X, tr.prefix(i))
        np.testing.assert_array_equal(owner, want_owner)
        np.testing.assert_array_equal(dist, want_dist)
    assert seen == tr.ell


def test_matrix_space_trace():
    pts = np.array([[0.0], [1.0], [9.0], [10.0]])
    from one2all.core import pairwise

    m = pairwise(SP2, pts, pts)
    sp = MetricSpace.from_matrix(m, rho=2.0)
    tr = run_trace(sp, np.arange(4), None, 2, seed=3)
    assert tr.ell == 2
    assert tr.prefix_costs[-1] >= 0


def test_mixture_seed_cost_sane():
    # v_k within an O(log k) factor of ground truth (loose sanity, median)
    ratios = []
    for seed in range(50):
        ds = gen_gmm(1500, 4, 8, seed=seed)
        tr = run_trace(SP2, ds.points.points, None, 8, seed=seed)
        ratios.append(tr.prefix_costs[-1] / ds.ground_truth_cost)
    assert np.median(ratios) <= 10.0


def test_validation_errors():
    with pytest.raises(ValueError):
        run_trace(SP2, LINE4, None, 0, seed=0)
    with pytest.raises(ValueError):
        run_trace(SP2, LINE4, None, 5, seed=0)


# replay against an independent per-column running minimum ----------------


def _column(space, X, s):
    """Distances from every point to X[s], one whole column at a time."""
    if space.kind == "matrix":
        return np.array([space.matrix[x, X[s]] for x in X])
    diff = X - X[s]
    np.square(diff, out=diff)
    col = diff.sum(axis=1)
    if space.power != 2.0:
        col **= space.power / 2.0
    return col


def _running_minimum(trace):
    """(owner, dist) after each step, from the trace's centroids alone."""
    X = trace.points
    dist = np.full(X.shape[0], np.inf)
    owner = np.zeros(X.shape[0], dtype=np.intp)
    for i, s in enumerate(trace.centroid_indices):
        col = _column(trace.space, X, s)
        better = col < dist
        dist[better] = col[better]
        owner[better] = i
        yield owner.copy(), dist.copy()


def _clustered(seed, n=300, d=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) + 6.0 * rng.integers(0, 5, size=(n, 1))


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


_X = _clustered(1)
_W = np.random.default_rng(2).uniform(0.2, 5.0, size=_X.shape[0])
LOG_CASES = {  # space, points, weights, ell
    "power1": (MetricSpace.euclidean(1.0), _X, None, 12),
    "power2": (SP2, _X, None, 12),
    "power3": (MetricSpace.euclidean(3.0), _X, None, 12),
    "weighted": (SP2, _X, _W, 12),
    "matrix": (MetricSpace.from_matrix(pairwise(MetricSpace.euclidean(1.0), _X[:120], _X[:120])),
               np.arange(120), _W[:120], 10),
    "truncated": (SP2, np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]], 40, axis=0), None, 6),
    "duplicated": (MetricSpace.euclidean(3.0), np.vstack([_X[:100], _X[:100]]), None, 40),
}


@pytest.mark.parametrize("chunk", [None, 1, 7])
@pytest.mark.parametrize("case", sorted(LOG_CASES))
def test_replay_matches_running_minimum(case, chunk, monkeypatch):
    space, X, w, ell = LOG_CASES[case]
    tr = run_trace(space, X, w, ell, seed=3)
    assert (tr.ell < ell) == (case == "truncated")
    if chunk is not None:
        monkeypatch.setattr(core, "_CHUNK_ELEMS", chunk)
    steps = zip(replay(tr), _running_minimum(tr), strict=True)
    for (i, owner, dist, v), (ref_owner, ref_dist) in steps:
        assert _same_bytes(owner, ref_owner), f"owner differs at prefix {i}"
        assert _same_bytes(dist, ref_dist), f"dist differs at prefix {i}"
        assert v == tr.prefix_costs[i - 1]


def test_replay_memory_does_not_grow_with_ell():
    X = _clustered(5, n=20000, d=4)
    tr = run_trace(SP2, X, None, 40, seed=0)
    tracemalloc.start()
    try:
        for _ in replay(tr):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the state, the norms and one step's screen and gather buffers; one
    # n-array kept per step would pass 40 * 8n bytes
    assert peak < 16 * 8 * X.shape[0]


@pytest.mark.parametrize("chunk", [None, 1, 7])
@pytest.mark.parametrize("power", [2.0, 3.0])
def test_first_step_is_the_exact_column(power, chunk, monkeypatch):
    # step 1 fills dist screen-free; it must give pairwise's bits at any chunk
    # size
    space = MetricSpace.euclidean(power)
    X = _clustered(6, n=400, d=20)
    w = np.random.default_rng(7).uniform(0.2, 5.0, size=X.shape[0])
    if chunk is not None:
        monkeypatch.setattr(core, "_CHUNK_ELEMS", chunk)
        monkeypatch.setattr(core, "_GATHER_ELEMS", chunk)
    for seed in range(3):
        tr = run_trace(space, X, w, 1, seed=seed)
        s = tr.centroid_indices[0]
        want = pairwise(space, X, X[s : s + 1])[:, 0]
        ((i, owner, dist, v),) = replay(tr)
        assert _same_bytes(dist, want) and not owner.any()
        assert v == float(np.sum(w * want))
    longer = run_trace(space, X, w, 6, seed=0)
    s = longer.centroid_indices[0]
    _, _, dist, _ = next(replay(longer))
    assert _same_bytes(dist, pairwise(space, X, X[s : s + 1])[:, 0])
