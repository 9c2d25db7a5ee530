"""one2all probabilities: Eq.-level values, dominance, sweet spot."""

from itertools import combinations

import numpy as np
import pytest
from conftest import rand_instance, ref_one2all
from reference import pps_base, verify_dominance

from one2all import core, kmeanspp, probabilities
from one2all.core import MetricSpace, nearest, pairwise
from one2all.kmeanspp import replay, run_trace
from one2all.probabilities import one2all_probs, probs_from_assignment, sweet_spot

SP2 = MetricSpace.euclidean(2.0)


# one2all probabilities --------------------------------------------------


def test_tiny_instance_saturates():
    X = np.array([[0.0], [4.0], [10.0]])
    probs = one2all_probs(SP2, X, None, np.array([[0.0], [10.0]]))
    np.testing.assert_array_equal(probs.pi, [1.0, 1.0, 1.0])
    assert probs.cost_m == pytest.approx(16.0)
    np.testing.assert_array_equal(probs.cluster_weights, [2.0, 1.0])


def test_every_point_its_own_centroid():
    sp, X, w = rand_instance(0, n=9, d=2)
    probs = one2all_probs(sp, X, w, X)
    np.testing.assert_array_equal(probs.pi, np.ones(9))
    assert probs.cost_m == 0.0


def test_matches_straight_line_reimplementation():
    rng = np.random.default_rng(8)
    X = np.sort(rng.uniform(0, 50, size=100)).reshape(-1, 1)
    tr = run_trace(SP2, X, None, 2, seed=4)
    probs = one2all_probs(SP2, X, None, tr.centroids)
    ref_pi, ref_cost_m = ref_one2all(2.0, X, np.ones(100), tr.centroids)
    assert probs.cost_m == pytest.approx(ref_cost_m, rel=1e-12)
    np.testing.assert_allclose(probs.pi, ref_pi, rtol=1e-12)
    assert np.sum(probs.pi) <= 8 * 4 * 2 + 2 * 2  # 68


def test_overhead_bound_many_instances():
    for seed in range(25):
        p = 1.0 if seed % 2 else 2.0
        sp, X, w = rand_instance(seed, n=40, d=3, p=p)
        for m in (1, 2, 5):
            tr = run_trace(sp, X, w, m, seed=seed + 100)
            probs = one2all_probs(sp, X, w, tr.centroids)
            bound = 8 * sp.rho**2 * probs.M.shape[0] + 2 * sp.rho
            assert probs.overhead <= bound + 1e-12
            assert np.all(probs.pi > 0)
            assert np.all(probs.pi <= 1)


def test_per_point_lower_bounds():
    sp, X, w = rand_instance(3, n=30, d=2)
    tr = run_trace(sp, X, w, 3, seed=1)
    probs = one2all_probs(sp, X, w, tr.centroids)
    owner, dist = nearest(sp, X, probs.M)
    rho = sp.rho
    t2 = np.minimum(1, 8 * rho**2 * w / probs.cluster_weights[owner])
    t1 = np.minimum(1, 2 * rho * w * dist / probs.cost_m)
    assert np.all(probs.pi >= t2 - 1e-15)
    assert np.all(probs.pi >= t1 - 1e-15)


def test_zero_cost_m_uses_cell_term_only():
    X = np.array([[0.0], [0.0], [1.0], [1.0], [1.0]])
    w = np.array([1.0, 3.0, 1.0, 1.0, 2.0])
    M = np.array([[0.0], [1.0]])
    probs = one2all_probs(SP2, X, w, M)
    assert probs.cost_m == 0.0
    want = np.minimum(1, 8 * 4 * w / np.array([4.0, 4.0, 4.0, 4.0, 4.0]))
    np.testing.assert_allclose(probs.pi, want)


def test_empty_cell_centroid_dropped_without_effect():
    X = np.array([[0.0], [1.0]])
    M = np.array([[0.0], [1.0], [0.5]])  # 0.5 owns nothing (ties go left)
    probs = one2all_probs(SP2, X, None, M)
    assert probs.dropped_empty_cells == 1
    assert probs.M.shape[0] == 2
    direct = one2all_probs(SP2, X, None, np.array([[0.0], [1.0]]))
    np.testing.assert_array_equal(probs.pi, direct.pi)
    assert probs.cost_m == direct.cost_m


def test_probs_from_assignment_matches_two_bincount_reference():
    rng = np.random.default_rng(21)
    n, k, rho = 500, 7, 2.0
    owner = rng.choice([0, 2, 3, 5], size=n)  # cells 1, 4 and 6 are empty
    dist = rng.exponential(size=n)
    w = rng.uniform(0.1, 3.0, size=n)
    M = rng.normal(size=(k, 2))
    cost_m = float(np.sum(w * dist))
    got = probs_from_assignment(w, owner, dist, rho, M, cost_m)
    # reference: empty cells found by counting points, then weights summed
    # over the renumbered cells
    keep = np.bincount(owner, minlength=k) > 0
    ref_owner = (np.cumsum(keep) - 1)[owner]
    ref_cw = np.bincount(ref_owner, weights=w, minlength=int(keep.sum()))
    ref_pi = np.minimum(1.0, np.maximum((2.0 * rho / cost_m) * w * dist,
                                        8.0 * rho**2 * w / ref_cw[ref_owner]))
    assert got.dropped_empty_cells == 3
    assert got.cost_m == cost_m
    for a, b in ((got.pi, ref_pi), (got.cluster_weights, ref_cw), (got.M, M[keep])):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# dominance --------------------------------------------------------------


def test_dominance_q_equals_m():
    sp, X, w = rand_instance(6, n=50, d=3)
    tr = run_trace(sp, X, w, 4, seed=3)
    probs = one2all_probs(sp, X, w, tr.centroids)
    rep = verify_dominance(sp, X, w, probs, probs.M)
    assert rep["holds"]
    # psi/pi <= 1/(2 rho): the distance term alone dominates with that factor
    psi = pps_base(sp, X, w, probs.M).psi
    assert np.all(psi <= probs.pi / (2 * sp.rho) + 1e-12)


def test_dominance_exhaustive_small_instances():
    for seed in range(30):
        p = 1.0 if seed % 2 else 2.0
        sp, X, w = rand_instance(seed, n=12, d=2, p=p)
        tr = run_trace(sp, X, w, 3, seed=seed)
        for m in range(1, 4):
            probs = one2all_probs(sp, X, w, tr.prefix(m))
            for q in range(12):
                rep = verify_dominance(sp, X, w, probs, X[[q]])
                assert rep["holds"], (seed, m, q)
            for qs in combinations(range(12), 2):
                rep = verify_dominance(sp, X, w, probs, X[list(qs)])
                assert rep["holds"], (seed, m, qs)


def test_dominance_random_ambient_queries():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    w = rng.uniform(0.5, 2.0, size=200)
    tr = run_trace(SP2, X, w, 4, seed=5)
    probs = one2all_probs(SP2, X, w, tr.centroids)
    worst = 0.0
    for _ in range(1000):
        Q = rng.normal(scale=2.0, size=(5, 3))
        rep = verify_dominance(SP2, X, w, probs, Q)
        assert rep["holds"]
        worst = max(worst, rep["worst_ratio"])
    assert worst <= 1.0 + 1e-12


def test_dominance_zero_cost_query():
    X = np.array([[0.0], [1.0]])
    probs = one2all_probs(SP2, X, None, np.array([[0.0]]))
    rep = verify_dominance(SP2, X, None, probs, X)
    assert rep["holds"] and rep["worst_ratio"] == 0.0


# sweet spot -------------------------------------------------------------


def _fake_costs(trace, costs):
    trace.prefix_costs = np.asarray(costs, dtype=np.float64)
    return trace


def test_rough_flat_curve_picks_first():
    sp, X, w = rand_instance(1, n=30, d=2)
    tr = _fake_costs(run_trace(sp, X, w, 4, seed=0), [50.0, 50.0, 50.0, 50.0])
    i, _ = sweet_spot(tr, "rough")
    assert i == 1


def test_rough_example_scores():
    sp, X, w = rand_instance(2, n=30, d=2)
    tr = _fake_costs(run_trace(sp, X, w, 4, seed=0), [100.0, 40.0, 39.0, 39.0])
    i, _ = sweet_spot(tr, "rough")
    assert i == 2  # scores 100, 80, 117, 156


def test_rough_tie_goes_to_smallest_index():
    sp, X, w = rand_instance(3, n=30, d=2)
    tr = _fake_costs(run_trace(sp, X, w, 3, seed=0), [100.0, 50.0, 100.0 / 3])
    i, _ = sweet_spot(tr, "rough")
    assert i == 1


def test_exact_mode_matches_independent_scan():
    sp, X, w = rand_instance(9, n=80, d=3)
    tr = run_trace(sp, X, w, 6, seed=7)
    C = float(tr.prefix_costs[-1])
    eps = 0.4
    i_star, probs = sweet_spot(tr, "exact", C=C, eps=eps)
    totals = []
    for i in range(1, 7):
        pi = one2all_probs(sp, X, w, tr.prefix(i)).pi
        v = tr.prefix_costs[i - 1]
        totals.append(np.minimum(1, max(1, v / C) * eps**-2 * pi).sum())
    assert i_star == int(np.argmin(totals)) + 1
    want = one2all_probs(sp, X, w, tr.prefix(i_star)).pi
    np.testing.assert_array_equal(probs.pi, want)


def test_exact_mode_validation():
    sp, X, w = rand_instance(9, n=20, d=2)
    tr = run_trace(sp, X, w, 2, seed=0)
    with pytest.raises(ValueError):
        sweet_spot(tr, "exact")
    with pytest.raises(ValueError):
        sweet_spot(tr, "exact", C=-1.0, eps=0.5)
    with pytest.raises(ValueError):
        sweet_spot(tr, "bogus")


def test_flat_cost_profile_high_dim_blob_picks_one():
    # no cluster structure: v_i falls slower than 1/i, so i*v_i rises
    for seed in range(3):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(500, 50))
        tr = run_trace(SP2, X, None, 8, seed=seed)
        i, _ = sweet_spot(tr, "rough")
        assert i == 1


def test_probs_from_assignment_agrees_with_direct():
    sp, X, w = rand_instance(12, n=45, d=2)
    tr = run_trace(sp, X, w, 5, seed=6)
    owner, dist = nearest(sp, X, tr.centroids)
    via = probs_from_assignment(w, owner, dist, sp.rho, tr.centroids, float(np.sum(w * dist)))
    direct = one2all_probs(sp, X, w, tr.centroids)
    np.testing.assert_array_equal(via.pi, direct.pi)


# sweet spot from the move log ---------------------------------------------

PROB_FIELDS = ("pi", "M", "cost_m", "cluster_weights", "dropped_empty_cells")


def _sweet_instance(kind):
    rng = np.random.default_rng(31)
    X = rng.normal(size=(400, 3)) + 5.0 * rng.integers(0, 6, size=(400, 1))
    w = rng.uniform(0.3, 3.0, size=400)
    if kind == "matrix":
        m = pairwise(MetricSpace.euclidean(1.0), X[:150], X[:150])
        return MetricSpace.from_matrix(m), np.arange(150), w[:150]
    return SP2, X, w


def _sweet(tr, mode):
    if mode == "exact":
        return sweet_spot(tr, "exact", C=float(tr.prefix_costs[-1]), eps=0.3)
    return sweet_spot(tr, "rough")


def _assert_fields_equal(got, want):
    for f in PROB_FIELDS:
        a, b = np.asarray(getattr(got, f)), np.asarray(getattr(want, f))
        assert a.dtype == b.dtype and a.shape == b.shape, f
        assert a.tobytes() == b.tobytes(), f


@pytest.mark.parametrize("mode", ["rough", "exact"])
@pytest.mark.parametrize("kind", ["euclidean", "matrix"])
def test_sweet_spot_probs_equal_one2all_probs(kind, mode):
    sp, X, w = _sweet_instance(kind)
    for seed in range(5):
        tr = run_trace(sp, X, w, 10, seed=seed)
        i_star, probs = _sweet(tr, mode)
        _assert_fields_equal(probs, one2all_probs(sp, X, w, tr.prefix(i_star)))


@pytest.mark.parametrize("mode", ["rough", "exact"])
def test_sweet_spot_pays_no_distance_pass(mode, monkeypatch):
    sp, X, w = _sweet_instance("euclidean")
    tr = run_trace(sp, X, w, 10, seed=0)
    want = _sweet(tr, mode)

    def refuse(*args, **kwargs):
        raise AssertionError("sweet_spot ran a distance pass")

    fill = kmeanspp._fill

    def moved_rows_only(space, X, q, dist, rows=None, norms=None):
        if rows is None:
            raise AssertionError("sweet_spot filled every row")
        fill(space, X, q, dist, rows, norms)

    for module, name in ((probabilities, "nearest"), (probabilities, "one2all_probs"),
                         (kmeanspp, "_lower"), (core, "pairwise")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(kmeanspp, "_fill", moved_rows_only)
    i_star, probs = _sweet(tr, mode)
    assert i_star == want[0]
    _assert_fields_equal(probs, want[1])


@pytest.mark.parametrize("mode", ["rough", "exact"])
def test_sweet_spot_probs_outlive_replay(mode, monkeypatch):
    sp, X, w = _sweet_instance("euclidean")
    tr = run_trace(sp, X, w, 10, seed=4)
    started = []

    def spy(trace):
        steps = replay(trace)
        started.append(steps)
        return steps

    monkeypatch.setattr(probabilities, "replay", spy)
    i_star, probs = _sweet(tr, mode)
    assert i_star < tr.ell  # later steps exist to overwrite replay's arrays
    before = {f: np.array(getattr(probs, f), copy=True) for f in PROB_FIELDS}
    for steps in started:
        for _ in steps:
            pass
    for f in PROB_FIELDS:
        assert np.asarray(getattr(probs, f)).tobytes() == before[f].tobytes(), f
