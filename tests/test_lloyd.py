"""Weighted Lloyd refinement and the base clusterer: one kmeans++ seeding,
2k LocalSearch++ swaps, then Lloyd."""

import numpy as np
import pytest
from conftest import rand_instance
from reference import local_search_swaps, lloyd_step_add_at

from one2all import lloyd
from one2all.core import CentroidSet, MetricSpace, cost, nearest, pairwise
from one2all.data import gen_gmm
from one2all.errors import UnsupportedSpaceError
from one2all.kmeanspp import run_trace
from one2all.lloyd import base_cluster, lloyd_step
from one2all.sampling import draw
from one2all.wrapper import run

SP2 = MetricSpace.euclidean(2.0)


def test_fixed_point_of_pair():
    X = np.array([[0.0], [2.0]])
    Q = lloyd_step(SP2, X, None, np.array([[1.0]]))
    np.testing.assert_allclose(Q, [[1.0]])


def test_two_pair_fixed_point_and_improvement():
    X = np.array([[0.0], [2.0], [10.0], [12.0]])
    Q = lloyd_step(SP2, X, None, np.array([[1.0], [11.0]]))
    np.testing.assert_allclose(Q, [[1.0], [11.0]])
    assert cost(SP2, X, None, Q) == pytest.approx(4.0)
    Q2 = lloyd_step(SP2, X, None, np.array([[0.0], [12.0]]))
    np.testing.assert_allclose(Q2, [[1.0], [11.0]])


def test_weighted_mean_used():
    X = np.array([[0.0], [3.0]])
    w = np.array([3.0, 1.0])
    Q = lloyd_step(SP2, X, w, np.array([[1.0]]))
    np.testing.assert_allclose(Q, [[0.75]])


def test_empty_cluster_reseeded_at_farthest():
    X = np.array([[0.0], [1.0], [2.0]])
    Q = lloyd_step(SP2, X, None, np.array([[1.0], [100.0]]))
    got = sorted(Q.ravel().tolist())
    assert got == [0.0, 1.0]  # mean of all points, plus farthest point


def test_cost_monotone_over_iterations():
    sp, X, w = rand_instance(0, n=300, d=4)
    rng = np.random.default_rng(1)
    Q = X[rng.choice(300, size=6, replace=False)]
    prev = cost(sp, X, w, Q)
    for _ in range(20):
        Q = lloyd_step(sp, X, w, Q)
        cur = cost(sp, X, w, Q)
        assert cur <= prev * (1 + 1e-9)
        prev = cur


def test_unsupported_spaces_rejected():
    X = np.array([[0.0], [1.0]])
    with pytest.raises(UnsupportedSpaceError):
        lloyd_step(MetricSpace.euclidean(1.0), X, None, X)
    m = pairwise(SP2, X, X)
    with pytest.raises(UnsupportedSpaceError):
        lloyd_step(MetricSpace.from_matrix(m, rho=2.0), np.arange(2), None, np.arange(2))
    with pytest.raises(UnsupportedSpaceError):
        base_cluster(MetricSpace.euclidean(1.0), X, None, k=1)


def _seeding_seeds(seed):
    """The seeds base_cluster gives its one kmeans++ seeding and its swaps."""
    return (int(s) for s in np.random.SeedSequence(seed).generate_state(2))


def test_base_cluster_beats_its_initialization(monkeypatch):
    # swaps are taken only when the cost falls: with no Lloyd step, the
    # result costs no more than its one seeding
    monkeypatch.setattr(lloyd, "_LLOYD_ITERS", 0)
    sp, X, w = rand_instance(5, n=4000, d=3)
    sample = draw(X, w, np.full(len(X), 0.1), 3)
    cases = {"sample": (sample.member_points, sample.w_prime),
             "weighted": LLOYD_CASES["weighted"][:2],
             "duplicated": LLOYD_CASES["duplicated"][:2]}
    trace_seed, _ = _seeding_seeds(7)
    for name, (P, W) in cases.items():
        seeding = run_trace(sp, P, W, 5, trace_seed).prefix_costs[-1]
        Q = base_cluster(sp, P, W, k=5, seed=7)
        assert cost(sp, P, W, Q) <= seeding, name


def test_separated_pairs_found_exactly():
    X = np.array([[0.0, 0.0], [0.0, 2.0], [50.0, 0.0], [50.0, 2.0]])
    Q = base_cluster(SP2, X, None, k=2, seed=0)
    got = sorted(Q.points.tolist())
    np.testing.assert_allclose(got, [[0.0, 1.0], [50.0, 1.0]])
    assert cost(SP2, X, None, Q.points) == pytest.approx(4.0)


def test_k_equals_n_zero_cost():
    sp, X, w = rand_instance(2, n=12, d=2)
    Q = base_cluster(sp, X, w, k=12, seed=1)
    assert cost(sp, X, w, Q.points) == pytest.approx(0.0, abs=1e-18)


def test_mixture_recovery_cost_ratio():
    # final cost at most 1.3x ground truth in at least 8 of 10 seeds
    good = 0
    for seed in range(10):
        ds = gen_gmm(10_000, 10, 5, seed=seed)
        Q = base_cluster(SP2, ds.points.points, None, k=5, seed=seed)
        ratio = cost(SP2, ds.points.points, None, Q.points) / ds.ground_truth_cost
        good += ratio <= 1.3
    assert good >= 8


def test_base_cluster_is_a_wrapper_base():
    # called positionally as base(space, points, weights, k, seed)
    sp, X, w = rand_instance(4, n=50, d=2)
    Q = base_cluster(sp, X, w, 3, 2)
    assert Q.points.shape == (3, 2)
    calls = []

    def base(space, pts, wts, k, seed):
        calls.append((k, seed))
        return base_cluster(space, pts, wts, k, seed)

    Q1, rep1 = run(sp, X, w, k=3, eps=0.3, seed=5)
    Q2, rep2 = run(sp, X, w, k=3, eps=0.3, seed=5, base=base)
    assert Q1.points.tobytes() == Q2.points.tobytes() and rep1.log == rep2.log
    assert len(calls) == rep2.rounds and all(k == 3 for k, _ in calls)


def test_base_cluster_validation():
    sp, X, w = rand_instance(4, n=50, d=2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        base_cluster(sp, X, w, k=0)


# bit identity with the np.add.at step ---------------------------------------


def _lloyd_case(seed, n, d, k, dup=1, distinct=None):
    """Weighted points (rows repeated dup times, or only `distinct` distinct
    rows) and k starting centroids, some of them away from every point."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 3.0 + 10.0 * rng.integers(0, 4, size=(n, 1))
    if distinct is not None:
        X = X[rng.integers(0, distinct, size=n)]
    X = np.repeat(X, dup, axis=0)
    w = rng.uniform(0.2, 5.0, size=X.shape[0])
    Q = np.vstack([X[rng.choice(X.shape[0], size=k - 2, replace=False)],
                   X.max(axis=0) + 50.0, X.min(axis=0) - 50.0])
    return X, w, Q


LLOYD_CASES = {  # points, weights, starting centroids
    "weighted": _lloyd_case(0, 500, 5, 6),
    "duplicated": _lloyd_case(1, 120, 4, 5, dup=3),
    "empty-cell": _lloyd_case(2, 60, 3, 7, distinct=3),  # k > distinct points
    "d1": _lloyd_case(3, 400, 1, 5),
    "d50": _lloyd_case(4, 300, 50, 8),
}


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", sorted(LLOYD_CASES))
def test_lloyd_step_matches_add_at_reference(case):
    X, w, Q = LLOYD_CASES[case]
    for i in range(8):
        want = lloyd_step_add_at(SP2, X, w, Q)
        assert _same_bytes(lloyd_step(SP2, X, w, Q), want), f"step {i}"
        Q = want


@pytest.mark.parametrize("case", sorted(LLOYD_CASES))
def test_base_cluster_matches_add_at_reference(case):
    X, w, Q = LLOYD_CASES[case]
    k, seed, lloyd_iters = Q.shape[0], 9, 20
    # base_cluster as written with the reference swaps and step
    trace_seed, swap_seed = _seeding_seeds(seed)
    idx = run_trace(SP2, X, w, k, trace_seed).centroid_indices
    Q = X[local_search_swaps(SP2, X, w, idx, 2 * k, swap_seed)]
    for _ in range(lloyd_iters):
        Q2 = lloyd_step_add_at(SP2, X, w, Q)
        if np.array_equal(Q2, Q):
            break
        Q = Q2
    assert _same_bytes(base_cluster(SP2, X, w, k, seed).points, CentroidSet(Q).points)


def test_planted_empty_cells_match_add_at_reference():
    # a repeated centroid and three far ones own nothing: four cells are
    # re-seeded at the farthest points, whose distances the step computes
    X, w, Q = LLOYD_CASES["weighted"]
    Q = np.vstack([Q[:3], Q[1], X.max(axis=0) + 80.0, Q[3:]])
    owner = nearest(SP2, X, Q)[0]
    assert np.setdiff1d(np.arange(Q.shape[0]), owner).size == 4
    want = lloyd_step_add_at(SP2, X, w, Q)
    assert _same_bytes(lloyd_step(SP2, X, w, Q), want)
    Q2 = np.vstack([Q, Q[0]])
    assert _same_bytes(lloyd_step(SP2, X, w, Q2), lloyd_step_add_at(SP2, X, w, Q2))


def test_lloyd_step_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        lloyd_step(SP2, np.zeros((4, 3)), None, np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_points_and_centroids(bad):
    X, w, Q = LLOYD_CASES["weighted"]
    Xb = X.copy()
    Xb[7, 1] = bad
    Qb = Q.copy()
    Qb[0, 0] = bad
    for args in ((Xb, w, Q), (X, w, Qb)):
        with pytest.raises(ValueError, match="NaN or inf"):
            lloyd_step(SP2, *args)
    with pytest.raises(ValueError, match="NaN or inf"):
        base_cluster(SP2, Xb, w, k=3)
