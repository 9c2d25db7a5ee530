"""Distance kernels, nearest-centroid assignment, and exact cost."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import reference
from conftest import ref_distance
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference import row_sum_column as ref_column
from reference import row_sum_nearest as ref_nearest

import one2all
from one2all import core, kmeanspp, oracle
from one2all.core import (
    CentroidSet,
    MetricSpace,
    WeightedPointSet,
    cost,
    nearest,
    pairwise,
)
from one2all.kmeanspp import _draw_index, replay, run_trace


def test_squared_euclidean_simple():
    sp = MetricSpace.euclidean(2.0)
    assert pairwise(sp, [[0.0, 0.0], [1.0, 1.0]], [[3.0, 4.0], [1.0, 1.0]]).tolist() == [
        [25.0, 2.0], [13.0, 0.0]]
    assert sp.rho == 2.0


def test_plain_euclidean_simple():
    sp = MetricSpace.euclidean(1.0)
    assert pairwise(sp, [[0.0, 0.0]], [[3.0, 4.0]]).tolist() == [[5.0]]
    assert sp.rho == 1.0


def test_power_three_rho():
    sp = MetricSpace.euclidean(3.0)
    assert sp.rho == 4.0
    assert pairwise(sp, [[0.0]], [[2.0]])[0, 0] == pytest.approx(8.0)


def test_distance_dimension_mismatch():
    sp = MetricSpace.euclidean(2.0)
    for kernel in (pairwise, nearest):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel(sp, [[0.0, 0.0]], [[1.0, 2.0, 3.0]])


def test_empty_centroid_arrays_are_refused():
    # a Euclidean space used to fail inside the screen, a matrix space to cost inf
    X = np.random.default_rng(3).normal(size=(20, 3))
    m = pairwise(MetricSpace.euclidean(1.0), X, X)
    for sp, P, empty in ((SP2, X, np.empty((0, 3))),
                         (MetricSpace.from_matrix(m), np.arange(20), np.empty((0, 3))),
                         (MetricSpace.from_matrix(m), np.arange(20), np.empty(0, np.intp))):
        with pytest.raises(ValueError, match="need at least one centroid"):
            nearest(sp, P, empty)
        with pytest.raises(ValueError, match="need at least one centroid"):
            cost(sp, P, None, empty)


def test_self_distance_exact_zero():
    # the kernel must not introduce fp noise on d(x, x)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 8)) * 1e6
    sp = MetricSpace.euclidean(2.0)
    d = pairwise(sp, X, X)
    assert np.all(np.diag(d) == 0.0)


def test_pairwise_matches_bruteforce():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    Q = rng.normal(size=(7, 3))
    for p in (1.0, 2.0, 1.5):
        sp = MetricSpace.euclidean(p)
        got = pairwise(sp, X, Q)
        want = np.array([[ref_distance(p, x, q) for q in Q] for x in X])
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_nearest_matches_bruteforce_large():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(500, 4))
    Q = rng.normal(size=(20, 4))
    sp = MetricSpace.euclidean(2.0)
    owner, dist = nearest(sp, X, Q)
    full = pairwise(sp, X, Q)
    np.testing.assert_array_equal(owner, np.argmin(full, axis=1))
    np.testing.assert_allclose(dist, np.min(full, axis=1), rtol=1e-12)


def test_nearest_tie_goes_to_lowest_index():
    sp = MetricSpace.euclidean(2.0)
    X = np.array([[0.0]])
    Q = np.array([[1.0], [-1.0], [1.0]])
    owner, dist = nearest(sp, X, Q)
    assert owner[0] == 0
    assert dist[0] == 1.0


def test_nearest_and_cost_weighted():
    sp = MetricSpace.euclidean(2.0)
    X = np.array([[0.0], [1.0], [9.0], [10.0]])
    w = np.array([1.0, 2.0, 1.0, 3.0])
    Q = np.array([[0.0], [10.0]])
    owner, dist = nearest(sp, X, Q)
    np.testing.assert_array_equal(owner, [0, 0, 1, 1])
    np.testing.assert_allclose(dist, [0.0, 1.0, 1.0, 0.0])
    assert cost(sp, X, w, Q) == pytest.approx(2.0 * 1.0 + 1.0 * 1.0)
    assert cost(sp, X, None, Q) == pytest.approx(2.0)


def test_cost_monotone_in_centroids():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 2))
    sp = MetricSpace.euclidean(2.0)
    Q = rng.normal(size=(3, 2))
    Q2 = np.vstack([Q, rng.normal(size=(2, 2))])
    assert cost(sp, X, None, Q2) <= cost(sp, X, None, Q) + 1e-12


def test_cost_additive_over_partition():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(100, 3))
    w = rng.uniform(0.5, 2.0, size=100)
    sp = MetricSpace.euclidean(2.0)
    Q = rng.normal(size=(4, 3))
    total = cost(sp, X, w, Q)
    parts = cost(sp, X[:30], w[:30], Q) + cost(sp, X[30:], w[30:], Q)
    assert total == pytest.approx(parts, rel=1e-12)


def test_weighted_point_set_validation():
    with pytest.raises(ValueError):
        WeightedPointSet(np.zeros((3, 2)), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedPointSet(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedPointSet(np.zeros((3, 2)), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedPointSet(np.array([0.0, 1.0]))  # ambiguous 1-d float
    ps = WeightedPointSet(np.zeros((3, 2)))
    assert ps.weights is None  # unit weights: no array of ones
    assert ps.n == 3


# weights at every public entry point ---------------------------------------

SP2 = MetricSpace.euclidean(2.0)
_WX = np.random.default_rng(0).normal(size=(60, 2))
_BAD_WEIGHTS = {
    "negative": np.full(60, -1.0),  # unchecked, the wrapper certifies a negative cost
    "one-negative": np.r_[-1.0, np.ones(59)],
    "all-zero": np.zeros(60),
    "shape-1": np.ones(1),
    "shape-n-1": np.ones(59),
    "nan": np.r_[np.nan, np.ones(59)],
}


def _fed(st: oracle.OracleState):
    """st after one feedback query answered exactly, with that answer."""
    answer, exact = oracle.feedback_query(st, st.sample.member_points)  # estimated at 0
    assert exact
    return answer, st


def _saved(st: oracle.OracleState, path: str) -> dict:
    """The arrays of st's saved file, key by key."""
    oracle.save(st, path)
    with np.load(path, allow_pickle=False) as z:
        return {key: z[key] for key in z.files}


# each call takes w, the saved oracle's path and, where it reads one, the space
_WEIGHTED_CALLS = {
    "cluster_adaptive": lambda w, path: one2all.cluster_adaptive(SP2, _WX, w, k=2, eps=0.3),
    "build": lambda w, path, sp=SP2: one2all.build(sp, _WX, w, ell=4, C=1.0, eps=0.3, seed=0),
    "build_feedback": lambda w, path, sp=SP2: one2all.build_feedback(sp, _WX, w, k=2, eps=0.3,
                                                                     seed=0),
    "feedback_query": lambda w, path, sp=SP2: _fed(one2all.build_feedback(sp, _WX, w, k=2,
                                                                          eps=2.0, seed=0)),
    "save": lambda w, path, sp=SP2: _saved(one2all.build_feedback(sp, _WX, w, k=2, eps=0.3,
                                                                  seed=0), path + ".saved.npz"),
    "load": lambda w, path: oracle.load(path, points=_WX, weights=w),
    "run_trace": lambda w, path, sp=SP2: one2all.run_trace(sp, _WX, w, 4, 0),
    "sweet_spot": lambda w, path, sp=SP2: one2all.sweet_spot(one2all.run_trace(sp, _WX, w, 4, 0),
                                                             1.0, 0.3),
    "draw": lambda w, path: one2all.draw(_WX, w, np.full(60, 0.5), 0),
    "one2all_probs": lambda w, path, sp=SP2: one2all.one2all_probs(sp, _WX, w, _WX[:3]),
    "cost": lambda w, path, sp=SP2: one2all.cost(sp, _WX, w, _WX[:3]),
    "WeightedPointSet": lambda w, path: WeightedPointSet(_WX, w),
    "base_cluster": lambda w, path: one2all.base_cluster(SP2, _WX, w, k=2),
    "lloyd_step": lambda w, path: one2all.lloyd_step(SP2, _WX, w, _WX[:3]),
    # the proof checks: a weight they let through would void their verdicts
    "pps_base": lambda w, path: reference.pps_base(SP2, _WX, w, _WX[:3]),
    "mo_pps_bruteforce": lambda w, path: reference.mo_pps_bruteforce(SP2, _WX, w, 1),
    "verify_dominance": lambda w, path: reference.verify_dominance(
        SP2, _WX, w, one2all.one2all_probs(SP2, _WX, None, _WX[:3]), _WX[:2]),
}
_ANY_POWER = {"build", "build_feedback", "feedback_query", "save", "run_trace", "sweet_spot",
              "one2all_probs", "cost"}  # the calls that take a space of any power
_TRACE_S0 = {"cluster_adaptive", "build", "build_feedback", "feedback_query", "save"}


@pytest.fixture(scope="module")
def oracle_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("oracle") / "o.npz")
    oracle.save(one2all.build_feedback(SP2, _WX, None, k=2, eps=0.3, seed=0), path)
    return path


@pytest.mark.parametrize("bad", sorted(_BAD_WEIGHTS))
@pytest.mark.parametrize("call", sorted(_WEIGHTED_CALLS))
def test_entry_points_reject_bad_weights(call, bad, oracle_path):
    with pytest.raises(ValueError, match="^weights (must be|contain NaN or inf)"):
        _WEIGHTED_CALLS[call](_BAD_WEIGHTS[bad], oracle_path)


def _assert_same_bits(a, b, where="result"):
    """a and b hold the same bits, field by field; a `weights` field is
    skipped, since it is how unit weights are held (None or ones)."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            if f.name != "weights":
                _assert_same_bits(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_bits(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_same_bits(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
    else:
        assert repr(a) == repr(b), where


_UNIT_CASES = [(call, power, sub)
               for call in sorted(_WEIGHTED_CALLS)
               for power in ((1.0, 2.0, 3.0) if call in _ANY_POWER else (2.0,))
               for sub in ((kmeanspp._SUBSAMPLE, 20) if call in _TRACE_S0
                           else (kmeanspp._SUBSAMPLE,))]


@pytest.mark.parametrize("call, power, sub", _UNIT_CASES)
def test_unit_weights_none_is_ones_bit_for_bit(call, power, sub, oracle_path, monkeypatch):
    # a _SUBSAMPLE of 20 puts the 60 rows above it: the wrapper and the oracle
    # then trace a subsample S0, whose weights are n / |S0| either way
    monkeypatch.setattr(kmeanspp, "_SUBSAMPLE", sub)
    space = {} if power == 2.0 else {"sp": MetricSpace.euclidean(power)}
    unit = _WEIGHTED_CALLS[call](None, oracle_path, **space)
    ones = _WEIGHTED_CALLS[call](np.ones(_WX.shape[0]), oracle_path, **space)
    _assert_same_bits(unit, ones)


def test_unit_weights_are_none_not_ones(oracle_path):
    assert core.as_weights(None, _WX.shape[0]) is None
    assert WeightedPointSet(_WX).weights is None
    assert one2all.run_trace(SP2, _WX, None, 4, 0).weights is None
    # S0 is every row of the 60 here, traced without an array of ones
    assert kmeanspp.subsample_trace(SP2, _WX, None, 4, 0, 0).weights is None
    st = one2all.build_feedback(SP2, _WX, None, k=2, eps=0.3, seed=0)
    assert st.sample.weights is None
    np.testing.assert_array_equal(st.sample.member_weights, np.ones(st.size))  # saved as before
    assert oracle.load(oracle_path, points=_WX).sample.weights is None


def test_centroid_set_dedup_keeps_first_occurrence_order():
    Q = CentroidSet(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    np.testing.assert_array_equal(
        Q.points, np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    )
    assert Q.k == 3


def test_matrix_space_roundtrip():
    pts = np.array([[0.0], [1.0], [5.0]])
    sp2 = MetricSpace.euclidean(2.0)
    m = pairwise(sp2, pts, pts)
    sp = MetricSpace.from_matrix(m, rho=2.0)
    assert pairwise(sp, np.array([0]), np.array([2])).tolist() == [[25.0]]
    owner, dist = nearest(sp, np.array([0, 1, 2]), np.array([0, 2]))
    np.testing.assert_array_equal(owner, [0, 0, 1])
    np.testing.assert_allclose(dist, [0.0, 1.0, 0.0])
    assert cost(sp, np.array([0, 1, 2]), np.array([1.0, 1.0, 2.0]), np.array([0])) == 51.0


def test_matrix_space_rejects_bad_input():
    with pytest.raises(ValueError):
        MetricSpace.from_matrix(np.ones((2, 3)))
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        MetricSpace.from_matrix(asym)
    diag = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        MetricSpace.from_matrix(diag)
    neg = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        MetricSpace.from_matrix(neg)
    # rho=1 must reject a matrix that only satisfies the relaxed inequality
    pts = np.array([[0.0], [1.0], [2.0]])
    m = pairwise(MetricSpace.euclidean(2.0), pts, pts)
    with pytest.raises(ValueError):
        MetricSpace.from_matrix(m, rho=1.0)
    MetricSpace.from_matrix(m, rho=2.0)  # and accept it at the right rho


def test_directly_built_spaces_are_checked():
    # the matrix kernels read a centroid's row for its column, so no
    # constructor may let an asymmetric matrix through
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        MetricSpace(kind="matrix", matrix=asym)
    for bad, message in (([[0.0, 1.0]], "square"), ([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
                         ([[1.0, 1.0], [1.0, 0.0]], "zero diagonal"),
                         ([[0.0, np.inf], [np.inf, 0.0]], "NaN or inf"), (None, "square")):
        with pytest.raises(ValueError, match=message):
            MetricSpace(kind="matrix", matrix=bad)
    with pytest.raises(ValueError, match="space kind"):
        MetricSpace(kind="manhattan")
    for power in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="power must be positive"):
            MetricSpace(kind="euclidean", power=power)
        with pytest.raises(ValueError, match="power must be positive"):
            MetricSpace.euclidean(power)
    sp = MetricSpace(kind="matrix", matrix=[[0, 3], [3, 0]])
    assert sp.matrix.dtype == np.float64
    np.testing.assert_array_equal(nearest(sp, np.array([0, 1]), np.array([1]))[1], [3.0, 0.0])


def test_a_euclidean_space_derives_its_rho():
    for power, rho in ((0.5, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 4.0), (511.0, 2.0**510)):
        assert MetricSpace.euclidean(power).rho == rho
    assert MetricSpace("euclidean", 2.0, 2.0) == MetricSpace.euclidean(2.0)
    for rho in (0.5, 1.0, 4.0, np.nan):  # a wrong rho would scale every pi wrongly
        with pytest.raises(ValueError, match="gives rho 2.0"):
            MetricSpace("euclidean", 2.0, rho)
    with pytest.raises(ValueError, match="no distance matrix"):
        MetricSpace("euclidean", matrix=np.zeros((2, 2)))


def test_a_matrix_space_built_directly_is_built_as_from_matrix_builds_it():
    pts = np.array([[0.0], [1.0], [2.0]])
    m = pairwise(MetricSpace.euclidean(2.0), pts, pts)  # relaxed, at rho = 2 only
    with pytest.raises(ValueError, match="rho=1.0 relaxed triangle"):
        MetricSpace.from_matrix(m)
    with pytest.raises(ValueError, match="rho=1.0 relaxed triangle"):
        MetricSpace(kind="matrix", matrix=m)
    m = pairwise(MetricSpace.euclidean(1.0), pts, pts)
    direct, built = MetricSpace(kind="matrix", matrix=m), MetricSpace.from_matrix(m)
    assert (direct.kind, direct.rho) == (built.kind, built.rho) == ("matrix", 1.0)
    assert np.isnan(direct.power) and np.isnan(built.power)  # NaN != NaN: compared apart
    np.testing.assert_array_equal(direct.matrix, built.matrix)
    with pytest.raises(ValueError, match="no power"):
        MetricSpace("matrix", 2.0, matrix=m)


def test_as_points_refuses_a_weighted_point_set():
    # as plain points its weights were dropped: cost read 40.0, the weighted cost is 112.0
    X = np.arange(6.0).reshape(3, 2)
    ps = WeightedPointSet(X, np.array([1.0, 2.0, 3.0]))
    assert cost(SP2, ps.points, ps.weights, X[:1]) == 112.0
    for call in (lambda: cost(SP2, ps, None, X[:1]), lambda: CentroidSet(ps),
                 lambda: one2all.one2all_probs(SP2, ps, None, X[:1])):
        with pytest.raises(TypeError, match=r"\.points and \.weights"):
            call()


def test_matrix_space_rejects_nan_or_inf_entries():
    # NaN was reported as an asymmetry, and a single inf pair slipped past the
    # sampled triangle checks and into a certified clustering
    rng = np.random.default_rng(21)
    P = rng.normal(size=(300, 3))
    m = pairwise(MetricSpace.euclidean(1.0), P, P)
    MetricSpace.from_matrix(m)
    for bad in (np.nan, np.inf):
        broken = m.copy()
        broken[5, 9] = broken[9, 5] = bad
        with pytest.raises(ValueError, match="^distances contain NaN or inf"):
            MetricSpace.from_matrix(broken)


def _with_bad_cell(X, row, bad):
    X = np.array(X, dtype=np.float64)
    X[row, 1] = bad
    return X


_KERNEL_CALLS = {
    "run_trace": lambda X, Q: run_trace(SP2, X, None, 3, 0),
    "run_trace-p3": lambda X, Q: run_trace(MetricSpace.euclidean(3.0), X, None, 3, 4),
    "cost": lambda X, Q: cost(SP2, X, None, Q),
    "cost-weighted": lambda X, Q: cost(MetricSpace.euclidean(1.0), X, np.ones(len(X)), Q),
    "nearest": lambda X, Q: nearest(SP2, X, Q),
    "pairwise": lambda X, Q: pairwise(MetricSpace.euclidean(3.0), X, Q),
}


@pytest.mark.parametrize("row", [0, 17, 49])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", sorted(_KERNEL_CALLS))
def test_kernel_entry_points_reject_nan_or_inf_points(call, bad, row):
    X = np.random.default_rng(22).normal(size=(50, 3))
    with pytest.raises(ValueError, match="^points contain NaN or inf"):
        _KERNEL_CALLS[call](_with_bad_cell(X, row, bad), X[:4])
    if call.startswith("run_trace"):
        return
    with pytest.raises(ValueError, match="^centroids contain NaN or inf"):
        _KERNEL_CALLS[call](X, _with_bad_cell(X[:4], 2, bad))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # a score's -inf + inf
def test_overflow_is_not_reported_as_nan_or_inf():
    # finite points whose squared distance overflows keep today's inf result
    X = np.array([[1e200, 0.0], [0.0, 0.0]])
    Q = np.array([[-1e200, 0.0]])
    assert nearest(SP2, X, Q)[1][0] == np.inf
    assert pairwise(SP2, X, Q)[0, 0] == np.inf
    assert cost(SP2, X, None, Q) == np.inf
    assert run_trace(SP2, X, None, 2, 0).prefix_costs[0] == np.inf


finite_points = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(1, 4)),
    elements=st.floats(-1e3, 1e3),
)


@given(finite_points, st.sampled_from([1.0, 2.0, 3.0]))
@settings(max_examples=60, deadline=None)
def test_relaxed_triangle_property(X, p):
    sp = MetricSpace.euclidean(p)
    d = pairwise(sp, X, X)
    np.testing.assert_allclose(d, d.T, atol=1e-9)
    assert np.all(np.diag(d) == 0.0)
    n = X.shape[0]
    for i in range(n):
        for j in range(n):
            via = d[i, :] + d[:, j]
            assert d[i, j] <= sp.rho * via.min() + 1e-6 * max(1.0, d[i, j])


# The GEMM-screened kernel against the plain column loop ---------------------
#
# nearest, run_trace and replay must give the bytes the per-centroid loop
# below gives: exact distances from diff -> square -> sum, a running minimum
# with strict improvement (lowest index on ties), powered as pairwise does.


def ref_trace(p, X, w, ell, seed):
    """The kmeans++ trace loop with one reference column per step."""
    rng = np.random.default_rng(seed)
    chosen = [_draw_index(rng, w)]
    dist = ref_column(p, X, X[chosen[0]])
    owner = np.zeros(X.shape[0], dtype=np.intp)
    steps = [(owner.copy(), dist.copy())]
    costs = [float(np.sum(w * dist))]
    for i in range(1, ell):
        mass = w * dist
        if not np.any(mass > 0.0):
            break
        s = _draw_index(rng, mass)
        chosen.append(s)
        dnew = ref_column(p, X, X[s])
        better = dnew < dist
        dist[better] = dnew[better]
        owner[better] = i
        steps.append((owner.copy(), dist.copy()))
        costs.append(float(np.sum(w * dist)))
    return chosen, steps, costs


def assert_same_bytes(got, want):
    __tracebackhide__ = True
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.tobytes() != want.tobytes():
        bad = np.flatnonzero(got != want)[:5]
        pytest.fail(f"differ at {bad}: {got[bad]!r} vs {want[bad]!r}")


def assert_kernel_matches(X, Q, p, w=None, ell=None, seed=0):
    sp = MetricSpace.euclidean(p)
    ref_owner, ref_dist = ref_nearest(p, X, Q)
    # as given, and as a sample passes its members: feature-major, with norms
    for owner, dist in (nearest(sp, X, Q),
                        nearest(sp, X, Q, norms=np.einsum("ij,ij->i", X, X),
                                cols=np.ascontiguousarray(X.T))):
        assert_same_bytes(owner, ref_owner)
        assert_same_bytes(dist, ref_dist)
    w = np.ones(X.shape[0]) if w is None else w
    ell = min(X.shape[0], 6) if ell is None else ell
    trace = run_trace(sp, X, w, ell, seed)
    chosen, steps, costs = ref_trace(p, X, w, ell, seed)
    assert_same_bytes(trace.centroid_indices, np.asarray(chosen, dtype=np.intp))
    assert_same_bytes(trace.prefix_costs, np.asarray(costs))
    for (i, o, d, v), (ref_o, ref_d) in zip(replay(trace), steps, strict=True):
        assert_same_bytes(o, ref_o)
        assert_same_bytes(d, ref_d)
        assert v == costs[i - 1]


coords = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))


# d on the far side of core._COLUMNS_MAX_D, where full-data passes sum rows
ROW_MAJOR_D = (core._COLUMNS_MAX_D + 1, core._COLUMNS_MAX_D + 4)


@st.composite
def kernel_inputs(draw, dims=(1, 5)):
    n = draw(st.integers(1, 25))
    d = draw(st.integers(*dims))
    k = draw(st.integers(1, 6))
    X = draw(hnp.arrays(np.float64, (n, d), elements=coords))
    Q = draw(hnp.arrays(np.float64, (k, d), elements=coords))
    if draw(st.booleans()):  # some centroids are data points
        Q[: min(k, n)] = X[: min(k, n)]
    return X, Q


@given(kernel_inputs(), st.sampled_from([1.0, 2.0, 3.0]), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_column_loop_property(inputs, p, seed):
    X, Q = inputs
    assert_kernel_matches(X, Q, p, seed=seed)


@given(kernel_inputs(ROW_MAJOR_D), st.sampled_from([1.0, 2.0, 3.0]), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_kernel_matches_column_loop_property_row_major(inputs, p, seed):
    X, Q = inputs
    assert not core._columnar(X)
    assert_kernel_matches(X, Q, p, seed=seed)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_kernel_duplicated_centroids_go_to_lowest_index(p):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 4))
    Q = rng.normal(size=(5, 4))
    Q = np.vstack([Q, Q[::-1], Q])  # every centroid three times
    owner, _ = nearest(MetricSpace.euclidean(p), X, Q)
    assert owner.max() < 5
    assert_kernel_matches(X, Q, p)
    # duplicated points give duplicated trace centroids
    assert_kernel_matches(np.vstack([X[:40], X[:40]]), Q, p, ell=30, seed=3)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_kernel_points_on_centroids_are_exactly_zero(p):
    rng = np.random.default_rng(12)
    X = rng.normal(size=(200, 6)) * 50.0
    Q = X[[7, 3, 150, 3]]
    owner, dist = nearest(MetricSpace.euclidean(p), X, Q)
    assert dist[7] == 0.0 and dist[150] == 0.0 and dist[3] == 0.0
    assert owner[3] == 1  # the first copy of X[3]
    assert_kernel_matches(X, Q, p)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_kernel_large_offset_unit_spread(p):
    # |x|^2 ~ 1e13 dwarfs the distances, so GEMM scores alone cannot rank them
    rng = np.random.default_rng(13)
    X = 1e6 + rng.normal(size=(500, 8))
    Q = 1e6 + rng.normal(size=(9, 8))
    assert_kernel_matches(X, Q, p, ell=12, seed=1)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_kernel_one_dimension_and_one_centroid(p):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(400, 1))
    assert_kernel_matches(X, rng.normal(size=(6, 1)), p, ell=15)
    assert_kernel_matches(X, rng.normal(size=(1, 1)), p)
    Y = rng.normal(size=(400, 7))
    assert_kernel_matches(Y, Y[:1], p, ell=1)
    assert_kernel_matches(Y, rng.normal(size=(1, 7)), p, ell=20)
    Z = rng.normal(size=(400, ROW_MAJOR_D[0]))  # nearest's pass is then `_fill`'s
    assert_kernel_matches(Z, Z[:1], p, ell=1)
    assert_kernel_matches(Z, rng.normal(size=(1, ROW_MAJOR_D[0])), p, ell=3)


def assert_independent_of_chunk_size(p, d, monkeypatch):
    rng = np.random.default_rng(15)
    X = rng.normal(size=(150, d)) * rng.uniform(0.1, 10.0, size=(150, 1))
    Q = np.vstack([rng.normal(size=(4, d)), X[[2, 9]]])
    sp = MetricSpace.euclidean(p)
    before = nearest(sp, X, Q)
    trace_before = run_trace(sp, X, None, 10, 2)
    for elems in (1, 13, 64):
        monkeypatch.setattr(core, "_CHUNK_ELEMS", elems)
        assert_kernel_matches(X, Q, p, ell=10, seed=2)
        after = nearest(sp, X, Q)
        assert_same_bytes(after[0], before[0])
        assert_same_bytes(after[1], before[1])
        assert_same_bytes(run_trace(sp, X, None, 10, 2).prefix_costs, trace_before.prefix_costs)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_kernel_independent_of_chunk_size(p, monkeypatch):
    assert_independent_of_chunk_size(p, 5, monkeypatch)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_kernel_independent_of_chunk_size_row_major(p, monkeypatch):
    assert_independent_of_chunk_size(p, ROW_MAJOR_D[1], monkeypatch)


@pytest.mark.parametrize("scale", [1e-155, 1e-158, 1e-161])
def test_kernel_subnormal_scale(scale):
    # squared distances underflow into subnormals, where rounding is absolute
    rng = np.random.default_rng(17)
    X = rng.normal(size=(400, 20)) * scale
    Q = np.vstack([rng.normal(size=(8, 20)) * scale, X[:2]])
    for p in (1.0, 2.0, 3.0):
        assert_kernel_matches(X, Q, p, ell=12, seed=5)


def test_kernel_matches_on_clustered_data():
    # well-separated clusters: most rows are screened out of each trace step
    rng = np.random.default_rng(16)
    X = rng.normal(size=(3000, 12)) + 20.0 * rng.integers(0, 6, size=(3000, 1))
    w = rng.uniform(0.5, 2.0, size=3000)
    Q = X[rng.choice(3000, size=10, replace=False)]
    assert_kernel_matches(X, Q, 2.0, w=w, ell=20, seed=4)


# Feature-major sums ----------------------------------------------------------
#
# core._colsum adds a (d, m) block's rows in the order numpy sums each of the
# m contiguous d-vectors, so distances summed by columns keep their bits.

COLSUM_D = [1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31, 50, 64, 127, 128, 129, 200, 255, 256, 300,
            784, 1000]


@pytest.mark.parametrize("d", COLSUM_D)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_colsum_is_the_row_sum(d):
    rng = np.random.default_rng(d)
    for scale in (1e-3, 1.0, 1e150, 1e-160):  # 1e150 overflows, 1e-160 squares to subnormals
        rows = np.square(rng.normal(size=(37, d)) * scale)
        rows[5] = 0.0
        want = rows.sum(axis=1)
        assert_same_bytes(core._colsum(np.ascontiguousarray(rows.T)), want)
        wide = np.empty((d, 50))  # a block whose rows are strided, as _fill's last one
        wide[:, :37] = rows.T
        assert_same_bytes(core._colsum(wide[:, :37]), want)
        q = rng.normal(size=d) * scale
        X = rng.normal(size=(37, d)) * scale
        for p in (1.0, 2.0, 3.0):
            got = core._exact(X.T.copy(), q[:, None], p, cols=True)
            assert_same_bytes(got, ref_column(p, X, q))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nearest_rows_whose_first_distance_overflows():
    # a row whose first candidate's distance rounds to inf keeps inf and owner
    # 0, as the running minimum leaves it, in either layout and at either side
    # of the gate, with or without kept norms, and a later candidate can still
    # own it; the row [1e200, 0]'s squared norm overflows
    X = np.array([[4.202465956147694e153, 0.0], [-1.3e154, 0.0], [1.0, 2.0], [1e200, 0.0]])
    Q = np.array([[-1e154, 0.0], [-9.205341973794902e153, 0.0], [0.0, 0.0]])
    for d in (2, ROW_MAJOR_D[0]):
        Xd, Qd = np.pad(X, ((0, 0), (0, d - 2))), np.pad(Q, ((0, 0), (0, d - 2)))
        norms = np.einsum("ij,ij->i", Xd, Xd)
        for cols in ([0, 1], [1, 0], [1], [1, 2], [2, 1, 0]):
            ref_owner, ref_dist = ref_nearest(2.0, Xd, Qd[cols])
            for kept in (None, norms):
                for got in (nearest(SP2, Xd, Qd[cols], norms=kept),
                            nearest(SP2, Xd, Qd[cols], norms=kept,
                                    cols=np.ascontiguousarray(Xd.T))):
                    assert_same_bytes(got[0], ref_owner)
                    assert_same_bytes(got[1], ref_dist)
    assert nearest(SP2, X[:1], Q[1:2]) == (0, np.inf)


def test_nearest_refuses_a_wrong_transpose():
    X = np.random.default_rng(28).normal(size=(40, 3))
    for bad in (X, X.T[:, :-1], X.T[:2]):
        with pytest.raises(ValueError, match="cols must be the points' transpose"):
            nearest(SP2, X, X[:2], cols=bad)


# Owners without distances --------------------------------------------------
#
# core._owners (Lloyd's assignment, and a fresh feature-major nearest's
# owners) must report the column loop's owners in nearest's dtype, byte for
# byte, given the rows' norms or not, while computing exact distances only
# for rows the screen leaves with several candidates.


def assert_owners_match(X, Q):
    want = ref_nearest(2.0, X, Q)[0]
    for norms in (np.einsum("ij,ij->i", X, X), None):
        assert_same_bytes(core._owners(X, Q, norms), want)


@given(kernel_inputs())
@settings(max_examples=150, deadline=None)
def test_owners_match_nearest_property(inputs):
    assert_owners_match(*inputs)


@given(kernel_inputs(ROW_MAJOR_D))
@settings(max_examples=100, deadline=None)
def test_owners_match_nearest_property_row_major(inputs):
    assert_owners_match(*inputs)


def test_owners_duplicated_centroids_go_to_lowest_index():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 4))
    Q = rng.normal(size=(5, 4))
    Q = np.vstack([Q, Q[::-1], Q])
    assert core._owners(X, Q, np.einsum("ij,ij->i", X, X)).max() < 5
    assert_owners_match(X, Q)


def test_owners_planted_ties_go_to_lowest_index():
    # integer points and centroids: exact ties on every bisector
    rng = np.random.default_rng(22)
    X = rng.integers(-3, 4, size=(600, 3)).astype(np.float64)
    Q = np.array([[-1.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [1, 1, 1]])
    for order in (Q, Q[::-1], Q[[2, 0, 4, 1, 3]]):
        assert_owners_match(X, order)
    on_bisector = np.array([[0.0, 5.0, 2.0], [0.0, -4.0, 1.0]])  # equidistant to +-e1
    for pair in (Q[:2], Q[1::-1]):
        assert not core._owners(on_bisector, pair, None).any()
        assert_owners_match(on_bisector, pair)


def test_owners_large_offset_and_subnormal_scale():
    rng = np.random.default_rng(23)
    assert_owners_match(1e6 + rng.normal(size=(500, 8)), 1e6 + rng.normal(size=(9, 8)))
    for scale in (1e-155, 1e-158, 1e-161):
        X = rng.normal(size=(400, 20)) * scale
        assert_owners_match(X, np.vstack([rng.normal(size=(8, 20)) * scale, X[:2]]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_owners_rows_whose_scores_or_distances_overflow():
    # row 0: its one candidate (centroid 1) is at a distance that rounds to
    # inf although its score plus ||x||^2 does not, so the loop keeps owner 0;
    # rows 1-2: the score of centroid 0 overflows; row 3: ||x||^2 overflows
    X = np.array([[4.202465956147694e153, 0.0], [-1.3e154, 0.0], [-1.3e154, 1.0],
                  [1e200, 0.0], [1.0, 2.0]])
    Q = np.array([[-1e154, 0.0], [-9.205341973794902e153, 0.0], [0.0, 0.0]])
    assert nearest(SP2, X[:1], Q[:2])[1][0] == np.inf
    for cols in ([0, 1], [0, 1, 2], [2, 1, 0], [1], [0]):
        assert_owners_match(X, Q[cols])


@pytest.mark.parametrize("elems", [20, 97])
def test_owners_independent_of_chunk_size(elems, monkeypatch):
    rng = np.random.default_rng(24)
    X = rng.normal(size=(300, 5)) * rng.uniform(0.1, 10.0, size=(300, 1))
    Q = np.vstack([rng.normal(size=(6, 5)), X[[2, 9, 2]]])
    monkeypatch.setattr(core, "_CHUNK_ELEMS", elems)
    assert_owners_match(X, Q)


# The norms a trace's first step computes, and nearest given kept norms ---------


@pytest.mark.parametrize("elems", [None, 20, 97])
@pytest.mark.parametrize("d", [1, 3, 10, 50])
def test_trace_norms_are_the_row_norms(d, elems, monkeypatch):
    rng = np.random.default_rng(d)
    X = rng.normal(size=(500, d)) * rng.uniform(0.1, 1e3, size=(500, 1))
    if elems is not None:
        monkeypatch.setattr(core, "_CHUNK_ELEMS", elems)
        monkeypatch.setattr(core, "_GATHER_ELEMS", elems)
    want = np.einsum("ij,ij->i", X, X)
    for p in (1.0, 2.0, 3.0):
        sp = MetricSpace.euclidean(p)
        norms = np.empty(500)
        core._fill(sp, X, X[7], np.empty(500), norms=norms)
        assert_same_bytes(norms, want)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_cost_and_nearest_with_trace_norms_match(p):
    sp = MetricSpace.euclidean(p)
    rng = np.random.default_rng(25)
    X = rng.normal(size=(2000, 6)) + 8.0 * rng.integers(0, 4, size=(2000, 1))
    w = rng.uniform(0.5, 2.0, size=2000)
    M = run_trace(sp, X, w, 8, 1).centroids
    norms = np.einsum("ij,ij->i", X, X)
    for Q in (M, X[[3, 3, 70]], rng.normal(size=(5, 6))):
        kept = nearest(sp, X, Q, norms=norms)[1]
        assert cost(sp, X, w, Q).hex() == float(np.sum(w * kept)).hex()
        assert cost(sp, X, None, Q).hex() == float(np.sum(kept)).hex()
        for got, want in zip(nearest(sp, X, Q, norms=norms), nearest(sp, X, Q)):
            assert_same_bytes(got, want)


@pytest.mark.parametrize("d", [3, 24])  # nearest's feature-major and row-major passes
def test_owners_past_255_keep_their_index(d):
    # the wrapper's exact pass: nearest by M[:k0], its owners widened to hold
    # every index of M, then _lower by M[k0:]; byte-sized owners would raise
    # OverflowError
    rng = np.random.default_rng(32)
    X = rng.normal(size=(1000, d))
    M = rng.normal(size=(300, d))
    want_owner, want_dist = ref_nearest(2.0, X, M)  # a column loop
    assert want_owner.max() > 255 and want_owner.dtype == np.uint16
    owner, dist = nearest(SP2, X, M[:200])
    assert owner.dtype == np.uint8
    owner = owner.astype(np.min_scalar_type(M.shape[0] - 1), copy=False)
    core._lower(SP2, X, M[200:], 200, dist, owner, None)
    assert_same_bytes(owner, want_owner)
    assert_same_bytes(dist, want_dist)
    for got, want in zip(nearest(SP2, X, M), (want_owner, want_dist)):
        assert_same_bytes(got, want)


def test_cost_holds_one_distance_array():
    # the pass keeps no row norms and byte-sized owners: below 4 n-vectors of
    # float64, kernel temporaries included (8-byte owners and norms made 5.1)
    X = np.random.default_rng(33).normal(size=(200_000, 10))
    tracemalloc.start()
    try:
        cost(SP2, X, None, X[:5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * X.shape[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_exact_pass_rejects_non_finite_rows(bad):
    # with no warning filter: pyproject turns a RuntimeWarning on the way
    # into an error, which the caller would get in place of the ValueError
    for d in (4, 24):  # feature-major and row-major passes
        X = np.random.default_rng(27).normal(size=(300, d))
        X[211, 2] = bad
        for k in (1, 3):
            for p in (1.0, 2.0, 3.0):
                sp = MetricSpace.euclidean(p)
                with pytest.raises(ValueError, match="points contain NaN or inf"):
                    nearest(sp, X, X[:k])
                with pytest.raises(ValueError, match="points contain NaN or inf"):
                    cost(sp, X, None, X[:k])
    huge = np.full((5, 2), 1e200)  # finite rows whose distances overflow pass
    huge[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        owner, dist = nearest(SP2, huge, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert dist[0] == 0.0 and np.isinf(dist[2])


@pytest.mark.parametrize("k", [1, 256, 257])
def test_nearest_owners_take_the_smallest_type_that_holds_k_minus_1(k):
    rng = np.random.default_rng(36)
    # feature-major and row-major Euclidean passes, and a matrix space
    cases = [(SP2, X, X[:k]) for X in (rng.normal(size=(300, 3)), rng.normal(size=(300, 24)))]
    m = pairwise(MetricSpace.euclidean(1.0), cases[0][1], cases[0][1])
    cases.append((MetricSpace.from_matrix(m), np.arange(300), np.arange(k)))
    for sp, P, Q in cases:
        assert nearest(sp, P, Q)[0].dtype == np.min_scalar_type(k - 1)


def test_wrong_shape_norms_are_rejected():
    X = np.random.default_rng(26).normal(size=(40, 3))
    norms = np.einsum("ij,ij->i", X, X)
    for bad in (norms[:-1], norms[:, None], np.append(norms, 1.0), np.float64(1.0)):
        with pytest.raises(ValueError, match="norms must be one per point"):
            nearest(SP2, X, X[:2], norms=bad)


# Matrix spaces against the gathered (n, k) block --------------------------
#
# nearest, pairwise, run_trace and replay read a matrix space one centroid at
# a time; they must give the bytes of the whole np.ix_ block and argmin.


def _tied_matrix_space(seed):
    """Integer grid points with repeats: duplicate columns, zero off-diagonal
    distances and many equal distances between different pairs."""
    rng = np.random.default_rng(seed)
    P = rng.integers(0, 5, size=(90, 2)).astype(np.float64)
    P = np.vstack([P, P[:30]])
    return MetricSpace.from_matrix(pairwise(MetricSpace.euclidean(1.0), P, P))


def _tied_queries(sp):
    m = sp.matrix
    twin = int(np.flatnonzero((m[3] == 0.0) & (np.arange(m.shape[0]) != 3))[0])
    return [np.array([3]), np.array([3, twin, 3]), np.array([twin, 3, 50, 7, 50]),
            np.arange(0, 120, 7), np.arange(119, -1, -3)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matrix_nearest_and_pairwise_match_the_gathered_block(seed):
    sp = _tied_matrix_space(seed)
    rng = np.random.default_rng(seed)
    for X in (np.arange(120), rng.permutation(120)[:70], np.array([3, 3, 5])):
        for Q in _tied_queries(sp):
            owner, dist = nearest(sp, X, Q)
            ref_owner, ref_dist = reference.matrix_nearest(sp, X, Q)
            assert_same_bytes(owner, ref_owner)
            assert_same_bytes(dist, ref_dist)
            assert_same_bytes(pairwise(sp, X, Q), reference.matrix_pairwise(sp, X, Q))
            assert cost(sp, X, None, Q) == float(np.sum(ref_dist))


@pytest.mark.parametrize("ell", [8, 40])  # 40 exceeds the distinct points
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matrix_trace_and_replay_match_the_gathered_block(seed, weighted, ell):
    sp = _tied_matrix_space(seed)
    X = np.arange(120)
    w = np.random.default_rng(seed).uniform(0.2, 5.0, size=120) if weighted else np.ones(120)
    trace = run_trace(sp, X, w, ell, seed)
    # an independent trace: the same draws, each state from the whole block
    rng = np.random.default_rng(seed)
    mass = w
    states = []
    for i in range(ell):
        if not np.any(mass > 0.0):
            break
        assert _draw_index(rng, mass) == trace.centroid_indices[i]
        owner, dist = reference.matrix_nearest(sp, X, trace.centroids[: i + 1])
        states.append((owner.astype(np.intp), dist))  # replay's owners are intp
        mass = w * dist
        assert trace.prefix_costs[i] == float(np.sum(mass))
    assert trace.ell == len(states) and (trace.ell < ell) == (ell == 40)
    for (i, owner, dist, v), (ref_owner, ref_dist) in zip(replay(trace), states, strict=True):
        assert_same_bytes(owner, ref_owner)
        assert_same_bytes(dist, ref_dist)
        assert v == trace.prefix_costs[i - 1]


def test_matrix_nearest_memory_is_linear_in_n():
    # the gathered block would be n * k * 8 bytes (8 MB here)
    n = 1000
    m = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(np.float64)
    sp = MetricSpace.from_matrix(m)
    X = np.arange(n)
    Q = np.arange(n)[::-1].copy()
    tracemalloc.start()
    try:
        owner, dist = nearest(sp, X, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not dist.any() and np.array_equal(owner, n - 1 - X)
    assert peak < 16 * 8 * n
