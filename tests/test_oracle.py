"""Adaptive cost oracle: build, query, feedback updates, serialization."""

import io
import tracemalloc
import zipfile

import numpy as np
import pytest
from conftest import rand_instance
from hypothesis import given, settings
from hypothesis import strategies as hst
from reference import mo_pps_bruteforce

from one2all import core, kmeanspp, oracle, probabilities
from one2all.cli import main
from one2all.core import MetricSpace, cost, pairwise
from one2all.errors import DataFormatError
from one2all.kmeanspp import run_trace
from one2all.probabilities import sweet_spot
from one2all.sampling import draw, estimate_cost

SP2 = MetricSpace.euclidean(2.0)


def _sweet_spot_centroids(X, w, k, eps, seed):
    """The sweet-spot centroids M that build_feedback(SP2, X, w, k, eps, seed) picks
    when n <= _SUBSAMPLE, so that S0 is every row."""
    trace_seed = int(np.random.SeedSequence(seed).generate_state(2)[0])
    tr = run_trace(SP2, X, w, 2 * k, seed=trace_seed)
    return sweet_spot(tr, C=tr.prefix_costs[-1], eps=eps)[1].M


def _mixture(seed, n=4000, d=5, k=4, spread=8.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k, d)) * spread
    X = centers[rng.integers(k, size=n)] + rng.normal(size=(n, d))
    w = rng.uniform(0.5, 2.0, size=n)
    return X, w


# build ------------------------------------------------------------------


def test_build_saturates_when_budget_forces_it():
    sp, X, w = rand_instance(0, n=50, d=2)
    st = oracle.build(sp, X, w, ell=4, C=1e-12, eps=0.5, seed=0)
    assert st.sample.saturated
    assert st.size == 50
    q = oracle.query(st, X[:3])
    assert q == pytest.approx(cost(sp, X, w, X[:3]), rel=1e-12)


def test_zero_threshold_build_keeps_every_point_without_a_prefix_scan(monkeypatch):
    # three distinct points leave no residual cost within ell = 2k = 4 steps
    X = np.repeat([[0.0, 0.0], [5.0, 1.0], [-2.0, 7.0]], [30, 20, 10], axis=0)
    w = np.linspace(0.5, 2.0, X.shape[0])
    trace_seed = int(np.random.SeedSequence(4).generate_state(2)[0])
    tr = run_trace(SP2, X, w, 4, seed=trace_seed)
    assert tr.prefix_costs[-1] == 0.0

    def refuse(*args, **kwargs):
        raise AssertionError("a zero-threshold build scanned the prefixes")

    monkeypatch.setattr(oracle, "sweet_spot", refuse)
    monkeypatch.setattr(probabilities, "replay", refuse)
    monkeypatch.setattr(kmeanspp, "replay", refuse)
    st = oracle.build_feedback(SP2, X, w, k=2, eps=0.3, seed=4)
    assert st.C == 0.0 and st.sample.saturated
    assert st.prefix_index == tr.ell


def test_build_matches_independent_prefix_scan():
    sp, X, w = rand_instance(1, n=300, d=3)
    # build splits its seed into (trace, sample) streams
    trace_seed = int(np.random.SeedSequence(3).generate_state(2)[0])
    tr = run_trace(sp, X, w, 8, seed=trace_seed)
    eps = 0.25
    C = tr.prefix_costs[3]
    st = oracle.build(sp, X, w, ell=8, C=C, eps=eps, seed=3)
    i_star, probs = sweet_spot(tr, C=C, eps=eps)
    v = tr.prefix_costs[i_star - 1]
    p = np.minimum(1.0, max(1.0, v / C) * eps**-2 * probs.pi)
    assert st.prefix_index == i_star
    np.testing.assert_array_equal(st.sample.p, p)


def test_build_above_the_subsample_matches_an_independent_reconstruction():
    X, w = _mixture(3, n=kmeanspp._SUBSAMPLE + 3000, d=3, k=4)
    n, eps = X.shape[0], 0.2
    st = oracle.build_feedback(SP2, X, w, k=4, eps=eps, seed=5)
    # the first two seed words are the trace's and the sample's, the third S0's
    trace_seed, _, sub_seed = np.random.SeedSequence(5).generate_state(3)
    rows = np.sort(np.random.default_rng(sub_seed).choice(n, kmeanspp._SUBSAMPLE,
                                                          replace=False))
    tr = run_trace(SP2, X[rows], w[rows] * (n / rows.size), 8, seed=trace_seed)
    C = tr.prefix_costs[-1]
    i_star = sweet_spot(tr, C=C, eps=eps, n=n)[0]
    probs = probabilities.one2all_probs(SP2, X, w, tr.prefix(i_star))
    assert (st.C, st.prefix_index) == (C, i_star)
    np.testing.assert_array_equal(
        st.sample.p, np.minimum(1.0, max(1.0, probs.cost_m / C) * eps**-2 * probs.pi))
    # S0's estimate of the winner's sample size is close to the size drawn
    est = sweet_spot(tr, C=C, eps=eps, n=n)[1]
    est_size = np.sum(np.minimum(1.0, max(1.0, tr.prefix_costs[i_star - 1] / C)
                                 * eps**-2 * est.pi)) * n / rows.size
    assert est_size == pytest.approx(st.sample.p.sum(), rel=0.2)


def test_build_traces_s0_once_and_passes_over_every_row_once(monkeypatch):
    X, w = _mixture(11, n=kmeanspp._SUBSAMPLE + 3000, d=3, k=4)
    calls = []

    def spy(name, fn):
        def inner(space, P, *args, **kwargs):
            calls.append((name, np.shape(P)[0], args))
            return fn(space, P, *args, **kwargs)
        return inner

    monkeypatch.setattr(kmeanspp, "run_trace", spy("run_trace", kmeanspp.run_trace))
    monkeypatch.setattr(probabilities, "nearest", spy("nearest", probabilities.nearest))
    for module in (core, kmeanspp):  # the exact pass's kernels, and the trace's and replay's
        for name in ("_fill", "_lower"):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    st = oracle.build_feedback(SP2, X, w, k=4, eps=0.3, seed=2)
    traces = [c for c in calls if c[0] == "run_trace"]
    assert [(c[1], c[2][1]) for c in traces] == [(kmeanspp._SUBSAMPLE, 8)]  # S0, ell = 2k
    # M's one exact pass over every row; every other distance is on S0's rows
    full = [c for c in calls if c[1] == len(X)]
    assert [c[0] for c in full] == ["nearest"]  # d = 3: on feature-major blocks
    assert full[0][2][0].shape[0] == st.prefix_index
    assert {c[1] for c in calls} == {len(X), kmeanspp._SUBSAMPLE}


def test_states_hold_no_n_vector_besides_pi_and_u(tmp_path):
    # built or loaded, and after an exact answer, a state holds its sample's
    # pi, u and member arrays, and no other n-length array (no row norms, no p)
    X, _ = _mixture(41, n=50_000, d=3, k=3)
    path = tmp_path / "oracle.npz"
    oracle.save(oracle.build_feedback(SP2, X, None, k=3, eps=0.3, seed=7), path)
    for make in (lambda: oracle.build_feedback(SP2, X, None, k=3, eps=0.3, seed=7),
                 lambda: oracle.load(path, points=X)):
        tracemalloc.start()
        try:
            st = make()
            st.C = np.inf  # so the next query is answered exactly
            assert oracle.feedback_query(st, X[:3])[1]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        s = st.sample
        arrays = (s.pi, s.u, s.members, s.member_points, s.member_weights, s.w_prime,
                  s.member_cols, s.member_norms)
        held -= sum(a.nbytes for a in arrays if a is not None)
        assert held < 8 * X.shape[0] / 4


def test_halvings_bound_updates_with_a_threshold_estimated_on_s0(monkeypatch):
    # criterion 8's halving sequences, with C = S0's v_2k: V_t <= 0.9 C_0 / 2^t
    monkeypatch.setattr(kmeanspp, "_SUBSAMPLE", 500)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(4, 5)) * 8.0
        X = centers[rng.integers(4, size=2000)] + rng.normal(size=(2000, 5))
        w = rng.uniform(0.5, 2.0, size=2000)
        st = oracle.build_feedback(SP2, X, w, k=4, eps=0.4, seed=seed)
        trace_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        assert st.C != run_trace(SP2, X, w, 8, seed=trace_seed).prefix_costs[-1]
        C0, W = st.C, w.sum()
        shift = np.zeros(5)
        for t in range(1, 6):
            shift[0] = np.sqrt(0.9 * C0 / 2**t / W)
            oracle.feedback_query(st, X + shift)
            assert st.update_count <= t


def test_build_with_ell_above_the_subsample_traces_ell_rows(monkeypatch):
    monkeypatch.setattr(kmeanspp, "_SUBSAMPLE", 50)
    sp, X, w = rand_instance(2, n=200, d=2)
    seen = []
    run_trace = kmeanspp.run_trace

    def spy(space, P, weights, ell, seed):
        seen.append((np.shape(P)[0], ell))
        return run_trace(space, P, weights, ell, seed)

    monkeypatch.setattr(kmeanspp, "run_trace", spy)
    st = oracle.build(sp, X, w, ell=60, C=1e-3 * cost(sp, X, w, X[:1]), eps=0.5, seed=1)
    assert seen == [(60, 60)]
    assert 1 <= st.prefix_index <= 60 and st.sample.p.shape == (200,)
    with pytest.raises(ValueError, match="exceeds n"):
        oracle.build(sp, X, w, ell=201, C=1.0, eps=0.5, seed=1)


def test_query_error_small_at_m_itself():
    # estimate of V(M) should land within 3*eps nearly always
    eps = 0.2
    hits = 0
    trials = 200
    for seed in range(trials):
        X, w = _mixture(seed, n=800, d=3, k=3)
        st = oracle.build_feedback(SP2, X, w, k=3, eps=eps, seed=seed)
        M = _sweet_spot_centroids(X, w, 3, eps, seed)
        v = cost(SP2, X, w, M)
        if v <= 0:
            hits += 1
            continue
        est = oracle.query(st, M)
        if abs(est - v) <= 3 * eps * v:
            hits += 1
    assert hits >= int(0.99 * trials), hits


def test_query_cv_at_weak_pps_rate():
    # C = 4 V(Q): probabilities behave like pps at rate r/4, CV <= 2 eps
    eps = 0.25
    X, w = _mixture(7, n=3000, d=4, k=4)
    trace_seed = int(np.random.SeedSequence(1).generate_state(2)[0])
    tr = run_trace(SP2, X, w, 8, seed=trace_seed)
    Q = tr.prefix(4)
    v = cost(SP2, X, w, Q)
    st = oracle.build(SP2, X, w, ell=8, C=4 * v, eps=eps, seed=1)
    if st.sample.saturated:
        pytest.skip("instance too small to exercise sampling")
    ests = np.empty(2000)
    for i, s in enumerate(np.random.SeedSequence(2).generate_state(2000, dtype=np.uint64)):
        smp = draw(X, w, st.sample.p, int(s))
        ests[i] = estimate_cost(SP2, smp, Q)
    se = ests.std(ddof=1) / np.sqrt(ests.size)
    assert abs(ests.mean() - v) <= 3 * se
    assert ests.std(ddof=1) / v <= 2 * eps


def test_stored_probabilities_dominate_pps_above_threshold():
    # any query costing >= C is answered at effective rate >= eps^-2 pps
    eps = 0.5
    for seed in range(6):
        sp, X, w = rand_instance(seed + 40, n=10, d=2)
        tr = run_trace(sp, X, w, 3, seed=seed)
        C = tr.prefix_costs[-1]
        st = oracle.build(sp, X, w, ell=3, C=C, eps=eps, seed=seed)
        for kq in (1, 2):
            psi, _ = mo_pps_bruteforce(sp, X, w, kq, min_cost=C)
            capped = np.minimum(1.0, eps**-2 * psi)
            assert np.all(st.sample.p >= capped - 1e-12)


# feedback ---------------------------------------------------------------


def test_feedback_exact_path_halves_threshold():
    X, w = _mixture(11, n=2000, d=4, k=4)
    st = oracle.build_feedback(SP2, X, w, k=4, eps=0.3, seed=5)
    C0 = st.C
    tr_q = run_trace(SP2, X, w, 4, seed=99)
    Q = tr_q.centroids
    v = cost(SP2, X, w, Q)
    est, was_exact = oracle.feedback_query(st, Q)
    if was_exact:
        assert est == pytest.approx(v, rel=1e-12)
        assert st.C == min(C0, v) / 2
        assert st.update_count == 1
    else:
        assert est > C0
        assert st.C == C0
        assert st.update_count == 0


def test_feedback_update_count_bounded_by_halvings():
    # queries with V_j = 0.9 C_0 / 2^j: after t updates C <= C_0 / 2^t
    X, w = _mixture(13, n=3000, d=5, k=5)
    st = oracle.build_feedback(SP2, X, w, k=5, eps=0.4, seed=2)
    C0 = st.C
    # shifting every point by delta costs at most W delta^2, tunable at will
    W = w.sum()
    shift = np.zeros(5)
    for t in range(1, 6):
        target = 0.9 * C0 / 2**t
        shift[0] = np.sqrt(target / W)
        Q = X + shift
        v = cost(SP2, X, w, Q)
        assert 0 < v <= target * 1.01
        oracle.feedback_query(st, Q)
        assert st.update_count <= t
        assert st.C <= C0 / 2**st.update_count + 1e-9


def test_feedback_members_only_grow_and_c_never_increases():
    X, w = _mixture(17, n=2500, d=4, k=4)
    st = oracle.build_feedback(SP2, X, w, k=4, eps=0.3, seed=3)
    prev_members = set(st.sample.members.tolist())
    prev_C = st.C
    rng = np.random.default_rng(0)
    for rnd in range(6):
        Q = X[rng.choice(len(X), 2, replace=False)]
        oracle.feedback_query(st, Q)
        cur = set(st.sample.members.tolist())
        assert prev_members.issubset(cur)
        assert st.C <= prev_C
        if st.C < prev_C:
            assert st.C <= prev_C / 2 + 1e-12
        prev_members, prev_C = cur, st.C


def test_feedback_repeat_query_no_second_update():
    X, w = _mixture(19, n=1500, d=3, k=3)
    st = oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=4)
    Q = X[:2]
    oracle.feedback_query(st, Q)
    count = st.update_count
    est2, was_exact2 = oracle.feedback_query(st, Q)
    # second call either already estimates above C or re-answers exactly;
    # an exact re-answer still halves C (cost now sits below threshold)
    if not was_exact2:
        assert st.update_count == count
    v = cost(SP2, X, w, Q)
    if was_exact2:
        assert est2 == pytest.approx(v, rel=1e-12)


def test_feedback_saturated_returns_exact_without_update():
    sp, X, w = rand_instance(5, n=40, d=2)
    st = oracle.build(sp, X, w, ell=4, C=1e-12, eps=0.5, seed=0)
    assert st.sample.saturated
    count = st.update_count
    est, was_exact = oracle.feedback_query(st, X[:2])
    assert not was_exact
    assert st.update_count == count
    assert est == pytest.approx(cost(sp, X, w, X[:2]), rel=1e-12)


def test_feedback_update_with_growth_factor_two_doubles_p():
    # C = V makes the factor max(2, 2C/V) exactly 2, and 2 fl(s pi) = fl(2s pi)
    X, w = _mixture(13, n=3000, d=3, k=3)
    st = oracle.build_feedback(SP2, X, w, k=3, eps=0.5, seed=3)
    assert not st.sample.saturated
    Q = st.sample.member_points  # estimated at 0, so answered exactly
    p_before, scale = st.sample.p, st.sample.scale
    st.C = cost(SP2, X, w, Q)
    assert oracle.feedback_query(st, Q)[1]
    assert st.sample.scale == 2.0 * scale
    np.testing.assert_array_equal(st.sample.p, np.minimum(1.0, 2.0 * p_before))


def test_states_at_scale_inf_survive_save_and_load(tmp_path):
    # a threshold so small that v_M / C overflows, and an update whose V is 0
    X, w = _mixture(17, n=600, d=3, k=3)
    built = oracle.build(SP2, X, w, ell=6, C=5e-324, eps=0.3, seed=2)
    updated = oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=2)
    assert oracle.feedback_query(updated, X) == (0.0, True)  # every point a centroid
    path = tmp_path / "oracle.npz"
    for st in (built, updated):
        assert st.sample.scale == np.inf and st.sample.saturated and st.size == len(X)
        oracle.save(st, path)
        for kwargs in ({}, {"points": X, "weights": w}):
            back = oracle.load(path, **kwargs)
            assert _same_state(back, st) and back.sample.scale == np.inf
            assert oracle.query(back, X[:3]) == oracle.query(st, X[:3])


def test_feedback_adaptive_update_budget_on_mixtures():
    # random k-subset queries: updates <= ceil(log2(v_2k / V_floor)) + 1
    ok = 0
    seeds = 50
    for seed in range(seeds):
        X, w = _mixture(seed + 100, n=1200, d=4, k=4)
        st = oracle.build_feedback(SP2, X, w, k=4, eps=0.4, seed=seed)
        C0 = st.C
        rng = np.random.default_rng(seed)
        v_min = np.inf
        for _ in range(12):
            Q = X[rng.choice(len(X), 4, replace=False)]
            v_min = min(v_min, cost(SP2, X, w, Q))
            oracle.feedback_query(st, Q)
        if v_min <= 0 or C0 <= 0:
            ok += 1
            continue
        budget = int(np.ceil(np.log2(max(2 * C0 / v_min, 1.0)))) + 1
        if st.update_count <= budget:
            ok += 1
    assert ok >= int(0.95 * seeds), ok


# serialization ----------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path):
    X, w = _mixture(23, n=1000, d=3, k=3)
    st = oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=6)
    path = tmp_path / "oracle.npz"
    oracle.save(st, path)
    back = oracle.load(path, points=X, weights=w)
    np.testing.assert_array_equal(back.sample.p, st.sample.p)
    np.testing.assert_array_equal(back.sample.members, st.sample.members)
    np.testing.assert_array_equal(back.sample.w_prime, st.sample.w_prime)
    assert back.C == st.C
    assert back.eps == st.eps
    Q = X[:2]
    assert oracle.query(back, Q) == oracle.query(st, Q)
    # a standalone load saves the same arrays back, and the re-saved file
    # still matches its dataset
    again = tmp_path / "again.npz"
    oracle.save(oracle.load(path), again)
    assert _arrays(again) == _arrays(path)
    assert oracle.query(oracle.load(again, points=X, weights=w), Q) == oracle.query(st, Q)


def _arrays(path) -> dict:
    """Each key of a saved oracle file with its dtype and bytes."""
    with np.load(path, allow_pickle=False) as z:
        return {key: (z[key].dtype, z[key].shape, z[key].tobytes()) for key in z.files}


def test_load_standalone_answers_queries(tmp_path):
    X, w = _mixture(29, n=2000, d=3, k=3)
    st = oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=7)
    path = tmp_path / "oracle.npz"
    oracle.save(st, path)
    back = oracle.load(path)
    assert back.sample.points is None
    Q = X[:2]
    assert oracle.query(back, Q) == pytest.approx(oracle.query(st, Q), rel=1e-12)
    # a query under the threshold needs the dataset for the exact answer
    assert not back.sample.saturated
    zero_q = back.sample.member_points
    assert oracle.query(back, zero_q) == 0.0
    with pytest.raises(ValueError):
        oracle.feedback_query(back, zero_q)


def test_load_refuses_weights_without_their_points(tmp_path):
    # nothing could check the weights against the file, so none are dropped silently
    X, w = _mixture(29, n=500, d=3, k=3)
    path = tmp_path / "oracle.npz"
    oracle.save(oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=7), path)
    with pytest.raises(ValueError, match="weights need their points"):
        oracle.load(path, weights=w)


def test_exact_answers_of_built_and_loaded_states_are_core_costs_bits(tmp_path):
    X, w = _mixture(29, n=2000, d=3, k=3)
    st = oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=7)
    path = tmp_path / "oracle.npz"
    oracle.save(st, path)
    back = oracle.load(path, points=X, weights=w)
    for state in (st, back):
        Q = state.sample.member_points  # estimated at 0, so answered exactly
        est, exact = oracle.feedback_query(state, Q)
        assert exact and est.hex() == cost(SP2, X, w, Q).hex()


def test_load_rejects_wrong_dataset(tmp_path):
    X, w = _mixture(31, n=800, d=3, k=3)
    st = oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=8)
    path = tmp_path / "oracle.npz"
    oracle.save(st, path)
    X2 = X + 1.0
    with pytest.raises(DataFormatError):
        oracle.load(path, points=X2, weights=w)


def test_load_rejects_a_space_other_than_the_files(tmp_path):
    # a p=2 oracle answered queries in p=1 distances under a p=1 space
    X, w = _mixture(31, n=800, d=3, k=3)
    path = tmp_path / "oracle.npz"
    oracle.save(oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=8), path)
    assert oracle.load(path, space=MetricSpace.euclidean(2.0), points=X, weights=w).space == SP2
    m = pairwise(MetricSpace.euclidean(1.0), X[:60], X[:60])
    for space in (MetricSpace.euclidean(1.0), MetricSpace.from_matrix(m)):
        with pytest.raises(DataFormatError, match="oracle's space"):
            oracle.load(path, space=space, points=X, weights=w)
    # a matrix file has no power: only its kind is checked
    path = tmp_path / "matrix.npz"
    oracle.save(oracle.build_feedback(MetricSpace.from_matrix(m), np.arange(60), None, k=2,
                                      eps=0.3, seed=8), path)
    assert oracle.load(path, space=MetricSpace.from_matrix(m, rho=2.0)).space.rho == 2.0
    with pytest.raises(DataFormatError, match="oracle's space"):
        oracle.load(path, space=SP2)


def test_load_rejects_bad_version(tmp_path):
    X, w = _mixture(37, n=500, d=2, k=2)
    st = oracle.build_feedback(SP2, X, w, k=2, eps=0.3, seed=9)
    path = tmp_path / "oracle.npz"
    oracle.save(st, path)
    blob = dict(np.load(path, allow_pickle=False))
    blob["version"] = np.int64(99)
    np.savez(path, **blob)
    with pytest.raises(DataFormatError):
        oracle.load(path)


def test_load_rejects_format_1_files(tmp_path, capsys):
    # format 1 also stored per-cell medians, format 2 the sweet-spot record;
    # nothing read either back, and neither is loaded
    X, w = _mixture(37, n=500, d=2, k=2)
    path = tmp_path / "oracle.npz"
    oracle.save(oracle.build_feedback(SP2, X, w, k=2, eps=0.3, seed=9), path)
    query = tmp_path / "q.csv"
    query.write_text("0.0,0.0\n")
    saved = dict(np.load(path, allow_pickle=False))
    for version in (1, 2):
        np.savez(path, **dict(saved, version=np.int64(version)))
        with pytest.raises(DataFormatError, match=f"format {version}, expected 4"):
            oracle.load(path)
        capsys.readouterr()
        assert main(["oracle-query", "--oracle", str(path), "--query", str(query)]) == 2
        assert f"format {version}" in capsys.readouterr().err


def test_load_refuses_format_3_files(tmp_path, capsys):
    # format 3 held the n-length p = min(1, scale pi) in place of pi and scale
    X, w = _mixture(37, n=500, d=2, k=2)
    path = tmp_path / "oracle.npz"
    st = oracle.build_feedback(SP2, X, w, k=2, eps=0.3, seed=9)
    oracle.save(st, path)
    blob = dict(np.load(path, allow_pickle=False))
    del blob["pi"], blob["scale"]
    np.savez(path, **dict(blob, version=np.int64(3), p=st.sample.p))
    with pytest.raises(DataFormatError, match="format 3, expected 4; build the oracle again"):
        oracle.load(path, points=X, weights=w)
    query = tmp_path / "q.csv"
    query.write_text("0.0,0.0\n")
    capsys.readouterr()
    assert main(["oracle-query", "--oracle", str(path), "--query", str(query)]) == 2
    assert "build the oracle again" in capsys.readouterr().err


# malformed files --------------------------------------------------------

_KEYS = (
    "version", "kind", "power", "n", "eps", "C", "sample_seed", "prefix_index",
    "update_count", "scale", "pi", "members", "member_points", "member_weights",
)


@pytest.fixture(scope="module")
def saved_blob(tmp_path_factory):
    X, w = _mixture(43, n=600, d=3, k=3)
    path = tmp_path_factory.mktemp("oracle") / "o.npz"
    oracle.save(oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=11), path)
    return X, w, dict(np.load(path, allow_pickle=False))


def _load_changed(tmp_path, saved_blob, with_points, **changes):
    """Load the saved oracle with keys replaced (or dropped, for None)."""
    X, w, blob = saved_blob
    blob = dict(blob)
    for key, value in changes.items():
        if value is None:
            del blob[key]
        else:
            blob[key] = value(blob[key])
    path = tmp_path / "changed.npz"
    np.savez(path, **blob)
    return oracle.load(path, **({"points": X, "weights": w} if with_points else {}))


def test_saved_file_holds_exactly_the_format_keys(saved_blob):
    assert sorted(saved_blob[2]) == sorted(_KEYS)


@pytest.mark.parametrize("with_points", [False, True], ids=["standalone", "points"])
@pytest.mark.parametrize("key", _KEYS)
def test_load_rejects_missing_key(tmp_path, saved_blob, key, with_points):
    with pytest.raises(DataFormatError):
        _load_changed(tmp_path, saved_blob, with_points, **{key: None})


# the p-* cases damage pi, the probabilities at scale 1
_MISMATCHES = {
    "p-short": {"pi": lambda a: a[:-5]},
    "members-negative": {"members": lambda a: np.r_[-1, a[1:]]},
    "members-past-n": {"members": lambda a: np.r_[a[:-1], 600]},
    "members-float": {"members": lambda a: a.astype(np.float64)},
    "member-weights-short": {"member_weights": lambda a: a[1:]},
    "member-points-d": {"member_points": lambda a: a[:, :2]},
    "member-points-flat": {"member_points": lambda a: a[:, 0]},
    "n-not-scalar": {"n": lambda a: np.array([a, a])},
    "p-text": {"pi": lambda a: a.astype(str)},
    # values a query divides by or measures from: each answered nan, inf or
    # a wrong value, or raised a bare ValueError, before load checked them
    "p-nan": {"pi": lambda a: np.full_like(a, np.nan)},
    "p-zero-at-members": {"pi": np.zeros_like},
    "p-negative": {"pi": lambda a: np.r_[-0.5, a[1:]]},
    "p-above-one": {"pi": lambda a: np.r_[1.5, a[1:]]},
    "member-weights-nan": {"member_weights": lambda a: np.r_[np.nan, a[1:]]},
    "member-weights-inf": {"member_weights": lambda a: np.r_[np.inf, a[1:]]},
    "member-weights-zero": {"member_weights": lambda a: np.r_[0.0, a[1:]]},
    "member-weights-negative": {"member_weights": lambda a: -a},
    "member-points-nan": {"member_points": lambda a: np.r_[[np.full(3, np.nan)], a[1:]]},
    "member-points-inf": {"member_points": lambda a: np.r_[[np.full(3, np.inf)], a[1:]]},
    # a self-consistent sample that p and sample_seed do not select
    "members-one-index": {"members": lambda a: np.full_like(a, a[0]),
                          "member_points": lambda a: np.repeat(a[:1], len(a), axis=0),
                          "member_weights": lambda a: np.full_like(a, a[0])},
}


_MODES = {"standalone": False, "points": True}
# member_points are the file's only record of d, so narrower ones make a
# consistent standalone oracle over fewer dimensions; only the dataset tells
_CASES = [(case, mode) for case in sorted(_MISMATCHES) for mode in _MODES
          if (case, mode) != ("member-points-d", "standalone")]


@pytest.mark.parametrize("case,mode", _CASES, ids=[f"{c}-{m}" for c, m in _CASES])
def test_load_rejects_mismatched_arrays(tmp_path, saved_blob, case, mode):
    with pytest.raises(DataFormatError):
        _load_changed(tmp_path, saved_blob, _MODES[mode], **_MISMATCHES[case])


# scalars the load took as they stood: a NaN C answered every feedback query
# exactly and grew the sample to all points, a negative sample_seed raised
# OverflowError in point_uniforms, an unknown kind read as a matrix space, and
# an eps that no build takes loaded and answered feedback queries; a power
# MetricSpace refuses raised a bare ValueError that named no file
_BAD_SCALARS = [("C", np.nan), ("C", -1.0), ("C", np.inf), ("sample_seed", -1),
                ("sample_seed", 3.0), ("kind", "manhattan"), ("eps", np.nan), ("eps", 0.0),
                ("eps", -0.3), ("eps", np.inf), ("power", 0.0), ("power", -1.0),
                ("power", np.nan), ("power", 600.0), ("power", np.inf), ("scale", 0.0),
                ("scale", -1.0), ("scale", np.nan)]


@pytest.mark.parametrize("with_points", [False, True], ids=["standalone", "points"])
@pytest.mark.parametrize("key, value", _BAD_SCALARS)
def test_load_rejects_damaged_scalars(tmp_path, saved_blob, key, value, with_points):
    with pytest.raises(DataFormatError, match=f"oracle {key} "):
        _load_changed(tmp_path, saved_blob, with_points, **{key: lambda a: np.array(value)})


def test_load_takes_a_zero_threshold(tmp_path, saved_blob):
    # a build whose residual cost is 0 saves C = 0
    assert _load_changed(tmp_path, saved_blob, True, C=np.zeros_like).C == 0.0


@pytest.mark.parametrize("key, value", _BAD_SCALARS)
def test_oracle_query_exits_2_on_damaged_scalars(tmp_path, saved_blob, capsys, key, value):
    blob = dict(saved_blob[2], **{key: np.array(value)})
    path = tmp_path / "oracle.npz"
    np.savez(path, **blob)
    query = tmp_path / "q.csv"
    query.write_text("0.0,0.0,0.0\n")
    capsys.readouterr()
    assert main(["oracle-query", "--oracle", str(path), "--query", str(query)]) == 2
    err = capsys.readouterr().err
    assert f"oracle {key} " in err and "Traceback" not in err


def test_oracle_query_exits_2_on_members_the_seed_does_not_select(tmp_path, capsys):
    # every member set to one index, with matching member_points and
    # member_weights: a standalone load used to answer from that sample
    X, w = _mixture(29, n=20000, d=3, k=3)
    path = tmp_path / "oracle.npz"
    oracle.save(oracle.build_feedback(SP2, X, w, k=3, eps=0.7, seed=7), path)
    blob = dict(np.load(path, allow_pickle=False))
    members = blob["members"]
    assert 0 < members.size < X.shape[0]
    np.savez(path, **dict(blob, members=np.full_like(members, members[0]),
                          member_points=np.repeat(X[members[:1]], members.size, axis=0),
                          member_weights=np.full(members.size, w[members[0]])))
    query = tmp_path / "q.csv"
    query.write_text("0.0,0.0,0.0\n")
    with pytest.raises(DataFormatError, match="sample_seed select"):
        oracle.load(path)
    capsys.readouterr()
    assert main(["oracle-query", "--oracle", str(path), "--query", str(query)]) == 2
    assert "sample_seed select" in capsys.readouterr().err


_HEADER_EDITS = {  # numpy raises SyntaxError and tokenize.TokenError on these
    "dtype-digit": lambda npy: npy.replace(b"'<f8'", b"'<08'"),
    "header-length": lambda npy: npy[:8] + b"\x08" + npy[9:],
}


@pytest.mark.parametrize("edit", sorted(_HEADER_EDITS))
def test_load_rejects_unparseable_array_headers(tmp_path, saved_blob, edit):
    # an array header numpy cannot parse, in a member whose CRC-32 is right
    path = tmp_path / "crafted.npz"
    with zipfile.ZipFile(path, "w") as zf:
        for key, value in saved_blob[2].items():
            buf = io.BytesIO()
            np.save(buf, value)
            npy = buf.getvalue()
            zf.writestr(f"{key}.npy", _HEADER_EDITS[edit](npy) if key == "member_points" else npy)
    with pytest.raises(DataFormatError):
        oracle.load(path)


def test_feedback_query_after_reload_continues(tmp_path):
    # a state saved and reloaded before every query answers, updates and
    # grows exactly as one that stays in memory, across several updates
    X, w = _mixture(41, n=6000, d=3, k=3)
    st = oracle.build_feedback(SP2, X, w, k=3, eps=0.8, seed=10)
    back = oracle.build_feedback(SP2, X, w, k=3, eps=0.8, seed=10)
    path = tmp_path / "oracle.npz"
    rng = np.random.default_rng(0)
    for m in (2, 20, 3, 100, 2, 400, 5, 1500):
        Q = X[rng.choice(len(X), m, replace=False)]
        oracle.save(back, path)
        back = oracle.load(path, points=X, weights=w)
        assert (back.update_count, back.C) == (st.update_count, st.C)
        assert oracle.feedback_query(back, Q) == oracle.feedback_query(st, Q)
        np.testing.assert_array_equal(back.sample.p, st.sample.p)
        np.testing.assert_array_equal(back.sample.members, st.sample.members)
    assert st.update_count >= 2


@hst.composite
def weighted_mixtures(draw):
    """Small weighted mixtures, some with duplicated or near-identical points."""
    n, d, k = draw(hst.integers(4, 1500)), draw(hst.integers(1, 4)), draw(hst.integers(1, 4))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    centers = rng.normal(size=(k, d)) * draw(hst.sampled_from([0.0, 1.0, 30.0]))
    X = centers[rng.integers(k, size=n)] + rng.normal(size=(n, d)) * draw(
        hst.sampled_from([0.0, 1e-9, 1.0]))
    return np.round(X, draw(hst.sampled_from([1, 15]))), rng.uniform(0.1, 10.0, size=n)


@given(weighted_mixtures(), hst.integers(1, 3), hst.sampled_from([0.5, 0.9]), hst.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_save_load_save_roundtrip(tmp_path_factory, mixture, k, eps, seed):
    # in both load modes a reloaded oracle saves the same file and answers
    # bit for bit; with its dataset it also updates as if never saved
    X, w = mixture
    built = oracle.build_feedback(SP2, X, w, k=min(k, len(X)), eps=eps, seed=seed)
    path = tmp_path_factory.mktemp("roundtrip") / "o.npz"
    oracle.save(built, path)
    queries = [X[:1], X[::2], X + 1e-3, X[-2:] * 0.5]
    for with_points in (False, True):
        back = oracle.load(path, **({"points": X, "weights": w} if with_points else {}))
        again = path.with_name("again.npz")
        oracle.save(back, again)
        assert _arrays(again) == _arrays(path)
        assert [oracle.query(back, Q) for Q in queries] == [oracle.query(built, Q) for Q in queries]
    for Q in queries:  # back is the state loaded with points; built never reloads
        assert oracle.feedback_query(back, Q) == oracle.feedback_query(built, Q)
        oracle.save(back, again)
        oracle.save(built, path)
        assert _arrays(again) == _arrays(path)


def _same_state(a, b) -> bool:
    return (
        np.array_equal(a.sample.p, b.sample.p)
        and np.array_equal(a.sample.members, b.sample.members)
        and np.array_equal(a.sample.member_points, b.sample.member_points)
        and np.array_equal(a.sample.w_prime, b.sample.w_prime)
        and (a.C, a.eps, a.update_count, a.prefix_index, a.sample_seed)
        == (b.C, b.eps, b.update_count, b.prefix_index, b.sample_seed)
    )


def test_damaged_files_raise_or_load_unchanged(tmp_path):
    # every 59th truncation and 400 seeded single-byte corruptions
    X, w = _mixture(47, n=2000, d=3, k=3)
    path = tmp_path / "o.npz"
    oracle.save(oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=12), path)
    blob = path.read_bytes()
    refs = {False: oracle.load(path), True: oracle.load(path, points=X, weights=w)}
    damaged = [blob[:cut] for cut in range(0, len(blob), 59)]
    # header edits numpy parses: a narrower member_points (the file's only
    # record of d) and pi read as float32 stop short of the member's CRC-32;
    # zipfile raises EOFError on a last member whose extra field runs past the
    # end, and RuntimeError on a member flagged as encrypted
    i = blob.index(b"pi.npy")
    j = blob.index(b"member_weights.npy") - 1  # high byte of the extra-field length
    k = blob.index(b"PK\x01\x02") + 8  # first central-directory entry's flags
    damaged += [blob.replace(b", 3), }", b", 2), }"), blob[:i] + blob[i:].replace(b"<f8", b"<f4", 1),
                blob[:j] + bytes([blob[j] ^ 0xFF]) + blob[j + 1:],
                blob[:k] + bytes([blob[k] ^ 1]) + blob[k + 1:]]
    rng = np.random.default_rng(0)
    for pos, flip in zip(rng.integers(len(blob), size=400), rng.integers(1, 256, size=400)):
        b = bytearray(blob)
        b[pos] ^= flip
        damaged.append(bytes(b))
    bad = tmp_path / "bad.npz"
    for data in damaged:
        bad.write_bytes(data)
        for with_points in (False, True):
            try:
                st = oracle.load(bad, **({"points": X, "weights": w} if with_points else {}))
            except DataFormatError:
                continue
            assert _same_state(st, refs[with_points])


# non-finite input -------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_builds_reject_non_finite_points_and_weights(bad, monkeypatch):
    X, w = _mixture(10, n=300)
    Xb = X.copy()
    Xb[3, 1] = bad
    wb = w.copy()
    wb[8] = bad
    for args in ((Xb, w), (X, wb)):
        with pytest.raises(ValueError, match="NaN or inf"):
            oracle.build(SP2, *args, ell=6, C=1.0, eps=0.5, seed=0)
        with pytest.raises(ValueError, match="NaN or inf"):
            oracle.build_feedback(SP2, *args, k=3, eps=0.5, seed=0)
    # a bad row outside S0 is left to the exact pass over every row
    monkeypatch.setattr(kmeanspp, "_SUBSAMPLE", 100)
    sub_seed = np.random.SeedSequence(0).generate_state(3)[2]
    s0 = np.random.default_rng(sub_seed).choice(300, 100, replace=False)
    Xo = X.copy()
    Xo[np.setdiff1d(np.arange(300), s0)[0], 1] = bad
    with pytest.raises(ValueError, match="points contain NaN or inf"):
        oracle.build(SP2, Xo, w, ell=6, C=1.0, eps=0.5, seed=0)
    with pytest.raises(ValueError, match="points contain NaN or inf"):
        oracle.build_feedback(SP2, Xo, w, k=3, eps=0.5, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_queries_reject_non_finite_centroids(bad):
    X, w = _mixture(11, n=500)
    st = oracle.build_feedback(SP2, X, w, k=3, eps=0.5, seed=0)
    Q = X[:3].copy()
    Q[1, 0] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        oracle.feedback_query(st, Q)
    with pytest.raises(ValueError, match="NaN or inf"):
        oracle.query(st, Q)
    assert st.update_count == 0
