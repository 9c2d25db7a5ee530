"""Adaptive clustering wrapper: certification loop, growth, edge paths."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from one2all import core, kmeanspp, oracle, sampling, wrapper
from one2all.core import MetricSpace, cost
from one2all.data import gen_gmm
from one2all.probabilities import sweet_spot
from one2all.sampling import draw, estimate_cost, point_uniforms
from one2all.wrapper import run

SP2 = MetricSpace.euclidean(2.0)


def _mixture(seed, n=4000, d=4, k=4, spread=8.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k, d)) * spread
    X = centers[rng.integers(k, size=n)] + rng.normal(size=(n, d))
    w = rng.uniform(0.5, 2.0, size=n)
    return X, w


def _two_blobs(n_each=2000, gap=1000.0, seed=0):
    rng = np.random.default_rng(seed)
    near = rng.normal(size=(n_each, 2))
    far = rng.normal(size=(n_each, 2))
    far[:, 0] += gap
    return np.vstack([near, far])


def _plant(monkeypatch, u):
    """Make every coordinated draw use the uniforms u."""
    monkeypatch.setattr(sampling, "point_uniforms", lambda seed, n: u)


# end to end -------------------------------------------------------------


def test_certifies_mixture_and_beats_seeding():
    X, w = _mixture(0)
    Q, rep = run(SP2, X, w, k=4, eps=0.2, seed=1)
    assert rep.certified
    assert rep.best_cost == pytest.approx(cost(SP2, X, w, Q.points), rel=1e-12)
    assert rep.rounds <= 40
    assert 0 < rep.sample_fraction <= 1
    assert rep.log[-1]["action"] in ("accept", "saturated")
    for entry in rep.log:
        assert {"round", "r", "size", "V_Q", "estimate", "action"} <= set(entry)


def test_accept_round_satisfies_break_condition():
    X, w = _mixture(3)
    Q, rep = run(SP2, X, w, k=4, eps=0.2, seed=4)
    last = rep.log[-1]
    if last["action"] == "accept":
        assert last["V_Q"] <= 1.2 * last["estimate"]
        assert last["V_Q"] >= rep.cost_m / last["r"]


def test_r_is_nondecreasing_across_rounds():
    X, w = _mixture(5)
    _, rep = run(SP2, X, w, k=4, eps=0.15, seed=6)
    rs = [e["r"] for e in rep.log]
    assert all(a <= b for a, b in zip(rs, rs[1:]))
    assert rep.r >= rs[0]


def test_deterministic_given_seed():
    X, w = _mixture(7, n=1500)
    q1, r1 = run(SP2, X, w, k=3, eps=0.25, seed=11)
    q2, r2 = run(SP2, X, w, k=3, eps=0.25, seed=11)
    np.testing.assert_array_equal(q1.points, q2.points)
    assert r1.best_cost == r2.best_cost
    assert r1.log == r2.log


# fooling instance: planted uniforms hide half the mass ------------------


def test_hidden_cluster_forces_growth_then_certifies(monkeypatch):
    X = _two_blobs()
    n = len(X)
    u = point_uniforms(99, n)
    u[n // 2 :] = 1.0  # far blob joins the sample only at p = 1
    _plant(monkeypatch, u)
    Q, rep = run(SP2, X, None, k=2, eps=0.5, seed=2)
    actions = [e["action"] for e in rep.log]
    assert "grow" in actions
    assert rep.certified
    first_grow = next(e for e in rep.log if e["action"] == "grow")
    assert first_grow["V_Q"] > 1.5 * first_grow["estimate"]
    # the final clustering serves both blobs
    assert rep.best_cost <= 0.01 * first_grow["V_Q"]


def test_round_budget_reports_uncertified(monkeypatch):
    X = _two_blobs()
    n = len(X)
    u = point_uniforms(99, n)
    u[n // 2 :] = 1.0
    _plant(monkeypatch, u)
    monkeypatch.setattr(wrapper, "_MAX_ROUNDS", 1)
    _, rep = run(SP2, X, None, k=2, eps=0.5, seed=2)
    assert not rep.certified
    assert rep.rounds == 1
    assert rep.log[-1]["action"] == "grow"


# seeding on a subsample ---------------------------------------------------


def test_light_far_cluster_certifies(capsys):
    # 0.5% of the mass sits 100 spreads away from four heavy clusters; with
    # n above _SUBSAMPLE, S0 holds about 50 of its 500 points. Over call
    # seeds 0-9 the final sample was 6.1-9.6% of n, and 6.1-12.2% when M
    # was picked from a kmeans++ trace over all n rows
    rng = np.random.default_rng(8)
    n, light, d = 100_000, 500, 5
    centers = rng.normal(size=(4, d)) * 8.0
    X = centers[rng.integers(4, size=n)] + rng.normal(size=(n, d))
    X[:light] = 800.0 + rng.normal(size=(light, d))
    truth = np.vstack([centers, np.full(d, 800.0)])
    Q, rep = run(SP2, X, None, k=5, eps=0.2, seed=3)
    assert n > kmeanspp._SUBSAMPLE
    assert rep.certified
    assert cost(SP2, X, None, Q) <= 1.3 * cost(SP2, X, None, truth)
    assert not rep.saturated and rep.sample_fraction < 0.15
    with capsys.disabled():
        print(f"\nlight far cluster: final sample {rep.sample_size} of {n} "
              f"({100 * rep.sample_fraction:.2f}%), {rep.rounds} rounds, "
              f"prefix {rep.sweet_spot_index}")


def test_one_exact_full_data_pass_before_round_one(monkeypatch):
    X, w = _mixture(11, n=kmeanspp._SUBSAMPLE + 3000, d=3, k=4)
    calls = []

    def spy(name, fn):
        def inner(space, P, *args, **kwargs):
            calls.append((name, np.shape(P)[0], args))
            return fn(space, P, *args, **kwargs)
        return inner

    # nearest under both its names: the wrapper's pass for M, and cost's per round
    for module, name in ((kmeanspp, "run_trace"), (wrapper, "nearest"), (core, "nearest"),
                         (wrapper, "_lower"), (wrapper, "base_cluster")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    monkeypatch.setattr(wrapper, "_pick", lambda costs: costs.size)  # M: all 2k centroids
    _, rep = run(SP2, X, w, k=4, eps=0.3, seed=2)
    names = [c[0] for c in calls]
    assert names.count("run_trace") == 1
    # one full-row pass for M, then one per certified Q
    full = [c for c in calls if c[:2] == ("nearest", len(X))]
    assert len(full) == 1 + names.count("base_cluster")
    trace, first_k, rest = calls[:names.index("base_cluster")]
    assert trace[1] == kmeanspp._SUBSAMPLE and trace[2][1] == 8  # S0's rows, ell = 2k
    # the exact pass for M's first k centroids, then the other 4 lower every row
    assert first_k[:2] == ("nearest", len(X)) and len(first_k[2][0]) == 4
    assert rest[:2] == ("_lower", len(X)) and (len(rest[2][0]), rest[2][1]) == (4, 4)
    assert rep.sweet_spot_index == 8
    # the first candidate is M's first k centroids, at their exact cost
    assert rep.best_cost <= cost(SP2, X, w, first_k[2][0])


def test_certification_takes_the_callers_weights(monkeypatch):
    # unit weights pass None, so cost(Q) neither checks nor multiplies by n ones,
    # and that changes no bit: w * d = d when w = 1
    X, w = _mixture(12, n=3000)
    seen = []

    def spy(space, P, weights, Q, **kwargs):
        seen.append(weights)
        return cost(space, P, weights, Q, **kwargs)

    monkeypatch.setattr(wrapper, "cost", spy)
    Q, rep = run(SP2, X, None, k=4, eps=0.3, seed=4)
    assert seen and all(weights is None for weights in seen)
    seen.clear()
    Q1, rep1 = run(SP2, X, np.ones(len(X)), k=4, eps=0.3, seed=4)
    assert seen and all(weights is not None for weights in seen)
    assert np.array_equal(Q.points, Q1.points) and rep.best_cost == rep1.best_cost
    assert repr(rep.log) == repr(rep1.log) and rep.cost_m == rep1.cost_m
    seen.clear()
    run(SP2, X, w, k=4, eps=0.3, seed=4)
    assert all(weights is w for weights in seen)


def test_subsample_is_a_pure_function_of_the_call_seed(monkeypatch):
    # the first column numbers the rows, so the points S0 holds name its rows
    seen = []
    run_trace = kmeanspp.run_trace

    def spy(space, X, w, ell, seed):
        seen.append((X[:, 0].astype(np.intp), w))
        return run_trace(space, X, w, ell, seed)

    monkeypatch.setattr(kmeanspp, "run_trace", spy)
    rng = np.random.default_rng(5)
    n = kmeanspp._SUBSAMPLE + 2000
    for scale, seed in ((1.0, 1), (50.0, 1), (1.0, 2)):
        X = np.column_stack([np.arange(n), scale * rng.normal(size=(n, 2))])
        run(SP2, X, None, k=2, eps=0.5, seed=seed)
    (rows, w), (same_rows, _), (other_rows, _) = seen
    assert rows.size == kmeanspp._SUBSAMPLE and np.all(np.diff(rows) > 0)
    assert np.all(w == n / kmeanspp._SUBSAMPLE)
    np.testing.assert_array_equal(rows, same_rows)  # other data, same seed
    assert not np.array_equal(rows, other_rows)
    seen.clear()
    run(SP2, np.column_stack([np.arange(500.0), np.zeros(500)]), None, k=2, eps=0.5, seed=1)
    np.testing.assert_array_equal(seen[0][0], np.arange(500))  # n <= _SUBSAMPLE: every row


# failure reasons in the log -----------------------------------------------


_EVERY_OTHER = np.arange(0, 2000, 2)
_REASONS = {  # reason: (rows of X that form Q, rows sampled while p < 1)
    # Q serves the near blob only, and the far blob is not sampled
    "accuracy": ([0], np.arange(1000)),
    # Q holds every other point, so V_Q < v_m / r; every point is sampled
    # at p <= 1, so the estimate is at least V_Q
    "range": (_EVERY_OTHER, np.arange(2000)),
    # as for range, but only Q's own points are sampled: the estimate is 0
    "both": (_EVERY_OTHER, _EVERY_OTHER),
}


@pytest.mark.parametrize("reason", sorted(_REASONS))
def test_rejected_round_logs_its_reason(reason, monkeypatch):
    # the base clusterer always returns X[q_rows]; planted uniforms pick the sample
    q_rows, sampled = _REASONS[reason]
    X = _two_blobs(n_each=1000)
    u = np.ones(len(X))
    u[sampled] = 1e-12
    _plant(monkeypatch, u)
    Q = core.CentroidSet(X[q_rows])
    monkeypatch.setattr(wrapper, "_MAX_ROUNDS", 1)
    _, rep = run(SP2, X, None, k=2, eps=0.5, seed=4, base=lambda space, pts, wts, k, seed: Q)
    (entry,) = rep.log
    assert entry["action"] == "grow"
    inaccurate = entry["V_Q"] > 1.5 * entry["estimate"]
    below = entry["V_Q"] < rep.cost_m / entry["r"]
    assert (inaccurate, below) == {"accuracy": (True, False), "range": (False, True),
                                   "both": (True, True)}[reason]
    assert entry["reason"] == reason


# growth rules and the re-test ----------------------------------------------


# Q holds 8 spread points: below the floor v_m / r, but by a factor that
# range-only growth covers without saturating the sample
_SHALLOW_RANGE = (np.arange(0, 2000, 250), np.arange(2000))


def _counted_run(monkeypatch, case, max_rounds, planted=None):
    """Run a planted (q_rows, sampled) case as in _REASONS, recording what
    each base call and estimate got and counting full-data cost passes;
    planted maps the n-th estimate (from 1) to the value it returns instead."""
    q_rows, sampled = case
    X = _two_blobs(n_each=1000)
    u = np.ones(len(X))
    u[sampled] = 1e-12
    _plant(monkeypatch, u)
    Q = core.CentroidSet(X[q_rows])
    calls = {"base": [], "cost": 0, "estimate": []}

    def base(space, pts, wts, k, seed):
        calls["base"].append(pts)
        return Q

    def counted_cost(*args, **kwargs):
        calls["cost"] += 1
        return cost(*args, **kwargs)

    def counted_estimate(space, sample, Q):
        calls["estimate"].append(sample)
        return (planted or {}).get(len(calls["estimate"]), estimate_cost(space, sample, Q))

    monkeypatch.setattr(wrapper, "cost", counted_cost)
    monkeypatch.setattr(wrapper, "estimate_cost", counted_estimate)
    monkeypatch.setattr(wrapper, "_MAX_ROUNDS", max_rounds)
    _, rep = run(SP2, X, None, k=2, eps=0.5, seed=4, base=base)
    return rep, calls


def test_range_only_failure_grows_once_to_just_past_the_floor(monkeypatch):
    rep, calls = _counted_run(monkeypatch, _SHALLOW_RANGE, max_rounds=1)
    (entry,) = rep.log
    assert entry["reason"] == "range"
    assert rep.r == max(entry["r"] * 1.5, 1.5 * rep.cost_m / entry["V_Q"])
    assert len(calls["estimate"]) == 1  # the round's own: no grow loop


@pytest.mark.parametrize("case, reason", [
    (_REASONS["accuracy"], "accuracy"),
    (_REASONS["both"], "both"),
    # a base that returns every point: V_Q = 0 is below every floor, and no
    # r short of saturation lifts it over one
    ((np.arange(2000), np.arange(2000)), "range"),
], ids=["accuracy", "both", "zero-V_Q"])
def test_doubling_growth_until_the_bar(monkeypatch, case, reason):
    rep, calls = _counted_run(monkeypatch, case, max_rounds=1)
    (entry,) = rep.log
    assert entry["reason"] == reason
    doublings = len(calls["estimate"]) - 2  # the round's own, then one per grow step
    assert doublings >= 0
    assert rep.r == max(2.0, entry["V_Q"] / rep.cost_m) * entry["r"] * 2.0**doublings


def test_retest_accepts_the_rejected_q_with_no_base_call_or_full_pass(monkeypatch):
    rep, calls = _counted_run(monkeypatch, _SHALLOW_RANGE, max_rounds=2)
    first, second = rep.log
    assert first["reason"] == "range"
    assert second["action"] == "accept" and second["retest"] is True
    assert second["V_Q"] == first["V_Q"] and second["r"] == rep.r
    assert second["V_Q"] <= 1.5 * second["estimate"]
    assert second["V_Q"] >= rep.cost_m / second["r"]
    assert rep.certified and rep.rounds == 2
    assert (len(calls["base"]), calls["cost"], len(calls["estimate"])) == (1, 1, 2)


def test_failed_retest_clusters_the_same_sample(monkeypatch):
    # the re-test's estimate (the second) reads 0, so Q fails the accuracy test
    rep, calls = _counted_run(monkeypatch, _SHALLOW_RANGE, max_rounds=2, planted={2: 0.0})
    first, second = rep.log
    assert first["reason"] == "range"
    assert second["retest"] is False and second["action"] == "accept"
    assert second["r"] == rep.r  # no growth between the re-test and the base call
    retest_sample = calls["estimate"][1]
    assert calls["base"][1] is retest_sample.member_points
    assert calls["estimate"][2] is retest_sample
    assert (len(calls["base"]), calls["cost"], len(calls["estimate"])) == (2, 2, 3)


def test_only_rejected_rounds_carry_a_reason():
    X, w = _mixture(5)
    _, rep = run(SP2, X, w, k=4, eps=0.15, seed=6)
    assert rep.log[0]["action"] == "grow" and rep.certified
    for entry in rep.log:
        assert ("reason" in entry) == (entry["action"] == "grow")


# degenerate and saturated paths -----------------------------------------


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_few_distinct_points_saturates_exactly(weighted):
    # no residual cost: the first round samples every point, and its
    # estimate is the exact cost
    X = np.repeat(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 7.0]]), 100, axis=0)
    w = np.random.default_rng(1).uniform(0.5, 2.0, size=len(X)) if weighted else None
    Q, rep = run(SP2, X, w, k=3, eps=0.3, seed=0)
    assert rep.certified and rep.saturated
    assert rep.rounds == 1
    assert rep.r == np.inf
    assert rep.sample_size == len(X)
    assert np.all(rep.final_p == 1.0)
    assert rep.best_cost == 0.0
    assert len(Q.points) == 3
    (entry,) = rep.log
    assert entry["action"] == "saturated" and entry["r"] == np.inf
    assert entry["size"] == len(X)
    assert entry["estimate"] == entry["V_Q"]


def test_tiny_uniforms_sample_everything_first_round(monkeypatch):
    X, w = _mixture(9, n=800, d=3, k=3)
    _plant(monkeypatch, np.full(800, 1e-12))
    _, rep = run(SP2, X, w, k=3, eps=0.3, seed=3)
    assert rep.log[0]["size"] == 800
    assert rep.certified


def test_validation_inputs():
    X, w = _mixture(13, n=200, d=2, k=2)
    with pytest.raises(ValueError):
        run(SP2, X, w, k=201, eps=0.3)
    with pytest.raises(ValueError):
        run(SP2, X, w, k=2, eps=0.0)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_names_k(k):
    X, w = _mixture(13, n=200, d=2, k=2)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        run(SP2, X, w, k=k, eps=0.3)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        oracle.build_feedback(SP2, X, w, k=k, eps=0.3, seed=0)


@pytest.mark.parametrize("n, eps, seed", [
    # cli-cluster's data: `one2all cluster --seed <seed>` on it prints the same
    # Q. A base of the best of 5 kmeans++ seedings, with no swaps, merged two
    # clusters and certified 1.835x, 1.762x, 1.763x and 1.836x the
    # ground-truth cost at the first four; 5 swaps in place of 2k leave seed 9
    # at 1.834x
    (2 * 10**5, 0.2, 17), (2 * 10**5, 0.2, 36), (2 * 10**5, 0.2, 40), (2 * 10**5, 0.2, 58),
    (2 * 10**5, 0.2, 9),
    (5 * 10**5, 0.1, 995995829),  # cluster-lowd's key 30: 1.879x with no swaps
])
def test_certified_cost_near_ground_truth_at_merged_cluster_seeds(n, eps, seed):
    ds = gen_gmm(n, 10, 5, seed=701)
    Q, rep = run(SP2, ds.points.points, None, k=5, eps=eps, seed=seed)
    assert rep.certified
    assert cost(SP2, ds.points.points, None, Q) <= 1.3 * ds.ground_truth_cost


# estimates seen by the loop match the sampling module --------------------


def test_logged_estimate_matches_recomputation():
    X, w = _mixture(31, n=1500, d=3, k=3)
    Q, rep = run(SP2, X, w, k=3, eps=0.2, seed=9)
    last = rep.log[-1]
    if last["action"] == "accept":
        sample = draw(X, w, rep.final_p, rep.sample_seed)
        est = estimate_cost(SP2, sample, Q.points)
        assert est == pytest.approx(last["estimate"], rel=1e-9)


# the certificate holds when recomputed ----------------------------------


def _plain_cost(X, w, Q):
    """sum of w_x min_q |x - q|^2, from the differences, with no screen."""
    return float(w @ np.min([((X - q) ** 2).sum(axis=1) for q in Q], axis=0))


@hst.composite
def _adaptive_inputs(draw):
    """(X, w, k, eps, seed): at most n / 2 distinct points, so duplicates,
    weighted or not, spread out, squeezed near a line, or near one point."""
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    n = draw(hst.sampled_from([300, 3000, 10_000]))
    d = draw(hst.integers(1, 3))
    distinct = rng.normal(size=(n // draw(hst.sampled_from([2, 3, 10, 100])), d)) * 10.0
    shape = draw(hst.sampled_from(["spread", "line", "point"]))
    if shape == "line":
        distinct[:, 1:] *= 1e-9
    elif shape == "point":
        distinct = 1e3 + 1e-9 * distinct
    X = distinct[rng.integers(len(distinct), size=n)]
    w = rng.uniform(0.5, 2.0, size=n) if draw(hst.booleans()) else None
    k = draw(hst.integers(1, 4))
    # at eps = 2.0 the samples are small enough that some fail the accuracy test
    eps = draw(hst.sampled_from([0.2, 0.5, 2.0]))
    return X, w, k, eps, draw(hst.integers(0, 2**16))


@given(_adaptive_inputs())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_certified_report_passes_its_round_tests_again(case):
    X, w, k, eps, seed = case
    fits = []

    def base(*args):  # the last Q fit is the one the last round certified
        fits.append(wrapper.base_cluster(*args))
        return fits[-1]

    _, rep = run(SP2, X, w, k=k, eps=eps, seed=seed, base=base)
    if not rep.certified:
        return
    last = rep.log[-1]
    Q = fits[-1].points
    w = np.ones(len(X)) if w is None else w
    # V_Q and the estimate again, the latter from the sample the report names
    v_q = _plain_cost(X, w, Q)
    members = np.flatnonzero(point_uniforms(rep.sample_seed, len(X)) <= rep.final_p)
    est = _plain_cost(X[members], w[members] / rep.final_p[members], Q)
    assert v_q == pytest.approx(last["V_Q"], rel=1e-9, abs=1e-300)
    assert est == pytest.approx(last["estimate"], rel=1e-9, abs=1e-300)
    slack = 1.0 + 1e-9  # for the rounding of the two ways of summing
    assert v_q <= (1.0 + eps) * est * slack
    if last["action"] == "accept":
        assert v_q * slack >= rep.cost_m / last["r"]
    else:  # a saturated sample is the full data: its estimate is the cost
        assert last["action"] == "saturated" and len(members) == len(X)
        assert est == pytest.approx(v_q, rel=1e-9, abs=1e-300)


# non-finite input -------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_points_and_weights(bad, monkeypatch):
    X, w = _mixture(9, n=300)
    Xb = X.copy()
    Xb[17, 2] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        run(SP2, Xb, w, k=3, eps=0.3, seed=0)
    wb = w.copy()
    wb[5] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        run(SP2, X, wb, k=3, eps=0.3, seed=0)
    # a bad row outside S0 is left to the exact pass over every row
    monkeypatch.setattr(kmeanspp, "_SUBSAMPLE", 100)
    sub_seed = np.random.SeedSequence(0).generate_state(4)[3]
    s0 = np.random.default_rng(sub_seed).choice(300, 100, replace=False)
    Xo = X.copy()
    Xo[np.setdiff1d(np.arange(300), s0)[0], 2] = bad
    with pytest.raises(ValueError, match="points contain NaN or inf"):
        run(SP2, Xo, w, k=3, eps=0.3, seed=0)


# working set --------------------------------------------------------------


def test_a_call_peaks_below_seven_n_vectors():
    # pi, p, u, then one pass's distances, byte-sized owners and kernel
    # temporaries; kept row norms, 8-byte owners and arrays filled then
    # overwritten peaked at 8.3 n-vectors of float64
    X = gen_gmm(200_000, 10, 5, seed=3).points.points
    tracemalloc.start()
    try:
        run(SP2, X, None, k=5, eps=0.2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.2 * 8 * X.shape[0]


# chunk sizes --------------------------------------------------------------


def _pipeline_outputs(X, w):
    """Everything a clustering run and a feedback oracle build report, as bytes."""
    Q, rep = run(SP2, X, w, k=3, eps=0.3, seed=5)
    out = [Q.points.tobytes(), repr(rep.log)]
    out += [np.asarray(getattr(rep, f.name)).tobytes() for f in fields(rep) if f.name != "log"]
    st = oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=6)
    out += [a.tobytes() for a in (st.sample.p, st.sample.members)]
    trace_seed = int(np.random.SeedSequence(6).generate_state(2)[0])  # a full-data trace
    trace = kmeanspp.run_trace(SP2, X, w, 6, seed=trace_seed)
    _, probs = sweet_spot(trace, C=trace.prefix_costs[-1], eps=0.3)
    out += [a.tobytes() for a in (probs.pi, probs.M, *core.nearest(SP2, X, probs.M))]
    out += [repr((probs.cost_m, st.C, st.prefix_index))]
    return out


def test_outputs_independent_of_chunk_sizes(monkeypatch):
    # the second n is above _SUBSAMPLE, so the wrapper seeds on a subsample
    for n in (1200, kmeanspp._SUBSAMPLE + 500):
        X, w = _mixture(37, n=n, d=3, k=3)
        want = _pipeline_outputs(X, w)
        for elems in (20, 97):
            monkeypatch.setattr(core, "_CHUNK_ELEMS", elems)
            monkeypatch.setattr(core, "_GATHER_ELEMS", elems // 2)
            assert _pipeline_outputs(X, w) == want, (n, elems)
        monkeypatch.undo()

