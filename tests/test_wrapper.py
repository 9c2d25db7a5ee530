"""Adaptive clustering wrapper: certification loop, growth, edge paths."""

from dataclasses import fields

import numpy as np
import pytest

from one2all import core, kmeanspp, oracle, sampling
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
    assert rep.best_cost <= rep.seed_cost
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
        assert last["V_Q"] <= (1 + rep.eps) * last["estimate"]
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
    assert first_grow["V_Q"] > (1 + rep.eps) * first_grow["estimate"]
    # the final clustering serves both blobs
    assert rep.best_cost <= 0.01 * first_grow["V_Q"]


def test_round_budget_reports_uncertified(monkeypatch):
    X = _two_blobs()
    n = len(X)
    u = point_uniforms(99, n)
    u[n // 2 :] = 1.0
    _plant(monkeypatch, u)
    _, rep = run(SP2, X, None, k=2, eps=0.5, seed=2, max_rounds=1)
    assert not rep.certified
    assert rep.rounds == 1
    assert rep.log[-1]["action"] == "grow"


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
    _, rep = run(SP2, X, None, k=2, eps=0.5, seed=4, max_rounds=1,
                 base=lambda space, pts, wts, k, seed: Q)
    (entry,) = rep.log
    assert entry["action"] == "grow"
    inaccurate = entry["V_Q"] > (1 + rep.eps) * entry["estimate"]
    below = entry["V_Q"] < rep.cost_m / entry["r"]
    assert (inaccurate, below) == {"accuracy": (True, False), "range": (False, True),
                                   "both": (True, True)}[reason]
    assert entry["reason"] == reason


def test_only_rejected_rounds_carry_a_reason():
    X, w = _mixture(5)
    _, rep = run(SP2, X, w, k=4, eps=0.15, seed=6)
    assert rep.log[0]["action"] == "grow" and rep.certified
    for entry in rep.log:
        assert ("reason" in entry) == (entry["action"] == "grow")


# degenerate and saturated paths -----------------------------------------


@pytest.mark.parametrize("weighted, copies", [
    pytest.param(False, 1, id="plain"),
    pytest.param(True, 1, id="weighted"),
    pytest.param(True, 3, id="weighted-copies3"),
])
def test_few_distinct_points_saturates_exactly(weighted, copies):
    # no residual cost: the first round samples every point, with the
    # confirmation copies too, and its estimate is the exact cost
    X = np.repeat(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 7.0]]), 100, axis=0)
    w = np.random.default_rng(1).uniform(0.5, 2.0, size=len(X)) if weighted else None
    Q, rep = run(SP2, X, w, k=3, eps=0.3, seed=0, copies=copies)
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
    with pytest.raises(ValueError):
        run(SP2, X, w, k=2, eps=0.3, max_rounds=0)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_names_k(k):
    X, w = _mixture(13, n=200, d=2, k=2)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        run(SP2, X, w, k=k, eps=0.3)
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        oracle.build_feedback(SP2, X, w, k=k, eps=0.3, seed=0)


@pytest.fixture(scope="module")
def seed_701_mixture():
    return gen_gmm(2 * 10**5, 10, 5, seed=701)


@pytest.mark.xfail(strict=True, reason="one seeding per round can merge two clusters "
                   "and still certify; refining more than one seeding fixes it")
@pytest.mark.parametrize("seed", [17, 36])
def test_certified_cost_near_ground_truth_at_merged_cluster_seeds(seed_701_mixture, seed):
    # measured at 1.835x (seed 17) and 1.762x (seed 36) the ground-truth cost;
    # `one2all cluster --seed 17` / `--seed 36` on this data prints the same Q
    ds = seed_701_mixture
    Q, rep = run(SP2, ds.points.points, None, k=5, eps=0.2, seed=seed)
    assert rep.certified
    assert cost(SP2, ds.points.points, None, Q) <= 1.3 * ds.ground_truth_cost


# multi-sample confirmation ----------------------------------------------


def test_confirm_requires_at_least_one_copy():
    X, w = _mixture(13, n=200, d=2, k=2)
    for copies in (0, -2):
        with pytest.raises(ValueError, match="copies"):
            run(SP2, X, w, k=2, eps=0.3, copies=copies)


def test_confirm_copies_that_come_up_empty_are_skipped(monkeypatch):
    # every draw but the run's own sample gets u = 1, so at p < 1 the
    # confirmation copies are empty and the run is the one-copy run
    X, w = _mixture(23, n=10000, d=2, k=2)
    Q1, rep1 = run(SP2, X, w, k=2, eps=0.5, seed=2)
    sample_seed = int(np.random.SeedSequence(2).generate_state(4)[1])
    u = point_uniforms(sample_seed, len(X))
    monkeypatch.setattr(sampling, "point_uniforms",
                        lambda seed, n: u if seed == sample_seed else np.ones(n))
    Q3, rep3 = run(SP2, X, w, k=2, eps=0.5, seed=2, copies=3)
    assert np.all(rep3.final_p < 1.0)
    np.testing.assert_array_equal(Q3.points, Q1.points)
    assert rep3.log == rep1.log


def test_run_with_copies_certifies():
    X, w = _mixture(29, n=2000, d=3, k=3)
    Q, rep = run(SP2, X, w, k=3, eps=0.25, seed=8, copies=2)
    assert rep.certified
    assert rep.best_cost == pytest.approx(cost(SP2, X, w, Q.points), rel=1e-12)


# estimates seen by the loop match the sampling module --------------------


def test_logged_estimate_matches_recomputation():
    X, w = _mixture(31, n=1500, d=3, k=3)
    Q, rep = run(SP2, X, w, k=3, eps=0.2, seed=9)
    last = rep.log[-1]
    if last["action"] == "accept":
        sample = draw(X, w, rep.final_p, rep.sample_seed)
        est = estimate_cost(SP2, sample, Q.points)
        assert est == pytest.approx(last["estimate"], rel=1e-9)


# non-finite input -------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_points_and_weights(bad):
    X, w = _mixture(9, n=300)
    Xb = X.copy()
    Xb[17, 2] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        run(SP2, Xb, w, k=3, eps=0.3, seed=0)
    wb = w.copy()
    wb[5] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        run(SP2, X, wb, k=3, eps=0.3, seed=0)


# chunk sizes --------------------------------------------------------------


def _pipeline_outputs(X, w):
    """Everything a clustering run and a feedback oracle build report, as bytes."""
    Q, rep = run(SP2, X, w, k=3, eps=0.3, seed=5)
    out = [Q.points.tobytes(), repr(rep.log)]
    out += [np.asarray(getattr(rep, f.name)).tobytes() for f in fields(rep) if f.name != "log"]
    st = oracle.build_feedback(SP2, X, w, k=3, eps=0.3, seed=6)
    out += [a.tobytes() for a in (st.sample.p, st.sample.members)]
    trace_seed = int(np.random.SeedSequence(6).generate_state(2)[0])  # build's trace
    trace = kmeanspp.run_trace(SP2, X, w, 6, seed=trace_seed)
    _, probs = sweet_spot(trace, "exact", C=trace.prefix_costs[-1], eps=0.3)
    out += [a.tobytes() for a in (probs.pi, probs.M, trace.norms, trace.first_dist)]
    out += [repr((probs.cost_m, st.C, st.prefix_index))]
    return out


def test_outputs_independent_of_chunk_sizes(monkeypatch):
    X, w = _mixture(37, n=1200, d=3, k=3)
    want = _pipeline_outputs(X, w)
    for elems in (20, 97):
        monkeypatch.setattr(core, "_CHUNK_ELEMS", elems)
        monkeypatch.setattr(core, "_GATHER_ELEMS", elems // 2)
        assert _pipeline_outputs(X, w) == want, elems

