"""pps mass, brute-force multi-objective oracle, coordination, estimator."""

from itertools import combinations
from math import exp, log

import numpy as np
import pytest
from conftest import rand_instance
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    concentration_check,
    mo_pps_bruteforce,
    overestimate_bound,
    pps_base,
    row_sum_nearest,
)

from one2all import core, sampling
from one2all.core import MetricSpace, cost, nearest
from one2all.kmeanspp import run_trace
from one2all.probabilities import one2all_probs
from one2all.sampling import draw, estimate_cost, point_uniforms

SP2 = MetricSpace.euclidean(2.0)


# pps base ---------------------------------------------------------------


def test_pps_base_examples():
    X = np.array([[0.0], [4.0], [10.0]])
    b = pps_base(SP2, X, None, np.array([[0.0], [10.0]]))
    np.testing.assert_allclose(b.psi, [0.0, 1.0, 0.0])
    X2 = np.array([[-1.0], [1.0]])
    b2 = pps_base(SP2, X2, None, np.array([[0.0]]))
    np.testing.assert_allclose(b2.psi, [0.5, 0.5])
    X3 = np.array([[0.0], [1.0], [3.0]])
    b3 = pps_base(SP2, X3, None, np.array([[0.0]]))
    np.testing.assert_allclose(b3.psi, [0.0, 0.1, 0.9])


def test_pps_base_normalizes_and_rejects_degenerate():
    sp, X, w = rand_instance(0, n=30, d=3)
    b = pps_base(sp, X, w, X[:4])
    assert b.psi.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(b.psi >= 0)
    with pytest.raises(ValueError, match="cost of Q is zero"):
        pps_base(sp, X, w, X)


# brute-force multi-objective mass ---------------------------------------


def test_mo_pps_hand_enumerated_three_points():
    X = np.array([[0.0], [4.0], [10.0]])
    psi, h = mo_pps_bruteforce(SP2, X, None, 1)
    want = np.array([100 / 136, 36 / 136, 100 / 116])
    np.testing.assert_allclose(psi, want, rtol=1e-12)
    assert h == pytest.approx(want.sum(), rel=1e-12)


def test_mo_pps_equals_manual_max_k2():
    sp, X, w = rand_instance(4, n=6, d=2)
    psi, _ = mo_pps_bruteforce(sp, X, w, 2)
    manual = np.zeros(6)
    for qs in combinations(range(6), 2):
        b = pps_base(sp, X, w, X[list(qs)])
        manual = np.maximum(manual, b.psi)
    np.testing.assert_allclose(psi, manual, rtol=1e-12)


def test_mo_pps_overhead_bound():
    for seed in range(10):
        p = 1.0 if seed % 2 else 2.0
        sp, X, w = rand_instance(seed, n=8, d=2, p=p)
        for k in (1, 2):
            _, h = mo_pps_bruteforce(sp, X, w, k)
            assert h <= 8 * sp.rho**2 * k + 2 * sp.rho + 1e-12


def test_mo_pps_refuses_combinatorial_blowup():
    X = np.zeros((500, 2))
    with pytest.raises(ValueError):
        mo_pps_bruteforce(SP2, X, None, 5)


def test_mo_pps_min_cost_filter():
    sp, X, w = rand_instance(1, n=7, d=2)
    psi_all, _ = mo_pps_bruteforce(sp, X, w, 2)
    big = max(cost(sp, X, w, X[list(qs)]) for qs in combinations(range(7), 2))
    psi_top, _ = mo_pps_bruteforce(sp, X, w, 2, min_cost=big)
    assert np.all(psi_top <= psi_all + 1e-15)


# coordinated draws ------------------------------------------------------


def test_uniforms_deterministic_in_half_open_interval():
    u1 = point_uniforms(123, 5000)
    u2 = point_uniforms(123, 5000)
    np.testing.assert_array_equal(u1, u2)
    assert np.all(u1 > 0) and np.all(u1 <= 1)
    assert not np.array_equal(u1, point_uniforms(124, 5000))


def test_draw_all_ones_and_zeros():
    sp, X, w = rand_instance(2, n=40, d=2)
    s = draw(X, w, np.ones(40), seed=0)
    np.testing.assert_array_equal(s.members, np.arange(40))
    np.testing.assert_array_equal(s.w_prime, w)
    probs = np.ones(40)
    probs[::2] = 0.0
    s2 = draw(X, w, probs, seed=0)
    assert np.all(s2.members % 2 == 1)


def test_draw_binomial_concentration():
    n = 100_000
    X = np.zeros((n, 1))
    s = draw(X, None, np.full(n, 0.5), seed=7)
    assert abs(s.size - 50_000) <= 700


def test_growth_never_evicts():
    sp, X, w = rand_instance(3, n=500, d=2)
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 0.3, size=500)
    s = draw(X, w, p, seed=11)
    for _ in range(20):
        p = np.minimum(1.0, p * rng.uniform(1.0, 3.0, size=500))
        s2 = s.with_probabilities(p)
        assert set(s.members).issubset(set(s2.members))
        s = s2
    np.testing.assert_allclose(s.w_prime * s.p[s.members], w[s.members], rtol=1e-15)


def test_draw_validation_and_u_override(monkeypatch):
    X = np.zeros((3, 1))
    with pytest.raises(ValueError):
        draw(X, None, np.array([0.5, 0.5]), seed=0)
    with pytest.raises(ValueError):
        draw(X, None, np.array([0.5, 1.5, 0.5]), seed=0)
    for scale in (0.0, -1.0, np.nan, -np.inf):
        with pytest.raises(ValueError, match="scale .* be > 0"):
            draw(X, None, np.full(3, 0.5), seed=0, scale=scale)
    u = np.array([0.9, 0.1, 0.5])
    monkeypatch.setattr(sampling, "point_uniforms", lambda seed, n: u)
    s = draw(X, None, np.array([0.5, 0.5, 0.5]), seed=0)
    np.testing.assert_array_equal(s.members, [1, 2])


@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([1e-300, 1e-3, 0.5]))
@settings(max_examples=80, deadline=None)
def test_scale_form_equals_vector_form(n, seed, weighted, pi_min):
    # pi at scale s is the sample at min(1, s pi), bit for bit, and a larger
    # scale never evicts a member
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    w = rng.uniform(0.1, 10.0, size=n) if weighted else None
    pi = rng.uniform(pi_min, 1.0, size=n)
    pi[rng.integers(n)] = pi_min
    scales = (5e-324, 1.0, 1.0 / pi.min(), np.inf)
    samples = [draw(X, w, pi, seed, scale=s) for s in scales]
    for s, got in zip(scales, samples):
        want = draw(X, w, np.minimum(1.0, s * pi), seed)
        for key in ("p", "members", "member_weights", "w_prime", "saturated"):
            np.testing.assert_array_equal(getattr(got, key), getattr(want, key))
        grown = got.with_probabilities(pi, 2.0 * s)
        np.testing.assert_array_equal(grown.p, np.minimum(1.0, 2.0 * s * pi))
        assert np.all(np.isin(got.members, grown.members))
    for small, large in zip(samples, samples[1:]):
        assert np.all(np.isin(small.members, large.members))
    assert samples[-1].size == n


# estimator --------------------------------------------------------------


def test_estimate_exact_when_saturated():
    sp, X, w = rand_instance(5, n=60, d=3)
    Q = X[:4]
    s = draw(X, w, np.ones(60), seed=1)
    assert estimate_cost(sp, s, Q) == pytest.approx(cost(sp, X, w, Q), rel=1e-12)


def test_estimate_zero_when_q_covers_all():
    sp, X, w = rand_instance(6, n=20, d=2)
    s = draw(X, w, np.full(20, 0.7), seed=2)
    assert estimate_cost(sp, s, X) == 0.0


def test_estimate_empty_sample_is_zero():
    sp, X, w = rand_instance(7, n=10, d=2)
    s = draw(X, w, np.zeros(10), seed=3)
    assert s.size == 0
    assert estimate_cost(sp, s, X[:2]) == 0.0
    with pytest.raises(ValueError, match="^centroids contain NaN or inf"):
        estimate_cost(sp, s, np.array([[np.nan, 0.0]]))


@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0, 3.0]),
       st.sampled_from([3, 12, core._COLUMNS_MAX_D + 2]),
       st.sampled_from(["plain", "duplicated", "near-tie", "overflow", "empty"]))
@settings(max_examples=120, deadline=None)
def test_estimate_is_the_row_sum_estimate(seed, power, d, case):
    # an estimate reads the members feature-major (at low d) with their norms;
    # it must equal the sum of w' times the plain row-sum nearest distances
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    X = rng.integers(-3, 4, size=(n, d)).astype(np.float64)  # exact ties on bisectors
    X[: n // 2] += rng.normal(size=(n // 2, d))
    Q = np.vstack([X[rng.integers(0, n, size=2)], rng.normal(size=(int(rng.integers(1, 5)), d))])
    if case == "duplicated":
        Q = np.vstack([Q, Q[::-1]])
    elif case == "near-tie":  # a copy one ulp away from the first centroid
        Q = np.vstack([Q, np.nextafter(Q[:1], np.inf)])
    elif case == "overflow":  # some distances and GEMM scores round to inf
        X[0] *= 1e154
        Q[-1] = -1.2e154
    p = np.zeros(n) if case == "empty" else rng.uniform(0.05, 1.0, size=n)
    sample = draw(X, rng.uniform(0.5, 2.0, size=n), p, seed=int(rng.integers(0, 2**31)))
    space = MetricSpace.euclidean(power)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = row_sum_nearest(power, sample.member_points, Q)
        want = float(np.sum(sample.w_prime * ref[1]))
        for _ in range(2):  # the second reads the members' kept layout and norms
            assert estimate_cost(space, sample, Q) == want
        got = nearest(space, sample.member_points, Q, norms=sample.member_norms,
                      cols=sample.member_cols)
    assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
    assert sample.member_norms.shape == (sample.size,)
    assert (sample.member_cols is not None) == (d <= core._COLUMNS_MAX_D)


def test_estimator_unbiased_and_cv_bounded():
    # pps probabilities at r = eps^-2, eps = 0.1: CV of the estimate <= eps
    rng = np.random.default_rng(4)
    X = rng.normal(size=(2000, 3)) * rng.uniform(1, 5)
    w = rng.uniform(0.5, 2.0, size=2000)
    Q = X[rng.choice(2000, 4, replace=False)]
    V = cost(SP2, X, w, Q)
    psi = pps_base(SP2, X, w, Q).psi
    p = np.minimum(1.0, 100.0 * psi)
    draws = 2000
    ests = np.empty(draws)
    for i, s in enumerate(np.random.SeedSequence(9).generate_state(draws, dtype=np.uint64)):
        ests[i] = estimate_cost(SP2, draw(X, w, p, int(s)), Q)
    se = ests.std(ddof=1) / np.sqrt(draws)
    assert abs(ests.mean() - V) <= 3 * se
    assert ests.std(ddof=1) / V <= 0.1


def test_wprime_times_p_recovers_w():
    # one division, one multiplication: at most 1 ulp apart
    sp, X, w = rand_instance(8, n=200, d=2)
    p = np.minimum(1.0, np.full(200, 0.37))
    s = draw(X, w, p, seed=5)
    np.testing.assert_allclose(s.w_prime * p[s.members], w[s.members], rtol=1e-15)


# cap identity and dominance transfer ------------------------------------


def test_cap_identity_on_bruteforce_instances():
    sp, X, w = rand_instance(10, n=7, d=2)
    psi_mo, _ = mo_pps_bruteforce(sp, X, w, 2)
    for r in (0.5, 1.0, 3.0, 17.0):
        lhs = np.minimum(1.0, r * psi_mo)
        rhs = np.zeros(7)
        for qs in combinations(range(7), 2):
            b = pps_base(sp, X, w, X[list(qs)])
            rhs = np.maximum(rhs, np.minimum(1.0, r * b.psi))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_one2all_dominates_family_above_cost_floor():
    for seed in range(8):
        sp, X, w = rand_instance(seed + 20, n=9, d=2)
        tr = run_trace(sp, X, w, 2, seed=seed)
        probs = one2all_probs(sp, X, w, tr.centroids)
        for r in (1.0, 2.0, 8.0):
            floor = probs.cost_m / r
            psi_fam, _ = mo_pps_bruteforce(sp, X, w, 2, min_cost=floor)
            capped = np.minimum(1.0, r * probs.pi)
            assert np.all(capped >= psi_fam - 1e-12)


# concentration ----------------------------------------------------------


def test_overestimate_bound_closed_forms():
    assert overestimate_bound(0.25, 0.5) == pytest.approx(0.125, rel=1e-12)
    assert overestimate_bound(0.5, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert overestimate_bound(1.0, 0.5) == pytest.approx(0.25, rel=1e-12)
    assert overestimate_bound(0.25, 0.5) == pytest.approx(
        min(0.25 / 0.5, exp(-0.75 * log(4.0) * 2.0)), rel=1e-12
    )
    with pytest.raises(ValueError):
        overestimate_bound(0.7, 0.5)


def test_concentration_saturated_never_fails():
    sp, X, w = rand_instance(13, n=15, d=2)
    Q = X[:2]
    rep = concentration_check(sp, X, w, Q, alpha=1.0, eps=0.05, trials=50)
    assert rep["frequency"] == 0.0
    assert rep["ok"]


def test_concentration_alpha_quarter():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 2))
    w = rng.uniform(0.5, 2.0, size=300)
    Q = X[:3]
    rep = concentration_check(SP2, X, w, Q, alpha=0.25, eps=0.5, trials=4000)
    assert rep["bound"] == pytest.approx(0.125)
    assert rep["ok"], rep
