"""Benchmark reporting: size envelope, error metric, grids, curve data."""

import json
from math import log

import numpy as np
import pytest
from reference import pps_base

from one2all.bench import (
    PRESETS,
    RunReport,
    estimation_error,
    fig2_data,
    run_cell,
    run_grid,
    summary_table,
    worst_case_size,
)
from one2all.core import MetricSpace
from one2all.data import gen_gmm
from one2all.kmeanspp import run_trace

SP2 = MetricSpace.euclidean(2.0)


# worst-case envelope ------------------------------------------------------


def test_worst_case_frozen_values():
    # n = 5e5, d = 10, k = 5: structural term ln(5) ln(5e5) ~ 21.1 caps at n
    assert worst_case_size(500_000, 10, 5, 0.1) == 500_000.0
    assert worst_case_size(500_000, 10, 5, 0.2) == 500_000.0
    # n = 1e9, d = 2, k = 2, eps = 1: min(n, d/eps) = 2 binds, 3000*2*1*2
    assert worst_case_size(10**9, 2, 2, 1.0) == 12_000.0


def test_worst_case_matches_formula():
    for n, d, k, eps in [(10**6, 20, 10, 0.1), (10**4, 3, 2, 0.5), (100, 5, 3, 0.2)]:
        structural = min(log(max(k, 2)) * log(n), min(n, d / eps))
        want = min(n, 3000.0 * k * eps**-2 * structural)
        assert worst_case_size(n, d, k, eps) == pytest.approx(want, rel=1e-12)


def test_worst_case_caps_at_n_and_validates():
    assert worst_case_size(50, 10, 5, 0.1) == 50.0
    assert worst_case_size(10**6, 10, 5, 0.1) <= worst_case_size(10**6, 10, 6, 0.1)
    with pytest.raises(ValueError):
        worst_case_size(0, 10, 5, 0.1)
    with pytest.raises(ValueError):
        worst_case_size(100, 10, 5, 0.0)


# estimation error ---------------------------------------------------------


def test_estimation_error_zero_cases():
    from one2all.core import cost

    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 2))
    v = cost(SP2, X, np.ones(100), X[:3])
    # saturated probabilities reproduce the exact cost on every redraw
    assert estimation_error(X, np.ones(100), np.ones(100), X[:3], v, 10, seed=1) == 0.0
    assert estimation_error(X, np.ones(100), np.full(100, 0.5), X[:3], 0.0, 10, seed=1) == 0.0


def test_estimation_error_scales_with_rate():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3000, 3)) * 3.0
    w = np.ones(3000)
    Q = X[:4]
    from one2all.core import cost

    v = cost(SP2, X, w, Q)
    psi = pps_base(SP2, X, w, Q).psi
    hi = estimation_error(X, w, np.minimum(1, 25 * psi), Q, v, 40, seed=2)
    lo = estimation_error(X, w, np.minimum(1, 400 * psi), Q, v, 40, seed=2)
    assert lo < hi
    assert lo <= 0.1  # r = 400: CV bound 1/sqrt(400) = 0.05, headroom 2x


# run_cell and reports -------------------------------------------------------


def test_run_cell_report_identities():
    ds = gen_gmm(3000, 4, 3, seed=5)
    r = run_cell(ds, k=3, eps=0.25, seed=7)
    assert r.n == 3000 and r.d == 4
    assert r.gain == pytest.approx(r.worst_case_fraction / r.adaptive_fraction)
    assert r.cost_ratio_final == pytest.approx(r.best_cost / ds.ground_truth_cost)
    assert r.certified
    assert 0 < r.adaptive_fraction <= 1
    assert r.est_err <= 2 * 0.25
    assert set(r.wall) == {"wrapper_s", "est_err_s"}


def test_run_cell_json_deterministic():
    ds = gen_gmm(1500, 3, 2, seed=9)
    a = run_cell(ds, k=2, eps=0.3, seed=11).to_json()
    b = run_cell(ds, k=2, eps=0.3, seed=11).to_json()
    assert a == b
    assert "wall" not in json.loads(a)  # wall times would break byte identity


def test_summary_table_shape_and_none_ratios():
    ds = gen_gmm(1000, 3, 2, seed=13)
    r = run_cell(ds, k=2, eps=0.3, seed=1)
    blank = RunReport(
        n=10, d=2, k=2, eps=0.5, seed=0, adaptive_fraction=1.0,
        worst_case_fraction=1.0, gain=1.0, est_err=0.0,
        cost_ratio_final=None, sweet_spot=1,
        sample_size=10, rounds=1, certified=True, best_cost=1.0,
        ground_truth_cost=None,
    )
    table = summary_table([r, blank])
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[0].split("\t")[0] == "n"
    assert "-" in lines[2].split("\t")


# grids ----------------------------------------------------------------------


def test_run_grid_isolates_failures_and_aggregates():
    cells = [
        {"n": 800, "d": 3, "k": 2, "eps": 0.3},
        {"n": 2, "d": 3, "k": 5, "eps": 0.3},  # k > n: generator refuses
    ]
    reports, aggs = run_grid(cells, repetitions=2, base_seed=100)
    good = [r for r in reports if isinstance(r, RunReport)]
    bad = [r for r in reports if isinstance(r, dict)]
    assert len(good) == 2 and len(bad) == 2
    assert all("error" in b and b["seed"] >= 1100 for b in bad)
    assert len(aggs) == 1
    agg = aggs[0]
    assert agg["runs"] == 2
    assert agg["certified_all"] in (True, False)
    assert good[0].seed == 100 and good[1].seed == 101


def test_presets_well_formed():
    for name, cells in PRESETS.items():
        for cell in cells:
            assert {"n", "d", "k", "eps"} <= set(cell)
            worst_case_size(cell["n"], cell["d"], cell["k"], cell["eps"])


# sweet-spot curve data --------------------------------------------------------


def test_fig2_data_fields_and_normalization():
    ds = gen_gmm(2000, 4, 5, seed=17)
    out = fig2_data(ds, k=5, seed=3)
    np.testing.assert_array_equal(out["i"], np.arange(1, 11))
    v = run_trace(SP2, ds.points.points, None, 10, 3).prefix_costs
    assert out["cost_ratio"].tobytes() == (v / ds.ground_truth_cost).tobytes()
    np.testing.assert_allclose(out["overhead"], out["i"] * out["cost_ratio"])
    assert np.all(np.diff(out["cost_ratio"]) <= 1e-12)  # prefix costs shrink


def test_fig2_data_without_ground_truth_normalizes_by_v1():
    from one2all.core import WeightedPointSet
    from one2all.data import LabeledDataset

    rng = np.random.default_rng(19)
    ds = LabeledDataset(points=WeightedPointSet(rng.normal(size=(500, 3))))
    out = fig2_data(ds, k=2, seed=5)
    assert out["cost_ratio"][0] == pytest.approx(1.0)
