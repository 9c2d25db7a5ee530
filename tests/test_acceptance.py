"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Each test measures its criterion at the stated tolerance, prints a summary
line that survives output capture, and then asserts. Criterion 10 needs the
full-resolution image datasets on disk and reports SKIP when they are absent.
"""

import os
import time
from itertools import combinations
from math import ceil, log2

import numpy as np
import pytest
from reference import concentration_check, mo_pps_bruteforce, pps_base, verify_dominance

from one2all import sampling
from one2all.bench import fig2_data, run_cell
from one2all.core import MetricSpace, WeightedPointSet, cost
from one2all.data import LabeledDataset, gen_gmm, load_idx
from one2all.kmeanspp import run_trace
from one2all.lloyd import base_cluster
from one2all.oracle import build_feedback, feedback_query
from one2all.probabilities import one2all_probs
from one2all.sampling import draw, estimate_cost, point_uniforms
from one2all.wrapper import run as wrapper_run

SP = {1.0: MetricSpace.euclidean(1.0), 2.0: MetricSpace.euclidean(2.0)}


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _instance(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2)) * rng.uniform(0.5, 4.0)
    w = rng.uniform(0.2, 3.0, size=n)
    return SP[p], X, w


def test_criterion_1_dominance_exhaustive(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    violations = 0
    for seed in range(200):
        n = 6 + seed % 7
        sp, X, w = _instance(seed, n, 1.0 if seed % 2 else 2.0)
        trace = run_trace(sp, X, w, min(3, n), seed=seed)
        probe_sets = [X[list(c)] for r in (1, 2) for c in combinations(range(n), r)]
        for m in range(1, trace.ell + 1):
            probs = one2all_probs(sp, X, w, trace.prefix(m))
            for Q in probe_sets:
                res = verify_dominance(sp, X, w, probs, Q)
                checks += 1
                worst = max(worst, res["worst_ratio"])
                if not res["holds"]:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed <= 60.0
    _report(capsys, 1, "pointwise-dominance", ok,
            f"{checks} checks, 0 tolerance +1e-12, worst ratio {worst:.6f}, "
            f"{violations} violations, {elapsed:.1f}s")
    assert ok


def test_criterion_2_overhead_bounds(capsys):
    worst_margin = np.inf
    bad = 0
    for seed in range(100):
        n = 6 + seed % 7
        p = 1.0 if seed % 2 else 2.0
        sp, X, w = _instance(seed + 500, n, p)
        trace = run_trace(sp, X, w, min(3, n), seed=seed)
        for m in range(1, trace.ell + 1):
            probs = one2all_probs(sp, X, w, trace.prefix(m))
            bound = 8 * sp.rho**2 * len(probs.M) + 2 * sp.rho
            worst_margin = min(worst_margin, bound - probs.overhead)
            if probs.overhead > bound:
                bad += 1
    for seed in range(30):
        n = 6 + seed % 5
        p = 1.0 if seed % 2 else 2.0
        sp, X, w = _instance(seed + 900, n, p)
        for k in (1, 2, 3):
            _, h = mo_pps_bruteforce(sp, X, w, k)
            bound = 8 * sp.rho**2 * k + 2 * sp.rho
            worst_margin = min(worst_margin, bound - h)
            if h > bound:
                bad += 1
    ok = bad == 0
    _report(capsys, 2, "overhead-bounds", ok,
            f"130 instances, zero tolerance, min slack {worst_margin:.3f}, "
            f"{bad} violations")
    assert ok


def test_criterion_3_estimator_statistics(capsys):
    t0 = time.perf_counter()
    sp = SP[2.0]
    rng = np.random.default_rng(42)
    X = rng.normal(size=(10_000, 5)) * rng.uniform(1, 4)
    w = rng.uniform(0.5, 2.0, size=10_000)
    Q = X[rng.choice(10_000, 8, replace=False)]
    v = cost(sp, X, w, Q)
    p = np.minimum(1.0, 0.1**-2 * pps_base(sp, X, w, Q).psi)
    draws = 2000
    ests = np.empty(draws)
    for i, s in enumerate(np.random.SeedSequence(7).generate_state(draws, dtype=np.uint64)):
        ests[i] = estimate_cost(sp, draw(X, w, p, int(s)), Q)
    se = ests.std(ddof=1) / np.sqrt(draws)
    cv = ests.std(ddof=1) / v
    elapsed = time.perf_counter() - t0
    ok = abs(ests.mean() - v) <= 3 * se and cv <= 0.1 and elapsed <= 120.0
    _report(capsys, 3, "estimator-statistics", ok,
            f"n=10^4, 2000 draws, |mean-V|/SE={abs(ests.mean() - v) / se:.2f} (<=3), "
            f"CV={cv:.4f} (<=0.1), {elapsed:.1f}s")
    assert ok


def test_criterion_4_overestimation_tails(capsys):
    sp = SP[2.0]
    rng = np.random.default_rng(3)
    X = rng.normal(size=(500, 3)) * 2.0
    w = rng.uniform(0.5, 2.0, size=500)
    Q = X[:4]
    parts = []
    ok = True
    for i, alpha in enumerate((0.25, 0.5)):
        rep = concentration_check(sp, X, w, Q, alpha=alpha, eps=0.5,
                                  trials=10_000, seed=100 + i)
        ok = ok and rep["ok"]
        parts.append(f"alpha={alpha}: freq={rep['frequency']:.4f} "
                     f"<= {rep['bound']:.4f}+{rep['slack']:.4f}")
    _report(capsys, 4, "overestimation-tails", ok, "; ".join(parts))
    assert ok


def test_criterion_5_coordination(capsys):
    evictions = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 50 + seed % 200
        X = rng.normal(size=(n, 2))
        w = rng.uniform(0.5, 2.0, size=n)
        p = rng.uniform(0.0, 0.5, size=n)
        s = draw(X, w, p, seed=seed)
        for _ in range(8):
            p = np.minimum(1.0, p * rng.uniform(1.0, 2.5, size=n))
            s2 = s.with_probabilities(p)
            if not np.all(np.isin(s.members, s2.members)):
                evictions += 1
            s = s2
    ok = evictions == 0
    _report(capsys, 5, "coordinated-growth", ok,
            f"100 schedules x 8 steps, {evictions} evictions")
    assert ok


@pytest.mark.parametrize("eps,max_fraction,min_gain", [(0.1, 0.10, 10.0), (0.2, 0.03, 30.0)])
def test_criterion_6_benchmark_fractions(capsys, eps, max_fraction, min_gain):
    t0 = time.perf_counter()
    reports = []
    for seed in range(10):
        ds = gen_gmm(500_000, 10, 5, seed=seed)
        reports.append(run_cell(ds, 5, eps, seed=seed))
    elapsed = time.perf_counter() - t0
    per_seed = [
        r.adaptive_fraction <= max_fraction
        and r.gain >= min_gain
        and r.est_err <= eps
        and r.cost_ratio_final <= 1.3
        for r in reports
    ]
    hits = sum(per_seed)
    med = lambda xs: float(np.median(xs))
    ok = hits >= 8 and elapsed <= 900.0
    _report(capsys, 6, f"benchmark-n5e5-eps{eps}", ok,
            f"{hits}/10 seeds meet fraction<={max_fraction}, gain>={min_gain:.0f}x, "
            f"estErr<={eps}, ratio<=1.3; medians: fraction="
            f"{med([r.adaptive_fraction for r in reports]):.4f}, "
            f"gain={med([r.gain for r in reports]):.0f}x, "
            f"estErr={med([r.est_err for r in reports]):.4f}, "
            f"ratio={med([r.cost_ratio_final for r in reports]):.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_7_certification_property(capsys, monkeypatch):
    sp = SP[2.0]
    break_ok = True
    runs = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        k = 3 + seed % 3
        centers = rng.normal(size=(k, 4)) * 8.0
        X = centers[rng.integers(k, size=3000)] + rng.normal(size=(3000, 4))
        w = rng.uniform(0.5, 2.0, size=3000)
        eps = (0.15, 0.25, 0.4)[seed % 3]
        Q, rep = wrapper_run(sp, X, w, k, eps, seed=seed)
        runs += 1
        last = rep.log[-1]
        if rep.certified:
            if last["action"] == "accept":
                if not (last["V_Q"] <= (1 + eps) * last["estimate"]
                        and last["V_Q"] >= rep.cost_m / last["r"]):
                    break_ok = False
            elif last["action"] != "saturated":
                break_ok = False
        # uncertified runs carry the flag; nothing else to check
    fooled = 0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        near = rng.normal(size=(2000, 2))
        far = rng.normal(size=(2000, 2))
        far[:, 0] += 1000.0
        X = np.vstack([near, far])
        u = point_uniforms(seed, 4000)
        u[2000:] = 1.0
        monkeypatch.setattr(sampling, "point_uniforms", lambda _seed, _n, u=u: u)
        _, rep = wrapper_run(sp, X, None, 2, 0.5, seed=seed)
        if any(e["action"] == "grow" for e in rep.log) and rep.certified:
            fooled += 1
    ok = break_ok and fooled == 5
    _report(capsys, 7, "wrapper-certification", ok,
            f"{runs} runs honor the recorded break condition or flag; "
            f"{fooled}/5 hidden-mass instances forced growth and recovered")
    assert ok


def test_criterion_8_update_counts(capsys):
    sp = SP[2.0]
    halving_ok = True
    for seed in range(3):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(4, 5)) * 8.0
        X = centers[rng.integers(4, size=3000)] + rng.normal(size=(3000, 5))
        w = rng.uniform(0.5, 2.0, size=3000)
        st = build_feedback(sp, X, w, k=4, eps=0.4, seed=seed)
        C0, W = st.C, w.sum()
        shift = np.zeros(5)
        for t in range(1, 6):
            shift[0] = np.sqrt(0.9 * C0 / 2**t / W)
            feedback_query(st, X + shift)
            if st.update_count > t:
                halving_ok = False
    hits = 0
    seeds = 50
    for seed in range(seeds):
        ds = gen_gmm(1500, 5, 4, seed=seed)
        X, w = ds.points.points, ds.points.weights
        st = build_feedback(sp, X, w, k=4, eps=0.4, seed=seed)
        v2k = st.C
        base = base_cluster(sp, X, w, k=4, seed=seed)
        v_base = cost(sp, X, w, base)
        rng = np.random.default_rng(seed)
        for _ in range(12):
            feedback_query(st, X[rng.choice(1500, 4, replace=False)])
        if v2k <= 0 or v_base <= 0:
            hits += 1
            continue
        budget = ceil(log2(v2k / v_base)) + 1
        if st.update_count <= budget:
            hits += 1
    ok = halving_ok and hits >= int(0.95 * seeds)
    _report(capsys, 8, "oracle-update-counts", ok,
            f"halving sequences: updates <= t {'held' if halving_ok else 'VIOLATED'}; "
            f"random-query budget held in {hits}/{seeds} seeds (need 48)")
    assert ok


def test_criterion_9_sweet_spot_shape(capsys):
    interior = 0
    for seed in range(10):
        ds = gen_gmm(50_000, 10, 20, seed=seed)
        out = fig2_data(ds, k=20, seed=seed)
        am = int(np.argmin(out["overhead"]))
        if 0 < am < out["overhead"].size - 1:
            interior += 1
    flat_ok = True
    for seed in range(3):
        rng = np.random.default_rng(seed)
        blob = LabeledDataset(points=WeightedPointSet(rng.normal(size=(2000, 50))))
        out = fig2_data(blob, k=20, seed=seed)
        if int(np.argmin(out["overhead"])) != 0:
            flat_ok = False
    ok = interior >= 8 and flat_ok
    _report(capsys, 9, "sweet-spot-shape", ok,
            f"clustered d=10 k=20: interior minimizer in {interior}/10 seeds (need 8); "
            f"flat-curve surrogate picks prefix 1: {flat_ok}")
    assert ok


def test_criterion_11_clustering_carries_over(capsys):
    # The paper's claim: the wrapper's sample is large enough that a
    # clustering's quality on it carries over to the full data. So a
    # certified Q should cost at most (1+eps) times what the same base
    # clusterer (same k and seed) finds on the full data. The allowance is 0
    # of 120: on these mixtures the worst ratio measured was 1.043 for
    # doubling growth and 1.055 with the rejected-Q re-test, so a run over
    # 1.2 is a certificate that failed, not noise. Never loosen it.
    t0 = time.perf_counter()
    sp, eps = SP[2.0], 0.2
    ratios = []
    uncertified = 0
    for k, spacing in ((5, 10.0), (8, 4.0)):
        for seed in range(60):
            X = gen_gmm(2 * 10**4, 10, k, seed=seed, spacing=spacing).points.points
            _, rep = wrapper_run(sp, X, None, k, eps, seed=seed)
            if not rep.certified:
                uncertified += 1
                continue
            full = cost(sp, X, None, base_cluster(sp, X, None, k, seed=seed))
            ratios.append(rep.best_cost / full)
    over = sum(r > 1.0 + eps for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = over == 0
    _report(capsys, 11, "clustering-carries-over", ok,
            f"{len(ratios)} certified of 120 runs (n=2*10^4, d=10, eps={eps}); "
            f"V(Q)/V(full-data base) median {np.median(ratios):.4f}, max {max(ratios):.4f}, "
            f"{over} over {1.0 + eps} (allowed 0), {uncertified} uncertified, {elapsed:.1f}s")
    assert ok


def _find_idx_datasets():
    roots = [os.environ.get("ONE2ALL_DATA", ""), "data", "datasets"]
    names = [
        ("mnist", "train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("fashion", "train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    ]
    found = []
    for root in filter(None, roots):
        for sub, img, lab in names:
            for base in (os.path.join(root, sub), root):
                ip, lp = os.path.join(base, img), os.path.join(base, lab)
                if os.path.exists(ip) and os.path.exists(lp):
                    found.append((sub, ip, lp))
        if found:
            break
    # dedup by image path (mnist/fashion share file names in the flat layout)
    seen, out = set(), []
    for name, ip, lp in found:
        if ip not in seen:
            seen.add(ip)
            out.append((name, ip, lp))
    return out


def test_criterion_10_image_datasets(capsys):
    datasets = _find_idx_datasets()
    if not datasets:
        with capsys.disabled():
            print("ACCEPTANCE 10 image-datasets: SKIP (image files not present; "
                  "criteria 1-9 stand alone)")
        pytest.skip("image datasets not present")
    parts = []
    ok = True
    for name, ip, lp in datasets:
        ds = load_idx(ip, lp)
        r = run_cell(ds, k=10, eps=0.2, seed=0)
        cond = r.adaptive_fraction <= 0.08 and r.cost_ratio_final <= 1.1
        ok = ok and cond
        parts.append(f"{name}: fraction={r.adaptive_fraction:.4f} (<=0.08), "
                     f"ratio={r.cost_ratio_final:.3f} (<=1.1)")
    _report(capsys, 10, "image-datasets", ok, "; ".join(parts))
    assert ok
