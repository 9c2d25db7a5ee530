"""Benchmark pipeline: run the wrapper over parameter grids and report
sample fractions, gains over the worst-case bound, estimation error, and
cost ratios against ground truth.

Wall-clock times are collected but kept out of the primary report encoding
so identical (argv, seed) runs emit identical bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import log

import numpy as np

from .core import MetricSpace
from .data import LabeledDataset, gen_gmm
from .kmeanspp import run_trace
from .probabilities import check_eps
from .sampling import draw, estimate_cost
from .wrapper import run as wrapper_run

_SPACE = MetricSpace.euclidean(2.0)
_REDRAWS = 30  # fresh sample draws behind each est_err


def worst_case_size(n: int, d: int, k: int, eps: float) -> float:
    """Generic coreset-size lower envelope the adaptive sample is compared to:

        min{n, 3000 k eps^-2 min{ln(max(k,2)) ln n, min(n, d/eps)}}

    (natural logs; the constant is itself an underestimate, which only makes
    the reported gains conservative).
    """
    if min(n, d, k) < 1:
        raise ValueError("n, d, k must be >= 1")
    check_eps(eps)
    structural = min(log(max(k, 2)) * log(n), min(n, d / eps))
    return float(min(n, 3000.0 * k * eps**-2 * structural))


@dataclass
class RunReport:
    n: int
    d: int
    k: int
    eps: float
    seed: int
    adaptive_fraction: float
    worst_case_fraction: float
    gain: float
    est_err: float
    cost_ratio_final: float | None
    sweet_spot: int
    sample_size: int
    rounds: int
    certified: bool
    best_cost: float
    ground_truth_cost: float | None
    wall: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({k: v for k, v in self.__dict__.items() if k != "wall"},
                          sort_keys=True)


_COLUMNS = "n d k eps seed fraction worst gain est_err cost_ratio sweet_spot certified".split()


def summary_table(reports: list[RunReport]) -> str:
    lines = ["\t".join(_COLUMNS)]
    for r in reports:
        vals = [
            r.n, r.d, r.k, r.eps, r.seed,
            f"{r.adaptive_fraction:.4f}", f"{r.worst_case_fraction:.4f}",
            f"{r.gain:.1f}", f"{r.est_err:.4f}",
            "-" if r.cost_ratio_final is None else f"{r.cost_ratio_final:.3f}",
            r.sweet_spot, int(r.certified),
        ]
        lines.append("\t".join(str(v) for v in vals))
    return "\n".join(lines)


def estimation_error(X, w, p, Q, v_exact: float, redraws: int, seed: int) -> float:
    """RMS of the relative estimation error over fresh sample draws at p."""
    if v_exact <= 0:
        return 0.0
    seeds = np.random.SeedSequence(seed).generate_state(redraws, dtype=np.uint64)
    errs = np.empty(redraws)
    for i, s in enumerate(seeds):
        sample = draw(X, w, p, int(s))
        est = estimate_cost(_SPACE, sample, Q)
        errs[i] = (v_exact - est) / v_exact
    return float(np.sqrt(np.mean(errs**2)))


def run_cell(dataset: LabeledDataset, k: int, eps: float, seed: int) -> RunReport:
    """One dataset through the wrapper, plus the derived report columns."""
    X = dataset.points.points
    w = dataset.points.weights
    n, d = X.shape
    t0 = time.perf_counter()
    Q, rep = wrapper_run(_SPACE, X, w, k, eps, seed=seed)
    t1 = time.perf_counter()
    err = estimation_error(X, w, rep.final_p, Q.points, rep.best_cost,
                           _REDRAWS, seed=rep.sample_seed + 1)
    t2 = time.perf_counter()
    worst_fraction = worst_case_size(n, d, k, eps) / n
    adaptive_fraction = rep.sample_fraction
    gt = dataset.ground_truth_cost
    return RunReport(
        n=n, d=d, k=k, eps=eps, seed=seed,
        adaptive_fraction=adaptive_fraction,
        worst_case_fraction=worst_fraction,
        gain=worst_fraction / adaptive_fraction if adaptive_fraction > 0 else np.inf,
        est_err=err,
        cost_ratio_final=None if not gt else rep.best_cost / gt,
        sweet_spot=rep.sweet_spot_index,
        sample_size=rep.sample_size,
        rounds=rep.rounds,
        certified=rep.certified,
        best_cost=rep.best_cost,
        ground_truth_cost=gt,
        wall={"wrapper_s": t1 - t0, "est_err_s": t2 - t1},
    )


PRESETS = {
    # Table-1 regime at full and desk scale (Gaussian mixtures, d=10, k=5)
    "table1": [
        {"n": 500_000, "d": 10, "k": 5, "eps": 0.1},
        {"n": 500_000, "d": 10, "k": 5, "eps": 0.2},
    ],
    "table1-small": [
        {"n": 50_000, "d": 10, "k": 5, "eps": 0.1},
        {"n": 50_000, "d": 10, "k": 5, "eps": 0.2},
    ],
}


def run_grid(cells, repetitions: int = 1, base_seed: int = 0):
    """Run every (cell, repetition); one failure doesn't sink the grid.

    Returns (reports, aggregates): reports holds a RunReport or an error
    record per run, aggregates the per-cell medians of the numeric columns.
    """
    reports: list = []
    aggregates = []
    for ci, cell in enumerate(cells):
        cell_reports = []
        for rep in range(repetitions):
            seed = base_seed + 1000 * ci + rep
            try:
                ds = gen_gmm(cell["n"], cell["d"], cell["k"], seed=seed)
                r = run_cell(ds, cell["k"], cell["eps"], seed=seed)
                cell_reports.append(r)
                reports.append(r)
            except Exception as e:  # record and continue with the grid
                reports.append({"cell": dict(cell), "seed": seed, "error": repr(e)})
        if cell_reports:
            aggregates.append(_aggregate(cell, cell_reports))
    return reports, aggregates


def _aggregate(cell: dict, reports: list[RunReport]) -> dict:
    med = lambda vals: float(np.median(vals))
    out = dict(cell)
    out.update(
        runs=len(reports),
        adaptive_fraction=med([r.adaptive_fraction for r in reports]),
        gain=med([r.gain for r in reports]),
        est_err=med([r.est_err for r in reports]),
        certified_all=all(r.certified for r in reports),
    )
    ratios = [r.cost_ratio_final for r in reports if r.cost_ratio_final is not None]
    if ratios:
        out["cost_ratio_final"] = float(np.median(ratios))
    return out


def fig2_data(dataset: LabeledDataset, k: int, seed: int, ell: int | None = None) -> dict:
    """Per-prefix cost and rough sample-size score along one kmeans++ run.

    Emits, for i = 1..ell (default 2k): the prefix cost v_i and the score
    i*v_i, both normalized by the ground-truth cost when available (else by
    v_1), ready to plot.
    """
    X = dataset.points.points
    w = dataset.points.weights
    ell = min(ell or 2 * k, X.shape[0])
    trace = run_trace(_SPACE, X, w, ell, seed)
    v = trace.prefix_costs
    denom = dataset.ground_truth_cost or float(v[0])
    i = np.arange(1, trace.ell + 1)
    return {
        "i": i,
        "cost_ratio": v / denom,
        "overhead": i * v / denom,
    }
