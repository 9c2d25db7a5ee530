"""one2all benchmark: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload cluster-lowd --seed 0 --seconds 15 --trace 0

Run from the repository root. The program is imported from ./src, so
nothing needs installing. With --trace 0 the workload's operations repeat
until --seconds have passed after one untimed warm-up operation, and the
last stdout line is a JSON object whose metrics are the end-to-end ones in
BENCHMARK.json. With --trace 1 the run does a fixed list of operations
untraced, then the same list traced, and reports the per-layer metrics plus
the tracing overhead (traced over untraced wall time, minus one); the spans
go to perfbench/out/. Outputs are checked outside timed regions; a failed
check counts in "failed" and makes "correct" false. Lines before the last
give the machine and either the workload-specific metrics (`metric` lines)
or the traced run's span count and wall times (`trace` line).
"""

from __future__ import annotations

import os
import sys

# Pin numeric-library threads before numpy loads, here and in every
# subprocess: setting them later (as `one2all --threads` does) has no effect.
_NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 1 <= int(_cur) <= _NPROC):
        os.environ[_var] = str(_NPROC)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3  # setup_s is the median of this many set-ups
TRACED_OPS = 3  # a traced run does this fixed number of operations, so counts repeat


def import_program():
    """Import one2all from ./src, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "one2all", "__init__.py")):
        raise SystemExit(f"benchmark: no program source at {SRC}/one2all")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    o2a = importlib.import_module("one2all")
    if os.path.dirname(os.path.dirname(os.path.abspath(o2a.__file__))) != SRC:
        raise SystemExit(f"benchmark: imported one2all from {o2a.__file__}, not {SRC}")
    for mod in ("cli", "data"):  # not imported by the package itself
        importlib.import_module(f"one2all.{mod}")
    return o2a


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": _NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_ops(o2a, wl, env, keys, in_process=False):
    """Run one operation per key; an exception fails that operation only."""
    outcomes = []
    for key in keys:
        try:
            outcomes.append(wl.op(o2a, env, key, in_process=in_process))
        except Exception:  # the loop must go on; the failure is counted
            traceback.print_exc()
            outcomes.append(Outcome(key, {}, error=traceback.format_exc(limit=1)))
    return outcomes


def require_results(outcomes):
    if all(oc.error for oc in outcomes):
        raise SystemExit("benchmark: every operation raised; no metrics")


def measured(o2a, wl, seed, seconds, workdir):
    setups = []
    for _ in range(SETUP_REPS):
        env = None  # let the previous set-up's data go before making the next
        t0 = time.perf_counter()
        env = wl.setup(o2a, seed, workdir)
        setups.append(time.perf_counter() - t0)
    run_ops(o2a, wl, env, env.keys[:1])  # warm-up, untimed
    outcomes = []
    start = time.perf_counter()
    for key in env.keys[1:]:
        outcomes += run_ops(o2a, wl, env, [key])
        if time.perf_counter() - start >= seconds:
            break
    require_results(outcomes)
    attempted, failed, quality = wl.check(o2a, env, outcomes)
    e2e, named = wl.report(outcomes, quality)
    peak_kb = resource.getrusage(wl.RSS_OF).ru_maxrss
    e2e = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_kb / 1024.0, **e2e}
    named = {"setup_s": (e2e["setup_s"], "s"), "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
             "failed_frac": (failed / attempted, "ratio"), **named}
    for name, (value, unit) in named.items():
        print(f"metric {wl.name} {name} {value!r} {unit}")
    return attempted, failed, e2e


def traced(o2a, wl, seed, workdir):
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        env = wl.setup(o2a, seed, workdir)  # traced as run 0
    finally:
        uninstall()
    keys = env.keys[1:1 + TRACED_OPS]
    run_ops(o2a, wl, env, env.keys[:1], in_process=True)  # warm-up
    t0 = time.perf_counter()
    plain = run_ops(o2a, wl, env, keys, in_process=True)
    untraced_s = time.perf_counter() - t0
    uninstall = tracer.install()
    try:
        outcomes = []
        t0 = time.perf_counter()
        for i, key in enumerate(keys, 1):
            tracer.run = i
            outcomes += run_ops(o2a, wl, env, [key], in_process=True)
        traced_s = time.perf_counter() - t0
    finally:
        uninstall()
    require_results(plain + outcomes)
    attempted, failed, _ = wl.check(o2a, env, plain + outcomes)
    layers = layer_metrics(tracer.spans, env.X.shape[0])
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    tracer.dump(os.path.join(OUT, f"spans-{wl.name}-seed{seed}.json"))
    print(f"trace {wl.name} spans={len(tracer.spans)} untraced_s={untraced_s!r} "
          f"traced_s={traced_s!r}")
    return attempted, failed, layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    o2a = import_program()
    print("machine " + json.dumps(machine(), sort_keys=True))
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            attempted, failed, values = traced(o2a, wl, args.seed, workdir)
            wanted = spec["per_layer"]
        else:
            attempted, failed, values = measured(o2a, wl, args.seed, args.seconds, workdir)
            wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
