"""Print one sha256 per fixed-seed output of one2all, to check byte identity.

    PYTHONPATH=src python tests/fingerprint.py > after.txt

Run it in two checkouts (each with its own src) and `diff` the outputs:
equal lines mean the two produce the same bytes for every output below.
The CLI runs as `python -m one2all` from the same source, in subprocesses
inside a temporary directory with relative file names, so stdout never
holds a path that differs between runs; the library outputs are hashed
from their arrays and reprs. Oracle files are hashed key by key
from their arrays, since npz archives carry timestamps.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np

import one2all
from one2all import cluster_adaptive, one2all_probs, oracle, run_trace, sweet_spot
from one2all.core import MetricSpace, nearest, pairwise
from one2all.data import dump_delimited, gen_gmm, load_delimited
from one2all.kmeanspp import replay


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def emit(name: str, *parts) -> None:
    print(f"{digest(*parts)}  {name}", flush=True)


def npz_parts(path: str) -> list:
    with np.load(path) as f:
        return [x for key in sorted(f.files) for x in (key, f[key])]


def cli(tmp: str, *args: str, stdin: bytes | None = None) -> bytes:
    """stdout of `one2all args`, with stdin piped in if given. A run fed
    stdin may fail: it then prints nothing, and its line differs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(one2all.__file__)))
    done = subprocess.run([sys.executable, "-m", "one2all", *args], capture_output=True,
                          check=stdin is None, cwd=tmp, env={**os.environ, "PYTHONPATH": src},
                          input=stdin)
    return done.stdout


def cli_outputs(tmp: str) -> None:
    data = "data.csv"
    cli(tmp, "gen", "--n", "20000", "--d", "10", "--k", "5", "--seed", "701", "--out", data)
    data_file = os.path.join(tmp, data)
    emit("cli gen file", open(data_file, "rb").read())
    emit("cli cluster stdout", cli(tmp, "cluster", "--in", data, "--k", "5", "--eps", "0.2",
                                   "--seed", "3"))
    orc = "oracle.npz"
    emit("cli oracle-build stdout", cli(tmp, "oracle-build", "--in", data, "--k", "5",
                                        "--eps", "0.2", "--seed", "4", "--out", orc))
    emit("cli oracle-build file", *npz_parts(os.path.join(tmp, orc)))
    queries = []
    for i, scale in enumerate((1.0, 0.0, 3.0)):
        path = f"q{i}.csv"
        Q = scale * np.random.default_rng(i).normal(size=(5, 10)) + [[10.0 * j] + [0.0] * 9
                                                                   for j in range(5)]
        with open(os.path.join(tmp, path), "w") as f:
            f.write("".join(",".join(repr(float(v)) for v in q) + "\n" for q in Q))
        queries += ["--query", path]
    emit("cli oracle-query stdout", cli(tmp, "oracle-query", "--oracle", orc, *queries))
    emit("cli oracle-query --feedback stdout",
         cli(tmp, "oracle-query", "--oracle", orc, *queries, "--feedback", "--data", data))
    emit("cli oracle-query --feedback file", *npz_parts(os.path.join(tmp, orc)))
    jsonl = "bench.jsonl"
    emit("cli bench table1-small stdout", cli(tmp, "bench", "--preset", "table1-small",
                                              "--out", jsonl))
    emit("cli bench table1-small jsonl", open(os.path.join(tmp, jsonl), "rb").read())
    for name, source in (("file", ["--in", data]), ("generated", ["--n", "20000"])):
        out = f"fig-{name}"
        emit(f"cli figdata {name} stdout", cli(tmp, "figdata", *source, "--k", "5",
                                              "--seed", "6", "--out", out))
        for suffix in ("cost", "overhead"):
            emit(f"cli figdata {name} {suffix}.tsv",
                 open(os.path.join(tmp, f"{out}-{suffix}.tsv"), "rb").read())


def file_outputs(tmp: str) -> None:
    """A weighted dump, and one large enough to be parsed in parallel spans
    (about 19 MB; load_delimited splits files of twice data._SPAN_MIN bytes
    and more), each through load_delimited and `one2all cluster --in`, from
    the file and piped through stdin."""
    weighted = gen_gmm(20000, 10, 5, seed=702)
    weighted.points.weights[:] = np.random.default_rng(703).uniform(0.5, 2.0, size=weighted.n)
    for name, ds in (("weighted", weighted), ("large", gen_gmm(100000, 10, 5, seed=704))):
        path = f"{name}.csv"
        dump_delimited(ds, os.path.join(tmp, path))
        back = load_delimited(os.path.join(tmp, path))
        emit(f"load_delimited {name} file", back.points.points, back.points.weights,
             back.ground_truth.points, back.meta["n"], back.meta["d"], back.meta["k"])
        argv = ("--k", "5", "--eps", "0.2", "--seed", "3")
        emit(f"cli cluster {name} file stdout", cli(tmp, "cluster", "--in", path, *argv))
        with open(os.path.join(tmp, path), "rb") as f:
            emit(f"cli cluster {name} stdin stdout",
                 cli(tmp, "cluster", "--in", "/dev/stdin", *argv, stdin=f.read()))


def state_parts(st) -> list:
    s = st.sample
    return [s.p, s.members, s.member_points, s.member_weights,
            (st.C, st.eps, st.prefix_index, st.update_count, st.sample_seed)]


def library_outputs() -> None:
    ds = gen_gmm(30000, 8, 6, seed=11)
    X = ds.points.points
    w = np.random.default_rng(12).uniform(0.5, 2.0, size=X.shape[0])
    sp2 = MetricSpace.euclidean(2.0)
    Q, rep = cluster_adaptive(sp2, X, w, k=6, eps=0.2, seed=5)
    emit("cluster_adaptive", Q.points, repr(rep.log),
         *(getattr(rep, f.name) for f in fields(rep) if f.name not in ("log", "k", "seed", "eps")))
    emit("oracle build", *state_parts(oracle.build(sp2, X, w, ell=9, C=1e5, eps=0.25, seed=7)))
    st = oracle.build_feedback(sp2, X, w, k=6, eps=0.25, seed=8)
    emit("oracle build_feedback", *state_parts(st))
    answers = [oracle.feedback_query(st, X[[10 * i for i in range(1, 7)]] * s)
               for s in (1.0, 0.5, 1.0)]
    emit("oracle feedback_query", answers, *state_parts(st))
    # four distinct points leave no residual cost at ell = 2k: the zero-threshold build
    few = np.repeat(X[:4], 50, axis=0)
    for k in (2, 3):
        emit(f"oracle build_feedback zero threshold k={k}",
             *state_parts(oracle.build_feedback(sp2, few, w[: few.shape[0]], k=k, eps=0.3,
                                                seed=k)))
    M = np.vstack([X[:5], X[:2], X[:5] + 1e6])  # the far copies own no point
    probs = one2all_probs(sp2, X, w, M)
    emit("one2all_probs empty cells", probs.pi, probs.M, probs.cost_m, probs.dropped_empty_cells)

    small = X[:3000]
    cases = {f"power {p:g}": (MetricSpace.euclidean(p), small) for p in (1.0, 2.0, 3.0)}
    cases["matrix"] = (MetricSpace.from_matrix(pairwise(MetricSpace.euclidean(1.0),
                                                        small[:600], small[:600])),
                       np.arange(600))
    for name, (space, P) in cases.items():
        tr = run_trace(space, P, w[: P.shape[0]], 12, seed=9)
        emit(f"run_trace {name}", tr.centroid_indices, tr.prefix_costs)
        emit(f"replay {name}", *(x for i, o, d, v in replay(tr) for x in (i, o, d, v)))
        i_star, probs = sweet_spot(tr, C=float(tr.prefix_costs[-1]), eps=0.3)
        emit(f"sweet_spot exact {name}", i_star, probs.pi, probs.M, probs.cost_m,
             probs.dropped_empty_cells)


def kernel_outputs() -> None:
    """Estimated oracle answers at powers 1 and 3 and at d = 50 and 784, and
    nearest over 2*10^5 rows at d = 10 and 50: outputs of the feature-major
    and the row-major kernels on each side of core._COLUMNS_MAX_D."""
    cases = [(1.0, 8, 30000), (3.0, 8, 30000), (2.0, 50, 20000), (2.0, 784, 3000)]
    for power, d, n in cases:
        X = gen_gmm(n, d, 6, seed=21).points.points
        st = oracle.build_feedback(MetricSpace.euclidean(power), X, None, k=6, eps=0.25, seed=22)
        rng = np.random.default_rng(23)
        queries = [X[rng.choice(n, m, replace=False)] for m in (1, 2, 3, 6, 12)]
        queries.append(np.vstack([queries[3], queries[3][::-1]]))  # duplicated centroids
        emit(f"oracle query power {power:g} d={d}", [oracle.query(st, Q) for Q in queries],
             st.sample.members)
    for d, k in ((10, 10), (50, 20)):
        X = gen_gmm(200000, d, k, seed=24).points.points
        rng = np.random.default_rng(25)
        Q = np.vstack([X[rng.choice(X.shape[0], k, replace=False)], rng.normal(size=(3, d))])
        for m in (1, Q.shape[0]):
            emit(f"nearest d={d} k={m}", *nearest(MetricSpace.euclidean(2.0), X, Q[:m]))


def main() -> None:
    library_outputs()
    kernel_outputs()
    with tempfile.TemporaryDirectory() as tmp:
        cli_outputs(tmp)
        file_outputs(tmp)


if __name__ == "__main__":
    main()
