"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data/format error. Primary output
(stdout and --out files) is a pure function of argv plus seeds; wall-clock
timings go to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bench, data, oracle
from .core import MetricSpace
from .errors import DataFormatError
from .lloyd import base_cluster
from .wrapper import run as wrapper_run

_SPACE = MetricSpace.euclidean(2.0)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _checked(kind, name, ok, what):
    def convert(text):
        try:
            v = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number")
        if not ok(v):
            raise argparse.ArgumentTypeError(f"{name} must be {what}")
        return v

    return convert


def _positive(kind, name):
    return _checked(kind, name, lambda v: v > 0, "positive")


def _nonnegative(kind, name):
    return _checked(kind, name, lambda v: v >= 0, "nonnegative")


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delimiter", default=",")


def build_parser() -> _Parser:
    parser = _Parser(prog="one2all", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a Gaussian-mixture dataset")
    p.add_argument("--n", type=_positive(int, "--n"), required=True)
    p.add_argument("--d", type=_positive(int, "--d"), required=True)
    p.add_argument("--k", type=_positive(int, "--k"), required=True)
    p.add_argument("--delta-spacing", type=_positive(float, "--delta-spacing"),
                   default=10.0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle-build", help="build and serialize a cost oracle")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--k", type=_positive(int, "--k"),
                   help="feedback-style build: ell=2k, threshold=v_2k")
    p.add_argument("--ell", type=_positive(int, "--ell"),
                   help="trace length for a fixed-threshold build")
    p.add_argument("--threshold", type=_positive(float, "--threshold"),
                   help="supported cost threshold C (requires --ell)")
    p.add_argument("--eps", type=_positive(float, "--eps"), required=True)
    p.add_argument("--weight-column", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_oracle_build)

    p = sub.add_parser("oracle-query", help="estimate clustering costs from an oracle")
    p.add_argument("--oracle", required=True)
    p.add_argument("--query", action="append", required=True,
                   help="centroid file (one centroid per row); repeatable")
    p.add_argument("--feedback", action="store_true",
                   help="grow the oracle on low-cost queries (needs --data)")
    p.add_argument("--data", help="original dataset, required for --feedback")
    p.add_argument("--weight-column", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_oracle_query)

    p = sub.add_parser("cluster", help="cluster a dataset via adaptive sampling")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--k", type=_positive(int, "--k"), required=True)
    p.add_argument("--eps", type=_positive(float, "--eps"), required=True)
    p.add_argument("--lloyd-iters", type=_nonnegative(int, "--lloyd-iters"), default=20)
    p.add_argument("--max-rounds", type=_positive(int, "--max-rounds"), default=40)
    p.add_argument("--weight-column", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("bench", help="run a benchmark grid and report")
    p.add_argument("--preset", choices=sorted(bench.PRESETS))
    p.add_argument("--n", type=_positive(int, "--n"))
    p.add_argument("--d", type=_positive(int, "--d"))
    p.add_argument("--k", type=_positive(int, "--k"))
    p.add_argument("--eps", type=_positive(float, "--eps"), action="append")
    p.add_argument("--reps", type=_positive(int, "--reps"), default=1)
    p.add_argument("--out", help="write one JSON report per line here")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("figdata", help="emit per-prefix cost/overhead plot data")
    p.add_argument("--in", dest="inp", help="dataset file (default: generate)")
    p.add_argument("--n", type=_positive(int, "--n"), default=100_000)
    p.add_argument("--d", type=_positive(int, "--d"), default=10)
    p.add_argument("--k", type=_positive(int, "--k"), required=True)
    p.add_argument("--ell", type=_positive(int, "--ell"), default=None)
    p.add_argument("--weight-column", type=int, default=None)
    p.add_argument("--out", required=True, help="output path prefix")
    _add_common(p)
    p.set_defaults(func=cmd_figdata)

    return parser


def _load(args, path: str) -> data.LabeledDataset:
    return data.load_delimited(path, delimiter=args.delimiter,
                               weight_column=args.weight_column)


def cmd_gen(args) -> int:
    ds = data.gen_gmm(args.n, args.d, args.k, seed=args.seed,
                      spacing=args.delta_spacing)
    data.dump_delimited(ds, args.out, delimiter=args.delimiter)
    print(f"wrote {ds.n} points (d={ds.d}, k={args.k}) to {args.out}")
    return 0


def cmd_oracle_build(args) -> int:
    ds = _load(args, args.inp)
    X, w = ds.points.points, ds.points.weights
    if args.threshold is not None:
        if args.ell is None:
            raise _UsageError("--threshold requires --ell")
        state = oracle.build(_SPACE, X, w, ell=args.ell, C=args.threshold,
                             eps=args.eps, seed=args.seed)
    elif args.k is not None:
        state = oracle.build_feedback(_SPACE, X, w, k=args.k, eps=args.eps,
                                      seed=args.seed)
    else:
        raise _UsageError("need either --k (feedback build) or --ell with --threshold")
    oracle.save(state, args.out)
    print(json.dumps({
        "out": args.out, "n": int(state.sample.p.shape[0]), "sample_size": state.size,
        "C": state.C, "eps": state.eps, "prefix_index": state.prefix_index,
    }, sort_keys=True))
    return 0


def cmd_oracle_query(args) -> int:
    if args.feedback and not args.data:
        raise _UsageError("--feedback requires --data (exact costs need the dataset)")
    if args.data:
        ds = _load(args, args.data)
        state = oracle.load(args.oracle, points=ds.points.points,
                            weights=ds.points.weights)
    else:
        state = oracle.load(args.oracle)
    updates_before = state.update_count
    for qpath in args.query:
        Q = data.load_delimited(qpath, delimiter=args.delimiter).points.points
        if Q.shape[1] != state.sample.member_points.shape[1]:
            raise DataFormatError(
                f"{qpath}: centroid dimension {Q.shape[1]} does not match "
                f"the oracle's {state.sample.member_points.shape[1]}"
            )
        if args.feedback:
            value, was_exact = oracle.feedback_query(state, Q)
            print(f"{qpath}\t{value!r}\t{'exact' if was_exact else 'estimate'}")
        else:
            print(f"{qpath}\t{oracle.query(state, Q)!r}")
    if state.update_count > updates_before:
        oracle.save(state, args.oracle)
    return 0


def cmd_cluster(args) -> int:
    ds = _load(args, args.inp)
    X, w = ds.points.points, ds.points.weights
    base = functools.partial(base_cluster, lloyd_iters=args.lloyd_iters)
    Q, rep = wrapper_run(_SPACE, X, w, args.k, args.eps, base=base,
                         seed=args.seed, max_rounds=args.max_rounds)
    for q in Q.points:
        print(args.delimiter.join(repr(float(v)) for v in q))
    print(json.dumps({
        "certified": rep.certified, "rounds": rep.rounds,
        "sample_size": rep.sample_size, "sample_fraction": rep.sample_fraction,
        "best_cost": rep.best_cost, "sweet_spot": rep.sweet_spot_index,
    }, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    if args.preset:
        cells = bench.PRESETS[args.preset]
    else:
        if not (args.n and args.d and args.k and args.eps):
            raise _UsageError("bench needs --preset or all of --n --d --k --eps")
        cells = [{"n": args.n, "d": args.d, "k": args.k, "eps": e}
                 for e in args.eps]
    reports, aggregates = bench.run_grid(cells, repetitions=args.reps,
                                         base_seed=args.seed)
    lines = []
    for r in reports:
        if isinstance(r, bench.RunReport):
            lines.append(r.to_json())
            print(f"[bench] cell done in {r.wall.get('wrapper_s', 0):.1f}s "
                  f"(+{r.wall.get('est_err_s', 0):.1f}s est-err)", file=sys.stderr)
        else:
            lines.append(json.dumps(r, sort_keys=True))
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(lines) + "\n")
    print(bench.summary_table([r for r in reports if isinstance(r, bench.RunReport)]))
    for agg in aggregates:
        print(json.dumps(agg, sort_keys=True))
    return 0


def cmd_figdata(args) -> int:
    if args.inp:
        ds = _load(args, args.inp)
    else:
        ds = data.gen_gmm(args.n, args.d, args.k, seed=args.seed)
    table = bench.fig2_data(ds, args.k, seed=args.seed, ell=args.ell)
    paths = []
    for suffix, column in (("cost", "cost_ratio"), ("overhead", "overhead")):
        paths.append(f"{args.out}-{suffix}.tsv")
        with open(paths[-1], "w") as f:
            for i, v in zip(table["i"], table[column]):
                f.write(f"{int(i)}\t{float(v)!r}\n")
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        if e.code in (0, None):
            return 0
        return e.code if isinstance(e.code, int) else 1
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"one2all: error: {e}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, ValueError) as e:
        print(f"one2all: data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
