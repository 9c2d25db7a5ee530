"""In-memory span tracing of one2all's layer boundaries, from outside the package.

`install` wraps each function in `TARGETS` in the module that defines it and
rebinds every other name a one2all module holds for the same function object
(`from .core import nearest` makes such a second name, and `core.cost`
reaches `nearest` through its module global). Each call then records a span:
name, start, end, parent span, run id, plus a few attributes read from its
arguments and result. `kmeanspp.replay` is a generator, so each step of its
iterator gets its own span. Spans stay in memory; `Tracer.dump` writes them
when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _distance_attrs(args, kwargs, result):
    X, Q = (np.asarray(getattr(a, "points", a)) for a in args[1:3])
    return {"rows": X.shape[0], "cols": Q.shape[0] if Q.ndim == 2 else 1, "d": X.shape[-1]}


def _trace_attrs(args, kwargs, result):
    return {"rows": np.shape(getattr(args[1], "points", args[1]))[0], "ell": result.ell}


def _sweet_spot_attrs(args, kwargs, result):
    return {"i_star": result[0], "ell": args[0].ell}


def _base_cluster_attrs(args, kwargs, result):
    return {"rows": np.shape(getattr(args[1], "points", args[1]))[0]}


def _wrapper_attrs(args, kwargs, result):
    rep = result[1]
    accepted = sum(1 for entry in rep.log if entry["action"] == "accept")
    return {"rounds": rep.rounds, "accepted": accepted, "sample": rep.sample_size}


def _query_before(args, kwargs):
    return {"updates_before": args[0].update_count}


def _query_attrs(args, kwargs, result):
    state = args[0]
    return {"exact": result[1], "updates_after": state.update_count, "sample": state.size}


# (module, attribute, span name, attribute reader or None, pre-call reader or None)
TARGETS = [
    ("core", "nearest", "core.nearest", _distance_attrs, None),
    ("core", "pairwise", "core.pairwise", _distance_attrs, None),
    ("core", "cost", "core.cost", None, None),
    ("kmeanspp", "run_trace", "kmeanspp.run_trace", _trace_attrs, None),
    ("lloyd", "base_cluster", "lloyd.base_cluster", _base_cluster_attrs, None),
    ("lloyd", "lloyd_step", "lloyd.lloyd_step", None, None),
    ("probabilities", "sweet_spot", "probabilities.sweet_spot", _sweet_spot_attrs, None),
    ("probabilities", "one2all_probs", "probabilities.one2all_probs", None, None),
    ("sampling", "point_uniforms", "sampling.point_uniforms", None, None),
    ("sampling", "draw", "sampling.draw", None, None),
    ("sampling", "estimate_cost", "sampling.estimate_cost", None, None),
    ("oracle", "build_feedback", "oracle.build_feedback", None, None),
    ("oracle", "feedback_query", "oracle.feedback_query", _query_attrs, _query_before),
    ("oracle", "save", "oracle.save", None, None),
    ("oracle", "load", "oracle.load", None, None),
    ("wrapper", "run", "wrapper.run", _wrapper_attrs, None),
    ("data", "gen_gmm", "data.gen_gmm", None, None),
    ("data", "dump_delimited", "data.dump_delimited", None, None),
    ("data", "load_delimited", "data.load_delimited", None, None),
    ("cli", "main", "cli.main", None, None),
]
GENERATORS = [("kmeanspp", "replay", "kmeanspp.replay")]
METHODS = [("sampling", "CoordinatedSample", "with_probabilities", "sampling.regrow")]


class Tracer:
    """Spans as [name, start, end, parent index, run id, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, attrs: dict | None) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = attrs

    def wrap(self, fn, name, reader=None, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            idx = self._open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if reader is not None:
                    attrs = reader(args, kwargs, result)
                    if pre:
                        attrs.update(pre)
                return result
            finally:
                self._close(idx, attrs)

        return traced

    def wrap_generator(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx, None)
                yield item

        return traced

    def install(self, package: str = "one2all"):
        """Wrap every target; returns a function that undoes it."""
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == package or n.startswith(package + "."))}
        undo = []
        replacements = []
        for mod, attr, name, reader, before in TARGETS:
            orig = getattr(mods[f"{package}.{mod}"], attr)
            replacements.append((orig, self.wrap(orig, name, reader, before)))
        for mod, attr, name in GENERATORS:
            orig = getattr(mods[f"{package}.{mod}"], attr)
            replacements.append((orig, self.wrap_generator(orig, name)))
        for orig, new in replacements:
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        undo.append((m, key, orig))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(mods[f"{package}.{mod}"], cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(orig, name))
            undo.append((cls, attr, orig))

        def uninstall():
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

        return uninstall

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "run", "attrs"],
                       "spans": self.spans}, f, separators=(",", ":"))


def layer_metrics(spans: list[list], n_full: int) -> dict[str, float]:
    """Per-layer totals from spans (set-up spans in run 0, op spans in runs >= 1).

    Self time is a span's duration minus its direct children's durations;
    spans nest strictly because the program is single-threaded. Counts of
    distance work are computed from argument shapes, not measured.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, run, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    by_name = defaultdict(list)
    full_passes = dist_evals = flops = nbytes = trace_steps = grow_steps = 0
    trace_full_s = trace_sample_s = 0.0
    for i, (name, start, end, parent, run, attrs) in enumerate(spans):
        key = name if run >= 1 else "setup:" + name
        total[key] += end - start
        self_s[key] += end - start - child[i]
        calls[key] += 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if run >= 1 and name == "sampling.regrow" and parent_name == "wrapper.run":
            grow_steps += 1
        if run < 1 or attrs is None:
            continue
        by_name[name].append(attrs)
        if name in ("core.nearest", "core.pairwise"):
            r, c, d = attrs["rows"], attrs["cols"], attrs["d"]
            full_passes += r == n_full
            dist_evals += r * c
            flops += 3 * r * c * d
            nbytes += 8 * (r * d + c * d + r * c)
        elif name == "kmeanspp.run_trace":
            if parent_name == "lloyd.base_cluster":
                trace_sample_s += end - start
            else:
                trace_full_s += end - start
                trace_steps += attrs["ell"]
    sweet = [a["i_star"] / a["ell"] for a in by_name["probabilities.sweet_spot"]]
    queries = by_name["oracle.feedback_query"]
    exact = sum(1 for a in queries if a["exact"])
    runs = by_name["wrapper.run"]
    rounds = sum(a["rounds"] for a in runs)
    return {
        "core.nearest.self_s": self_s["core.nearest"],
        "core.pairwise.self_s": self_s["core.pairwise"],
        "core.cost.s": total["core.cost"],
        "core.full_passes": full_passes,
        "core.dist_evals": dist_evals,
        "core.flops_computed": flops,
        "core.bytes_computed": nbytes,
        "kmeanspp.run_trace.full.s": trace_full_s,
        "kmeanspp.run_trace.sample.s": trace_sample_s,
        "kmeanspp.replay.s": total["kmeanspp.replay"],
        "kmeanspp.trace_steps": trace_steps,
        "kmeanspp.prefix_used_ratio": float(np.mean(sweet)) if sweet else 0.0,
        "lloyd.base_cluster.s": total["lloyd.base_cluster"],
        "lloyd.lloyd_step.calls": calls["lloyd.lloyd_step"],
        "lloyd.input_pts": sum(a["rows"] for a in by_name["lloyd.base_cluster"]),
        "probabilities.sweet_spot.s": total["probabilities.sweet_spot"],
        "probabilities.one2all_probs.s": total["probabilities.one2all_probs"],
        "sampling.point_uniforms.s": total["sampling.point_uniforms"],
        "sampling.draw.s": total["sampling.draw"],
        "sampling.estimate_cost.s": total["sampling.estimate_cost"],
        "sampling.estimate_cost.calls": calls["sampling.estimate_cost"],
        "sampling.regrow.calls": calls["sampling.regrow"],
        "oracle.build_feedback.self_s": self_s["oracle.build_feedback"],
        "oracle.feedback_query.s": total["oracle.feedback_query"],
        "oracle.exact_answers": exact,
        "oracle.updates": sum(a["updates_after"] - a["updates_before"] for a in queries),
        "oracle.estimated_ratio": (len(queries) - exact) / len(queries) if queries else 0.0,
        "oracle.final_sample": queries[-1]["sample"] if queries else 0,
        "oracle.save.s": total["oracle.save"],
        "oracle.load.s": total["oracle.load"],
        "wrapper.run.self_s": self_s["wrapper.run"],
        "wrapper.rounds": rounds,
        "wrapper.accept_ratio": sum(a["accepted"] for a in runs) / rounds if rounds else 0.0,
        "wrapper.grow_steps": grow_steps,
        "wrapper.final_sample": float(np.median([a["sample"] for a in runs])) if runs else 0.0,
        "data.gen_gmm.s": total["setup:data.gen_gmm"],
        "data.dump_delimited.s": total["setup:data.dump_delimited"],
        "data.load_delimited.s": total["data.load_delimited"],
        "cli.main.self_s": self_s["cli.main"],
    }
