"""The benchmark's span hooks (perfbench/spans.py) still fit the package.

`perfbench/run.py --trace 1` wraps functions by module and name; a renamed
or deleted target would break the traced run with no other test noticing.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import one2all
import one2all.cli  # noqa: F401  (the hooks wrap cli and data too)
import one2all.data  # noqa: F401
from one2all.kmeanspp import run_trace
from one2all.probabilities import sweet_spot

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"one2all.{name}")


def test_every_hook_target_resolves():
    spans = _load_spans()
    for mod, attr, *_ in spans.TARGETS + spans.GENERATORS:
        assert callable(getattr(_module(mod), attr, None)), f"{mod}.{attr}"
    for mod, cls, attr, _ in spans.METHODS:
        assert callable(vars(getattr(_module(mod), cls)).get(attr)), f"{mod}.{cls}.{attr}"
    names = {(mod, attr) for mod, attr, *_ in spans.TARGETS + spans.GENERATORS}
    assert {("kmeanspp", "replay"), ("probabilities", "one2all_probs")} <= names
    assert ("sampling", "CoordinatedSample", "with_probabilities") in {
        m[:3] for m in spans.METHODS}


def test_tracer_installs_records_and_uninstalls():
    spans = _load_spans()
    targets = [(mod, attr) for mod, attr, *_ in spans.TARGETS + spans.GENERATORS]
    before = {t: getattr(_module(t[0]), t[1]) for t in targets}
    methods = [(getattr(_module(mod), cls), attr) for mod, cls, attr, _ in spans.METHODS]
    method_before = [vars(cls)[attr] for cls, attr in methods]
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        for t in targets:
            assert getattr(_module(t[0]), t[1]) is not before[t], t
        X = np.random.default_rng(0).normal(size=(200, 2))
        trace = one2all.kmeanspp.run_trace(one2all.MetricSpace.euclidean(2.0), X, None, 4, 0)
        one2all.probabilities.sweet_spot(trace, C=1.0, eps=0.5)
    finally:
        uninstall()
    for t in targets:
        assert getattr(_module(t[0]), t[1]) is before[t], t
    assert [vars(cls)[attr] for cls, attr in methods] == method_before
    assert run_trace is before[("kmeanspp", "run_trace")]
    assert sweet_spot is before[("probabilities", "sweet_spot")]
    names = [span[0] for span in tracer.spans]
    assert names.count("kmeanspp.replay") == 5  # four steps and the exhausted call
    assert "probabilities.sweet_spot" in names and "kmeanspp.run_trace" in names


def _traced(call):
    """Run call() under the tracer; return its spans."""
    tracer = _load_spans().Tracer()
    uninstall = tracer.install()
    try:
        call()
    finally:
        uninstall()
    return tracer.spans


def _base_cluster_spans_with_traces(spans):
    """How many lloyd.base_cluster spans there are, and how many of them
    have kmeanspp.run_trace children."""
    bases = [i for i, span in enumerate(spans) if span[0] == "lloyd.base_cluster"]
    parents = {span[3] for span in spans if span[0] == "kmeanspp.run_trace"}
    return len(bases), sum(i in parents for i in bases)


def test_default_base_is_traced_from_the_library_and_the_cli(tmp_path, capsys):
    # a base bound when wrapper.run is defined (or built before tracing)
    # escapes the hooks, and lloyd.base_cluster.s, lloyd.input_pts and
    # kmeanspp.run_trace.sample.s then read 0
    X = np.random.default_rng(0).normal(size=(600, 3))
    sp = one2all.MetricSpace.euclidean(2.0)
    spans = _traced(lambda: one2all.cluster_adaptive(sp, X, None, 3, 0.3, seed=1))
    count, with_traces = _base_cluster_spans_with_traces(spans)
    assert count >= 1 and with_traces == count
    path = tmp_path / "data.csv"
    assert one2all.cli.main(["gen", "--n", "600", "--d", "3", "--k", "3",
                             "--out", str(path)]) == 0
    codes = []
    spans = _traced(lambda: codes.append(one2all.cli.main(
        ["cluster", "--in", str(path), "--k", "3", "--eps", "0.3"])))
    assert codes == [0]
    count, with_traces = _base_cluster_spans_with_traces(spans)
    assert count >= 1 and with_traces == count
    assert spans[0][0] == "cli.main"
    capsys.readouterr()
