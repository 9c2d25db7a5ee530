"""Command-line behavior: exit codes, output determinism, file outputs."""

import functools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import one2all
from one2all.cli import build_parser, main
from one2all.data import load_delimited


def _gen(tmp_path, n=400, d=3, k=2, seed=0, name="data.csv"):
    path = tmp_path / name
    rc = main(["gen", "--n", str(n), "--d", str(d), "--k", str(k),
               "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return path


def _one2all_process(*argv, **env):
    """Run `python -m one2all argv` on this source tree, with extra environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(one2all.__file__)))
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "one2all", *map(str, argv)],
                          capture_output=True, timeout=300, env=env)


def _write_query(tmp_path, Q, name="query.csv"):
    path = tmp_path / name
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in Q) + "\n")
    return path


# gen ----------------------------------------------------------------------


def test_gen_writes_loadable_dataset(tmp_path, capsys):
    path = _gen(tmp_path, n=100, d=2, k=3, seed=5)
    out = capsys.readouterr().out
    assert "wrote 100 points" in out
    ds = load_delimited(path)
    assert ds.n == 100 and ds.d == 2
    assert ds.ground_truth.k == 3


def test_gen_deterministic_bytes(tmp_path):
    a = _gen(tmp_path, seed=7, name="a.csv")
    b = _gen(tmp_path, seed=7, name="b.csv")
    assert a.read_bytes() == b.read_bytes()
    c = _gen(tmp_path, seed=8, name="c.csv")
    assert a.read_bytes() != c.read_bytes()


def test_gen_rejects_bad_arguments(capsys):
    assert main(["gen", "--n", "-5", "--d", "2", "--k", "2", "--out", "x"]) == 1
    assert main(["gen", "--n", "10", "--d", "2", "--k", "2"]) == 1  # no --out
    err = capsys.readouterr().err
    assert "error" in err


# cluster --------------------------------------------------------------------


def test_cluster_outputs_centroids_and_report(tmp_path, capsys):
    path = _gen(tmp_path, n=600, d=3, k=2, seed=1)
    capsys.readouterr()
    rc = main(["cluster", "--in", str(path), "--k", "2", "--eps", "0.3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[-1])
    centroids = [[float(v) for v in ln.split(",")] for ln in lines[:-1]]
    assert len(centroids) == 2 and len(centroids[0]) == 3
    assert report["certified"] is True
    assert 0 < report["sample_fraction"] <= 1


def test_cluster_repeat_runs_byte_identical(tmp_path, capsys):
    path = _gen(tmp_path, n=500, d=2, k=2, seed=2)
    capsys.readouterr()
    argv = ["cluster", "--in", str(path), "--k", "2", "--eps", "0.25", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("seed, lloyd_iters", [(0, 20), (857383212, 3)])
def test_cluster_prints_what_cluster_adaptive_returns(tmp_path, capsys, seed, lloyd_iters):
    # the CLI seed reaches the base clusterer only through the wrapper's round seeds
    path = _gen(tmp_path, n=3000, d=4, k=3, seed=5)
    capsys.readouterr()
    assert main(["cluster", "--in", str(path), "--k", "3", "--eps", "0.2", "--seed", str(seed),
                 "--lloyd-iters", str(lloyd_iters)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ds = load_delimited(path)
    base = functools.partial(one2all.base_cluster, lloyd_iters=lloyd_iters)
    Q, rep = one2all.cluster_adaptive(one2all.MetricSpace.euclidean(2.0), ds.points.points,
                                      ds.points.weights, 3, 0.2, base=base, seed=seed)
    assert lines[:-1] == [",".join(repr(float(v)) for v in q) for q in Q.points]
    assert json.loads(lines[-1])["best_cost"] == rep.best_cost


def test_cluster_missing_file_is_data_error(capsys):
    rc = main(["cluster", "--in", "/nonexistent/x.csv", "--k", "2", "--eps", "0.3"])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_cluster_on_a_directory_is_data_error(tmp_path):
    proc = _one2all_process("cluster", "--in", tmp_path, "--k", "2", "--eps", "0.3")
    assert proc.returncode == 2
    assert b"data error" in proc.stderr and b"Traceback" not in proc.stderr


def test_non_finite_input_is_data_error(tmp_path, capsys):
    path = _gen(tmp_path, n=200, d=2, k=2, seed=4)
    lines = path.read_text().splitlines()
    first_row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[first_row + 5] = "nan,1.0"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["cluster", "--in", str(bad), "--k", "2", "--eps", "0.3"]) == 2
    assert "NaN or inf" in capsys.readouterr().err
    oracle_path = tmp_path / "o.npz"
    assert main(["oracle-build", "--in", str(bad), "--k", "2", "--eps", "0.3",
                 "--out", str(oracle_path)]) == 2
    assert main(["oracle-build", "--in", str(path), "--k", "2", "--eps", "0.3",
                 "--out", str(oracle_path)]) == 0
    qpath = _write_query(tmp_path, [[0.0, 1.0], [float("inf"), 2.0]])
    capsys.readouterr()
    assert main(["oracle-query", "--oracle", str(oracle_path), "--query", str(qpath)]) == 2
    assert "NaN or inf" in capsys.readouterr().err


# oracle build / query ---------------------------------------------------------


def test_oracle_build_query_feedback_cycle(tmp_path, capsys):
    path = _gen(tmp_path, n=800, d=3, k=3, seed=3)
    oracle_path = tmp_path / "oracle.npz"
    rc = main(["oracle-build", "--in", str(path), "--k", "3", "--eps", "0.3",
               "--out", str(oracle_path)])
    assert rc == 0
    build_report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert build_report["n"] == 800
    assert oracle_path.exists()

    ds = load_delimited(path)
    qpath = _write_query(tmp_path, ds.points.points[:3])
    rc = main(["oracle-query", "--oracle", str(oracle_path), "--query", str(qpath)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    qfile, value = line.split("\t")
    assert qfile == str(qpath)
    assert float(value) >= 0

    # feedback mode may rewrite the oracle in place
    rc = main(["oracle-query", "--oracle", str(oracle_path), "--query", str(qpath),
               "--feedback", "--data", str(path)])
    assert rc == 0
    fields = capsys.readouterr().out.strip().split("\t")
    assert fields[2] in ("exact", "estimate")


def test_oracle_query_repeatable_flag(tmp_path, capsys):
    path = _gen(tmp_path, n=300, d=2, k=2, seed=4)
    oracle_path = tmp_path / "o.npz"
    main(["oracle-build", "--in", str(path), "--k", "2", "--eps", "0.4",
          "--out", str(oracle_path)])
    ds = load_delimited(path)
    q1 = _write_query(tmp_path, ds.points.points[:2], "q1.csv")
    q2 = _write_query(tmp_path, ds.points.points[2:4], "q2.csv")
    capsys.readouterr()
    rc = main(["oracle-query", "--oracle", str(oracle_path),
               "--query", str(q1), "--query", str(q2)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_oracle_usage_errors(tmp_path, capsys):
    path = _gen(tmp_path, n=100, d=2, k=2, seed=5)
    oracle_path = tmp_path / "o.npz"
    # threshold without ell
    rc = main(["oracle-build", "--in", str(path), "--threshold", "5.0",
               "--eps", "0.3", "--out", str(oracle_path)])
    assert rc == 1
    # neither k nor ell+threshold
    rc = main(["oracle-build", "--in", str(path), "--eps", "0.3",
               "--out", str(oracle_path)])
    assert rc == 1
    # feedback without data
    main(["oracle-build", "--in", str(path), "--k", "2", "--eps", "0.3",
          "--out", str(oracle_path)])
    ds = load_delimited(path)
    qpath = _write_query(tmp_path, ds.points.points[:2])
    rc = main(["oracle-query", "--oracle", str(oracle_path), "--query", str(qpath),
               "--feedback"])
    assert rc == 1


def test_cluster_negative_lloyd_iters_is_usage_error(tmp_path, capsys):
    # rejected while parsing, before the (missing) input file is read
    rc = main(["cluster", "--in", str(tmp_path / "missing.csv"), "--k", "2",
               "--eps", "0.3", "--lloyd-iters", "-1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--lloyd-iters must be nonnegative" in err
    assert "data error" not in err
    assert main(["cluster", "--in", str(tmp_path / "missing.csv"), "--k", "2",
                 "--eps", "0.3", "--lloyd-iters", "0"]) == 2  # 0 parses; the file is missing


def test_oracle_query_dimension_mismatch(tmp_path, capsys):
    path = _gen(tmp_path, n=100, d=3, k=2, seed=6)
    oracle_path = tmp_path / "o.npz"
    main(["oracle-build", "--in", str(path), "--k", "2", "--eps", "0.3",
          "--out", str(oracle_path)])
    qpath = _write_query(tmp_path, np.zeros((2, 5)))
    rc = main(["oracle-query", "--oracle", str(oracle_path), "--query", str(qpath)])
    assert rc == 2
    assert "dimension" in capsys.readouterr().err


@pytest.fixture
def saved_oracle(tmp_path):
    data = _gen(tmp_path, n=2000, d=3, k=3)
    path = tmp_path / "o.npz"
    assert main(["oracle-build", "--in", str(data), "--k", "3", "--eps", "0.3",
                 "--out", str(path)]) == 0
    return path, _write_query(tmp_path, np.zeros((2, 3)))


def test_oracle_query_on_a_file_missing_a_key_is_data_error(saved_oracle):
    path, query = saved_oracle
    blob = dict(np.load(path, allow_pickle=False))
    del blob["p"]
    np.savez(path, **blob)
    proc = _one2all_process("oracle-query", "--oracle", path, "--query", query)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert b"lacks p" in proc.stderr


def _damage(path, how):
    """Overwrite a saved oracle with its first 5,000 bytes, nothing, or a .npy file."""
    if how == "truncated":
        path.write_bytes(path.read_bytes()[:5000])
    elif how == "empty":
        path.write_bytes(b"")
    else:
        with open(path, "wb") as f:
            np.save(f, np.zeros(3))


@pytest.mark.parametrize("how", ["truncated", "empty", "npy"])
def test_oracle_query_on_an_unreadable_file_is_data_error(saved_oracle, capsys, how):
    path, query = saved_oracle
    _damage(path, how)
    capsys.readouterr()
    assert main(["oracle-query", "--oracle", str(path), "--query", str(query)]) == 2
    assert "cannot read oracle file" in capsys.readouterr().err


def test_oracle_query_on_a_truncated_file_prints_no_traceback(saved_oracle):
    path, query = saved_oracle
    _damage(path, "truncated")
    proc = _one2all_process("oracle-query", "--oracle", path, "--query", query)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr and b"data error" in proc.stderr


def test_feedback_session_without_an_update_leaves_the_file(tmp_path, capsys, monkeypatch):
    # an oracle updated in an earlier session is rewritten only by a session
    # that updates it again
    path = _gen(tmp_path, n=800, d=3, k=3, seed=3)
    oracle_path = tmp_path / "oracle.npz"
    assert main(["oracle-build", "--in", str(path), "--k", "3", "--eps", "0.3",
                 "--out", str(oracle_path)]) == 0
    points = load_delimited(path).points.points
    low = _write_query(tmp_path, points[::4], "low.csv")
    feedback = ["--feedback", "--data", str(path)]
    assert main(["oracle-query", "--oracle", str(oracle_path), "--query", str(low),
                 *feedback]) == 0
    assert capsys.readouterr().out.rstrip().endswith("exact")
    assert one2all.oracle.load(oracle_path).update_count == 1
    high = _write_query(tmp_path, [[1e4, 1e4, 1e4]], "high.csv")

    def no_save(*args):
        raise AssertionError("a session without an update saved the oracle")

    monkeypatch.setattr(one2all.oracle, "save", no_save)
    assert main(["oracle-query", "--oracle", str(oracle_path), "--query", str(high),
                 *feedback]) == 0
    assert capsys.readouterr().out.rstrip().endswith("estimate")


def test_oracle_fixed_threshold_build(tmp_path, capsys):
    path = _gen(tmp_path, n=200, d=2, k=2, seed=7)
    oracle_path = tmp_path / "o.npz"
    rc = main(["oracle-build", "--in", str(path), "--ell", "4",
               "--threshold", "100.0", "--eps", "0.5", "--out", str(oracle_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["C"] == 100.0


# bench -------------------------------------------------------------------------


def test_bench_custom_cell_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    rc = main(["bench", "--n", "800", "--d", "3", "--k", "2", "--eps", "0.3",
               "--eps", "0.5", "--reps", "1", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    rows = [json.loads(ln) for ln in out.read_text().strip().splitlines()]
    assert len(rows) == 2
    assert {r["eps"] for r in rows} == {0.3, 0.5}
    assert "wall" not in rows[0]
    # wall times only on stderr; summary table + aggregates on stdout
    assert "[bench]" in captured.err
    assert captured.out.splitlines()[0].startswith("n\t")


def test_bench_requires_preset_or_full_cell(capsys):
    assert main(["bench", "--n", "100"]) == 1


def test_bench_stdout_deterministic(tmp_path, capsys):
    argv = ["bench", "--n", "500", "--d", "2", "--k", "2", "--eps", "0.4",
            "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


# figdata -------------------------------------------------------------------------


def test_figdata_emits_two_tsv_files(tmp_path, capsys):
    prefix = tmp_path / "curve"
    rc = main(["figdata", "--n", "1000", "--d", "3", "--k", "4",
               "--out", str(prefix)])
    assert rc == 0
    cost_rows = (tmp_path / "curve-cost.tsv").read_text().strip().splitlines()
    over_rows = (tmp_path / "curve-overhead.tsv").read_text().strip().splitlines()
    assert len(cost_rows) == 8 and len(over_rows) == 8
    i, v = cost_rows[0].split("\t")
    assert int(i) == 1 and float(v) > 0


def test_figdata_accepts_dataset_file(tmp_path, capsys):
    path = _gen(tmp_path, n=300, d=2, k=2, seed=8)
    prefix = tmp_path / "fig"
    rc = main(["figdata", "--in", str(path), "--k", "2", "--out", str(prefix)])
    assert rc == 0
    assert (tmp_path / "fig-cost.tsv").exists()


# global flags -------------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_cluster_stdout_independent_of_blas_threads(tmp_path):
    # thread counts must be set before numpy loads, so each run is a process
    path = _gen(tmp_path, n=3000, d=12, k=4, seed=9)
    outs = []
    for threads in ("1", "2"):
        proc = _one2all_process(
            "cluster", "--in", path, "--k", "4", "--eps", "0.2", "--seed", "3",
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 5


def test_readme_commands_parse():
    # every `one2all ...` line in the README's sh blocks names real flags
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    commands = [line for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("one2all ")]
    assert len(commands) >= 7
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
