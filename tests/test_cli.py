"""Command-line behavior: exit codes, output determinism, file outputs."""

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


def _one2all_process(*argv, stdin=None, **env):
    """Run `python -m one2all argv` on this source tree, with extra environment
    and the bytes stdin, if given, piped in."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(one2all.__file__)))
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "one2all", *map(str, argv)],
                          capture_output=True, timeout=300, env=env, input=stdin)


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


@pytest.mark.parametrize("delim", ["", ".", "\n", "-"])
def test_gen_rejects_a_delimiter_it_cannot_read_back(tmp_path, capsys, delim):
    path = tmp_path / "data.csv"
    assert main(["gen", "--n", "5", "--d", "2", "--k", "1", "--out", str(path),
                 "--delimiter", delim]) == 1
    assert "--delimiter" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("delim", [" ", "\t"])
def test_gen_then_cluster_with_a_whitespace_delimiter(tmp_path, capsys, delim):
    path = tmp_path / "data.txt"
    assert main(["gen", "--n", "300", "--d", "3", "--k", "2", "--out", str(path),
                 "--delimiter", delim]) == 0
    capsys.readouterr()
    assert main(["cluster", "--in", str(path), "--k", "2", "--eps", "0.3",
                 "--delimiter", delim]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [len(line.split(delim)) for line in lines[:-1]] == [3, 3]


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


@pytest.mark.parametrize("seed", [0, 857383212])
def test_cluster_prints_what_cluster_adaptive_returns(tmp_path, capsys, seed):
    # the CLI seed reaches the base clusterer only through the wrapper's round seeds
    path = _gen(tmp_path, n=3000, d=4, k=3, seed=5)
    capsys.readouterr()
    assert main(["cluster", "--in", str(path), "--k", "3", "--eps", "0.2",
                 "--seed", str(seed)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ds = load_delimited(path)
    Q, rep = one2all.cluster_adaptive(one2all.MetricSpace.euclidean(2.0), ds.points.points,
                                      ds.points.weights, 3, 0.2, seed=seed)
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


def test_cluster_reads_a_pipe_as_it_reads_the_file(tmp_path):
    path = _gen(tmp_path, n=3000, d=4, k=3, seed=2)
    argv = ("cluster", "--k", "3", "--eps", "0.3", "--seed", "1")
    from_file = _one2all_process(*argv, "--in", path)
    piped = _one2all_process(*argv, "--in", "/dev/stdin", stdin=path.read_bytes())
    assert from_file.returncode == piped.returncode == 0, piped.stderr.decode()
    assert piped.stdout == from_file.stdout
    for blob, message in ((b"1,2\n# c\n3,x\n", b"/dev/stdin: row 3: could not convert"),
                          (b"1,2\n3,\xff\n", b"/dev/stdin: not valid utf-8 text")):
        bad = _one2all_process(*argv, "--in", "/dev/stdin", stdin=blob)
        assert bad.returncode == 2
        assert message in bad.stderr.lower() and b"Traceback" not in bad.stderr


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


_BUILD = ["oracle-build", "--in", "x.csv", "--eps", "0.3", "--out", "o.npz"]
_FIGDATA = ["figdata", "--k", "2", "--out", "fig"]


@pytest.mark.parametrize("argv, message", [
    ([*_BUILD, "--k", "3", "--ell", "10", "--threshold", "5"], "not allowed with"),
    ([*_BUILD, "--k", "3", "--ell", "10"], "--ell and --threshold go together"),
    ([*_BUILD, "--threshold", "5"], "--ell and --threshold go together"),
    (_BUILD, "one of the arguments --k --threshold is required"),
    ([*_FIGDATA, "--in", "x.csv", "--n", "7", "--d", "2"], "do not go with --in"),
    ([*_FIGDATA, "--in", "x.csv", "--n", "7"], "do not go with --in"),
    ([*_FIGDATA, "--n", "50", "--weight-column", "1"], "--weight-column requires --in"),
    (["oracle-query", "--oracle", "o.npz", "--query", "q.csv", "--weight-column", "1"],
     "--weight-column requires --data"),
], ids=["oracle-build-k-and-threshold", "oracle-build-k-and-ell", "oracle-build-threshold-alone",
        "oracle-build-no-mode", "figdata-in-n-d", "figdata-in-n", "figdata-weight-column",
        "oracle-query-weight-column"])
def test_a_setting_the_mode_ignores_is_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    # refused before any input is read or output written
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


_SEEDED = {  # each subcommand that takes --seed, with the rest of a valid argv
    "gen": ["gen", "--n", "10", "--d", "2", "--k", "2", "--out", "x.csv"],
    "oracle-build": [*_BUILD, "--k", "2"],
    "cluster": ["cluster", "--in", "x.csv", "--k", "2", "--eps", "0.3"],
    "bench": ["bench", "--n", "300", "--d", "2", "--k", "2", "--eps", "0.3"],
    "figdata": _FIGDATA,
}


def test_a_negative_seed_is_usage_error(tmp_path, capsys, monkeypatch):
    (commands,) = [a for a in build_parser()._actions if a.choices]
    assert set(_SEEDED) == {name for name, p in commands.choices.items()
                            if any("--seed" in a.option_strings for a in p._actions)}
    monkeypatch.chdir(tmp_path)  # refused while parsing: no file is read or written
    for command, argv in _SEEDED.items():
        assert main([*argv, "--seed", "-1"]) == 1, command
        assert "--seed must be nonnegative" in capsys.readouterr().err, command
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["cluster", "--in", "x.csv", "--k", "2", "--eps", "inf"],
    ["oracle-build", "--in", "x.csv", "--k", "2", "--eps", "Infinity", "--out", "o.npz"],
    ["oracle-build", "--in", "x.csv", "--ell", "2", "--threshold", "inf", "--eps", "0.3",
     "--out", "o.npz"],
    ["gen", "--n", "10", "--d", "2", "--k", "2", "--delta-spacing", "inf", "--out", "x.csv"],
    ["bench", "--n", "10", "--d", "2", "--k", "2", "--eps", "inf"],
], ids=["cluster-eps", "oracle-build-eps", "oracle-build-threshold", "gen-spacing", "bench-eps"])
def test_infinite_parameters_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # refused while parsing: no file is read or written
    assert main(argv) == 1
    assert "must be finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cluster_with_an_eps_too_small_to_square_prints_no_traceback(tmp_path):
    path = _gen(tmp_path, n=100, d=2, k=2, seed=4)
    proc = _one2all_process("cluster", "--in", path, "--k", "2", "--eps", "1e-300")
    assert proc.returncode != 0
    assert b"Traceback" not in proc.stderr and b"2**-511" in proc.stderr
    assert proc.stdout == b""


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
    del blob["pi"]
    np.savez(path, **blob)
    proc = _one2all_process("oracle-query", "--oracle", path, "--query", query)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert b"lacks pi" in proc.stderr


def test_oracle_query_on_a_file_with_a_bad_eps_is_data_error(saved_oracle):
    path, query = saved_oracle
    blob = dict(np.load(path, allow_pickle=False))
    blob["eps"] = np.float64(np.nan)
    np.savez(path, **blob)
    proc = _one2all_process("oracle-query", "--oracle", path, "--query", query)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert b"oracle eps must be finite" in proc.stderr


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


def test_empty_delimiter_is_usage_error_for_every_command(tmp_path, capsys):
    # rejected while parsing, before any input file is read; bench reads no
    # delimited file and takes no --delimiter
    missing = str(tmp_path / "missing.csv")
    for argv in (["gen", "--n", "5", "--d", "2", "--k", "1", "--out", missing],
                 ["cluster", "--in", missing, "--k", "2", "--eps", "0.3"],
                 ["oracle-build", "--in", missing, "--k", "2", "--eps", "0.3", "--out", missing],
                 ["oracle-query", "--oracle", missing, "--query", missing],
                 ["figdata", "--in", missing, "--k", "2", "--out", missing]):
        assert main([*argv, "--delimiter", ""]) == 1
        assert "delimiter must not be empty" in capsys.readouterr().err


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
