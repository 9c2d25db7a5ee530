"""Synthetic mixtures, delimited text round trips and loader checks, IDX parsing."""

import io
import os
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from one2all import data
from one2all.cli import main
from one2all.core import CentroidSet, MetricSpace, WeightedPointSet, cost, nearest
from one2all.data import dump_delimited, gen_gmm, load_delimited, load_idx
from one2all.errors import DataFormatError

SP2 = MetricSpace.euclidean(2.0)


# references: the per-cell loader, the per-row writer and the stacking
# generator that the bulk ones replaced, kept verbatim but for returning plain
# values and the loader's retired header option ---------------------------------


def reference_gen_gmm_points(n, d, k, seed, spacing=10.0):
    means = np.zeros((k, d))
    means[:, 0] = spacing * np.arange(k)
    root = np.random.SeedSequence(seed)
    rng = np.random.default_rng(root)
    sigmas = spacing * (1.0 - rng.random(k))
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    parts = []
    for child, mean, sigma, size in zip(root.spawn(k), means, sigmas, sizes):
        comp = np.random.default_rng(child)
        parts.append(mean + sigma * comp.standard_normal((size, d)))
    return np.vstack(parts)


def reference_load_delimited(path, delimiter=",", weight_column=None):
    gt_rows: list[list[float]] = []
    rows: list[list[float]] = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("weights: last-column") and weight_column is None:
                    weight_column = -1
                elif body.startswith("ground-truth:"):
                    payload = body.split(":", 1)[1]
                    gt_rows.append([float(v) for v in payload.split(delimiter)])
                continue
            cells = line.split(delimiter)
            try:
                rows.append([float(c) for c in cells])
            except ValueError as e:
                raise DataFormatError(f"{path}: row {lineno}: {e}") from None
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise DataFormatError(
                    f"{path}: row {lineno}: expected {len(rows[0])} columns, "
                    f"got {len(rows[-1])}"
                )
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise DataFormatError(f"{path}: NaN or inf in data row {bad + 1}")
    weights = None
    if weight_column is not None:
        col = weight_column % arr.shape[1]
        weights = arr[:, col]
        arr = np.delete(arr, col, axis=1)
        if np.any(weights <= 0):
            bad = int(np.flatnonzero(weights <= 0)[0])
            raise DataFormatError(f"{path}: nonpositive weight in data row {bad + 1}")
    if arr.shape[1] == 0:
        raise DataFormatError(f"{path}: rows have no coordinate columns")
    points = WeightedPointSet(arr, weights)
    gt = gt_cost = None
    if gt_rows:
        gt = CentroidSet(np.asarray(gt_rows, dtype=np.float64))
        if not np.isfinite(gt.points).all():
            raise DataFormatError(f"{path}: NaN or inf in a ground-truth row")
        if gt.points.shape[1] != arr.shape[1]:
            raise DataFormatError(f"{path}: ground-truth dimension mismatch")
        gt_cost = cost(SP2, arr, points.weights, gt)
    return points, gt, gt_cost, {
        "name": path,
        "n": arr.shape[0],
        "d": arr.shape[1],
        "k": gt.k if gt else 0,
    }


def reference_dump_delimited(dataset, path, delimiter=","):
    pts = dataset.points.points
    w = dataset.points.weights
    weighted = not np.all(w == 1.0)
    with open(path, "w") as f:
        meta = dataset.meta
        k = meta.get("k", dataset.ground_truth.k if dataset.ground_truth else 0)
        f.write(f"# one2all-dataset v1 n={pts.shape[0]} d={pts.shape[1]} k={k}\n")
        if weighted:
            f.write("# weights: last-column\n")
        if dataset.ground_truth is not None:
            for q in dataset.ground_truth.points:
                f.write("# ground-truth: " + delimiter.join(repr(float(v)) for v in q) + "\n")
        for i in range(pts.shape[0]):
            row = [repr(float(v)) for v in pts[i]]
            if weighted:
                row.append(repr(float(w[i])))
            f.write(delimiter.join(row) + "\n")


# generator ---------------------------------------------------------------


def test_gmm_shapes_and_meta():
    ds = gen_gmm(103, 4, 3, seed=0)
    assert ds.n == 103 and ds.d == 4
    assert ds.ground_truth.points.shape == (3, 4)
    assert ds.meta["k"] == 3
    np.testing.assert_array_equal(ds.meta["sizes"], [35, 34, 34])
    assert np.all(ds.meta["sigmas"] > 0) and np.all(ds.meta["sigmas"] <= 10.0)


def test_gmm_means_on_a_line():
    ds = gen_gmm(50, 3, 4, seed=1, spacing=7.0)
    means = ds.ground_truth.points
    np.testing.assert_allclose(means[:, 0], 7.0 * np.arange(4))
    np.testing.assert_allclose(means[:, 1:], 0.0)


def test_gmm_ground_truth_cost_is_consistent():
    ds = gen_gmm(500, 3, 3, seed=2)
    v = cost(SP2, ds.points.points, ds.points.weights, ds.ground_truth)
    assert ds.ground_truth_cost == pytest.approx(v, rel=1e-12)


def test_gmm_single_component_cost_law():
    # V(mean) ~ sigma^2 * chi2(n d): relative sd sqrt(2/(n d)) ~ 0.3%
    ds = gen_gmm(50_000, 4, 1, seed=3)
    sigma = float(ds.meta["sigmas"][0])
    expect = 50_000 * 4 * sigma**2
    assert ds.ground_truth_cost == pytest.approx(expect, rel=0.05)


def test_gmm_deterministic_and_seed_sensitive():
    a = gen_gmm(200, 3, 2, seed=5)
    b = gen_gmm(200, 3, 2, seed=5)
    c = gen_gmm(200, 3, 2, seed=6)
    np.testing.assert_array_equal(a.points.points, b.points.points)
    assert not np.array_equal(a.points.points, c.points.points)


def test_gmm_components_recoverable_when_separated():
    # labels follow from the contiguous per-component layout
    found = 0
    for seed in range(40):
        ds = gen_gmm(1000, 3, 2, seed=seed)
        if ds.meta["sigmas"].max() > 10.0 / 4:
            continue
        found += 1
        labels = np.repeat(np.arange(2), ds.meta["sizes"])
        owner, _ = nearest(SP2, ds.points.points, ds.ground_truth.points)
        assert np.mean(owner == labels) >= 0.95
    assert found >= 1  # sigma ~ U(0, 10]: P(both <= 2.5) = 1/16 per seed


@pytest.mark.parametrize("n, d, k, seed", [(200_000, 10, 5, 0), (1000, 3, 7, 5),
                                           (12345, 50, 20, 9)])
def test_gmm_bytes_match_stacking_reference(n, d, k, seed):
    got = gen_gmm(n, d, k, seed=seed).points.points
    assert _bits(got) == _bits(reference_gen_gmm_points(n, d, k, seed))


def test_gmm_validates_arguments():
    with pytest.raises(ValueError):
        gen_gmm(2, 3, 3, seed=0)
    with pytest.raises(ValueError):
        gen_gmm(10, 0, 2, seed=0)


# delimited text ----------------------------------------------------------


def test_dump_load_round_trip_bit_identical(tmp_path):
    ds = gen_gmm(120, 3, 2, seed=7)
    path = tmp_path / "data.csv"
    dump_delimited(ds, path)
    back = load_delimited(path)
    np.testing.assert_array_equal(back.points.points, ds.points.points)
    np.testing.assert_array_equal(back.ground_truth.points, ds.ground_truth.points)
    assert back.ground_truth_cost == pytest.approx(ds.ground_truth_cost, rel=1e-12)
    assert back.meta["k"] == 2


def test_dump_load_weighted_round_trip(tmp_path):
    ds = gen_gmm(60, 2, 2, seed=8)
    rng = np.random.default_rng(0)
    ds.points.weights[:] = rng.uniform(0.5, 2.0, size=60)
    path = tmp_path / "weighted.csv"
    dump_delimited(ds, path)
    back = load_delimited(path)  # weights column announced in the header
    np.testing.assert_array_equal(back.points.weights, ds.points.weights)
    np.testing.assert_array_equal(back.points.points, ds.points.points)


def test_load_plain_csv_with_weight_column(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.0,2.0,5.0\n3.0,4.0,6.0\n")
    ds = load_delimited(path, weight_column=-1)
    np.testing.assert_array_equal(ds.points.points, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ds.points.weights, [5.0, 6.0])
    ds0 = load_delimited(path, weight_column=0)
    np.testing.assert_array_equal(ds0.points.points, [[2.0, 5.0], [4.0, 6.0]])


def test_load_skips_header_and_blank_lines(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("# x,y\n\n1.0,2.0\n\n3.0,4.0\n")  # a header is a comment line
    ds = load_delimited(path)
    assert ds.n == 2


def test_load_reports_one_based_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_delimited(path)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_delimited(ragged)


def test_load_rejects_empty_and_nonpositive_weights(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing here\n")
    with pytest.raises(DataFormatError, match="no data rows"):
        load_delimited(empty)
    badw = tmp_path / "badw.csv"
    badw.write_text("1.0,0.0\n")
    with pytest.raises(DataFormatError, match="weight"):
        load_delimited(badw, weight_column=-1)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_load_rejects_non_finite_values(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"1.0,2.0\n3.0,{cell}\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_delimited(path)
    weighted = tmp_path / "nonfinite-weight.csv"
    weighted.write_text(f"1.0,2.0,1.0\n3.0,4.0,{cell}\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_delimited(weighted, weight_column=-1)
    truth = tmp_path / "nonfinite-truth.csv"
    truth.write_text(f"# ground-truth: 1.0,{cell}\n1.0,2.0\n")
    with pytest.raises(DataFormatError, match="ground-truth"):
        load_delimited(truth)


def test_load_rejects_ground_truth_dimension_mismatch(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text("# ground-truth: 1.0,2.0,3.0\n1.0,2.0\n")
    with pytest.raises(DataFormatError, match="dimension"):
        load_delimited(path)


def test_custom_delimiter(tmp_path):
    path = tmp_path / "tabs.tsv"
    path.write_text("1.0\t2.0\n3.0\t4.0\n")
    ds = load_delimited(path, delimiter="\t")
    assert ds.n == 2 and ds.d == 2


def test_dump_bytes_match_per_row_writer(tmp_path, monkeypatch):
    ds = gen_gmm(300, 3, 2, seed=9)
    weighted = gen_gmm(50, 2, 2, seed=10)
    weighted.points.weights[:] = np.random.default_rng(1).uniform(0.5, 2.0, size=50)
    cases = [("a", ds, ","), ("b", ds, "\t"), ("c", weighted, "::"), ("d", weighted, ",")]
    for rows in (data._DUMP_ROWS, 7):  # one block, and blocks of 7 rows with a short last
        monkeypatch.setattr(data, "_DUMP_ROWS", rows)
        for name, dataset, delim in cases:
            dump_delimited(dataset, tmp_path / f"{name}.new", delimiter=delim)
            reference_dump_delimited(dataset, tmp_path / f"{name}.ref", delimiter=delim)
            new = (tmp_path / f"{name}.new").read_bytes()
            assert new == (tmp_path / f"{name}.ref").read_bytes()


def test_ground_truth_cost_computed_on_first_read(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    dump_delimited(gen_gmm(80, 2, 2, seed=3), path)
    calls = []
    real_cost = data.cost
    monkeypatch.setattr(data, "cost", lambda *a: calls.append(1) or real_cost(*a))
    ds = load_delimited(path)
    assert calls == []
    first = ds.ground_truth_cost
    assert ds.ground_truth_cost == first and calls == [1]
    assert first == cost(SP2, ds.points.points, ds.points.weights, ds.ground_truth)


@pytest.mark.parametrize("col", [3, 5, -4])
def test_weight_column_out_of_range_is_rejected(tmp_path, capsys, col):
    path = tmp_path / "three.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
    with pytest.raises(DataFormatError, match="weight column .* out of range"):
        load_delimited(path, weight_column=col)
    capsys.readouterr()
    rc = main(["cluster", "--in", str(path), "--k", "1", "--eps", "0.5",
               "--weight-column", str(col)])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_errors_name_file_lines_below_comments(tmp_path):
    comments = "# one2all-dataset v1\n# a note\n\n   # indented\n"  # lines 1-4
    cases = [
        ("1.0,2.0\n3.0,nan\n", {}, "row 6: NaN or inf"),
        ("1.0,2.0,1.0\n3.0,4.0,-1.0\n", {"weight_column": -1}, "row 6: nonpositive weight"),
        ("# ground-truth: 1.0,oops\n1.0,2.0\n", {}, "row 5: could not convert"),
        ("1.0,2.0\n# ground-truth: 1.0,2.0\n# ground-truth: 1.0\n",
         {}, "row 7: expected 2 ground-truth values, got 1"),
        ("# ground-truth: 1.0,inf\n1.0,2.0\n", {}, "row 5: NaN or inf in a ground-truth row"),
        ("1.0,2.0\n1.0,2,0\n", {}, "row 6: expected 2 columns, got 3"),
    ]
    for i, (body, kwargs, message) in enumerate(cases):
        path = tmp_path / f"case{i}.csv"
        path.write_text(comments + body)
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: {message}")):
            load_delimited(path, **kwargs)


def test_bad_ground_truth_line_below_a_bad_row_names_the_row(tmp_path):
    path = tmp_path / "both.csv"
    path.write_text("1.0,2.0\n3.0,x\n# ground-truth: 1.0,y\n")
    with pytest.raises(DataFormatError, match="row 2: could not convert string to float: 'x'"):
        load_delimited(path)
    path.write_text("# ground-truth: 1.0,y\n1.0,2.0\n3.0,x\n")
    with pytest.raises(DataFormatError, match="row 1: could not convert string to float: 'y'"):
        load_delimited(path)


def test_undecodable_bytes_name_the_line(tmp_path):
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"1.0,2.0\r\n3.0,4.0\r5.0,\xff\n")
    with pytest.raises(DataFormatError, match="(?i)row 3: not valid utf-8 text"):
        load_delimited(path)


# differential test against the reference loader ------------------------------

_NUMBERS = [
    st.floats(0.5, 1e6).map(repr),
    st.floats().map(repr),  # any double: signed zeros, subnormals, nan, inf
    st.from_regex(r"-?[0-9]{1,25}(\.[0-9]{0,25})?([eE][-+]?[0-9]{1,3})?", fullmatch=True),
]
_ODD_CELLS = st.sampled_from([
    "1_0", "2_5.0_1", "\u0661\u0662", "\u0663.\u0665", "nan", "-inf", "Infinity", "1e400",
    "-0.0", "4.9e-324", "2.4703282292062328e-324", "9007199254740993",
    "0.1000000000000000055511151231257827021181583404541015625", "", "x", "1e",
    "0x10", "1\x1c", "\x1d2", "1 2", "+.5",
])
# one cell in 20 is odd, six in 20 any double or digit string, the rest plain
_CELLS = st.integers(0, 19).flatmap(
    lambda r: _ODD_CELLS if r == 10 else _NUMBERS[1 + r % 2 if 10 < r < 17 else 0])
_PAD = st.sampled_from(["", "", "", " ", "\t", "\xa0", "\u3000", "\x0c"])
_COMMENTS = ["# a note", "   # indented", "#", "#weights: last-column",
             "# weights: last-column", "# ground-truth:"]


@st.composite
def delimited_files(draw):
    """(text, delimiter, weight_column) for a small delimited file."""
    delim = draw(st.sampled_from([",", "\t", ";", "::", " "]))
    weight_column = draw(st.sampled_from([None, None, 0, -1]))
    ncols = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))

    pad = draw(st.sampled_from([st.just("")] * 3 + [_PAD]))
    trail = draw(st.sampled_from([""] * 7 + [delim]))  # a trailing delimiter

    def cells(n):
        return delim.join(draw(pad) + draw(_CELLS) + draw(pad) for _ in range(n)) + trail

    def width(n):
        return max(1, n + draw(st.sampled_from([0] * 12 + [1, -1])))

    lines = []
    for kind in draw(st.lists(st.sampled_from(
            ["data"] * 6 + ["comment", "blank", "truth"]), min_size=1, max_size=14)):
        if kind == "data":
            line = cells(width(ncols))
        elif kind == "comment":
            line = draw(st.sampled_from(_COMMENTS))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t \t", "\x0c", "\xa0"]))
        else:
            coords = ncols - (weight_column is not None)
            line = draw(pad) + "# ground-truth: " + cells(width(coords))
        lines.append(line)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends)), delim, weight_column


def _expected_message(ref_error, path, delimiter):
    """The reference's error as the loader reports it now: file lines, always
    a DataFormatError; messages that named a file line already are unchanged."""
    message = str(ref_error)
    with open(path) as f:
        lines = [line.strip() for line in f]
    data_lines = [i for i, s in enumerate(lines, 1) if s and not s.startswith("#")]
    truth = [(i, s[1:].strip().split(":", 1)[1].split(delimiter))
             for i, s in enumerate(lines, 1)
             if s.startswith("#") and s[1:].strip().startswith("ground-truth:")]
    m = re.fullmatch(re.escape(str(path)) + r": (NaN or inf|nonpositive weight) in data row (\d+)",
                     message)
    if m:
        what = "NaN or inf in a data row" if m[1] == "NaN or inf" else "nonpositive weight"
        return f"{path}: row {data_lines[int(m[2]) - 1]}: {what}"
    if message == f"{path}: NaN or inf in a ground-truth row":
        bad = next(i for i, row in truth if not np.isfinite([float(v) for v in row]).all())
        return f"{path}: row {bad}: NaN or inf in a ground-truth row"
    if isinstance(ref_error, DataFormatError):
        return message
    for i, row in truth:  # a ground-truth cell float() refuses is met first
        try:
            [float(v) for v in row]
        except ValueError as e:
            return f"{path}: row {i}: {e}"
    width = len(truth[0][1])
    i, row = next((i, row) for i, row in truth if len(row) != width)
    return f"{path}: row {i}: expected {width} ground-truth values, got {len(row)}"


def _bits(a):
    return None if a is None else (a.shape, a.dtype.str, a.tobytes())


def _check_against_reference(path, delimiter=",", weight_column=None):
    """Same bits as the reference loader, or its error as now reported."""
    kwargs = dict(delimiter=delimiter, weight_column=weight_column)
    with np.errstate(over="ignore", invalid="ignore"):  # costs of values near 1e308
        _compare_with_reference(path, kwargs)


def _compare_with_reference(path, kwargs):
    try:
        points, gt, gt_cost, meta = reference_load_delimited(path, **kwargs)
    except ValueError as e:
        with pytest.raises(DataFormatError) as got:
            load_delimited(path, **kwargs)
        assert str(got.value) == _expected_message(e, path, kwargs["delimiter"])
        return
    ds = load_delimited(path, **kwargs)
    assert _bits(ds.points.points) == _bits(points.points)
    assert _bits(ds.points.weights) == _bits(points.weights)
    assert _bits(ds.ground_truth and ds.ground_truth.points) == _bits(gt and gt.points)
    assert ds.ground_truth_cost == gt_cost
    assert ds.meta == meta


def _write_and_check(path, text, delimiter=",", weight_column=None):
    with open(path, "w", newline="") as f:
        f.write(text)
    _check_against_reference(path, delimiter, weight_column)


@given(delimited_files())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_loader_matches_reference(tmp_path, case):
    _write_and_check(tmp_path / "case.txt", *case)


# The loader reads a file in blocks of data._READ_CHARS characters; blocks of
# 1 and 7 end after every line or after a few, so rows, comments and errors
# fall in later blocks and numpy and float() mix within a file.
SMALL_BLOCKS = [1, 7]


@pytest.mark.parametrize("chars", SMALL_BLOCKS)
@given(case=delimited_files())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_loader_matches_reference_in_small_blocks(tmp_path, monkeypatch, chars, case):
    monkeypatch.setattr(data, "_READ_CHARS", chars)
    _write_and_check(tmp_path / "case.txt", *case)


EDGE_FILES = [
    ("1.0,2.0\n3.0\x1c,4.0\n", {}),  # numpy alone would read "3.0\x1c"
    ("1.0,2.0\n3.0,\x1f4.0\n", {}),
    ("1_0,2\n3,4_5.5\n", {}),
    ("\u0661\u0662,3\n4,\u0665.\u0660\n", {}),
    ("1\t2\t\n3\t4\t\n", {"delimiter": "\t"}),
    (" 1,2 \n  # note\n\t\n3,4", {}),
    ("1,2\r3,4\r\n5,6", {}),
    ("a,b\n1,2\n", {}),  # a header line is a bad row, named as row 1
    ("1::2::0.5\n3::4::2\n", {"delimiter": "::", "weight_column": -1}),
    ("1,2,\n3,4,\n", {}),
]


@pytest.mark.parametrize("text, kwargs", EDGE_FILES)
def test_edge_files_match_reference(tmp_path, text, kwargs):
    _write_and_check(tmp_path / "edge.txt", text, **kwargs)


@pytest.mark.parametrize("chars", SMALL_BLOCKS)
def test_edge_files_match_reference_in_small_blocks(tmp_path, monkeypatch, chars):
    monkeypatch.setattr(data, "_READ_CHARS", chars)
    for text, kwargs in EDGE_FILES:
        _write_and_check(tmp_path / "edge.txt", text, **kwargs)


def _rows(n, width=2):
    return "".join(",".join(f"{i}.{j}5" for j in range(width)) + "\n" for i in range(n))


def _load_outcome(path):
    """The loaded bits, or the error message."""
    got = _outcome(load_delimited, path)
    return got if isinstance(got, tuple) else str(got)


MULTI_BLOCK_FILES = [
    # a ragged row in a later block
    (_rows(40) + "1.0,2.0,3.0\n" + _rows(5), "row 41: expected 2 columns, got 3"),
    # a cell only float() reads, in a later block: that block alone takes the loop
    (_rows(40) + "1_0,2\n" + _rows(40), None),
    # a bad ground-truth line after a block boundary, without and with a bad row above
    (_rows(40) + "# ground-truth: 1.0,y\n" + _rows(5),
     "row 41: could not convert string to float: 'y'"),
    (_rows(20) + "3.0,x\n" + _rows(20) + "# ground-truth: 1.0,y\n" + _rows(5),
     "row 21: could not convert string to float: 'x'"),
    # a bad row before undecodable bytes: the bytes are named, also when more
    # than the reader's 8 KiB decoding chunk lies between them
    (_rows(20) + "3.0,x\n" + _rows(2000) + "\udcff\n", "row 2022: not valid utf-8 text"),
    # the weights comment after the first block still applies
    (_rows(40, 3) + "# weights: last-column\n" + _rows(5, 3), None),
]
MULTI_BLOCK_IDS = ["ragged-row", "float-only-cell", "bad-truth", "bad-row-above-bad-truth",
                   "bad-row-above-bad-bytes", "weights-comment-later"]


@pytest.mark.parametrize("blob, message", MULTI_BLOCK_FILES, ids=MULTI_BLOCK_IDS)
def test_multi_block_loads_match_one_block(tmp_path, monkeypatch, blob, message):
    path = tmp_path / "blocks.csv"
    path.write_bytes(blob.encode("utf-8", "surrogateescape"))
    monkeypatch.setattr(data, "_READ_CHARS", 1 << 30)
    whole = _load_outcome(path)
    outcomes = {"parsed": 0, "refused": 0}
    real_loadtxt = np.loadtxt

    def loadtxt(*args, **kwargs):
        try:
            arr = real_loadtxt(*args, **kwargs)
        except ValueError:
            outcomes["refused"] += 1
            raise
        outcomes["parsed"] += 1
        return arr

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    for chars in (16, 100, 333):  # 2 to 30 lines per block
        monkeypatch.setattr(data, "_READ_CHARS", chars)
        assert _load_outcome(path) == whole
    if message is None:
        assert outcomes["parsed"] > 3  # numpy read most blocks ...
        if "1_0" in blob:  # ... and refused the one with 1_0, once per block size
            assert outcomes["refused"] == 3
        _check_against_reference(path)
    else:
        assert whole.lower() == f"{path}: {message}".lower()
    monkeypatch.setattr(data, "_line_count", lambda path: 1)  # as if the file grew
    assert _load_outcome(path) == whole


def test_load_holds_the_result_and_one_block(tmp_path):
    # The whole file as strings (the old reader) took 4.4 times the array.
    path = tmp_path / "dump.csv"
    dump_delimited(gen_gmm(100_000, 10, 5, seed=0), path)
    tracemalloc.start()
    try:
        ds = load_delimited(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * ds.points.points.nbytes


def test_weighted_load_holds_only_points_and_weights(tmp_path):
    # A weights view into the parsed (n, d + 1) array kept all of it alive.
    ds = gen_gmm(30_000, 10, 5, seed=0)
    ds.points.weights[:] = np.random.default_rng(1).uniform(0.5, 2.0, size=ds.n)
    path = tmp_path / "weighted.csv"
    dump_delimited(ds, path)
    tracemalloc.start()
    try:
        back = load_delimited(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    w = back.points.weights
    assert w.flags.owndata and w.flags.c_contiguous
    assert _bits(w) == _bits(ds.points.weights)
    assert held <= 1.2 * (back.points.points.nbytes + w.nbytes)


# parallel spans ----------------------------------------------------------------

# The loader parses a file of at least 2 * data._SPAN_MIN bytes in byte spans,
# one per usable CPU, each after the first in a forked child. With the minimum
# at one byte and the CPU count forced, small files split into 2 or 3 spans,
# so rows, comments and errors fall in children's spans.
SPANS = [2, 3]


def _force_spans(monkeypatch, count):
    monkeypatch.setattr(data, "_SPAN_MIN", 1)
    monkeypatch.setattr(data, "_cpus", lambda: count)


@pytest.mark.parametrize("spans", SPANS)
@given(case=delimited_files())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_loader_matches_reference_in_spans(tmp_path, monkeypatch, spans, case):
    _force_spans(monkeypatch, spans)
    _write_and_check(tmp_path / "case.txt", *case)


@pytest.mark.parametrize("spans", SPANS)
def test_edge_files_match_reference_in_spans(tmp_path, monkeypatch, spans):
    _force_spans(monkeypatch, spans)
    for text, kwargs in EDGE_FILES:
        _write_and_check(tmp_path / "edge.txt", text, **kwargs)


@pytest.mark.parametrize("spans", SPANS)
@pytest.mark.parametrize("blob, message", MULTI_BLOCK_FILES, ids=MULTI_BLOCK_IDS)
def test_multi_block_files_load_alike_in_spans(tmp_path, monkeypatch, spans, blob, message):
    path = tmp_path / "blocks.csv"
    path.write_bytes(blob.encode("utf-8", "surrogateescape"))
    whole = _load_outcome(path)
    _force_spans(monkeypatch, spans)
    for chars in (data._READ_CHARS, 16):
        monkeypatch.setattr(data, "_READ_CHARS", chars)
        assert _load_outcome(path) == whole
    if message is not None:
        assert whole.lower() == f"{path}: {message}".lower()


def _pad(part: bytes, size: int) -> bytes:
    """part grown to size bytes by spaces before the end of its last line."""
    end = len(part) - (2 if part.endswith(b"\r\n") else part[-1:] in (b"\r", b"\n"))
    return part[:end] + b" " * (size - len(part)) + part[end:]


def _write_spans(path, parts):
    """Write the parts as one file that a load in len(parts) spans cuts exactly
    between them: the goals the cuts search from fall in each part's padding."""
    k = len(parts)
    size = max(map(len, parts)) + 4 * k
    path.write_bytes(b"".join(_pad(p, size - 2 * k * (i == k - 1)) for i, p in enumerate(parts)))
    assert [span[0] for span in data._spans(path, k)] == [i * size for i in range(k)]


SPLIT_FILES = [
    # \r\n ends span 1 and a lone \r opens span 2: file lines stay exact
    ((b"1,2\r3,4\r\n", b"\r5,6\r7,nan\r\n"), "row 5: NaN or inf in a data row"),
    ((b"1,2\r3,4\r\n", b"\r5,6\r\n7,8\r"), None),
    ((b"1,2\n3,4\n", b"5,6\n7,8"), None),
    # a span of comments and blank lines only, first or between two others
    ((b"# one2all\n\n", b"1,2\n3,4\n"), None),
    ((b"1,2\n3,4\n", b"# a note\n\n  \t\n", b"5,6\n7,nan\n"), "row 7: NaN or inf in a data row"),
    ((b"1,2,0.5\n3,4,2\n", b"# weights: last-column\n# ground-truth: 1.5,2.5\n5,6,1\n"), None),
    ((b"1,2\n3,x\n", b"5,6\n7,\xff\n"), "row 4: not valid utf-8 text"),
    ((b"1,2\n3,4\n", b"5,6,7\n8,9,10\n"), "row 3: expected 2 columns, got 3"),
    ((b"1,2\n3,x\n", b"# ground-truth: 1,y\n5,6\n"),
     "row 2: could not convert string to float: 'x'"),
    ((b"# c\n1,2\n", b"3,4\n5,x\n"), "row 4: could not convert string to float: 'x'"),
    ((b"1,2\n3,4\n", b"# ground-truth: 1,y\n5,6\n"),
     "row 3: could not convert string to float: 'y'"),
    ((b"1,2\n3,nan\n", b"# c\n5,6\n"), "row 2: NaN or inf in a data row"),
]
SPLIT_IDS = ["crlf-then-cr", "cr-endings", "no-final-newline", "comments-first",
             "comments-between", "weights-and-truth-later", "bytes-beat-an-earlier-row",
             "columns-change-at-span-2", "row-beats-a-later-truth", "bad-row-in-span-2",
             "bad-truth-in-span-2", "nan-above-a-later-comment"]


@pytest.mark.parametrize("parts, message", SPLIT_FILES, ids=SPLIT_IDS)
def test_split_files_load_alike_in_1_2_and_3_spans(tmp_path, monkeypatch, parts, message):
    path = tmp_path / "split.csv"
    _write_spans(path, parts)
    outcomes = []
    for spans in (1, 2, 3):
        _force_spans(monkeypatch, spans)
        outcomes.append(_load_outcome(path))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if message is None:
        _check_against_reference(path)
    else:
        assert outcomes[0].lower() == f"{path}: {message}".lower()


def test_spans_count_line_ends_exactly(tmp_path):
    # \r\n pairs on both sides of the binary pass's 2**20-byte reads, lone
    # \r's, and a last line without an end
    blob = b"1,2\r3,4\r\n5,6"
    blob += b" " * ((1 << 20) - 1 - len(blob)) + b"\r\n7,8"  # the first read ends in \r
    blob += b" " * ((2 << 20) - 1 - len(blob)) + b"\r9,10\r\n11,12"
    assert blob[(1 << 20) - 1 : (1 << 20) + 1] == b"\r\n"
    path = tmp_path / "ends.csv"
    path.write_bytes(blob)
    lines = io.StringIO(blob.decode(), newline=None).readlines()
    assert data._line_count(path) == len(lines)  # the last line has no end
    for parts in (2, 3, 4):
        spans = data._spans(path, parts)
        assert len(spans) > 1
        for start, stop, base, ends in spans:
            assert base == len(io.StringIO(blob[:start].decode(), newline=None).readlines())
            assert blob[start - 1 : start] in (b"", b"\n")
        assert spans[-1][2] + spans[-1][3] == len(lines) - 1


def test_spans_only_in_encodings_that_cut_at_newline_bytes(tmp_path, monkeypatch):
    path = tmp_path / "text.csv"
    path.write_text("1,2\n" * 100, encoding="utf-16")
    _force_spans(monkeypatch, 3)
    for encoding, count in (("utf-8", 3), ("latin-1", 3), ("utf-16", 1)):
        with open(path, encoding=encoding) as f:
            assert data._span_count(f) == count
    monkeypatch.setattr(data, "_cpus", lambda: 1)
    with open(path) as f:
        assert data._span_count(f) == 1


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("text, message", [
    ("1,2\n3,4\n" * 50, None),
    ("1,x\n" + "1,2\n" * 50, "row 1: could not convert"),
    ("1,2\n" * 50 + "1,x\n", "row 51: could not convert"),
], ids=["loads", "error-in-span-1", "error-in-span-2"])
def test_parallel_loads_leave_no_child(tmp_path, monkeypatch, text, message):
    path = tmp_path / "spans.csv"
    path.write_text(text)
    _force_spans(monkeypatch, 2)
    forks = []
    real_fork = data._fork
    monkeypatch.setattr(data, "_fork", lambda *args: forks.append(1) or real_fork(*args))
    if message is None:
        assert load_delimited(path).n == 100
    else:
        with pytest.raises(DataFormatError, match=message):
            load_delimited(path)
    assert forks == [1]
    _no_child_left()


@pytest.mark.parametrize("sent", [0, 10, -8], ids=["nothing", "part-of-the-head",
                                                  "part-of-the-rows"])
def test_a_child_that_exits_early_leaves_its_span_to_the_parent(tmp_path, monkeypatch, sent):
    ds = gen_gmm(300, 3, 2, seed=1)
    ds.points.weights[:] = np.random.default_rng(0).uniform(0.5, 2.0, size=300)
    path = tmp_path / "dump.csv"
    dump_delimited(ds, path)
    whole = _load_outcome(path)
    _force_spans(monkeypatch, 3)
    real_send_span = data._send_span

    def send_span(pipe, *args):  # sends the first bytes of its result only
        result = io.BytesIO()
        real_send_span(result, *args)
        pipe.write(result.getvalue()[:sent])
        pipe.flush()
        os._exit(1)

    monkeypatch.setattr(data, "_send_span", send_span)
    assert _load_outcome(path) == whole
    _no_child_left()


def test_a_failing_parent_kills_and_reaps_its_children(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    path.write_text("1,2\n" * 3000)
    _force_spans(monkeypatch, 3)
    parent = os.getpid()
    real_parse_rows = data._parse_rows

    def parse_rows(*args):
        if os.getpid() == parent:
            raise RuntimeError("not a data error")
        return real_parse_rows(*args)

    monkeypatch.setattr(data, "_parse_rows", parse_rows)
    with pytest.raises(RuntimeError, match="not a data error"):
        load_delimited(path)
    _no_child_left()


# fuzz: truncated and corrupted native dumps -----------------------------------


def _outcome(load, path):
    try:
        ds = load(path)
    except ValueError as e:  # DataFormatError, UnicodeDecodeError, numpy's errors
        return e
    if isinstance(ds, tuple):
        points, gt = ds[0], ds[1]
    else:
        points, gt = ds.points, ds.ground_truth
    return _bits(points.points), _bits(points.weights), _bits(gt and gt.points)


def test_fuzzed_native_dumps_load_like_reference_or_fail_cleanly(tmp_path, capsys):
    _fuzz_native_dumps(tmp_path, capsys)


@pytest.mark.parametrize("chars", SMALL_BLOCKS)
def test_fuzzed_native_dumps_in_small_blocks(tmp_path, capsys, monkeypatch, chars):
    monkeypatch.setattr(data, "_READ_CHARS", chars)
    _fuzz_native_dumps(tmp_path, capsys)


@pytest.mark.parametrize("spans", SPANS)
def test_fuzzed_native_dumps_in_spans(tmp_path, capsys, monkeypatch, spans):
    _force_spans(monkeypatch, spans)
    _fuzz_native_dumps(tmp_path, capsys, every=24)


def _fuzz_native_dumps(tmp_path, capsys, every=1):
    """Every truncation of a weighted native dump and 400 seeded byte
    changes, or each every-th of those."""
    ds = gen_gmm(12, 2, 2, seed=4)
    ds.points.weights[:] = np.random.default_rng(2).uniform(0.5, 2.0, size=12)
    clean = tmp_path / "clean.csv"
    dump_delimited(ds, clean)
    raw = clean.read_bytes()
    rng = np.random.default_rng(5)
    variants = [raw[:cut] for cut in range(len(raw))]
    for pos, byte in zip(rng.integers(0, len(raw), 400), rng.integers(0, 256, 400)):
        variants.append(raw[:pos] + bytes([byte]) + raw[pos + 1:])
    variants = variants[::every]
    path = tmp_path / "fuzz.csv"
    failures = 0
    for blob in variants:
        path.write_bytes(blob)
        got = _outcome(load_delimited, path)
        want = _outcome(reference_load_delimited, path)
        if isinstance(got, tuple):
            assert got == want, blob
            continue
        assert isinstance(got, DataFormatError), (blob, got)
        assert not isinstance(want, tuple), blob
        failures += 1
        capsys.readouterr()
        assert main(["cluster", "--in", str(path), "--k", "2", "--eps", "0.5"]) == 2
        assert "data error" in capsys.readouterr().err
    assert 0 < failures < len(variants)


def test_cli_reports_a_corrupt_file_without_traceback(tmp_path):
    path = tmp_path / "corrupt.csv"
    dump_delimited(gen_gmm(10, 2, 2, seed=1), path)
    raw = path.read_bytes()
    for blob in (raw[: len(raw) // 2] + b"\xff" + raw[len(raw) // 2 :],
                 raw.replace(b",", b",,", 1)):
        path.write_bytes(blob)
        proc = subprocess.run(
            [sys.executable, "-m", "one2all", "cluster", "--in", str(path), "--k", "2",
             "--eps", "0.5"], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "data error" in proc.stderr and "Traceback" not in proc.stderr


# idx ---------------------------------------------------------------------


def _write_idx_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def _write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def test_idx_round_trip_with_labels(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(10, 3, 4), dtype=np.uint8)
    labels = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2, 0], dtype=np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    _write_idx_images(ip, images)
    _write_idx_labels(lp, labels)
    ds = load_idx(ip, lp)
    assert ds.n == 10 and ds.d == 12
    np.testing.assert_array_equal(ds.points.points, images.reshape(10, 12).astype(float))
    assert ds.ground_truth.k == 3
    want_mean0 = images.reshape(10, 12)[labels == 0].mean(axis=0)
    np.testing.assert_allclose(ds.ground_truth.points[0], want_mean0)
    assert ds.ground_truth_cost > 0


def test_idx_without_labels(tmp_path):
    images = np.zeros((4, 2, 2), dtype=np.uint8)
    ip = tmp_path / "img.idx"
    _write_idx_images(ip, images)
    ds = load_idx(ip)
    assert ds.ground_truth is None
    assert ds.meta["k"] == 0


def test_idx_damaged_files_raise_or_load_the_header_shape(tmp_path):
    # no damaged header may end in OverflowError or MemoryError: every
    # truncation and 1,500 seeded byte flips per file
    rng = np.random.default_rng(3)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    _write_idx_images(ip, rng.integers(0, 256, size=(30, 4, 5), dtype=np.uint8))
    _write_idx_labels(lp, rng.integers(0, 3, size=30))
    bad = tmp_path / "bad.idx"
    for good in (ip, lp):
        blob = good.read_bytes()
        damaged = [blob[:cut] for cut in range(len(blob))]
        for pos, flip in zip(rng.integers(len(blob), size=1500), rng.integers(1, 256, size=1500)):
            b = bytearray(blob)
            b[pos] ^= flip
            damaged.append(bytes(b))
        paths = (bad, lp) if good == ip else (ip, bad)
        for data in damaged:
            bad.write_bytes(data)
            try:
                ds = load_idx(*paths)
            except DataFormatError:
                continue
            count, rows, cols = struct.unpack(">III", paths[0].read_bytes()[4:16])
            assert ds.points.points.shape == (count, rows * cols)


def test_idx_error_paths(tmp_path):
    ip = tmp_path / "img.idx"
    with open(ip, "wb") as f:
        f.write(struct.pack(">IIII", 0x999, 2, 2, 2))
        f.write(bytes(8))
    with pytest.raises(DataFormatError, match="magic"):
        load_idx(ip)
    short = tmp_path / "short.idx"
    with open(short, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, 5, 2, 2))
        f.write(bytes(3))
    with pytest.raises(DataFormatError, match="truncated"):
        load_idx(short)
    for shape, message in (((0, 2, 2), "no data rows"), ((3, 0, 2), "no coordinate columns"),
                           ((3, 2, 0), "no coordinate columns")):
        empty = tmp_path / "empty.idx"
        _write_idx_images(empty, np.zeros(shape, dtype=np.uint8))
        with pytest.raises(DataFormatError, match=message):
            load_idx(empty)
    img_ok = tmp_path / "ok.idx"
    _write_idx_images(img_ok, np.zeros((3, 2, 2), dtype=np.uint8))
    lab_bad = tmp_path / "bad-count.idx"
    _write_idx_labels(lab_bad, [0, 1])
    with pytest.raises(DataFormatError, match="mismatch"):
        load_idx(img_ok, lab_bad)
