"""Synthetic mixtures, delimited text round trips, IDX parsing."""

import struct

import numpy as np
import pytest

from one2all.core import MetricSpace, cost, nearest
from one2all.data import dump_delimited, gen_gmm, load_delimited, load_idx
from one2all.errors import DataFormatError

SP2 = MetricSpace.euclidean(2.0)


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
    path.write_text("x,y\n\n1.0,2.0\n\n3.0,4.0\n")
    ds = load_delimited(path, has_header=True)
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
    img_ok = tmp_path / "ok.idx"
    _write_idx_images(img_ok, np.zeros((3, 2, 2), dtype=np.uint8))
    lab_bad = tmp_path / "bad-count.idx"
    _write_idx_labels(lab_bad, [0, 1])
    with pytest.raises(DataFormatError, match="mismatch"):
        load_idx(img_ok, lab_bad)
