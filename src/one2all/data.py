"""Dataset synthesis and file I/O.

Three sources: a Gaussian-mixture generator with known ground-truth
centroids (means on a line, one spacing apart), delimited text, and IDX
image files (big-endian, the MNIST container format). Ground-truth cost is
always measured in squared Euclidean distance, the space the benchmark
pipeline runs in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .core import CentroidSet, MetricSpace, WeightedPointSet, cost
from .errors import DataFormatError

_GT_SPACE = MetricSpace.euclidean(2.0)
_MAGIC_IMAGES = 0x00000803
_MAGIC_LABELS = 0x00000801


@dataclass
class LabeledDataset:
    points: WeightedPointSet
    ground_truth: CentroidSet | None = None
    ground_truth_cost: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def d(self) -> int:
        return self.points.points.shape[1]


def gen_gmm(n: int, d: int, k: int, seed: int, spacing: float = 10.0) -> LabeledDataset:
    """Mixture of k isotropic Gaussians with means i*spacing along axis 0.

    Per-component sigma is uniform on (0, spacing]; points split evenly
    across components with the remainder going to the first ones. The means
    are the ground truth.
    """
    if not (n >= k >= 1 and d >= 1):
        raise ValueError("need n >= k >= 1 and d >= 1")
    means = np.zeros((k, d))
    means[:, 0] = spacing * np.arange(k)
    root = np.random.SeedSequence(seed)
    rng = np.random.default_rng(root)
    sigmas = spacing * (1.0 - rng.random(k))  # in (0, spacing]
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    parts = []
    for child, mean, sigma, size in zip(root.spawn(k), means, sigmas, sizes):
        comp = np.random.default_rng(child)
        parts.append(mean + sigma * comp.standard_normal((size, d)))
    X = np.vstack(parts)
    points = WeightedPointSet(X)
    gt = CentroidSet(means)
    return LabeledDataset(
        points=points,
        ground_truth=gt,
        ground_truth_cost=cost(_GT_SPACE, X, points.weights, gt),
        meta={
            "name": f"gmm-n{n}-d{d}-k{k}-s{seed}",
            "n": n,
            "d": d,
            "k": k,
            "sigmas": sigmas,
            "sizes": sizes,
        },
    )


def dump_delimited(dataset: LabeledDataset, path: str, delimiter: str = ",") -> None:
    """Native dump: header and ground truth as comment lines, then rows.

    Floats are written with repr so a read-back is bit-identical. Non-unit
    weights go in an extra last column, announced in the header.
    """
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


def load_delimited(
    path: str,
    delimiter: str = ",",
    has_header: bool = False,
    weight_column: int | None = None,
) -> LabeledDataset:
    """Rows become points; comment lines from a native dump are honored.

    weight_column (0-based; negative counts from the end) pulls weights out
    of the data columns. Parse failures report the 1-based file line.
    """
    gt_rows: list[list[float]] = []
    rows: list[list[float]] = []
    header_skipped = not has_header
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
            if not header_skipped:
                header_skipped = True
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
        gt_cost = cost(_GT_SPACE, arr, points.weights, gt)
    return LabeledDataset(
        points=points,
        ground_truth=gt,
        ground_truth_cost=gt_cost,
        meta={
            "name": path,
            "n": arr.shape[0],
            "d": arr.shape[1],
            "k": gt.k if gt else 0,
        },
    )


def _read_idx_header(f, path: str, magic_want: int, ndim: int) -> tuple:
    head = f.read(4 * (1 + ndim))
    if len(head) != 4 * (1 + ndim):
        raise DataFormatError(f"{path}: truncated IDX header")
    fields = struct.unpack(f">{1 + ndim}I", head)
    if fields[0] != magic_want:
        raise DataFormatError(
            f"{path}: bad IDX magic 0x{fields[0]:08x}, want 0x{magic_want:08x}"
        )
    return fields[1:]


def load_idx(images_path: str, labels_path: str | None = None) -> LabeledDataset:
    """IDX image file -> flattened rows in [0, 255]; labels give ground truth.

    With labels, the ground-truth centroids are the per-class pixel means.
    """
    with open(images_path, "rb") as f:
        count, rows, cols = _read_idx_header(f, images_path, _MAGIC_IMAGES, 3)
        raw = f.read(count * rows * cols)
    if len(raw) != count * rows * cols:
        raise DataFormatError(f"{images_path}: truncated image data")
    X = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols).astype(np.float64)
    points = WeightedPointSet(X)
    gt = gt_cost = None
    k = 0
    if labels_path is not None:
        with open(labels_path, "rb") as f:
            (lcount,) = _read_idx_header(f, labels_path, _MAGIC_LABELS, 1)
            lraw = f.read(lcount)
        if len(lraw) != lcount:
            raise DataFormatError(f"{labels_path}: truncated label data")
        if lcount != count:
            raise DataFormatError(
                f"labels/images count mismatch: {lcount} labels, {count} images"
            )
        labels = np.frombuffer(lraw, dtype=np.uint8)
        classes = np.unique(labels)
        means = np.vstack([X[labels == c].mean(axis=0) for c in classes])
        gt = CentroidSet(means)
        gt_cost = cost(_GT_SPACE, X, points.weights, gt)
        k = int(classes.size)
    return LabeledDataset(
        points=points,
        ground_truth=gt,
        ground_truth_cost=gt_cost,
        meta={"name": images_path, "n": int(count), "d": int(rows * cols), "k": k},
    )
