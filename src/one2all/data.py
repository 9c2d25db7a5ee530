"""Dataset synthesis and file I/O.

Three sources: a Gaussian-mixture generator with known ground-truth
centroids (means on a line, one spacing apart), delimited text, and IDX
image files (big-endian, the MNIST container format). Ground-truth cost is
always measured in squared Euclidean distance, the space the benchmark
pipeline runs in, and computed only when first read.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import CentroidSet, MetricSpace, WeightedPointSet, cost
from .errors import DataFormatError

_GT_SPACE = MetricSpace.euclidean(2.0)
_MAGIC_IMAGES = 0x00000803
_MAGIC_LABELS = 0x00000801
_DUMP_ROWS = 1 << 14  # rows formatted per write, which bounds a dump's memory
_READ_CHARS = 1 << 20  # characters read and parsed at a time, which bounds a load's memory
# str.isspace() and numpy's text reader count these as whitespace, float()
# does not: numpy reads the cell "1\x1c" as 1.0 where float() refuses it.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"


@dataclass
class LabeledDataset:
    points: WeightedPointSet
    ground_truth: CentroidSet | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def d(self) -> int:
        return self.points.points.shape[1]

    @functools.cached_property
    def ground_truth_cost(self) -> float | None:
        """Cost of the ground truth (None without one), cached on first read.

        It is a full-data pass that clustering and the oracle never need.
        """
        if self.ground_truth is None:
            return None
        return cost(_GT_SPACE, self.points.points, self.points.weights, self.ground_truth)


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
    X = np.empty((n, d))
    ends = np.cumsum(sizes)
    for child, mean, sigma, end, size in zip(root.spawn(k), means, sigmas, ends, sizes):
        block = X[end - size : end]  # mean + sigma * z, filled in place
        np.random.default_rng(child).standard_normal(out=block)
        block *= sigma
        block += mean
    return LabeledDataset(
        points=WeightedPointSet(X),
        ground_truth=CentroidSet(means),
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
    k = dataset.meta.get("k", dataset.ground_truth.k if dataset.ground_truth else 0)
    head = [f"# one2all-dataset v1 n={pts.shape[0]} d={pts.shape[1]} k={k}\n"]
    if weighted:
        head.append("# weights: last-column\n")
    if dataset.ground_truth is not None:
        head += ["# ground-truth: " + delimiter.join(map(repr, q)) + "\n"
                 for q in dataset.ground_truth.points.tolist()]
    with open(path, "w") as f:
        f.write("".join(head))
        for start in range(0, pts.shape[0], _DUMP_ROWS):
            block = pts[start : start + _DUMP_ROWS]
            if weighted:
                block = np.column_stack([block, w[start : start + _DUMP_ROWS]])
            f.write("".join([delimiter.join(map(repr, row)) + "\n" for row in block.tolist()]))


def load_delimited(
    path: str,
    delimiter: str = ",",
    weight_column: int | None = None,
) -> LabeledDataset:
    """Rows become points; comment lines from a native dump are honored.

    Lines end at \\n, \\r\\n or \\r. A line that str.strip() empties is
    skipped; one that then starts with '#' is a comment, of which
    '# weights: last-column' and '# ground-truth: <cells>' are read. Every
    other line is a row of cells split on delimiter; each cell gives the
    float64 that float() gives for it, bit for bit, and all rows need the
    same number of cells. weight_column (0-based; negative counts from the
    end) pulls weights out of the data columns. Errors name the path and the
    1-based file line ("row N"): undecodable bytes anywhere come first, then
    the first bad row or ground-truth line in the file. The text is read and
    parsed one block of lines at a time, so memory holds the result and one
    block, never the whole file as strings.
    """
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    with open(path) as f:
        try:
            try:
                arr, skipped, gt_rows, gt_lines, weight_column = _read_rows(
                    f, path, delimiter, weight_column)
            except DataFormatError:
                while f.read(_READ_CHARS):  # undecodable bytes further on win
                    pass
                raise
        except UnicodeDecodeError:
            raise _undecodable(path, f.encoding) from None
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        bad = _file_line(skipped, np.flatnonzero(~finite)[0])
        raise DataFormatError(f"{path}: row {bad}: NaN or inf in a data row")
    weights = None
    if weight_column is not None:
        ncols = arr.shape[1]
        if not -ncols <= weight_column < ncols:
            raise DataFormatError(
                f"{path}: weight column {weight_column} is out of range "
                f"for {ncols} columns"
            )
        col = weight_column % ncols
        weights = arr[:, col]
        arr = np.delete(arr, col, axis=1)
        if np.any(weights <= 0):
            bad = _file_line(skipped, np.flatnonzero(weights <= 0)[0])
            raise DataFormatError(f"{path}: row {bad}: nonpositive weight")
    if arr.shape[1] == 0:
        raise DataFormatError(f"{path}: rows have no coordinate columns")
    gt = None
    if gt_rows:
        for lineno, row in zip(gt_lines, gt_rows):
            if len(row) != len(gt_rows[0]):
                raise DataFormatError(
                    f"{path}: row {lineno}: expected {len(gt_rows[0])} "
                    f"ground-truth values, got {len(row)}"
                )
        gt_arr = np.asarray(gt_rows, dtype=np.float64)
        finite = np.isfinite(gt_arr).all(axis=1)
        if not finite.all():
            bad = gt_lines[np.flatnonzero(~finite)[0]]
            raise DataFormatError(f"{path}: row {bad}: NaN or inf in a ground-truth row")
        if gt_arr.shape[1] != arr.shape[1]:
            raise DataFormatError(f"{path}: ground-truth dimension mismatch")
        gt = CentroidSet(gt_arr)
    return LabeledDataset(
        points=WeightedPointSet(arr, weights),
        ground_truth=gt,
        meta={
            "name": path,
            "n": arr.shape[0],
            "d": arr.shape[1],
            "k": gt.k if gt else 0,
        },
    )


def _read_rows(f, path, delimiter: str, weight_column: int | None):
    """Sort and parse a text file's lines, one block of lines at a time.

    Returns the rows as an (n, d) float64 array, the sorted 1-based file
    lines that hold no row, the ground-truth rows and their file lines, and
    the weight column as the file's comments leave it.
    """
    out = None  # the result, sized from the line count once d is known
    n = 0  # rows parsed so far
    base = 0  # file lines before the block
    skipped: list[int] = []
    gt_rows: list[list[float]] = []
    gt_lines: list[int] = []
    while lines := f.readlines(_READ_CHARS):
        # Only lines that start with '#' or whitespace need a closer look; any
        # other line is a data row as it stands. Whitespace at its end needs
        # no strip: a cell's edges are ignored, and where it would add an
        # empty cell (a whitespace delimiter) numpy refuses and the float()
        # loop strips.
        odd = [i for i, s in enumerate(lines) if s[0] == "#" or s[0].isspace()]
        rows: list[str] = []
        gt_error = None
        start = 0
        for i in odd:
            rows.extend(lines[start:i])
            start = i + 1
            line = lines[i].strip()
            if line and line[0] != "#":
                rows.append(line)
                continue
            skipped.append(base + i + 1)
            if not line:
                continue
            body = line[1:].strip()
            if body.startswith("weights: last-column") and weight_column is None:
                weight_column = -1
            elif body.startswith("ground-truth:"):
                try:
                    gt_rows.append([float(v) for v in body.split(":", 1)[1].split(delimiter)])
                    gt_lines.append(base + i + 1)
                except ValueError as e:
                    gt_error = DataFormatError(f"{path}: row {base + i + 1}: {e}")
                    break  # only a bad row above it is named first
        else:
            rows.extend(lines[start:])
        if rows:
            ncols = None if out is None else out.shape[1]
            block = _parse_rows(path, rows, n, skipped, delimiter, ncols)
            if gt_error is None:
                if out is None:
                    out = np.empty((_line_count(path), block.shape[1]))
                if n + len(block) > len(out):  # the file grew since it was counted
                    out.resize((2 * (n + len(block)), out.shape[1]), refcheck=False)
                out[n : n + len(block)] = block
                n += len(block)
        if gt_error is not None:
            raise gt_error
        base += len(lines)
    if out is None:
        raise DataFormatError(f"{path}: no data rows")
    out.resize((n, out.shape[1]), refcheck=False)  # shrinks in place, no copy
    return out, skipped, gt_rows, gt_lines, weight_column


def _line_count(path) -> int:
    """At least as many as the lines text-mode reading gives: one per \\n,
    \\r or \\r\\n (counted twice if a read splits it), one for an unended
    last line."""
    count = 1
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            b = np.frombuffer(chunk, dtype=np.uint8)
            count += np.count_nonzero(b == 10)
            if b"\r" in chunk:
                cr = b == 13
                count += np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & (b[1:] == 10))
    return int(count)


def _file_line(skipped: list[int], row: int) -> int:
    """The 1-based file line of the 0-based row, given the sorted file lines
    that hold no row: row + 1 plus the count of those lines above it."""
    above = np.asarray(skipped, dtype=np.int64) - np.arange(len(skipped))
    return int(row) + 1 + int(np.searchsorted(above, row + 1, side="right"))


def _undecodable(path, encoding: str) -> DataFormatError:
    """The error that names the line of the file's first undecodable byte."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        raw.decode(encoding)
    except UnicodeDecodeError as e:
        raw = raw[: e.start]
    line = raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n") + 1
    return DataFormatError(f"{path}: row {line}: not valid {encoding} text")


def _parse_rows(path, rows: list[str], first: int, skipped: list[int], delimiter: str,
                ncols: int | None) -> np.ndarray:
    """The rows' cells as an (n, d) float64 array, bit for bit as float() parses.

    first is the 0-based row number of rows[0] in the file. Every row needs
    ncols cells, or as many as rows[0] when ncols is None. numpy's C reader
    takes the common case. Where it refuses (a cell only float() reads, such
    as "1_0" or non-ASCII digits, a bad cell, a ragged row, a delimiter longer
    than one character) or gives another column count, the per-cell float()
    loop reads the rows instead, and names the first bad line.
    """
    text = "".join(rows)
    if not any(c in text for c in _NOT_FLOAT_SPACE):
        try:
            arr = np.loadtxt(rows, delimiter=delimiter, comments=None, ndmin=2)
        except (ValueError, TypeError):
            pass
        else:
            if ncols is None or arr.shape[1] == ncols:
                return arr
    parsed: list[list[float]] = []
    for j, line in enumerate(rows):
        try:
            parsed.append([float(c) for c in line.strip().split(delimiter)])
        except ValueError as e:
            raise DataFormatError(f"{path}: row {_file_line(skipped, first + j)}: {e}") from None
        if ncols is None:
            ncols = len(parsed[0])
        if len(parsed[-1]) != ncols:
            raise DataFormatError(
                f"{path}: row {_file_line(skipped, first + j)}: expected {ncols} columns, "
                f"got {len(parsed[-1])}"
            )
    return np.asarray(parsed, dtype=np.float64)


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


def _read_idx_body(f, path: str, size: int, what: str) -> bytes:
    """Read the size bytes the header claims, checked against the file size
    first, so a damaged header cannot ask for more memory than the file holds."""
    if size > os.fstat(f.fileno()).st_size - f.tell():
        raise DataFormatError(f"{path}: truncated {what} data")
    return f.read(size)


def load_idx(images_path: str, labels_path: str | None = None) -> LabeledDataset:
    """IDX image file -> flattened rows in [0, 255]; labels give ground truth.

    With labels, the ground-truth centroids are the per-class pixel means.
    """
    with open(images_path, "rb") as f:
        count, rows, cols = _read_idx_header(f, images_path, _MAGIC_IMAGES, 3)
        if count == 0:
            raise DataFormatError(f"{images_path}: no data rows")
        if rows * cols == 0:
            raise DataFormatError(f"{images_path}: rows have no coordinate columns")
        raw = _read_idx_body(f, images_path, count * rows * cols, "image")
    X = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols).astype(np.float64)
    gt = None
    k = 0
    if labels_path is not None:
        with open(labels_path, "rb") as f:
            (lcount,) = _read_idx_header(f, labels_path, _MAGIC_LABELS, 1)
            lraw = _read_idx_body(f, labels_path, lcount, "label")
        if lcount != count:
            raise DataFormatError(
                f"labels/images count mismatch: {lcount} labels, {count} images"
            )
        labels = np.frombuffer(lraw, dtype=np.uint8)
        classes = np.unique(labels)
        gt = CentroidSet(np.vstack([X[labels == c].mean(axis=0) for c in classes]))
        k = int(classes.size)
    return LabeledDataset(
        points=WeightedPointSet(X),
        ground_truth=gt,
        meta={"name": images_path, "n": int(count), "d": int(rows * cols), "k": k},
    )
