"""Dataset synthesis and file I/O.

Three sources: a Gaussian-mixture generator with known ground-truth
centroids (means on a line, one spacing apart), delimited text, and IDX
image files (big-endian, the MNIST container format). Ground-truth cost is
always measured in squared Euclidean distance, the space the benchmark
pipeline runs in, and computed only when first read.
"""

from __future__ import annotations

import codecs
import functools
import io
import os
import pickle
import signal
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import CentroidSet, MetricSpace, WeightedPointSet, cost
from .errors import DataFormatError

_GT_SPACE = MetricSpace.euclidean(2.0)
_MAGIC_IMAGES = 0x00000803
_MAGIC_LABELS = 0x00000801
_DUMP_ROWS = 1 << 14  # rows formatted per write, which bounds a dump's memory
_READ_CHARS = 1 << 20  # characters read and parsed at a time, which bounds a load's memory
_SPAN_MIN = 1 << 22  # bytes: a file is parsed in parallel spans of at least this size
# Encodings in which a b"\n" byte always ends a line and the bytes on either
# side decode apart, so a file in them can be cut into spans after one.
_SPLITTABLE = ("utf-8", "ascii", "iso8859-1")
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
    block, never the whole file as strings. A large file is parsed in byte
    spans on every usable CPU, each span after the first in a forked
    process, with the same values and messages as one pass over the file.
    """
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    rows = _Rows(path, weight_column)
    with open(path) as f:
        try:
            parts = _span_count(f)
            spans = _spans(path, parts) if parts > 1 else []
            if len(spans) > 1:
                _read_in_spans(path, spans, delimiter, rows)
            else:
                _read_rows(f, path, delimiter, rows, 0)
        except UnicodeDecodeError:
            raise _undecodable(path, f.encoding) from None
    if rows.out is None:
        raise DataFormatError(f"{path}: no data rows")
    arr, skipped, weight_column = rows.out, rows.skipped, rows.weight_column
    arr.resize((rows.n, arr.shape[1]), refcheck=False)  # shrinks in place, no copy
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
        weights = arr[:, col].copy()  # a view would keep the whole parse alive
        arr = np.delete(arr, col, axis=1)
        if np.any(weights <= 0):
            bad = _file_line(skipped, np.flatnonzero(weights <= 0)[0])
            raise DataFormatError(f"{path}: row {bad}: nonpositive weight")
    if arr.shape[1] == 0:
        raise DataFormatError(f"{path}: rows have no coordinate columns")
    gt = None
    gt_rows, gt_lines = rows.gt_rows, rows.gt_lines
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


@dataclass
class _Rows:
    """A file's rows read so far, out[:n] in file order, and its other lines.

    skipped holds the sorted 1-based file lines that hold no row; gt_rows and
    gt_lines the ground-truth rows and their file lines; weight_column the
    weight column as the comments leave it. out is allocated at the first
    rows, with room for `lines` rows (the file's line count if None).
    """

    path: str
    weight_column: int | None
    lines: int | None = None
    out: np.ndarray | None = None
    n: int = 0
    skipped: list[int] = field(default_factory=list)
    gt_rows: list[list[float]] = field(default_factory=list)
    gt_lines: list[int] = field(default_factory=list)

    def room(self, m: int, d: int) -> np.ndarray:
        """out[n : n + m], for m more rows of d columns."""
        if self.out is None:
            self.out = np.empty((self.lines or _line_count(self.path), d))
        if self.n + m > len(self.out):  # the file grew since it was counted
            self.out.resize((2 * (self.n + m), d), refcheck=False)
        return self.out[self.n : self.n + m]


def _read_rows(f, path, delimiter: str, rows: _Rows, base: int) -> None:
    """Sort and parse a text file's lines into rows, one block of lines at a time.

    base is the count of file lines above f's first. A DataFormatError is
    raised once the rest of f has decoded: undecodable bytes further on win.
    """
    try:
        while lines := f.readlines(_READ_CHARS):
            # Only lines that start with '#' or whitespace need a closer look;
            # any other line is a data row as it stands. Whitespace at its end
            # needs no strip: a cell's edges are ignored, and where it would
            # add an empty cell (a whitespace delimiter) numpy refuses and the
            # float() loop strips.
            odd = [i for i, s in enumerate(lines) if s[0] == "#" or s[0].isspace()]
            row_lines: list[str] = []
            gt_error = None
            start = 0
            for i in odd:
                row_lines.extend(lines[start:i])
                start = i + 1
                line = lines[i].strip()
                if line and line[0] != "#":
                    row_lines.append(line)
                    continue
                rows.skipped.append(base + i + 1)
                if not line:
                    continue
                body = line[1:].strip()
                if body.startswith("weights: last-column") and rows.weight_column is None:
                    rows.weight_column = -1
                elif body.startswith("ground-truth:"):
                    try:
                        rows.gt_rows.append(
                            [float(v) for v in body.split(":", 1)[1].split(delimiter)])
                        rows.gt_lines.append(base + i + 1)
                    except ValueError as e:
                        gt_error = DataFormatError(f"{path}: row {base + i + 1}: {e}")
                        break  # only a bad row above it is named first
            else:
                row_lines.extend(lines[start:])
            if row_lines:
                ncols = None if rows.out is None else rows.out.shape[1]
                block = _parse_rows(path, row_lines, rows.n, rows.skipped, delimiter, ncols)
                if gt_error is None:
                    rows.room(*block.shape)[:] = block
                    rows.n += len(block)
            if gt_error is not None:
                raise gt_error
            base += len(lines)
    except DataFormatError:
        while f.read(_READ_CHARS):
            pass
        raise


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _span_count(f) -> int:
    """How many byte spans to parse the open text file f in: one per usable
    CPU, each of at least _SPAN_MIN bytes; one where no child can be forked
    or where a byte span may end inside a character."""
    if not hasattr(os, "fork") or codecs.lookup(f.encoding).name not in _SPLITTABLE:
        return 1
    return max(1, min(_cpus(), os.fstat(f.fileno()).st_size // _SPAN_MIN))


def _spans(path, parts: int) -> list[tuple[int, int | None, int, int]]:
    """Up to `parts` byte spans that cover the file, found in one binary pass.

    Each is (start, stop, base, ends): the bytes [start, stop), where stop is
    None for the last span, which runs to the end of the file; the line ends
    before start; and the line ends within. A line ends at \\n, \\r\\n or a
    lone \\r, as text-mode reading has it. Every span but the last ends just
    after the first \\n at or past its share of the file's size.
    """
    size = os.path.getsize(path)
    goals = [size * i // parts for i in range(1, parts)]
    spans = []
    start = base = ends = pos = 0
    cr = False  # the last read ended in \r
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            b = np.frombuffer(chunk, dtype=np.uint8)
            if cr and chunk[0] == 10:  # a \r\n that two reads split, counted twice
                ends -= 1
            cr = chunk[-1] == 13
            lo = 0
            while goals:
                cut = chunk.find(b"\n", max(goals[0] - pos, lo)) + 1
                if cut == 0 or pos + cut >= size:
                    break
                ends += _line_ends(chunk, b, lo, cut)
                spans.append((start, pos + cut, base, ends))
                start, base, ends, lo = pos + cut, base + ends, 0, cut
                goals = [g for g in goals if g >= start]
            ends += _line_ends(chunk, b, lo, len(chunk))
            pos += len(chunk)
    spans.append((start, None, base, ends))
    return spans


def _line_ends(chunk: bytes, b: np.ndarray, lo: int, hi: int) -> int:
    """The line ends in chunk[lo:hi]; b is chunk as uint8."""
    ends = np.count_nonzero(b[lo:hi] == 10)
    if chunk.find(b"\r", lo, hi) >= 0:
        cr = b[lo:hi] == 13
        ends += np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & (b[lo + 1 : hi] == 10))
    return int(ends)


def _line_count(path) -> int:
    """One more than the file's line ends: at least the lines text-mode reading gives."""
    return _spans(path, 1)[0][3] + 1


class _ByteSpan(io.RawIOBase):
    """Bytes [start, stop) of an unbuffered binary file, or from start to its
    end if stop is None."""

    def __init__(self, f, start: int, stop: int | None):
        self._f = f
        self._f.seek(start)
        self._left = sys.maxsize if stop is None else stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self._f.readinto(memoryview(b)[: self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._f.close()
        super().close()


def _open_span(path, span) -> io.TextIOWrapper:
    """The span as text, decoded as open(path) decodes: the same default
    encoding, universal newlines."""
    return io.TextIOWrapper(_ByteSpan(open(path, "rb", buffering=0), span[0], span[1]))


def _read_in_spans(path, spans, delimiter: str, rows: _Rows) -> None:
    """Read the spans into rows: the first in this process, each other in a
    forked child, as one serial read would.

    The children's rows merge in file order. A span whose child fails, dies
    or gives another column count is read again here, where the lines above
    it are known, so its error and line are those of a serial read. After a
    DataFormatError the children left are killed and their spans only
    decoded here, since undecodable bytes further on win.
    """
    rows.lines = spans[-1][2] + spans[-1][3] + 1
    children: list = [None]  # (pid, pipe) per span while it runs; the first is read here
    try:
        for span in spans[1:]:
            children.append(_fork(path, span, delimiter, rows.weight_column, children))
        for i, span in enumerate(spans):
            child, children[i] = children[i], None
            if _collect(child, rows):
                continue
            try:
                with _open_span(path, span) as f:
                    _read_rows(f, path, delimiter, rows, span[2])
            except DataFormatError:
                _stop(children)
                for later in spans[i + 1 :]:
                    with _open_span(path, later) as f:
                        while f.read(_READ_CHARS):
                            pass
                raise
    finally:
        _stop(children)


def _fork(path, span, delimiter: str, weight_column: int | None, children: list):
    """A forked child that reads span and sends it up a pipe: (pid, pipe), or
    None if no pipe or child could be made."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        # Safe although numpy's BLAS may have started threads, which a fork
        # does not copy: the child makes no BLAS call and starts no thread. It
        # only decodes and parses text and writes to its pipe, and it leaves
        # by os._exit, so it never returns into the caller, flushes stdio or
        # runs atexit.
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            os.close(r)
            for child in children:  # the earlier children's pipes end in the parent only
                if child:
                    os.close(child[1].fileno())
            with os.fdopen(w, "wb") as pipe:
                _send_span(pipe, path, span, delimiter, weight_column)
        finally:
            os._exit(0)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _send_span(pipe, path, span, delimiter: str, weight_column: int | None) -> None:
    """In a child: read span, then send a pickled part and its rows as raw bytes.

    part is None if the span did not read cleanly; a message made here would
    lack the lines above the span, so the parent reads that span again.
    """
    rows = _Rows(path, weight_column, lines=span[3] + 1)
    part = None
    try:
        with _open_span(path, span) as f:
            _read_rows(f, path, delimiter, rows, span[2])
        d = 0 if rows.out is None else rows.out.shape[1]
        part = (rows.n, d, rows.skipped, rows.gt_rows, rows.gt_lines, rows.weight_column)
    except (DataFormatError, UnicodeDecodeError):
        pass
    pickle.dump(part, pipe)
    if part and rows.n:
        pipe.write(rows.out[: rows.n])


def _collect(child, rows: _Rows) -> bool:
    """Merge a child's span into rows, then reap it. False if there is no
    child, or it sent no part, died before it sent all, or its rows have
    another column count than rows."""
    if child is None:
        return False
    pipe = child[1]
    try:
        try:
            part = pickle.load(pipe)  # bytes that this module's child wrote
        except (EOFError, pickle.UnpicklingError):  # it died before it sent them all
            return False
        if part is None:
            return False
        n, d, skipped, gt_rows, gt_lines, weight_column = part
        if n:
            if rows.out is not None and rows.out.shape[1] != d:
                return False
            buf = memoryview(rows.room(n, d)).cast("B")
            if pipe.readinto(buf) < len(buf):
                return False
            rows.n += n
        rows.skipped += skipped
        rows.gt_rows += gt_rows
        rows.gt_lines += gt_lines
        if rows.weight_column is None:
            rows.weight_column = weight_column
        return True
    finally:
        _reap(child)


def _stop(children: list) -> None:
    """Kill and reap the children still listed."""
    for i, child in enumerate(children):
        if child:
            children[i] = None
            os.kill(child[0], signal.SIGKILL)
            _reap(child)


def _reap(child) -> None:
    """Close the child's pipe, which ends a write it is blocked in, and wait for it."""
    pid, pipe = child
    pipe.close()
    os.waitpid(pid, 0)


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
