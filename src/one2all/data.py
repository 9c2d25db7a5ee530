"""Dataset synthesis and file I/O.

Three sources: a Gaussian-mixture generator with known ground-truth
centroids (means on a line, one spacing apart), delimited text, and IDX
image files (big-endian, the MNIST container format). Ground-truth cost is
always measured in squared Euclidean distance, the space the benchmark
pipeline runs in, and computed only when first read.

Delimited text is read once and written in spans. A large regular file is
cut into at least two spans, one per usable CPU. A load parses every span of
a cut file in a child, and a dump each span after the first. One helper
forks them (_fork): a child writes its result to an anonymous file, and its
exit status says whether the result is whole (_join). Any other file, pipes
and devices included, is read once from the handle the load opened, and so
is a cut file whose child cannot be made or fails; a dump writes a span
whose child fails itself. So bytes, values and errors never depend on the
cut, and only a failed load of a regular file reads it again, to name the
line of its first undecodable byte.
"""

from __future__ import annotations

import codecs
import functools
import io
import os
import pickle
import shutil
import signal
import stat
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .core import CentroidSet, MetricSpace, WeightedPointSet, cost
from .errors import DataFormatError

_GT_SPACE = MetricSpace.euclidean(2.0)
_MAGIC_IMAGES = 0x00000803
_MAGIC_LABELS = 0x00000801
_DUMP_ROWS = 1 << 14  # rows formatted per write, which bounds a dump's memory
_DUMP_MIN = 1 << 18  # cells: a file is written in parallel row spans of at least this many
_READ_CHARS = 1 << 20  # characters read and parsed at a time, which bounds a load's memory
_SPAN_MIN = 1 << 22  # bytes: a file is parsed in parallel spans of at least this size
# Encodings in which a b"\n" byte always ends a line and the bytes on either
# side decode apart, so a file in them can be cut into spans after one, and
# which write no BOM, so spans encoded apart join into the bytes of the whole.
_SPLITTABLE = ("utf-8", "ascii", "iso8859-1")
# Every character repr() writes for a float, finite or not.
_FLOAT_CHARS = frozenset("0123456789.e+-infa")
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
    if not (n >= k >= 1 and d >= 1 and 0 < spacing < np.inf):
        raise ValueError("need n >= k >= 1, d >= 1 and a finite spacing > 0")
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


def check_delimiter(delimiter: str, write: bool) -> None:
    """Raise ValueError for a delimiter load_delimited cannot split on (an
    empty one) or, with write, one that dump_delimited's rows could not be
    read back with: one that holds a line break or a character of a float's
    repr ("0-9 . e + - i n f a")."""
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    if write and ("\n" in delimiter or "\r" in delimiter):
        raise ValueError(f"delimiter {delimiter!r} holds a line break")
    if write and _FLOAT_CHARS.intersection(delimiter):
        raise ValueError(f"delimiter {delimiter!r} shares a character with a number")


def dump_delimited(dataset: LabeledDataset, path: str, delimiter: str = ",") -> None:
    """Native dump: header and ground truth as comment lines, then rows.

    Floats are written with repr so a read-back is bit-identical. Weights not
    None go in an extra last column, announced in the header. A delimiter
    the rows could not be read back with raises ValueError (check_delimiter).
    The rows are written in contiguous spans, one per usable CPU and at least
    two, each of at least _DUMP_MIN cells (one span where _parts allows no
    more): this process writes the header and the first span, a forked child
    writes each other span to an anonymous file in path's directory, and this
    process appends those files in order. Each process formats _DUMP_ROWS
    rows at a time, so memory holds one block per process, never a span or
    the file as text.
    """
    check_delimiter(delimiter, write=True)
    pts = dataset.points.points
    w = dataset.points.weights
    k = dataset.meta.get("k", dataset.ground_truth.k if dataset.ground_truth else 0)
    head = [f"# one2all-dataset v1 n={pts.shape[0]} d={pts.shape[1]} k={k}\n"]
    if w is not None:
        head.append("# weights: last-column\n")
    if dataset.ground_truth is not None:
        head += ["# ground-truth: " + delimiter.join(map(repr, q)) + "\n"
                 for q in dataset.ground_truth.points.tolist()]
    with open(path, "w") as f:
        f.write("".join(head))
        n = pts.shape[0]
        parts = _parts(f, n * (pts.shape[1] + (w is not None)), _DUMP_MIN)
        spans = [(n * i // parts, n * (i + 1) // parts) for i in range(parts)]
        tmpdir = os.path.dirname(os.path.abspath(path))
        children: list = [None]  # (pid, file) per span while it runs; the first is written here
        try:
            for span in spans[1:]:
                children.append(_fork(tmpdir, _write_span, f, pts, w, span, delimiter))
            for i, span in enumerate(spans):
                out = _join(children, i)
                if out is None:
                    _write_rows(f, pts, w, span, delimiter)
                    continue
                with out:
                    f.flush()
                    shutil.copyfileobj(out, f.buffer, 1 << 20)
        finally:
            _stop(children)


def _write_rows(f, pts: np.ndarray, w: np.ndarray | None, span, delimiter: str) -> None:
    """Write rows span[0] to span[1] of pts to f, with w as a last column
    unless it is None, one block of _DUMP_ROWS rows at a time."""
    lo, hi = span
    for start in range(lo, hi, _DUMP_ROWS):
        stop = min(start + _DUMP_ROWS, hi)
        block = pts[start:stop]
        if w is not None:
            block = np.column_stack([block, w[start:stop]])
        f.write("".join([delimiter.join(map(repr, row)) + "\n" for row in block.tolist()]))


def _write_span(out, f, *args) -> None:
    """In a child: _write_rows(*args) to the binary file out, encoded as the
    text file f encodes."""
    text = io.TextIOWrapper(out, f.encoding, f.errors)
    _write_rows(text, *args)
    text.detach()  # flushes into out and leaves it open


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
    1-based file line ("row N"): in a regular file, undecodable bytes anywhere
    come first, then the first bad row or ground-truth line in the file. A
    large regular file is cut into byte spans, at least two and one per
    usable CPU, each parsed in a forked process; any other file, a pipe or a
    device included, is read once in this process from the handle opened
    here, and so is a cut file when a child fails. Text is read and parsed
    one block of lines at a time, so memory holds the result and one block,
    never the whole file as strings. A regular file that fails to load is
    decoded 1 MiB at a time to find undecodable bytes, so that never holds
    the whole file either; a pipe's undecodable bytes are named without a
    line.
    """
    check_delimiter(delimiter, write=False)
    with open(path) as f:
        info = os.fstat(f.fileno())
        parts = _parts(f, info.st_size, _SPAN_MIN)
        rows = None
        if parts > 1:
            rows = _read_in_spans(path, _spans(path, parts), delimiter, weight_column)
        if rows is None:
            rows = _Rows(weight_column)
            try:
                _read_rows(f, path, delimiter, rows)
            except (DataFormatError, UnicodeDecodeError) as e:
                error = None
                if stat.S_ISREG(info.st_mode):
                    error = _undecodable(path, f.encoding)
                elif isinstance(e, UnicodeDecodeError):
                    error = DataFormatError(f"{path}: not valid {f.encoding} text")
                if error is None:
                    raise
                raise error from None
    if not rows.n:
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

    lines counts the file lines read; skipped holds the sorted 1-based file
    lines that hold no row; gt_rows and gt_lines the ground-truth rows and
    their file lines; weight_column the weight column as the comments leave
    it. out is allocated at the first rows and doubles when it is full.
    """

    weight_column: int | None
    lines: int = 0
    out: np.ndarray | None = None
    n: int = 0
    skipped: list[int] = field(default_factory=list)
    gt_rows: list[list[float]] = field(default_factory=list)
    gt_lines: list[int] = field(default_factory=list)

    def room(self, m: int, d: int) -> np.ndarray:
        """out[n : n + m], for m more rows of d columns."""
        if self.out is None:
            self.out = np.empty((m, d))
        elif self.n + m > len(self.out):
            self.out.resize((2 * (self.n + m), d), refcheck=False)
        return self.out[self.n : self.n + m]


def _read_rows(f, path, delimiter: str, rows: _Rows) -> None:
    """Sort and parse a text file's lines into rows, one block of lines at a
    time, numbering them on from rows.lines."""
    while lines := f.readlines(_READ_CHARS):
        base = rows.lines
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
                        [float(v) for v in body.split(":", 1)[1].strip().split(delimiter)])
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
        rows.lines += len(lines)


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parts(f, size: int, least: int) -> int:
    """How many spans to read or write the open text file f in, for size units
    of work and at least `least` per span: one per usable CPU and at least
    two, so that no process holds much more than its share of the result; one
    where no child can be forked, f is not a regular file, or a span's bytes
    may not decode or encode apart from the others' (f's encoding is not
    _SPLITTABLE)."""
    if (not hasattr(os, "fork") or not stat.S_ISREG(os.fstat(f.fileno()).st_mode)
            or codecs.lookup(f.encoding).name not in _SPLITTABLE):
        return 1
    return max(1, min(max(2, _cpus()), size // least))


def _spans(path, parts: int) -> list[tuple[int, int]]:
    """Up to `parts` byte spans [start, stop) that cover the file. Every span
    but the last ends just after the first \\n at or past its share of the
    file's size, found by a seek and a read on to it."""
    size = os.path.getsize(path)
    starts = [0]
    with open(path, "rb") as f:
        for i in range(1, parts):
            goal = size * i // parts
            if goal < starts[-1]:
                continue
            f.seek(goal)
            cut = goal + len(f.readline())
            if cut >= size:
                break
            starts.append(cut)
    return list(zip(starts, starts[1:] + [size]))


class _ByteSpan(io.RawIOBase):
    """Bytes [start, stop) of an unbuffered binary file."""

    def __init__(self, f, start: int, stop: int):
        self._f = f
        self._f.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self._f.readinto(memoryview(b)[: self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._f.close()
        super().close()


def _read_in_spans(path, spans, delimiter: str, weight_column: int | None) -> _Rows | None:
    """The file's rows, read from the spans, each in a forked child, as one
    read of the whole file gives them; None if a child cannot be made or
    fails, or two spans' rows have different column counts, where one read
    of the file gives the values or the error. The result is allocated once,
    from the children's row counts. On any return the children left are
    killed.
    """
    children: list = []  # (pid, file) per span while it runs
    outs, parts = [], []
    try:
        for span in spans:
            # the default temporary directory: path's may be read-only
            children.append(_fork(None, _send_span, path, span, delimiter, weight_column))
        for i in range(len(spans)):
            out = _join(children, i)
            if out is None:
                return None
            outs.append(out)
            parts.append(pickle.load(out))  # this module's bytes
        widths = {part.out.shape[1] for part in parts if part.n}
        if len(widths) > 1:
            return None
        rows = _Rows(weight_column)
        rows.out = np.empty((sum(part.n for part in parts), max(widths, default=0)))
        for out, part in zip(outs, parts):
            out.readinto(rows.out[rows.n : rows.n + part.n])
            rows.n += part.n
            rows.skipped += [rows.lines + line for line in part.skipped]
            rows.gt_rows += part.gt_rows
            rows.gt_lines += [rows.lines + line for line in part.gt_lines]
            rows.lines += part.lines
            if rows.weight_column is None:
                rows.weight_column = part.weight_column
        return rows
    finally:
        _stop(children)
        for out in outs:
            out.close()


def _send_span(out, path, span, delimiter: str, weight_column: int | None) -> None:
    """In a child: read span, decoded as open(path) decodes (the same default
    encoding, universal newlines) and its lines numbered from 1, then write
    to out its _Rows, pickled with out cut to no rows, and the rows as raw
    bytes. A span that does not read cleanly raises: a message made here
    would lack the lines above the span, so the parent reads the whole file
    instead."""
    rows = _Rows(weight_column)
    with io.TextIOWrapper(_ByteSpan(open(path, "rb", buffering=0), *span)) as f:
        _read_rows(f, path, delimiter, rows)
    block = np.empty((0, 0)) if rows.out is None else rows.out[: rows.n]
    rows.out = block[:0]
    pickle.dump(rows, out)
    out.write(block)


def _fork(tmpdir, job, *args):
    """Run job(out, *args) in a forked child, where out is an anonymous file
    in tmpdir (None: the default temporary directory): (pid, out), or None if
    no file or child could be made. The child exits 0 once its job has
    finished and out is flushed, and 1 on any other end.

    Safe although numpy's BLAS may have started threads, which a fork does
    not copy: a job makes no BLAS call and starts no thread. It only parses
    or formats text and writes to out, and the child leaves by os._exit, so
    it never returns into the caller, flushes the parent's buffers twice or
    runs atexit.
    """
    try:
        out = tempfile.TemporaryFile(dir=tmpdir)
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        out.close()
        return None
    if pid == 0:
        code = 1
        try:
            job(out, *args)
            out.flush()
            code = 0
        finally:
            os._exit(code)
    return pid, out


def _join(children: list, i: int):
    """Take child i off the list and wait for it: its file, rewound, if it
    exited 0, else None (with the file closed). None if there is no child."""
    child, children[i] = children[i], None
    if child is None:
        return None
    pid, out = child
    if os.waitpid(pid, 0)[1] != 0:
        out.close()
        return None
    out.seek(0)
    return out


def _stop(children: list) -> None:
    """Kill, close and reap the children still listed."""
    for child in filter(None, children):
        os.kill(child[0], signal.SIGKILL)
        child[1].close()
        os.waitpid(child[0], 0)


def _file_line(skipped: list[int], row: int) -> int:
    """The 1-based file line of the 0-based row, given the sorted file lines
    that hold no row: row + 1 plus the count of those lines above it."""
    above = np.asarray(skipped, dtype=np.int64) - np.arange(len(skipped))
    return int(row) + 1 + int(np.searchsorted(above, row + 1, side="right"))


def _undecodable(path, encoding: str) -> DataFormatError | None:
    """The error that names the line of a regular file's first undecodable
    byte, or None if the file decodes. The file is decoded 1 MiB at a time,
    and its line ends counted as text-mode reading has them: \\n, \\r\\n or
    a lone \\r."""
    decoder = codecs.getincrementaldecoder(encoding)()
    ends = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            if chunk[-1] == 13 and f.peek(1)[:1] == b"\n":  # keep a \r\n in one read
                chunk += f.read(1)
            error = None
            try:
                decoder.decode(chunk, final=not f.peek(1))
            except UnicodeDecodeError as e:
                # e.object ends where chunk does. A bad byte in the read
                # before began a character the decoder held back, and those
                # bytes are never \n or \r in the encodings open() uses.
                error = e
                chunk = chunk[: max(0, len(chunk) - len(e.object) + e.start)]
            ends += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            if error is not None:
                return DataFormatError(f"{path}: row {ends + 1}: not valid {encoding} text")
    return None


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
                f"{labels_path}: labels/images count mismatch: {lcount} labels, {count} images"
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
