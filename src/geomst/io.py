"""File formats: vector ingestion and bit-exact result serialization.

Text outputs print reals as Python's repr, the shortest decimal that parses
back to the same 64-bit value, so edge lists and stats files are diffable
across runs and platforms. The binary vector format is fixed little-endian
with no negotiation: magic "VEC1", then n and d as unsigned 64-bit fields,
then n*d IEEE-754 doubles row-major.

Both readers hand PointSet an array that nothing else holds, which it
checks and makes read-only without a copy, so a read holds the coordinates
about once. A csv of enough bytes is parsed by up to `workers` processes,
one byte range each, through decompose's process runner (_read_csv).
"""

from __future__ import annotations

import functools
import math
import os
import stat
import struct

import numpy as np

from .decompose import _repaid, _run_forked, usable_cores
from .dendrogram import Dendrogram
from .errors import DataError, UsageError
from .geometry import PointSet, _integer
from .graph import EdgeList
from .stats import RunStats

POINT_FORMATS = ("csv", "vecbin")
_MAGIC = b"VEC1"
_HEADER = struct.Struct("<4sQQ")
_PRINTABLE = bytes(range(32, 127))
# Estimated seconds np.loadtxt takes per byte of a csv through the checked
# line stream: a 6000 x 768 write_points csv (90 MB) took 1.13-1.17 s in one
# process, 12.6 ns a byte (2-vCPU x86_64, numpy 2.4.6). A read splits the
# file into as many ranges as get decompose._FORK_MIN_S of the estimate each.
_PARSE_BYTE_S = 12.6e-9
# A file read in several ranges is parsed by one loadtxt call per this many
# bytes of lines, so joining the ranges holds one chunk beside the result,
# not a second copy of every range. At 4 MiB of text a chunk of repr'd
# doubles is about 1.6 MiB; glibc kept the heap pages of freed 0.2 MiB
# chunks (512 KiB of text), which brought the second copy back.
_CHUNK_BYTES = 1 << 22


def detect_format(path) -> str:
    name = str(path)
    if name.endswith(".csv"):
        return "csv"
    if name.endswith(".vecbin"):
        return "vecbin"
    raise UsageError(f"cannot infer a point format from {name!r}; pass one of {POINT_FORMATS}")


def fmt_real(x: float) -> str:
    """Shortest decimal string that parses back to the same 64-bit value."""
    return repr(float(x))


def read_points(path, format: str | None = None, workers: int | None = None) -> PointSet:
    """Load a PointSet from a csv or vecbin file.

    csv is one point per line, comma-separated decimal reals, uniform column
    count, no header. Both formats reject non-finite values with the row
    named; structural damage (ragged rows, bad magic, truncated payload)
    raises with row or byte-offset context. workers, as in decomposed_mst,
    is an upper bound that defaults to usable_cores(): the csv parser forks
    only as many processes as the file's estimated parse time repays. The
    result and every error are the same for every workers value.
    """
    fmt = detect_format(path) if format is None else format
    workers = usable_cores() if workers is None else _integer(workers, "workers", 1)
    if fmt == "csv":
        return _read_csv(path, workers)
    if fmt == "vecbin":
        return _read_vecbin(path)
    raise UsageError(f"unknown point format {fmt!r}; choose from {POINT_FORMATS}")


def _read_csv(path, workers: int) -> PointSet:
    """Parse with numpy's C reader where it must agree with _parse_rows, and with _parse_rows elsewhere.

    Both convert a field with the same routine as float(), so they agree
    bit for bit where both accept. loadtxt refuses underscores and
    non-ASCII digits, which float() accepts, and skips empty lines, which
    the row parser refuses. So loadtxt reads a regular file through
    _plain_rows, which refuses the first line that is not plain. The file is
    split into byte ranges that end just after a "\\n" (_line_ranges), one
    per process that the estimated parse time (_PARSE_BYTE_S) repays, up to
    workers: this process opens the path once and parses range 0, and a
    forked child per other range opens the path itself. Every other file (a
    pipe unread), a ValueError from any range and ranges of different widths
    go to the row parser, which reads the whole file and is the reference
    for what is accepted and for every error message, so row numbers stay
    those of the file.
    """
    coords = None
    info = os.stat(path)
    if stat.S_ISREG(info.st_mode) and info.st_size:
        with open(path, "rb") as fh:
            ranges = _line_ranges(fh, info.st_size, _repaid(info.st_size * _PARSE_BYTE_S, workers))
            chunk = _CHUNK_BYTES if len(ranges) > 1 else info.st_size  # one range is one array, never copied
            jobs = [functools.partial(_plain_rows, fh, *ranges[0], chunk)]
            jobs += [functools.partial(_plain_range, path, *r, chunk) for r in ranges[1:]]
            try:
                coords = _joined(_run_forked(jobs))
            except ValueError:
                pass
    if coords is None:
        lines = _read_lines(path)
        if not lines:
            raise DataError(f"{path}: empty csv, cannot infer dimension")
        coords = _parse_rows(path, lines)
    return PointSet._adopt(coords)


def _line_ranges(fh, size: int, parts: int) -> list[tuple[int, int]]:
    """At most parts non-empty (start, end) byte ranges that cover the file in order.

    Range i ends just after the first "\\n" at or after byte (i + 1) * size
    // parts - 1, or at the end; a line that holds several of those bytes
    leaves fewer ranges. The format has no quoting, so the split is exact.
    """
    bounds = [0]
    for i in range(1, parts):
        at = i * size // parts - 1
        if at >= bounds[-1]:  # else the last range's last line holds that byte
            fh.seek(at)
            fh.readline()
            bounds.append(fh.tell())
    if bounds[-1] < size:
        bounds.append(size)
    return list(zip(bounds, bounds[1:]))


def _plain_range(path, start: int, end: int, chunk: int) -> list[np.ndarray]:
    """_plain_rows of bytes start..end of the file at path, through a file offset of its own."""
    with open(path, "rb") as fh:
        return _plain_rows(fh, start, end, chunk)


def _plain_rows(fh, start: int, end: int, chunk: int) -> list[np.ndarray]:
    """loadtxt's coordinates of the lines in bytes start..end of fh, an array per chunk bytes of lines, or ValueError.

    The stream raises ValueError at the first line that is not non-empty
    printable ASCII before a "\\n" or "\\r\\n" break or the end, and a row
    count other than the lines passed, or a file that ends before end, is
    a ValueError too.
    """
    rows = 0

    def plain_lines(stop):
        nonlocal rows, start
        for line in fh:
            # What is not printable ASCII in a plain line is its "\n" or "\r\n" at the end, or nothing.
            brk = line.translate(None, _PRINTABLE)
            if brk != b"\n" and not (brk in (b"\r\n", b"") and line.endswith(brk)) or len(brk) == len(line):
                raise ValueError(f"line {rows} is not plain")
            rows += 1
            start += len(line)
            yield line.decode()
            if start >= stop:
                return
        raise ValueError("the file ended early")

    chunks = []
    fh.seek(start)
    while start < end:
        rows = 0
        lines = plain_lines(min(start + chunk, end))
        coords = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        if coords.shape[0] != rows:
            raise ValueError(f"{rows} lines gave {coords.shape[0]} rows")
        chunks.append(coords)
    return chunks


def _joined(parts: list) -> np.ndarray | None:
    """The chunks of every range's rows as one array, or None if their widths differ.

    Each chunk is released once it is copied, so beside the result a read
    holds at most one chunk, not a second copy of every range. The caller
    passes parts, the runner's list, on and keeps no reference to it.
    """
    chunks = [chunk for part in parts for chunk in part]
    del parts
    if len({c.shape[1] for c in chunks}) != 1:
        return None
    if len(chunks) == 1:
        return chunks[0]
    out = np.empty((sum(map(len, chunks)), chunks[0].shape[1]))
    at = 0
    for i in range(len(chunks)):
        chunk, chunks[i] = chunks[i], None
        out[at : at + len(chunk)] = chunk
        at += len(chunk)
    return out


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, or DataError naming the offset of the first bad byte."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {exc.start} is not valid UTF-8") from None


def _parse_rows(path, lines) -> np.ndarray:
    """Coordinates of csv lines by float() per field, or DataError naming the first bad row."""
    rows = []
    width = None
    for i, line in enumerate(lines):
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise DataError(f"{path}: row {i} has {len(fields)} values, expected {width}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise DataError(f"{path}: row {i} contains an unparseable value") from None
    return np.array(rows, dtype=np.float64)


def _read_vecbin(path) -> PointSet:
    """The header checked, then the payload read into the array PointSet adopts, so it is held once."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DataError(f"{path}: truncated header, {len(head)} bytes of {_HEADER.size}")
        magic, n, d = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        if not 1 <= d < 2**60:  # numpy refuses a row of 2**63 bytes or more, even with n = 0
            raise DataError(f"{path}: dimension field is {d}, need 1 to 2**60 - 1")
        promised = n * d * 8
        info = os.fstat(fh.fileno())
        # A regular file's size is known before its payload is read, so the
        # array is allocated only for a payload of the promised size; a
        # pipe's payload is read whole first.
        blob = None if stat.S_ISREG(info.st_mode) else fh.read()
        size = info.st_size - _HEADER.size if blob is None else len(blob)
        if size == promised and blob is None:
            coords = np.empty((n, d), dtype="<f8")
            size = fh.readinto(coords.reshape(-1).view(np.uint8))
        elif size == promised:
            coords = np.frombuffer(blob, dtype="<f8").reshape(n, d)
        if size != promised:
            raise DataError(f"{path}: payload is {size} bytes, header promises {promised}")
    return PointSet._adopt(coords)


def write_points(points: PointSet, path, format: str | None = None) -> None:
    """Serialize coordinates so read_points reproduces them bit-exactly."""
    fmt = detect_format(path) if format is None else format
    if fmt == "csv":
        _write_text(path, "".join(",".join(map(fmt_real, row)) + "\n" for row in points.coords))
    elif fmt == "vecbin":
        payload = np.ascontiguousarray(points.coords, dtype="<f8").tobytes()
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, points.count, points.dim))
            fh.write(payload)
    else:
        raise UsageError(f"unknown point format {fmt!r}; choose from {POINT_FORMATS}")


def format_edges(tree: EdgeList) -> str:
    """TSV edge list text: u, v, weight per line, in the EdgeList's (weight, u, v) order."""
    return "".join(f"{u}\t{v}\t{fmt_real(w)}\n" for u, v, w in tree.triples())


def write_edges(tree: EdgeList, path) -> None:
    _write_text(path, format_edges(tree))


def read_edges(path) -> EdgeList:
    rows = []
    for i, line in enumerate(_read_lines(path)):
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}: row {i} has {len(fields)} fields, expected 3")
        try:
            u, v, w = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise DataError(f"{path}: row {i} contains an unparseable value") from None
        if u == v or not math.isfinite(w):
            raise DataError(f"{path}: row {i} is a self-loop or has a non-finite weight")
        if not (0 <= u < 2**63 and 0 <= v < 2**63):
            raise DataError(f"{path}: row {i} has a vertex id outside 0..2**63 - 1")
        rows.append((u, v, w))
    return EdgeList(*zip(*rows))


def write_dendrogram(d: Dendrogram, path) -> None:
    """TSV merge log: step index, cluster_a, cluster_b, height, size."""
    steps = enumerate(zip(d.a.tolist(), d.b.tolist(), d.height.tolist(), d.size.tolist()))
    _write_text(path, "".join(f"{t}\t{a}\t{b}\t{fmt_real(h)}\t{s}\n" for t, (a, b, h, s) in steps))


def write_stats(s: RunStats, path, *, n: int, d: int, k: int, metric: str, seed: int) -> None:
    """Flat key=value dump of the counters, the processes that ran (s.workers) and the run parameters."""
    fields = {
        "distance_evals": s.distance_evals,
        "edges_gathered": s.edges_gathered,
        "tasks_executed": s.tasks_executed,
        "merge_strategy": s.merge_strategy,
        "combine_input_sizes": ",".join(map(str, s.combine_input_sizes)),
        "wall_time_ms": fmt_real(s.wall_time * 1000.0),
        "n": n,
        "d": d,
        "k": k,
        "metric": metric,
        "workers": s.workers,
        "seed": seed,
    }
    _write_text(path, "".join(f"{key}={value}\n" for key, value in fields.items()))


def _write_text(path, text: str) -> None:
    """The one text writer of the package: UTF-8, line breaks written as they are in text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
