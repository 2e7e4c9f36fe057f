"""File formats: vector ingestion and bit-exact result serialization.

Text outputs print reals as Python's repr, the shortest decimal that parses
back to the same 64-bit value, so edge lists and stats files are diffable
across runs and platforms. The binary vector format is fixed little-endian
with no negotiation: magic "VEC1", then n and d as unsigned 64-bit fields,
then n*d IEEE-754 doubles row-major.
"""

from __future__ import annotations

import math
import os
import stat
import struct

import numpy as np

from .dendrogram import Dendrogram
from .errors import DataError, UsageError
from .geometry import PointSet
from .graph import EdgeList
from .stats import RunStats

POINT_FORMATS = ("csv", "vecbin")
_MAGIC = b"VEC1"
_HEADER = struct.Struct("<4sQQ")
_PRINTABLE = bytes(range(32, 127))


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


def read_points(path, format: str | None = None) -> PointSet:
    """Load a PointSet from a csv or vecbin file.

    csv is one point per line, comma-separated decimal reals, uniform column
    count, no header. Both formats reject non-finite values with the row
    named; structural damage (ragged rows, bad magic, truncated payload)
    raises with row or byte-offset context.
    """
    fmt = detect_format(path) if format is None else format
    if fmt == "csv":
        return _read_csv(path)
    if fmt == "vecbin":
        return _read_vecbin(path)
    raise UsageError(f"unknown point format {fmt!r}; choose from {POINT_FORMATS}")


def _read_csv(path) -> PointSet:
    """Parse with numpy's C reader where it must agree with _parse_rows, and with _parse_rows elsewhere.

    Both convert a field with the same routine as float(), so they agree
    bit for bit where both accept. loadtxt refuses underscores and
    non-ASCII digits, which float() accepts, and skips empty lines, which
    the row parser refuses. So loadtxt reads a regular file, opened once,
    through a stream that raises ValueError at the first line that is not
    non-empty printable ASCII before a "\\n" or "\\r\\n" break or the end.
    Every other file (a pipe unread), any loadtxt error and a row count
    other than the lines passed go to the row parser, the reference for
    what is accepted and for every error message.
    """
    coords, rows = None, 0

    def plain_lines(fh):
        nonlocal rows
        for line in fh:
            # What is not printable ASCII in a plain line is its "\n" or "\r\n" at the end, or nothing.
            brk = line.translate(None, _PRINTABLE)
            if brk != b"\n" and not (brk in (b"\r\n", b"") and line.endswith(brk)) or len(brk) == len(line):
                raise ValueError(f"line {rows} is not plain")
            rows += 1
            yield line.decode()

    info = os.stat(path)
    if stat.S_ISREG(info.st_mode) and info.st_size:
        with open(path, "rb") as fh:
            try:
                coords = np.loadtxt(plain_lines(fh), dtype=np.float64, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
    if coords is None or coords.shape[0] != rows:
        lines = _read_lines(path)
        if not lines:
            raise DataError(f"{path}: empty csv, cannot infer dimension")
        coords = _parse_rows(path, lines)
    return PointSet(coords)


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
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DataError(f"{path}: truncated header, {len(blob)} bytes of {_HEADER.size}")
    magic, n, d = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    if not 1 <= d < 2**60:  # numpy refuses a row of 2**63 bytes or more, even with n = 0
        raise DataError(f"{path}: dimension field is {d}, need 1 to 2**60 - 1")
    expected = _HEADER.size + n * d * 8
    if len(blob) != expected:
        raise DataError(
            f"{path}: payload is {len(blob) - _HEADER.size} bytes, "
            f"header promises {expected - _HEADER.size}"
        )
    coords = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(n, d)
    return PointSet(coords)


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
