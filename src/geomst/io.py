"""File formats: vector ingestion and bit-exact result serialization.

Text outputs print reals as Python's repr, the shortest decimal that parses
back to the same 64-bit value, so edge lists and stats files are diffable
across runs and platforms. The binary vector format is fixed little-endian
with no negotiation: magic "VEC1", then n and d as unsigned 64-bit fields,
then n*d IEEE-754 doubles row-major.
"""

from __future__ import annotations

import math
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
    """Parse with numpy's C reader, falling back to _parse_rows wherever they could differ.

    Both convert a field with the same routine as float(), so they agree
    bit for bit where both accept. loadtxt refuses underscores and
    non-ASCII digits, which float() accepts, and skips empty lines, which
    the row parser refuses: so an empty line, any loadtxt error or a row
    count other than the line count hands the text to the row parser, the
    reference for what is accepted and for every error message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty csv, cannot infer dimension")
    coords = None
    if "" not in lines:
        try:
            coords = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if coords is None or coords.shape[0] != len(lines):
        coords = _parse_rows(path, lines)
    return PointSet(coords)


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
    if d < 1:
        raise DataError(f"{path}: dimension field is {d}, need at least 1")
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
        lines = [",".join(fmt_real(x) for x in row) for row in points.coords]
        _write_text(path, lines)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_edges(tree))


def read_edges(path) -> EdgeList:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}: row {i} has {len(fields)} fields, expected 3")
        try:
            u, v, w = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise DataError(f"{path}: row {i} contains an unparseable value") from None
        if u == v or not math.isfinite(w):
            raise DataError(f"{path}: row {i} is a self-loop or has a non-finite weight")
        rows.append((u, v, w))
    return EdgeList(*zip(*rows))


def write_dendrogram(d: Dendrogram, path) -> None:
    """TSV merge log: step index, cluster_a, cluster_b, height, size."""
    steps = zip(d.a.tolist(), d.b.tolist(), d.height.tolist(), d.size.tolist())
    lines = [f"{t}\t{a}\t{b}\t{fmt_real(h)}\t{s}" for t, (a, b, h, s) in enumerate(steps)]
    _write_text(path, lines)


def write_stats(
    s: RunStats,
    path,
    *,
    n: int,
    d: int,
    k: int,
    metric: str,
    workers: int,
    seed: int,
) -> None:
    """Flat key=value dump of the counters plus the run parameters."""
    lines = [
        f"distance_evals={s.distance_evals}",
        f"edges_gathered={s.edges_gathered}",
        f"tasks_executed={s.tasks_executed}",
        f"merge_strategy={s.merge_strategy}",
        f"wall_time_ms={fmt_real(s.wall_time * 1000.0)}",
        f"n={n}",
        f"d={d}",
        f"k={k}",
        f"metric={metric}",
        f"workers={workers}",
        f"seed={seed}",
    ]
    _write_text(path, lines)


def _write_text(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))
