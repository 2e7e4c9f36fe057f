"""File formats: pinned bytes, structural error reporting, exact round-trips."""

import os
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference import no_child_processes

from geomst import (
    DataError,
    EdgeList,
    Metric,
    PointSet,
    UsageError,
    dense_mst,
    detect_format,
    fmt_real,
    format_edges,
    generate_instance,
    mst_to_dendrogram,
    read_edges,
    read_points,
    write_dendrogram,
    write_edges,
    write_points,
    write_stats,
)
import geomst.io as io_module
from geomst.io import _parse_rows
from geomst.stats import RunStats

coord_elements = st.floats(allow_nan=False, allow_infinity=False, width=64)

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda d: hnp.arrays(
        np.float64,
        st.tuples(st.integers(min_value=0, max_value=8), st.just(d)),
        elements=coord_elements,
    )
)


def test_csv_two_points(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0,0\n3,4\n")
    pts = read_points(p)
    assert pts.count == 2 and pts.dim == 2
    assert pts.coords.tolist() == [[0.0, 0.0], [3.0, 4.0]]


def test_vecbin_empty_set_with_dimension(tmp_path):
    p = tmp_path / "pts.vecbin"
    p.write_bytes(b"VEC1" + struct.pack("<QQ", 0, 3))
    pts = read_points(p)
    assert pts.count == 0 and pts.dim == 3


@given(coords=matrices)
def test_csv_round_trip_is_bit_exact(coords, tmp_path_factory):
    if coords.shape[0] == 0:
        return  # csv cannot carry a dimension without rows
    path = tmp_path_factory.mktemp("rt") / "pts.csv"
    pts = PointSet(coords)
    write_points(pts, path)
    back = read_points(path)
    assert back.coords.tobytes() == pts.coords.tobytes()


@given(coords=matrices)
def test_vecbin_round_trip_is_bit_exact(coords, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "pts.vecbin"
    pts = PointSet(coords)
    write_points(pts, path)
    back = read_points(path)
    assert back.count == pts.count and back.dim == pts.dim
    assert back.coords.tobytes() == pts.coords.tobytes()


def test_formats_agree_with_each_other(tmp_path):
    pts = generate_instance(5, 17, 4, "gaussian")
    a = tmp_path / "pts.csv"
    b = tmp_path / "pts.vecbin"
    write_points(pts, a)
    write_points(pts, b)
    assert read_points(a).coords.tobytes() == read_points(b).coords.tobytes()


def test_edge_file_round_trip_is_exact(tmp_path):
    pts = generate_instance(12, 40, 3, "uniform_cube")
    tree = dense_mst(pts, Metric("euclidean"))
    path = tmp_path / "tree.tsv"
    write_edges(tree, path)
    back = read_edges(path)
    assert [(e.w, e.u, e.v) for e in back] == [
        (e.w, e.u, e.v) for e in tree
    ]
    assert back == tree


def test_edge_file_golden_bytes(tmp_path):
    tree = EdgeList([1, 0], [2, 1], [2.0, 1.0])
    path = tmp_path / "tree.tsv"
    write_edges(tree, path)
    assert path.read_text() == "0\t1\t1.0\n1\t2\t2.0\n"
    assert format_edges(tree) == "0\t1\t1.0\n1\t2\t2.0\n"


def test_edges_write_weights_round_trippably(tmp_path):
    w = 0.1 + 0.2  # 0.30000000000000004
    path = tmp_path / "tree.tsv"
    write_edges(EdgeList([0], [1], [w]), path)
    assert read_edges(path).edges[0].w == w


def test_dendrogram_file_golden_bytes(tmp_path):
    tree = EdgeList([0, 1], [1, 2], [1.0, 2.0])
    d = mst_to_dendrogram(tree, 3)
    path = tmp_path / "dendro.tsv"
    write_dendrogram(d, path)
    assert path.read_text() == "0\t0\t1\t1.0\t2\n1\t3\t2\t2.0\t3\n"


@pytest.mark.parametrize(
    "merge, sizes, shown", [("gather", [], ""), ("reduce", [4, 7], "4,7")], ids=["gather", "reduce"]
)
def test_stats_file_has_all_keys(tmp_path, merge, sizes, shown):
    stats = RunStats(
        distance_evals=10, edges_gathered=4, tasks_executed=3, merge_strategy=merge,
        wall_time=0.25, combine_input_sizes=sizes, workers=2,
    )
    path = tmp_path / "stats.txt"
    write_stats(stats, path, n=5, d=2, k=3, metric="euclidean", seed=9)
    pairs = dict(line.split("=", 1) for line in path.read_text().splitlines())
    assert pairs == {
        "distance_evals": "10",
        "edges_gathered": "4",
        "tasks_executed": "3",
        "merge_strategy": merge,
        "combine_input_sizes": shown,
        "wall_time_ms": "250.0",
        "n": "5",
        "d": "2",
        "k": "3",
        "metric": "euclidean",
        "workers": "2",
        "seed": "9",
    }


def test_ragged_csv_names_the_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,0\n1,2,3\n")
    with pytest.raises(DataError, match="row 1"):
        read_points(p)


def test_unparseable_csv_names_the_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,0\n1,zebra\n")
    with pytest.raises(DataError, match="row 1"):
        read_points(p)


def test_non_finite_csv_rejected_with_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,0\n1,1\nnan,0\n")
    with pytest.raises(DataError, match="point 2"):
        read_points(p)
    p.write_text("inf,0\n")
    with pytest.raises(DataError, match="point 0"):
        read_points(p)


def test_non_utf8_csv_names_the_byte(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"1,2\n3,\xff\n")
    with pytest.raises(DataError, match="byte 6 is not valid UTF-8"):
        read_points(p)


def test_empty_csv_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_points(p)


def _row_parser_outcome(path):
    """What read_points gave when every csv went through the row parser alone."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise DataError(f"{path}: empty csv, cannot infer dimension")
        return PointSet(_parse_rows(path, lines)).coords
    except DataError as exc:
        return str(exc)


def _outcome(path, workers=None):
    try:
        return read_points(path, workers=workers).coords
    except DataError as exc:
        return str(exc)


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Fields numpy's reader and float() might read differently: signs, exponents,
# underscores (float() only), a byte-order mark, non-finite spellings, an
# out-of-range exponent, empty fields and separators other than "\n" that
# str.splitlines honours ("\x0c", "\x85") or that universal newlines turn
# into one ("\r").
CSV_TOKENS = list("0123456789+-.eE_,# \n\r\x0c\x85\ufeff") + [
    "nan", "inf", "-inf", "1e400", "1.5", "0.1", "2.5e-3", "1_0", ",", "\n", ", ", "",
]
csv_noise = st.lists(st.sampled_from(CSV_TOKENS), max_size=40).map("".join)
csv_fields = st.floats(width=64).map(repr) | st.lists(
    st.sampled_from(CSV_TOKENS), min_size=1, max_size=3
).map("".join)


def _csv_grid(d):
    row = st.lists(csv_fields, min_size=d, max_size=d).map(",".join)
    return st.lists(row | csv_noise, min_size=1, max_size=5).map("\n".join)


csv_grids = st.integers(min_value=1, max_value=4).flatmap(_csv_grid)


@given(text=csv_noise | csv_grids)
def test_csv_reader_equals_the_row_parser(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "pts.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _same(_outcome(path), _row_parser_outcome(path)), repr(text)


HARD_DECIMALS = [
    "0.1",
    "0.30000000000000004",
    "1e23",
    "9007199254740993",  # 2^53 + 1, halfway between two doubles
    "2.2250738585072011e-308",  # just below the smallest normal
    "2.2250738585072012e-308",
    "4.9406564584124654e-324",
    "2.4703282292062327e-324",  # just below half the smallest subnormal
    "2.4703282292062328e-324",
    "1.7976931348623157e308",
    "1.7976931348623158e308",  # rounds down to the largest double
    "-0.0",
    "+.5",
    "5.",
    "1E-5",
    "0." + "1" * 400,
    "123456789012345678901234567890e-10",
    " 7 ",
]


def test_csv_reads_hard_decimals_as_float_does(tmp_path):
    path = tmp_path / "hard.csv"
    path.write_text("\n".join(f"{x},{x}" for x in HARD_DECIMALS) + "\n", encoding="utf-8")
    got = read_points(path).coords
    want = np.array([[float(x)] * 2 for x in HARD_DECIMALS])
    assert got.tobytes() == want.tobytes()
    assert _same(got, _row_parser_outcome(path))


def _split_refused(monkeypatch):
    def refuse(path):
        raise AssertionError("the csv was decoded and split into lines")

    monkeypatch.setattr(io_module, "_read_lines", refuse)


@pytest.mark.parametrize("brk, ending", [("\n", "\n"), ("\n", ""), ("\r\n", "\r\n")])
def test_a_plain_csv_is_read_without_the_row_parser(brk, ending, tmp_path, monkeypatch):
    text = brk.join(f"{i},{i / 7!r},-{i}e-3" for i in range(2000)) + ending
    # Zeros before row 0 start a break at byte 8191, so a "\r\n" straddles
    # a boundary of the file's buffered reads (4 or 8 KiB).
    text = "0" * (8191 - text.rindex(brk, 0, 8192)) + text
    path = tmp_path / "long.csv"
    path.write_bytes(text.encode("ascii"))
    want = _row_parser_outcome(path)
    _split_refused(monkeypatch)
    assert _same(_outcome(path), want) and want.shape == (2000, 3)


def test_a_plain_csv_is_opened_once(tmp_path, monkeypatch):
    path = tmp_path / "pts.csv"
    path.write_text("".join(f"{i},{i / 7!r}\n" for i in range(100)), encoding="ascii")
    opened = []
    real_open = open

    def counting(file, *args, **kwargs):
        opened.append(os.fspath(file) == os.fspath(path))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    assert read_points(path).coords.shape == (100, 2)
    assert opened.count(True) == 1


def test_a_plain_csv_is_opened_once_here_when_its_ranges_are_parsed_by_children(tmp_path, monkeypatch, forking):
    path = tmp_path / "pts.csv"
    path.write_text("".join(f"{i},{i / 7!r}\n" for i in range(100)), encoding="ascii")
    opened, forks = [], []
    real_open, fork = open, os.fork

    def counting(file, *args, **kwargs):
        opened.append(os.fspath(file) == os.fspath(path))
        return real_open(file, *args, **kwargs)

    def counted():
        pid = fork()
        forks.append(pid)  # only this process returns here: a child ends in os._exit
        return pid

    monkeypatch.setattr("builtins.open", counting)
    monkeypatch.setattr(os, "fork", counted)
    assert read_points(path, workers=3).coords.tobytes() == read_points(path, workers=1).coords.tobytes()
    # Each child opens the path in its own process, which this list does not see.
    assert len(forks) == 2 and opened.count(True) == 2
    assert no_child_processes()


def _ranges(path, parts):
    with open(path, "rb") as fh:
        return io_module._line_ranges(fh, os.path.getsize(path), parts)


def _csv_text(coords, brk, final):
    return brk.join(",".join(map(fmt_real, row)) for row in coords) + (brk if final else "")


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    coords=matrices.filter(len),
    brk=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
    workers=st.integers(min_value=2, max_value=4),
    chunk=st.sampled_from([1, 40, 1 << 22]),
)
def test_a_csv_read_in_ranges_equals_the_read_in_one_process(
    coords, brk, final, workers, chunk, tmp_path_factory, monkeypatch, forking
):
    monkeypatch.setattr(io_module, "_CHUNK_BYTES", chunk)  # 1 parses each line by its own loadtxt call
    path = tmp_path_factory.mktemp("shards") / "pts.csv"
    path.write_bytes(_csv_text(coords, brk, final).encode("ascii"))
    data = path.read_bytes()
    bounds = [0] + [end for _, end in _ranges(path, workers)]
    assert bounds == sorted(set(bounds)) and bounds[-1] == len(data) and len(bounds) <= workers + 1
    assert all(data[b - 1 : b] == b"\n" for b in bounds[1:-1])
    want = read_points(path, workers=1).coords
    assert want.tobytes() == PointSet(coords).coords.tobytes()
    assert read_points(path, workers=workers).coords.tobytes() == want.tobytes()
    assert no_child_processes()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_noise | csv_grids, workers=st.integers(min_value=2, max_value=4), chunk=st.sampled_from([1, 40, 1 << 22]))
def test_a_csv_read_in_ranges_gets_the_row_parsers_outcome(text, workers, chunk, tmp_path_factory, monkeypatch, forking):
    monkeypatch.setattr(io_module, "_CHUNK_BYTES", chunk)
    path = tmp_path_factory.mktemp("csv") / "pts.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _same(_outcome(path, workers), _row_parser_outcome(path)), repr(text)
    assert no_child_processes()


@pytest.mark.parametrize("brk", ["\n", "\r\n"])
def test_a_range_per_line_reads_every_line(brk, tmp_path, forking):
    # Lines of one length put a target byte at the end of every line.
    path = tmp_path / "lines.csv"
    path.write_bytes(brk.join(f"{i}.5,-{i}.25" for i in range(6)).encode("ascii") + brk.encode("ascii"))
    size = len(f"0.5,-0.25{brk}")
    assert _ranges(path, 6) == [(i * size, (i + 1) * size) for i in range(6)]
    got = read_points(path, workers=6).coords
    assert got.tolist() == [[i + 0.5, -i - 0.25] for i in range(6)]
    assert no_child_processes()


def test_a_line_longer_than_a_range_leaves_fewer_ranges(tmp_path, forking):
    path = tmp_path / "long.csv"
    long = ",".join(["1.5"] * 400)
    path.write_text(f"{long}\n{long}", encoding="ascii")
    # every target byte lies in one of the two lines
    assert _ranges(path, 4) == [(0, len(long) + 1), (len(long) + 1, 2 * len(long) + 1)]
    assert read_points(path, workers=4).coords.tobytes() == read_points(path, workers=1).coords.tobytes()
    path.write_text(f"1,2\n{long}\n3,4\n", encoding="ascii")
    assert len(_ranges(path, 4)) == 2
    got = _outcome(path, 4)
    assert got == _row_parser_outcome(path) and "row 1 has 400 values, expected 2" in got
    assert no_child_processes()


def _two_ranges(path, first, second):
    """Write the lines of first, then of second, and check that a two-process read splits them there."""
    head = "".join(line + "\n" for line in first).encode("ascii")
    tail = "".join(line + "\n" for line in second).encode("latin-1")
    path.write_bytes(head + tail)
    assert _ranges(path, 2) == [(0, len(head)), (len(head), len(head) + len(tail))]


@pytest.mark.parametrize(
    "first, second, message",
    [
        (["1,2"] * 20, ["1,2"] * 18 + ["1,zebra"], "row 38 contains an unparseable value"),
        (["1,2"] * 20, ["1,2,3"] + ["1,2"] * 18, "row 20 has 3 values, expected 2"),
        (["1,2"] * 19 + ["1,2,3"], ["1,2"] * 20, "row 19 has 3 values, expected 2"),
        (["1,2"] * 20, ["1,2,3"] * 13, "row 20 has 3 values, expected 2"),
        (["1,2"] * 20, [""] + ["1,2"] * 19, "row 20 has 1 values, expected 2"),
        (["1,2"] * 19 + [""], ["1,2"] * 18 + ["10,2"], "row 19 has 1 values, expected 2"),
        (["1,2"] * 20, ["1,2"] * 5 + ["1,\xff"] + ["1,2"] * 13, "byte 102 is not valid UTF-8"),
    ],
    ids=["bad-value-last-range", "ragged-after", "ragged-before", "widths-differ", "empty-after",
         "empty-before", "non-utf8-child"],
)
def test_a_bad_line_in_either_range_gets_the_row_parsers_error(first, second, message, tmp_path, forking):
    path = tmp_path / "bad.csv"
    _two_ranges(path, first, second)
    got = _outcome(path, 2)
    assert got == f"{path}: {message}"
    assert got == _outcome(path, 1)
    assert no_child_processes()


def test_a_non_value_error_in_a_childs_range_is_raised_with_its_traceback(tmp_path, monkeypatch, forking):
    path = tmp_path / "pts.csv"
    _two_ranges(path, ["1,2"] * 20, ["3,4"] * 20)
    parent = os.getpid()
    parse = io_module._plain_rows

    def patched(fh, start, end, chunk):
        if os.getpid() != parent:
            raise LookupError(f"range at byte {start}")
        return parse(fh, start, end, chunk)

    monkeypatch.setattr(io_module, "_plain_rows", patched)
    with pytest.raises(LookupError) as caught:
        read_points(path, workers=2)
    assert type(caught.value) is LookupError and str(caught.value) == "range at byte 80"
    cause = caught.value.__cause__
    assert type(cause) is RuntimeError and "in _plain_range" in str(cause) and "in patched" in str(cause)
    assert no_child_processes()


def test_one_worker_reads_a_csv_without_forking(tmp_path, monkeypatch, forking):
    path = tmp_path / "pts.csv"
    path.write_text("".join(f"{i},{i / 7!r}\n" for i in range(100)), encoding="ascii")

    def fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", fork)
    assert read_points(path, workers=1).coords.shape == (100, 2)


@pytest.mark.parametrize("workers", [0, -1, True, 2.0, "2"])
def test_read_points_checks_workers_as_decomposed_mst_does(workers, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,2\n", encoding="ascii")
    with pytest.raises(UsageError, match="workers must be a positive integer"):
        read_points(path, workers=workers)
    assert read_points(path, workers=np.int64(3)).count == 1


def _peak_rise_mib(tmp_path, read):
    """How far reading the file at tmp_path / 'pts.*' raises a fresh process's peak RSS, in MiB.

    The peak is the process's VmHWM, not ru_maxrss, which on Linux starts
    at the spawning process's peak and would hide a rise below it.
    """
    script = (
        "import geomst.decompose\n"
        "from geomst import read_points\n"
        "geomst.decompose._FORK_MIN_S = 0.0  # split a csv however small\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "before = peak()\n"
        f"points = {read}\n"
        "print((peak() - before) / 1024)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(io_module.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


_needs_vmhwm = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's /proc/self/status")


@_needs_vmhwm
def test_reading_a_vecbin_holds_its_coordinates_once(tmp_path):
    points = generate_instance(3, 4000, 512, "gaussian")  # 15.6 MiB of coordinates
    write_points(points, tmp_path / "pts.vecbin")
    got = read_points(tmp_path / "pts.vecbin")
    assert got.coords.tobytes() == points.coords.tobytes() and not got.coords.flags.writeable
    rise = _peak_rise_mib(tmp_path, "read_points('pts.vecbin')")
    assert 0.5 * points.coords.nbytes / 2**20 < rise < 1.5 * points.coords.nbytes / 2**20  # the read is seen, once


@_needs_vmhwm
def test_a_csv_read_in_ranges_peaks_no_higher_than_the_read_in_one_process(tmp_path):
    points = generate_instance(4, 3000, 512, "gaussian")  # 11.7 MiB of coordinates, 30 MB of text
    write_points(points, tmp_path / "pts.csv")
    one = _peak_rise_mib(tmp_path, "read_points('pts.csv', workers=1)")
    two = _peak_rise_mib(tmp_path, "read_points('pts.csv', workers=2)")
    # Joining two whole ranges would hold half the coordinates more; a chunk
    # and the forked read's buffers stay well under a quarter.
    assert 0.5 * points.coords.nbytes / 2**20 < one < 1.5 * points.coords.nbytes / 2**20
    assert two < one + 0.25 * points.coords.nbytes / 2**20


@pytest.mark.parametrize("last", [b"", b"1_0", b"\xff"])
def test_a_long_plain_csv_with_a_bad_last_line_gets_the_row_parsers_outcome(last, tmp_path):
    path = tmp_path / "tail.csv"
    data = "".join(f"{i / 7!r}\n" for i in range(4999)).encode("ascii") + last + b"\n"
    path.write_bytes(data)
    got = _outcome(path)
    if last == b"\xff":  # the row parser's reader names the byte
        assert got == f"{path}: byte {len(data) - 2} is not valid UTF-8"
    elif last == b"1_0":  # float() reads underscores, loadtxt does not
        assert _same(got, _row_parser_outcome(path)) and got.shape == (5000, 1) and got[-1, 0] == 10.0
    else:
        assert got == _row_parser_outcome(path) and "row 4999 " in got


@pytest.mark.parametrize(
    "text, row",
    [
        ("1.0,2.0,3.00000\n\n4,5,6\n", 1),  # the second line
        ("1,2,3\n4,5,6\n\n\n7,8,9", 2),  # the third and fourth lines
        ("\n1,2,3\n", 0),  # the first line
        ("\n\n", 0),  # every line
    ],
)
def test_an_empty_line_gets_the_row_parsers_error(text, row, tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text(text, encoding="ascii")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(path)
    assert got == _row_parser_outcome(path) and f"row {row} " in got


def _from_a_pipe(data, fmt):
    """_outcome of reading data, written to a pipe by a thread, as fmt through /dev/fd."""
    r, w = os.pipe()

    def feed():
        with open(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        try:
            return read_points(f"/dev/fd/{r}", fmt).coords
        except DataError as exc:
            return str(exc).replace(f"/dev/fd/{r}", "PIPE")
    finally:
        writer.join()
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_csv_from_a_pipe_is_read_once(tmp_path):
    data = "".join(f"{i},{i / 7!r}\n" for i in range(5000)).encode("ascii")  # more than a pipe buffer
    (tmp_path / "pts.csv").write_bytes(data)
    got = _from_a_pipe(data, "csv")
    assert got.tobytes() == read_points(tmp_path / "pts.csv").coords.tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("cut", [0, 8])
def test_a_vecbin_from_a_pipe_is_checked_and_read_as_a_file_is(cut, tmp_path):
    points = generate_instance(2, 3000, 4, "gaussian")  # 96,000 bytes of payload, more than a pipe buffer
    write_points(points, tmp_path / "pts.vecbin")
    data = (tmp_path / "pts.vecbin").read_bytes()[: -cut or None]
    got = _from_a_pipe(data, "vecbin")
    if cut:
        assert got == "PIPE: payload is 95992 bytes, header promises 96000"
    else:
        assert got.tobytes() == points.coords.tobytes() and not got.flags.writeable


@pytest.mark.parametrize(
    "x",
    [0.1, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 2.0**53 + 2, 1 / 3],
)
def test_csv_round_trips_fmt_real_of_hard_doubles(x, tmp_path):
    path = tmp_path / "rt.csv"
    coords = np.array([[x, -x], [np.nextafter(x, 0.0), np.nextafter(-x, 0.0)]])
    write_points(PointSet(coords), path)
    assert fmt_real(x) in path.read_text(encoding="utf-8")
    assert read_points(path).coords.tobytes() == coords.tobytes()


def test_vecbin_bad_magic(tmp_path):
    p = tmp_path / "bad.vecbin"
    p.write_bytes(b"NOPE" + struct.pack("<QQ", 1, 1) + struct.pack("<d", 0.0))
    with pytest.raises(DataError, match="magic"):
        read_points(p)


def test_vecbin_truncated_header(tmp_path):
    p = tmp_path / "bad.vecbin"
    p.write_bytes(b"VEC1\x01")
    with pytest.raises(DataError, match="header"):
        read_points(p)


def test_vecbin_truncated_payload(tmp_path):
    p = tmp_path / "bad.vecbin"
    p.write_bytes(b"VEC1" + struct.pack("<QQ", 2, 2) + struct.pack("<3d", 0.0, 1.0, 2.0))
    with pytest.raises(DataError, match="payload"):
        read_points(p)


def test_vecbin_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "bad.vecbin"
    p.write_bytes(b"VEC1" + struct.pack("<QQ", 1, 1) + struct.pack("<2d", 0.0, 1.0))
    with pytest.raises(DataError, match="payload"):
        read_points(p)


def test_vecbin_zero_dimension_rejected(tmp_path):
    p = tmp_path / "bad.vecbin"
    p.write_bytes(b"VEC1" + struct.pack("<QQ", 0, 0))
    with pytest.raises(DataError, match="dimension"):
        read_points(p)


@pytest.mark.parametrize("d", [2**60, 2**63, 2**64 - 1])
def test_vecbin_dimension_beyond_numpy_sizes_rejected(d, tmp_path):
    p = tmp_path / "bad.vecbin"
    p.write_bytes(b"VEC1" + struct.pack("<QQ", 0, d))
    with pytest.raises(DataError, match="dimension"):
        read_points(p)
    p.write_bytes(b"VEC1" + struct.pack("<QQ", 0, 2**60 - 1))
    assert read_points(p).dim == 2**60 - 1


def test_vecbin_non_finite_named(tmp_path):
    p = tmp_path / "bad.vecbin"
    p.write_bytes(b"VEC1" + struct.pack("<QQ", 2, 1) + struct.pack("<2d", 1.0, float("nan")))
    with pytest.raises(DataError, match="point 1"):
        read_points(p)


def test_detect_format_by_extension(tmp_path):
    assert detect_format("x.csv") == "csv"
    assert detect_format("x.vecbin") == "vecbin"
    with pytest.raises(UsageError):
        detect_format("x.dat")
    with pytest.raises(UsageError):
        read_points(tmp_path / "x.dat")


def test_explicit_format_overrides_extension(tmp_path):
    p = tmp_path / "pts.dat"
    p.write_text("1,2\n")
    pts = read_points(p, "csv")
    assert pts.count == 1 and pts.dim == 2
    with pytest.raises(UsageError):
        read_points(p, "tsv")
    with pytest.raises(UsageError):
        write_points(pts, tmp_path / "out.dat", "tsv")


def test_malformed_edge_file(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("0\t1\n")
    with pytest.raises(DataError, match="row 0"):
        read_edges(p)
    p.write_text("0\t1\tfast\n")
    with pytest.raises(DataError, match="row 0"):
        read_edges(p)
    p.write_text("2\t2\t1.0\n")
    with pytest.raises(DataError, match="row 0"):
        read_edges(p)


@pytest.mark.parametrize("row", ["-1\t2\t1.0", "2\t-1\t1.0", f"0\t{2**63}\t1.0"])
def test_edge_file_vertex_ids_must_fit_int64_and_be_non_negative(row, tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("0\t1\t1.0\n" + row + "\n")
    with pytest.raises(DataError, match="row 1 has a vertex id outside"):
        read_edges(p)


def test_non_utf8_edge_file_names_the_byte(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_bytes(b"0\t1\t1.0\n\xff\n")
    with pytest.raises(DataError, match="byte 8 is not valid UTF-8"):
        read_edges(p)


@given(x=st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_fmt_real_round_trips_every_double(x):
    back = float(fmt_real(x))
    assert back == x
    assert np.signbit(back) == np.signbit(x)


def test_fmt_real_keeps_negative_zero():
    s = fmt_real(-0.0)
    assert s == "-0.0"
    assert np.signbit(float(s))
