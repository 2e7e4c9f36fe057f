"""File formats: pinned bytes, structural error reporting, exact round-trips."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geomst import (
    DataError,
    Edge,
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
    tree = EdgeList.of([Edge(1, 2, 2.0), Edge(0, 1, 1.0)])
    path = tmp_path / "tree.tsv"
    write_edges(tree, path)
    assert path.read_text() == "0\t1\t1.0\n1\t2\t2.0\n"
    assert format_edges(tree) == "0\t1\t1.0\n1\t2\t2.0\n"


def test_edges_write_weights_round_trippably(tmp_path):
    w = 0.1 + 0.2  # 0.30000000000000004
    path = tmp_path / "tree.tsv"
    write_edges(EdgeList.of([Edge(0, 1, w)]), path)
    assert read_edges(path).edges[0].w == w


def test_dendrogram_file_golden_bytes(tmp_path):
    tree = EdgeList.of([Edge(0, 1, 1.0), Edge(1, 2, 2.0)])
    d = mst_to_dendrogram(tree, 3)
    path = tmp_path / "dendro.tsv"
    write_dendrogram(d, path)
    assert path.read_text() == "0\t0\t1\t1.0\t2\n1\t3\t2\t2.0\t3\n"


def test_stats_file_has_all_keys(tmp_path):
    stats = RunStats(distance_evals=10, edges_gathered=4, tasks_executed=3, wall_time=0.25)
    path = tmp_path / "stats.txt"
    write_stats(stats, path, n=5, d=2, k=3, metric="euclidean", workers=2, seed=9)
    pairs = dict(line.split("=", 1) for line in path.read_text().splitlines())
    assert pairs == {
        "distance_evals": "10",
        "edges_gathered": "4",
        "tasks_executed": "3",
        "merge_strategy": "gather",
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


def _outcome(path):
    try:
        return read_points(path).coords
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


@given(x=st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_fmt_real_round_trips_every_double(x):
    back = float(fmt_real(x))
    assert back == x
    assert np.signbit(back) == np.signbit(x)


def test_fmt_real_keeps_negative_zero():
    s = fmt_real(-0.0)
    assert s == "-0.0"
    assert np.signbit(float(s))
