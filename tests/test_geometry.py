"""Point storage and metric semantics: pinned values, symmetry, domains."""

import math
import operator
import os
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import geomst
from geomst import (
    METRIC_NAMES,
    DataError,
    Metric,
    MetricDomainError,
    PointSet,
    SplitMix64,
    UsageError,
    dense_mst,
    distance,
    generate_instance,
    oracle_mst,
    subset_indices,
)

finite_vec = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=6),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def test_euclidean_3_4_5():
    assert distance(Metric("euclidean"), (0.0, 0.0), (3.0, 4.0)) == 5.0


def test_squared_euclidean_3_4():
    assert distance(Metric("squared_euclidean"), (0.0, 0.0), (3.0, 4.0)) == 25.0


def test_manhattan_coordinate_sum():
    assert distance(Metric("manhattan"), (1.0, 1.0, 1.0), (2.0, 3.0, 5.0)) == 7.0


def test_chebyshev_max_coordinate():
    assert distance(Metric("chebyshev"), (1.0, 1.0, 1.0), (2.0, 3.0, 5.0)) == 4.0


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_identical_points_have_distance_zero(name):
    assert distance(Metric(name), (1.5, -2.0), (1.5, -2.0)) == 0.0


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_identity_holds_on_random_vectors(name):
    rng = SplitMix64(1)
    m = Metric(name)
    for _ in range(50):
        v = rng.normal_array(4)
        assert distance(m, v, v) == 0.0


def test_dimension_mismatch_is_usage_error():
    with pytest.raises(UsageError):
        distance(Metric("euclidean"), (0.0, 0.0), (1.0,))
    with pytest.raises(UsageError, match="at least one dimension"):
        distance(Metric("euclidean"), [], [])


def test_cosine_zero_vector_is_domain_error():
    with pytest.raises(MetricDomainError):
        distance(Metric("cosine_distance"), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(MetricDomainError):
        distance(Metric("cosine_distance"), (1.0, 0.0), (0.0, 0.0))


@pytest.mark.parametrize("name", METRIC_NAMES)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_coordinate_is_data_error(name, bad):
    # as PointSet refuses it: a NaN or inf never reaches the metric
    with pytest.raises(DataError, match="non-finite coordinate in point 0"):
        distance(Metric(name), [bad, 1.0], [0.0, 1.0])
    with pytest.raises(DataError, match="non-finite coordinate in point 1"):
        distance(Metric(name), [0.0, 1.0], [1.0, bad])


def test_unknown_metric_rejected():
    with pytest.raises(UsageError):
        Metric("minkowski")


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_symmetry_is_bitwise_over_1000_pairs(name):
    m = Metric(name)
    rng = SplitMix64(sum(name.encode()))
    for _ in range(1000):
        a = rng.normal_array(3)
        b = rng.normal_array(3)
        assert distance(m, a, b) == distance(m, b, a)


@pytest.mark.parametrize("name", METRIC_NAMES)
@given(a=finite_vec)
def test_finite_inputs_give_finite_outputs(name, a):
    b = a + 1.0
    if name == "cosine_distance":
        assume(np.linalg.norm(a) > 0 and np.linalg.norm(b) > 0)
    assert np.isfinite(distance(Metric(name), a, b))


def test_cosine_matches_one_minus_cosine_similarity():
    rng = SplitMix64(77)
    m = Metric("cosine_distance")
    for _ in range(200):
        a = rng.normal_array(5)
        b = rng.normal_array(5)
        expected = 1.0 - float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert distance(m, a, b) == pytest.approx(expected, abs=1e-12)


def test_squared_euclidean_yields_same_mst_edge_set_as_euclidean():
    pts = generate_instance(21, 60, 4, "uniform_cube")
    plain = dense_mst(pts, Metric("euclidean"))
    squared = dense_mst(pts, Metric("squared_euclidean"))
    assert [(e.u, e.v) for e in plain] == [(e.u, e.v) for e in squared]


def test_pointset_basic_fields():
    pts = PointSet([[0.0, 0.0], [3.0, 4.0]])
    assert pts.count == 2 and pts.dim == 2
    assert pts.ids.tolist() == [0, 1]
    assert pts.coords.dtype == np.float64


def test_pointset_is_immutable_and_copies_input():
    src = np.zeros((2, 2))
    pts = PointSet(src)
    src[0, 0] = 9.0
    assert pts.coords[0, 0] == 0.0
    with pytest.raises(ValueError):
        pts.coords[0, 0] = 1.0


def test_an_adopted_array_is_checked_and_made_read_only_not_copied():
    # The readers' private path: the array is one that nothing else holds.
    src = np.arange(6.0).reshape(3, 2)
    pts = PointSet._adopt(src)
    assert pts.coords is src and not src.flags.writeable
    assert pts.ids.tolist() == [0, 1, 2]
    with pytest.raises(DataError, match="point 1"):
        PointSet._adopt(np.array([[0.0], [np.nan]]))
    with pytest.raises(UsageError):
        PointSet._adopt(np.zeros(3))


def test_pointset_rejects_non_finite_naming_the_point():
    with pytest.raises(DataError, match="point 1"):
        PointSet([[0.0], [np.nan]])
    with pytest.raises(DataError, match="point 2"):
        PointSet([[0.0], [1.0], [np.inf]])


def test_pointset_rejects_bad_shapes_and_ids():
    with pytest.raises(UsageError):
        PointSet([1.0, 2.0])
    with pytest.raises(UsageError):
        PointSet(np.zeros((3, 0)))
    with pytest.raises(UsageError, match="ids must be pairwise distinct"):
        PointSet(np.zeros((3, 2)), ids=[7, 2, 7])
    with pytest.raises(UsageError):
        PointSet(np.zeros((2, 2)), ids=[-1, 0])
    with pytest.raises(UsageError):
        PointSet(np.zeros((2, 2)), ids=[0, 1, 2])


def test_pointset_rejects_non_integer_ids():
    with pytest.raises(UsageError, match="ids must be integers"):
        PointSet(np.zeros((2, 2)), ids=[0.5, 1.5])
    assert PointSet(np.zeros((2, 2)), ids=np.array([4, 9], dtype=np.uint8)).ids.tolist() == [4, 9]


def test_pointset_refuses_ids_beyond_int64():
    for ids in ([2**63], np.array([2**63], dtype=np.uint64)):
        with pytest.raises(UsageError, match=r"ids must be at most 2\*\*63 - 1, got 9223372036854775808"):
            PointSet(np.zeros((1, 2)), ids=ids)
    big = np.array([0, 2**63 - 1], dtype=np.uint64)
    assert PointSet(np.zeros((2, 2)), ids=big).ids.tolist() == [0, 2**63 - 1]


def test_pointset_names_an_id_list_value_beyond_int64():
    # np.asarray reads [0, 2**63] as float64, so the list itself is searched
    with pytest.raises(UsageError, match=r"ids must be at most 2\*\*63 - 1, got 9223372036854775808$"):
        PointSet(np.zeros((2, 2)), ids=[0, 2**63])


def test_empty_pointset_is_allowed():
    pts = PointSet(np.empty((0, 3)))
    assert pts.count == 0 and pts.dim == 3


def test_subset_indices_validation():
    pts = PointSet(np.zeros((4, 1)))
    assert subset_indices(pts, [3, 1]).tolist() == [3, 1]
    with pytest.raises(UsageError):
        subset_indices(pts, [0, 4])
    with pytest.raises(UsageError):
        subset_indices(pts, [-1])
    with pytest.raises(UsageError, match="subset indices must be distinct"):
        subset_indices(pts, [1, 3, 1])
    with pytest.raises(UsageError):
        subset_indices(pts, [[0, 1]])


def test_subset_indices_reject_floats_and_boolean_masks():
    pts = PointSet(np.zeros((4, 1)))
    with pytest.raises(UsageError, match="subset indices must be integers"):
        subset_indices(pts, [0.7, 2.2])
    with pytest.raises(UsageError, match="subset indices must be integers"):
        subset_indices(pts, np.array([True, False, True, False]))
    assert subset_indices(pts, []).tolist() == []


def test_kernel_and_oracle_paths_leave_numpy_ma_unimported():
    # np.unique without return_inverse imports numpy.ma (15-40 ms) on first
    # use, which every fresh worker process would pay on its first task.
    script = (
        "import sys\n"
        "from geomst import Metric, check_substructure, decomposed_mst, generate_instance,"
        " make_partition, oracle_mst\n"
        "pts = generate_instance(5, 40, 3, 'gaussian')\n"
        "m = Metric('manhattan')\n"
        "decomposed_mst(pts, m, make_partition(40, 3, 'contiguous', 0), 'gather', 1)\n"
        "whole = oracle_mst(pts, m)\n"
        "assert check_substructure(pts, m, [1, 4, 9, 30], whole=whole)\n"
        "assert check_substructure(pts, m, [0, 2, 39])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(geomst.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_unit_coords_have_unit_norm():
    pts = generate_instance(3, 20, 6, "gaussian")
    norms = np.sqrt((pts.unit_coords**2).sum(axis=1))
    assert np.allclose(norms, 1.0, atol=1e-15)


def _fold(terms):
    """A plain left-to-right sum."""
    return reduce(operator.add, terms)


def _pairwise(terms):
    """The summation order README "Guarantees" defines for d >= 8 (numpy's pairwise sum)."""
    n = len(terms)
    if n < 8:
        return _fold(terms)
    if n <= 128:
        r = terms[:8]
        for i in range(8, n - n % 8, 8):
            r = [lane + t for lane, t in zip(r, terms[i : i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return _fold([total, *terms[n - n % 8 :]])
    half = n // 2 // 8 * 8
    return _pairwise(terms[:half]) + _pairwise(terms[half:])


def _model_block(metric, a, rows, add_up=_fold):
    """Metric values from plain Python arithmetic on the per-coordinate terms.

    add_up sums each row's terms; the default is a left-to-right fold.
    """
    out = []
    for row in rows.tolist():
        diffs = [x - y for x, y in zip(row, a.tolist())]
        if metric.kind == "chebyshev":
            out.append(max(abs(t) for t in diffs))
            continue
        if metric.kind == "manhattan":
            total = add_up([abs(t) for t in diffs])
        else:
            total = add_up([t * t for t in diffs])
        if metric.kind == "euclidean":
            total = math.sqrt(total)
        elif metric.kind == "cosine_distance":
            total = 0.5 * total
        out.append(total)
    return out


def test_block_matches_scalar_distance_bit_for_bit():
    # one row against a block must equal the scalar wrapper pair by pair,
    # whether the block is row-major or a column-major copy (as the dense
    # kernel holds it below d = 8), and below d = 8 both must equal a plain
    # left-to-right sum over the coordinates
    for d in range(1, 8):
        pts = generate_instance(13, 30, d, "gaussian")
        for name in METRIC_NAMES:
            m = Metric(name)
            prepared = m.prepared(pts)
            fortran = np.asfortranarray(prepared)
            for hi in (20, 11):
                expected = [distance(m, pts.coords[4], pts.coords[j]) for j in range(10, hi)]
                assert m.block(prepared[4], prepared[10:hi]).tolist() == expected, (d, name)
                assert m.block(fortran[4], fortran[10:hi]).tolist() == expected, (d, name)
                assert _model_block(m, prepared[4], prepared[10:hi]) == expected, (d, name)


def test_block_sums_in_the_defined_pairwise_order_from_d_8():
    # From d = 8 row-major blocks follow the order README "Guarantees"
    # states; a numpy that reduces differently fails here by name.
    for d in (8, 9, 15, 16, 17, 64, 100, 127, 128, 129, 200, 256, 300, 768, 1000):
        pts = generate_instance(d, 41, d, "gaussian")
        for name in METRIC_NAMES:
            if name == "chebyshev":
                continue
            m = Metric(name)
            prepared = m.prepared(pts)
            expected = _model_block(m, prepared[0], prepared[1:], _pairwise)
            assert m.block(prepared[0], prepared[1:]).tolist() == expected, (d, name)
            # the rows tell the two orders apart, so the check has teeth
            assert expected != _model_block(m, prepared[0], prepared[1:]), (d, name)


def test_block_values_do_not_depend_on_block_shape():
    pts = generate_instance(29, 50, 9, "gaussian")
    for name in METRIC_NAMES:
        m = Metric(name)
        prepared = m.prepared(pts)
        whole = m.block(prepared[0], prepared[1:])
        for lo, hi in [(1, 2), (1, 25), (17, 50), (49, 50)]:
            part = m.block(prepared[0], prepared[lo:hi])
            assert part.tolist() == whole[lo - 1 : hi - 1].tolist()
    # below d = 8 the same holds for column-major blocks, width 1 included
    for d in range(1, 8):
        pts = generate_instance(29 + d, 50, d, "gaussian")
        for name in METRIC_NAMES:
            m = Metric(name)
            prepared = m.prepared(pts)
            fortran = np.asfortranarray(prepared)
            whole = m.block(prepared[0], prepared[1:]).tolist()
            assert whole == _model_block(m, prepared[0], prepared[1:]), (d, name)
            for lo, hi in [(1, 2), (1, 25), (17, 50), (49, 50)]:
                part = m.block(fortran[0], fortran[lo:hi])
                assert part.tolist() == whole[lo - 1 : hi - 1], (d, name, lo, hi)


def test_cosine_tree_does_not_depend_on_a_power_of_two_scale():
    # Coordinates near 2^600 overflow a squared sum and near 2^-600 underflow
    # it; such rows are normalized from an exactly rescaled copy instead.
    m = Metric("cosine_distance")
    for seed, d in [(41, 2), (42, 5), (43, 64)]:
        coords = generate_instance(seed, 40, d, "gaussian").coords
        base = dense_mst(PointSet(coords), m)
        for scale in (600, -600):
            tree = dense_mst(PointSet(np.ldexp(coords, scale)), m)
            assert [(e.u, e.v) for e in tree] == [(e.u, e.v) for e in base], (d, scale)
            assert np.allclose(tree.w, base.w, rtol=1e-12, atol=0.0), (d, scale)
            assert tree == oracle_mst(PointSet(np.ldexp(coords, scale)), m)


def test_cosine_on_huge_coordinates_is_one_minus_cosine():
    # Points 0 and 2 are orthogonal up to 1e-154; their distance is 1, not 0.
    m = Metric("cosine_distance")
    coords = [[3e154, 1.0], [3e154, 2.0], [1.0, 3e154], [2.0, 1.0]]
    assert distance(m, coords[0], coords[2]) == pytest.approx(1.0, abs=1e-15)
    tree = dense_mst(PointSet(coords), m)
    assert [(e.u, e.v) for e in tree] == [(0, 1), (0, 3), (2, 3)]
    assert tree.w[2] == pytest.approx(1.0 - 1.0 / math.sqrt(5.0), rel=1e-12)
    assert tree == oracle_mst(PointSet(coords), m)


def test_cosine_on_tiny_coordinates_is_not_a_zero_vector():
    # 1e-170 squared underflows to 0, yet neither point is the zero vector.
    m = Metric("cosine_distance")
    tiny = PointSet([[1e-170, 0.0], [0.0, 1e-170], [1.0, 1.0]])
    plain = PointSet([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert dense_mst(tiny, m) == dense_mst(plain, m)
    assert distance(m, (1e-170, 0.0), (0.0, 1e-170)) == 1.0
    assert tiny.norms.tolist() == [1e-170, 1e-170, math.sqrt(2.0)]
