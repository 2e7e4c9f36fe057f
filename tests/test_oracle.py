"""Brute-force oracle and the subset-containment property it certifies."""

import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from reference import keys, prim_msf
from hypothesis import given
from hypothesis import strategies as st

from geomst import (
    DataError,
    EdgeList,
    METRIC_NAMES,
    Metric,
    PointSet,
    SplitMix64,
    UsageError,
    check_substructure,
    dense_mst,
    generate_instance,
    graph,
    oracle_mst,
)


def test_two_points_single_edge():
    pts = PointSet([[0.0], [4.0]])
    assert keys(oracle_mst(pts, Metric("euclidean"))) == [(4.0, 0, 1)]


@pytest.mark.parametrize("n", [0, 1])
def test_degenerate_sets_are_empty(n):
    pts = PointSet(np.zeros((n, 2)))
    assert len(oracle_mst(pts, Metric("euclidean"))) == 0


@pytest.mark.parametrize("seed,n", [(10, 8), (11, 31), (12, 64)])
def test_equals_dense_kernel_up_to_64_points(seed, n):
    pts = generate_instance(seed, n, 6, "gaussian")
    for name in METRIC_NAMES:
        m = Metric(name)
        assert keys(oracle_mst(pts, m)) == keys(dense_mst(pts, m))


def test_agrees_with_scan_prim_over_materialized_edges():
    pts = generate_instance(42, 20, 3, "uniform_cube")
    m = Metric("euclidean")
    edges = []
    for i in range(20):
        for j in range(i + 1, 20):
            w = float(np.sqrt(((pts.coords[i] - pts.coords[j]) ** 2).sum()))
            edges.append((i, j, w))
    assert keys(oracle_mst(pts, m)) == prim_msf(edges, 20)


def test_total_weight_matches_dense_kernel_tightly():
    pts = generate_instance(17, 120, 8, "uniform_cube")
    m = Metric("euclidean")
    a = oracle_mst(pts, m)
    b = dense_mst(pts, m)
    assert keys(a) == keys(b)
    assert math.fsum(a.w.tolist()) == pytest.approx(math.fsum(b.w.tolist()), rel=1e-12)


def test_cap_refused_and_overridable():
    pts = generate_instance(1, 30, 2, "uniform_cube")
    m = Metric("euclidean")
    with pytest.raises(UsageError):
        oracle_mst(pts, m, max_points=29)
    assert len(oracle_mst(pts, m, max_points=30)) == 29


@pytest.mark.parametrize("cap", [2.5, 30.0, True, "30", None, -1])
def test_cap_must_be_a_non_negative_integer(cap):
    pts = generate_instance(1, 3, 2, "uniform_cube")
    with pytest.raises(UsageError, match="max_points must be a non-negative integer"):
        oracle_mst(pts, Metric("euclidean"), max_points=cap)


def test_cap_takes_a_numpy_integer():
    pts = generate_instance(1, 30, 2, "uniform_cube")
    assert len(oracle_mst(pts, Metric("euclidean"), max_points=np.int16(30))) == 29


def test_induced_full_subset_equals_whole():
    pts = generate_instance(5, 25, 4, "gaussian")
    m = Metric("manhattan")
    assert keys(oracle_mst(pts, m, subset=list(range(25)))) == keys(oracle_mst(pts, m))


def test_induced_singleton_is_empty():
    pts = generate_instance(5, 25, 4, "gaussian")
    assert len(oracle_mst(pts, Metric("euclidean"), subset=[7])) == 0


def test_induced_rejects_invalid_indices():
    pts = generate_instance(5, 10, 2, "gaussian")
    with pytest.raises(UsageError):
        oracle_mst(pts, Metric("euclidean"), subset=[0, 10])


def test_restriction_of_whole_tree_lies_inside_induced_tree():
    pts = generate_instance(23, 40, 5, "uniform_cube")
    m = Metric("euclidean")
    order = list(range(40))
    SplitMix64(5).shuffle(order)
    subset = sorted(order[:15])
    whole = oracle_mst(pts, m)
    induced = set(keys(oracle_mst(pts, m, subset=subset)))
    inside = set(subset)
    restricted = [e for e in whole if e.u in inside and e.v in inside]
    assert restricted, "subset too scattered to exercise the property"
    for e in restricted:
        assert (e.w, e.u, e.v) in induced


def test_all_pairs_cost_at_most_48_bytes_each():
    # The oracle keeps one weight per pair; ends are looked up per round.
    pts = generate_instance(5, 1000, 16, "clustered(5)")
    m = Metric("manhattan")
    tracemalloc.start()
    try:
        oracle_mst(pts, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * (1000 * 999 // 2)


def test_far_outliers_take_a_logarithmic_number_of_rounds():
    # Every outlier is about 80 from the tight cluster and 113 from the other
    # outliers, so its 1248 cluster pairs come before any of the next
    # outlier's: a light share of 2 x components would merge one outlier a
    # round, 800 rounds; a share that at least doubles needs log2(E / 2m) + 2.
    rng = np.random.default_rng(0)
    pts = PointSet(np.vstack([rng.normal(size=(1248, 64)) * 1e-3, rng.normal(size=(800, 64)) * 10]))
    with mock.patch.object(graph, "_unite", side_effect=graph._unite) as rounds:
        tree = oracle_mst(pts, Metric("euclidean"))
    m = pts.count
    assert len(tree) == m - 1
    assert rounds.call_count <= math.log2(m * (m - 1) / 2 / (2 * m)) + 2


def test_overflowing_pair_the_tree_does_not_need_is_left_out():
    # 0 and 2e154 are 4e308 apart squared, beyond the largest double; the
    # other two pairs stay finite, so the tree does not need the inf pair
    # and comes out as the dense kernel's.
    pts = PointSet([[0.0], [1e154], [2e154]], ids=[4, 7, 9])
    m = Metric("euclidean")
    tree = oracle_mst(pts, m)
    assert keys(tree) == [(1e154, 4, 7), (1e154, 7, 9)]
    assert tree == dense_mst(pts, m)
    assert check_substructure(pts, m, [0, 2])
    assert check_substructure(pts, m, [0, 2], whole=tree)


def test_overflowing_distance_is_a_data_error_naming_the_pair():
    # Points 9 and 2 lie 3e154 from points 7 and 4, so every pair that joins
    # the two clusters overflows; the first in (u, v) order is named, not
    # the first in input order.
    pts = PointSet([[3e154], [0.0], [1.0], [3e154]], ids=[9, 7, 4, 2])
    with pytest.raises(DataError, match="between points 2 and 4 is inf"):
        oracle_mst(pts, Metric("euclidean"))
    with pytest.raises(DataError, match="between points 4 and 9 is inf"):
        oracle_mst(pts, Metric("euclidean"), subset=[0, 1, 2])


def test_containment_trivial_subsets():
    pts = generate_instance(2, 15, 3, "gaussian")
    m = Metric("euclidean")
    assert check_substructure(pts, m, [])
    assert check_substructure(pts, m, list(range(15)))


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_containment_random_sweep(name):
    m = Metric(name)
    rng = SplitMix64(sum(name.encode()) + 1)
    for trial in range(5):
        n = 10 + rng.below(30)
        pts = generate_instance(rng.next_u64(), n, 1 + rng.below(6), "gaussian")
        size = 2 + rng.below(n - 1)
        order = list(range(n))
        rng.shuffle(order)
        subset = sorted(order[:size])
        assert check_substructure(pts, m, subset)
        assert check_substructure(pts, m, subset, whole=oracle_mst(pts, m))


def test_containment_checks_the_whole_forest_it_is_given():
    pts = generate_instance(8, 12, 3, "gaussian")
    m = Metric("euclidean")
    whole = oracle_mst(pts, m)
    sub = oracle_mst(pts, m, subset=[0, 1, 2, 3])
    assert check_substructure(pts, m, [0, 1, 2, 3], whole=whole)
    # an edge inside the subset that the subset's own tree lacks must fail
    tree_pairs = set(zip(sub.u.tolist(), sub.v.tolist()))
    u, v = next(p for p in combinations(range(4), 2) if p not in tree_pairs)
    extra = EdgeList(np.append(whole.u, u), np.append(whole.v, v), np.append(whole.w, 0.0))
    assert not check_substructure(pts, m, [0, 1, 2, 3], whole=extra)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=2, max_value=18),
    cut=st.integers(min_value=0, max_value=17),
)
def test_containment_property(seed, n, cut):
    pts = generate_instance(seed, n, 2, "uniform_cube")
    subset = list(range(min(cut, n)))
    assert check_substructure(pts, Metric("squared_euclidean"), subset)
