"""MST-to-single-linkage conversion: pinned traces, naive oracle, cuts."""

import pytest
from conftest import naive_cut, naive_single_linkage, pairwise_matrix, threshold_components
from hypothesis import given
from hypothesis import strategies as st

from geomst import (
    Dendrogram,
    Edge,
    EdgeList,
    MergeStep,
    Metric,
    PointSet,
    SplitMix64,
    UsageError,
    dense_mst,
    edge_key,
    generate_instance,
    mst_to_dendrogram,
)


def test_three_point_chain_trace():
    tree = EdgeList.of([Edge(0, 1, 1.0), Edge(1, 2, 2.0)])
    d = mst_to_dendrogram(tree, 3)
    assert d.steps == (
        MergeStep(0, 1, 1.0, 2),
        MergeStep(3, 2, 2.0, 3),
    )


def test_two_point_single_step():
    d = mst_to_dendrogram(EdgeList.of([Edge(0, 1, 5.0)]), 2)
    assert d.steps == (MergeStep(0, 1, 5.0, 2),)


def test_single_leaf_has_no_steps():
    d = mst_to_dendrogram(EdgeList.of([]), 1)
    assert d.steps == ()
    assert d.cut(0.0) == [[0]]


def test_merge_heights_equal_sorted_tree_weights():
    pts = generate_instance(3, 80, 5, "uniform_cube")
    tree = dense_mst(pts, Metric("euclidean"))
    d = mst_to_dendrogram(tree, 80)
    assert d.heights() == [e.w for e in sorted(tree, key=edge_key)]
    assert d.heights() == sorted(d.heights())


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_heights_match_naive_agglomeration_oracle(seed):
    pts = generate_instance(seed, 30, 3, "gaussian")
    m = Metric("euclidean")
    heights, _ = naive_single_linkage(pairwise_matrix(pts, m))
    d = mst_to_dendrogram(dense_mst(pts, m), 30)
    assert sorted(d.heights()) == sorted(heights)


@pytest.mark.parametrize("seed", [104, 105])
def test_cut_partitions_match_naive_agglomeration_oracle(seed):
    n = 30
    pts = generate_instance(seed, n, 3, "gaussian")
    m = Metric("euclidean")
    heights, merges = naive_single_linkage(pairwise_matrix(pts, m))
    d = mst_to_dendrogram(dense_mst(pts, m), n)
    probes = heights + [0.0, heights[-1] * 1.5] + [h * 0.999 for h in heights[::7]]
    for h in probes:
        assert {tuple(b) for b in d.cut(h)} == naive_cut(n, merges, h)


def test_cut_equals_threshold_graph_components():
    n = 40
    pts = generate_instance(9, n, 4, "uniform_cube")
    tree = dense_mst(pts, Metric("manhattan"))
    d = mst_to_dendrogram(tree, n)
    rng = SplitMix64(0)
    top = max(e.w for e in tree)
    for _ in range(10):
        h = rng.uniform() * top * 1.1
        assert {tuple(b) for b in d.cut(h)} == threshold_components(tree, n, h)
    # exactly at a merge height, the tied edge is included on both sides
    tie = d.heights()[n // 2]
    assert {tuple(b) for b in d.cut(tie)} == threshold_components(tree, n, tie)


def test_tie_heavy_instance_matches_oracle_and_is_deterministic():
    coords = [[float(x + 1), float(y + 1)] for x in range(4) for y in range(4)]
    pts = PointSet(coords)
    m = Metric("manhattan")
    tree = dense_mst(pts, m)
    d1 = mst_to_dendrogram(tree, 16)
    d2 = mst_to_dendrogram(dense_mst(pts, m), 16)
    assert d1.steps == d2.steps
    heights, merges = naive_single_linkage(pairwise_matrix(pts, m))
    assert sorted(d1.heights()) == sorted(heights)
    for h in (0.5, 1.0, 2.0):
        assert {tuple(b) for b in d1.cut(h)} == naive_cut(16, merges, h)


def test_cluster_ids_follow_step_order():
    pts = generate_instance(11, 12, 2, "uniform_cube")
    tree = dense_mst(pts, Metric("euclidean"))
    d = mst_to_dendrogram(tree, 12)
    created = set(range(12))
    for t, s in enumerate(d.steps):
        assert s.cluster_a in created and s.cluster_b in created
        created.discard(s.cluster_a)
        created.discard(s.cluster_b)
        created.add(12 + t)
    assert d.steps[-1].size == 12


def test_rejects_forests_and_cycles():
    with pytest.raises(UsageError):
        mst_to_dendrogram(EdgeList.of([Edge(0, 1, 1.0)]), 3)  # disconnected: too few edges
    with pytest.raises(UsageError):
        mst_to_dendrogram(
            EdgeList.of([Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(0, 2, 1.0)]), 4
        )  # cycle plus isolated vertex
    with pytest.raises(UsageError):
        mst_to_dendrogram(EdgeList.of([Edge(0, 3, 1.0)]), 2)  # endpoint out of range
    with pytest.raises(UsageError):
        mst_to_dendrogram(EdgeList.of([]), 0)


def test_dendrogram_type_validates_its_invariants():
    with pytest.raises(UsageError):
        Dendrogram(3, (MergeStep(0, 1, 1.0, 2),))  # wrong step count
    with pytest.raises(UsageError):
        Dendrogram(3, (MergeStep(0, 1, 2.0, 2), MergeStep(3, 2, 1.0, 3)))  # heights decrease
    with pytest.raises(UsageError):
        Dendrogram(3, (MergeStep(0, 1, 1.0, 2), MergeStep(0, 2, 2.0, 3)))  # 0 consumed twice
    with pytest.raises(UsageError):
        Dendrogram(3, (MergeStep(0, 1, 1.0, 2), MergeStep(3, 2, 2.0, 2)))  # size wrong
    d = Dendrogram(3, (MergeStep(0, 1, 1.0, 2), MergeStep(3, 2, 2.0, 3)))
    assert d.count == 3


def test_sizes_accumulate_along_steps():
    pts = generate_instance(21, 25, 3, "gaussian")
    d = mst_to_dendrogram(dense_mst(pts, Metric("euclidean")), 25)
    sizes = {c: 1 for c in range(25)}
    for t, s in enumerate(d.steps):
        assert s.size == sizes[s.cluster_a] + sizes[s.cluster_b]
        sizes[25 + t] = s.size
    assert d.steps[-1].size == 25


@given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(min_value=2, max_value=24))
def test_cut_extremes(seed, n):
    pts = generate_instance(seed, n, 2, "uniform_cube")
    tree = dense_mst(pts, Metric("euclidean"))
    d = mst_to_dendrogram(tree, n)
    assert d.cut(-1.0) == [[i] for i in range(n)]
    assert d.cut(max(d.heights())) == [list(range(n))]
