"""MST-to-single-linkage conversion: pinned traces, naive oracle, cuts."""

import pickle

import pytest
from reference import naive_cut, naive_single_linkage, pairwise_matrix, threshold_components
from hypothesis import given
from hypothesis import strategies as st

from geomst import (
    Dendrogram,
    EdgeList,
    Metric,
    PointSet,
    SplitMix64,
    UsageError,
    dense_mst,
    edge_key,
    generate_instance,
    mst_to_dendrogram,
)


def steps(d):
    """The merge steps of d as (a, b, height, size) tuples of Python numbers."""
    return list(zip(d.a.tolist(), d.b.tolist(), d.height.tolist(), d.size.tolist()))


def test_three_point_chain_trace():
    tree = EdgeList([0, 1], [1, 2], [1.0, 2.0])
    d = mst_to_dendrogram(tree, 3)
    assert steps(d) == [(0, 1, 1.0, 2), (3, 2, 2.0, 3)]


def test_two_point_single_step():
    d = mst_to_dendrogram(EdgeList([0], [1], [5.0]), 2)
    assert steps(d) == [(0, 1, 5.0, 2)]


def test_single_leaf_has_no_steps():
    d = mst_to_dendrogram(EdgeList(), 1)
    assert steps(d) == [] and d.count == 1 and d == Dendrogram()
    assert d.cut(0.0) == [[0]]


def test_merge_heights_equal_sorted_tree_weights():
    pts = generate_instance(3, 80, 5, "uniform_cube")
    tree = dense_mst(pts, Metric("euclidean"))
    d = mst_to_dendrogram(tree, 80)
    assert d.height.tolist() == [e.w for e in sorted(tree, key=edge_key)]
    assert d.height.tolist() == sorted(d.height.tolist())


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_heights_match_naive_agglomeration_oracle(seed):
    pts = generate_instance(seed, 30, 3, "gaussian")
    m = Metric("euclidean")
    heights, _ = naive_single_linkage(pairwise_matrix(pts, m))
    d = mst_to_dendrogram(dense_mst(pts, m), 30)
    assert sorted(d.height.tolist()) == sorted(heights)


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
        h = rng.uniform_array(1)[0] * top * 1.1
        assert {tuple(b) for b in d.cut(h)} == threshold_components(tree, n, h)
    # exactly at a merge height, the tied edge is included on both sides
    tie = float(d.height[n // 2])
    assert {tuple(b) for b in d.cut(tie)} == threshold_components(tree, n, tie)


def test_tie_heavy_instance_matches_oracle_and_is_deterministic():
    coords = [[float(x + 1), float(y + 1)] for x in range(4) for y in range(4)]
    pts = PointSet(coords)
    m = Metric("manhattan")
    tree = dense_mst(pts, m)
    d1 = mst_to_dendrogram(tree, 16)
    d2 = mst_to_dendrogram(dense_mst(pts, m), 16)
    assert d1 == d2 and steps(d1) == steps(d2)
    heights, merges = naive_single_linkage(pairwise_matrix(pts, m))
    assert sorted(d1.height.tolist()) == sorted(heights)
    for h in (0.5, 1.0, 2.0):
        assert {tuple(b) for b in d1.cut(h)} == naive_cut(16, merges, h)


def test_cluster_ids_follow_step_order():
    pts = generate_instance(11, 12, 2, "uniform_cube")
    tree = dense_mst(pts, Metric("euclidean"))
    d = mst_to_dendrogram(tree, 12)
    created = set(range(12))
    for t, (a, b, _, _) in enumerate(steps(d)):
        assert a in created and b in created
        created.discard(a)
        created.discard(b)
        created.add(12 + t)
    assert d.size[-1] == 12


def test_rejects_forests_and_cycles():
    with pytest.raises(UsageError):
        mst_to_dendrogram(EdgeList([0], [1], [1.0]), 3)  # disconnected: too few edges
    with pytest.raises(UsageError):
        mst_to_dendrogram(
            EdgeList([0, 1, 0], [1, 2, 2], [1.0, 1.0, 1.0]), 4
        )  # cycle plus isolated vertex
    with pytest.raises(UsageError):
        mst_to_dendrogram(EdgeList([0], [3], [1.0]), 2)  # endpoint out of range
    with pytest.raises(UsageError):
        mst_to_dendrogram(EdgeList(), 0)


def test_dendrogram_type_validates_its_invariants():
    cases = [
        ([0, 3], [1, 2], [2.0, 1.0], "non-decreasing"),
        ([0, 0], [1, 2], [1.0, 2.0], "cluster 0 is merged more than once"),
        ([0, 3], [1, 2], [float("nan"), 1.0], "finite, got nan"),
        ([0, 3], [1, 2], [1.0, float("inf")], "finite, got inf"),
        ([-1, 3], [1, 2], [1.0, 2.0], "step 0 merges an unknown cluster -1"),
        ([0, 3], [4, 2], [1.0, 2.0], "step 0 merges an unknown cluster 4"),  # forward
        ([0, 3], [1], [1.0, 2.0], "one length"),
        ([0.7, 3], [1, 2], [1.0, 2.0], "cluster ids must be integers, got dtype float64"),
    ]
    for a, b, height, match in cases:
        with pytest.raises(UsageError, match=match):
            Dendrogram(a, b, height)
    d = Dendrogram([0, 3], [1, 2], [1.0, 2.0])
    assert d.count == 3 and steps(d) == [(0, 1, 1.0, 2), (3, 2, 2.0, 3)]
    with pytest.raises(ValueError):
        d.height[0] = 0.0


def test_count_and_sizes_follow_from_the_merges():
    # No count or size is passed: a pickled copy is rebuilt from a, b and height.
    d = Dendrogram([1, 2, 0, 7], [3, 4, 5, 6], [0.5, 1.0, 1.0, 3.0])
    assert d.count == 5 and d.size.tolist() == [2, 2, 3, 5]
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and copy.count == 5 and copy.size.tolist() == [2, 2, 3, 5]
    assert not copy.size.flags.writeable


def test_sizes_accumulate_along_steps():
    pts = generate_instance(21, 25, 3, "gaussian")
    d = mst_to_dendrogram(dense_mst(pts, Metric("euclidean")), 25)
    sizes = {c: 1 for c in range(25)}
    for t, (a, b, _, size) in enumerate(steps(d)):
        assert size == sizes[a] + sizes[b]
        sizes[25 + t] = size
    assert d.size[-1] == 25


@given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(min_value=2, max_value=24))
def test_cut_extremes(seed, n):
    pts = generate_instance(seed, n, 2, "uniform_cube")
    tree = dense_mst(pts, Metric("euclidean"))
    d = mst_to_dendrogram(tree, n)
    assert d.cut(-1.0) == [[i] for i in range(n)]
    assert d.cut(d.height.max()) == [list(range(n))]


def test_cut_at_nan_is_a_usage_error():
    d = mst_to_dendrogram(EdgeList([0, 1], [1, 2], [1.0, 2.0]), 3)
    with pytest.raises(UsageError, match="NaN"):
        d.cut(float("nan"))
