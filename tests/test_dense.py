"""The quadratic Prim kernel: pinned cases, oracle agreement, work counter."""

from itertools import combinations

import numpy as np
import pytest
from conftest import keys
from hypothesis import given
from hypothesis import strategies as st

from geomst import (
    METRIC_NAMES,
    DataError,
    Metric,
    MetricDomainError,
    PointSet,
    RunStats,
    UsageError,
    dense_mst,
    edge_key,
    generate_instance,
    merges,
    oracle_mst,
)


def test_collinear_chain():
    pts = PointSet([[0.0], [1.0], [3.0]])
    tree = dense_mst(pts, Metric("euclidean"))
    assert keys(tree) == [(1.0, 0, 1), (2.0, 1, 2)]


def test_single_point_has_no_edges():
    assert len(dense_mst(PointSet([[4.0, 2.0]]), Metric("euclidean"))) == 0


def test_empty_set_has_no_edges():
    assert len(dense_mst(PointSet(np.empty((0, 2))), Metric("euclidean"))) == 0


def test_two_points_single_edge():
    pts = PointSet([[0.0, 0.0], [3.0, 4.0]])
    assert keys(dense_mst(pts, Metric("euclidean"))) == [(5.0, 0, 1)]


def test_64_random_points_match_materialized_kruskal():
    pts = generate_instance(64, 64, 16, "gaussian")
    m = Metric("euclidean")
    assert keys(dense_mst(pts, m)) == keys(oracle_mst(pts, m))


def test_64_random_points_match_networkx():
    import networkx as nx

    pts = generate_instance(65, 64, 16, "gaussian")
    m = Metric("euclidean")
    g = nx.Graph()
    for i in range(64):
        for j in range(i + 1, 64):
            d = float(np.sqrt(((pts.coords[i] - pts.coords[j]) ** 2).sum()))
            g.add_edge(i, j, weight=d)
    ours = {(e.u, e.v) for e in dense_mst(pts, m)}
    theirs = {(min(a, b), max(a, b)) for a, b in nx.minimum_spanning_edges(g, data=False)}
    assert ours == theirs


def test_unit_square_tie_break_selects_lowest_index_pairs():
    pts = PointSet([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    m = Metric("euclidean")
    tree = dense_mst(pts, m)
    assert keys(tree) == [(1.0, 0, 1), (1.0, 0, 3), (1.0, 1, 2)]

    # enumerate all 16 spanning trees of K4 and confirm the output is the
    # unique one that is minimal under the sorted-edge-key order
    all_edges = []
    for i, j in combinations(range(4), 2):
        w = float(np.sqrt(((pts.coords[i] - pts.coords[j]) ** 2).sum()))
        all_edges.append((w, i, j))
    spanning = []
    for triple in combinations(all_edges, 3):
        if len(merges([u for _, u, _ in triple], [v for _, _, v in triple])) == 3:
            spanning.append(sorted(triple))
    assert len(spanning) == 16
    assert keys(tree) == min(spanning)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 40])
def test_distance_evals_is_exactly_all_pairs(n):
    pts = generate_instance(n, n, 3, "uniform_cube")
    stats = RunStats()
    dense_mst(pts, Metric("euclidean"), stats)
    assert stats.distance_evals == n * (n - 1) // 2


def test_distance_evals_counts_subset_size():
    pts = generate_instance(77, 30, 2, "uniform_cube")
    stats = RunStats()
    dense_mst(pts, Metric("manhattan"), stats, subset=[4, 9, 11, 20, 28])
    assert stats.distance_evals == 5 * 4 // 2


@pytest.mark.parametrize("n", [0, 1, 2, 9, 33])
def test_output_size_is_max_0_n_minus_1(n):
    pts = generate_instance(n + 100, n, 4, "gaussian")
    assert len(dense_mst(pts, Metric("euclidean"))) == max(0, n - 1)


def test_translation_leaves_euclidean_edge_set_unchanged():
    pts = generate_instance(31, 50, 6, "uniform_cube")
    shifted = PointSet(pts.coords + 7.25)
    a = [(e.u, e.v) for e in dense_mst(pts, Metric("euclidean"))]
    b = [(e.u, e.v) for e in dense_mst(shifted, Metric("euclidean"))]
    assert a == b


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_agrees_with_oracle_for_every_metric(name):
    # d = 7 and 8 sit on either side of the kernel's switch from a
    # column-major to a row-major working copy; the oracle stays row-major
    m = Metric(name)
    for d in (5, 7, 8):
        for seed, n in [(1, 2), (2, 7), (3, 23), (4, 48), (5, 60)]:
            pts = generate_instance(seed, n, d, "gaussian")
            assert keys(dense_mst(pts, m)) == keys(oracle_mst(pts, m)), (d, n)


def test_tie_heavy_grid_agrees_with_oracle():
    # offset keeps the origin out so cosine_distance stays in domain
    coords = [[float(x + 1), float(y + 1)] for x in range(5) for y in range(5)]
    pts = PointSet(coords)
    for name in METRIC_NAMES:
        m = Metric(name)
        assert keys(dense_mst(pts, m)) == keys(oracle_mst(pts, m)), name


def test_duplicate_points_give_zero_weight_edges():
    pts = PointSet([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
    tree = dense_mst(pts, Metric("euclidean"))
    assert len(tree) == 2
    first = tree.edges[0]
    assert first.w == 0.0 and (first.u, first.v) == (0, 1)


def test_subset_result_carries_global_row_indices():
    pts = generate_instance(8, 12, 2, "uniform_cube")
    m = Metric("euclidean")
    sub = [2, 5, 7, 11]
    tree = dense_mst(pts, m, subset=sub)
    assert len(tree) == 3
    assert all(e.u in sub and e.v in sub for e in tree)
    assert keys(tree) == keys(oracle_mst(pts, m, subset=sub))


def test_custom_ids_flow_into_edges():
    pts = PointSet([[0.0], [1.0], [3.0]], ids=[10, 20, 30])
    tree = dense_mst(pts, Metric("euclidean"))
    assert keys(tree) == [(1.0, 10, 20), (2.0, 20, 30)]


def test_output_is_sorted_by_edge_key():
    pts = generate_instance(6, 40, 3, "uniform_cube")
    tree = dense_mst(pts, Metric("chebyshev"))
    ks = [edge_key(e) for e in tree]
    assert ks == sorted(ks)


def test_cosine_zero_vector_raises_before_any_work():
    pts = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(MetricDomainError, match="point id 0"):
        dense_mst(pts, Metric("cosine_distance"))
    # the zero row outside the subset must not trip the domain check
    tree = dense_mst(pts, Metric("cosine_distance"), subset=[1, 2])
    assert len(tree) == 1


def test_overflowing_distance_stops_at_the_first_such_edge():
    # Point 0 lies 1e200 from the rest, so its squared distances overflow:
    # the first tree edge is already inf and no further block is computed.
    calls = []

    class CountingMetric(Metric):
        __slots__ = ()

        def block(self, a, rows):
            calls.append(len(rows))
            return super().block(a, rows)

    coords = np.zeros((50, 2))
    coords[0, 0] = 1e200
    coords[1:, 1] = np.arange(49.0)
    stats = RunStats()
    with pytest.raises(DataError, match="between points 0 and 1 is inf"):
        dense_mst(PointSet(coords), CountingMetric("euclidean"), stats)
    assert calls == [49]
    assert stats.distance_evals == 0


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=2, max_value=20),
    d=st.integers(min_value=1, max_value=10),
)
def test_matches_oracle_on_random_instances(seed, n, d):
    pts = generate_instance(seed, n, d, "uniform_cube")
    m = Metric("manhattan")
    assert keys(dense_mst(pts, m)) == keys(oracle_mst(pts, m))


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_ties_under_permuted_sparse_ids_match_oracle(name):
    # Grid points with duplicate rows make most weights tie, and ids drawn
    # from a sparse range in random order put the canonical (u, v) winner of
    # a tie away from the first row position that attains it; both the
    # selection and the frontier update must break those ties by (u, v).
    rng = np.random.default_rng(20240917)
    m = Metric(name)
    for d in (1, 2, 3, 5):
        coords = rng.integers(0, 3, size=(70, d)).astype(np.float64)
        if name == "cosine_distance":
            coords = coords[coords.any(axis=1)]
        n = coords.shape[0]
        ids = rng.choice(25 * n, size=n, replace=False)
        pts = PointSet(coords, ids=ids)
        assert dense_mst(pts, m).edges == oracle_mst(pts, m).edges, d
        for size in (2, 9, n // 2, n):
            sub = rng.choice(n, size=size, replace=False)
            got = dense_mst(pts, m, subset=sub).edges
            assert got == oracle_mst(pts, m, subset=sub).edges, (d, size)
