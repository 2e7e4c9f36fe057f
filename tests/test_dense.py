"""The quadratic Prim kernel: pinned cases, oracle agreement, work counter."""

from itertools import combinations

import numpy as np
import pytest
from reference import keys
from hypothesis import given
from hypothesis import strategies as st

import geomst.dense as dense_module
from geomst import (
    METRIC_NAMES,
    DataError,
    Metric,
    MetricDomainError,
    PointSet,
    RunStats,
    UsageError,
    decomposed_mst,
    dense_mst,
    edge_key,
    generate_instance,
    make_partition,
    merges,
    oracle_mst,
)
from geomst.oracle import _finite_forest


def test_collinear_chain():
    # Every step chooses the row already at position t, so the move swaps a row with itself.
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


def test_overflowing_distances_are_left_out_of_the_forest():
    # Point 0 lies 1e200 from the rest, so its squared distances overflow.
    # The kernel no longer stops at the first inf edge the tree needs: Prim
    # runs on, evaluates every pair once, and returns the 48-edge forest of
    # the finite pairs; decomposed_mst then names the pair the oracle names.
    calls = []

    class CountingMetric(Metric):
        __slots__ = ()

        def block(self, a, rows):
            calls.append(len(rows))
            return super().block(a, rows)

    coords = np.zeros((50, 2))
    coords[0, 0] = 1e200
    coords[1:, 1] = np.arange(49.0)
    pts = PointSet(coords)
    stats = RunStats()
    forest = dense_mst(pts, CountingMetric("euclidean"), stats)
    assert len(forest) == 48
    assert keys(forest) == [(1.0, i, i + 1) for i in range(1, 49)]
    assert sum(calls) == stats.distance_evals == 50 * 49 // 2
    with pytest.raises(DataError, match="between points 0 and 1 is inf"):
        decomposed_mst(pts, Metric("euclidean"), make_partition(50, 1), workers=1)


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


# The step bound (see geomst.dense) serves these metrics from _BOUND_FROM up;
# below it, and for the other metrics, every pair is evaluated.
BOUNDED = ("euclidean", "squared_euclidean", "cosine_distance")
BOUND_FROM = dense_module._BOUND_FROM
BOTH_SIDES = (BOUND_FROM // 2, BOUND_FROM - 1, BOUND_FROM, 2 * BOUND_FROM + 3)


def _adversarial(kind, n, d, rng):
    """Coordinates meant to make a loose or badly rounded bound change an edge."""
    if kind == "gaussian":
        return rng.standard_normal((n, d))
    if kind in ("centred_clusters", "offset_clusters"):
        centres = 10.0 * rng.standard_normal((4, d)) + (1e6 if kind == "offset_clusters" else 0.0)
        return centres[np.arange(n) % 4] + rng.standard_normal((n, d))
    if kind == "duplicates":
        return rng.standard_normal((n // 3, d))[rng.integers(0, n // 3, size=n)]
    if kind == "lattice":
        return rng.integers(1, 3, size=(n, d)).astype(np.float64)
    if kind == "near_ties":
        # Scaled basis vectors a few ulps apart in length, on a common
        # offset: every pair distance is one of a few values within the
        # bound's rounding term of each other.
        x = np.zeros((n, d))
        x[np.arange(n), np.arange(n) % d] = 1.0 + rng.integers(-3, 4, size=n) * 2.0**-52
        return x + 3.0
    if kind == "huge":  # squared norms near 1e302, still inside the bound's range
        return 1e150 * rng.standard_normal((n, d))
    if kind == "beyond_norm_limit":  # squared norms above 2^1020: the bound is not used
        return 1e153 + 1e140 * rng.standard_normal((n, d))
    if kind == "tiny":
        return 1e-150 * rng.standard_normal((n, d))
    if kind == "subnormal_products":
        return 1e-160 * rng.standard_normal((n, d))
    if kind == "offset_near_ties":
        # The same spikes far from the origin, on a vector whose coordinates
        # round when a spike is added: every weight is within a few ulps of
        # 2, while the bound's rounding term is between 0.1 and 10.
        x = np.zeros((n, d))
        x[np.arange(n), np.arange(n) % d] = 1.0
        return x + 1e6 * (1.0 + 0.1 * rng.standard_normal(d))
    if kind == "subnormal_ties":
        # Lattice points a little apart, scaled so that squared differences
        # and products are subnormal: many weights tie or nearly tie, at
        # the grain where underflow decides the last bits.
        lattice = rng.integers(1, 3, size=(n, d)) + 2.0**-15 * rng.standard_normal((n, d))
        return 2.0**-530 * lattice
    raise AssertionError(kind)


ADVERSARIAL = (
    "gaussian",
    "centred_clusters",
    "offset_clusters",
    "duplicates",
    "lattice",
    "near_ties",
    "huge",
    "beyond_norm_limit",
    "tiny",
    "subnormal_products",
    "offset_near_ties",
    "subnormal_ties",
)


def _bits(tree):
    return tree.u.tobytes(), tree.v.tobytes(), tree.w.tobytes()


@pytest.mark.parametrize("d", BOTH_SIDES)
@pytest.mark.parametrize("name", BOUNDED)
def test_bounded_metrics_match_the_oracle_bit_for_bit_on_adversarial_inputs(name, d):
    rng = np.random.default_rng(9000 + d)
    m = Metric(name)
    for kind in ADVERSARIAL:
        coords = _adversarial(kind, 60, d, rng)
        ids = rng.choice(25 * 60, size=60, replace=False)
        pts = PointSet(coords, ids=ids)
        assert _bits(dense_mst(pts, m)) == _bits(oracle_mst(pts, m)), kind
        sub = rng.choice(60, size=23, replace=False)
        assert _bits(dense_mst(pts, m, subset=sub)) == _bits(oracle_mst(pts, m, subset=sub)), kind


@pytest.mark.parametrize("d", (BOUND_FROM, 2 * BOUND_FROM + 3))
@pytest.mark.parametrize("name", ("euclidean", "squared_euclidean"))
def test_bounded_overflow_the_tree_needs_names_the_oracles_pair(name, d):
    # Two far groups: every squared norm of the far one overflows, so the
    # bound is off, and the one tree edge between the groups is inf.
    coords = np.zeros((20, d))
    coords[:, 0] = np.arange(20.0)
    coords[12:] += 1e154
    pts = PointSet(coords)
    with pytest.raises(DataError) as oracle_error:
        oracle_mst(pts, Metric(name))
    forest = _finite_forest(pts, Metric(name), None, 20)[0]
    assert _bits(dense_mst(pts, Metric(name))) == _bits(forest)
    with pytest.raises(DataError) as dense_error:
        decomposed_mst(pts, Metric(name), make_partition(20, 1), workers=1)
    assert str(dense_error.value) == str(oracle_error.value)
    assert "overflow" in str(dense_error.value)


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_the_bound_prunes_exact_evaluations_only_where_it_applies(name):
    rows = []

    class CountingMetric(Metric):
        __slots__ = ()

        def block(self, a, block_rows):
            rows.append(len(block_rows))
            return super().block(a, block_rows)

    n = 200
    for d in (BOUND_FROM - 1, BOUND_FROM):
        rows.clear()
        stats = RunStats()
        pts = generate_instance(d, n, d, "gaussian")
        assert dense_mst(pts, CountingMetric(name), stats) == dense_mst(pts, Metric(name))
        assert stats.distance_evals == n * (n - 1) // 2
        if name in BOUNDED and d >= BOUND_FROM:
            assert sum(rows) < n * (n - 1) // 4, d
        else:
            assert sum(rows) == n * (n - 1) // 2, d


@pytest.mark.parametrize("d", (128, 256, 768))
@pytest.mark.parametrize("name", BOUNDED)
def test_gram_and_gemv_give_the_same_tree_and_counter(name, d, monkeypatch):
    # A bounded task takes each step's dot terms from one Gram matrix or from
    # a gemv; other rounding may change which rows are evaluated, never a
    # weight, a tie's winner or the counter.
    grams = []
    real_gram = dense_module._scaled_gram
    monkeypatch.setattr(
        dense_module, "_scaled_gram", lambda work, scale: grams.append(len(work)) or real_gram(work, scale)
    )
    rows = []

    class CountingMetric(Metric):
        __slots__ = ()

        def block(self, a, block_rows):
            rows.append(len(block_rows))
            return super().block(a, block_rows)

    rng = np.random.default_rng(7000 + d)
    n = 90
    for kind in ("gaussian", "duplicates", "offset_clusters", "one_beyond_norm_limit"):
        if kind == "one_beyond_norm_limit":
            coords = rng.standard_normal((n, d))
            coords[17, 0] = 5e153  # squared norm 2.5e307 > 2^1020, every distance finite
        else:
            coords = _adversarial(kind, n, d, rng)
        pts = PointSet(coords, ids=rng.choice(25 * n, size=n, replace=False))
        expected = _bits(oracle_mst(pts, Metric(name)))
        for gram_from, gram_bytes, source in ((0, 2**40, "gram"), (10**9, 0, "gemv")):
            monkeypatch.setattr(dense_module, "_GRAM_FROM", gram_from)
            monkeypatch.setattr(dense_module, "_GRAM_MAX_BYTES", gram_bytes)
            grams.clear()
            rows.clear()
            stats = RunStats()
            assert _bits(dense_mst(pts, CountingMetric(name), stats)) == expected, (kind, source)
            assert stats.distance_evals == n * (n - 1) // 2
            # cosine bounds on unit rows, whose norms never reach the limit
            unbounded = kind == "one_beyond_norm_limit" and name != "cosine_distance"
            assert grams == ([n] if source == "gram" and not unbounded else []), (kind, source)
            assert (sum(rows) == n * (n - 1) // 2) == unbounded, (kind, source)


LOCKSTEP = [
    (name, d)
    for names, dims in (
        (("euclidean", "squared_euclidean", "cosine_distance"), (1, 2, 7, 8, 16, 31)),
        (("manhattan", "chebyshev"), (2, 16, 64)),
    )
    for name in names
    for d in dims
]


@pytest.mark.parametrize("tasks", (2, 3, 5))
@pytest.mark.parametrize("name, d", LOCKSTEP)
def test_lockstep_gives_each_task_the_tree_and_counter_of_dense_mst(name, d, tasks, monkeypatch):
    # Grid coordinates with repeated rows make weights tie both when a step
    # selects a vertex and when it updates the frontier, and sparse ids in
    # random order put a tie's (u, v) winner away from its first position.
    # lockstep_mst counts nothing; the counter checked is dense_mst's, the
    # closed form decomposed_mst sums over its tasks.
    assert not dense_module.has_step_bound(Metric(name), d)
    calls = []
    real = dense_module._canonical_tie
    monkeypatch.setattr(dense_module, "_canonical_tie", lambda *a: calls.append(a) or real(*a))
    rng = np.random.default_rng(100 * d + tasks)
    coords = rng.integers(1, 4, size=(48, d)).astype(np.float64)  # no zero row
    coords[36:] = coords[:12]
    pts = PointSet(coords, ids=rng.choice(25 * 48, size=48, replace=False))
    m = Metric(name)
    subsets = [rng.choice(48, size=30, replace=False) for _ in range(tasks)]
    trees = dense_module.lockstep_mst(pts, m, subsets)
    assert calls
    for subset, tree in zip(subsets, trees, strict=True):
        alone = RunStats()
        assert _bits(tree) == _bits(dense_mst(pts, m, alone, subset=subset))
        assert alone.distance_evals == 30 * 29 // 2


@pytest.mark.parametrize(
    "tasks, cap, calls, alone",
    [
        (5, None, [5], 0),  # one run of every task
        (5, 2 * 960, [2, 2], 1),  # 2 tasks of 20 points in 3 + 3 floats each fit 1920 bytes
        (5, 1, [], 5),  # no two fit, so each task runs alone
        (1, None, [], 1),
    ],
)
def test_lockstep_splits_its_tasks_into_runs_that_fit_the_cap(tasks, cap, calls, alone, monkeypatch):
    # A group with more tasks than fit runs in chunks that do, and a chunk
    # of one goes to dense_mst.
    if cap is not None:
        monkeypatch.setattr(dense_module, "_LOCKSTEP_MAX_BYTES", cap)
    runs, lone = [], []
    run, dense = dense_module._lockstep_run, dense_module.dense_mst

    def recording_run(points, metric, rows):
        runs.append(len(rows))
        return run(points, metric, rows)

    def recording_dense(points, metric, subset):
        lone.append(subset)
        return dense(points, metric, subset=subset)

    monkeypatch.setattr(dense_module, "_lockstep_run", recording_run)
    monkeypatch.setattr(dense_module, "dense_mst", recording_dense)
    pts = generate_instance(22, 60, 3, "gaussian")
    m = Metric("manhattan")
    rng = np.random.default_rng(tasks)
    subsets = [rng.choice(60, size=20, replace=False) for _ in range(tasks)]
    trees = dense_module.lockstep_mst(pts, m, subsets)
    assert runs == calls
    assert len(lone) == alone
    assert [_bits(t) for t in trees] == [_bits(dense(pts, m, subset=s)) for s in subsets]


@pytest.mark.parametrize("cap", [None, 2 * 960], ids=["one-run-per-size", "split"])
@pytest.mark.parametrize("name, d", [("euclidean", 32), ("manhattan", 3)], ids=["bounded", "unbounded"])
def test_lockstep_solves_subsets_of_mixed_sizes_as_dense_mst_does_in_order(name, d, cap, monkeypatch):
    # At d = 3 two tasks of 20 points fit 1920 bytes, so the group of four
    # splits in two, and the three tasks of 7 points still run together.
    if cap is not None:
        monkeypatch.setattr(dense_module, "_LOCKSTEP_MAX_BYTES", cap)
    assert dense_module.has_step_bound(Metric(name), d) == (d == 32)
    pts = generate_instance(23, 60, d, "gaussian")
    m = Metric(name)
    rng = np.random.default_rng(d)
    sizes = [20, 7, 20, 1, 7, 0, 20, 2, 13, 1, 7, 20, 2, 0]
    subsets = [rng.choice(60, size=size, replace=False) for size in sizes]
    trees = dense_module.lockstep_mst(pts, m, subsets)
    assert [_bits(t) for t in trees] == [_bits(dense_mst(pts, m, subset=s)) for s in subsets]
    assert [len(t) for t in trees] == [max(size - 1, 0) for size in sizes]
    assert dense_module.lockstep_mst(pts, m, []) == []


def test_lockstep_gives_each_task_its_finite_forest_and_full_counter():
    # Manhattan distances between 1-D points of opposite sign at least
    # 0.9e308 from 0 overflow. Task 1's tree needs such an edge at step 5,
    # task 2's at step 1, and both lose it: each task gets dense_mst's
    # finite forest, and dense_mst counts all its pairs. A subset out of
    # range raises.
    pos = 1e308 * np.array([1.0, 0.98, 0.96, 0.94, 0.92])
    coords = np.concatenate((np.arange(12.0), pos, -pos))
    pts = PointSet(coords[:, None])
    m = Metric("manhattan")
    subsets = [
        np.arange(6),
        np.r_[12:17, 17],
        np.r_[12, 17:22],
        np.arange(6, 12),
    ]
    stats = [RunStats() for _ in subsets]
    trees = dense_module.lockstep_mst(pts, m, subsets)
    assert type(trees) is list
    assert [_bits(t) for t in trees] == [_bits(dense_mst(pts, m, st, subset=s)) for st, s in zip(stats, subsets)]
    assert [_bits(t) for t in trees] == [_bits(_finite_forest(pts, m, s, 22)[0]) for s in subsets]
    assert [len(t) for t in trees] == [5, 4, 4, 5]
    assert [s.distance_evals for s in stats] == [15] * 4
    with pytest.raises(UsageError):
        dense_module.lockstep_mst(pts, m, subsets + [np.r_[0:5, 22]])


def test_lockstep_reports_a_zero_vector_in_task_order():
    coords = generate_instance(17, 30, 3, "gaussian").coords.copy()
    coords[[12, 20]] = 0.0
    pts = PointSet(coords)
    m = Metric("cosine_distance")
    subsets = [np.arange(10), np.arange(20, 30), np.arange(10, 20)]
    with pytest.raises(MetricDomainError) as expected:
        dense_mst(pts, m, subset=subsets[1])
    with pytest.raises(MetricDomainError) as caught:
        dense_module.lockstep_mst(pts, m, subsets)
    assert type(caught.value) is MetricDomainError and str(caught.value) == str(expected.value)
