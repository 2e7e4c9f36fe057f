"""Pairwise-partition decomposition: equivalence, counters, merge strategies."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import keys, no_child_processes
from hypothesis import given
from hypothesis import strategies as st

import geomst
import geomst.decompose as decompose
from geomst import (
    METRIC_NAMES,
    MERGE_STRATEGIES,
    Metric,
    MetricDomainError,
    Partition,
    PointSet,
    RunStats,
    UsageError,
    decomposed_mst,
    dense_mst,
    format_edges,
    generate_instance,
    make_partition,
    oracle_mst,
    redundancy_factor,
)


def test_contiguous_split_7_into_3():
    part = make_partition(7, 3)
    assert [b.tolist() for b in part.blocks] == [[0, 1, 2], [3, 4], [5, 6]]


def test_single_block_partition():
    part = make_partition(4, 1)
    assert [b.tolist() for b in part.blocks] == [[0, 1, 2, 3]]


def test_shuffled_partition_is_deterministic():
    a = make_partition(100, 10, "shuffled", seed=7)
    b = make_partition(100, 10, "shuffled", seed=7)
    assert [x.tolist() for x in a.blocks] == [x.tolist() for x in b.blocks]
    c = make_partition(100, 10, "shuffled", seed=8)
    assert [x.tolist() for x in a.blocks] != [x.tolist() for x in c.blocks]


def test_shuffled_partition_still_covers_everything():
    part = make_partition(50, 7, "shuffled", seed=3)
    merged = sorted(i for b in part.blocks for i in b.tolist())
    assert merged == list(range(50))
    assert part.block_sizes() == [8, 7, 7, 7, 7, 7, 7]


def test_partition_validation():
    with pytest.raises(UsageError):
        make_partition(5, 0)
    with pytest.raises(UsageError):
        make_partition(5, 6)
    with pytest.raises(UsageError):
        make_partition(0, 1)
    with pytest.raises(UsageError):
        make_partition(5, 2, "sorted")
    with pytest.raises(UsageError):
        Partition(([0, 1], [1, 2]))
    with pytest.raises(UsageError):
        Partition(([0, 1], [3]))
    with pytest.raises(UsageError):
        Partition(([0, 1], []))
    with pytest.raises(UsageError):
        Partition(())


def test_three_singleton_blocks_hand_trace():
    pts = PointSet([[0.0], [1.0], [3.0]])
    part = Partition(([0], [1], [2]))
    tree, stats = decomposed_mst(pts, Metric("euclidean"), part, "gather", 1)
    assert keys(tree) == [(1.0, 0, 1), (2.0, 1, 2)]
    assert stats.tasks_executed == 3
    assert stats.edges_gathered == 3
    assert stats.distance_evals == 3


def test_128_points_k4_both_merges_equal_oracle():
    pts = generate_instance(904, 128, 32, "gaussian")
    m = Metric("euclidean")
    expected = keys(oracle_mst(pts, m))
    part = make_partition(128, 4)
    for merge in MERGE_STRATEGIES:
        tree, stats = decomposed_mst(pts, m, part, merge, 2)
        assert keys(tree) == expected
        assert stats.merge_strategy == merge


def test_k1_is_a_single_whole_set_task():
    pts = generate_instance(8, 20, 2, "uniform_cube")
    part = make_partition(20, 1)
    tree, stats = decomposed_mst(pts, Metric("euclidean"), part, "gather", 4)
    assert stats.tasks_executed == 1
    assert stats.edges_gathered == 0
    assert stats.distance_evals == 20 * 19 // 2
    assert keys(tree) == keys(dense_mst(pts, Metric("euclidean")))


@pytest.mark.parametrize("n,k", [(16, 2), (16, 4), (16, 8), (24, 3), (24, 6), (48, 4), (64, 8)])
def test_work_counter_closed_form_for_even_partitions(n, k):
    pts = generate_instance(n * 31 + k, n, 3, "uniform_cube")
    part = make_partition(n, k)
    _, stats = decomposed_mst(pts, Metric("euclidean"), part, "gather", 1)
    m = 2 * n // k
    assert stats.distance_evals == (k * (k - 1) // 2) * (m * (m - 1) // 2)
    assert stats.tasks_executed == (k * (k - 1) // 2 if k >= 2 else 1)


def test_work_counter_general_form_for_uneven_partitions():
    pts = generate_instance(55, 23, 4, "gaussian")
    part = make_partition(23, 5)
    sizes = part.block_sizes()
    _, stats = decomposed_mst(pts, Metric("manhattan"), part, "gather", 2)
    expected = 0
    for i in range(5):
        for j in range(i + 1, 5):
            mij = sizes[i] + sizes[j]
            expected += mij * (mij - 1) // 2
    assert stats.distance_evals == expected


def test_gather_count_is_sum_of_task_tree_sizes():
    n, k = 60, 5
    pts = generate_instance(3, n, 8, "uniform_cube")
    part = make_partition(n, k)
    sizes = part.block_sizes()
    _, stats = decomposed_mst(pts, Metric("euclidean"), part, "gather", 1)
    expected = sum(sizes[i] + sizes[j] - 1 for i in range(k) for j in range(i + 1, k))
    assert stats.edges_gathered == expected
    assert stats.edges_gathered <= n * (k - 1)
    assert stats.combine_input_sizes == []


def test_reduce_counts_each_combine_and_bounds_the_final_one():
    n, k = 90, 6
    pts = generate_instance(4, n, 5, "uniform_cube")
    part = make_partition(n, k)
    _, stats = decomposed_mst(pts, Metric("euclidean"), part, "reduce", 2)
    tasks = k * (k - 1) // 2
    combines = tasks - 1  # a binary reduction of t inputs runs t-1 combines
    assert len(stats.combine_input_sizes) == combines
    assert stats.edges_gathered == sum(stats.combine_input_sizes)
    assert stats.combine_input_sizes[-1] <= 2 * (n - 1)
    assert all(s <= 2 * (n - 1) for s in stats.combine_input_sizes)


def test_union_of_task_trees_contains_the_global_tree():
    pts = generate_instance(71, 48, 6, "gaussian")
    m = Metric("euclidean")
    part = make_partition(48, 6, "shuffled", 12)
    union = set()
    for i in range(6):
        for j in range(i + 1, 6):
            sub = np.concatenate((part.blocks[i], part.blocks[j]))
            union |= set(keys(dense_mst(pts, m, subset=sub)))
    assert set(keys(oracle_mst(pts, m))) <= union


def test_redundancy_k1_is_exactly_one():
    pts = generate_instance(2, 30, 2, "uniform_cube")
    _, stats = decomposed_mst(pts, Metric("euclidean"), make_partition(30, 1), "gather", 1)
    assert redundancy_factor(stats, 30) == 1.0


def test_redundancy_k2_even_split_is_exactly_one():
    pts = generate_instance(2, 100, 2, "uniform_cube")
    _, stats = decomposed_mst(pts, Metric("euclidean"), make_partition(100, 2), "gather", 1)
    assert redundancy_factor(stats, 100) == 1.0


def test_redundancy_bounded_by_two_and_matches_closed_form():
    for n, k in [(24, 2), (24, 3), (24, 4), (24, 6), (24, 8), (120, 8), (64, 4)]:
        pts = generate_instance(n + k, n, 2, "uniform_cube")
        _, stats = decomposed_mst(pts, Metric("euclidean"), make_partition(n, k), "gather", 1)
        rf = redundancy_factor(stats, n)
        assert rf <= 2.0
        assert rf == pytest.approx((k - 1) * (2 * n - k) / (k * (n - 1)), rel=1e-12)


def test_redundancy_needs_two_points():
    with pytest.raises(UsageError):
        redundancy_factor(RunStats(), 1)


def test_merge_strategies_are_byte_identical():
    pts = generate_instance(6, 75, 3, "uniform_cube")
    m = Metric("chebyshev")
    part = make_partition(75, 5, "shuffled", 2)
    a, _ = decomposed_mst(pts, m, part, "gather", 2)
    b, _ = decomposed_mst(pts, m, part, "reduce", 2)
    assert format_edges(a) == format_edges(b)


def test_workers_do_not_change_the_answer():
    pts = generate_instance(14, 66, 4, "gaussian")
    m = Metric("euclidean")
    part = make_partition(66, 6)
    texts = set()
    for workers in (1, 2, 5):
        tree, _ = decomposed_mst(pts, m, part, "gather", workers)
        texts.add(format_edges(tree))
    assert len(texts) == 1


def test_worker_errors_come_through_unchanged():
    coords = generate_instance(15, 30, 3, "gaussian").coords.copy()
    coords[17] = 0.0  # in the middle block, so two of the three tasks meet it
    pts = PointSet(coords)
    with pytest.raises(MetricDomainError, match=r"point id 17\)") as caught:
        decomposed_mst(pts, Metric("cosine_distance"), make_partition(30, 3), "gather", 2)
    assert type(caught.value) is MetricDomainError
    assert no_child_processes()


def _failing_tasks(monkeypatch, parent_fails=(), child_fails=(), child_sleeps=0.0, exc=ValueError):
    """Patch the task solver so the named tasks raise, in this process or in a child."""
    parent = os.getpid()
    solve = decompose._solve_pair

    def patched(points, metric, part, pair):
        if os.getpid() == parent:
            if pair in parent_fails:
                raise exc(f"task {pair}")
        else:
            time.sleep(child_sleeps)
            if pair in child_fails:
                raise exc(f"task {pair}")
        return solve(points, metric, part, pair)

    monkeypatch.setattr(decompose, "_solve_pair", patched)


def _three_tasks():
    return generate_instance(4, 30, 3, "gaussian"), Metric("euclidean"), make_partition(30, 3)


def test_an_error_in_the_parents_own_share_still_reaps_every_child(monkeypatch):
    # Task 0 is the parent's own; the children would sleep for a minute.
    _failing_tasks(monkeypatch, parent_fails=[(0, 1)], child_sleeps=60.0)
    pts, m, part = _three_tasks()
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"task \(0, 1\)"):
        decomposed_mst(pts, m, part, "gather", 3)
    assert time.perf_counter() - started < 30.0
    assert no_child_processes()


def test_an_interrupt_in_the_parents_own_share_still_reaps_every_child(monkeypatch):
    _failing_tasks(monkeypatch, parent_fails=[(0, 1)], child_sleeps=60.0, exc=KeyboardInterrupt)
    pts, m, part = _three_tasks()
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        decomposed_mst(pts, m, part, "gather", 3)
    assert time.perf_counter() - started < 30.0
    assert no_child_processes()


def test_the_first_error_in_task_order_wins_over_the_parents_later_one(monkeypatch):
    # Two workers: the parent solves tasks 0 and 2, the child task 1, which
    # is slow enough that the parent's error comes first in time.
    _failing_tasks(monkeypatch, parent_fails=[(1, 2)], child_fails=[(0, 2)], child_sleeps=1.0)
    pts, m, part = _three_tasks()
    with pytest.raises(ValueError, match=r"task \(0, 2\)"):
        decomposed_mst(pts, m, part, "gather", 2)
    assert no_child_processes()


def test_a_worker_that_dies_without_reporting_is_an_error(monkeypatch):
    parent = os.getpid()
    solve = decompose._solve_pair

    def patched(*args):
        if os.getpid() != parent:
            os._exit(3)
        return solve(*args)

    monkeypatch.setattr(decompose, "_solve_pair", patched)
    pts, m, part = _three_tasks()
    with pytest.raises(RuntimeError, match="ended without reporting"):
        decomposed_mst(pts, m, part, "gather", 2)
    assert no_child_processes()


def test_two_workers_leave_multiprocessing_unimported():
    script = (
        "import sys\n"
        "from geomst import Metric, decomposed_mst, generate_instance, make_partition\n"
        "pts = generate_instance(5, 40, 3, 'gaussian')\n"
        "decomposed_mst(pts, Metric('euclidean'), make_partition(40, 3), 'gather', 2)\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(geomst.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_partition_strategies_do_not_change_the_answer():
    pts = generate_instance(9, 40, 3, "uniform_cube")
    m = Metric("euclidean")
    expected = keys(oracle_mst(pts, m))
    for strategy in ("contiguous", "shuffled"):
        part = make_partition(40, 4, strategy, 77)
        tree, _ = decomposed_mst(pts, m, part, "reduce", 2)
        assert keys(tree) == expected


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_every_metric_survives_decomposition(name):
    m = Metric(name)
    pts = generate_instance(sum(name.encode()), 36, 4, "gaussian")
    part = make_partition(36, 4, "shuffled", 1)
    for merge in MERGE_STRATEGIES:
        tree, _ = decomposed_mst(pts, m, part, merge, 3)
        assert keys(tree) == keys(oracle_mst(pts, m))


def test_argument_validation():
    pts = generate_instance(1, 10, 2, "uniform_cube")
    part = make_partition(10, 2)
    with pytest.raises(UsageError):
        decomposed_mst(pts, Metric("euclidean"), part, "broadcast", 1)
    with pytest.raises(UsageError):
        decomposed_mst(pts, Metric("euclidean"), part, "gather", 0)
    with pytest.raises(UsageError):
        decomposed_mst(pts, Metric("euclidean"), make_partition(9, 2), "gather", 1)


def test_stats_wall_time_and_strategy_fields():
    pts = generate_instance(1, 12, 2, "uniform_cube")
    _, stats = decomposed_mst(pts, Metric("euclidean"), make_partition(12, 3), "reduce", 1)
    assert stats.wall_time >= 0.0
    assert stats.merge_strategy == "reduce"


def test_duplicate_points_across_blocks():
    coords = [[1.0, 1.0]] * 6 + [[2.0, 2.0]] * 6
    pts = PointSet(coords)
    m = Metric("euclidean")
    part = make_partition(12, 4)
    for merge in MERGE_STRATEGIES:
        tree, _ = decomposed_mst(pts, m, part, merge, 2)
        assert keys(tree) == keys(oracle_mst(pts, m))


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=2, max_value=24),
    d=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=8),
    shuffled=st.booleans(),
    merge=st.sampled_from(MERGE_STRATEGIES),
    workers=st.integers(min_value=1, max_value=3),
)
def test_always_equals_oracle(seed, n, d, k, shuffled, merge, workers):
    pts = generate_instance(seed, n, d, "uniform_cube")
    m = Metric("euclidean")
    part = make_partition(n, min(k, n), "shuffled" if shuffled else "contiguous", seed)
    tree, stats = decomposed_mst(pts, m, part, merge, workers)
    assert keys(tree) == keys(oracle_mst(pts, m))
    assert len(tree) == n - 1
    assert stats.distance_evals >= n * (n - 1) // 2 or min(k, n) == 1


@pytest.mark.parametrize("ids", [[0, 1, 2, 10**7], [2**40, 2**40 + 1, 2**40 + 2, 2**40 + 9]])
def test_sparse_ids_give_the_relabelled_dense_tree_quickly(ids):
    # Union-find is sized by the ids that occur, not by the largest one.
    coords = generate_instance(8, 4, 3, "uniform_cube").coords
    m = Metric("euclidean")
    expected = [(w, ids[u], ids[v]) for w, u, v in keys(oracle_mst(PointSet(coords), m))]
    sparse = PointSet(coords, ids=ids)
    start = time.perf_counter()
    for merge in MERGE_STRATEGIES:
        tree, _ = decomposed_mst(sparse, m, make_partition(4, 2), merge, workers=1)
        assert keys(tree) == expected
    assert keys(oracle_mst(sparse, m)) == expected
    assert time.perf_counter() - start < 0.5
