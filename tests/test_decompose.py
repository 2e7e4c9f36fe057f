"""Pairwise-partition decomposition: equivalence, counters, merge strategies."""

import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import traceback
from itertools import combinations

import numpy as np
import pytest
from reference import keys, no_child_processes
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geomst
import geomst.decompose as decompose
import geomst.dense as dense_module
import geomst.geometry as geometry
from geomst import (
    METRIC_NAMES,
    MERGE_STRATEGIES,
    Metric,
    MetricDomainError,
    PARTITION_STRATEGIES,
    DataError,
    EdgeList,
    Partition,
    PointSet,
    RunStats,
    UsageError,
    decomposed_mst,
    dense_mst,
    format_edges,
    generate_instance,
    make_partition,
    mst_to_dendrogram,
    oracle_mst,
    redundancy_factor,
)
from geomst.oracle import _finite_forest


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
    assert [b.size for b in part.blocks] == [8, 7, 7, 7, 7, 7, 7]


@pytest.mark.parametrize(
    "n, k, match",
    [
        (10, 2.5, "block count must be an integer in 1..10, got 2.5"),
        (10, True, "block count must be an integer in 1..10, got True"),
        (10.0, 2, "point count must be a positive integer, got 10.0"),
        (np.float64(10.0), 2, "point count must be a positive integer"),
        (10, "2", "block count must be an integer in 1..10, got '2'"),
        (0, 1, "point count must be a positive integer, got 0"),
    ],
)
def test_partition_counts_must_be_integers(n, k, match):
    with pytest.raises(UsageError, match=re.escape(match)):
        make_partition(n, k)


def test_partition_takes_numpy_integer_counts():
    assert make_partition(np.int64(10), np.uint8(3)) == make_partition(10, 3)


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


def test_partitions_compare_by_value_and_are_unhashable():
    a = make_partition(12, 3, "shuffled", seed=5)
    assert a == make_partition(12, 3, "shuffled", seed=5)
    assert a != make_partition(12, 4, "shuffled", seed=5)
    assert a != make_partition(12, 3, "shuffled", seed=6)
    assert a != make_partition(12, 3)
    assert Partition(([0], [1])) != Partition(([0], [1], [2]))
    assert a != a.blocks
    with pytest.raises(TypeError):
        hash(a)


def test_partition_rejects_non_integer_blocks():
    with pytest.raises(UsageError, match="block indices must be integers"):
        Partition(([0.5, 1.9], [2.2]))


def test_partition_refuses_indices_beyond_int64():
    with pytest.raises(UsageError, match=r"block indices must be at most 2\*\*63 - 1, got 9223372036854775808"):
        Partition(([0], np.array([2**63], dtype=np.uint64)))
    # 2**63 - 1 converts, and is then refused as not covering 0..n-1
    with pytest.raises(UsageError, match="blocks must disjointly cover"):
        Partition(([0], np.array([2**63 - 1], dtype=np.uint64)))


_MARK = 0.1234567  # its eight bytes occur once in each pickle below


def _arrays(x) -> list:
    """Every array x holds."""
    if isinstance(x, PointSet):
        return [x.coords, x.ids]
    if isinstance(x, Partition):
        return list(x.blocks)
    if isinstance(x, EdgeList):
        return [x.u, x.v, x.w]
    return [x.a, x.b, x.height, x.size]


@pytest.mark.parametrize(
    "make, old, new, error",
    [
        (lambda: PointSet([[_MARK, 2.0], [3.0, 4.0]]), np.float64(_MARK), np.float64(np.inf), DataError),
        (lambda: EdgeList([0, 1], [1, 2], [_MARK, 5.0]), np.float64(_MARK), np.float64(np.nan), UsageError),
        (lambda: make_partition(1000, 2), np.int64(777), np.int64(778), UsageError),
        (
            lambda: mst_to_dendrogram(EdgeList([0, 1], [1, 2], [_MARK, 5.0]), 3),
            np.float64(_MARK),
            np.float64(9.0),
            UsageError,
        ),
    ],
    ids=["PointSet", "EdgeList", "Partition", "Dendrogram"],
)
def test_unpickling_runs_the_constructor(make, old, new, error):
    # Worker processes send their task trees as pickles: a copy must be
    # equal, read-only, and checked like a constructed one.
    x = make()
    payload = pickle.dumps(x)
    y = pickle.loads(payload)
    assert type(y) is type(x)
    assert all(map(np.array_equal, _arrays(y), _arrays(x)))
    if isinstance(x, Partition):
        assert y == x
    assert not any(arr.flags.writeable for arr in _arrays(y))
    assert payload.count(old.tobytes()) == 1
    with pytest.raises(error):
        pickle.loads(payload.replace(old.tobytes(), new.tobytes()))


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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "name, d",
    [
        ("manhattan", 4),  # tasks of 10 and 9 points run in lockstep batches
        ("euclidean", 64),  # bounded tasks are solved alone
    ],
)
def test_work_counter_general_form_for_uneven_partitions(name, d, workers):
    # The runner's count is the sum of the kernel's own counter over the tasks.
    pts = generate_instance(55, 23, d, "gaussian")
    part = make_partition(23, 5)
    sizes = [b.size for b in part.blocks]
    _, stats = decomposed_mst(pts, Metric(name), part, "gather", workers)
    expected = 0
    kernel = RunStats()
    for i in range(5):
        for j in range(i + 1, 5):
            mij = sizes[i] + sizes[j]
            expected += mij * (mij - 1) // 2
            dense_mst(pts, Metric(name), kernel, subset=np.concatenate((part.blocks[i], part.blocks[j])))
    assert stats.distance_evals == expected == kernel.distance_evals


def test_gather_count_is_sum_of_task_tree_sizes():
    n, k = 60, 5
    pts = generate_instance(3, n, 8, "uniform_cube")
    part = make_partition(n, k)
    sizes = [b.size for b in part.blocks]
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


def test_workers_do_not_change_the_answer(forking):
    # 66 points in 6 blocks give tasks of one size; 70 give sizes 22, 23 and
    # 24, which each worker count batches differently.
    for n in (66, 70):
        pts = generate_instance(14, n, 4, "gaussian")
        m = Metric("euclidean")
        part = make_partition(n, 6)
        outputs = set()
        for workers in (1, 2, 3, 5):
            tree, stats = decomposed_mst(pts, m, part, "gather", workers)
            outputs.add((format_edges(tree), stats.distance_evals, stats.edges_gathered))
        assert len(outputs) == 1, n


@pytest.mark.parametrize(
    "name, d, cap, lockstep",
    [
        ("manhattan", 3, None, True),
        # 4 tasks of 23 or 24 points in 3 + 3 floats each fit 4608 bytes, so
        # each size runs in chunks of 4
        ("manhattan", 3, 4608, True),
        # tasks whose steps are bounded are solved one by one
        ("euclidean", 32, None, False),
    ],
)
def test_a_share_batches_its_tasks_by_size_and_each_gets_its_own_tree(name, d, cap, lockstep, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(dense_module, "_LOCKSTEP_MAX_BYTES", cap)
    pts = generate_instance(21, 70, d, "gaussian")
    m = Metric(name)
    assert dense_module.has_step_bound(m, d) != lockstep
    blocks = make_partition(70, 6).blocks  # four blocks of 12 points, two of 11
    tasks = [np.concatenate((a, b)) for a, b in combinations(blocks, 2)]
    runs, lone = [], []
    run, dense = dense_module._lockstep_run, dense_module.dense_mst

    def recording_run(points, metric, rows):
        runs.append([len(r) for r in rows])
        return run(points, metric, rows)

    def recording_dense(points, metric, subset):
        lone.append(subset)
        return dense(points, metric, subset=subset)

    monkeypatch.setattr(dense_module, "_lockstep_run", recording_run)
    monkeypatch.setattr(dense_module, "dense_mst", recording_dense)
    done = dense_module.lockstep_mst(pts, m, tasks)  # the share of one worker
    if not lockstep:
        assert runs == []
    elif cap is None:
        assert runs == [[24] * 6, [23] * 8]
    else:
        assert runs == [[24] * 4, [24] * 2, [23] * 4, [23] * 4]
    # the one task of 22 points runs alone; bounded tasks go one per call, in task order
    expected = tasks[-1:] if lockstep else tasks
    assert len(lone) == len(expected) and all(map(np.array_equal, lone, expected))
    for task, tree in zip(tasks, done, strict=True):
        assert format_edges(tree) == format_edges(dense_mst(pts, m, subset=task))


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_stats_count_the_processes_that_solved_tasks(workers, forking):
    pts, m, part = _three_tasks()
    _, stats = decomposed_mst(pts, m, part, "gather", workers)
    assert stats.workers == min(workers, stats.tasks_executed) == min(workers, 3)
    _, stats = decomposed_mst(pts, m, make_partition(30, 1), "gather", workers)
    assert stats.workers == 1
    assert no_child_processes()


@pytest.mark.parametrize("workers", [2.0, np.float64(2.0), True, np.bool_(True), False, "2", 0, -1])
def test_workers_must_be_a_positive_integer(workers):
    pts, m, part = _three_tasks()
    with pytest.raises(UsageError, match="workers must be a positive integer"):
        decomposed_mst(pts, m, part, "gather", workers)


@pytest.mark.parametrize("workers", [np.int64(2), np.uint8(3), np.int32(1)])
def test_numpy_integer_workers_are_stored_as_an_int(workers, forking):
    pts, m, part = _three_tasks()
    _, stats = decomposed_mst(pts, m, part, "gather", workers)
    assert type(stats.workers) is int and stats.workers == int(workers)
    assert no_child_processes()


def test_the_cosine_unit_rows_are_computed_once_per_run(monkeypatch):
    calls = []
    unit_rows = geometry._unit_rows
    monkeypatch.setattr(geometry, "_unit_rows", lambda coords: calls.append(len(coords)) or unit_rows(coords))
    pts = PointSet(generate_instance(6, 30, 4, "gaussian").coords)
    tree, _ = decomposed_mst(pts, Metric("cosine_distance"), make_partition(30, 3), "gather", 1)
    assert calls == [30]
    assert tree == oracle_mst(pts, Metric("cosine_distance"))


def test_worker_errors_come_through_unchanged(forking):
    coords = generate_instance(15, 30, 3, "gaussian").coords.copy()
    coords[17] = 0.0  # in the middle block, so two of the three tasks meet it
    pts = PointSet(coords)
    with pytest.raises(MetricDomainError, match=r"point id 17\)") as caught:
        decomposed_mst(pts, Metric("cosine_distance"), make_partition(30, 3), "gather", 2)
    assert type(caught.value) is MetricDomainError
    assert no_child_processes()


def _failing_tasks(monkeypatch, parent_fails=(), child_fails=(), child_sleeps=0.0, exc=ValueError):
    """Patch the lockstep solver: the named block pairs' tasks raise exc, here or in a child."""
    parent = os.getpid()
    solve = decompose.lockstep_mst
    blocks = _three_tasks()[2].blocks

    def patched(points, metric, subsets):
        fails = parent_fails
        if os.getpid() != parent:
            time.sleep(child_sleeps)
            fails = child_fails
        for subset in subsets:
            pair = tuple(i for i, b in enumerate(blocks) if np.isin(b, subset).all())
            if pair in fails:
                raise exc(f"task {pair}")
        return solve(points, metric, subsets)

    monkeypatch.setattr(decompose, "lockstep_mst", patched)


def _three_tasks():
    return generate_instance(4, 30, 3, "gaussian"), Metric("euclidean"), make_partition(30, 3)


def test_an_error_in_the_parents_own_share_still_reaps_every_child(monkeypatch, forking):
    # Task 0 is the parent's own; the children would sleep for a minute.
    _failing_tasks(monkeypatch, parent_fails=[(0, 1)], child_sleeps=60.0)
    pts, m, part = _three_tasks()
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"task \(0, 1\)"):
        decomposed_mst(pts, m, part, "gather", 3)
    assert time.perf_counter() - started < 30.0
    assert no_child_processes()


def test_an_interrupt_in_the_parents_own_share_still_reaps_every_child(monkeypatch, forking):
    _failing_tasks(monkeypatch, parent_fails=[(0, 1)], child_sleeps=60.0, exc=KeyboardInterrupt)
    pts, m, part = _three_tasks()
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        decomposed_mst(pts, m, part, "gather", 3)
    assert time.perf_counter() - started < 30.0
    assert no_child_processes()


def test_an_exception_in_a_childs_share_is_raised_with_its_type_and_message(monkeypatch, forking):
    # Two workers: the child solves task 1, whose batch raises; the parent's
    # own share finishes, then raises what the child pickled.
    _failing_tasks(monkeypatch, child_fails=[(0, 2)])
    pts, m, part = _three_tasks()
    with pytest.raises(ValueError) as caught:
        decomposed_mst(pts, m, part, "gather", 2)
    assert type(caught.value) is ValueError and str(caught.value) == "task (0, 2)"
    # The child's frames, down to the patched lockstep solver that raised, are
    # in the chained cause.
    text = "".join(traceback.format_exception(caught.value))
    assert "in _fork" in text and "in patched" in text
    assert "in patched" in str(caught.value.__cause__)
    assert no_child_processes()


def _outcome(fn, *args):
    """format_edges of what fn returns, or the type and text of the DataError it raises."""
    try:
        result = fn(*args)
    except DataError as exc:
        return type(exc), str(exc)
    return format_edges(result[0] if isinstance(result, tuple) else result)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_overflows_inside_a_lockstep_batch_give_the_oracles_outcome(workers, forking):
    # Manhattan distances between 1-D points of opposite sign at least
    # 0.9e308 from 0 overflow. Blocks 2 to 4 hold such points, so the trees
    # of tasks (2, 3), (2, 4) and (3, 4) would need an overflowing edge: at
    # steps 6, 4 and 2, the reverse of task order. Every task has 8 points,
    # so each share solves its tasks in one batch. The points near 0 join
    # both signs by finite edges, so the oracle has a tree, and so must the
    # merged task forests.
    big = 1e308 * np.array([1.0, 0.98, 0.96, 0.94, 0.92, 0.9, -0.92, -0.9])
    neg = -1e308 * np.array([1.0, 0.98, 0.96, 0.94])
    coords = np.concatenate((np.arange(4.0), np.arange(10.0, 14.0), big[:4], big[4:], neg))
    pts = PointSet(coords[:, None])
    m = Metric("manhattan")
    part = make_partition(20, 5)
    expected = _outcome(oracle_mst, pts, m)
    assert expected.count("\n") == 19
    assert _outcome(decomposed_mst, pts, m, part, "gather", workers) == expected
    assert no_child_processes()


@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_a_zero_vector_is_reported_as_the_oracle_reports_it(workers, strategy, forking):
    # Zero rows 25 and 33 sit in different blocks. Every partition names the
    # first zero row in index order, as the oracle does; the shuffled one
    # meets row 33 first in task order.
    coords = generate_instance(16, 40, 3, "gaussian").coords.copy()
    coords[[25, 33]] = 0.0
    pts = PointSet(coords)
    cosine = Metric("cosine_distance")
    part = make_partition(40, 4, strategy, 3)
    with pytest.raises(MetricDomainError) as expected:
        oracle_mst(pts, cosine)
    with pytest.raises(MetricDomainError) as caught:
        decomposed_mst(pts, cosine, part, "gather", workers)
    assert str(caught.value) == str(expected.value)
    assert "point id 25)" in str(caught.value)
    assert no_child_processes()


def _dying_children(monkeypatch, die):
    """Patch the lockstep solver: a child's share calls die() instead of reporting."""
    parent = os.getpid()
    solve = decompose.lockstep_mst

    def patched(*args):
        if os.getpid() != parent:
            die()
        return solve(*args)

    monkeypatch.setattr(decompose, "lockstep_mst", patched)


def _ended_without_reporting(ending):
    pts, m, part = _three_tasks()
    with pytest.raises(ChildProcessError) as caught:
        decomposed_mst(pts, m, part, "gather", 2)
    assert re.fullmatch(rf"worker process \d+ ended without reporting: {re.escape(ending)}", str(caught.value))
    assert no_child_processes()


def test_a_worker_that_dies_without_reporting_is_an_error(monkeypatch, forking):
    _dying_children(monkeypatch, lambda: os._exit(3))
    _ended_without_reporting("exited with status 3")


def test_a_worker_killed_by_a_signal_is_an_error_that_names_it(monkeypatch, forking):
    _dying_children(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    _ended_without_reporting(f"killed by signal {int(signal.SIGKILL)} (Killed)")


def test_a_worker_reaped_by_the_system_is_still_an_error(monkeypatch, forking):
    # With SIGCHLD ignored the kernel reaps every child itself, so its status is gone.
    _dying_children(monkeypatch, lambda: os._exit(3))
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        _ended_without_reporting("its exit status was not kept")
    finally:
        signal.signal(signal.SIGCHLD, previous)


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("merge", MERGE_STRATEGIES)
@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
def test_one_block_is_the_whole_set_task_in_this_process(monkeypatch, strategy, merge):
    _forbid_fork(monkeypatch)
    m = Metric("euclidean")
    part = make_partition(25, 1, strategy, 5)
    # d = 64 bounds each step with a gemv and d = 256 with the task's Gram; a
    # shuffled block starts Prim from a permuted row order with the bound on.
    for d in (3, 64, 256):
        pts = generate_instance(12, 25, d, "gaussian")
        tree, stats = decomposed_mst(pts, m, part, merge, 4)
        whole = RunStats()
        assert format_edges(tree) == format_edges(dense_mst(pts, m, whole))
        assert (stats.tasks_executed, stats.distance_evals) == (1, whole.distance_evals)
        assert (stats.edges_gathered, stats.combine_input_sizes) == (0, [])

        coords = pts.coords.copy()
        coords[[7, 19]] = 0.0  # the shuffled block lists 19 first; the whole set names 7
        zero = PointSet(coords)
        cosine = Metric("cosine_distance")
        with pytest.raises(MetricDomainError) as expected:
            dense_mst(zero, cosine)
        with pytest.raises(MetricDomainError) as caught:
            decomposed_mst(zero, cosine, part, merge, 4)
        assert str(caught.value) == str(expected.value)


def test_one_worker_forks_nothing(monkeypatch):
    pts, m, part = _three_tasks()
    expected = format_edges(oracle_mst(pts, m))
    _forbid_fork(monkeypatch)
    tree, stats = decomposed_mst(pts, m, part, "gather", 1)
    assert format_edges(tree) == expected
    assert stats.tasks_executed == 3


def test_without_fork_the_tasks_run_in_this_process(monkeypatch, forking):
    pts, m, part = _three_tasks()
    forked, forked_stats = decomposed_mst(pts, m, part, "reduce", 3)
    monkeypatch.delattr(os, "fork")
    tree, stats = decomposed_mst(pts, m, part, "reduce", 3)
    assert format_edges(tree) == format_edges(forked)
    assert stats.distance_evals == forked_stats.distance_evals
    assert stats.combine_input_sizes == forked_stats.combine_input_sizes


def _counters(stats):
    return stats.distance_evals, stats.edges_gathered, stats.tasks_executed, stats.combine_input_sizes


@pytest.mark.parametrize("merge", MERGE_STRATEGIES)
def test_a_run_below_the_fork_threshold_forks_nothing(monkeypatch, merge):
    # verify_oracle's input: six tasks of 200 points, about 11 ms of estimated work
    pts = generate_instance(9, 400, 16, "clustered(5)")
    m = Metric("manhattan")
    part = make_partition(400, 4)
    tree, one = decomposed_mst(pts, m, part, merge, 1)
    _forbid_fork(monkeypatch)
    for workers in (2, 3):
        got, stats = decomposed_mst(pts, m, part, merge, workers)
        assert format_edges(got) == format_edges(tree)
        assert _counters(stats) == _counters(one)
        assert stats.workers == 1


def test_a_run_above_the_fork_threshold_still_forks(monkeypatch):
    # lowd_mst's input: 28 tasks of 750 points, about 115 ms of estimated work
    pts = generate_instance(9, 3000, 2, "uniform_cube")
    m = Metric("euclidean")
    part = make_partition(3000, 8)
    tree, one = decomposed_mst(pts, m, part, "gather", 1)
    fork = os.fork
    forked = []

    def counted():
        pid = fork()
        forked.append(pid)  # only this process returns here: the child ends in os._exit
        return pid

    monkeypatch.setattr(os, "fork", counted)
    got, stats = decomposed_mst(pts, m, part, "gather", 2)
    assert len(forked) == 1 and stats.workers == 2
    assert format_edges(got) == format_edges(tree)
    assert _counters(stats) == _counters(one)
    assert no_child_processes()


@pytest.mark.parametrize(
    "n, d, name, k, processes",
    [
        (128, 16, "manhattan", 4, 1),
        (400, 16, "manhattan", 4, 1),  # verify_oracle
        (1000, 2, "euclidean", 4, 1),
        (400, 768, "euclidean", 4, 1),
        (3000, 2, "euclidean", 8, 2),  # lowd_mst
        (1500, 256, "euclidean", 4, 2),  # highd_dendrogram
        (10000, 64, "euclidean", 4, 2),  # acceptance criterion 8
    ],
)
def test_two_workers_fork_only_where_the_estimated_work_repays_it(n, d, name, k, processes):
    # The runs kept in one process measured slower with two; the forked
    # ones measured faster with two while both vCPUs ran (2-vCPU x86_64).
    sizes = [a.size + b.size for a, b in combinations(make_partition(n, k).blocks, 2)]
    seconds = dense_module.estimated_seconds(Metric(name), d, sizes)
    assert decompose._repaid(seconds, 2) == processes
    assert decompose._repaid(seconds, 1) == 1


def test_two_workers_leave_multiprocessing_unimported():
    script = (
        "import sys\n"
        "import geomst.decompose\n"
        "from geomst import Metric, decomposed_mst, generate_instance, make_partition\n"
        "geomst.decompose._FORK_MIN_S = 0.0  # fork however small the tasks\n"
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


# Prints OpenBLAS's thread count and OPENBLAS_NUM_THREADS after the given
# imports, or exits 3 where numpy does not bundle scipy-openblas.
_BLAS_PROBE = """
import ctypes, json, os, sys
{imports}
try:
    import numpy._core._multiarray_umath as umath
    count = ctypes.CDLL(umath.__file__).scipy_openblas_get_num_threads64_
except (ImportError, AttributeError):
    sys.exit(3)
count.restype = ctypes.c_int
print(json.dumps([count(), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def _blas_threads(imports, exported=None):
    src = os.path.dirname(os.path.dirname(os.path.abspath(geomst.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if exported is not None:
        env["OPENBLAS_NUM_THREADS"] = exported
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE.format(imports=imports)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if done.returncode == 3:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout)


def test_importing_geomst_first_gives_blas_one_thread():
    assert _blas_threads("import geomst") == [1, "1"]


def test_an_exported_blas_thread_count_is_kept():
    # OpenBLAS caps the count at the usable cores, so numpy alone is the reference
    exported = _blas_threads("import numpy", exported="2")
    assert exported[1] == "2"
    assert _blas_threads("import geomst", exported="2") == exported


def test_importing_numpy_first_leaves_blas_alone():
    untouched = _blas_threads("import numpy")
    assert untouched[1] is None
    assert _blas_threads("import numpy\nimport geomst") == untouched


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


# Coordinates are these multiples of the metric's scale. In 1-D a pair up to
# 1 apart is finite under (squared) euclidean and up to 2.5 apart under
# manhattan and chebyshev; pairs further apart overflow.
OVERFLOW_SCALE = {
    "euclidean": 1e154,
    "squared_euclidean": 1e154,
    "manhattan": 0.6e308,
    "chebyshev": 0.6e308,
}
MULTIPLES = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]


@st.composite
def overflow_instances(draw):
    name = draw(st.sampled_from(sorted(OVERFLOW_SCALE)))
    n, d = draw(st.integers(min_value=2, max_value=6)), draw(st.integers(min_value=1, max_value=2))
    row = st.lists(st.sampled_from(MULTIPLES), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    return name, rows, ids


# Two ways the task trees once failed: k = 3 raised where the oracle has a
# tree, and the whole-set task named the pair as "22 and 16".
@example(case=("euclidean", [[0.0], [1.0], [2.0]], [0, 1, 2]))
@example(case=("euclidean", [[0.0], [2.0]], [22, 16]))
@settings(max_examples=25)
@given(case=overflow_instances())
def test_overflowing_pairs_give_the_oracles_bytes_or_its_error(case):
    name, rows, ids = case
    m = Metric(name)
    pts = PointSet(np.array(rows) * OVERFLOW_SCALE[name], ids=ids)
    expected = _outcome(oracle_mst, pts, m)
    n = len(rows)
    for k in range(1, n + 1):
        for strategy in PARTITION_STRATEGIES:
            part = make_partition(n, k, strategy, k)
            tasks = [np.concatenate(p) for p in combinations(part.blocks, 2)] if k > 1 else [None]
            for task in tasks:
                assert dense_mst(pts, m, subset=task) == _finite_forest(pts, m, task, n)[0]
            for merge in MERGE_STRATEGIES:
                for workers in (1, 2):
                    got = _outcome(decomposed_mst, pts, m, part, merge, workers)
                    assert got == expected, (k, strategy, merge, workers)


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
