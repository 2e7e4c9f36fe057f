"""Pairwise-partition decomposition of the dense MST with counted communication.

The vertex set is split into blocks; every unordered block pair becomes an
independent dense-MST task over the union of the two blocks, and a single
block is itself the one task, so every task is an index array. Each task
returns the forest of its finite-distance pairs, and by the cycle property
their union contains the whole set's, so one sparse MST over it (gather),
or a balanced binary reduction whose combine is kruskal over two edge lists
(reduce), recovers it. A merged forest that does not span is the oracle's
DataError, decided once, after the merge. Tasks carry global vertex ids end
to end, so no reindexing pass exists anywhere.

Communication is counted, not transported: edges_gathered measures what a
distributed deployment would move. With more than one worker the tasks run
in forked processes, so the Python bookkeeping of each Prim step runs in
parallel too, not only the numpy arithmetic that releases the GIL. The
calling process solves one share of the tasks itself and forks one child
per other share. A share solves tasks whose steps dense_mst bounds one by
one, and the others in one dense.lockstep_mst call per task size, one step
for many of them. The children inherit the points and the task list, and
each returns its task forests as pickled EdgeLists, or the exception its
share raised with the child's traceback, over a pipe; an EdgeList
unpickles through its constructor. The forests are merged in task order
whatever order the shares finish in. With one worker, as with
one block or where os.fork does not exist, the same runner forks nothing
and solves the single share in this process. It needs neither
multiprocessing nor a `__main__` guard.

A fork costs CPU time of its own, so a run forks only as many processes
as its tasks' work repays (_processes); the measurements behind the rule
are beside its constants.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import signal
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dense import dense_mst, has_step_bound, lockstep_mst
from .errors import DataError, UsageError
from .geometry import Metric, PointSet, _int64_array, _integer
from .graph import EdgeList, kruskal, merges
from .rng import SplitMix64
from .stats import RunStats

MERGE_STRATEGIES = ("gather", "reduce")
PARTITION_STRATEGIES = ("contiguous", "shuffled")

# Estimated one-process CPU seconds of task work. The costs were fitted by
# least squares on relative error to the one-process CPU time of 60 task
# lists (tasks of 64 to 1500 points, d = 2 to 768, euclidean and manhattan,
# one BLAS thread, 2-vCPU x86_64); every estimate fell within 0.49 to 1.63
# of its measurement, the small tasks, whose fixed costs the terms leave
# out, lowest.
_STEP_S = 10.2e-6  # per Prim step; a lockstep group steps once for all its tasks
_BOUNDED_STEP_S = 18.9e-6  # per step of a task whose steps are bounded
_COORD_S = 4.56e-9  # per coordinate of an evaluated pair, and one more for its update
_GRAM_S = 5.23e-11  # per multiply-add of a bounded task's m * m * d dot products
# Each process of a run must get this much of the estimate, or it forks
# fewer. A fork costs about 10 ms of CPU (n = 128, d = 16 manhattan, k = 4:
# 4.4 ms with one worker, 14.4 ms with two, same host). With both vCPUs
# running, two processes beat one from an estimate of 24-41 ms (n = 600, k = 4 at
# d = 16 manhattan, 64 and 256); at d = 2, where a split lockstep group
# pays its per-step cost twice, they lost up to 94 ms (n = 2500, k = 8),
# and when the second vCPU gave no throughput they lost everywhere. 30 ms
# keeps n = 400, d = 768, k = 4 (32 ms estimated; 30.0 ms with one worker,
# 44.6 ms with two) in this process and forks n = 3000, d = 2, k = 8
# (115 ms estimated).
_FORK_MIN_S = 0.030


@dataclass(frozen=True, eq=False)
class Partition:
    """Non-empty, pairwise-disjoint index blocks covering {0..n-1}; equal when their blocks are."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(_int64_array(b, "block indices") for b in self.blocks)
        if not blocks:
            raise UsageError("a partition needs at least one block")
        for b in blocks:
            if b.ndim != 1 or b.size == 0:
                raise UsageError("every block must be a non-empty flat index array")
        merged = np.concatenate(blocks)
        if not np.array_equal(np.sort(merged), np.arange(merged.size)):
            raise UsageError("blocks must disjointly cover 0..n-1")
        for b in blocks:
            b.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    def __reduce__(self):
        # Unpickling runs the constructor, so a copy is checked and read-only.
        return Partition, (self.blocks,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return len(self.blocks) == len(other.blocks) and all(map(np.array_equal, self.blocks, other.blocks))

    @property
    def count(self) -> int:
        return sum(b.size for b in self.blocks)


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform has one.

    os.cpu_count() also counts cores that taskset or a cpuset keeps the
    process off, so workers counted by it would oversubscribe the cores it has.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def make_partition(n: int, k: int, strategy: str = "contiguous", seed: int = 0) -> Partition:
    """Split 0..n-1 into k blocks whose sizes differ by at most one.

    contiguous keeps index order (remainder goes to the earliest blocks);
    shuffled runs a seeded Fisher-Yates over the indices first and then
    splits the permuted order contiguously. Deterministic for fixed inputs.
    """
    n = _integer(n, "point count", 1)
    k = _integer(k, "block count", 1, n)
    if strategy not in PARTITION_STRATEGIES:
        raise UsageError(f"unknown partition strategy {strategy!r}")
    order = list(range(n))
    if strategy == "shuffled":
        SplitMix64(seed).shuffle(order)
    # array_split gives the first n % k blocks one extra index.
    return Partition(tuple(np.array_split(np.array(order, dtype=np.int64), k)))


def decomposed_mst(
    points: PointSet,
    metric: Metric,
    part: Partition,
    merge: str = "gather",
    workers: int | None = None,
) -> tuple[EdgeList, RunStats]:
    """MST of the complete graph on points, computed block-pair by block-pair.

    Returns the edge set oracle_mst returns, or raises the DataError it
    raises, for every valid partition, merge strategy and worker count; the
    RunStats tell the merge strategies apart. There is one task per block
    pair, or a single block as the one task. workers, a positive int or
    numpy integer, defaults to usable_cores() and is an upper bound: it is
    capped at the task count, at the processes the tasks' estimated work
    repays (_processes), and at 1 where os.fork does not exist. This process
    solves every w-th task and w - 1 forked children the rest, all reaped
    before return; with w = 1 nothing is forked. stats.workers is w, an int.
    """
    if merge not in MERGE_STRATEGIES:
        raise UsageError(f"unknown merge strategy {merge!r}")
    if part.count != points.count:
        raise UsageError(
            f"partition covers {part.count} indices but the point set has {points.count}"
        )
    workers = usable_cores() if workers is None else _integer(workers, "workers", 1)

    stats = RunStats(merge_strategy=merge)
    started = time.perf_counter()

    blocks = part.blocks
    tasks = [np.concatenate(pair) for pair in itertools.combinations(blocks, 2)] or [blocks[0]]
    workers = _processes(tasks, metric, points.dim, workers) if hasattr(os, "fork") else 1
    if points.count > 1:
        # As the oracle checks it, so no task fails on data; caches cosine's unit rows.
        metric.check_domain(points)
    task_trees = _solve_forked(points, metric, tasks, workers)

    stats.tasks_executed = len(tasks)
    stats.workers = workers
    stats.distance_evals = sum(t.size * (t.size - 1) // 2 for t in tasks)

    if len(blocks) == 1:
        tree = task_trees[0]  # nothing to merge, so nothing is communicated
    elif merge == "gather":
        stats.edges_gathered = sum(map(len, task_trees))
        tree = kruskal(task_trees)
    else:
        level = task_trees
        while len(level) > 1:
            combined = []
            for pair in zip(level[::2], level[1::2]):
                size = len(pair[0]) + len(pair[1])
                stats.edges_gathered += size
                stats.combine_input_sizes.append(size)
                combined.append(kruskal(pair))
            if len(level) % 2:
                combined.append(level[-1])
            level = combined
        tree = level[0]
    _check_spans(points, metric, tree)

    stats.wall_time = time.perf_counter() - started
    return tree, stats


def _processes(tasks, metric: Metric, dim: int, workers: int) -> int:
    """The processes, at most workers and one per task, that each get _FORK_MIN_S of estimated work.

    The estimate is the tasks' CPU time in one process: a group of tasks of
    one size steps once if unbounded (dense_mst alone or lockstep) and
    evaluates every pair; a bounded task steps alone and its bound costs about
    a Gram's multiply-adds.
    """
    bounded = has_step_bound(metric, dim)
    seconds = 0.0
    for m, count in Counter(t.size for t in tasks).items():
        if bounded:
            seconds += count * ((m - 1) * _BOUNDED_STEP_S + m * m * dim * _GRAM_S)
        else:
            seconds += (m - 1) * _STEP_S + count * m * (m - 1) // 2 * (dim + 1) * _COORD_S
    w = min(workers, len(tasks))
    while w > 1 and seconds < w * _FORK_MIN_S:
        w -= 1
    return w


def _solve_forked(points, metric, tasks, workers) -> list[EdgeList]:
    """Every task's result, in task order, from this process and workers - 1 forked children.

    Share s is tasks s, s + workers, ...: this process solves share 0 and a
    forked child each other share, which it pickles over a pipe in one
    piece when done, so no child waits on the pipe while this process
    computes. A child whose share raises pickles the exception and its
    formatted traceback instead, and this process raises that exception
    from a RuntimeError that holds the child's traceback. Every child is
    reaped before return, also when this process fails or is interrupted.
    """
    results: list = [None] * len(tasks)
    children = []
    try:
        for s in range(1, workers):
            children.append(_fork_share(points, metric, tasks, s, workers, children))
        results[0::workers] = _solve_share(points, metric, tasks, 0, workers)
        for s, (pid, reader) in enumerate(children, start=1):
            try:
                done = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker process {pid} ended without reporting") from None
            if isinstance(done, tuple):  # the child's exception and its traceback
                raise done[0] from RuntimeError(f"in worker process {pid}:\n{done[1]}")
            results[s::workers] = done
    finally:
        for pid, reader in children:
            reader.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            # ChildProcessError: reaped already, as when SIGCHLD is ignored
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return results


def _solve_share(points, metric, tasks, s: int, workers: int) -> list[EdgeList]:
    """Results of tasks s, s + workers, ... in order.

    dense_mst solves tasks whose steps it bounds one by one. Otherwise the
    share makes one lockstep_mst call per task size, the sizes in the order
    of their first task; a size with one task reaches dense_mst from there.
    """
    mine = range(s, len(tasks), workers)
    if has_step_bound(metric, points.dim):
        return [dense_mst(points, metric, subset=tasks[i]) for i in mine]
    groups: dict = {}
    for i in mine:
        groups.setdefault(len(tasks[i]), []).append(i)
    results = {}
    for group in groups.values():
        results.update(zip(group, lockstep_mst(points, metric, [tasks[i] for i in group])))
    return [results[i] for i in mine]


def _fork_share(points, metric, tasks, s: int, workers: int, siblings):
    """Fork the child that solves share s; returns its pid and the pipe it writes to."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    # The child never returns into the caller: os._exit ends it whatever happens.
    try:
        os.close(r)
        for _, reader in siblings:
            reader.close()
        try:
            outcome = _solve_share(points, metric, tasks, s, workers)
        except Exception as exc:
            import traceback  # only a failing child pays for the import

            outcome = exc, traceback.format_exc()
        with os.fdopen(w, "wb") as out:
            pickle.dump(outcome, out)
    finally:
        os._exit(0)


@np.errstate(over="ignore", invalid="ignore")
def _check_spans(points: PointSet, metric: Metric, forest: EdgeList) -> None:
    """Raise oracle_mst's DataError unless the finite-distance forest spans the points.

    Every pair that joins two of its components overflows, and the first in
    (u, v) order joins the smallest id a to the smallest id outside a's
    component: the first merge of the star from a after the forest's own pairs.
    """
    if len(forest) >= points.count - 1:
        return
    ids = points.ids
    order = np.argsort(ids)
    a, rest = order[0], order[1:]
    star = np.full(rest.size, ids[a])
    first = merges(np.concatenate((forest.u, star)), np.concatenate((forest.v, ids[rest])))[len(forest)][0]
    b = rest[first - len(forest)]
    prepared = metric.prepared(points)
    w = float(metric.block(prepared[a], prepared[b : b + 1])[0])
    raise DataError(f"distance between points {ids[a]} and {ids[b]} is {w!r} (overflow)")


def redundancy_factor(stats: RunStats, n: int) -> float:
    """Measured kernel work relative to the undecomposed n(n-1)/2 evaluations."""
    if n < 2:
        raise UsageError("redundancy is defined for at least two points")
    return stats.distance_evals / (n * (n - 1) / 2)
