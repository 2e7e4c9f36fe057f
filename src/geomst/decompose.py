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
per other share. A share hands out its tasks in batches of one size: a
batch of two or more runs in lockstep (dense.lockstep_mst), one step for
all of them, and a single task, or one whose steps dense_mst bounds, runs
alone. The children inherit the points and the task list, and each
returns its task trees as pickled EdgeLists plus evaluation counts, or
the exception its share raised with the child's traceback, over a pipe;
an EdgeList unpickles through its constructor. The trees are merged in
task order whatever order the shares finish in. With one worker, as with
one block or where os.fork does not exist, the same runner forks nothing
and solves the single share in this process. It needs neither
multiprocessing nor a `__main__` guard.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import time
from dataclasses import dataclass

import numpy as np

from .dense import dense_mst, lockstep_mst, lockstep_width
from .errors import DataError, UsageError
from .geometry import Metric, PointSet, _int64_array
from .graph import EdgeList, kruskal, merges
from .rng import SplitMix64
from .stats import RunStats

MERGE_STRATEGIES = ("gather", "reduce")
PARTITION_STRATEGIES = ("contiguous", "shuffled")


@dataclass(frozen=True)
class Partition:
    """Non-empty, pairwise-disjoint index blocks covering {0..n-1}."""

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

    @property
    def count(self) -> int:
        return sum(b.size for b in self.blocks)

    def block_sizes(self) -> list[int]:
        return [int(b.size) for b in self.blocks]


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
    if n < 1:
        raise UsageError("cannot partition an empty index range")
    if k < 1 or k > n:
        raise UsageError(f"block count must be in 1..{n}, got {k}")
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
    pair, or a single block as the one task. workers defaults to
    usable_cores() and is capped at the task count, and at 1 where os.fork
    does not exist; this process solves every w-th task and w - 1 forked
    children the rest, all reaped before return.
    """
    if merge not in MERGE_STRATEGIES:
        raise UsageError(f"unknown merge strategy {merge!r}")
    if part.count != points.count:
        raise UsageError(
            f"partition covers {part.count} indices but the point set has {points.count}"
        )
    if workers is None:
        workers = usable_cores()
    if workers < 1:
        raise UsageError("workers must be at least 1")

    stats = RunStats(merge_strategy=merge)
    started = time.perf_counter()

    blocks = part.blocks
    k = len(blocks)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    tasks = [np.concatenate((blocks[i], blocks[j])) for i, j in pairs] or [blocks[0]]
    workers = min(workers, len(tasks)) if hasattr(os, "fork") else 1
    if points.count > 1:
        metric.check_domain(points)  # as the oracle checks it, so no task can fail on data
    metric.prepared(points)  # warm shared caches once, before workers inherit them
    results = _solve_forked(points, metric, tasks, workers)

    stats.tasks_executed = len(tasks)
    task_trees, evals = zip(*results)
    stats.distance_evals = sum(evals)

    if k == 1:
        tree = task_trees[0]  # nothing to merge, so nothing is communicated
    elif merge == "gather":
        candidates = EdgeList.concat(task_trees)
        stats.edges_gathered = len(candidates)
        tree = kruskal(candidates)
    else:
        level = task_trees
        while len(level) > 1:
            combined = []
            for pair in zip(level[::2], level[1::2]):
                candidates = EdgeList.concat(pair)
                stats.edges_gathered += len(candidates)
                stats.combine_input_sizes.append(len(candidates))
                combined.append(kruskal(candidates))
            if len(level) % 2:
                combined.append(level[-1])
            level = combined
        tree = level[0]
    _check_spans(points, metric, tree)

    stats.wall_time = time.perf_counter() - started
    return tree, stats


def _solve_batch(points: PointSet, metric: Metric, subsets) -> list[tuple[EdgeList, int]]:
    """(tree, evals) of each task in order.

    One task is solved alone by dense_mst; more run in lockstep, so they
    need one size and a lockstep_width of at least their number.
    """
    local = [RunStats() for _ in subsets]
    if len(subsets) == 1:
        trees = [dense_mst(points, metric, local[0], subset=subsets[0])]
    else:
        trees = lockstep_mst(points, metric, subsets, local)
    return [(tree, st.distance_evals) for tree, st in zip(trees, local)]


def _solve_forked(points, metric, tasks, workers) -> list[tuple[EdgeList, int]]:
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


def _solve_share(points, metric, tasks, s: int, workers: int) -> list[tuple[EdgeList, int]]:
    """Results of tasks s, s + workers, ... in order.

    The share hands out its tasks in batches of one size, up to
    lockstep_width tasks each, the sizes in the order of their first task.
    """
    mine = range(s, len(tasks), workers)
    groups: dict = {}
    for i in mine:
        groups.setdefault(len(tasks[i]), []).append(i)
    results = {}
    for size, group in groups.items():
        width = lockstep_width(metric, points.dim, size)
        for j in range(0, len(group), width):
            batch = group[j : j + width]
            results.update(zip(batch, _solve_batch(points, metric, [tasks[i] for i in batch])))
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
