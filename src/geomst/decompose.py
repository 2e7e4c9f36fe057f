"""Pairwise-partition decomposition of the dense MST with counted communication.

The vertex set is split into blocks; every unordered block pair becomes an
independent dense-MST task over the union of the two blocks. The union of
all task trees is a superset of the true MST, so one sparse MST over it
(gather), or a balanced binary reduction whose combine is kruskal over two
edge lists (reduce), finishes the job. Tasks carry global vertex ids end to
end, so no reindexing pass exists anywhere.

Communication is counted, not transported: edges_gathered measures what a
distributed deployment would move. With more than one worker the tasks run
in forked processes, so the Python bookkeeping of each Prim step runs in
parallel too, not only the numpy arithmetic that releases the GIL. The
calling process solves one share of the tasks itself and forks one child
per other share. A share hands out its tasks in batches of one size: a
batch of two or more runs in lockstep (dense.lockstep_mst), one step for
all of them, and a single task, or one whose steps dense_mst bounds, runs
alone. The children inherit the points and the task list, and
each returns its task trees as pickled EdgeList arrays plus evaluation
counts over a pipe. The trees are merged in task order whatever order the
shares finish in. With one worker, as with one block or where os.fork does
not exist, the same runner forks nothing and solves the single share in
this process. It needs neither multiprocessing nor a `__main__` guard.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import signal
import time
from dataclasses import dataclass

import numpy as np

from .dense import dense_mst, lockstep_mst, lockstep_width
from .errors import UsageError
from .geometry import Metric, PointSet, _int64_array
from .graph import EdgeList, kruskal
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
    """MSF of the complete graph on points, computed block-pair by block-pair.

    Returns the same edge set as the undecomposed computation for every valid
    partition, merge strategy and worker count; the RunStats tell the merge
    strategies apart. There is one task per block pair, or one whole-set task
    for a single block. workers defaults to usable_cores() and is capped at
    the task count, and at 1 where os.fork does not exist; this process
    solves every w-th task and w - 1 forked children the rest, all reaped
    before return.
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
    if k == 1:
        tasks = [None]  # the whole set, exactly as dense_mst is called without a subset
    else:
        tasks = [np.concatenate((blocks[i], blocks[j])) for i in range(k) for j in range(i + 1, k)]
    workers = min(workers, len(tasks)) if hasattr(os, "fork") else 1
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

    stats.wall_time = time.perf_counter() - started
    return tree, stats


def _solve_task(points: PointSet, metric: Metric, subset) -> tuple[EdgeList, int]:
    """One task: the dense MST of points[subset] and its evaluations."""
    local = RunStats()
    tree = dense_mst(points, metric, local, subset=subset)
    return tree, local.distance_evals


def _solve_batch(points: PointSet, metric: Metric, subsets) -> tuple[list, Exception | None]:
    """(tree, evals) of each task in order, up to the first that fails; and its error.

    One task is solved alone; more run in lockstep, so they need one size and
    a lockstep_width of at least their number.
    """
    if len(subsets) == 1:
        try:
            return [_solve_task(points, metric, subsets[0])], None
        except Exception as exc:
            return [], exc
    local = [RunStats() for _ in subsets]
    try:
        trees, exc = lockstep_mst(points, metric, subsets, local)
    except Exception as exc:  # not one task's own error, so it stops the batch at its first task
        return [], exc
    return [(tree, st.distance_evals) for tree, st in zip(trees, local)], exc


def _solve_forked(points, metric, tasks, workers) -> list[tuple[EdgeList, int]]:
    """Every task's result, in task order, from this process and workers - 1 forked children.

    Share s is tasks s, s + workers, ...: this process solves share 0 and a
    forked child each other share, which it pickles over a pipe in one
    piece when done, so no child waits on the pipe while this process
    computes. The first error in task order is raised: every task before it
    still runs, and a share stops at a task only once a task before it has
    failed. Children whose share starts after that failure are killed
    unread; every child is reaped before return, also when this process is
    interrupted.
    """
    outcomes = {}
    children = []
    with mmap.mmap(-1, len(tasks)) as failed:  # shared: failed[i] is 1 once task i raised
        try:
            for s in range(1, workers):
                child = _fork_share(points, metric, tasks, s, workers, failed, children)
                children.append(child)
            outcomes[0] = _solve_share(points, metric, tasks, 0, workers, failed)
            for s, (pid, reader) in enumerate(children, start=1):
                if 0 <= failed.find(b"\x01") < s:
                    continue  # every task of this share comes after a failed one
                try:
                    outcomes[s] = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(f"worker process {pid} ended without reporting") from None
        finally:
            for pid, reader in children:
                reader.close()
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                # ChildProcessError: reaped already, as when SIGCHLD is ignored
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
        first = failed.find(b"\x01")
    if first >= 0:
        raise outcomes[first % workers][1]
    results: list = [None] * len(tasks)
    for s, (done, _) in outcomes.items():
        results[s::workers] = done
    return results


def _solve_share(points, metric, tasks, s: int, workers: int, failed) -> tuple:
    """Results of tasks s, s + workers, ... in order, up to the first failure; and its error.

    The share hands out its tasks in batches of one size, up to
    lockstep_width tasks each, the sizes in the order of their first task.
    A task is skipped once a task before it has failed.
    """
    mine = range(s, len(tasks), workers)
    groups: dict = {}
    for i in mine:
        groups.setdefault(points.count if tasks[i] is None else len(tasks[i]), []).append(i)
    batches = []
    for size, group in groups.items():
        width = lockstep_width(metric, points.dim, size)
        batches += [group[j : j + width] for j in range(0, len(group), width)]
    results, errors = {}, {}
    for batch in batches:
        batch = [i for i in batch if failed.find(b"\x01", 0, i) < 0]
        done, exc = _solve_batch(points, metric, [tasks[i] for i in batch])
        results.update(zip(batch, done))
        if exc is not None:
            failed[batch[len(done)]] = 1
            errors[batch[len(done)]] = exc
    done = []
    for i in mine:
        if i not in results:
            return done, errors.get(i)
        done.append(results[i])
    return done, None


def _fork_share(points, metric, tasks, s: int, workers: int, failed, siblings):
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
        outcome = _solve_share(points, metric, tasks, s, workers, failed)
        with os.fdopen(w, "wb") as out:
            pickle.dump(outcome, out)
    finally:
        os._exit(0)


def redundancy_factor(stats: RunStats, n: int) -> float:
    """Measured kernel work relative to the undecomposed n(n-1)/2 evaluations."""
    if n < 2:
        raise UsageError("redundancy is defined for at least two points")
    return stats.distance_evals / (n * (n - 1) / 2)
