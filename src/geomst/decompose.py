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
per other share; the children inherit the points and the partition, and
each returns its task trees as pickled EdgeList arrays plus evaluation
counts over a pipe. The trees are merged in task order whatever order the
shares finish in. The runner needs neither multiprocessing nor a
`__main__` guard; where os.fork does not exist the tasks run in-process.
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

from .dense import dense_mst
from .errors import UsageError
from .geometry import Metric, PointSet
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
        blocks = tuple(np.asarray(b, dtype=np.int64) for b in self.blocks)
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
    strategies apart. workers defaults to usable_cores(). One worker solves
    the tasks in this process; with w > 1 (capped at the task count) this
    process solves every w-th task and w - 1 forked children the rest, all
    reaped before return.
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

    k = len(part.blocks)
    if k == 1:
        # The pairwise double loop is empty for a single block; the whole-set
        # kernel call preserves the "output is the MSF" contract, and nothing
        # is communicated.
        stats.tasks_executed = 1
        tree = dense_mst(points, metric, stats)
        stats.wall_time = time.perf_counter() - started
        return tree, stats

    metric.prepared(points)  # warm shared caches once, before workers inherit them
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    workers = min(workers, len(pairs))

    if workers == 1 or not hasattr(os, "fork"):
        results = [_solve_pair(points, metric, part, p) for p in pairs]
    else:
        results = _solve_forked(points, metric, part, pairs, workers)

    stats.tasks_executed = len(pairs)
    task_trees, evals = zip(*results)
    stats.distance_evals = sum(evals)

    if merge == "gather":
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


def _solve_pair(points: PointSet, metric: Metric, part: Partition, pair) -> tuple[EdgeList, int]:
    """One block-pair task: the dense MST of the two blocks' union and its evaluations."""
    i, j = pair
    local = RunStats()
    tree = dense_mst(
        points, metric, local, subset=np.concatenate((part.blocks[i], part.blocks[j]))
    )
    return tree, local.distance_evals


def _solve_forked(points, metric, part, pairs, workers) -> list[tuple[EdgeList, int]]:
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
    with mmap.mmap(-1, len(pairs)) as failed:  # shared: failed[i] is 1 once task i raised
        try:
            for s in range(1, workers):
                child = _fork_share(points, metric, part, pairs, s, workers, failed, children)
                children.append(child)
            outcomes[0] = _solve_share(points, metric, part, pairs, 0, workers, failed)
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
    results: list = [None] * len(pairs)
    for s, (done, _) in outcomes.items():
        results[s::workers] = done
    return results


def _solve_share(points, metric, part, pairs, s: int, workers: int, failed) -> tuple:
    """Results of tasks s, s + workers, ... in order, up to the first failure; and its error."""
    done = []
    for i in range(s, len(pairs), workers):
        if failed.find(b"\x01", 0, i) >= 0:
            break  # an earlier task failed, so this one's result is not needed
        try:
            done.append(_solve_pair(points, metric, part, pairs[i]))
        except Exception as exc:
            failed[i] = 1
            return done, exc
    return done, None


def _fork_share(points, metric, part, pairs, s: int, workers: int, failed, siblings):
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
        outcome = _solve_share(points, metric, part, pairs, s, workers, failed)
        with os.fdopen(w, "wb") as out:
            pickle.dump(outcome, out)
    finally:
        os._exit(0)


def redundancy_factor(stats: RunStats, n: int) -> float:
    """Measured kernel work relative to the undecomposed n(n-1)/2 evaluations."""
    if n < 2:
        raise UsageError("redundancy is defined for at least two points")
    return stats.distance_evals / (n * (n - 1) / 2)
