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
parallel too, not only the numpy arithmetic that releases the GIL. Share s
is tasks s, s + w, ..., solved by one dense.lockstep_mst call, which
chooses each task's kernel. The forest lists are merged in task order
whatever order the shares finish in.

_run_forked is the package's one process runner; io's csv reader uses it
too. It runs job 0 in the calling process and forks one child per other
job. The children inherit what their jobs read, and each returns its
job's result, or the exception the job raised with the child's traceback,
pickled over a pipe; an EdgeList unpickles through its constructor. With
one job, as with one worker, one block or where os.fork does not exist,
it forks nothing. It needs neither multiprocessing nor a `__main__` guard.

A fork costs CPU time of its own, so a run forks only as many processes
as its estimated work (dense.estimated_seconds) repays (_repaid); the
measurements behind the rule are beside _FORK_MIN_S.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import pickle
import signal
import time
from dataclasses import dataclass

import numpy as np

from .dense import estimated_seconds, lockstep_mst
from .dense import dense_mst  # noqa: F401  benchmark/layers.py wraps this name; nothing here calls it
from .errors import DataError, UsageError
from .geometry import Metric, PointSet, _int64_array, _integer
from .graph import EdgeList, kruskal, merges
from .rng import SplitMix64
from .stats import RunStats

MERGE_STRATEGIES = ("gather", "reduce")
PARTITION_STRATEGIES = ("contiguous", "shuffled")

# Each process of a run must get this much of its estimated CPU time, or it
# forks fewer. A fork costs about 10 ms of CPU (n = 128, d = 16 manhattan, k = 4:
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
    repays (_repaid), and at 1 where os.fork does not exist. This process
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
    workers = _repaid(estimated_seconds(metric, points.dim, [t.size for t in tasks]), min(workers, len(tasks)))
    if points.count > 1:
        # As the oracle checks it, so no task fails on data; caches cosine's unit rows.
        metric.check_domain(points)
    task_trees: list = [None] * len(tasks)
    shares = [functools.partial(lockstep_mst, points, metric, tasks[s::workers]) for s in range(workers)]
    for s, share in enumerate(_run_forked(shares)):
        task_trees[s::workers] = share

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


def _repaid(seconds: float, workers: int) -> int:
    """The processes, at most workers, that each get _FORK_MIN_S of seconds of estimated work; 1 without os.fork."""
    w = workers if hasattr(os, "fork") else 1
    while w > 1 and seconds < w * _FORK_MIN_S:
        w -= 1
    return w


def _run_forked(jobs) -> list:
    """The results of jobs, zero-argument callables, in order: job 0 from this process, each other from a forked child.

    Every child is forked before job 0 runs. A child pickles its job's
    result over a pipe once the job is done, and this process reads the
    pipes in job order after job 0. A child whose job raises pickles the
    exception and its formatted traceback instead, and this process raises
    that exception from a RuntimeError that holds the child's traceback. A
    child that ends without reporting is a ChildProcessError that says how
    it ended. Every child is reaped before return, also when this process
    fails or is interrupted.
    """
    results: list = [None] * len(jobs)
    children = []
    try:
        for job in jobs[1:]:
            children.append(_fork(job, children))
        results[0] = jobs[0]()
        for i, (pid, reader) in enumerate(children, start=1):
            try:
                ok, results[i] = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                ending = _ending(pid)
                children.remove((pid, reader))  # reaped, so the pid may be reused
                reader.close()
                raise ChildProcessError(f"worker process {pid} ended without reporting: {ending}") from None
            if not ok:
                exc, trace = results[i]
                raise exc from RuntimeError(f"in worker process {pid}:\n{trace}")
    finally:
        for pid, reader in children:
            reader.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            # ChildProcessError: reaped already, as when SIGCHLD is ignored
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return results


def _ending(pid: int) -> str:
    """How the child pid ended, once it has closed its pipe; reaps it."""
    try:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except ChildProcessError:  # reaped already, as when SIGCHLD is ignored
        return "its exit status was not kept"
    return f"killed by signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exited with status {code}"


def _fork(job, siblings):
    """Fork the child that runs job; returns its pid and the pipe of its (True, result) or (False, (exc, trace))."""
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
            outcome = True, job()
        except Exception as exc:
            import traceback  # only a failing child pays for the import

            outcome = False, (exc, traceback.format_exc())
        with os.fdopen(w, "wb") as out:
            pickle.dump(outcome, out, protocol=5)  # 5 writes an array's buffer without a bytes copy of it
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
