"""The traced run: a workload's command replayed in-process, one span per public call.

pipeline() makes the calls the CLI makes for the workload's command, through
the package's public functions, plus what the per-layer metrics need beyond
that: the same decomposition with one worker, a serial replay of every block
pair through dense_mst, and a replay of the merge through kruskal. Inside
decomposed_mst, oracle_mst and check_substructure, the calls the package
makes through its module globals (dense_mst, kruskal, oracle_mst) get spans
of their own, so the trace shows which thread ran each task and for how
long.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from tracing import Tracer, covered_share, layer_self_times

LAYERS = ("io", "decompose", "dense", "graph", "dendrogram", "oracle")


@dataclass
class Outputs:
    """What one pass produced, for the output checks."""

    edges: str
    edges_1w: str
    stats: object
    dendro: str | None = None
    oracle_agrees: bool | None = None
    subset_checks: tuple = ()


def speedup(wall_1w: float, wall: float) -> float:
    return wall_1w / wall


def cpu_util(process_cpu: float, wall: float, workers: int) -> float:
    """Busy share of the cores a call was given: 1/workers means one core did all the work."""
    return process_cpu / (wall * workers)


def overhead(decomposed: float, task_sum: float, workers: int, merge: float) -> float:
    """Wall time of decomposed_mst beyond perfectly shared task time plus the merge.

    It is time spent waiting, scheduling or contending for the GIL.
    """
    return decomposed - task_sum / workers - merge


def subset_trials(n: int, trials: int, seed: int = 0) -> list[list[int]]:
    """The random subsets `geomst verify --seed <seed>` checks, in order."""
    from geomst import SplitMix64

    rng = SplitMix64(seed)
    subsets = []
    for _ in range(trials if n >= 2 else 0):
        size = 2 + rng.below(n - 1)
        order = list(range(n))
        rng.shuffle(order)
        subsets.append(sorted(order[:size]))
    return subsets


def pipeline(wl, files, workers: int, t: Tracer) -> Outputs:
    """One pass of the workload's command, traced when t is enabled."""
    import geomst
    import geomst.decompose
    import geomst.oracle
    from geomst import RunStats

    inner = [
        (geomst.decompose, "dense_mst", "dense.dense_mst"),
        (geomst.decompose, "kruskal", "graph.kruskal"),
        (geomst.oracle, "kruskal", "graph.kruskal"),
        (geomst.oracle, "oracle_mst", "oracle.oracle_mst"),
    ]
    with t.patched(inner), t.span("bench.pipeline"):
        points = t.call("io.read_points", geomst.read_points, files.input)
        metric = geomst.Metric(wl.metric)
        part = t.call("decompose.make_partition", geomst.make_partition, points.count, wl.k)
        tree, stats = t.call(
            "decompose.decomposed_mst", geomst.decomposed_mst, points, metric, part, wl.merge, workers
        )
        tree_1w, _ = t.call(
            "decompose.decomposed_mst_1w", geomst.decomposed_mst, points, metric, part, wl.merge, 1
        )

        task_trees = []
        blocks = part.blocks
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                subset = np.concatenate((blocks[i], blocks[j]))
                local = RunStats()
                with t.span("dense.replay") as s:
                    task_trees.append(geomst.dense_mst(points, metric, local, subset=subset))
                s.args.update(m=int(subset.size), evals=local.distance_evals)
        _replay_merge(t, task_trees, wl.merge, points.count)

        out = Outputs(
            edges=t.call("io.format_edges", geomst.format_edges, tree),
            edges_1w=geomst.format_edges(tree_1w),
            stats=stats,
        )
        files.edges.write_text(out.edges, encoding="utf-8")
        if wl.command == "dendrogram":
            dendro = t.call(
                "dendrogram.mst_to_dendrogram", geomst.mst_to_dendrogram, tree, points.count
            )
            t.call("io.write_dendrogram", geomst.write_dendrogram, dendro, files.dendro)
            out.dendro = files.dendro.read_text(encoding="utf-8")
        if wl.command == "verify":
            reference = t.call("oracle.oracle_mst", geomst.oracle_mst, points, metric)
            key = geomst.edge_key
            out.oracle_agrees = sorted(tree, key=key) == sorted(reference, key=key)
            out.subset_checks = tuple(
                t.call("oracle.check_substructure", geomst.check_substructure, points, metric, sub)
                for sub in subset_trials(points.count, wl.trials)
            )
    return out


def _replay_merge(t: Tracer, task_trees, merge: str, n: int) -> None:
    """The merge decomposed_mst performs, one kruskal span per call."""
    from geomst import kruskal

    def combine(edges):
        with t.span("graph.replay_merge") as s:
            s.args["edges_in"] = len(edges)
            return kruskal(edges, n)

    if merge == "gather":
        combine([e for tree in task_trees for e in tree.edges])
        return
    level = task_trees
    while len(level) > 1:
        combined = [combine(a.edges + b.edges) for a, b in zip(level[::2], level[1::2])]
        if len(level) % 2:
            combined.append(level[-1])
        level = combined


def layer_metrics(t: Tracer, stats, wl, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, whose decomposed_mst returned stats."""
    n = wl.n
    total = _single(t, "bench.pipeline")
    decomposed = _single(t, "decompose.decomposed_mst")
    tasks = sorted(s.duration for s in t.named("dense.replay"))
    task_sum = sum(tasks)
    steps = sum(s.args["m"] - 1 for s in t.named("dense.replay"))
    pairs = sum(s.args["evals"] for s in t.named("dense.replay"))
    merges = t.named("graph.replay_merge")
    merge_s = sum(s.duration for s in merges)
    edges_in = sum(s.args["edges_in"] for s in merges)
    in_decomposed = [
        s for s in t.named("dense.dense_mst") if s.parent == decomposed.id
    ]
    subset_sizes = [len(sub) for sub in subset_trials(n, wl.trials)] if wl.command == "verify" else []
    self_s = layer_self_times(t.spans)

    m = {
        "io.read_points_s": _seconds(t, "io.read_points"),
        "io.format_edges_s": _seconds(t, "io.format_edges"),
        "io.write_dendrogram_s": _seconds(t, "io.write_dendrogram"),
        "decompose.make_partition_s": _seconds(t, "decompose.make_partition"),
        "decompose.decomposed_mst_s": decomposed.duration,
        "decompose.decomposed_mst_1w_s": _seconds(t, "decompose.decomposed_mst_1w"),
        "decompose.cpu_util": cpu_util(decomposed.process_cpu, decomposed.duration, workers),
        "decompose.overhead_s": overhead(decomposed.duration, task_sum, workers, merge_s),
        "decompose.dense_share": covered_share(decomposed, in_decomposed),
        "decompose.tasks": stats.tasks_executed,
        "decompose.distance_evals": stats.distance_evals,
        "decompose.edges_gathered": stats.edges_gathered,
        "decompose.redundancy": stats.distance_evals / (n * (n - 1) / 2),
        "dense.task_s_sum": task_sum,
        "dense.task_s_max": tasks[-1],
        "dense.task_s_median": statistics.median(tasks),
        "dense.imbalance": tasks[-1] / statistics.median(tasks),
        "dense.steps": steps,
        "dense.us_per_step": task_sum / steps * 1e6,
        "dense.ns_per_pair": task_sum / pairs * 1e9,
        "graph.kruskal_s": merge_s,
        "graph.kruskal_edges_in": edges_in,
        "graph.kept_ratio": (n - 1) / edges_in,
        "dendrogram.mst_to_dendrogram_s": _seconds(t, "dendrogram.mst_to_dendrogram"),
        "oracle.oracle_mst_s": sum(
            s.duration for s in t.named("oracle.oracle_mst") if s.parent == total.id
        ),
        "oracle.check_substructure_s": _seconds(t, "oracle.check_substructure"),
        # verify materializes every pair for its own oracle, and each subset
        # check builds the whole-set oracle and the subset's induced one.
        "oracle.edges_materialized": (
            (1 + len(subset_sizes)) * n * (n - 1) // 2
            + sum(s * (s - 1) // 2 for s in subset_sizes)
            if wl.command == "verify"
            else 0
        ),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["trace.total_s"] = total.duration
    m["trace.self_coverage"] = sum(m[f"{layer}.self_s"] for layer in LAYERS) / total.duration
    return m


def _single(t: Tracer, name: str):
    (span,) = t.named(name)
    return span


def _seconds(t: Tracer, name: str) -> float:
    return sum(s.duration for s in t.named(name))
