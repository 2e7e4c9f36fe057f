"""Acceptance gate: one test per advertised criterion, each printing PASS/FAIL.

Criteria (tolerances in parentheses) over deterministic seeded instances:
  1  decomposed MST == brute-force oracle, exactly, on a 200-instance matrix
     spanning n in 2..256, d in {1,2,8,64}, all metrics, k in 1..8, both merge
     and both partition strategies (under 120 s)
  2  500 random (instance, subset) restriction-containment trials, zero
     failures (under 60 s)
  3  distance_evals == (k(k-1)/2) * m(m-1)/2 with m = 2n/k on even partitions
     (integer equality); redundancy_factor within 1% of 1.75 at n=4096, k=8;
     redundancy <= 2 everywhere tested
  4  edges_gathered == sum over block pairs of (|S_i|+|S_j|-1), <= n(k-1);
     final reduce combine receives <= 2(n-1) edges
  5  gather and reduce emit byte-identical edge files across the criterion-1
     matrix
  6  output bytes independent of worker count ({1, 4, all cores}, 20 instances)
  7  dendrogram heights == sorted MST weights exactly; cuts match a naive
     cubic single-linkage oracle at 10 random heights on 50 instances (n<=200)
  8a n=10000, d=64, euclidean, k=4 completes in under 60 s with one worker
     per usable core
  8b the same workload, after 8a's run as warm-up, is faster with one worker
     per usable core than with one worker by a median over three alternating
     serial/parallel pairs of more than min(2, (2/3) T / ceil(T/c)) for T
     tasks on c usable cores: >2x from 3 cores up, >4/3 on 2 cores; skipped
     below 2 usable cores
"""

from __future__ import annotations

import math
import os
import statistics
from time import perf_counter

import pytest
from reference import keys, naive_cut, naive_single_linkage, pairwise_matrix

from geomst import (
    METRIC_NAMES,
    Metric,
    SplitMix64,
    check_substructure,
    decomposed_mst,
    format_edges,
    generate_instance,
    make_partition,
    mst_to_dendrogram,
    oracle_mst,
    redundancy_factor,
    usable_cores,
)

N_CYCLE = (2, 3, 4, 5, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 128, 160, 192, 256)
D_CYCLE = (1, 2, 8, 64)
DISTRIBUTION_CYCLE = ("uniform_cube", "gaussian", "clustered(3)")


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def matrix_configs(count: int = 200):
    for i in range(count):
        n = N_CYCLE[i % len(N_CYCLE)]
        metric = METRIC_NAMES[i % len(METRIC_NAMES)]
        distribution = DISTRIBUTION_CYCLE[i % len(DISTRIBUTION_CYCLE)]
        if metric == "cosine_distance" or n < 3:
            distribution = "gaussian"
        yield {
            "seed": 1000 + i,
            "n": n,
            "d": D_CYCLE[i % len(D_CYCLE)],
            "metric": metric,
            "distribution": distribution,
            "k": min(1 + i % 8, n),
            "partition_strategy": ("contiguous", "shuffled")[i % 2],
            "workers": 1 + i % 3,
        }


@pytest.fixture(scope="module")
def equivalence_matrix():
    """Runs the 200-instance sweep once; criteria 1 and 5 read the results."""
    start = perf_counter()
    results = []
    for cfg in matrix_configs():
        points = generate_instance(cfg["seed"], cfg["n"], cfg["d"], cfg["distribution"])
        metric = Metric(cfg["metric"])
        part = make_partition(cfg["n"], cfg["k"], cfg["partition_strategy"], cfg["seed"])
        reference = keys(oracle_mst(points, metric))
        trees = {}
        for merge in ("gather", "reduce"):
            tree, _ = decomposed_mst(points, metric, part, merge, cfg["workers"])
            trees[merge] = tree
        results.append(
            {
                "cfg": cfg,
                "oracle_keys": reference,
                "gather_keys": keys(trees["gather"]),
                "reduce_keys": keys(trees["reduce"]),
                "gather_bytes": format_edges(trees["gather"]),
                "reduce_bytes": format_edges(trees["reduce"]),
            }
        )
    return {"results": results, "elapsed": perf_counter() - start}


def test_criterion_1_decomposition_equals_oracle_exactly(equivalence_matrix):
    results = equivalence_matrix["results"]
    elapsed = equivalence_matrix["elapsed"]
    cfgs = [r["cfg"] for r in results]
    assert len(results) >= 200
    assert {c["n"] for c in cfgs} >= {2, 256}
    assert {c["d"] for c in cfgs} == set(D_CYCLE)
    assert {c["metric"] for c in cfgs} == set(METRIC_NAMES)
    assert {c["k"] for c in cfgs} >= set(range(1, 9))
    assert {c["partition_strategy"] for c in cfgs} == {"contiguous", "shuffled"}
    mismatches = [
        r["cfg"]
        for r in results
        if r["gather_keys"] != r["oracle_keys"] or r["reduce_keys"] != r["oracle_keys"]
    ]
    ok = not mismatches and elapsed < 120.0
    report(
        "criterion 1",
        ok,
        f"decomposed == oracle on {len(results) - len(mismatches)}/{len(results)} "
        f"instances, both merge strategies, in {elapsed:.1f}s (< 120s)"
        + (f"; first mismatch {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_2_subset_restriction_contained_in_induced_mst():
    start = perf_counter()
    trials = failures = 0
    for i in range(10):
        n = (30, 45, 60, 75, 90, 100, 110, 120, 125, 128)[i]
        metric = Metric(METRIC_NAMES[i % len(METRIC_NAMES)])
        distribution = "gaussian" if metric.kind == "cosine_distance" else "uniform_cube"
        points = generate_instance(500 + i, n, 4 + i % 5, distribution)
        rng = SplitMix64(900 + i)
        for _ in range(50):
            size = 2 + rng.below(n - 1)
            order = list(range(n))
            rng.shuffle(order)
            subset = sorted(order[:size])
            trials += 1
            failures += not check_substructure(points, metric, subset)
    elapsed = perf_counter() - start
    ok = trials >= 500 and failures == 0 and elapsed < 60.0
    report(
        "criterion 2",
        ok,
        f"{trials - failures}/{trials} restriction-containment trials in "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_work_counters_match_closed_form():
    pairs = [(16, 2), (24, 3), (32, 4), (60, 5), (72, 6), (112, 7), (128, 8), (240, 8), (1024, 4)]
    metric = Metric("euclidean")
    worst = 0.0
    for n, k in pairs:
        points = generate_instance(n, n, 8, "uniform_cube")
        part = make_partition(n, k, "contiguous", 0)
        _, stats = decomposed_mst(points, metric, part, "gather", 1)
        m = 2 * n // k
        assert stats.distance_evals == (k * (k - 1) // 2) * (m * (m - 1) // 2), (n, k)
        rf = redundancy_factor(stats, n)
        assert rf <= 2.0, (n, k, rf)
        worst = max(worst, rf)

    points = generate_instance(4096, 4096, 8, "uniform_cube")
    part = make_partition(4096, 8, "contiguous", 0)
    _, stats = decomposed_mst(points, metric, part, "gather", 1)
    m = 2 * 4096 // 8
    exact = (8 * 7 // 2) * (m * (m - 1) // 2)
    rf = redundancy_factor(stats, 4096)
    rel = abs(rf - 1.75) / 1.75
    ok = stats.distance_evals == exact and rel < 0.01 and rf <= 2.0
    report(
        "criterion 3",
        ok,
        f"evals match (k(k-1)/2)*m(m-1)/2 on {len(pairs) + 1} even partitions; "
        f"n=4096 k=8 redundancy {rf:.6f} is {100 * rel:.3f}% from 1.75 (< 1%); "
        f"max redundancy {max(worst, rf):.6f} <= 2",
    )


def test_criterion_4_merge_traffic_matches_closed_form():
    metric = Metric("euclidean")
    pairs = [(50, 2), (60, 3), (64, 4), (77, 7), (90, 6), (100, 5), (128, 8)]
    checked_final = 0
    for n, k in pairs:
        points = generate_instance(n, n, 3, "uniform_cube")
        part = make_partition(n, k, "contiguous", 0)
        _, gstats = decomposed_mst(points, metric, part, "gather", 1)
        sizes = [b.size for b in part.blocks]
        expected = sum(
            sizes[i] + sizes[j] - 1 for i in range(k) for j in range(i + 1, k)
        )
        assert gstats.edges_gathered == expected, (n, k)
        assert gstats.edges_gathered <= n * (k - 1), (n, k)
        _, rstats = decomposed_mst(points, metric, part, "reduce", 1)
        if rstats.combine_input_sizes:
            assert rstats.combine_input_sizes[-1] <= 2 * (n - 1), (n, k)
            checked_final += 1
    ok = checked_final >= 5
    report(
        "criterion 4",
        ok,
        f"gathered edges equal sum(|S_i|+|S_j|-1) and <= n(k-1) on {len(pairs)} "
        f"partitions; final reduce combine <= 2(n-1) on {checked_final} of them",
    )


def test_criterion_5_merge_strategies_byte_identical(equivalence_matrix):
    results = equivalence_matrix["results"]
    diffs = [r["cfg"] for r in results if r["gather_bytes"] != r["reduce_bytes"]]
    ok = not diffs
    report(
        "criterion 5",
        ok,
        f"gather vs reduce byte-identical on {len(results) - len(diffs)}/"
        f"{len(results)} instances"
        + (f"; first difference {diffs[0]}" if diffs else ""),
    )


def test_criterion_6_output_independent_of_worker_count(forking):
    cpu = os.cpu_count() or 1
    worker_choices = sorted({1, 4, cpu})
    diffs = 0
    for i in range(20):
        n = 40 + 6 * i
        metric = Metric(METRIC_NAMES[i % len(METRIC_NAMES)])
        distribution = "gaussian" if metric.kind == "cosine_distance" else "uniform_cube"
        points = generate_instance(2000 + i, n, (2, 8)[i % 2], distribution)
        part = make_partition(n, (3, 4, 5, 6)[i % 4], ("contiguous", "shuffled")[i % 2], i)
        merge = ("gather", "reduce")[i % 2]
        outputs = set()
        for workers in worker_choices:
            tree, _ = decomposed_mst(points, metric, part, merge, workers)
            outputs.add(format_edges(tree))
        diffs += len(outputs) != 1
    ok = diffs == 0
    report(
        "criterion 6",
        ok,
        f"identical bytes for workers in {worker_choices} on {20 - diffs}/20 instances",
    )


def test_criterion_7_dendrogram_matches_naive_single_linkage():
    ns = (2, 3, 4, 6, 10, 16, 25, 40, 60, 80, 120, 160, 200)
    height_fails = cut_fails = cut_trials = 0
    for i in range(50):
        n = ns[i % len(ns)]
        metric = Metric(METRIC_NAMES[i % len(METRIC_NAMES)])
        points = generate_instance(3000 + i, n, (1, 2, 3, 8)[i % 4], "gaussian")
        part = make_partition(n, min(4, n), "contiguous", 0)
        tree, _ = decomposed_mst(points, metric, part, "gather", 1)
        dendro = mst_to_dendrogram(tree, n)
        heights = dendro.height.tolist()
        height_fails += heights != sorted(e.w for e in tree)
        naive_heights, merges = naive_single_linkage(pairwise_matrix(points, metric))
        height_fails += sorted(naive_heights) != heights
        top = max(heights)
        rng = SplitMix64(4000 + i)
        for _ in range(10):
            h = rng.uniform_array(1)[0] * top * 1.05
            cut_trials += 1
            got = {tuple(block) for block in dendro.cut(h)}
            cut_fails += got != naive_cut(n, merges, h)
    ok = height_fails == 0 and cut_fails == 0
    report(
        "criterion 7",
        ok,
        f"heights equal sorted MST weights and naive agglomeration on 50 instances; "
        f"{cut_trials - cut_fails}/{cut_trials} random-height cuts match the naive "
        f"oracle",
    )


@pytest.fixture(scope="module")
def desk_scale_run():
    """One n=10000, d=64 workload, timed with one worker per usable core."""
    n, k = 10000, 4
    points = generate_instance(77, n, 64, "uniform_cube")
    metric = Metric("euclidean")
    part = make_partition(n, k, "contiguous", 0)
    workers = usable_cores()
    tree, stats = decomposed_mst(points, metric, part, "gather", workers)
    return {
        "problem": (points, metric, part),
        "edge_count": len(tree),
        "workers": workers,
        "tasks": stats.tasks_executed,
        "parallel_s": stats.wall_time,
    }


def test_criterion_8a_desk_scale_completes_quickly(desk_scale_run):
    r = desk_scale_run
    ok = r["parallel_s"] < 60.0 and r["edge_count"] == 9999
    report(
        "criterion 8a",
        ok,
        f"n=10000 d=64 k=4 finished in {r['parallel_s']:.1f}s with "
        f"{r['workers']} workers (< 60s)",
    )


def speedup_bar(tasks: int, cores: int) -> float:
    """The speedup criterion 8b asks of `tasks` equal tasks on `cores` cores.

    The schedule allows at most tasks / ceil(tasks / cores). The bar is 2/3
    of that, which is 2x where 3 to 5 cores allow 3x, and never above 2x.
    """
    return min(2.0, (2 / 3) * tasks / math.ceil(tasks / cores))


@pytest.mark.skipif(usable_cores() < 2, reason="a parallel speedup needs 2 usable cores")
def test_criterion_8b_parallel_speedup_exceeds_two(desk_scale_run):
    # Criterion 8a's run is the warm-up. Serial and parallel runs then
    # alternate, so host drift hits both sides of each pair alike, and the
    # median of five pairs outlasts two pairs that drift spoils.
    r = desk_scale_run
    points, metric, part = r["problem"]
    ratios = []
    for _ in range(5):
        _, serial = decomposed_mst(points, metric, part, "gather", 1)
        _, parallel = decomposed_mst(points, metric, part, "gather", r["workers"])
        ratios.append(serial.wall_time / parallel.wall_time)
    speedup = statistics.median(ratios)
    cores = min(r["workers"], usable_cores())
    bar = speedup_bar(r["tasks"], cores)
    ok = speedup > bar
    report(
        "criterion 8b",
        ok,
        f"median speedup {speedup:.2f}x (pairs {', '.join(f'{x:.2f}x' for x in ratios)}) "
        f"with {r['workers']} workers over 1 on {r['tasks']} tasks and "
        f"{usable_cores()} usable cores (> {bar:.2f}x required)",
    )
