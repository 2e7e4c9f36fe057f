"""Derived metrics, the traced pipeline, and the metric names BENCHMARK.json declares."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import block_sizes, expected_counters, pipeline_problems, reference_mst
from layers import LAYERS, cpu_util, layer_metrics, overhead, pipeline, speedup
from run import END_TO_END, unit_of
from tracing import Tracer
from workloads import WORKLOADS, Files, Workload, write_input

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_derived_metrics():
    assert speedup(6.0, 4.0) == 1.5
    # two workers, 3 s of CPU in 2 s of wall: three quarters busy
    assert cpu_util(3.0, 2.0, 2) == 0.75
    # 5 s of tasks shared by 2 workers take 2.5 s; with a 0.5 s merge, 1 s is lost
    assert overhead(4.0, 5.0, 2, 0.5) == 1.0


def test_metric_names_and_units_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for m in SPEC["per_layer"]:
        assert unit_of(m["name"]) == m["unit"], m["name"]


@pytest.mark.parametrize(
    "wl",
    [
        Workload("tiny_mst", "mst", 60, 2, "uniform_cube", "euclidean", 4, "vecbin"),
        Workload("tiny_dendro", "dendrogram", 40, 8, "gaussian", "euclidean", 3, "csv", merge="reduce"),
        Workload("tiny_verify", "verify", 30, 4, "clustered(3)", "manhattan", 3, "vecbin", trials=2),
    ],
    ids=lambda wl: wl.command,
)
def test_traced_pipeline_gives_every_per_layer_metric(wl, tmp_path):
    files = Files.under(tmp_path, wl)
    points = write_input(wl, 3, files.input)
    expected = expected_counters(block_sizes(wl.n, wl.k), wl.merge)
    t = Tracer()
    out = pipeline(wl, files, 2, t)
    assert pipeline_problems(wl, out, reference_mst(points.coords, wl.metric), expected) == []
    metrics = layer_metrics(t, out.stats, wl, 2)
    metrics["trace.untraced_total_s"] = metrics["trace.overhead_s"] = 0.0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["decompose.distance_evals"] == expected["distance_evals"]
    assert metrics["dense.steps"] == sum(block_sizes(wl.n, wl.k)) * (wl.k - 1) - wl.k * (wl.k - 1) // 2
    assert 0.9 < metrics["trace.self_coverage"] <= 1.0 + 1e-9
    touched = {"verify": "oracle", "dendrogram": "dendrogram"}.get(wl.command)
    for layer in LAYERS:
        if layer in ("oracle", "dendrogram") and layer != touched:
            assert metrics[f"{layer}.self_s"] == 0.0
        else:
            assert metrics[f"{layer}.self_s"] > 0.0, layer


def test_without_the_package_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "lowd_mst", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
