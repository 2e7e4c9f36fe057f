"""Benchmark of the geomst CLI on seeded workloads, with a traced per-layer run.

    python3 benchmark/run.py --workload lowd_mst --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ./src and the CLI
runs as `python3 -c ...` with ./src on PYTHONPATH; nothing needs installing.

--trace 0 times the CLI as a subprocess, one run at a time (closed loop),
with --workers set to the core count and with --workers 1, and reports the
end-to-end metrics. --trace 1 replays the workload's command in-process with
spans around every call into the package and reports per-layer metrics; it
also writes the spans as Chrome trace-event JSON under benchmark/_traces/.

Inputs are generated from --seed before anything is timed. Every run's
outputs are checked; a run with a wrong exit code or a failed check counts in
"failed". The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import block_sizes, expected_counters, pipeline_problems, reference_mst, run_problems
from layers import layer_metrics, pipeline, speedup
from tracing import Tracer, write_chrome_trace
from workloads import WORKLOADS, Files, core_count, write_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# `python -m geomst.cli` runs nothing, so the CLI entry point is called directly.
GEOMST = [sys.executable, "-c", "import sys; from geomst.cli import main; sys.exit(main(sys.argv[1:]))"]

SETUP_PER_REP = 2
RUN_LIMIT_S = 120.0  # one CLI run taking longer is killed and counted as failed

END_TO_END = {
    "wall_s": "s",
    "wall_1w_s": "s",
    "speedup": "ratio",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
COUNTS = {
    "decompose.tasks",
    "decompose.distance_evals",
    "decompose.edges_gathered",
    "dense.steps",
    "graph.kruskal_edges_in",
    "oracle.edges_materialized",
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in COUNTS:
        return "count"
    if name.endswith("_s") or "_s_" in name:
        return "s"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("ns_per_pair"):
        return "ns"
    return "ratio"


@dataclass
class Run:
    """One finished CLI process: wall time, rusage and what it printed."""

    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: str


def invoke(args: list[str], env: dict, workdir: Path) -> Run:
    """Run the CLI once and reap it with wait4, which gives its own rusage."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(GEOMST + args, stdout=out, stderr=err, env=env)
        killer = threading.Timer(RUN_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
    )


class Tally:
    """Attempted and failed runs, with the first few reasons for failing."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems))


def timed_run(wl, files, seed: int, seconds: float, reference, tally: Tally) -> dict:
    workers = core_count()
    expected = expected_counters(block_sizes(wl.n, wl.k), wl.merge)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    workdir = files.input.parent

    def run_once(w: int) -> Run:
        for path in wl.outputs(files) + [files.stats]:
            path.unlink(missing_ok=True)
        return invoke(wl.argv(files, w), env, workdir)

    def problems_of(run: Run, golden) -> list[str]:
        return run_problems(wl, files, run.returncode, run.stdout, reference, expected, golden)

    # Untimed warm-up with one worker: it settles the page cache and lazy
    # imports, and its checked outputs are the bytes every timed run must
    # reproduce, with either worker count.
    warm = run_once(1)
    tally.add(problems_of(warm, None))
    golden = [p.read_bytes() if p.exists() else b"" for p in wl.outputs(files)]

    # Each repetition runs the command with all workers and with one, in
    # alternating order, then times start-up twice. The host's speed drifts
    # over minutes, so speedup is the median of the ratios within a
    # repetition, not the ratio of the medians.
    many, one, setup = [], [], []
    started = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        pair = {}
        for w in ([workers, 1] if len(many) % 2 == 0 else [1, workers]):
            run = run_once(w)
            tally.add(problems_of(run, golden))
            pair[w] = run
        many.append(pair[workers])
        one.append(pair[1])
        setup += [invoke([wl.command, "--help"], env, workdir).wall for _ in range(SETUP_PER_REP)]
        now = time.perf_counter()
        if now - started + (now - rep_start) > seconds:
            break

    return {
        "wall_s": statistics.median(r.wall for r in many),
        "wall_1w_s": statistics.median(r.wall for r in one),
        "speedup": statistics.median(speedup(b.wall, a.wall) for a, b in zip(many, one)),
        "cpu_s": statistics.median(r.cpu for r in many),
        "peak_rss_mb": statistics.median(r.rss_mb for r in many),
        "setup_s": statistics.median(setup),
    }


def traced_run(wl, files, seed: int, seconds: float, reference, tally: Tally) -> dict:
    workers = core_count()
    expected = expected_counters(block_sizes(wl.n, wl.k), wl.merge)

    def problems_of(out) -> list[str]:
        return pipeline_problems(wl, out, reference, expected)

    tally.add(problems_of(pipeline(wl, files, workers, Tracer(enabled=False))))  # warm-up
    passes, untraced = [], []
    started = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        for traced in (len(passes) % 2 == 0, len(passes) % 2 == 1):
            tracer = Tracer(enabled=traced)
            t0 = time.perf_counter()
            out = pipeline(wl, files, workers, tracer)
            elapsed = time.perf_counter() - t0
            tally.add(problems_of(out))
            if traced:
                passes.append(layer_metrics(tracer, out.stats, wl, workers))
                spans = tracer.spans
            else:
                untraced.append(elapsed)
        now = time.perf_counter()
        if now - started + (now - rep_start) > seconds:
            break

    traces = HERE / "_traces"
    traces.mkdir(exist_ok=True)
    write_chrome_trace(spans, traces / f"{wl.name}-seed{seed}.json")
    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    metrics["trace.untraced_total_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - metrics["trace.untraced_total_s"]
    return metrics


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": core_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    # Cache sizes as the kernel reports them; left out where it does not.
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"l{level}"] = size
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geomst" / "__init__.py").is_file():
        print(f"error: geomst sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    facts = machine_facts()
    tally = Tally()
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        files = Files.under(Path(tmp), wl)
        points = write_input(wl, args.seed, files.input)
        reference = reference_mst(points.coords, wl.metric)
        run = traced_run if args.trace else timed_run
        metrics = run(wl, files, args.seed, args.seconds, reference, tally)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {unit_of(name)}")
    print(f"error_rate {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} runs failed)")
    for reason in tally.reasons:
        print(f"failure: {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
