"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmark/sweep.py --workloads lowd_mst,verify_oracle --seeds 1-10 \
        --seconds 30 [--trace] [--out benchmark/baselines/NAME.json --label TEXT]

For every workload and metric it prints the median and the quartile spread
(Q3 - Q1) / median over the seeds, with quartiles as
statistics.quantiles(values, n=4) gives them, next to the metric's bound from
BENCHMARK.json. --out also writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--label", default="", help="free text stored in --out, such as the commit measured")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or spec["run_seconds"]
    report = {"label": args.label, "seconds": seconds, "trace": int(args.trace), "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(args.trace))]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["run_s"] = time.perf_counter() - started
            result["machine"] = json.loads(next(l for l in lines if l.startswith("machine "))[8:])
            runs.append(result)
            print(f"{name} seed {seed}: {result['run_s']:.1f} s, failed {result['failed']}"
                  f" of {result['attempted']}", flush=True)
        summary = {
            metric: summarise([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        }
        report["workloads"][name] = {"summary": summary, "runs": runs}
        for metric, s in summary.items():
            bound = bounds.get(metric)
            flag = "" if bound is None else f" bound {bound} {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {metric:34s} median {s['median']:.6g} spread {s['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
