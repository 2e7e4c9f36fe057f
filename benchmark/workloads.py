"""The benchmark's workloads: one geomst command each, on an input made from a seed.

Every workload runs the CLI with --workers set to the core count, and again
with --workers 1, so the thread speed-up is measured on each of them. The
sizes are fixed; only the generated coordinates change with the seed, so the
work counters (distance evaluations, edges gathered, Prim steps) are the same
for every seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # geomst subcommand: mst, dendrogram or verify
    n: int
    d: int
    distribution: str
    metric: str
    k: int
    fmt: str  # input file format: vecbin or csv
    merge: str = "gather"
    trials: int = 0  # verify only

    def argv(self, files: "Files", workers: int) -> list[str]:
        """Arguments after the program name for one run of this workload."""
        args = [self.command]
        if self.command == "verify":
            args += ["--trials", str(self.trials)]
        args += [
            "--input", str(files.input),
            "--metric", self.metric,
            "--partitions", str(self.k),
            "--merge", self.merge,
            "--workers", str(workers),
            "--output", str(files.edges),
            "--stats", str(files.stats),
        ]
        if self.command == "dendrogram":
            args += ["--dendro-output", str(files.dendro)]
        return args

    def outputs(self, files: "Files") -> list[Path]:
        """The files a run writes that must not change with the worker count."""
        return [files.edges] + ([files.dendro] if self.command == "dendrogram" else [])


@dataclass(frozen=True)
class Files:
    """Where one workload's input and outputs live inside a working directory."""

    input: Path
    edges: Path
    stats: Path
    dendro: Path

    @classmethod
    def under(cls, directory: Path, wl: Workload) -> "Files":
        return cls(
            input=directory / f"points.{wl.fmt}",
            edges=directory / "edges.tsv",
            stats=directory / "stats.txt",
            dendro=directory / "dendro.tsv",
        )


# Why each workload exists, and which layers it loads, is recorded in
# README.md next to this file and in BENCHMARK.json.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("lowd_mst", "mst", 3000, 2, "uniform_cube", "euclidean", 8, "vecbin"),
        Workload(
            "highd_dendrogram", "dendrogram", 1500, 256, "gaussian", "euclidean", 4, "csv",
            merge="reduce",
        ),
        Workload(
            "verify_oracle", "verify", 400, 16, "clustered(5)", "manhattan", 4, "vecbin",
            trials=1,
        ),
    )
}


def core_count() -> int:
    """What `nproc` prints: the cores this process may run on."""
    return len(os.sched_getaffinity(0))


def write_input(wl: Workload, seed: int, path: Path):
    """Generate the workload's points from the seed, write them, and return them."""
    from geomst import generate_instance, write_points

    points = generate_instance(seed, wl.n, wl.d, wl.distribution)
    write_points(points, path)
    return points
