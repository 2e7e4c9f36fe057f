"""Command-line front door: compute, verify, benchmark, and cluster.

Four subcommands over the same core: mst writes the exact MST of the
complete graph on the input vectors, verify replays it against the
brute-force oracle and random-subset containment checks, bench sweeps block
counts over a generated instance and tabulates the counters, dendrogram
derives the single-linkage merge tree. Exit codes: 0 ok, 1 usage error,
2 data error, 3 verification failure.

Fixed flags and a fixed input produce byte-identical edge and dendrogram
artifacts across runs and across --workers values; stats files and bench
tables embed wall-clock measurements and are reproducible in every other
column.
"""

from __future__ import annotations

import argparse
import math
import sys

from .datagen import generate_instance
from .decompose import (
    MERGE_STRATEGIES,
    PARTITION_STRATEGIES,
    decomposed_mst,
    make_partition,
    redundancy_factor,
    usable_cores,
)
from .dendrogram import mst_to_dendrogram
from .errors import DataError, UsageError
from .geometry import METRIC_NAMES, Metric, PointSet, _integer
from .graph import EdgeList
from .io import (
    POINT_FORMATS,
    _write_text,
    fmt_real,
    format_edges,
    read_points,
    write_dendrogram,
    write_edges,
    write_stats,
)
from .oracle import DEFAULT_MAX_POINTS, check_substructure, oracle_mst
from .rng import SplitMix64
from .stats import RunStats


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int(what: str, lo: int = 0, hi: int | None = None):
    """An argparse type: the flag's text as an int that geometry._integer accepts, or its message."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value: 'x'"
        try:
            return _integer(int(text), what, lo, hi)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return integer


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", choices=METRIC_NAMES, default="euclidean")
    p.add_argument(
        "--workers",
        type=_int("workers", 1),
        default=None,
        help="most worker processes (default: all usable cores); a run forks only as many as its work repays",
    )
    p.add_argument(
        "--seed",
        type=_int("seed", 0, 2**64 - 1),
        default=0,
        help="unsigned 64-bit seed: the shuffled partition, verify's subsets, bench's instance",
    )


def _add_compute_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="point file, csv or vecbin")
    p.add_argument(
        "--format", choices=POINT_FORMATS, default=None, help="input format (default: by extension)"
    )
    _add_shared_flags(p)
    p.add_argument(
        "--partitions",
        type=_int("partitions", 1),
        default=None,
        metavar="K",
        help="block count (default: ceil(sqrt(2*workers)), clamped to the point count)",
    )
    p.add_argument("--partition-strategy", choices=PARTITION_STRATEGIES, default="contiguous")
    p.add_argument("--merge", choices=MERGE_STRATEGIES, default="gather")
    p.add_argument("--output", default=None, metavar="PATH", help="edge TSV (default: stdout)")
    p.add_argument("--stats", default=None, metavar="PATH", help="write run counters as key=value")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geomst",
        description="Exact minimum spanning trees of complete graphs over vector sets.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("mst", help="compute the MST and write it as edge TSV")
    _add_compute_flags(p)
    p.set_defaults(func=cmd_mst)

    p = sub.add_parser("verify", help="check the decomposition against the brute-force oracle")
    _add_compute_flags(p)
    p.add_argument(
        "--trials", type=_int("trials"), default=20, help="random-subset containment checks to run (default 20)"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="sweep block counts on a generated instance")
    p.add_argument("--n", type=_int("n"), required=True, help="points to generate (at least 2)")
    p.add_argument("--dim", type=_int("dim", 1), required=True)
    _add_shared_flags(p)
    p.add_argument(
        "--partitions-list",
        default="1,2,4,8",
        metavar="K,K,...",
        help="comma-separated block counts (default 1,2,4,8)",
    )
    p.add_argument("--output", default=None, metavar="PATH", help="TSV table (default: stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dendrogram", help="compute the MST and its single-linkage dendrogram")
    _add_compute_flags(p)
    p.add_argument("--dendro-output", required=True, metavar="PATH", help="merge-step TSV")
    p.set_defaults(func=cmd_dendrogram)

    return parser


def _load(args) -> tuple[PointSet, Metric]:
    return read_points(args.input, args.format, args.workers), Metric(args.metric)


def _compute(args, points: PointSet, metric: Metric):
    """Partition, decompose and solve; returns (tree, stats, k)."""
    workers = args.workers or usable_cores()
    n = points.count
    if n == 0:
        return EdgeList(), RunStats(merge_strategy=args.merge), 0
    if args.partitions is None:
        k = min(n, max(1, math.ceil(math.sqrt(2 * workers))))
    else:
        # More blocks than points cannot help; clamp rather than refuse so
        # one flag value works across inputs of any size.
        k = min(args.partitions, n)
    part = make_partition(n, k, args.partition_strategy, args.seed)
    tree, stats = decomposed_mst(points, metric, part, args.merge, workers)
    return tree, stats, k


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _write_text(output, text)


def _maybe_write_stats(args, stats, points, k) -> None:
    if args.stats is not None:
        write_stats(stats, args.stats, n=points.count, d=points.dim, k=k, metric=args.metric, seed=args.seed)


def cmd_mst(args) -> int:
    points, metric = _load(args)
    tree, stats, k = _compute(args, points, metric)
    _emit(format_edges(tree), args.output)
    _maybe_write_stats(args, stats, points, k)
    return 0


def cmd_verify(args) -> int:
    points, metric = _load(args)
    if points.count > DEFAULT_MAX_POINTS:
        raise UsageError(f"verify takes at most {DEFAULT_MAX_POINTS} points, got {points.count}")
    tree, stats, k = _compute(args, points, metric)
    failures = 0

    reference = oracle_mst(points, metric)
    ok = tree == reference
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} decomposed-vs-oracle (n={points.count}, k={k})")

    n = points.count
    rng = SplitMix64(args.seed)
    for t in range(args.trials if n >= 2 else 0):
        size = 2 + rng.below(n - 1)
        order = list(range(n))
        rng.shuffle(order)
        subset = sorted(order[:size])
        ok = check_substructure(points, metric, subset, whole=reference)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} subset-containment trial {t} (size {size})")

    if args.output is not None:
        write_edges(tree, args.output)
    _maybe_write_stats(args, stats, points, k)
    return 0 if failures == 0 else 3


def cmd_bench(args) -> int:
    if args.n < 2:
        raise UsageError("bench needs at least 2 points")
    try:
        ks = [int(s) for s in args.partitions_list.split(",")]
    except ValueError:
        raise UsageError("--partitions-list must be comma-separated integers") from None
    ks = [_integer(k, "block count", 1, args.n) for k in ks]
    points = generate_instance(args.seed, args.n, args.dim, "uniform_cube")
    metric = Metric(args.metric)
    rows = ["k\ttasks\tdistance_evals\tredundancy_factor\tedges_gathered\twall_time_ms"]
    for k in ks:
        part = make_partition(args.n, k, "contiguous", args.seed)
        _, stats = decomposed_mst(points, metric, part, "gather", args.workers)
        rows.append(
            f"{k}\t{stats.tasks_executed}\t{stats.distance_evals}"
            f"\t{fmt_real(redundancy_factor(stats, args.n))}"
            f"\t{stats.edges_gathered}\t{fmt_real(stats.wall_time * 1000.0)}"
        )
    _emit("".join(r + "\n" for r in rows), args.output)
    return 0


def cmd_dendrogram(args) -> int:
    points, metric = _load(args)
    if points.count == 0:
        raise DataError(f"{args.input}: no points, a dendrogram needs at least one leaf")
    tree, stats, k = _compute(args, points, metric)
    dendro = mst_to_dendrogram(tree, points.count)
    _emit(format_edges(tree), args.output)
    write_dendrogram(dendro, args.dendro_output)
    _maybe_write_stats(args, stats, points, k)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help; argparse errors surface as UsageError instead
        return exc.code if isinstance(exc.code, int) else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
