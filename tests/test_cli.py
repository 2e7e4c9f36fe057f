"""End-to-end command-line checks, run in process through main(argv)."""

from __future__ import annotations

import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference import no_child_processes

import geomst
import geomst.cli as cli
from geomst import (
    MERGE_STRATEGIES,
    EdgeList,
    Metric,
    PointSet,
    format_edges,
    generate_instance,
    oracle_mst,
    write_points,
)

COLLINEAR_CSV = "0.0\n1.0\n3.0\n"
COLLINEAR_EDGES = "0\t1\t1.0\n1\t2\t2.0\n"


@pytest.fixture
def points_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(COLLINEAR_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def square_csv(tmp_path):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [5.0, 5.0]])
    path = tmp_path / "square.csv"
    write_points(PointSet(coords), str(path))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples() -> list[tuple[str, str]]:
    """(command, the output shown under it) for each `$ ` line of README's CLI examples, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = text[text.index("## CLI") : text.index("## Guarantees")]
    blocks = re.findall(r"^```sh\n(.*?)^```", cli_section, re.M | re.S)
    return [ex for block in blocks for ex in re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", block, re.M)]


def test_readme_cli_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    # The examples share one directory, as a reader running them in turn would.
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    commands = [shlex.split(cmd)[:2] for cmd, _ in examples]
    assert [c[1] for c in commands if c[0] == "geomst"] == ["mst", "verify", "bench", "dendrogram"]
    for cmd, expected in examples:
        argv = shlex.split(cmd)
        if argv[0] == "printf":  # printf FORMAT > FILE
            Path(argv[3]).write_text(argv[1].encode().decode("unicode_escape"), encoding="utf-8")
            out = ""
        elif argv[0] == "cat":
            out = Path(argv[1]).read_text(encoding="utf-8")
        else:
            code, out, err = run(argv[1:], capsys)
            assert (code, err) == (0, ""), cmd
        if argv[1] == "bench":  # every column but the last, wall_time_ms, is reproducible
            out, expected = ([line.rsplit("\t", 1)[0] for line in x.splitlines()] for x in (out, expected))
        assert out == expected, cmd


def test_mst_writes_edges_to_stdout_by_default(points_csv, capsys):
    code, out, err = run(["mst", "--input", points_csv, "--workers", "1"], capsys)
    assert code == 0
    assert out == COLLINEAR_EDGES
    assert err == ""


def test_mst_output_flag_writes_file_and_keeps_stdout_quiet(points_csv, tmp_path, capsys):
    dest = tmp_path / "edges.tsv"
    code, out, _ = run(
        ["mst", "--input", points_csv, "--workers", "1", "--output", str(dest)], capsys
    )
    assert code == 0
    assert out == ""
    assert dest.read_text(encoding="utf-8") == COLLINEAR_EDGES


def test_partitions_beyond_point_count_are_clamped(points_csv, capsys):
    code, out, _ = run(
        ["mst", "--input", points_csv, "--partitions", "4", "--workers", "1"], capsys
    )
    assert code == 0
    assert out == COLLINEAR_EDGES


def test_merge_strategies_emit_identical_bytes(square_csv, tmp_path, capsys):
    outs = {}
    for merge in ("gather", "reduce"):
        dest = tmp_path / f"{merge}.tsv"
        code, _, _ = run(
            [
                "mst",
                "--input",
                square_csv,
                "--partitions",
                "3",
                "--merge",
                merge,
                "--workers",
                "2",
                "--output",
                str(dest),
            ],
            capsys,
        )
        assert code == 0
        outs[merge] = dest.read_bytes()
    assert outs["gather"] == outs["reduce"]


def test_worker_count_does_not_change_output_bytes(square_csv, tmp_path, capsys):
    outs = []
    for workers in ("1", "3"):
        dest = tmp_path / f"w{workers}.tsv"
        code, _, _ = run(
            [
                "mst",
                "--input",
                square_csv,
                "--partitions",
                "2",
                "--workers",
                workers,
                "--output",
                str(dest),
            ],
            capsys,
        )
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]


def test_partition_strategy_does_not_change_the_tree(square_csv, tmp_path, capsys):
    outs = []
    for strategy in ("contiguous", "shuffled"):
        dest = tmp_path / f"{strategy}.tsv"
        code, _, _ = run(
            [
                "mst",
                "--input",
                square_csv,
                "--partitions",
                "2",
                "--partition-strategy",
                strategy,
                "--seed",
                "7",
                "--workers",
                "1",
                "--output",
                str(dest),
            ],
            capsys,
        )
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]


def test_stats_file_reports_run_counters(points_csv, tmp_path, capsys):
    dest = tmp_path / "stats.txt"
    code, _, _ = run(
        [
            "mst",
            "--input",
            points_csv,
            "--partitions",
            "2",
            "--workers",
            "1",
            "--stats",
            str(dest),
        ],
        capsys,
    )
    assert code == 0
    stats = dict(
        line.split("=", 1) for line in dest.read_text(encoding="utf-8").splitlines()
    )
    assert stats["n"] == "3"
    assert stats["d"] == "1"
    assert stats["k"] == "2"
    assert stats["metric"] == "euclidean"
    assert stats["workers"] == "1"
    assert stats["seed"] == "0"
    assert stats["merge_strategy"] == "gather"
    assert stats["tasks_executed"] == "1"
    assert stats["distance_evals"] == "3"
    assert stats["edges_gathered"] == "2"
    assert float(stats["wall_time_ms"]) >= 0.0


@pytest.mark.parametrize(
    "workers, k, tasks",
    [
        # k = ceil(sqrt(2 * workers)). On 2 workers that is a single task on
        # one core, and it beats k = 4 (six tasks on two processes) at d = 2; k = 4
        # wins only at high d, so the default stays until a policy is measured.
        ("1", "2", "1"),
        ("2", "2", "1"),
        ("4", "3", "3"),
    ],
)
def test_default_partitions_are_ceil_sqrt_two_workers(
    square_csv, tmp_path, capsys, workers, k, tasks, forking
):
    dest = tmp_path / "stats.txt"
    argv = ["mst", "--input", square_csv, "--workers", workers, "--stats", str(dest)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    stats = dict(line.split("=", 1) for line in dest.read_text(encoding="utf-8").splitlines())
    # workers counts the processes that ran: here one per task
    assert (stats["workers"], stats["k"], stats["tasks_executed"]) == (tasks, k, tasks)


def test_default_partitions_are_clamped_to_the_point_count(points_csv, tmp_path, capsys):
    dest = tmp_path / "stats.txt"
    argv = ["mst", "--input", points_csv, "--workers", "5", "--stats", str(dest)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == COLLINEAR_EDGES
    stats = dict(line.split("=", 1) for line in dest.read_text(encoding="utf-8").splitlines())
    assert (stats["k"], stats["tasks_executed"]) == ("3", "3")


def test_vecbin_input_matches_csv_input(square_csv, tmp_path, capsys):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [5.0, 5.0]])
    binpath = tmp_path / "square.vecbin"
    write_points(PointSet(coords), str(binpath))
    _, out_csv, _ = run(["mst", "--input", square_csv, "--workers", "1"], capsys)
    _, out_bin, _ = run(["mst", "--input", str(binpath), "--workers", "1"], capsys)
    assert out_csv == out_bin


def test_format_flag_overrides_extension(tmp_path, capsys):
    path = tmp_path / "points.dat"
    path.write_text(COLLINEAR_CSV, encoding="utf-8")
    code, out, _ = run(
        ["mst", "--input", str(path), "--format", "csv", "--workers", "1"], capsys
    )
    assert code == 0
    assert out == COLLINEAR_EDGES
    code, _, err = run(["mst", "--input", str(path), "--workers", "1"], capsys)
    assert code == 1
    assert "format" in err


def test_empty_vecbin_yields_empty_tree(tmp_path, capsys):
    path = tmp_path / "empty.vecbin"
    write_points(PointSet(np.empty((0, 3))), str(path))
    dest = tmp_path / "stats.txt"
    code, out, _ = run(["mst", "--input", str(path), "--workers", "2", "--stats", str(dest)], capsys)
    assert code == 0
    assert out == ""
    stats = dict(line.split("=", 1) for line in dest.read_text(encoding="utf-8").splitlines())
    assert (stats["workers"], stats["k"], stats["tasks_executed"]) == ("0", "0", "0")


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    code, _, err = run(["mst", "--input", str(tmp_path / "absent.csv")], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_malformed_csv_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n", encoding="utf-8")
    code, _, err = run(["mst", "--input", str(path)], capsys)
    assert code == 2
    assert "row 1" in err


def test_non_utf8_csv_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,2\n3,\xff\n")
    code, _, err = run(["mst", "--input", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "byte 6" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["mst"],
        ["mst", "--input", "x.csv", "--metric", "hamming"],
        ["mst", "--input", "x.csv", "--no-such-flag"],
        ["frobnicate"],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error:")


U64_RANGE = f"seed must be an integer in 0..{2**64 - 1}"


@pytest.mark.parametrize(
    "command, flag, value, wording",
    [
        ("mst", "--partitions", "0", "partitions must be a positive integer, got 0"),
        ("mst", "--workers", "0", "workers must be a positive integer, got 0"),
        ("verify", "--trials", "-1", "trials must be a non-negative integer, got -1"),
        ("bench", "--dim", "0", "dim must be a positive integer, got 0"),
        ("mst", "--seed", "-1", f"{U64_RANGE}, got -1"),
        ("mst", "--seed", str(2**64), f"{U64_RANGE}, got {2**64}"),
        ("mst", "--seed", "x", "invalid integer value: 'x'"),
        ("bench", "--n", "x", "invalid integer value: 'x'"),
    ],
)
def test_integer_flags_refuse_with_the_library_wording(tmp_path, capsys, command, flag, value, wording):
    # The input does not exist: every refusal comes from the parser, before anything is read.
    argv = ["--n", "8"] if command == "bench" else ["--input", str(tmp_path / "absent.csv")]
    code, out, err = run([command, *argv, flag, value], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: argument {flag}: {wording}\n"


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "geomst" in out
    assert cli.main(["mst", "--help"]) == 0


def test_verify_reports_pass_lines_and_exits_zero(square_csv, capsys):
    code, out, _ = run(
        ["verify", "--input", square_csv, "--partitions", "2", "--workers", "1",
         "--trials", "3"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "PASS decomposed-vs-oracle (n=5, k=2)"
    for line in lines[1:]:
        assert line.startswith("PASS subset-containment trial ")


def test_verify_trials_can_be_disabled(square_csv, capsys):
    code, out, _ = run(
        ["verify", "--input", square_csv, "--workers", "1", "--trials", "0"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 1


def test_verify_flags_oracle_mismatch_with_exit_three(square_csv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "oracle_mst", lambda points, metric: EdgeList())
    code, out, _ = run(
        ["verify", "--input", square_csv, "--workers", "1", "--trials", "0"], capsys
    )
    assert code == 3
    assert out.splitlines()[0].startswith("FAIL decomposed-vs-oracle")


def test_verify_flags_containment_failure_with_exit_three(square_csv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_substructure", lambda *a, **k: False)
    code, out, _ = run(
        ["verify", "--input", square_csv, "--workers", "1", "--trials", "2"], capsys
    )
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("PASS decomposed-vs-oracle")
    assert all(line.startswith("FAIL subset-containment") for line in lines[1:])


def test_verify_builds_the_whole_forest_once_and_one_subset_forest_per_trial(
    square_csv, capsys, monkeypatch
):
    subsets = []
    build = geomst.oracle._finite_forest

    def counted(points, metric, subset, max_points):
        subsets.append(subset)
        return build(points, metric, subset, max_points)

    monkeypatch.setattr(geomst.oracle, "_finite_forest", counted)
    code, out, _ = run(
        ["verify", "--input", square_csv, "--workers", "1", "--trials", "5"], capsys
    )
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())
    assert [s is None for s in subsets] == [True] + [False] * 5


def test_verify_above_the_oracle_cap_is_refused_before_decomposing(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify decomposed an input it cannot verify")

    monkeypatch.setattr(cli, "decomposed_mst", refuse)
    path = tmp_path / "big.csv"
    write_points(PointSet(np.arange(2049.0)[:, None]), str(path))
    code, out, err = run(["verify", "--input", str(path), "--workers", "1"], capsys)
    assert code == 1
    assert out == ""
    assert any(line.startswith("error:") and "2048" in line for line in err.splitlines())
    assert "max_points" not in err


@pytest.mark.parametrize("command", ["mst", "verify", "dendrogram"])
@pytest.mark.parametrize("k", ["0", "-2"])
def test_partitions_below_one_rejected_before_the_input_is_read(tmp_path, capsys, command, k):
    absent = str(tmp_path / "absent.csv")
    argv = [command, "--input", absent, "--partitions", k, "--dendro-output", "d.tsv"]
    code, out, err = run(argv if command == "dendrogram" else argv[:-2], capsys)
    assert code == 1
    assert out == ""
    assert "--partitions" in err and "positive integer" in err


def test_bench_table_matches_work_formulas(capsys):
    code, out, _ = run(
        ["bench", "--n", "16", "--dim", "3", "--partitions-list", "1,2,4",
         "--workers", "1"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k\ttasks\tdistance_evals\tredundancy_factor\tedges_gathered\twall_time_ms"
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "4"]
    assert [int(r[1]) for r in rows] == [1, 1, 6]
    assert [int(r[2]) for r in rows] == [120, 120, 168]
    assert [float(r[3]) for r in rows] == [1.0, 1.0, 1.4]
    assert [int(r[4]) for r in rows] == [0, 15, 42]
    for r in rows:
        assert float(r[5]) >= 0.0


def test_bench_output_file(tmp_path, capsys):
    dest = tmp_path / "bench.tsv"
    code, out, _ = run(
        ["bench", "--n", "8", "--dim", "2", "--partitions-list", "2",
         "--workers", "1", "--output", str(dest)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert dest.read_text(encoding="utf-8").startswith("k\ttasks")


@pytest.mark.parametrize(
    "argv, files",
    [
        (["mst", "--output", "e", "--stats", "s"], ["e", "s"]),
        (["verify", "--trials", "1", "--output", "e", "--stats", "s"], ["e", "s"]),
        (["dendrogram", "--output", "e", "--dendro-output", "t", "--stats", "s"], ["e", "t", "s"]),
        (["bench", "--n", "8", "--dim", "2", "--partitions-list", "2", "--output", "b"], ["b"]),
    ],
)
def test_every_file_goes_through_one_text_writer_call(square_csv, tmp_path, monkeypatch, capsys, argv, files):
    real = geomst.io._write_text
    written = []

    def record(path, text):
        written.append(path)
        real(path, text)

    monkeypatch.setattr(geomst.io, "_write_text", record)
    monkeypatch.setattr(cli, "_write_text", record)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    argv += ["--workers", "1"] + ([] if argv[0] == "bench" else ["--input", square_csv])
    assert run(argv, capsys)[0] == 0
    assert [str(p) for p in written] == [str(tmp_path / f) for f in files]
    assert all((tmp_path / f).stat().st_size > 0 for f in files)


@pytest.mark.parametrize("merge", MERGE_STRATEGIES)
def test_stats_file_shows_each_combine_input_size(square_csv, tmp_path, capsys, merge):
    dest = tmp_path / "stats.txt"
    argv = ["mst", "--input", square_csv, "--partitions", "4", "--merge", merge, "--stats", str(dest)]
    assert run(argv, capsys)[0] == 0
    stats = dict(line.split("=", 1) for line in dest.read_text(encoding="utf-8").splitlines())
    points = geomst.read_points(square_csv)
    _, want = geomst.decomposed_mst(points, Metric("euclidean"), geomst.make_partition(5, 4), merge, 1)
    assert stats["combine_input_sizes"] == ",".join(map(str, want.combine_input_sizes))
    assert (stats["combine_input_sizes"] != "") == (merge == "reduce")


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--n", "1", "--dim", "2"],
        ["bench", "--n", "8", "--dim", "2", "--partitions-list", "1,x"],
        ["bench", "--n", "8", "--dim", "2", "--partitions-list", "16"],
    ],
)
def test_bench_rejects_bad_requests(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("ks, bad", [("1,8", 8), ("8,1", 8), ("2,0", 0)])
def test_bench_checks_every_block_count_before_any_work(ks, bad, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bench worked before checking every block count")

    monkeypatch.setattr(cli, "generate_instance", refuse)
    monkeypatch.setattr(cli, "decomposed_mst", refuse)
    code, out, err = run(["bench", "--n", "5", "--dim", "2", "--partitions-list", ks], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: block count must be an integer in 1..5, got {bad}\n"


def test_dendrogram_writes_merges_and_edges(points_csv, tmp_path, capsys):
    edges = tmp_path / "edges.tsv"
    dendro = tmp_path / "dendro.tsv"
    code, out, _ = run(
        [
            "dendrogram",
            "--input",
            points_csv,
            "--workers",
            "1",
            "--output",
            str(edges),
            "--dendro-output",
            str(dendro),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert edges.read_text(encoding="utf-8") == COLLINEAR_EDGES
    assert dendro.read_text(encoding="utf-8") == "0\t0\t1\t1.0\t2\n1\t3\t2\t2.0\t3\n"


def test_dendrogram_on_empty_vecbin_is_a_data_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "empty.vecbin"
    write_points(PointSet(np.empty((0, 3))), str(path))
    dendro = tmp_path / "dendro.tsv"
    argv = ["dendrogram", "--input", str(path), "--dendro-output", str(dendro)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert str(path) in err and out == "" and not dendro.exists()


def test_dendrogram_requires_dendro_output(points_csv, capsys):
    code, _, err = run(["dendrogram", "--input", points_csv], capsys)
    assert code == 1
    assert "--dendro-output" in err


def test_unwritable_output_is_a_data_error(points_csv, tmp_path, capsys):
    dest = tmp_path / "no" / "such" / "dir" / "edges.tsv"
    code, _, err = run(
        ["mst", "--input", points_csv, "--workers", "1", "--output", str(dest)], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_domain_error_in_a_worker_exits_2(tmp_path, capsys):
    coords = generate_instance(15, 30, 3, "gaussian").coords.copy()
    coords[17] = 0.0
    path = tmp_path / "zero.csv"
    write_points(PointSet(coords), str(path))
    argv = ["mst", "--input", str(path), "--metric", "cosine_distance"]
    code, out, err = run(argv + ["--partitions", "3", "--workers", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "point id 17)" in err
    assert no_child_processes()


def test_a_multi_mb_csv_gives_the_same_files_with_one_worker_and_two(tmp_path, monkeypatch, capsys):
    path = tmp_path / "points.csv"
    write_points(generate_instance(7, 1000, 300, "gaussian"), str(path))
    assert path.stat().st_size > 5_000_000  # its estimated parse time repays a second process
    run_forked, ranges = geomst.io._run_forked, []
    monkeypatch.setattr(geomst.io, "_run_forked", lambda jobs: ranges.append(len(jobs)) or run_forked(jobs))
    counters = ("distance_evals", "edges_gathered", "tasks_executed", "combine_input_sizes", "n", "d", "k")
    written = []
    for workers in ("1", "2"):
        out = [tmp_path / f"{name}-{workers}.tsv" for name in ("edges", "merges", "stats")]
        flags = ["--workers", workers, "--partitions", "4", "--merge", "reduce", "--stats", str(out[2])]
        argv = ["dendrogram", "--input", str(path), "--output", str(out[0]), "--dendro-output", str(out[1])]
        assert run(argv + flags, capsys)[0] == 0
        stats = dict(line.split("=", 1) for line in out[2].read_text(encoding="utf-8").splitlines())
        written.append((out[0].read_bytes(), out[1].read_bytes(), [stats[key] for key in counters]))
    assert ranges == [1, 2]
    assert written[0] == written[1]
    assert no_child_processes()


def test_no_edge_object_is_built_from_kernel_to_file(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("an EdgeList was iterated edge by edge")

    monkeypatch.setattr(geomst.EdgeList, "__iter__", refuse)
    with pytest.raises(AssertionError):
        geomst.EdgeList([0], [1], [1.0]).edges
    path = tmp_path / "points.csv"
    write_points(generate_instance(3, 40, 3, "clustered(3)"), str(path))
    base = ["--input", str(path), "--partitions", "3"]
    for merge, workers in (("gather", "1"), ("reduce", "1"), ("reduce", "2")):
        flags = base + ["--merge", merge, "--workers", workers]
        assert run(["mst"] + flags, capsys)[0] == 0
        dendro = ["--dendro-output", str(tmp_path / "dendro.tsv")]
        assert run(["dendrogram"] + flags + dendro, capsys)[0] == 0
    code, out, _ = run(["verify"] + base + ["--workers", "1", "--trials", "3"], capsys)
    assert code == 0 and out.count("PASS") == 4


def test_overflowing_distance_is_a_data_error(tmp_path):
    # Point 5 lies 3e154 from the others: its squared distances overflow,
    # and the tree needs one of them.
    coords = np.zeros((6, 2))
    coords[:5, 0] = np.arange(5.0)
    coords[5, 0] = 3e154
    path = tmp_path / "huge.csv"
    write_points(PointSet(coords), str(path))
    base = ["geomst", "mst", "--input", str(path), "--partitions", "3"]
    for argv in (base + ["--workers", "1"], base + ["--workers", "2"]):
        done = _python_m(argv, tmp_path)
        assert done.returncode == 2, done.stderr
        assert "distance between points 0 and 5 is inf" in done.stderr
        assert "RuntimeWarning" not in done.stderr
    argv = ["geomst", "verify", "--input", str(path), "--workers", "1"]
    done = _python_m(argv, tmp_path)
    assert done.returncode == 2 and "points 0 and 5" in done.stderr
    assert "RuntimeWarning" not in done.stderr


def test_verify_passes_where_only_a_pair_outside_the_tree_overflows(tmp_path):
    # 0 and 2e154 overflow when squared, but the tree joins both through 1e154;
    # the default 20 subset trials include the subset {0, 2}. With three
    # blocks the task of blocks 0 and 2 has only that pair: its forest is
    # empty, and the merge still finds the tree.
    pts = PointSet([[0.0], [1e154], [2e154]])
    path = tmp_path / "wide.csv"
    write_points(pts, str(path))
    expected = format_edges(oracle_mst(pts, Metric("euclidean")))
    for k, merge, workers in itertools.product("123", MERGE_STRATEGIES, "12"):
        args = ["--partitions", k, "--merge", merge, "--workers", workers]
        done = _python_m(["geomst", "mst", "--input", str(path), *args], tmp_path)
        assert (done.returncode, done.stdout) == (0, expected), (k, merge, workers, done.stderr)
    for k in ([], ["--partitions", "3"]):
        done = _python_m(["geomst", "verify", "--input", str(path), "--workers", "1", *k], tmp_path)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 21 and all(line.startswith("PASS ") for line in lines)
        assert done.stderr == ""


def _python_m(args, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(geomst.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


def test_python_dash_m_runs_the_command_line(points_csv, tmp_path):
    shown = _python_m(["geomst", "--help"], tmp_path)
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage: geomst")
    for module in ("geomst", "geomst.cli"):
        done = _python_m([module, "mst", "--input", points_csv, "--workers", "1"], tmp_path)
        assert (done.returncode, done.stdout) == (0, COLLINEAR_EDGES), module
    bad = _python_m(["geomst", "frobnicate"], tmp_path)
    assert bad.returncode == 1
    assert bad.stderr.startswith("error:")


def _allocate_too_much():
    np.empty((10**7, 10**7))  # 728 TiB, beyond any address space


OUT_OF_MEMORY = r"out of memory: Unable to allocate 728\. TiB for an array with shape \(10000000, 10000000\) .*"


@pytest.mark.parametrize(
    "in_child, die, message",
    [
        (False, _allocate_too_much, OUT_OF_MEMORY),
        (True, _allocate_too_much, OUT_OF_MEMORY),
        (True, lambda: os.kill(os.getpid(), 9), r"worker process \d+ ended without reporting: killed by signal 9 \(Killed\)"),
        (True, lambda: os._exit(4), r"worker process \d+ ended without reporting: exited with status 4"),
    ],
)
def test_running_out_of_memory_or_losing_a_worker_exits_two_with_one_line(
    in_child, die, message, tmp_path, monkeypatch, capsys, forking
):
    # A MemoryError in this process's own share or in a child's, and a child
    # that ends without reporting, are classified errors: no traceback.
    parent = os.getpid()
    solve = geomst.decompose.lockstep_mst

    def patched(*args):
        if in_child == (os.getpid() != parent):
            die()
        return solve(*args)

    monkeypatch.setattr(geomst.decompose, "lockstep_mst", patched)
    path = tmp_path / "points.vecbin"
    write_points(generate_instance(4, 30, 3, "gaussian"), str(path))
    code, out, err = run(["mst", "--input", str(path), "--partitions", "3", "--workers", "2"], capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(f"error: {message}\n", err)
    assert no_child_processes()


# Run in a child process, which limits its own address space. With glibc's
# mmap threshold fixed, every array from 128 KiB up is mapped on its own and
# unmapped when freed, so VmSize follows the live arrays. The 3000 x 768
# points take 17.6 MiB and the task's Gram 68.7 MiB. 78 MiB above VmSize
# holds the command's own arrays on the gemv path (a copy of the points, the
# working copy, a step's gathered rows and their differences: at most 70.3
# MiB) but not the working copy and the Gram (86.3 MiB), so the task and
# the command fall back to the gemv; 8 MiB holds no copy of the points.
_UNDER_AN_ADDRESS_SPACE_LIMIT = r"""
import contextlib, io, json, resource, sys
import geomst.cli as cli
import geomst.dense as dense
import numpy as np
from geomst import Metric, dense_mst, format_edges, read_points

path, dest = sys.argv[1:]
points = read_points(path, workers=1)
grams = []
real_gram = dense._scaled_gram
def recording(work, scale):
    try:
        gram = real_gram(work, scale)
    except MemoryError:
        grams.append("failed")
        raise
    grams.append("made")
    return gram
dense._scaled_gram = recording
np.ones((600, 600)) @ np.ones((600, 600)) @ np.ones(600)  # OpenBLAS maps its buffers before any limit

def limited(extra):
    with open("/proc/self/status") as status:
        size = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:"))
    resource.setrlimit(resource.RLIMIT_AS, (size + extra, resource.RLIM_INFINITY))

def command():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["mst", "--input", path, "--output", dest, "--partitions", "1", "--workers", "1"])
    return code, err.getvalue()

report = {}
limited(78 * 2**20)
report["task"] = format_edges(dense_mst(points, Metric("euclidean")))
limited(78 * 2**20)
report["command"] = command()
limited(8 * 2**20)
report["starved"] = command()
report["limited_grams"] = list(grams)
resource.setrlimit(resource.RLIMIT_AS, (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
grams.clear()
report["unlimited"] = format_edges(dense_mst(points, Metric("euclidean")))
report["unlimited_grams"] = grams
print(json.dumps(report))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's /proc/self/status")
def test_a_gram_beyond_the_address_space_limit_falls_back_and_less_memory_exits_two(tmp_path):
    # One Gram of the 3000-point task is 3000 * 3000 doubles, 68.7 MiB.
    path, dest = tmp_path / "points.vecbin", tmp_path / "edges.tsv"
    write_points(generate_instance(3, 3000, 768, "gaussian"), str(path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(geomst.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_="131072")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _UNDER_AN_ADDRESS_SPACE_LIMIT, str(path), str(dest)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["unlimited_grams"] == ["made"]
    assert report["limited_grams"] == ["failed", "failed"]
    assert report["task"] == report["unlimited"]
    assert report["command"] == [0, ""]
    assert dest.read_text() == report["unlimited"]
    code, err = report["starved"]
    assert code == 2
    assert re.fullmatch(r"error: out of memory: Unable to allocate [^\n]* with shape [^\n]*\n", err)
