"""The closed-form counters and the output checks the benchmark relies on."""

import pytest
from geomst import Metric, decomposed_mst, generate_instance, make_partition, oracle_mst
from geomst.cli import main as cli

from checks import (
    block_sizes,
    check_dendrogram,
    check_tree,
    expected_counters,
    reference_mst,
    run_problems,
)
from run import Tally
from workloads import Files, Workload


@pytest.mark.parametrize(
    "n, k, merge",
    [(13, 1, "gather"), (13, 2, "reduce"), (17, 3, "gather"), (17, 3, "reduce"),
     (23, 4, "reduce"), (30, 5, "reduce"), (31, 6, "gather"), (40, 7, "reduce"), (41, 8, "reduce")],
)
def test_expected_counters_match_decomposed_mst(n, k, merge):
    points = generate_instance(7, n, 3, "gaussian")
    _, stats = decomposed_mst(points, Metric("euclidean"), make_partition(n, k), merge, workers=1)
    got = {key: getattr(stats, key) for key in ("tasks_executed", "distance_evals", "edges_gathered")}
    assert expected_counters(block_sizes(n, k), merge) == got


def test_expected_counters_equal_the_paper_forms_for_equal_blocks():
    n, k = 48, 6
    m = 2 * n // k
    got = expected_counters(block_sizes(n, k), "gather")
    assert got["distance_evals"] == k * (k - 1) // 2 * m * (m - 1) // 2
    assert got["edges_gathered"] == k * (k - 1) // 2 * (m - 1) <= n * (k - 1)


@pytest.mark.parametrize("metric, distribution", [("euclidean", "uniform_cube"), ("manhattan", "clustered(3)")])
def test_reference_mst_agrees_with_the_oracle(metric, distribution):
    points = generate_instance(3, 90, 4, distribution)
    pairs, weights = reference_mst(points.coords, metric)
    tree = oracle_mst(points, Metric(metric))
    assert pairs == {(e.u, e.v) for e in tree}
    assert all(weights[(e.u, e.v)] == pytest.approx(e.w, rel=1e-12) for e in tree)


TINY = {
    "mst": Workload("tiny_mst", "mst", 50, 2, "uniform_cube", "euclidean", 4, "vecbin"),
    "dendrogram": Workload("tiny_dendro", "dendrogram", 40, 8, "gaussian", "euclidean", 3, "csv", merge="reduce"),
    "verify": Workload("tiny_verify", "verify", 30, 4, "clustered(3)", "manhattan", 3, "vecbin", trials=2),
}


def run_cli(wl, tmp_path, capsys, workers=1):
    from workloads import write_input

    files = Files.under(tmp_path, wl)
    points = write_input(wl, 5, files.input)
    capsys.readouterr()
    code = cli(wl.argv(files, workers))
    return files, points, code, capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(TINY))
def test_correct_cli_outputs_pass_every_check(command, tmp_path, capsys):
    wl = TINY[command]
    files, points, code, out = run_cli(wl, tmp_path, capsys)
    expected = expected_counters(block_sizes(wl.n, wl.k), wl.merge)
    reference = reference_mst(points.coords, wl.metric)
    assert run_problems(wl, files, code, out, reference, expected) == []
    golden = [p.read_bytes() for p in wl.outputs(files)]
    files, _, code, out = run_cli(wl, tmp_path, capsys, workers=3)
    assert run_problems(wl, files, code, out, reference, expected, golden) == []


def _swap_first_two_lines(text):
    a, b, *rest = text.splitlines(keepends=True)
    return "".join([b, a, *rest])


CORRUPTIONS = [
    ("mst", "edges", lambda t: t.replace("\t0.", "\t1.", 1)),  # a wrong weight
    ("mst", "edges", lambda t: "".join(t.splitlines(keepends=True)[:-1])),  # an edge lost
    ("mst", "edges", _swap_first_two_lines),  # out of order
    ("mst", "stats", lambda t: t.replace("distance_evals=", "distance_evals=1", 1)),
    ("dendrogram", "dendro", lambda t: "".join(t.splitlines(keepends=True)[1:])),
    ("dendrogram", "dendro", lambda t: t.replace("\t2\n", "\t3\n", 1)),  # a wrong cluster size
]


@pytest.mark.parametrize("command, target, corrupt", CORRUPTIONS)
def test_a_corrupted_output_counts_as_a_failed_run(command, target, corrupt, tmp_path, capsys):
    wl = TINY[command]
    files, points, code, out = run_cli(wl, tmp_path, capsys)
    expected = expected_counters(block_sizes(wl.n, wl.k), wl.merge)
    reference = reference_mst(points.coords, wl.metric)
    path = getattr(files, target)
    text = path.read_text()
    assert corrupt(text) != text
    golden = [p.read_bytes() for p in wl.outputs(files)]
    path.write_text(corrupt(text))
    tally = Tally()
    tally.add(run_problems(wl, files, code, out, reference, expected))
    tally.add(run_problems(wl, files, code, out, reference, expected, golden))
    assert (tally.attempted, tally.failed) == (2, 2)


def test_a_failing_verify_or_exit_code_counts_as_a_failed_run(tmp_path, capsys):
    wl = TINY["verify"]
    files, points, code, out = run_cli(wl, tmp_path, capsys)
    expected = expected_counters(block_sizes(wl.n, wl.k), wl.merge)
    reference = reference_mst(points.coords, wl.metric)
    assert run_problems(wl, files, code, out, reference, expected) == []
    assert run_problems(wl, files, code, out.replace("PASS", "FAIL", 1), reference, expected)
    assert run_problems(wl, files, 3, out, reference, expected)


def test_tree_and_dendrogram_checks_reject_structural_damage():
    tree = "0\t1\t1.0\n1\t2\t2.0\n"
    assert check_tree(tree, 3) == []
    assert check_tree(tree, 4)  # does not span
    assert check_tree("0\t1\t1.0\n0\t1\t2.0\n", 3)  # cycle
    assert check_tree("1\t0\t1.0\n1\t2\t2.0\n", 3)  # u > v
    assert check_dendrogram("0\t0\t1\t1.0\t2\n1\t3\t2\t2.0\t3\n", tree, 3) == []
    assert check_dendrogram("0\t0\t1\t1.0\t2\n1\t3\t2\t2.0\t4\n", tree, 3)
    assert check_dendrogram("0\t0\t1\t1.0\t2\n1\t0\t2\t2.0\t3\n", tree, 3)
