"""Output checks: what a correct run of each workload must produce.

Each check returns a list of problems, empty when the output is correct, so a
caller can count a failed run and still say why it failed. The reference tree
is computed here with numpy alone, independently of the package, and the
expected counters come from the closed forms for the actual block sizes.
"""

from __future__ import annotations

import math

import numpy as np


def block_sizes(n: int, k: int) -> list[int]:
    """Sizes of the k contiguous blocks: equal, with the remainder on the first ones."""
    base, extra = divmod(n, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def expected_counters(sizes: list[int], merge: str) -> dict[str, int]:
    """tasks_executed, distance_evals and edges_gathered for these block sizes.

    One task per block pair evaluates every pair of its s = |S_i| + |S_j|
    points once and returns s - 1 tree edges. gather feeds all task trees to
    one merge. reduce combines the task trees pairwise, level by level in
    block-pair order with an odd tree carried up; every combine is fed the
    edges of both inputs, and its output is a spanning forest with one edge
    fewer than its points per connected group of blocks.
    """
    k = len(sizes)
    if k == 1:
        n = sizes[0]
        return {"tasks_executed": 1, "distance_evals": n * (n - 1) // 2, "edges_gathered": 0}
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    evals = sum((sizes[i] + sizes[j]) * (sizes[i] + sizes[j] - 1) // 2 for i, j in pairs)
    if merge == "gather":
        gathered = sum(sizes[i] + sizes[j] - 1 for i, j in pairs)
    else:
        gathered = 0
        level = [[p] for p in pairs]
        while len(level) > 1:
            combined = [left + right for left, right in zip(level[::2], level[1::2])]
            gathered += sum(_forest_edges(sizes, node) for node in level[: 2 * len(combined)])
            if len(level) % 2:
                combined.append(level[-1])
            level = combined
    return {"tasks_executed": len(pairs), "distance_evals": evals, "edges_gathered": gathered}


def _forest_edges(sizes: list[int], block_pairs: list[tuple[int, int]]) -> int:
    """Edges of the spanning forest over the blocks that these block pairs join."""
    parent = {}

    def find(b):
        parent.setdefault(b, b)
        while parent[b] != b:
            b = parent[b]
        return b

    for i, j in block_pairs:
        parent[find(i)] = find(j)
    blocks = list(parent)
    groups = {find(b) for b in blocks}
    return sum(sizes[b] for b in blocks) - len(groups)


def parse_edges(text: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(u, v) int arrays and the weight fields, as written, of an edge TSV."""
    us, vs, ws = [], [], []
    for line in text.splitlines():
        u, v, w = line.split("\t")
        us.append(int(u))
        vs.append(int(v))
        ws.append(w)
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), ws


def check_tree(text: str, n: int) -> list[str]:
    """The edge TSV is a spanning tree of 0..n-1, sorted by (weight, u, v)."""
    try:
        us, vs, ws = parse_edges(text)
        weights = [float(w) for w in ws]
    except ValueError as exc:
        return [f"edge TSV does not parse: {exc}"]
    problems = []
    if len(ws) != n - 1:
        problems.append(f"tree has {len(ws)} edges, expected {n - 1}")
    if not all(math.isfinite(w) for w in weights):
        problems.append("a weight is not finite")
    if us.size and not ((us >= 0).all() and (us < vs).all() and (vs < n).all()):
        problems.append("an edge is not written as u < v within 0..n-1")
    keys = list(zip(weights, us.tolist(), vs.tolist()))
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("edges are not strictly ascending in (weight, u, v)")
    if not problems:
        root = list(range(n))

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for u, v in zip(us.tolist(), vs.tolist()):
            ru, rv = find(u), find(v)
            if ru == rv:
                problems.append(f"edge ({u}, {v}) closes a cycle")
                break
            root[ru] = rv
    return problems


def reference_mst(coords: np.ndarray, metric: str) -> tuple[set, dict]:
    """Edge pairs and weights of the MST, by a plain numpy Prim over all pairs.

    Prim picks edges by Euclidean distances from the Gram identity, which
    are off by about 1e-16 in the squared distance; random inputs have no
    near-ties at that scale, so the edge set is still the unique one. The
    weights returned are recomputed from coordinate differences.
    """
    n = len(coords)
    if metric == "euclidean":
        sq = np.einsum("ij,ij->i", coords, coords)

        def dist(i):
            return np.sqrt(np.maximum(sq + sq[i] - 2.0 * (coords @ coords[i]), 0.0))
    elif metric == "manhattan":

        def dist(i):
            return np.abs(coords - coords[i]).sum(axis=1)
    else:
        raise ValueError(f"no reference distance for {metric!r}")
    done = np.zeros(n, dtype=bool)
    done[0] = True
    best = dist(0)
    best[0] = np.inf
    src = np.zeros(n, dtype=np.int64)
    pairs = []
    for _ in range(n - 1):
        q = int(np.argmin(best))
        pairs.append((min(int(src[q]), q), max(int(src[q]), q)))
        done[q] = True
        best[q] = np.inf
        fresh = dist(q)
        better = (fresh < best) & ~done
        best[better] = fresh[better]
        src[better] = q
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    diff = coords[u] - coords[v]
    exact = np.sqrt((diff * diff).sum(axis=1)) if metric == "euclidean" else np.abs(diff).sum(axis=1)
    weights = dict(zip(pairs, exact.tolist()))
    return set(weights), weights


def check_against_reference(text: str, reference: tuple[set, dict], rel: float = 1e-9) -> list[str]:
    """The tree has the reference's edges, with weights equal to within rel."""
    pairs, weights = reference
    us, vs, ws = parse_edges(text)
    got = dict(zip(zip(us.tolist(), vs.tolist()), (float(w) for w in ws)))
    if set(got) != pairs:
        return [f"{len(set(got) ^ pairs)} edges differ from the reference MST"]
    off = [p for p, w in got.items() if abs(w - weights[p]) > rel * max(abs(weights[p]), 1e-300)]
    return [f"{len(off)} weights differ from the reference distances"] if off else []


def check_stats(text: str, expected: dict[str, int]) -> list[str]:
    """The --stats counters equal the closed forms."""
    values = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    return [
        f"{key}={values.get(key)} but the closed form gives {want}"
        for key, want in expected.items()
        if values.get(key) != str(want)
    ]


def check_dendrogram(text: str, tree_text: str, n: int) -> list[str]:
    """n-1 merge steps, at the tree's weights in order, ending in one cluster of n."""
    lines = text.splitlines()
    if len(lines) != n - 1:
        return [f"dendrogram has {len(lines)} steps, expected {n - 1}"]
    _, _, weights = parse_edges(tree_text)
    size = {c: 1 for c in range(n)}
    for t, line in enumerate(lines):
        fields = line.split("\t")
        try:
            a, b, s = int(fields[1]), int(fields[2]), int(fields[4])
        except (IndexError, ValueError):
            return [f"dendrogram step {t} is malformed"]
        if len(fields) != 5 or fields[0] != str(t):
            return [f"dendrogram step {t} is malformed"]
        if fields[3] != weights[t]:
            return [f"dendrogram step {t} height {fields[3]} is not tree weight {weights[t]}"]
        if a not in size or b not in size or size[a] + size[b] != s:
            return [f"dendrogram step {t} merges unknown clusters or records a wrong size"]
        size[n + t] = size.pop(a) + size.pop(b)
    return [] if list(size.values()) == [n] else ["dendrogram does not end in one cluster"]


def check_verify_output(stdout: str, trials: int) -> list[str]:
    """verify printed one PASS line per check and nothing else."""
    lines = stdout.splitlines()
    if len(lines) != 1 + trials:
        return [f"verify printed {len(lines)} lines, expected {1 + trials}"]
    bad = [line for line in lines if not line.startswith("PASS ")]
    return [f"verify reported: {bad[0]}"] if bad else []


def run_problems(wl, files, returncode: int, stdout: str, reference, expected, golden=None) -> list[str]:
    """Everything wrong with one CLI run of workload wl.

    Without golden, the run's files get every check above. With golden, the
    bytes of an earlier run that passed them, the files must equal those
    bytes and the counters must still match.
    """
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    if wl.command == "verify":
        problems += check_verify_output(stdout, wl.trials)
    try:
        problems += check_stats(files.stats.read_text(encoding="utf-8"), expected)
        if golden is not None:
            return problems + [
                f"{path.name} differs from the first run"
                for path, want in zip(wl.outputs(files), golden)
                if path.read_bytes() != want
            ]
        edges = files.edges.read_text(encoding="utf-8")
        dendro = files.dendro.read_text(encoding="utf-8") if wl.command == "dendrogram" else None
    except OSError as exc:
        return problems + [f"output missing: {exc}"]
    return problems + _tree_problems(wl, edges, dendro, reference)


def pipeline_problems(wl, out, reference, expected) -> list[str]:
    """Everything wrong with one in-process pass (layers.Outputs) of workload wl."""
    problems = _tree_problems(wl, out.edges, out.dendro, reference)
    if out.edges_1w != out.edges:
        problems.append("one worker and all workers give different trees")
    got = {key: getattr(out.stats, key) for key in expected}
    if got != expected:
        problems.append(f"counters {got} differ from the closed forms {expected}")
    if wl.command == "verify" and not (out.oracle_agrees and all(out.subset_checks)):
        problems.append("the oracle or a subset check disagrees")
    return problems


def _tree_problems(wl, edges: str, dendro: str | None, reference) -> list[str]:
    problems = check_tree(edges, wl.n)
    if problems:
        return problems
    problems = check_against_reference(edges, reference)
    if wl.command == "dendrogram":
        problems += check_dendrogram(dendro, edges, wl.n)
    return problems
