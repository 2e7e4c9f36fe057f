"""Shared independent oracles and helpers for the test suite.

Everything here deliberately uses different algorithms and data layouts than
the package (repeated-scan Prim over adjacency lists, Lance-Williams
agglomeration on a distance matrix) so that agreement is evidence, not an
identity.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np
from hypothesis import settings

from geomst import Edge, edge_key

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def no_child_processes() -> bool:
    """True iff this process has no child process, running or unreaped, of any kind."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def keys(tree) -> list[tuple]:
    """Canonical sorted (w, u, v) key list of an edge collection."""
    return sorted(edge_key(e) for e in tree)


def as_tuples(edges):
    out = []
    for e in edges:
        if isinstance(e, Edge):
            out.append((e.u, e.v, e.w))
        else:
            out.append(tuple(e))
    return out


def prim_msf(edges, n: int) -> list[tuple]:
    """MSF of an explicit sparse graph by repeated-scan Prim, per component.

    Tie-break mirrors the package's (w, u, v) total order but shares no code
    with it. Returns sorted canonical keys.
    """
    adj = defaultdict(list)
    for u, v, w in as_tuples(edges):
        adj[u].append((v, w))
        adj[v].append((u, w))
    in_tree = [False] * n
    out = []
    for s in range(n):
        if in_tree[s]:
            continue
        in_tree[s] = True
        component = [s]
        while True:
            best = None
            for x in component:
                for y, w in adj[x]:
                    if in_tree[y]:
                        continue
                    cand = (w, min(x, y), max(x, y))
                    if best is None or cand < best:
                        best = cand
                        best_y = y
            if best is None:
                break
            out.append(best)
            in_tree[best_y] = True
            component.append(best_y)
    return sorted(out)


def pairwise_matrix(points, metric) -> np.ndarray:
    """Dense symmetric distance matrix via the package's scalar entry point."""
    from geomst import distance

    n = points.count
    dm = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dm[i, j] = dm[j, i] = distance(metric, points.coords[i], points.coords[j])
    return dm


def naive_single_linkage(dm: np.ndarray):
    """O(n^3) agglomeration straight off the distance matrix.

    Returns (heights, merges) where merges holds (members_a, members_b, h)
    frozensets in chronological order. No MST involved anywhere.
    """
    n = dm.shape[0]
    cur = dm.astype(float).copy()
    np.fill_diagonal(cur, np.inf)
    alive = np.ones(n, dtype=bool)
    members = {i: frozenset([i]) for i in range(n)}
    heights, merges = [], []
    for _ in range(n - 1):
        sub = np.flatnonzero(alive)
        block = cur[np.ix_(sub, sub)]
        ai, bi = divmod(int(np.argmin(block)), sub.size)
        a, b = sorted((int(sub[ai]), int(sub[bi])))
        h = float(cur[a, b])
        heights.append(h)
        merges.append((members[a], members[b], h))
        row = np.minimum(cur[a], cur[b])
        row[a] = row[b] = np.inf
        cur[a, :] = row
        cur[:, a] = row
        cur[b, :] = np.inf
        cur[:, b] = np.inf
        alive[b] = False
        members[a] = members[a] | members.pop(b)
    return heights, merges


def naive_cut(n: int, merges, h: float) -> set:
    """Flat clusters at height h by replaying the naive merge log."""
    blocks = {frozenset([i]) for i in range(n)}
    for a, b, h0 in merges:
        if h0 > h:
            break
        blocks.remove(a)
        blocks.remove(b)
        blocks.add(a | b)
    return {tuple(sorted(x)) for x in blocks}


def threshold_components(edges, n: int, h: float) -> set:
    """Connected components keeping only edges of weight <= h (plain BFS)."""
    adj = defaultdict(list)
    for u, v, w in as_tuples(edges):
        if w <= h:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * n
    comps = set()
    for s in range(n):
        if seen[s]:
            continue
        queue, comp = [s], []
        seen[s] = True
        while queue:
            x = queue.pop()
            comp.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        comps.add(tuple(sorted(comp)))
    return comps
