"""Single-linkage dendrograms derived from minimum spanning trees.

Processing MST edges in ascending (weight, u, v) order is exactly
single-linkage agglomeration: each edge merges the two clusters containing
its endpoints at a height equal to its weight. Leaves are clusters 0..n-1
and the merge at step t creates cluster n+t, so the record layout matches
the usual linkage conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError
from .graph import EdgeList, UnionFind


@dataclass(frozen=True)
class MergeStep:
    cluster_a: int
    cluster_b: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """Complete merge history over count leaves: count-1 steps, one root."""

    count: int
    steps: tuple

    def __post_init__(self):
        n = self.count
        steps = tuple(self.steps)
        if n < 1:
            raise UsageError("a dendrogram needs at least one leaf")
        if len(steps) != n - 1:
            raise UsageError(f"{n} leaves require {n - 1} merge steps, got {len(steps)}")
        sizes = {c: 1 for c in range(n)}
        last = None
        for t, s in enumerate(steps):
            if s.cluster_a not in sizes or s.cluster_b not in sizes:
                raise UsageError(f"step {t} merges a consumed or unknown cluster")
            if last is not None and s.height < last:
                raise UsageError("merge heights must be non-decreasing")
            if s.size != sizes[s.cluster_a] + sizes[s.cluster_b]:
                raise UsageError(f"step {t} records size {s.size}, members say otherwise")
            last = s.height
            sizes[n + t] = sizes.pop(s.cluster_a) + sizes.pop(s.cluster_b)
        object.__setattr__(self, "steps", steps)

    def heights(self) -> list[float]:
        return [s.height for s in self.steps]

    def cut(self, height: float) -> list:
        """Flat clusters after applying every merge with height <= the cut.

        Returns leaf-index lists, each ascending, ordered by first member.
        Equals the connected components of the MST restricted to edges of
        weight <= height, including at tie heights.
        """
        members = {c: [c] for c in range(self.count)}
        for t, s in enumerate(self.steps):
            if s.height > height:
                break
            members[self.count + t] = members.pop(s.cluster_a) + members.pop(s.cluster_b)
        blocks = [sorted(m) for m in members.values()]
        blocks.sort(key=lambda b: b[0])
        return blocks


def mst_to_dendrogram(tree: EdgeList, n: int) -> Dendrogram:
    """Agglomerate a spanning tree on vertices 0..n-1 into its dendrogram.

    Edges are replayed in the EdgeList's (weight, u, v) order; ties therefore
    merge in a fixed, reproducible order and cluster ids follow step order.
    Forests are rejected: a dendrogram has exactly one root.
    """
    if n < 1:
        raise UsageError("a dendrogram needs at least one leaf")
    if len(tree) != n - 1:
        raise UsageError(f"a spanning tree on {n} vertices has {n - 1} edges, got {len(tree)}")
    tree.check_range(n)
    uf = UnionFind(n)
    cluster_at = list(range(n))
    sizes = {c: 1 for c in range(n)}
    steps = []
    for t, (u, v, w) in enumerate(tree.triples()):
        ra, rb = uf.find(u), uf.find(v)
        if ra == rb:
            raise UsageError("edge list contains a cycle; not a spanning tree")
        ca, cb = cluster_at[ra], cluster_at[rb]
        size = sizes.pop(ca) + sizes.pop(cb)
        steps.append(MergeStep(ca, cb, w, size))
        uf.union(ra, rb)
        r = uf.find(ra)
        cluster_at[r] = n + t
        sizes[n + t] = size
    return Dendrogram(n, tuple(steps))
