"""Single-linkage dendrograms derived from minimum spanning trees.

Processing MST edges in ascending (weight, u, v) order is exactly
single-linkage agglomeration: each edge merges the two clusters containing
its endpoints at a height equal to its weight. Leaves are clusters 0..n-1
and the merge at step t creates cluster n+t, so the record layout matches
the usual linkage conventions. That is Kruskal's union history as merges()
reports it, whose roots are these cluster ids, so the dendrogram is four
arrays read straight off one scan.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .graph import EdgeList, _root, merges


class Dendrogram:
    """Merge history over count leaves as read-only arrays, count-1 steps, one root.

    Step t merges clusters a[t] and b[t] (int64) at height[t] (float64) into
    cluster count+t of size[t] (int64) leaves. The constructor checks that
    every cluster is created before it is merged and merged at most once,
    that heights are finite and non-decreasing, and that sizes add up.
    """

    __slots__ = ("count", "a", "b", "height", "size")

    def __init__(self, count: int, a=(), b=(), height=(), size=()):
        n = self.count = int(count)
        a, b, size = (np.array(x, dtype=np.int64) for x in (a, b, size))
        height = np.array(height, dtype=np.float64)
        if n < 1:
            raise UsageError("a dendrogram needs at least one leaf")
        if a.ndim != 1 or not a.shape == b.shape == height.shape == size.shape:
            raise UsageError("a, b, height and size must be flat arrays of one length")
        if len(a) != n - 1:
            raise UsageError(f"{n} leaves require {n - 1} merge steps, got {len(a)}")
        ids = np.stack((a, b), axis=1).ravel()  # step t's clusters at 2t and 2t+1
        step = np.arange(ids.size) // 2
        bad = np.flatnonzero((ids < 0) | (ids >= n + step))
        if bad.size:
            raise UsageError(f"step {step[bad[0]]} merges an unknown cluster {ids[bad[0]]}")
        twice = np.flatnonzero(np.bincount(ids, minlength=1) > 1)
        if twice.size:
            raise UsageError(f"cluster {twice[0]} is merged more than once")
        bad = np.flatnonzero(~np.isfinite(height))
        if bad.size:
            raise UsageError(f"merge height must be finite, got {float(height[bad[0]])!r}")
        if (np.diff(height) < 0).any():
            raise UsageError("merge heights must be non-decreasing")
        sizes = np.concatenate((np.ones(n, dtype=np.int64), size))
        bad = np.flatnonzero(size != sizes[a] + sizes[b])
        if bad.size:
            raise UsageError(f"step {bad[0]} records size {size[bad[0]]}, members say otherwise")
        self.a, self.b, self.height, self.size = a, b, height, size
        for arr in (a, b, height, size):
            arr.setflags(write=False)

    def __reduce__(self):
        # Unpickling runs the constructor, so a copy is checked and read-only.
        return Dendrogram, (self.count, self.a, self.b, self.height, self.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dendrogram):
            return NotImplemented
        fields = ("count", "a", "b", "height", "size")
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)

    def cut(self, height: float) -> list:
        """Flat clusters after applying every merge with height <= the cut.

        Returns leaf-index lists, each ascending, ordered by first member.
        Equals the connected components of the MST restricted to edges of
        weight <= height, including at tie heights. A NaN height is a
        UsageError: no merge height is <= NaN, yet a search would place NaN last.
        """
        if np.isnan(height):
            raise UsageError("cut height must not be NaN")
        n = self.count
        k = int(np.searchsorted(self.height, height, "right"))
        parent = list(range(n + k))
        for t, a, b in zip(range(n, n + k), self.a[:k].tolist(), self.b[:k].tolist()):
            parent[a] = parent[b] = t
        blocks = {}
        for x in range(n):
            blocks.setdefault(_root(parent, x), []).append(x)
        return list(blocks.values())


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
    steps = merges(tree.u, tree.v)
    if len(steps) < n - 1:
        raise UsageError("edge list contains a cycle; not a spanning tree")
    # n-1 edges that all merge touch every vertex, so merges' compacted ids are the vertices.
    a, b = [s[1] for s in steps], [s[2] for s in steps]
    sizes = [1] * n
    for ca, cb in zip(a, b):
        sizes.append(sizes[ca] + sizes[cb])
    return Dendrogram(n, a, b, tree.w, sizes[n:])
