"""Edges as three parallel arrays, the (w, u, v) total order, union-find and Kruskal.

The (weight, u, v) lexicographic order is a strict total order on canonical
edges, which makes the minimum spanning forest unique. EdgeList holds every
edge list from the dense kernel to the TSV writer as u, v and w arrays in
that order; Edge is only the per-edge view its iteration hands out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class Edge:
    """Undirected weighted edge on global vertex indices, stored with u < v."""

    u: int
    v: int
    w: float

    def __post_init__(self):
        u, v, w = int(self.u), int(self.v), float(self.w)
        if u == v:
            raise UsageError(f"self-loop edge on vertex {u}")
        if u > v:
            u, v = v, u
        if not math.isfinite(w):
            raise UsageError(f"edge weight must be finite, got {w!r}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)


def edge_key(e: Edge) -> tuple[float, int, int]:
    """Sort key realizing the (w, u, v) total order."""
    return (e.w, e.u, e.v)


class EdgeList:
    """Edges as read-only arrays u (int64), v (int64), w (float64), u < v, in (w, u, v) order.

    The constructor takes the endpoints in either order, rejects self-loops
    and non-finite weights, and sorts with one lexsort, so every EdgeList is
    ordered and two are equal when their arrays are.
    """

    __slots__ = ("u", "v", "w")

    def __init__(self, u=(), v=(), w=()):
        a, b = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if a.ndim != 1 or not a.shape == b.shape == w.shape:
            raise UsageError("u, v and w must be flat arrays of one length")
        loops = np.flatnonzero(a == b)
        if loops.size:
            raise UsageError(f"self-loop edge on vertex {int(a[loops[0]])}")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise UsageError(f"edge weight must be finite, got {float(w[bad[0]])!r}")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((hi, lo, w))
        self.u, self.v, self.w = lo[order], hi[order], w[order]
        for arr in (self.u, self.v, self.w):
            arr.setflags(write=False)

    @classmethod
    def of(cls, edges: Iterable[Edge]) -> EdgeList:
        return cls(*zip(*((e.u, e.v, e.w) for e in edges)))

    @classmethod
    def concat(cls, lists: Sequence[EdgeList]) -> EdgeList:
        """The edges of one or more lists, in one list."""
        return cls(
            np.concatenate([el.u for el in lists]),
            np.concatenate([el.v for el in lists]),
            np.concatenate([el.w for el in lists]),
        )

    def triples(self) -> Iterator[tuple[int, int, float]]:
        """(u, v, w) as Python numbers, in order."""
        return zip(self.u.tolist(), self.v.tolist(), self.w.tolist())

    @property
    def edges(self) -> list[Edge]:
        return list(self)

    def __iter__(self) -> Iterator[Edge]:
        return starmap(Edge, self.triples())

    def __len__(self) -> int:
        return len(self.w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        return all(map(np.array_equal, (self.u, self.v, self.w), (other.u, other.v, other.w)))

    def total_weight(self) -> float:
        return math.fsum(self.w.tolist())

    def check_range(self, n: int) -> None:
        """Raise UsageError naming the first edge with an endpoint outside 0..n-1."""
        bad = np.flatnonzero((self.u < 0) | (self.v >= n))
        if bad.size:
            raise UsageError(f"edge ({self.u[bad[0]]}, {self.v[bad[0]]}) lies outside 0..{n - 1}")


class UnionFind:
    """Disjoint sets over n integer slots, union by rank with path compression."""

    __slots__ = ("parent", "rank")

    def __init__(self, n: int):
        if n < 0:
            raise UsageError("slot count must be non-negative")
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def kruskal(candidates: EdgeList | Iterable[Edge], n: int | None = None) -> EdgeList:
    """Minimum spanning forest of the candidate multigraph under the total order.

    Union-find runs over the endpoint ids that occur, compacted to 0..r-1, so
    sparse or huge ids cost nothing; n, when given, only bounds the ids.
    Duplicate pairs are harmless: the second copy closes a two-edge cycle.
    """
    el = candidates if isinstance(candidates, EdgeList) else EdgeList.of(candidates)
    if n is not None:
        el.check_range(n)
    ids, slot = np.unique(np.concatenate((el.u, el.v)), return_inverse=True)
    union = UnionFind(ids.size).union
    half = len(el)
    keep = np.array([union(a, b) for a, b in zip(slot[:half].tolist(), slot[half:].tolist())], bool)
    return EdgeList(el.u[keep], el.v[keep], el.w[keep])
