"""Edges as three parallel arrays, the (w, u, v) total order, and Kruskal's union history.

The (weight, u, v) lexicographic order is a strict total order on canonical
edges, which makes the minimum spanning forest unique. EdgeList holds every
edge list from the dense kernel to the TSV writer as u, v and w arrays in
that order; it alone checks and orders edges, and Edge is its NamedTuple view.
merges() is the package's one union-find scan: kruskal keeps the pairs it
reports, the oracle and decomposed_mst find the first overflowing pair the
tree needs with it, and mst_to_dendrogram reads its roots as cluster ids.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import UsageError
from .geometry import _int64_array


class Edge(NamedTuple):
    """One edge of an EdgeList, as its iteration hands it out: u < v, unchecked."""

    u: int
    v: int
    w: float


def edge_key(e: Edge) -> tuple[float, int, int]:
    """Sort key realizing the (w, u, v) total order."""
    return (e.w, e.u, e.v)


class EdgeList:
    """Edges as read-only arrays u (int64), v (int64), w (float64), u < v, in (w, u, v) order.

    The constructor takes the endpoints in either order, rejects non-integer
    endpoints, self-loops and non-finite weights, and sorts with one
    lexsort, so every EdgeList is ordered and two are equal when their
    arrays are.
    """

    __slots__ = ("u", "v", "w")

    def __init__(self, u=(), v=(), w=()):
        a, b = _int64_array(u, "edge endpoints"), _int64_array(v, "edge endpoints")
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
        return map(Edge._make, self.triples())

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


def _root(parent: list, x: int) -> int:
    """Root of x in a parent-pointer forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def merges(u, v) -> list[tuple[int, int, int]]:
    """Kruskal's union history over the pairs (u[i], v[i]), scanned in order.

    Ids are compacted to 0..r-1 with np.unique, so sparse or huge ids cost
    nothing. A pair whose ends have different roots a and b is reported as
    (i, a, b); at the t-th such merge node r+t becomes the parent of both
    roots, so a root is its set's id, as in a linkage matrix. The scan stops
    at the (r-1)-th merge: one set then holds every id.
    """
    ids, slot = np.unique(np.concatenate((u, v)), return_inverse=True)
    r, half = ids.size, len(u)
    parent = list(range(2 * r - 1))
    out = []
    for i, a, b in zip(range(half), slot[:half].tolist(), slot[half:].tolist()):
        a, b = _root(parent, a), _root(parent, b)
        if a != b:
            parent[a] = parent[b] = r + len(out)
            out.append((i, a, b))
            if len(out) == r - 1:
                break
    return out


def kruskal(candidates: EdgeList | Iterable[tuple], n: int | None = None) -> EdgeList:
    """Minimum spanning forest of an EdgeList or of (u, v, w) tuples, under the total order.

    The forest is the pairs that merges() reports; n, when given, only bounds
    the ids. An edge given more than once sits next to its copies in (w, u, v)
    order, and the scan sees only the first: a copy would close a two-edge
    cycle.
    """
    el = candidates if isinstance(candidates, EdgeList) else EdgeList(*zip(*candidates))
    if n is not None:
        el.check_range(n)
    u, v, w = el.u, el.v, el.w
    copy = (u[1:] == u[:-1]) & (v[1:] == v[:-1]) & (w[1:] == w[:-1])
    if copy.any():
        first = np.flatnonzero(np.concatenate(([True], ~copy)))
        keep = first[[i for i, _, _ in merges(u[first], v[first])]]
    else:  # no copies, as in the oracle's pairs: nothing to drop, and nothing copied
        keep = [i for i, _, _ in merges(u, v)]
    return EdgeList(u[keep], v[keep], w[keep])
