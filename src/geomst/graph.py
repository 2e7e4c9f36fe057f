"""Edges as three parallel arrays, the (w, u, v) total order, and Kruskal's union history.

The (weight, u, v) lexicographic order is a strict total order on canonical
edges, which makes the minimum spanning forest unique. EdgeList holds every
edge list from the dense kernel to the TSV writer as u, v and w arrays in
that order; it alone checks and orders edges, and Edge is its NamedTuple view.
_unite() is the package's one find-and-union loop. merges() runs it once
over pairs in order, as Kruskal's union history: the oracle and
decomposed_mst find the first overflowing pair the tree needs with it, and
mst_to_dendrogram reads its roots as cluster ids. kruskal() runs it once a
round of Filter-Kruskal, on the lightest candidates left, so it sorts only
what it scans; gather, each reduce combine and the oracle call it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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

    def __reduce__(self):
        # Unpickling runs the constructor, so a copy is checked and read-only.
        return EdgeList, (self.u, self.v, self.w)

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


def _unite(parent: list, pairs, out: list, limit: int) -> None:
    """The package's one find-and-union loop, over (i, a, b) triples in order.

    Each merge of two roots a and b is appended to out as (i, a, b) and
    makes a new node, the next slot of parent, their parent. The loop stops
    once out holds limit merges.
    """
    for i, a, b in pairs:
        a, b = _root(parent, a), _root(parent, b)
        if a != b:
            parent[a] = parent[b] = len(parent)
            parent.append(len(parent))
            out.append((i, a, b))
            if len(out) == limit:
                return


def _compact(u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted distinct ids of u and v, and the index of each end among them."""
    s = np.sort(np.concatenate((u, v)))
    first = np.ones(s.size, dtype=bool)
    first[1:] = s[1:] != s[:-1]
    ids = s[first]
    return ids, np.searchsorted(ids, u), np.searchsorted(ids, v)


def merges(u, v) -> list[tuple[int, int, int]]:
    """Kruskal's union history over the pairs (u[i], v[i]), scanned in order.

    Ids are compacted to 0..r-1 in their sorted order, so sparse or huge ids
    cost nothing. A pair whose ends have different roots a and b is reported
    as (i, a, b); at the t-th such merge node r+t becomes the parent of both
    roots, so a root is its set's id, as in a linkage matrix. The scan stops
    at the (r-1)-th merge: one set then holds every id.
    """
    ids, a, b = _compact(u, v)
    out: list = []
    _unite(list(range(ids.size)), zip(range(a.size), a.tolist(), b.tolist()), out, ids.size - 1)
    return out


class Pairs(NamedTuple):
    """Candidate edges as kruskal reads them: weights, and the ends of any positions.

    w[p] is candidate p's weight. ends(p) maps an array of positions to two
    arrays of slots a < b, and ids[a] is slot a's vertex id. ids is sorted,
    so the (w, a, b) order is the (w, u, v) order. live, a boolean mask over
    w when given, marks the candidates; the other positions take no part.
    """

    w: np.ndarray
    ends: Callable
    ids: np.ndarray
    live: np.ndarray | None = None


_CHUNK = 1 << 14  # positions whose ends the filter looks up at once; bounds its temporaries


def kruskal(
    candidates: EdgeList | Sequence[EdgeList] | Pairs | Iterable[tuple], n: int | None = None
) -> EdgeList:
    """Minimum spanning forest of the candidates under the total order, by Filter-Kruskal.

    candidates is an EdgeList, a sequence of EdgeLists whose union is the
    candidate multiset (their arrays are read as they are, neither checked
    nor sorted again), Pairs, or (u, v, w) tuples; n, when given, only
    bounds the ids of edge lists and tuples.

    Filter-Kruskal (Osipov, Sanders & Singler, ALENEX 2009) sorts only what
    it scans. Each round takes the s lightest live candidates by
    np.partition, with every tie of the s-th included, so copies of an edge
    are never split, where s = max(2 x components, 2 x the previous s). It
    sorts them by (w, a, b) and scans them with the union-find, up to the
    last tree edge. Then it drops every heavier candidate whose ends share a
    root, found by pointer jumping over the parent array. s at least doubles
    each round, so there are O(log E) rounds.
    """
    if not isinstance(candidates, Pairs):
        candidates = _pairs(candidates, n)
    w, ends, ids, live = candidates
    live = np.ones(w.size, dtype=bool) if live is None else live.copy()
    r = ids.size
    parent, out, s = list(range(r)), [], 0
    while len(out) < r - 1 and live.any():
        lw = w[live]
        s = max(2 * (r - len(out)), 2 * s)
        last = s >= lw.size
        if not last:
            lw.partition(s - 1)
        pivot = np.inf if last else lw[s - 1]
        del lw  # so that no two rounds' copies of the live weights coexist
        light = np.flatnonzero(live & (w <= pivot))
        live[light] = False
        a, b = ends(light)
        order = np.lexsort((b, a, w[light]))
        light, a, b = light[order], a[order], b[order]
        new = np.ones(light.size, dtype=bool)  # a pair with the ends of the one before closes a cycle
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        _unite(parent, zip(light[new].tolist(), a[new].tolist(), b[new].tolist()), out, r - 1)
        if last or len(out) == r - 1:
            break
        root = np.array(parent)
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        for c in range(0, w.size, _CHUNK):
            at = np.flatnonzero(live[c : c + _CHUNK]) + c
            a, b = ends(at)
            live[at[root[a] == root[b]]] = False
    at = np.array([i for i, _, _ in out], dtype=np.int64)
    a, b = ends(at)
    return EdgeList(ids[a], ids[b], w[at])


def _pairs(candidates, n: int | None) -> Pairs:
    """The Pairs of an EdgeList, a sequence of them or (u, v, w) tuples; ids compacted."""
    lists = [candidates] if isinstance(candidates, EdgeList) else list(candidates)
    if not lists or not all(isinstance(el, EdgeList) for el in lists):
        lists = [EdgeList(*zip(*lists))]
    if n is not None:
        for el in lists:
            el.check_range(n)
    u, v, w = (np.concatenate(arrays) for arrays in zip(*((el.u, el.v, el.w) for el in lists)))
    ids, a, b = _compact(u, v)
    return Pairs(w, lambda at: (a[at], b[at]), ids)
