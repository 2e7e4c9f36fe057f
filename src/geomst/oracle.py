"""Brute-force ground truth: the weight of every pair, then Kruskal.

Deliberately a different algorithm from the dense kernel (which is Prim and
never stores the candidate edges), sharing only the edge total order, so
agreement between the two is evidence rather than tautology. The pairs are
materialized as one float64 weight each in row order; Filter-Kruskal finds
the ends of only the candidates it touches, so the oracle peaks at about
20 bytes per pair. A cap guards against materializing huge graphs.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, UsageError
from .geometry import Metric, PointSet, _integer, subset_indices
from .graph import EdgeList, Pairs, kruskal, merges

DEFAULT_MAX_POINTS = 2048


def oracle_mst(
    points: PointSet,
    metric: Metric,
    subset=None,
    max_points: int = DEFAULT_MAX_POINTS,
) -> EdgeList:
    """MSF of the explicit complete graph on points[subset], global ids preserved.

    Pairs whose distance overflows take no part in Kruskal. Only when the
    tree needs one of them does this raise DataError, naming the first such
    pair in (u, v) order that joins two components of the finite forest.
    """
    forest, gid, over = _finite_forest(points, metric, subset, _integer(max_points, "max_points"))
    if len(forest) < gid.size - 1:
        u, v, x = (np.concatenate(pair) for pair in zip((forest.u, forest.v, forest.w), over))
        i = merges(u, v)[len(forest)][0]  # the forest's own pairs are the first merges
        raise DataError(f"distance between points {u[i]} and {v[i]} is {float(x[i])!r} (overflow)")
    return forest


@np.errstate(over="ignore", invalid="ignore")
def _finite_forest(points: PointSet, metric: Metric, subset, max_points: int):
    """MSF of the finite-distance pairs of points[subset], the ids, and the other pairs.

    Only the weights of the pairs are stored, row block by row block in one
    array: the subset is put in id order, and row a's block holds the pairs
    (a, a+1..m-1), so a position's ends come from the row offsets and (w, a,
    b) is the (w, u, v) order. kruskal looks up the ends only of the
    candidates a round touches. The overflowing pairs come back as (u, v, w)
    arrays with u < v, in (u, v) order.
    """
    idx = subset_indices(points, subset)
    m = int(idx.size)
    if m > max_points:
        raise UsageError(
            f"oracle refuses {m} points (cap {max_points}); pass max_points to override"
        )
    if m <= 1:
        return EdgeList(), points.ids[idx], ()
    metric.check_domain(points, idx)
    idx = idx[np.argsort(points.ids[idx])]
    gid = points.ids[idx]
    mat = metric.prepared(points)[idx]
    start = np.zeros(m, dtype=np.int64)  # start[a]: position of the pair (a, a+1); start[-1]: E
    np.cumsum(np.arange(m - 1, 0, -1), out=start[1:])
    w = np.empty(start[-1])
    for a in range(m - 1):
        w[start[a] : start[a + 1]] = metric.block(mat[a], mat[a + 1 :])

    def ends(at):
        a = np.searchsorted(start, at, side="right") - 1
        return a, at - start[a] + a + 1

    finite = np.isfinite(w)
    forest = kruskal(Pairs(w, ends, gid, finite))
    over = np.flatnonzero(~finite)
    a, b = ends(over)
    return forest, gid, (gid[a], gid[b], w[over])


def check_substructure(
    points: PointSet, metric: Metric, subset, whole: EdgeList | None = None
) -> bool:
    """True iff every whole-graph MSF edge inside subset appears in the subset's own MSF.

    A False return is a failed optimal-substructure property, never expected
    behavior under the tie-break total order. Both sides are the forests of
    the finite-distance pairs, so a subset whose own tree would need an
    overflowing pair is still checked; the property holds for any graph.
    whole, when given, is that whole-graph forest as oracle_mst returned it,
    so repeated checks on one point set build it only once.
    """
    idx = subset_indices(points, subset)
    if whole is None:
        whole = _finite_forest(points, metric, None, DEFAULT_MAX_POINTS)[0]
    sub = _finite_forest(points, metric, idx, DEFAULT_MAX_POINTS)[0]
    inside = points.ids[idx]
    mask = np.isin(whole.u, inside) & np.isin(whole.v, inside)
    restricted = zip(whole.u[mask].tolist(), whole.v[mask].tolist(), whole.w[mask].tolist())
    return set(sub.triples()).issuperset(restricted)
