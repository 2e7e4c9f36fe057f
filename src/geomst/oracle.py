"""Brute-force ground truth: materialize every pair, then Kruskal.

Deliberately a different algorithm from the dense kernel (which is Prim and
never stores the candidate edges), sharing only the edge total order, so
agreement between the two is evidence rather than tautology. Being slow is
fine here; a cap guards against accidentally materializing huge graphs.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, UsageError
from .geometry import Metric, PointSet, subset_indices
from .graph import EdgeList, kruskal, merges

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
    forest, gid, over = _finite_forest(points, metric, subset, max_points)
    if len(forest) < gid.size - 1:
        u, v, x = (np.concatenate(pair) for pair in zip((forest.u, forest.v, forest.w), over))
        i = merges(u, v)[len(forest)][0]  # the forest's own pairs are the first merges
        raise DataError(f"distance between points {u[i]} and {v[i]} is {float(x[i])!r} (overflow)")
    return forest


@np.errstate(over="ignore", invalid="ignore")
def _finite_forest(points: PointSet, metric: Metric, subset, max_points: int):
    """MSF of the finite-distance pairs of points[subset], the ids, and the other pairs.

    The overflowing pairs come back as (u, v, w) arrays with u < v, in (u, v)
    order.
    """
    idx = subset_indices(points, subset)
    m = int(idx.size)
    if m > max_points:
        raise UsageError(
            f"oracle refuses {m} points (cap {max_points}); pass max_points to override"
        )
    gid = points.ids[idx]
    if m <= 1:
        return EdgeList(), gid, ()
    metric.check_domain(points, idx)
    mat = metric.prepared(points)[idx]
    w = np.concatenate([metric.block(mat[a], mat[a + 1 :]) for a in range(m - 1)])
    iu, iv = np.triu_indices(m, 1)  # row a's block holds the pairs (a, a+1..m-1)
    u, v = gid[iu], gid[iv]
    ok = np.isfinite(w)
    bad = ~ok
    lo, hi = np.minimum(u[bad], v[bad]), np.maximum(u[bad], v[bad])
    order = np.lexsort((hi, lo))
    return kruskal(EdgeList(u[ok], v[ok], w[ok])), gid, (lo[order], hi[order], w[bad][order])


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
