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
from .graph import EdgeList, kruskal

DEFAULT_MAX_POINTS = 2048


@np.errstate(over="ignore", invalid="ignore")
def oracle_mst(
    points: PointSet,
    metric: Metric,
    subset=None,
    max_points: int = DEFAULT_MAX_POINTS,
) -> EdgeList:
    """MSF of the explicit complete graph on points[subset], global ids preserved.

    Raises DataError naming the first pair whose distance overflows.
    """
    idx = subset_indices(points, subset)
    m = int(idx.size)
    if m > max_points:
        raise UsageError(
            f"oracle refuses {m} points (cap {max_points}); pass max_points to override"
        )
    if m <= 1:
        return EdgeList()
    metric.check_domain(points, idx)
    mat = metric.prepared(points)[idx]
    gid = points.ids[idx]
    w = np.concatenate([metric.block(mat[a], mat[a + 1 :]) for a in range(m - 1)])
    iu, iv = np.triu_indices(m, 1)  # row a's block holds the pairs (a, a+1..m-1)
    u, v = gid[iu], gid[iv]
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        i = bad[0]
        raise DataError(f"distance between points {u[i]} and {v[i]} is {float(w[i])!r} (overflow)")
    return kruskal(EdgeList(u, v, w))


def check_substructure(points: PointSet, metric: Metric, subset) -> bool:
    """True iff every whole-graph MSF edge inside subset appears in the subset's own MSF.

    A False return is a failed optimal-substructure property, never expected
    behavior under the tie-break total order.
    """
    idx = subset_indices(points, subset)
    whole = oracle_mst(points, metric)
    sub = oracle_mst(points, metric, subset=idx)
    inside = points.ids[idx]
    mask = np.isin(whole.u, inside) & np.isin(whole.v, inside)
    restricted = EdgeList(whole.u[mask], whole.v[mask], whole.w[mask])
    return set(sub.triples()).issuperset(restricted.triples())
