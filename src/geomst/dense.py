"""Exact MST of the implicit complete graph on a point set (the dense kernel).

Prim with a nearest-outside-tree array: no heap, no materialized adjacency,
and every unordered pair is evaluated exactly once, so the distance counter
is m*(m-1)/2 by construction. Weight ties fall back to the canonical (u, v)
pair, both when updating a frontier candidate and when selecting the next
vertex, which keeps the result identical to Kruskal under the same total
order.

At low d a step costs numpy call overhead rather than arithmetic, so a step
without ties makes seven array calls besides the distance block:

- select (2): argmin over the frontier, then min-after-mask tie detection:
  that slot is set to inf, and the weight at the argmin of the rest is
  compared with the old value; only a tied minimum pays for the (u, v)
  tie-break, and the slot is restored either way; a non-finite minimum
  (a distance that overflowed) stops the run at that step, before any
  counter moves;
- move (scalar stores and one row copy): the chosen vertex's row leaves
  position q and the vertex at the frontier head moves into the hole;
  in-tree slots are never read again, so nothing is written back;
- update (5): a strict and an equal comparison, a count of the ties, an
  in-place minimum and one masked store of the new source; the (u, v)
  rule runs only when some weight ties;
- emit (scalar stores): u, v and w go into preallocated arrays, which
  become the task's EdgeList, ordered by one lexsort, after the last step.

Below d = 8 the private working copy is column-major (Fortran order), so
the frontier work[t + 1:] is an (r, d) view with contiguous columns and
Metric.block runs d vector loops of length r instead of r loops of length
d; at d = 2 that takes about a third off each step. The bits are the same
as on row-major rows: numpy sums fewer than 8 contiguous values left to
right, and a reduction over the outer axis of a column-major block is also
left to right. From d = 8 numpy's pairwise sum splits a contiguous row into
8 partial sums, which a column-major block would not reproduce, and the
column-major layout is not faster there, so the copy stays row-major.

An overflowed distance raises DataError only once the tree needs it; one
np.errstate around the whole call keeps numpy's overflow warning quiet.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .geometry import Metric, PointSet, subset_indices
from .graph import EdgeList
from .stats import RunStats

# Below this d the working copy is column-major (see the module docstring).
_COLUMN_MAJOR_BELOW = 8


@np.errstate(over="ignore", invalid="ignore")
def dense_mst(
    points: PointSet,
    metric: Metric,
    stats: RunStats | None = None,
    subset=None,
) -> EdgeList:
    """MST edges, carrying global ids, of the complete graph on points[subset].

    subset is a sequence of row indices (the whole set when omitted); the
    kernel copies those rows into a private working array, so callers can
    share one immutable PointSet across concurrent invocations.
    """
    idx = subset_indices(points, subset)
    m = int(idx.size)
    if m <= 1:
        return EdgeList()
    metric.check_domain(points, idx)
    work = metric.prepared(points)[idx]
    if points.dim < _COLUMN_MAJOR_BELOW:
        work = np.asfortranarray(work)
    gid = points.ids[idx].copy()
    block = metric.block

    # Rows are physically reordered as vertices join the tree: positions
    # [0, t) are in-tree, [t, m) are outside, so the frontier is always a
    # contiguous slice and per-row distance bits never depend on position.
    best_w = np.empty(m, dtype=np.float64)
    best_from = np.empty(m, dtype=np.int64)
    best_w[1:] = block(work[0], work[1:])
    best_from[1:] = gid[0]
    # Tree edges in the order they join: from-vertex, new vertex, weight.
    out_from = np.empty(m - 1, dtype=np.int64)
    out_to = np.empty(m - 1, dtype=np.int64)
    out_w = np.empty(m - 1, dtype=np.float64)

    for t in range(1, m):
        frontier = best_w[t:]
        q = int(frontier.argmin())
        w = frontier[q]
        if not math.isfinite(w):
            a, b = best_from[t + q], gid[t + q]
            raise DataError(f"distance between points {a} and {b} is {float(w)!r} (overflow)")
        frontier[q] = np.inf
        tied = frontier[frontier.argmin()] == w
        frontier[q] = w
        if tied:
            q = _canonical_tie(frontier, best_from[t:], gid[t:], w)
            w = frontier[q]
        q += t
        g = gid[q]
        out_from[t - 1] = best_from[q]
        out_to[t - 1] = g
        out_w[t - 1] = w
        if q == t:
            row = work[t]
        else:
            row = work[q].copy()
            work[q] = work[t]
            gid[q] = gid[t]
            best_w[q] = best_w[t]
            best_from[q] = best_from[t]
        if t + 1 < m:
            fresh = block(row, work[t + 1 :])
            tail_w = best_w[t + 1 :]
            tail_from = best_from[t + 1 :]
            improve = fresh < tail_w
            ties = fresh == tail_w
            if np.count_nonzero(ties):
                gx = gid[t + 1 :]
                u_new = np.minimum(g, gx)
                v_new = np.maximum(g, gx)
                u_old = np.minimum(tail_from, gx)
                v_old = np.maximum(tail_from, gx)
                improve |= ties & ((u_new < u_old) | ((u_new == u_old) & (v_new < v_old)))
            np.minimum(tail_w, fresh, out=tail_w)
            np.putmask(tail_from, improve, g)

    if stats is not None:
        stats.distance_evals += m * (m - 1) // 2
    return EdgeList(out_from, out_to, out_w)


def _canonical_tie(w: np.ndarray, frm: np.ndarray, gx: np.ndarray, value) -> int:
    """Index of the frontier candidate minimal under (u, v) among those of weight value."""
    ties = np.flatnonzero(w == value)
    u = np.minimum(frm[ties], gx[ties])
    v = np.maximum(frm[ties], gx[ties])
    return int(ties[np.lexsort((v, u))[0]])
