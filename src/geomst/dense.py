"""Exact MST of the implicit complete graph on a point set (the dense kernel).

Prim with a nearest-outside-tree array: no heap, no materialized adjacency,
and every unordered pair is evaluated (or, with the step bound below, ruled
out by a bound) exactly once, so the distance counter is m*(m-1)/2 by
construction. Weight ties fall back to the canonical (u, v)
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

Step bound. For euclidean, squared_euclidean and cosine_distance (on unit
rows) from d = _BOUND_FROM up, a step first bounds every frontier row from
below with one matrix-vector product and evaluates Metric.block only on
the rows whose bound is not strictly above their frontier weight. A row
skipped that way has an exact value strictly above its entry, so it could
neither improve nor tie it: best_w only ever holds Metric.block values,
the (w, u, v) rule and the bits are those of the full update, and BLAS
only decides which exact values are computed. The counter keeps its
closed form, since every pair is still bounded or evaluated once. Each
row's bias, scale * (1 - c) * |x|^2, is computed once per task and moves
with its row; the step computes

    lo = work[t+1:] @ (-2 * scale * a) + bias[t+1:] + (bias_a - floor)

then takes its square root for euclidean. scale is 1, or 1/2 for cosine,
so lo approximates the metric's value before any root. At m = 750 a task
took 176-220 -> 36-53 ms at d = 256 and 46-54 -> 23-28 ms at d = 64
(2-vCPU x86_64, OpenBLAS 0.3.31); at d = 16 the bound was 12-23% faster
at m = 750 but even at m = 300 and slower at m = 100, so it starts at
d = 32, where it won at m >= 300 (it still loses at m = 100).

Why lo never exceeds the computed value (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, section 3.1). Let u = 2^-53, eta = 2^-1074
(the subnormal spacing), g(n) = n u / (1 - n u), and for the new tree row
a and a frontier row b let M = |a|^2 + |b|^2, P = a.b and D = |a - b|^2 =
M - 2P, all exact. Then:

- Metric.block squares d rounded differences and sums them in some order,
  so its sum S >= (1 - g(d + 2)) D - d eta / 2 >= D - 2 g(d + 2) M - d eta,
  using D <= 2M.
- A rounded squared norm, in any order, is within g(d) |x|^2 + d eta / 2
  of the exact one, and the bias adds one more rounding.
- A dot product computed in any order, with or without fused multiply-add
  (any BLAS, or einsum), is within g(d) sum |a_i b_i| + d eta <= g(d) M / 2
  + d eta of the exact one (Cauchy-Schwarz); scaling by -2 scale is exact.
- The two additions that form lo round by at most u times a magnitude
  below 3 scale M each.

Together lo <= scale (D - (c - 2 g(d) - 8u) M) + a few d eta, against
scale S >= scale (D - 2 g(d + 2) M) - d eta. c = (2d + 16) 2^-52 =
(4d + 32) u exceeds 2 g(d) + 2 g(d + 2) + 8u ~ (4d + 12) u by 20u, which
covers the second-order terms, and floor = d 2^-1060 covers every eta term,
including the rounding of cosine's product 0.5 * S in the subnormal range.
sqrt and that product are monotone, so a bound strictly above the frontier
weight puts the computed value there too. The bias is used only when every
squared norm is at most 2^1020 (and not NaN): then no intermediate
exceeds 2^1023 and lo is finite, or NaN where a negative lo meets the
square root; NaN is "not strictly above", so that row is evaluated. A task
with a larger norm is evaluated in full, which is also where distances
can overflow.
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

# From this d up the inner-product metrics prune each step with a lower
# bound (see the module docstring); the value is measured, not derived.
_BOUND_FROM = 32
# The factor that takes a squared euclidean distance to the metric's scale
# before any root: these are the metrics the bound serves.
_BOUND_SCALE = {"euclidean": 1.0, "squared_euclidean": 1.0, "cosine_distance": 0.5}
# No bound where a squared norm exceeds this: below it nothing in the bound
# can overflow.
_NORM_LIMIT = 2.0**1020
# Per-coordinate allowance for products that underflow into subnormals.
_UNDERFLOW_SLACK = 2.0**-1060


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
    bias = _bound_bias(work, metric.kind)
    if bias is not None:
        scale = _BOUND_SCALE[metric.kind]
        root = metric.kind == "euclidean"
        floor = points.dim * _UNDERFLOW_SLACK

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
        if bias is not None:
            row_bias = bias[q]
            bias[q] = bias[t]
        if q == t:
            row = work[t]
        else:
            row = work[q].copy()
            work[q] = work[t]
            gid[q] = gid[t]
            best_w[q] = best_w[t]
            best_from[q] = best_from[t]
        if t + 1 == m:
            break
        tail_w = best_w[t + 1 :]
        tail_from = best_from[t + 1 :]
        if bias is None:
            fresh = block(row, work[t + 1 :])
            improve = fresh < tail_w
            ties = fresh == tail_w
            if np.count_nonzero(ties):
                improve |= ties & _precedes(g, tail_from, gid[t + 1 :])
            np.minimum(tail_w, fresh, out=tail_w)
            np.putmask(tail_from, improve, g)
            continue
        # The bound of every frontier row, on the scale of tail_w; only the
        # rows it does not put strictly above their entry are evaluated.
        lo = work[t + 1 :] @ (row * (-2.0 * scale))
        lo += bias[t + 1 :]
        lo += row_bias - floor
        if root:
            np.sqrt(lo, out=lo)  # a negative bound becomes NaN, which is evaluated
        near = np.flatnonzero(~(lo > tail_w))
        if not near.size:
            continue
        fresh = block(row, work[near + (t + 1)])
        old = tail_w[near]
        improve = fresh < old
        ties = fresh == old
        if np.count_nonzero(ties):
            improve |= ties & _precedes(g, tail_from[near], gid[t + 1 :][near])
        hit = near[improve]
        tail_w[hit] = fresh[improve]
        tail_from[hit] = g

    if stats is not None:
        stats.distance_evals += m * (m - 1) // 2
    return EdgeList(out_from, out_to, out_w)


def _precedes(g, frm: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """Where the pair (g, gx) comes before the pair (frm, gx) in (u, v) order."""
    u_new = np.minimum(g, gx)
    v_new = np.maximum(g, gx)
    u_old = np.minimum(frm, gx)
    v_old = np.maximum(frm, gx)
    return (u_new < u_old) | ((u_new == u_old) & (v_new < v_old))


def _canonical_tie(w: np.ndarray, frm: np.ndarray, gx: np.ndarray, value) -> int:
    """Index of the frontier candidate minimal under (u, v) among those of weight value."""
    ties = np.flatnonzero(w == value)
    u = np.minimum(frm[ties], gx[ties])
    v = np.maximum(frm[ties], gx[ties])
    return int(ties[np.lexsort((v, u))[0]])


def _bound_bias(work: np.ndarray, kind: str) -> np.ndarray | None:
    """Per-row term of the step bound, or None where the bound is not used.

    None below _BOUND_FROM, for the metrics the bound does not serve, and
    when some squared norm exceeds _NORM_LIMIT or is NaN. Otherwise row i
    gets scale * (1 - c) * |x_i|^2 with c = (2d + 16) * 2^-52 (see the
    module docstring).
    """
    d = work.shape[1]
    if d < _BOUND_FROM or kind not in _BOUND_SCALE:
        return None
    sq = np.einsum("ij,ij->i", work, work)
    if not sq.max() <= _NORM_LIMIT:
        return None
    sq *= _BOUND_SCALE[kind] * (1.0 - (2 * d + 16) * 2.0**-52)
    return sq
