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
  tie-break, and the slot is restored either way;
- move (scalar stores and one row copy): the chosen vertex's id, weight
  and source swap with position t's, a no-op where q is t, so position t
  holds step t's edge and the tree is read from positions 1..m-1 at the
  end; the chosen row is copied out and the coordinates at t move into
  the hole at q, and in-tree coordinates are never read again, so the
  copy is not written back;
- update (5): a strict and an equal comparison, a count of the ties, an
  in-place minimum and one masked store of the new source; only where a
  weight ties does one more comparison run, g < f: for a frontier vertex
  x, the new tree vertex g and the old source f, (min(g, x), max(g, x)) <
  (min(f, x), max(f, x)) iff g < f (with g and f on one side of x both
  pairs hold x and differ in g and f; on opposite sides, the pair of the
  one below x leads).

Below d = 8 the private working copy is column-major (Fortran order), so
the frontier work[t + 1:] is an (r, d) view with contiguous columns and
Metric.block runs d vector loops of length r instead of r loops of length
d; at d = 2 that takes about a third off each step. The bits are the same
as on row-major rows: numpy sums fewer than 8 contiguous values left to
right, and a reduction over the outer axis of a column-major block is also
left to right. From d = 8 numpy's pairwise sum splits a contiguous row into
8 partial sums, which a column-major block would not reproduce, and the
column-major layout is not faster there, so the copy stays row-major.

An overflowed distance is inf, which every finite weight precedes, so Prim
runs on and the EdgeList leaves the inf edges out: the minimum spanning
forest of the finite-distance pairs. np.errstate keeps numpy quiet.

Lockstep. _lockstep_run advances T tasks of one size together, so one numpy
call of a step serves all of them. Each task's rows are stepped in id
order, so its local indices compare as its ids do and both tie rules run
on them; the tree is unique under the (w, u, v) order and a pair's bits do
not depend on which end joins first, so that order changes no edge. Task
i's slot j holds its coordinates, its frontier weight and the local
indices (into task i's rows, exact as floats) of its vertex and of that
weight's source, in one (T, m, d + 3) float array, slot-minor below d = 8
as above. A step without ties makes:

- select: argmin over the (T, r) frontier, one flat take and one flat put
  that swap each task's chosen slot with its slot t, and one count of
  frontier == minimum against T; only a tie runs the (u, v) rule, task by
  task;
- evaluate: Metric.block over (T, r, d), which reduces each (task, row)
  as an (r, d) block reduces that row: left to right below d = 8, where d
  is not the contiguous axis, and numpy's pairwise sum of a contiguous row
  from d = 8;
- update: the five calls above, over (T, r).

The tree is read from the slots at the end: slot t holds the vertex step t
chose, with its weight and source; each task's m*(m-1)/2 pairs are
counted by the caller, over its task list. A step costs about
c(T) = 30 us + 5.9 us * T (m = 750, d = 2 euclidean, T = 1..28, 2-vCPU
x86_64), against 22.6 us for a step of the loop above, so a lone task keeps
that loop. lockstep_mst takes any tasks and chooses each one's kernel:
tasks whose steps are bounded stay on dense_mst one by one (has_step_bound),
since the bound keeps per-task state and T Grams at once would hold T times
the memory; the others run by size, as many at once as fit
_LOCKSTEP_MAX_BYTES, and estimated_seconds is the CPU time of that choice.

Step bound. For euclidean, squared_euclidean and cosine_distance (on unit
rows) from d = _BOUND_FROM up, a step first bounds every frontier row from
below with one matrix-vector product and evaluates Metric.block only on
the rows whose bound is not strictly above their frontier weight. A row
skipped that way keeps its bound in the step's one update, where the
bound, strictly above the row's entry, neither improves nor ties it (a
step that skips every row has nothing to update): best_w only ever holds
Metric.block values, and BLAS only decides which exact values are
computed. The counter keeps its closed form, since every pair is still
bounded or evaluated once. Each row's bias, scale * (1 - c) * |x|^2, is
computed once per task and moves with its row; the step computes

    lo = work[t+1:] @ (-2 * scale * a) + bias[t+1:] + (bias_a - floor)

then takes its square root for euclidean. scale is 1, or 1/2 for cosine,
so lo approximates the metric's value before any root. At m = 750 a task
took 176-220 -> 36-53 ms at d = 256 and 46-54 -> 23-28 ms at d = 64
(2-vCPU x86_64, OpenBLAS 0.3.31); at d = 16 the bound was 12-23% faster
at m = 750 but even at m = 300 and slower at m = 100, so it starts at
d = 32, where it won at m >= 300 (it still loses at m = 100: 1.90 -> 2.28
ms at d = 32 with one BLAS thread, 14 of 15 alternating pairs).

Gram. The gemv does one multiply-add per frontier value it reads, so at
high d each step is bound by memory traffic, not arithmetic, while a GEMM
reuses every row it loads. From d = _GRAM_FROM a bounded task therefore
computes work @ work.T once, times -2 * scale (exact, a power of two), and
a step reads its dot terms as gram[row_pos][pos[t+1:]], where pos holds
each row's index into the Gram and moves with the row as the bias does.
The Gram holds m*m doubles (4.5 MB at m = 750), so it is used only within
_GRAM_MAX_BYTES and the gemv serves larger tasks. With one BLAS thread and
two workers solving tasks at once (same host), the Gram took 0.84-1.00 of
the gemv's time at d = 128 and m = 1500 (it tied at d = 96 and lost at d =
64), and at d = 256 0.46-0.94 at m = 750, 0.57-0.77 at m = 1500, 0.39-0.50
at m = 3000 and 0.44-0.57 at m = 4500 (a 162 MB Gram per worker). It still
wins there, so the cap only bounds memory: 128 MiB (m <= 4096) per
process. The Gram's entries differ from the gemv's only in rounding, which
the bound below covers, so the Gram changes which rows are evaluated,
never a weight or the counter.

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
  (any BLAS gemv or GEMM at any thread count, or einsum), is within
  g(d) sum |a_i b_i| + d eta <= g(d) M / 2 + d eta of the exact one
  (Cauchy-Schwarz); scaling by -2 scale is exact.
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

from collections import Counter

import numpy as np

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
# From this d up a bounded task takes its dot products from one Gram matrix
# instead of a gemv per step, as long as its m*m doubles fit the cap; the
# threshold is measured, the cap bounds memory (see the module docstring).
_GRAM_FROM = 128
_GRAM_MAX_BYTES = 128 * 2**20
# A lockstep run holds every task's rows, and each step a distance block of
# that size; this caps both.
_LOCKSTEP_MAX_BYTES = 8 * 2**20

# Estimated one-process CPU seconds of task work. The costs were fitted by
# least squares on relative error to the one-process CPU time of 60 task
# lists (tasks of 64 to 1500 points, d = 2 to 768, euclidean and manhattan,
# one BLAS thread, 2-vCPU x86_64); every estimate fell within 0.49 to 1.63
# of its measurement, the small tasks, whose fixed costs the terms leave
# out, lowest.
_STEP_S = 10.2e-6  # per Prim step; a lockstep group steps once for all its tasks
_BOUNDED_STEP_S = 18.9e-6  # per step of a task whose steps are bounded
_COORD_S = 4.56e-9  # per coordinate of an evaluated pair, and one more for its update
_GRAM_S = 5.23e-11  # per multiply-add of a bounded task's m * m * d dot products


@np.errstate(over="ignore", invalid="ignore")
def dense_mst(
    points: PointSet,
    metric: Metric,
    stats: RunStats | None = None,
    subset=None,
) -> EdgeList:
    """MSF edges, carrying global ids, of the finite-distance pairs of points[subset].

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
    bias = _bound_bias(work, metric)
    if bias is not None:
        scale = _BOUND_SCALE[metric.kind]
        root = metric.kind == "euclidean"
        floor = points.dim * _UNDERFLOW_SLACK
        gram = None
        if points.dim >= _GRAM_FROM and m * m * 8 <= _GRAM_MAX_BYTES:
            gram = _scaled_gram(work, scale)
        pos = np.arange(m)  # each row's index into gram; it moves with the row

    # Rows are physically reordered as vertices join the tree: positions
    # [0, t) are in-tree, [t, m) are outside, so the frontier is always a
    # contiguous slice and per-row distance bits never depend on position.
    best_w = np.empty(m, dtype=np.float64)
    best_from = np.empty(m, dtype=np.int64)
    best_w[1:] = block(work[0], work[1:])
    best_from[1:] = gid[0]

    for t in range(1, m):
        frontier = best_w[t:]
        q = int(frontier.argmin())
        w = frontier[q]
        frontier[q] = np.inf
        tied = frontier[frontier.argmin()] == w
        frontier[q] = w
        if tied:
            q = _canonical_tie(frontier, best_from[t:], gid[t:], w)
            w = frontier[q]
        q += t
        g = gid[q]
        if bias is not None:
            row_bias = bias[q]
            bias[q] = bias[t]
            row_pos = pos[q]
            pos[q] = pos[t]
        row = work[q].copy()
        work[q] = work[t]
        gid[q], gid[t] = gid[t], g
        best_w[q], best_w[t] = best_w[t], w
        best_from[q], best_from[t] = best_from[t], best_from[q]
        if t + 1 == m:
            break
        tail_w = best_w[t + 1 :]
        tail_from = best_from[t + 1 :]
        if bias is None:
            fresh = block(row, work[t + 1 :])
        else:
            # The bound of every frontier row, on the scale of tail_w; only
            # the rows it does not put strictly above their entry are
            # evaluated, and every other row keeps its bound.
            if gram is None:
                lo = work[t + 1 :] @ (row * (-2.0 * scale))
            else:
                lo = gram[row_pos][pos[t + 1 :]]
            lo += bias[t + 1 :]
            lo += row_bias - floor
            if root:
                np.sqrt(lo, out=lo)  # a negative bound becomes NaN, which is evaluated
            near = np.flatnonzero(~(lo > tail_w))
            if not near.size:
                continue
            lo[near] = block(row, work[near + (t + 1)])
            fresh = lo
        improve = fresh < tail_w
        ties = fresh == tail_w
        if np.count_nonzero(ties):
            improve |= ties & (g < tail_from)
        np.minimum(tail_w, fresh, out=tail_w)
        np.putmask(tail_from, improve, g)

    if stats is not None:
        stats.distance_evals += m * (m - 1) // 2
    finite = np.isfinite(best_w[1:])
    return EdgeList(best_from[1:][finite], gid[1:][finite], best_w[1:][finite])


def has_step_bound(metric: Metric, dim: int) -> bool:
    """Whether dense_mst bounds the steps of tasks with this metric and dimension."""
    return dim >= _BOUND_FROM and metric.kind in _BOUND_SCALE


def lockstep_mst(points: PointSet, metric: Metric, subsets) -> list[EdgeList]:
    """dense_mst of every subset, in order, with each numpy call of a step serving many where it can.

    Tasks whose steps dense_mst bounds go to it one by one. The others are
    grouped by size, the sizes in the order of their first task, and each
    group runs in chunks of as many tasks as fit _LOCKSTEP_MAX_BYTES; a
    chunk of one goes to dense_mst.
    """
    if has_step_bound(metric, points.dim):
        return [dense_mst(points, metric, subset=subset) for subset in subsets]
    groups: dict = {}
    for i, subset in enumerate(subsets):
        idx = subset_indices(points, subset)
        groups.setdefault(idx.size, []).append((i, idx))
    forests: list = [None] * len(subsets)
    for m, group in groups.items():
        width = max(1, _LOCKSTEP_MAX_BYTES // (8 * max(m, 1) * (points.dim + 3)))
        for c in range(0, len(group), width):
            order, rows = zip(*group[c : c + width])
            if len(rows) == 1:
                forests[order[0]] = dense_mst(points, metric, subset=rows[0])
            else:
                for i, forest in zip(order, _lockstep_run(points, metric, np.stack(rows))):
                    forests[i] = forest
    return forests


def estimated_seconds(metric: Metric, dim: int, sizes) -> float:
    """lockstep_mst's estimated one-process CPU seconds on tasks of these sizes.

    A group of unbounded tasks of one size steps once (dense_mst alone or
    lockstep) and evaluates every pair; a bounded task steps alone and its
    bound costs about a Gram's multiply-adds.
    """
    bounded = has_step_bound(metric, dim)
    seconds = 0.0
    for m, count in Counter(sizes).items():
        if bounded:
            seconds += count * ((m - 1) * _BOUNDED_STEP_S + m * m * dim * _GRAM_S)
        else:
            seconds += (m - 1) * _STEP_S + count * m * (m - 1) // 2 * (dim + 1) * _COORD_S
    return seconds


@np.errstate(over="ignore", invalid="ignore")
def _lockstep_run(points: PointSet, metric: Metric, rows: np.ndarray) -> list[EdgeList]:
    """The forests of T > 1 unbounded tasks of one size; row i of the (T, m) rows holds task i's indices."""
    T, m = rows.shape
    metric.check_domain(points, rows.reshape(-1))
    d = points.dim
    # Each task's rows in id order, so local indices compare as ids do.
    rows = np.take_along_axis(rows, np.argsort(points.ids[rows], axis=1), axis=1)
    gids = points.ids[rows]
    # slots[i, j]: coordinates, frontier weight, and the local indices (into
    # rows[i]) of the vertex and of the weight's source; slot-minor below d = 8.
    if d < _COLUMN_MAJOR_BELOW:
        buf = np.empty((T, d + 3, m))
        slots = buf.transpose(0, 2, 1)
    else:
        buf = slots = np.empty((T, m, d + 3))
    flat = buf.reshape(-1)
    slots[:, :, :d] = metric.prepared(points)[rows]
    coords, best_w = slots[:, :, :d], slots[:, :, d]
    local, best_from = slots[:, :, d + 1], slots[:, :, d + 2]
    local[:] = np.arange(m)
    # A step moves rows through flat[t * stride:], whose element at[1] is
    # every task's slot t and at[0] the slot it chooses: the chosen row and
    # slot t swap places in one take and one put.
    stride = slots.strides[1] // 8
    at = np.empty((2, T, d + 3), dtype=np.int64)
    at[1] = (np.arange(T)[:, None] * slots.strides[0] + np.arange(d + 3) * slots.strides[2]) // 8

    block = metric.block
    best_w[:, 1:] = block(coords[:, :1], coords[:, 1:])
    best_from[:, 1:] = 0.0

    for t in range(1, m):
        frontier = best_w[:, t:]
        q = frontier.argmin(axis=1, keepdims=True)
        if stride > 1:
            q *= stride
        np.add(at[1], q, out=at[0])
        head = flat[t * stride :]
        row = head.take(at)
        w = row[0, :, d : d + 1]
        if np.count_nonzero(frontier == w) > T:
            for i in np.flatnonzero(np.count_nonzero(frontier == w, axis=1) > 1):
                q[i] = _canonical_tie(frontier[i], best_from[i, t:], local[i, t:], w[i, 0]) * stride
            np.add(at[1], q, out=at[0])
            row = head.take(at)
        head.put(at, row[::-1])
        if t + 1 == m:
            break
        g = row[0, :, d + 1 : d + 2]
        fresh = block(row[0, :, None, :d], coords[:, t + 1 :])
        tail_w = best_w[:, t + 1 :]
        tail_from = best_from[:, t + 1 :]
        improve = fresh < tail_w
        ties = fresh == tail_w
        if np.count_nonzero(ties):
            improve |= ties & (g < tail_from)
        np.minimum(tail_w, fresh, out=tail_w)
        np.copyto(tail_from, g, where=improve)

    # Slot t now holds the vertex step t chose, with its weight and source.
    ends = slots[:, 1:, d + 1 :].astype(np.int64)
    finite = np.isfinite(best_w[:, 1:])
    return [EdgeList(*gids[i][ends[i][finite[i]].T], best_w[i, 1:][finite[i]]) for i in range(T)]


def _canonical_tie(w: np.ndarray, frm: np.ndarray, gx: np.ndarray, value) -> int:
    """Index of the frontier candidate minimal under (u, v) among those of weight value."""
    ties = np.flatnonzero(w == value)
    u = np.minimum(frm[ties], gx[ties])
    v = np.maximum(frm[ties], gx[ties])
    return int(ties[np.lexsort((v, u))[0]])


def _bound_bias(work: np.ndarray, metric: Metric) -> np.ndarray | None:
    """Per-row term of the step bound, or None where the bound is not used.

    None below _BOUND_FROM, for the metrics the bound does not serve, and
    when some squared norm exceeds _NORM_LIMIT or is NaN. Otherwise row i
    gets scale * (1 - c) * |x_i|^2 with c = (2d + 16) * 2^-52 (see the
    module docstring).
    """
    d = work.shape[1]
    if not has_step_bound(metric, d):
        return None
    sq = np.einsum("ij,ij->i", work, work)
    if not sq.max() <= _NORM_LIMIT:
        return None
    sq *= _BOUND_SCALE[metric.kind] * (1.0 - (2 * d + 16) * 2.0**-52)
    return sq


def _scaled_gram(work: np.ndarray, scale: float) -> np.ndarray:
    """Every row's dot product with every row, times -2 * scale.

    -2 * scale is -2 or -1, so the scaling is exact, and entry (i, j) stands
    in for the step's gemv term of rows i and j (see the module docstring).
    """
    gram = work @ work.T
    gram *= -2.0 * scale
    return gram
