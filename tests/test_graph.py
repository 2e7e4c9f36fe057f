"""Edge order, the union history and Kruskal: pinned cases, oracles, properties."""

import math
from collections import defaultdict
from itertools import combinations
from unittest import mock

import pytest
from reference import keys, prim_msf
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from geomst import Edge, EdgeList, SplitMix64, UsageError, edge_key, graph, kruskal, merges

edges_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.25, 7.0]),
    ).filter(lambda t: t[0] != t[1]),
    max_size=40,
)


def order(*edges):
    """The (w, u, v) keys of (u, v, w) tuples in the order an EdgeList holds them."""
    return [(e.w, e.u, e.v) for e in EdgeList(*zip(*edges))]


def test_order_breaks_weight_ties_by_endpoints():
    assert order((0, 1, 2.0), (2, 3, 2.0)) == [(2.0, 0, 1), (2.0, 2, 3)]
    assert order((2, 3, 2.0), (0, 1, 2.0)) == [(2.0, 0, 1), (2.0, 2, 3)]


def test_order_weight_dominates():
    assert order((0, 1, 3.0), (0, 5, 1.0)) == [(1.0, 0, 5), (3.0, 0, 1)]


def test_order_identical_edges_compare_equal():
    assert order((1, 2, 4.0), (2, 1, 4.0)) == [(4.0, 1, 2), (4.0, 1, 2)]
    assert EdgeList([1], [2], [4.0]) == EdgeList([2], [1], [4.0])


def test_order_second_endpoint_is_final_tiebreak():
    assert order((0, 3, 2.0), (0, 1, 2.0)) == [(2.0, 0, 1), (2.0, 0, 3)]


def test_kruskal_canonicalizes_tuple_endpoints():
    (e,) = kruskal([(5, 2, 1.0)])
    assert (e.u, e.v) == (2, 5)


def test_kruskal_rejects_self_loop_and_non_finite_tuples():
    with pytest.raises(UsageError, match="self-loop"):
        kruskal([(3, 3, 1.0)])
    with pytest.raises(UsageError, match="finite"):
        kruskal([(0, 1, float("nan"))])
    with pytest.raises(UsageError, match="finite"):
        kruskal([(0, 1, float("inf"))])


def test_kruskal_rejects_non_integer_tuple_endpoints():
    with pytest.raises(UsageError, match="edge endpoints must be integers"):
        kruskal([(0.5, 2, 1.0), (2, 3.9, 0.5)])


def test_kruskal_triangle_drops_heaviest_cycle_edge():
    tri = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]
    assert keys(kruskal(tri, 3)) == [(1.0, 0, 1), (2.0, 1, 2)]


def test_kruskal_empty_candidates_give_empty_forest():
    assert len(kruskal([], 4)) == 0
    assert len(kruskal(EdgeList(), 4)) == 0


def test_kruskal_rejects_out_of_range_endpoints():
    with pytest.raises(UsageError):
        kruskal([(0, 5, 1.0)], 3)


def test_kruskal_output_is_sorted_by_edge_key():
    edges = _random_edges(seed=2, count=30, n=12)
    out = kruskal(edges, 12)
    ks = [edge_key(e) for e in out]
    assert ks == sorted(ks)


def _random_edges(seed, count, n, weight_pool=(1.0, 2.0, 2.0, 3.0, 5.5, 8.25)):
    rng = SplitMix64(seed)
    edges = []
    while len(edges) < count:
        u = rng.below(n)
        v = rng.below(n)
        if u == v:
            continue
        edges.append(Edge(min(u, v), max(u, v), weight_pool[rng.below(len(weight_pool))]))
    return edges


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
def test_kruskal_agrees_with_scan_prim_oracle(seed):
    edges = _random_edges(seed, 50, 12)
    assert keys(kruskal(edges, 12)) == prim_msf(edges, 12)


def test_kruskal_forest_size_is_n_minus_components():
    edges = [Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(4, 5, 2.0)]
    out = kruskal(edges, 7)
    # components: {0,1,2}, {3}, {4,5}, {6} -> 7 - 4 = 3 edges
    assert len(out) == 3


def test_kruskal_total_weight_is_minimal_among_spanning_trees():
    # exhaustive over all spanning trees of a 5-vertex candidate graph
    from itertools import combinations

    edges = _random_edges(9, 9, 5)
    best = None
    for triple in combinations(range(len(edges)), 4):
        if len(merges([edges[i].u for i in triple], [edges[i].v for i in triple])) == 4:
            total = sum(edges[i].w for i in triple)
            best = total if best is None else min(best, total)
    got = kruskal(edges, 5)
    if best is not None:
        assert len(got) == 4
        assert math.fsum(got.w.tolist()) == pytest.approx(best, rel=1e-15)


def _all_cycles(edges):
    """Every simple cycle of the multigraph as a frozenset of edge indices."""
    by_pair = defaultdict(list)
    for i, e in enumerate(edges):
        by_pair[(e.u, e.v)].append(i)
    cycles = set()
    for idxs in by_pair.values():
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                cycles.add(frozenset((idxs[a], idxs[b])))
    adj = defaultdict(list)
    for i, e in enumerate(edges):
        adj[e.u].append((e.v, i))
        adj[e.v].append((e.u, i))

    def extend(anchor, current, visited, used):
        for nxt, ei in adj[current]:
            if ei in used:
                continue
            if nxt == anchor and len(used) >= 2:
                cycles.add(frozenset(used | {ei}))
            elif nxt not in visited and nxt > anchor:
                extend(anchor, nxt, visited | {nxt}, used | {ei})

    vertices = {e.u for e in edges} | {e.v for e in edges}
    for anchor in sorted(vertices):
        extend(anchor, anchor, {anchor}, frozenset())
    return cycles


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_no_output_edge_is_the_strict_maximum_of_any_cycle(seed):
    n = 8
    edges = _random_edges(seed, 14, n)
    edges += edges[:2]  # force parallel duplicates into the multigraph
    chosen = {(e.w, e.u, e.v) for e in kruskal(edges, n)}
    for cycle in _all_cycles(edges):
        cycle_keys = sorted(edge_key(edges[i]) for i in cycle)
        top = cycle_keys[-1]
        strict = len(cycle_keys) < 2 or cycle_keys[-2] < top
        if strict:
            assert top not in chosen


@given(edges=edges_st)
def test_kruskal_is_idempotent(edges):
    once = kruskal(edges, 10)
    twice = kruskal(once, 10)
    assert keys(once) == keys(twice)


@given(edges=edges_st, seed=st.integers(min_value=0, max_value=2**32))
def test_kruskal_ignores_candidate_order(edges, seed):
    shuffled = list(edges)
    SplitMix64(seed).shuffle(shuffled)
    assert keys(kruskal(edges, 10)) == keys(kruskal(shuffled, 10))


@given(edges=edges_st)
def test_kruskal_matches_scan_prim_on_random_multigraphs(edges):
    assert keys(kruskal(edges, 10)) == prim_msf(edges, 10)


SPARSE_IDS = [0, 1, 2, 3, 5, 8, 13, 10**9, 2**40, 2**62]

sparse_multigraphs = st.lists(
    st.tuples(
        st.sampled_from(SPARSE_IDS),
        st.sampled_from(SPARSE_IDS),
        st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.25]),
    ).filter(lambda t: t[0] != t[1]),
    max_size=40,
).map(lambda ts: EdgeList(*zip(*ts)))


def _full_scan(el):
    """Kruskal over every candidate with a dict union-find: (forest keys, kept positions)."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    kept, positions = [], []
    for i, (u, v, w) in enumerate(el.triples()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.append((w, u, v))
            positions.append(i)
    return kept, positions


@given(el=sparse_multigraphs)
def test_early_exit_kruskal_equals_a_full_scan_and_stops_at_the_last_tree_edge(el):
    with mock.patch.object(graph, "_root", side_effect=graph._root) as root:
        got = kruskal(el)
    kept, positions = _full_scan(el)
    assert [(e.w, e.u, e.v) for e in got] == kept
    # two root lookups per scanned pair, on its compacted ends, which follow the ids' order
    ids = sorted(set(el.u.tolist()) | set(el.v.tolist()))
    looked_up = [ids[c.args[1]] for c in root.call_args_list]
    scanned = list(zip(looked_up[::2], looked_up[1::2]))
    spans = len(kept) == len(ids) - 1
    # the scan visits candidates in (w, u, v) order, filtered ones left out, and never
    # one after the last tree edge
    ends = list(zip(el.u.tolist(), el.v.tolist()))
    candidates = iter(ends[: positions[-1] + 1] if spans and kept else ends)
    assert all(pair in candidates for pair in scanned)
    assert len(scanned) >= len(kept)


@st.composite
def filter_cases(draw):
    """(u, v, w) tuples in any order over sparse or huge ids, with many ties and copies; and the ids."""
    ids = sorted(
        draw(st.lists(st.integers(0, 20) | st.integers(2**62, 2**63 - 1), min_size=2, max_size=14, unique=True))
    )
    weights = draw(st.sampled_from([[1.0], [1.0, 2.0], [0.5, 1.0, 1.0, 2.0, 3.25, 7.0]]))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(weights))
    edges = draw(st.lists(pair.filter(lambda t: t[0] != t[1]), max_size=60))
    if edges:  # copies of an edge, which sit next to each other in (w, u, v) order
        edges += [edges[i] for i in draw(st.lists(st.integers(0, len(edges) - 1), max_size=10))]
    return draw(st.permutations(edges)), ids


@given(case=filter_cases(), cut=st.integers(min_value=0, max_value=70))
def test_filter_kruskal_matches_scan_prim(case, cut):
    # Up to 14 ids give a first round of at most 28 candidates, so most cases
    # take several rounds; few ids over many pairs leave some disconnected.
    edges, ids = case
    slot = {x: i for i, x in enumerate(ids)}  # in id order, so prim's tie-break is the same
    dense = prim_msf([(slot[u], slot[v], w) for u, v, w in edges], len(ids))
    expected = [(w, ids[a], ids[b]) for w, a, b in dense]
    assert keys(kruskal(edges)) == expected
    parts = [EdgeList(*zip(*edges[:cut])), EdgeList(*zip(*edges[cut:]))]  # the union of two lists
    assert keys(kruskal(parts)) == expected


def test_filter_kruskal_never_splits_a_tie_at_the_pivot():
    # Ten equal pairs among 1..5, then the star from 0, as two lists: the
    # first round's share of 12 cuts through the star's ties, and every one
    # of them must still be scanned before (1, 3), which comes later in order.
    rest = EdgeList(*zip(*[(a, b, 1.0) for a, b in combinations(range(1, 6), 2)]))
    star = EdgeList([0] * 5, range(1, 6), [1.0] * 5)
    assert keys(kruskal([rest, star])) == [(1.0, 0, b) for b in range(1, 6)]


def test_edgelist_sorted_and_total_weight():
    el = EdgeList([2, 0, 0], [3, 1, 2], [1.0, 1.0, 0.5])
    assert [(e.w, e.u, e.v) for e in el] == [(0.5, 0, 2), (1.0, 0, 1), (1.0, 2, 3)]
    assert math.fsum(el.w.tolist()) == 2.5


def test_edgelist_arrays_are_canonical_ordered_and_read_only():
    el = EdgeList([3, 0, 4], [1, 2, 0], [1.0, 1.0, 0.5])
    assert el.u.dtype == np.int64 and el.v.dtype == np.int64 and el.w.dtype == np.float64
    assert el.u.tolist() == [0, 0, 1] and el.v.tolist() == [4, 2, 3]
    assert el.w.tolist() == [0.5, 1.0, 1.0]
    assert el == EdgeList(*zip(*el.edges)) and el != EdgeList([0], [2], [1.0])
    assert el.edges + el.edges == list(el) * 2
    with pytest.raises(ValueError):
        el.w[0] = 2.0


@pytest.mark.parametrize(
    "u, v, w, match",
    [
        ([1], [1], [1.0], "self-loop edge on vertex 1"),
        ([0], [1], [float("nan")], "must be finite, got nan"),
        ([0, 2], [1, 3], [1.0, float("inf")], "must be finite, got inf"),
        ([0, 1], [1], [1.0, 2.0], "one length"),
        ([0.5], [1.7], [1.0], "edge endpoints must be integers, got dtype float64"),
        (np.array([True]), np.array([False]), [1.0], "must be integers, got dtype bool"),
    ],
)
def test_edgelist_rejects_invalid_arrays(u, v, w, match):
    with pytest.raises(UsageError, match=match):
        EdgeList(u, v, w)


def test_edgelist_refuses_endpoints_beyond_int64():
    for big in ([2**63], np.array([2**63], dtype=np.uint64)):
        with pytest.raises(UsageError, match=r"edge endpoints must be at most 2\*\*63 - 1, got 9223372036854775808"):
            EdgeList(big, [1], [1.0])
    edges = EdgeList(np.array([2**63 - 1], dtype=np.uint64), [1], [1.0])
    assert (edges.u.tolist(), edges.v.tolist()) == ([1], [2**63 - 1])


def test_edgelist_names_an_endpoint_list_value_beyond_int64():
    # np.asarray reads [2**64] as an object array, so the list itself is searched
    with pytest.raises(UsageError, match=r"edge endpoints must be at most 2\*\*63 - 1, got 18446744073709551616$"):
        EdgeList([2**64], [1], [1.0])
    with pytest.raises(UsageError, match=r"edge endpoints must be at least -2\*\*63, got -18446744073709551616$"):
        EdgeList([0], [-(2**64)], [1.0])


@pytest.mark.parametrize("big", [10**7, 2**40, 2**62])
def test_kruskal_compacts_sparse_vertex_ids(big):
    # Union-find runs over the ids that occur, not over max(id) + 1 slots.
    dense = [Edge(0, 1, 1.0), Edge(1, 2, 2.0), Edge(0, 2, 3.0), Edge(2, 3, 1.5)]
    relabel = {0: 0, 1: 1, 2: 2, 3: big}
    sparse = [Edge(relabel[e.u], relabel[e.v], e.w) for e in dense]
    expected = [(w, relabel[u], relabel[v]) for w, u, v in keys(kruskal(dense, 4))]
    assert keys(kruskal(sparse)) == expected
    assert keys(kruskal(sparse, big + 1)) == expected
    with pytest.raises(UsageError, match="lies outside"):
        kruskal(sparse, big)


def test_union_find_idempotent_find_and_union_semantics():
    # ids 0..3 occur, so the merges create nodes 4, 5, 6; a root is its set's id
    got = merges([0, 1, 1, 2, 0, 3], [1, 0, 1, 3, 2, 2])
    assert got == [(0, 0, 1), (3, 2, 3), (4, 4, 5)]
    assert merges([5], [5]) == [] and merges([], []) == []


@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=11)),
        max_size=40,
    )
)
def test_union_find_matches_set_merging_model(ops):
    u, v = [a for a, _ in ops], [b for _, b in ops]
    got = merges(np.array(u, dtype=np.int64), np.array(v, dtype=np.int64))
    ids = sorted(set(u) | set(v))
    model = {x: {x} for x in ids}
    label = {x: slot for slot, x in enumerate(ids)}  # each set's id, keyed by its members
    expected = []
    for i, (a, b) in enumerate(ops):
        sa, sb = model[a], model[b]
        if sa is not sb:
            expected.append((i, label[a], label[b]))
            sa |= sb
            for x in sa:
                model[x] = sa
                label[x] = len(ids) + len(expected) - 1
    # a merge is reported iff the two sets differ, with the sets' ids as roots
    assert got == expected
