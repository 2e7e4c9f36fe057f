"""Edge order, union-find and Kruskal: pinned cases, oracles, properties."""

from collections import defaultdict

import pytest
from conftest import keys, prim_msf
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from geomst import Edge, EdgeList, SplitMix64, UnionFind, UsageError, edge_key, kruskal

edges_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.25, 7.0]),
    ).filter(lambda t: t[0] != t[1]),
    max_size=40,
).map(lambda ts: [Edge(u, v, w) for u, v, w in ts])


def order(*edges):
    """The (w, u, v) keys of edges in the order an EdgeList holds them."""
    return [(e.w, e.u, e.v) for e in EdgeList.of(edges)]


def test_order_breaks_weight_ties_by_endpoints():
    assert order(Edge(0, 1, 2.0), Edge(2, 3, 2.0)) == [(2.0, 0, 1), (2.0, 2, 3)]
    assert order(Edge(2, 3, 2.0), Edge(0, 1, 2.0)) == [(2.0, 0, 1), (2.0, 2, 3)]


def test_order_weight_dominates():
    assert order(Edge(0, 1, 3.0), Edge(0, 5, 1.0)) == [(1.0, 0, 5), (3.0, 0, 1)]


def test_order_identical_edges_compare_equal():
    assert order(Edge(1, 2, 4.0), Edge(2, 1, 4.0)) == [(4.0, 1, 2), (4.0, 1, 2)]
    assert EdgeList.of([Edge(1, 2, 4.0)]) == EdgeList.of([Edge(2, 1, 4.0)])


def test_order_second_endpoint_is_final_tiebreak():
    assert order(Edge(0, 3, 2.0), Edge(0, 1, 2.0)) == [(2.0, 0, 1), (2.0, 0, 3)]


def test_edge_canonicalizes_endpoints():
    e = Edge(5, 2, 1.0)
    assert (e.u, e.v) == (2, 5)


def test_edge_rejects_self_loops_and_non_finite_weights():
    with pytest.raises(UsageError):
        Edge(3, 3, 1.0)
    with pytest.raises(UsageError):
        Edge(0, 1, float("nan"))
    with pytest.raises(UsageError):
        Edge(0, 1, float("inf"))


def test_kruskal_triangle_drops_heaviest_cycle_edge():
    tri = [Edge(0, 1, 1.0), Edge(1, 2, 2.0), Edge(0, 2, 3.0)]
    assert keys(kruskal(tri, 3)) == [(1.0, 0, 1), (2.0, 1, 2)]


def test_kruskal_empty_candidates_give_empty_forest():
    assert len(kruskal(EdgeList.of([]), 4)) == 0


def test_kruskal_rejects_out_of_range_endpoints():
    with pytest.raises(UsageError):
        kruskal([Edge(0, 5, 1.0)], 3)


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
        edges.append(Edge(u, v, weight_pool[rng.below(len(weight_pool))]))
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
        uf = UnionFind(5)
        if all(uf.union(edges[i].u, edges[i].v) for i in triple):
            total = sum(edges[i].w for i in triple)
            best = total if best is None else min(best, total)
    got = kruskal(edges, 5)
    if best is not None:
        assert len(got) == 4
        assert got.total_weight() == pytest.approx(best, rel=1e-15)


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


def test_edgelist_sorted_and_total_weight():
    el = EdgeList.of([Edge(2, 3, 1.0), Edge(0, 1, 1.0), Edge(0, 2, 0.5)])
    assert [(e.w, e.u, e.v) for e in el] == [(0.5, 0, 2), (1.0, 0, 1), (1.0, 2, 3)]
    assert el.total_weight() == 2.5


def test_edgelist_arrays_are_canonical_ordered_and_read_only():
    el = EdgeList([3, 0, 4], [1, 2, 0], [1.0, 1.0, 0.5])
    assert el.u.dtype == np.int64 and el.v.dtype == np.int64 and el.w.dtype == np.float64
    assert el.u.tolist() == [0, 0, 1] and el.v.tolist() == [4, 2, 3]
    assert el.w.tolist() == [0.5, 1.0, 1.0]
    assert el == EdgeList.of(el.edges) and el != EdgeList([0], [2], [1.0])
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
    ],
)
def test_edgelist_rejects_invalid_arrays(u, v, w, match):
    with pytest.raises(UsageError, match=match):
        EdgeList(u, v, w)


def test_concat_keeps_every_edge_in_order():
    a = EdgeList.of([Edge(0, 1, 2.0), Edge(1, 2, 1.0)])
    b = EdgeList.of([Edge(0, 1, 2.0), Edge(0, 2, 0.5)])
    joined = EdgeList.concat([a, b])
    assert [(e.w, e.u, e.v) for e in joined] == [(0.5, 0, 2), (1.0, 1, 2), (2.0, 0, 1), (2.0, 0, 1)]
    assert keys(kruskal(joined, 3)) == [(0.5, 0, 2), (1.0, 1, 2)]


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
    uf = UnionFind(6)
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.find(uf.find(1)) == uf.find(1)
    assert uf.find(0) == uf.find(1)
    assert uf.find(2) != uf.find(0)


@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=11)),
        max_size=40,
    )
)
def test_union_find_matches_set_merging_model(ops):
    uf = UnionFind(12)
    model = {i: {i} for i in range(12)}
    for a, b in ops:
        merged = uf.union(a, b)
        sa, sb = model[a], model[b]
        assert merged == (sa is not sb)
        if sa is not sb:
            sa |= sb
            for x in sb:
                model[x] = sa
    for a in range(12):
        for b in range(12):
            assert (uf.find(a) == uf.find(b)) == (model[a] is model[b])
