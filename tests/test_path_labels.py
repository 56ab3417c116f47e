"""Pins the search labels behind PathTable, the Dijkstra kernel and the
terminal-blocked closure MST on tie-heavy graphs: unit-weight grids,
equal-weight cycles with chords, and grids with weights in {1, 2}, each
exact and binary64.

dist and W(u, v) are lookups into the labels of one search; here they
are checked against a walk of the fixed path itself, the kernel against
the tuple-compare Dijkstra it replaced, and the Prim MST over blocked
closure searches against Kruskal over the full closure edge list.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    as_weight,
    floyd_warshall,
    reference_approx_steiner,
    reference_sssp,
    tie_heavy,
)
from lightspan import graph as graph_mod, steiner as steiner_mod
from lightspan.graph import (
    Graph,
    build_path_table,
    shortest_paths,
    shortest_paths_adj,
)
from lightspan.steiner import (
    _closure_mst,
    _closure_searches,
    _kruskal,
    approx_steiner,
)


def _walk(g: Graph, verts):
    """Distance summed in order from the first vertex, and the max edge."""
    d, w = 0, 0
    for a, b in zip(verts, verts[1:]):
        x = g.weight_of(a, b)
        d, w = d + x, max(w, x)
    return d, w


class TestLabelsMatchTheFixedPath:
    @given(tie_heavy())
    @settings(max_examples=80, deadline=None)
    def test_dist_and_w_equal_the_walked_path(self, case):
        g, ts = case
        table = build_path_table(g, ts)
        fw = floyd_warshall(g)
        for u, v in table.pair_keys():
            path = table.path(u, v)
            assert path.vertices[0] == u and path.vertices[-1] == v
            d, w = _walk(g, path.vertices)
            assert table.dist(u, v) == d == path.dist == fw[u][v]
            assert table.w(u, v) == w == path.max_edge
            assert table.w(v, u) == w and table.dist(v, u) == d

    @given(tie_heavy(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_vertices_on_is_the_union_of_fixed_paths(self, case, rnd):
        g, ts = case
        table = build_path_table(g, ts)
        keys = table.pair_keys()
        pairs = rnd.sample(keys, rnd.randint(0, len(keys)))
        pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in pairs]
        expected = set()
        for u, v in pairs:
            expected.update(table.path(u, v).vertices)
        assert table.vertices_on(pairs) == expected

    @pytest.mark.parametrize("exact", [True, False])
    def test_w_follows_a_parent_that_strictly_improves(self, exact):
        # Vertex 2 is reached first over the edge of weight 3, then at a
        # smaller distance through 1; W(0, 2) is the max of the final path.
        w = [as_weight(k, exact) for k in (1, 3, 1)]
        g = Graph.from_edges(3, [(0, 1, w[0]), (0, 2, w[1]), (1, 2, w[2])])
        table = build_path_table(g, [0, 2])
        assert table.path(0, 2).vertices == (0, 1, 2)
        assert table.w(0, 2) == 1 and table.dist(0, 2) == 2

    @pytest.mark.parametrize("exact", [True, False])
    def test_w_follows_a_tie_broken_parent(self, exact):
        # 4 is reached first from 3 (distance 4, two hops), then again at
        # distance 4 in two hops from 2, the smaller predecessor id.
        w = [as_weight(k, exact) for k in (1, 2, 3, 2, 9)]
        g = Graph.from_edges(5, [(0, 3, w[0]), (0, 2, w[1]), (3, 4, w[2]),
                                 (2, 4, w[3]), (0, 1, w[4])])
        table = build_path_table(g, [0, 4])
        assert table.path(0, 4).vertices == (0, 2, 4)
        assert table.w(0, 4) == 2

    def test_exact_w_is_unpacked_over_the_common_denominator(self):
        g = Graph.from_edges(3, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 2))])
        table = build_path_table(g, [0, 2])
        assert table.w(0, 2) == Fraction(1, 2)
        assert table.dist(0, 2) == Fraction(5, 6)


class TestClosureMst:
    @given(tie_heavy())
    @settings(max_examples=80, deadline=None)
    def test_dense_prim_equals_kruskal_over_the_closure(self, case):
        g, ts = case
        sps = [shortest_paths(g, t) for t in ts[:-1]]
        closure = [(sps[i].distance_raw(v), u, v)
                   for i, u in enumerate(ts[:-1]) for v in ts[i + 1:]]
        prim = {(ts[i], ts[j]) for i, j in _closure_mst(ts, sps)}
        assert prim == _kruskal(closure)
        assert len(prim) == len(ts) - 1

    @given(tie_heavy())
    @settings(max_examples=80, deadline=None)
    def test_prim_over_blocked_rows_equals_kruskal_over_the_full_closure(self, case):
        g, ts = case
        full = Graph(g.n, g.edges)  # equal graph, its own memo
        sps = [shortest_paths(full, t) for t in ts[:-1]]
        closure = [(sps[i].distance_raw(v), u, v)
                   for i, u in enumerate(ts[:-1]) for v in ts[i + 1:]]
        blocked = _closure_searches(g, ts)
        assert not g._sssp_memo  # every row was a blocked search
        prim = {(ts[i], ts[j]) for i, j in _closure_mst(ts, blocked)}
        assert prim == _kruskal(closure)


class TestBlockedApproxSteiner:
    """approx_steiner's terminal-blocked closure searches give the tree of
    full searches, leave only full searches in the memo, and run at most
    one blocked and one full search per source on a graph."""

    @given(tie_heavy(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_full_row_reference(self, case, rnd):
        g, ts = case
        expected = reference_approx_steiner(g, ts)
        fresh = Graph(g.n, g.edges)  # equal graphs, each with its own memo
        assert set(approx_steiner(fresh, ts).edges) == expected
        # Some rows memoised in full before the call, the rest blocked.
        partly = Graph(g.n, g.edges)
        for t in rnd.sample(ts, rnd.randint(0, len(ts))):
            shortest_paths(partly, t)
        assert set(approx_steiner(partly, ts).edges) == expected
        # A second call runs full searches where the first ran blocked ones.
        again = approx_steiner(fresh, ts)
        assert set(again.edges) == expected
        assert again.weight == sum(g.weight_of(u, v) for u, v in expected)

    @given(tie_heavy(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_memo_holds_only_full_searches(self, case, rnd):
        g, ts = case
        for _ in range(3):
            approx_steiner(g, rnd.sample(ts, rnd.randint(1, len(ts))))
            for sp in g._sssp_memo.values():
                assert all(sp.reachable(v) for v in range(g.n))

    @given(tie_heavy(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_at_most_one_blocked_and_one_full_search_per_source(self, case, rnd):
        g, ts = case
        calls = []
        original = shortest_paths_adj

        def counted(adj, source, denom=None):
            calls.append((source, "full" if adj is g._packed[1] else "blocked"))
            return original(adj, source, denom)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_mod, "shortest_paths_adj", counted)
            mp.setattr(steiner_mod, "shortest_paths_adj", counted)
            for _ in range(4):
                approx_steiner(g, rnd.sample(ts, rnd.randint(1, len(ts))))
            approx_steiner(g, ts)
        assert calls and max(Counter(calls).values()) == 1
        # A source's blocked search, if any, came before its full one.
        for source, kind in calls:
            if kind == "full" and (source, "blocked") in calls:
                assert calls.index((source, "blocked")) < calls.index((source, kind))


class TestKernelAgainstTupleCompare:
    """shortest_paths_adj tests the (distance, hops, parent) order one
    field at a time; it must label exactly as the tuple compare did."""

    @given(tie_heavy())
    @settings(max_examples=80, deadline=None)
    def test_labels_equal_the_reference(self, case):
        g, _ = case
        for adj in (g._packed[1], g.adjacency):
            for s in range(g.n):
                sp = shortest_paths_adj(adj, s)
                assert (sp._dist, sp._parent, sp._maxw) == reference_sssp(adj, s)

    @pytest.mark.parametrize("exact", [True, False])
    def test_later_popped_smaller_predecessor_takes_over(self, exact):
        # 3 is popped before 2 and labels 4 with (4, 2 hops, parent 3);
        # 2 pops later and ties on (4, 2 hops) with the smaller id.
        w = [as_weight(k, exact) for k in (1, 2, 3, 2, 9)]
        g = Graph.from_edges(5, [(0, 3, w[0]), (0, 2, w[1]), (3, 4, w[2]),
                                 (2, 4, w[3]), (0, 1, w[4])])
        sp = shortest_paths_adj(g._packed[1], 0)
        assert sp._parent[4] == 2 and sp._maxw[4] == 2
        assert (sp._dist, sp._parent, sp._maxw) == reference_sssp(g._packed[1], 0)

    @pytest.mark.parametrize("exact", [True, False])
    def test_equal_distance_in_fewer_hops_is_pushed_again(self, exact):
        # 4 is labelled (4, 3 hops) via 0-1-2-4, then (4, 2 hops) via
        # 0-3-4.  Its neighbour 7 ties on (5, 3 hops) through 4 and
        # through 6, and 4 wins on id: only if 4 was settled with 2 hops.
        g = Graph.from_edges(8, [
            (0, 1, as_weight(1, exact)), (1, 2, as_weight(1, exact)), (2, 4, as_weight(2, exact)),
            (0, 3, as_weight(3, exact)), (3, 4, as_weight(1, exact)), (4, 7, as_weight(1, exact)),
            (0, 5, as_weight(1, exact)), (5, 6, as_weight(2, exact)), (6, 7, as_weight(2, exact))])
        sp = shortest_paths_adj(g._packed[1], 0)
        assert sp.path_to(4) == [0, 3, 4]
        assert sp.path_to(7) == [0, 3, 4, 7]
        assert (sp._dist, sp._parent, sp._maxw) == reference_sssp(g._packed[1], 0)
