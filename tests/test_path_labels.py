"""Pins the search labels behind PathTable, the Dijkstra kernel and the
Voronoi-region Steiner tree on tie-heavy graphs: unit-weight grids,
equal-weight cycles with chords, and grids with weights in {1, 2}, each
exact and binary64.

dist and W(u, v) are lookups into the labels of one search; here they
are checked against a walk of the fixed path itself, the kernel against
the tuple-compare Dijkstra it replaced, and the bridge MST of the
Steiner tree against Kruskal over the full metric closure.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    as_weight,
    floyd_warshall,
    is_tree,
    leaves_are_terminals,
    reference_closure_mst,
    reference_sssp,
    tie_heavy,
)
from lightspan import graph as graph_mod, steiner as steiner_mod
from lightspan.graph import (
    Graph,
    UnknownEdgeError,
    build_path_table,
    shortest_paths_adj,
)
from lightspan.steiner import _voronoi_bridges, approx_steiner, exact_steiner


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


class TestVoronoiSteiner:
    """approx_steiner is Mehlhorn's construction: one search from all
    terminals, an MST of the bridges between their regions, and each
    bridge expanded along parent pointers."""

    @given(tie_heavy())
    @settings(max_examples=80, deadline=None)
    def test_a_tree_over_the_terminals_with_terminal_leaves(self, case):
        g, ts = case
        tree = approx_steiner(g, ts)
        assert is_tree(tree.edges, ts)
        assert leaves_are_terminals(tree.edges, ts)
        assert tree.weight == sum(g.weight_of(u, v) for u, v in tree.edges)

    @given(tie_heavy())
    @settings(max_examples=80, deadline=None)
    def test_bridge_keys_sum_to_the_closure_mst_weight(self, case):
        # Mehlhorn's lemma.  Integer weights keep binary64 sums exact, so
        # it holds to the bit in both regimes.
        g, ts = case
        denom = g._packed[0]
        _, chosen = _voronoi_bridges(g, ts)
        bridges = sum(key[0] for key in chosen)
        if denom is not None:
            bridges = Fraction(bridges, denom)
        assert len(chosen) == len(ts) - 1
        assert bridges == sum(d for d, _, _ in reference_closure_mst(g, ts))
        assert approx_steiner(g, ts).weight <= bridges

    @given(tie_heavy())
    @settings(max_examples=80, deadline=None)
    def test_each_bridge_joins_the_nearest_terminals_of_its_ends(self, case):
        # The parent pointers from a bridge's ends reach ts[i] and ts[j],
        # no terminal is nearer to either end, and the key is the length
        # of the walk ts[i] .. u - v .. ts[j].
        g, ts = case
        denom = g._packed[0]
        fw = floyd_warshall(g)
        parent, chosen = _voronoi_bridges(g, ts)
        for d, i, j, u, v in chosen:
            ends = []
            for x in (u, v):
                while x not in ts:
                    x = parent[x]
                ends.append(x)
            assert ends == [ts[i], ts[j]]
            for x, t in ((u, ts[i]), (v, ts[j])):
                assert fw[t][x] == min(fw[s][x] for s in ts)
            walk = fw[ts[i]][u] + g.weight_of(u, v) + fw[v][ts[j]]
            assert walk == (d if denom is None else Fraction(d, denom))

    @given(tie_heavy())
    @settings(max_examples=60, deadline=None)
    def test_equal_graphs_built_apart_give_equal_trees(self, case):
        g, ts = case
        again = Graph.from_edges(g.n, reversed(g.edges))
        first = approx_steiner(g, ts)
        assert approx_steiner(again, list(reversed(ts))) == first
        assert approx_steiner(g, ts) == first

    @given(tie_heavy())
    @settings(max_examples=60, deadline=None)
    def test_one_search_per_call(self, case):
        g, ts = case
        calls = []
        original = shortest_paths_adj

        def counted(adj, source, denom=None):
            calls.append(source)
            return original(adj, source, denom)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_mod, "shortest_paths_adj", counted)
            mp.setattr(steiner_mod, "shortest_paths_adj", counted)
            approx_steiner(g, ts)
        assert calls == [g.n]  # the virtual source
        assert not g._sssp_memo

    @pytest.mark.parametrize("exact", [True, False])
    def test_an_equidistant_vertex_joins_the_region_of_its_parent(self, exact):
        # Path 1 - 2 - 4 - 0 - 3, terminals 1 and 3: vertex 4 is two hops
        # from both, its parent is 0, the smaller id, so it lies in the
        # region of 3, not of the smaller terminal, and the bridge is (2, 4).
        order = [1, 2, 4, 0, 3]
        g = Graph.from_edges(5, [(a, b, as_weight(1, exact))
                                 for a, b in zip(order, order[1:])])
        parent, [key] = _voronoi_bridges(g, [1, 3])
        assert parent[4] == 0
        assert key == (4, 0, 1, 2, 4)
        assert approx_steiner(g, [1, 3]).edges == {(1, 2), (2, 4), (0, 4), (0, 3)}

    def test_disconnected_terminals_are_refused(self):
        g = Graph(4, ((0, 1, 1), (2, 3, 1)))
        for solver in (approx_steiner, exact_steiner):
            with pytest.raises(UnknownEdgeError):
                solver(g, [0, 3])


class TestKernelAgainstTupleCompare:
    """shortest_paths_adj keys its heap on distance alone and moves an
    equal-distance label in place; it must label exactly as the tuple
    compare did."""

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
    def test_equal_distance_in_fewer_hops_relabels_before_pop(self, exact):
        # 4 is labelled (4, 3 hops) via 0-1-2-4, then (4, 2 hops) via
        # 0-3-4.  Its neighbour 7 ties on (5, 3 hops) through 4 and
        # through 6, and 4 wins on id: only if 4 was popped with 2 hops.
        g = Graph.from_edges(8, [
            (0, 1, as_weight(1, exact)), (1, 2, as_weight(1, exact)), (2, 4, as_weight(2, exact)),
            (0, 3, as_weight(3, exact)), (3, 4, as_weight(1, exact)), (4, 7, as_weight(1, exact)),
            (0, 5, as_weight(1, exact)), (5, 6, as_weight(2, exact)), (6, 7, as_weight(2, exact))])
        sp = shortest_paths_adj(g._packed[1], 0)
        assert sp.path_to(4) == [0, 3, 4]
        assert sp.path_to(7) == [0, 3, 4, 7]
        assert (sp._dist, sp._parent, sp._maxw) == reference_sssp(g._packed[1], 0)
