import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import enumerate_steiner_optimum, rand_connected_graph, rand_tree, subgraph_dist
from lightspan.graph import Beta, Graph, canonical
from lightspan import steiner
from lightspan.steiner import (
    EmptyTerminalSetError,
    SteinerReconstructionError,
    SteinerTree,
    TooManyTerminalsError,
    approx_steiner,
    build_backbone,
    exact_steiner,
    prune_to_terminals,
)


def is_tree(edges, must_span=()):
    if not edges:
        return len(set(must_span)) <= 1
    verts = {x for e in edges for x in e}
    if not set(must_span) <= verts:
        return False
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False  # cycle
        parent[rv] = ru
    roots = {find(v) for v in verts}
    return len(roots) == 1


def leaves_are_terminals(edges, terminals):
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return all(v in terminals for v, d in deg.items() if d == 1)


class TestApproxSteiner:
    def test_all_vertices_gives_mst(self):
        for seed in range(8):
            g = rand_connected_graph(seed, 10, 12)
            st_tree = approx_steiner(g, range(g.n))
            assert is_tree(st_tree.edges, range(g.n))
            # spanning tree of MST weight is an MST
            mst_weight = _kruskal_weight(g)
            assert st_tree.weight == mst_weight

    def test_single_terminal(self):
        g = rand_connected_graph(0, 6, 4)
        t = approx_steiner(g, [3])
        assert t.edges == frozenset() and t.weight == 0

    def test_empty_terminals(self):
        g = rand_connected_graph(0, 6, 4)
        with pytest.raises(EmptyTerminalSetError):
            approx_steiner(g, [])

    def test_leaves_and_treeness(self):
        for seed in range(10):
            g = rand_connected_graph(seed + 50, 12, 14)
            terms = frozenset({0, 3, 7})
            t = approx_steiner(g, terms)
            assert is_tree(t.edges, terms)
            assert leaves_are_terminals(t.edges, terms)

    def test_two_approximation_against_exact(self):
        # 100+ random instances, <= 10 vertices, <= 6 terminals.
        count = 0
        for seed in range(110):
            n = 5 + seed % 6
            g = rand_connected_graph(seed, n, n)
            k = 2 + seed % 5
            terms = frozenset(range(0, min(k, n)))
            approx = approx_steiner(g, terms)
            exact = exact_steiner(g, terms)
            assert approx.weight <= 2 * exact.weight, seed
            assert exact.weight <= approx.weight
            count += 1
        assert count >= 100


def _kruskal_weight(g):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0
    for u, v, w in sorted(g.edges, key=lambda e: (e[2], e[0], e[1])):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            total += w
    return total


class TestExactSteiner:
    def test_single_terminal(self):
        g = rand_connected_graph(1, 8, 6)
        assert exact_steiner(g, [2]).weight == 0

    def test_reconstruction_mismatch_raises(self, monkeypatch):
        g = rand_connected_graph(3, 9, 8)
        real = steiner._tree_of

        def heavier(g, terminals, edges):
            t = real(g, terminals, edges)
            return SteinerTree(t.terminals, t.edges, t.weight + 1)
        monkeypatch.setattr(steiner, "_tree_of", heavier)
        with pytest.raises(SteinerReconstructionError):
            exact_steiner(g, [0, 4, 8])

    def test_two_terminals_is_shortest_path(self):
        from lightspan.graph import fixed_shortest_path
        for seed in range(6):
            g = rand_connected_graph(seed + 7, 9, 10)
            t = exact_steiner(g, [0, 5])
            assert t.weight == fixed_shortest_path(g, 0, 5).dist

    def test_four_cycle_three_terminals(self):
        g = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        t = exact_steiner(g, [0, 1, 2])
        # exhaustive enumeration on this 4-edge graph gives weight 2
        assert enumerate_steiner_optimum(g, [0, 1, 2]) == 2
        assert t.weight == 2

    def test_matches_enumeration_on_random_instances(self):
        for seed in range(25):
            n = 5 + seed % 4
            g = rand_connected_graph(seed + 300, n, 4)
            terms = sorted({0, 1 + seed % (n - 1), n - 1})
            expected = enumerate_steiner_optimum(g, terms)
            assert exact_steiner(g, terms).weight == expected, seed

    def test_terminal_cap(self):
        g = rand_connected_graph(2, 16, 10)
        with pytest.raises(TooManyTerminalsError):
            exact_steiner(g, range(13))

    def test_steiner_points_used(self):
        # star: terminals on the rim, hub is a Steiner point
        g = Graph.from_edges(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1),
                                 (0, 1, Fraction(5, 2)), (1, 2, Fraction(5, 2)),
                                 (0, 2, Fraction(5, 2))])
        t = exact_steiner(g, [0, 1, 2])
        assert t.weight == 3
        assert t.edges == frozenset({(0, 3), (1, 3), (2, 3)})


class TestPrune:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_prune_idempotent(self, seed):
        g = rand_connected_graph(seed, 10, 12)
        terms = frozenset({0, 4, 9})
        edges = {canonical(u, v) for u, v, _ in g.edges}
        once = prune_to_terminals(edges, terms)
        twice = prune_to_terminals(once, terms)
        assert once == twice


class TestBackbone:
    def test_tree_host_has_no_unsatisfied_pairs(self):
        for seed in range(6):
            g = rand_tree(seed, 12)
            bb = build_backbone(g, [0, 5, 9], Beta("relative", Fraction(1, 2)))
            assert bb.unsatisfied_pairs == frozenset()
            assert bb.s_prime == frozenset({0, 5, 9})
            assert bb.h.edges == bb.r.edges

    def test_unit_k4_with_half_relative(self):
        g = Graph.from_edges(4, [(u, v, 1) for u, v in
                                 itertools.combinations(range(4), 2)])
        bb = build_backbone(g, range(4), Beta("relative", Fraction(1, 2)))
        assert bb.r.weight == 3  # star
        # non-center pairs have d_R = 2 > 1 + 0.5
        assert len(bb.unsatisfied_pairs) == 3
        assert bb.s_prime == frozenset(range(4))

    def test_unsatisfied_pairs_verified_independently(self):
        # every pair in P violates inside R, every other pair satisfies
        for seed in range(12):
            g = rand_connected_graph(seed + 40, 14, 16)
            terms = sorted({1, 4, 8, 12})
            beta = Beta("relative", Fraction(1, 4))
            bb = build_backbone(g, terms, beta)
            for i, u in enumerate(terms):
                for v in terms[i + 1:]:
                    d_r = subgraph_dist(g, bb.r.edges, u, v)
                    allowed = (bb.path_table.dist(u, v)
                               + beta.value * bb.path_table.w(u, v))
                    if (u, v) in bb.unsatisfied_pairs:
                        assert d_r > allowed
                    else:
                        assert d_r <= allowed

    def test_backbone_invariants(self):
        for seed in range(15):
            g = rand_connected_graph(seed + 70, 16, 20)
            terms = sorted({0, 3, 6, 9, 12, 15})
            bb = build_backbone(g, terms, Beta("relative", Fraction(1, 2)))
            assert frozenset(terms) <= bb.s_prime <= bb.h.vertices
            assert bb.h.weight <= 2 * bb.t.weight
            assert bb.h.edges <= (bb.r.edges | bb.t.edges)
            assert is_tree(bb.h.edges, bb.s_prime)
            assert leaves_are_terminals(bb.h.edges, bb.s_prime)

    def test_wmax_mode_unsatisfied_check(self):
        g = rand_connected_graph(11, 12, 16)
        beta = Beta("wmax", Fraction(9, 2))
        bb = build_backbone(g, [0, 5, 11], beta)
        for u, v in bb.unsatisfied_pairs:
            d_r = subgraph_dist(g, bb.r.edges, u, v)
            assert d_r > bb.path_table.dist(u, v) + beta.value * g.w_max
