import math
import random
from fractions import Fraction

import pytest

from helpers import rand_connected_graph, subgraph_dist
from lightspan.graph import Beta, Graph, UnknownEdgeError, build_path_table, canonical
from lightspan.steiner import build_backbone
from lightspan.transform import map_back, scaled_universe

BETA = Beta("relative", Fraction(1, 2))


def universe(seed, n=14, extra=16, terms=(0, 4, 8, 12)):
    g = rand_connected_graph(seed, n, extra)
    bb = build_backbone(g, sorted(set(terms)), BETA)
    return g, bb


class TestScale:
    def test_one_terminal_backbone_refused(self):
        g = rand_connected_graph(2, 8, 6)
        with pytest.raises(ValueError, match="zero weight"):
            scaled_universe(build_backbone(g, [3], BETA))

    def test_sigma_formula(self):
        # |V_H| = 5, weight(H) = 10 -> sigma = 1/2, an edge of 4 scales to 2
        g = Graph.from_edges(5, [(0, 1, 4), (1, 2, 2), (2, 3, 2), (3, 4, 2)])
        bb = build_backbone(g, range(5), BETA)
        assert len(bb.h.vertices) == 5 and bb.h.weight == 10
        inst = scaled_universe(bb)
        assert inst.sigma == Fraction(1, 2)
        assert inst.g_s.weight_of(0, 1) == 2

    def test_identity_when_weight_equals_vertex_count(self):
        g = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 2)])
        bb = build_backbone(g, range(4), BETA)
        assert bb.h.weight == 4 and len(bb.h.vertices) == 4
        inst = scaled_universe(bb)
        assert inst.sigma == 1
        assert inst.g_s.edges == g.edges

    def test_scaled_tree_weight_is_vertex_count(self):
        for seed in range(8):
            g, bb = universe(seed)
            inst = scaled_universe(bb)
            assert sum(w for _, _, w in inst.h_s.edges) == len(bb.h.vertices)

    def test_scaling_invariance_property(self):
        # Condition satisfaction is preserved in both directions under
        # scaling, for random subgraphs and beta in {eps, 4+eps}.
        for seed in range(10):
            g, bb = universe(seed)
            inst = scaled_universe(bb)
            rng = random.Random(seed)
            pairs = [e for e in g.edges]
            sub = [canonical(u, v) for u, v, _ in pairs if rng.random() < 0.7]
            table = bb.path_table
            for beta_val in (Fraction(1, 2), Fraction(9, 2)):
                for (u, v) in table.pair_keys():
                    d_sub = subgraph_dist(g, sub, u, v)
                    lhs = d_sub <= table.dist(u, v) + beta_val * table.w(u, v)
                    d_sub_s = d_sub * inst.sigma if d_sub != math.inf else math.inf
                    rhs = (d_sub_s <= inst.sigma * table.dist(u, v)
                           + beta_val * inst.sigma * table.w(u, v))
                    assert lhs == rhs


class TestDropHeavy:
    def test_identity_when_no_heavy_edge(self):
        g, bb = universe(3)
        inst = scaled_universe(bb)
        scaled = tuple((u, v, w * inst.sigma) for u, v, w in g.edges)
        if not any(w > inst.v_h for _, _, w in scaled):
            assert inst.heavy_removed == frozenset()
            assert inst.g_s.edges == scaled

    def test_heavy_edge_removed_and_terminal_distances_kept(self):
        # One very heavy edge between terminals joined through the tree.
        g = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1000)])
        bb = build_backbone(g, [0, 3], BETA)
        inst = scaled_universe(bb)
        assert inst.heavy_removed == frozenset({(0, 3)})
        assert all(canonical(u, v) != (0, 3) for u, v, _ in inst.g_s.edges)

    def test_terminal_distances_preserved_on_random_instances(self):
        # Exact weights: the distances of the scaled host before the drop
        # are sigma times the host's.  The plain graphs drop no edge; the
        # same graphs with a few chords 1000 times heavier drop them all.
        for seed in range(12):
            g = rand_connected_graph(seed + 20, 14, 16)
            rng = random.Random(seed)
            chords = set()
            while len(chords) < 3:
                u, v = rng.sample(range(g.n), 2)
                if canonical(u, v) not in g.weight_by_pair:
                    chords.add(canonical(u, v))
            heavy = Graph.from_edges(g.n, list(g.edges) + [
                (u, v, 1000 * Fraction(rng.randint(8, 80), 8)) for u, v in chords])
            for host, dropped in ((g, False), (heavy, True)):
                bb = build_backbone(host, [0, 4, 8, 12], BETA)
                inst = scaled_universe(bb)
                assert bool(inst.heavy_removed) is dropped
                if dropped:
                    assert inst.heavy_removed == chords
                t_after = build_path_table(inst.g_s, sorted(bb.terminals))
                for pair in t_after.pair_keys():
                    assert (t_after.dist(*pair)
                            == inst.sigma * bb.path_table.dist(*pair))


class TestSubdivide:
    def test_piece_arithmetic(self):
        # weight 3.5 -> 3 new vertices, 4 pieces of 0.875
        g = Graph.from_edges(2, [(0, 1, Fraction(7, 2))])
        bb = build_backbone(g, [0, 1], BETA)
        inst = scaled_universe(bb)
        # sigma = 2 / 3.5 = 4/7; forcing a clean test: subdivide manually
        # with a crafted instance whose scaled tree edge weighs 3.5
        g2 = Graph.from_edges(5, [(0, 1, 7), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
        bb2 = build_backbone(g2, range(5), BETA)
        inst2 = scaled_universe(bb2)
        scaled = {canonical(u, v): w for u, v, w in inst2.h_s.edges}
        w01 = scaled[(0, 1)]
        pieces = [e for e in inst2.h_prime.edges
                  if inst2.subdivision_of[canonical(e[0], e[1])] == (0, 1)]
        assert len(pieces) == math.ceil(w01)
        assert all(w == w01 / math.ceil(w01) for _, _, w in pieces)
        assert sum(w for _, _, w in pieces) == w01

    def test_light_edges_stay_intact(self):
        # A scaled tree edge of weight <= 1 is kept as-is (ceil = 1).
        # Note a whole scaled tree always averages |V_H|/(|V_H|-1) > 1 per
        # edge, so only the per-edge identity is realizable.
        g = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 6)])
        bb = build_backbone(g, [0, 3], BETA)
        inst = scaled_universe(bb)
        assert inst.sigma == Fraction(1, 2)
        light = {canonical(u, v) for u, v, w in inst.h_s.edges if w <= 1}
        assert light == {(0, 1), (1, 2)}
        hp_pairs = {canonical(u, v) for u, v, _ in inst.h_prime.edges}
        assert light <= hp_pairs
        assert all(inst.subdivision_of[e] == e for e in light)

    def test_tree_level_bounds(self):
        for seed in range(12):
            g, bb = universe(seed + 40)
            inst = scaled_universe(bb)
            v_h = inst.v_h
            total = sum(w for _, _, w in inst.h_prime.edges)
            assert total == v_h  # subdivision conserves tree weight
            assert all(w <= 1 for _, _, w in inst.h_prime.edges)
            n_subdiv = inst.h_prime.n - g.n
            assert n_subdiv <= total
            h_prime_vertices = {x for u, v, _ in inst.h_prime.edges
                                for x in (u, v)}
            assert len(h_prime_vertices) <= 2 * v_h


class TestSplice:
    def test_distances_preserved_for_terminals(self):
        for seed in range(12):
            g, bb = universe(seed + 60)
            inst = scaled_universe(bb)
            terms = sorted(bb.terminals)
            t_gs = build_path_table(inst.g_s, terms)
            t_gps = build_path_table(inst.g_prime_s, terms)
            for pair in t_gs.pair_keys():
                assert t_gs.dist(*pair) == t_gps.dist(*pair)

    def test_subdivision_preserves_all_original_distances(self):
        # Not just terminal pairs: subdividing tree edges leaves the
        # metric over every original vertex untouched.
        for seed in range(4):
            g, bb = universe(seed + 300, n=10, extra=10, terms=(0, 5, 9))
            inst = scaled_universe(bb)
            if inst.heavy_removed:
                continue  # dropping may isolate non-terminal vertices
            t_before = build_path_table(inst.g_s, range(g.n))
            t_after = build_path_table(inst.g_prime_s, range(g.n))
            for pair in t_before.pair_keys():
                assert t_before.dist(*pair) == t_after.dist(*pair)

    def test_edge_census_after_splice(self):
        # g'_s = surviving non-tree edges + one piece chain per tree edge.
        for seed in range(6):
            g, bb = universe(seed + 200)
            inst = scaled_universe(bb)
            tree_pairs = bb.h.edges
            scaled_tree = {canonical(u, v): w for u, v, w in inst.h_s.edges}
            survivors = sum(1 for u, v, _ in inst.g_s.edges
                            if canonical(u, v) not in tree_pairs)
            expected = survivors + sum(math.ceil(w)
                                       for w in scaled_tree.values())
            assert len(inst.g_prime_s.edges) == expected

    def test_no_heavy_edge_outside_h_prime(self):
        for seed in range(10):
            g, bb = universe(seed + 80)
            inst = scaled_universe(bb)
            hp = inst.h_prime_pairs()
            for u, v, w in inst.g_prime_s.edges:
                if canonical(u, v) not in hp:
                    assert w <= inst.v_h

    def test_provenance_round_trip(self):
        for seed in range(8):
            g, bb = universe(seed + 90)
            inst = scaled_universe(bb)
            mapped = map_back(inst, inst.h_prime_pairs())
            assert mapped == bb.h.edges


class TestMapBack:
    def test_empty(self):
        g, bb = universe(2)
        inst = scaled_universe(bb)
        assert map_back(inst, []) == frozenset()

    def test_sub_edges_restore_single_edge(self):
        g = Graph.from_edges(5, [(0, 1, 7), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
        bb = build_backbone(g, range(5), BETA)
        inst = scaled_universe(bb)
        pieces = [p for p, orig in inst.provenance.items() if orig == (0, 1)]
        assert len(pieces) >= 2
        assert map_back(inst, pieces) == frozenset({(0, 1)})

    def test_unknown_edge(self):
        g, bb = universe(4)
        inst = scaled_universe(bb)
        with pytest.raises(UnknownEdgeError):
            map_back(inst, [(998, 999)])
