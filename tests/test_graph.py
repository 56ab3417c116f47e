import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import all_shortest_paths, floyd_warshall, rand_connected_graph, tie_break_choice
from lightspan.graph import (
    Beta,
    DisconnectedError,
    DuplicateEdgeError,
    INF,
    Graph,
    GraphError,
    InvalidVertexError,
    InvalidWeightError,
    NonpositiveWeightError,
    ParseError,
    SelfLoopError,
    SubgraphAdjacency,
    UnknownEdgeError,
    build_path_table,
    fixed_shortest_path,
    load_graph,
    load_instance,
    dump_instance,
    shortest_paths,
    shortest_paths_adj,
)


class TestLoadGraph:
    def test_direct_parse(self):
        g = load_graph("0 1 3\n1 2 4")
        assert g.n == 3
        assert len(g.edges) == 2
        assert g.total_weight == 7

    def test_comments_and_blank_lines(self):
        g = load_graph("# header\n0 1 3  # trailing\n\n1 2 4\n")
        assert g.n == 3 and len(g.edges) == 2

    def test_exact_mode_parses_decimals_exactly(self):
        g = load_graph("0 1 0.1\n1 2 0.2", exact=True)
        assert g.weight_of(0, 1) == Fraction(1, 10)
        assert g.is_exact

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            load_graph("0 0 1")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            load_graph("0 1 1\n1 0 2")

    def test_nonpositive_weight(self):
        with pytest.raises(NonpositiveWeightError):
            load_graph("0 1 0")
        with pytest.raises(NonpositiveWeightError):
            load_graph("0 1 -3")

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            load_graph("0 1 2\n2 3 2")

    @pytest.mark.parametrize("w", [math.inf, True, False, "3"])
    def test_non_finite_or_non_numeric_weight(self, w):
        with pytest.raises(InvalidWeightError):
            Graph.from_edges(2, [(0, 1, w)])

    def test_infinite_weight_in_edge_list(self):
        with pytest.raises(GraphError):
            load_graph("0 1 inf")
        with pytest.raises(GraphError):
            load_graph("0 1 inf", exact=True)

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            load_graph("0 1")
        with pytest.raises(ParseError):
            load_graph("a b 1")
        with pytest.raises(ParseError):
            load_graph("")


class TestFixedShortestPath:
    def test_single_route(self):
        g = load_graph("0 1 3\n1 2 4")
        p = fixed_shortest_path(g, 0, 2)
        assert p.dist == 7
        assert p.max_edge == 4
        assert p.vertices == (0, 1, 2)

    def test_identity_pair(self):
        g = load_graph("0 1 3\n1 2 4")
        p = fixed_shortest_path(g, 1, 1)
        assert p.dist == 0 and p.max_edge == 0 and p.vertices == (1,)

    def test_invalid_vertex(self):
        g = load_graph("0 1 3")
        with pytest.raises(InvalidVertexError):
            fixed_shortest_path(g, 0, 5)

    def test_square_tie_break_matches_enumeration(self):
        g = load_graph("0 1 1\n1 2 1\n0 3 1\n3 2 1", exact=True)
        p = fixed_shortest_path(g, 0, 2)
        expected = tie_break_choice(all_shortest_paths(g, 0, 2))
        assert p.vertices == expected == (0, 1, 2)

    def test_tie_break_matches_enumeration_on_random_graphs(self):
        # Independent oracle: enumerate every shortest path, apply the
        # documented rule, compare with the label-setting search.
        for seed in range(30):
            g = rand_connected_graph(seed, 7, 6)
            # force plenty of ties with unit weights
            g = Graph.from_edges(g.n, [(u, v, 1) for u, v, _ in g.edges])
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    p = fixed_shortest_path(g, u, v)
                    expected = tie_break_choice(all_shortest_paths(g, u, v))
                    assert p.vertices == expected, (seed, u, v)

    def test_orientation_consistency(self):
        g = rand_connected_graph(5, 8, 8)
        p_uv = fixed_shortest_path(g, 1, 6)
        p_vu = fixed_shortest_path(g, 6, 1)
        assert p_uv.vertices == tuple(reversed(p_vu.vertices))
        assert p_uv.dist == p_vu.dist and p_uv.max_edge == p_vu.max_edge


class TestPathTable:
    def test_single_terminal_empty(self):
        g = load_graph("0 1 3")
        t = build_path_table(g, [0])
        assert t.pair_keys() == []

    def test_pair_count(self):
        g = rand_connected_graph(1, 9, 8)
        t = build_path_table(g, [0, 2, 4, 6])
        assert len(t.pair_keys()) == 6

    def test_w_values_report_fixed_path_max_edge(self):
        # Fixed paths give W(a,b) = 10 and W(a,c) = 20.
        g = load_graph("0 1 10\n1 2 10\n0 3 20\n3 4 20")
        t = build_path_table(g, [0, 2, 4])
        assert t.w(0, 2) == 10
        assert t.w(0, 4) == 20

    def test_terminal_out_of_range(self):
        g = load_graph("0 1 3")
        with pytest.raises(InvalidVertexError):
            build_path_table(g, [0, 9])

    def test_determinism_bit_identical(self):
        g = rand_connected_graph(7, 20, 25)
        s = [1, 3, 5, 7, 11]
        t1 = build_path_table(g, s)
        t2 = build_path_table(g, s)
        assert t1.pairs == t2.pairs

    def test_oracle_equivalence_floyd_warshall(self):
        for seed in range(10):
            g = rand_connected_graph(seed + 100, 14, 18)
            fw = floyd_warshall(g)
            t = build_path_table(g, range(g.n))
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert t.dist(u, v) == fw[u][v]

    def test_oracle_equivalence_binary64_within_1e9_relative(self):
        for seed in range(6):
            g = rand_connected_graph(seed + 130, 20, 30, exact=False)
            fw = floyd_warshall(g)
            t = build_path_table(g, range(g.n))
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert t.dist(u, v) == pytest.approx(fw[u][v], rel=1e-9)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    extra = draw(st.integers(min_value=0, max_value=12))
    return rand_connected_graph(seed, n, extra)


class TestMetricProperties:
    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, g):
        fw = floyd_warshall(g)
        for x in range(g.n):
            for y in range(g.n):
                for z in range(g.n):
                    assert fw[x][z] <= fw[x][y] + fw[y][z]

    @given(small_graphs())
    @settings(max_examples=25, deadline=None)
    def test_fixed_path_distance_is_shortest(self, g):
        fw = floyd_warshall(g)
        for v in range(1, g.n):
            p = fixed_shortest_path(g, 0, v)
            assert p.dist == fw[0][v]
            assert p.max_edge == max(
                g.weight_of(a, b) for a, b in zip(p.vertices, p.vertices[1:]))


class TestBeta:
    def test_relative_slack(self):
        b = Beta("relative", Fraction(1, 2))
        assert b.slack(Fraction(4), 100) == 2

    def test_wmax_slack(self):
        b = Beta("wmax", 2)
        assert b.slack(Fraction(4), 10) == 20

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            Beta("multiplicative", 1)


class TestInstanceJson:
    def test_round_trip(self):
        g = rand_connected_graph(3, 6, 4, exact=False)
        doc = dump_instance(g, [0, 2], {0: 1, 2: 2})
        g2, terminals, levels = load_instance(doc)
        assert g2.n == g.n and len(g2.edges) == len(g.edges)
        assert terminals == frozenset({0, 2})
        assert levels == {0: 1, 2: 2}

    def test_exact_round_trip(self):
        graphs = [rand_connected_graph(seed, 9, 8) for seed in range(3)]
        graphs.append(Graph.from_edges(
            3, [(0, 1, Fraction(1, 3)), (1, 2, 2), (0, 2, Fraction(7, 5))]))
        for g in graphs:
            g2, terminals, _ = load_instance(dump_instance(g, [0, 2]), exact=True)
            assert g2 == g and g2.is_exact
            assert terminals == frozenset({0, 2})
        # Without exact mode the same document reads as the nearest floats.
        g3, _, _ = load_instance(dump_instance(graphs[-1], [0]))
        assert g3.weight_of(0, 1) == 1 / 3

    def test_infinite_or_bool_instance_weights(self):
        for w in ("Infinity", "true"):
            doc = f'{{"n": 2, "edges": [[0, 1, {w}]], "terminals": [0, 1]}}'
            for exact in (False, True):
                with pytest.raises(InvalidWeightError):
                    load_instance(doc, exact=exact)

    def test_exact_instance_weights(self):
        doc = '{"n": 2, "edges": [[0, 1, 2.5]], "terminals": [0, 1]}'
        g, _, _ = load_instance(doc, exact=True)
        assert g.weight_of(0, 1) == Fraction(5, 2)

    def test_bad_documents(self):
        with pytest.raises(ParseError):
            load_instance("not json")
        with pytest.raises(ParseError):
            load_instance('{"edges": []}')
        with pytest.raises(ParseError):
            load_instance('{"n": 2, "edges": [[0, 1, 1]], "levels": "x"}')

    def test_infinity_comparisons_with_fractions(self):
        assert math.inf > Fraction(10**9)
        assert math.inf - Fraction(3, 2) == math.inf


class TestShortestPathsMemo:
    def test_repeat_returns_same_object(self):
        g = rand_connected_graph(5, 12, 10)
        assert shortest_paths(g, 3) is shortest_paths(g, 3)

    def test_equal_graphs_never_share_results(self):
        g1 = rand_connected_graph(5, 12, 10)
        g2 = Graph(g1.n, tuple(g1.edges))
        assert g1 == g2 and g1 is not g2
        for s in range(g1.n):
            assert shortest_paths(g1, s) is not shortest_paths(g2, s)

    @pytest.mark.parametrize("exact", [True, False])
    def test_memo_matches_fresh_search(self, exact):
        for seed in range(4):
            g = rand_connected_graph(seed + 60, 14, 16, exact=exact)
            denom, adj = g._packed
            for s in reversed(range(g.n)):
                shortest_paths(g, s)
            for s in range(g.n):
                memo = shortest_paths(g, s)
                fresh = shortest_paths_adj(adj, s, denom)
                assert sorted(memo.reached()) == list(range(g.n))
                for v in range(g.n):
                    assert memo.distance(v) == fresh.distance(v)
                    assert memo.distance_raw(v) == fresh.distance_raw(v)
                    assert memo.path_to(v) == fresh.path_to(v)

    def test_subgraph_vertex_without_edges(self):
        g = Graph.from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1)])
        sp = SubgraphAdjacency(g, [(0, 1)]).sssp(0)
        assert list(sp.reached()) == [0, 1]
        assert sp.distance(1) == 2
        assert sp.distance(3) == INF and sp.reachable(3) is False
        with pytest.raises(UnknownEdgeError):
            sp.path_to(3)
