import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_shortest_paths,
    floyd_warshall,
    rand_connected_graph,
    record_seeded_searches,
    tenths_graph,
    tie_break_choice,
    tie_heavy,
)
from lightspan.additive import EpsilonSplit, eps_spanner, four_eps_spanner
from lightspan.generators import GeneratorSpec, generate
from lightspan.sampled import SampleConfig, wmax_spanner
from lightspan.steiner import _UnionFind, _kruskal
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
    _relax,
    build_path_table,
    canonical,
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

    @pytest.mark.parametrize("w", [Fraction(0), Fraction(-1, 3), 0, -1, -0.0])
    def test_nonpositive_weight_of_each_type(self, w):
        # Exact weights take the numerator's sign; binary64 -0.0 is not > 0.
        with pytest.raises(NonpositiveWeightError):
            Graph.from_edges(2, [(0, 1, w)])

    @pytest.mark.parametrize("w, exact", [('"-1/3"', True), ('"0"', True),
                                          ("-0.0", False)])
    def test_nonpositive_instance_weight(self, w, exact):
        with pytest.raises(NonpositiveWeightError):
            load_instance(f'{{"n": 2, "edges": [[0, 1, {w}]]}}', exact=exact)

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            load_graph("0 1 2\n2 3 2")

    @pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan, True, False, "3"])
    def test_non_finite_or_non_numeric_weight(self, w):
        with pytest.raises(InvalidWeightError):
            Graph.from_edges(2, [(0, 1, w)])

    @pytest.mark.parametrize("exact_w", [1, Fraction(5, 2)])
    def test_mixed_weight_regimes_rejected(self, exact_w):
        for edges in ([(0, 1, exact_w), (1, 2, 2.5)],
                      [(0, 1, 2.5), (1, 2, exact_w)]):
            with pytest.raises(InvalidWeightError, match="mixes"):
                Graph.from_edges(3, edges)

    def test_binary64_weights_whose_sum_overflows(self):
        # A path through both edges would have length inf.
        with pytest.raises(InvalidWeightError, match="sum to infinity"):
            Graph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)])
        assert math.isfinite(Graph.from_edges(3, [(0, 1, 8e307),
                                                  (1, 2, 8e307)]).total_weight)
        assert Graph.from_edges(3, [(0, 1, 10 ** 400),
                                    (1, 2, 10 ** 400)]).is_exact

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
        with pytest.raises(ParseError, match="negative vertex id"):
            load_graph("0 1 1\n-1 0 1")


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
        # Two equal graphs built apart share no memoised search.
        s = [1, 3, 5, 7, 11]
        t1 = build_path_table(rand_connected_graph(7, 20, 25), s)
        t2 = build_path_table(rand_connected_graph(7, 20, 25), s)
        assert t1.pair_keys() == t2.pair_keys()
        for u, v in t1.pair_keys():
            assert t1.dist(u, v) == t2.dist(u, v)
            assert t1.w(u, v) == t2.w(u, v)
            assert t1.path(u, v) == t2.path(u, v)

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

    @pytest.mark.parametrize("mode", ["relative", "wmax"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_non_finite_value_rejected(self, mode, value):
        # An infinite allowance accepts every edge set, a nan one none.
        with pytest.raises(ValueError, match="finite"):
            Beta(mode, value)


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
        for w in ("Infinity", "-Infinity", "NaN", "true"):
            doc = f'{{"n": 2, "edges": [[0, 1, {w}]], "terminals": [0, 1]}}'
            for exact in (False, True):
                with pytest.raises(InvalidWeightError):
                    load_instance(doc, exact=exact)

    def test_integer_json_weights_read_as_floats_without_exact_mode(self):
        doc = '{"n": 3, "edges": [[0, 1, 1], [1, 2, 2.5]], "terminals": [0, 2]}'
        g, _, _ = load_instance(doc)
        assert not g.is_exact
        assert type(g.weight_of(0, 1)) is float and g.weight_of(0, 1) == 1.0
        g, _, _ = load_instance(doc, exact=True)
        assert g.is_exact and g.weight_of(1, 2) == Fraction(5, 2)

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
        for edges in ("[[0, 1]]", "5"):
            with pytest.raises(ParseError, match="bad edge entry"):
                load_instance(f'{{"n": 2, "edges": {edges}}}')

    @pytest.mark.parametrize("doc", [
        '{"n": 3, "edges": [[0, 1.5, 1], [1, 2, 1]], "terminals": [0, 2]}',
        '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "terminals": [0, 2.9]}',
        '{"n": 3.0, "edges": [[0, 1, 1], [1, 2, 1]]}',
        '{"n": 3, "edges": [[0, true, 1], [1, 2, 1]]}',
        '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "terminals": [false, 2]}',
        '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "terminals": ["2"]}',
        '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "levels": {"1": 1.5}}',
        '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "levels": {"1": true}}',
        '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "levels": {"1.0": 1}}',
        '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "levels": {"1_0": 1}}',
        '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "levels": {" 1": 1}}',
    ])
    def test_ids_and_levels_must_be_json_integers(self, doc):
        # int() would truncate 1.5 to 1 and read true as 1.
        for exact in (False, True):
            with pytest.raises(ParseError):
                load_instance(doc, exact=exact)

    @pytest.mark.parametrize("terminals", ["5", "null", "{}", '"abc"'])
    def test_terminals_must_be_an_array(self, terminals):
        doc = ('{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "terminals": '
               + terminals + "}")
        for exact in (False, True):
            with pytest.raises(ParseError, match="terminals"):
                load_instance(doc, exact=exact)
        g, terminals, _ = load_instance(doc.replace(terminals + "}", "[]}"))
        assert terminals == frozenset()

    def test_integer_ids_and_levels_still_load(self):
        doc = ('{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "terminals": [0, 2],'
               ' "levels": {"0": 2, "2": 1}}')
        g, terminals, levels = load_instance(doc)
        assert g.n == 3 and terminals == frozenset({0, 2})
        assert levels == {0: 2, 2: 1}

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
                assert memo._dist == fresh._dist
                for v in range(g.n):
                    assert memo.distance(v) == fresh.distance(v)
                    assert memo.path_to(v) == fresh.path_to(v)

    def test_subgraph_vertex_without_edges(self):
        g = Graph.from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1)])
        sub = SubgraphAdjacency(g, [(0, 1)])
        dist = sub.distances(0)
        assert [v for v, d in enumerate(dist) if d is not None] == [0, 1]
        assert sub.distance(0, 1) == 2
        assert sub.distance(0, 3) == INF and dist[3] is None
        # A path is the kernel's to give, and there is none to 3.
        with pytest.raises(UnknownEdgeError):
            shortest_paths_adj(sub._adj, 0, sub.denom).path_to(3)


def live_graph(kind, seed):
    if kind == "exact":
        return rand_connected_graph(seed + 70, 16, 24)
    if kind == "tenths":
        return tenths_graph(seed + 70, 16, 24)
    g, _, _ = generate(GeneratorSpec("grid", n=36, seed=seed,
                                     weight_range=(1, 1), exact=True))
    return g


class TestLiveDistances:
    @pytest.mark.parametrize("kind", ["exact", "tenths", "unit-grid"])
    def test_equal_fresh_search_after_every_insertion(self, kind):
        for seed in range(3):
            g = live_graph(kind, seed)
            rng = random.Random(seed)
            order = [canonical(u, v) for u, v, _ in g.edges]
            rng.shuffle(order)
            sub = SubgraphAdjacency(g, order[:3])
            sources = rng.sample(range(g.n), 4)
            live = {s: sub.distances(s) for s in sources}
            for k, e in enumerate(order[3:], 4):
                sub.add_edge(*e)
                fresh = SubgraphAdjacency(g, order[:k])
                for s in sources:
                    assert sub.distances(s) is live[s]
                    assert live[s] == shortest_paths_adj(
                        fresh._adj, s, fresh.denom)._dist
            # With every edge in, the lists are the host's own distances,
            # over the host's packed weights.
            for s in sources:
                assert live[s] == shortest_paths(g, s)._dist

    def test_seeded_by_one_search_per_source(self, monkeypatch):
        g = rand_connected_graph(3, 10, 12)
        sub = SubgraphAdjacency(g)
        searched = record_seeded_searches(monkeypatch)
        assert sub.distance(0, 5) == INF
        for u, v, _ in g.edges:
            sub.add_edge(u, v)
        assert sub.distance(0, 5) == shortest_paths(g, 0).distance(5)
        assert sub.distance(5, 0) == sub.distance(0, 5)
        assert searched == [0, 5]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans(), st.integers(0, 40),
           st.integers(0, 240))
    def test_relax_stops_at_the_slack_bound(self, seed, exact, slack, limit):
        # A search stopped at limit - slack settles exactly the vertices
        # whose distance d has d < limit - slack; every other label it
        # leaves is at least limit - slack, as a full search's is.  Weights
        # are eighths, in packed units k = 8..80 (exact) or k / 8 (binary64).
        g = rand_connected_graph(seed, 14, 8, exact)
        _, adj = g._packed
        if not exact:
            slack, limit = slack / 8, limit / 8
        stop = limit - slack
        full = _relax(adj, [None] * g.n, [(0, 0)])
        part = _relax(adj, [None] * g.n, [(0, 0)], stop)
        for d, p in zip(full, part):
            if d < stop:
                assert p == d
            else:
                assert p is None or p >= stop

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(["exact", "eighths", "tenths"]),
           st.integers(0, 40), st.integers(0, 240), st.integers(0, 13))
    def test_kernel_stops_at_the_slack_bound(self, seed, kind, slack, limit, source):
        # The kernel's stop rule is _relax's.  Stopped at limit - slack, a
        # vertex with d < limit - slack gets the full search's distance,
        # parent and max-edge label; any other distance label is unset or
        # at least limit - slack, and every label it leaves extends its
        # parent's final one by an edge, so it describes a real path.
        # Weights are k / 8 (tenths: k / 10), k = 8..80, packed on exact
        # graphs as k.
        g = (tenths_graph(seed, 14, 8) if kind == "tenths"
             else rand_connected_graph(seed, 14, 8, kind == "exact"))
        denom, adj = g._packed
        if kind != "exact":
            unit = 10 if kind == "tenths" else 8
            slack, limit = slack / unit, limit / unit
        stop = limit - slack
        full = shortest_paths_adj(adj, source, denom)
        part = shortest_paths_adj(adj, source, denom, stop)
        weight = {(x, y): w for x in range(g.n) for y, w in adj[x]}
        for v in range(g.n):
            d, p = full._dist[v], part._dist[v]
            if d < stop:
                assert (p, part._parent[v], part._maxw[v]) == (
                    d, full._parent[v], full._maxw[v])
            elif p is not None:
                assert p >= stop
                if v == source:
                    continue
                x = part._parent[v]
                assert full._dist[x] < stop
                w = weight[x, v]
                assert (p, part._maxw[v]) == (part._dist[x] + w, max(part._maxw[x], w))
        assert g._sssp_memo == {}


@st.composite
def exact_graphs(draw):
    """An exact graph: tie-heavy, with int and Fraction weights mixed, or
    with denominators far beyond binary64's precision."""
    kind = draw(st.sampled_from(["tie-heavy", "mixed", "large-denominators"]))
    if kind == "tie-heavy":
        return draw(tie_heavy(exact=True))[0]
    if kind == "mixed":
        weight = st.one_of(st.integers(1, 30), st.fractions(
            min_value=Fraction(1, 12), max_value=30, max_denominator=12))
    else:
        weight = st.builds(Fraction, st.integers(1, 10 ** 40),
                           st.integers(10 ** 20, 10 ** 30))
    n = draw(st.integers(2, 9))
    pairs = {(i, i + 1) for i in range(n - 1)}
    pairs |= {canonical(u, v) for u, v in draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)) if u != v}
    return Graph.from_edges(n, [(u, v, draw(weight)) for u, v in sorted(pairs)])


def fraction_kruskal(g, pairs):
    """The spanning forest under (Fraction weight, u, v) keys."""
    uf = _UnionFind(range(g.n))
    return {(u, v) for _, u, v in sorted((g.weight_of(*e), *e) for e in pairs)
            if uf.union(u, v)}


class TestPackedWeights:
    """Exact graphs keep one packed form: weights as integers over one
    common denominator, summed and sorted as integers."""

    @given(exact_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_packed_sums_and_orders_equal_the_fraction_ones(self, g, data):
        denom, adj = g._packed
        packed = g._exact[2]
        assert all(Fraction(packed[u, v], denom) == w for u, v, w in g.edges)
        assert sorted((v, wi) for v, wi in adj[0]) == sorted(
            (v, packed[canonical(0, v)]) for v, _ in g.adjacency[0])
        pairs = data.draw(st.lists(st.sampled_from(
            [(u, v) for u, v, _ in g.edges]), unique=True))
        total = sum((g.weight_of(u, v) for u, v in pairs), 0)
        assert g.weight_sum(pairs) == total
        assert str(g.weight_sum(pairs)) == str(total)
        assert (sorted(pairs, key=lambda e: (packed[e], e))
                == sorted(pairs, key=lambda e: (g.weight_of(*e), e)))
        assert _kruskal(g, pairs) == fraction_kruskal(g, pairs)

    @pytest.mark.parametrize("w", [Fraction(3, 2), 1.5])
    def test_pairs_in_either_order_and_refused_non_edges(self, w):
        g = Graph(3, ((0, 1, w), (1, 2, 2 * w)))
        assert g.weight_sum([(1, 0), (2, 1)]) == g.weight_sum([(0, 1), (1, 2)]) == 3 * w
        assert g.packed_weight_of(1, 0) == g.packed_weight_of(0, 1)
        with pytest.raises(UnknownEdgeError):
            g.weight_sum([(0, 1), (2, 0)])
        with pytest.raises(UnknownEdgeError):
            g.packed_weight_of(2, 0)
        with pytest.raises(UnknownEdgeError):
            g.weight_of(2, 0)

    @given(exact_graphs())
    @settings(max_examples=100, deadline=None)
    def test_w_max_is_the_object_max_picks(self, g):
        assert g.is_exact
        assert g.w_max is max((w for _, _, w in g.edges), default=0)

    def test_w_max_picks_the_first_of_equal_heaviest_weights(self):
        g = Graph(3, ((0, 1, Fraction(4, 2)), (1, 2, 2), (0, 2, 1)))
        assert g.w_max is g.edges[0][2] and type(g.w_max) is Fraction
        g = Graph(3, ((0, 1, 2), (1, 2, Fraction(4, 2)), (0, 2, 1)))
        assert g.w_max is g.edges[0][2] and type(g.w_max) is int

    @pytest.mark.parametrize("weights", [
        [1, 2], [Fraction(1, 3), 2], [True, 2], [2, False], [1.5, 2.5],
        [1, 2.0], [2.0, 1], [Fraction(1, 2), 0.5], [], [3]])
    def test_is_exact_matches_the_isinstance_rule(self, weights):
        # Unvalidated graphs, as internal stages and the benchmark build.
        g = Graph(len(weights) + 1,
                  tuple((i, i + 1, w) for i, w in enumerate(weights)))
        old = all(isinstance(w, (int, Fraction)) and not isinstance(w, bool)
                  for w in weights)
        assert g.is_exact is old
        assert g.w_max is max(weights, default=0)

    def test_is_exact_stops_at_the_first_float_edge(self):
        read = []

        class Edges(tuple):
            def __iter__(self):
                for e in tuple.__iter__(self):
                    read.append(e)
                    yield e
        g = Graph(4, Edges(((0, 1, 1.0), (1, 2, 2), (2, 3, Fraction(1, 2)))))
        assert g.is_exact is False and read == [(0, 1, 1.0)]


class TestValidatedGraphsAreLean:
    """A validated graph holds its edge list alone: the connectivity walk
    caches no weighted adjacency, and only a binary64 build makes one."""

    def test_every_validating_entry_leaves_only_the_edge_list(self):
        g = rand_connected_graph(4, 12, 10)
        doc = dump_instance(g, [0, 5])
        text = "\n".join(f"{u} {v} {w}" for u, v, w in g.edges)
        validated = [
            Graph.from_edges(g.n, g.edges),
            generate(GeneratorSpec("erdos-renyi", 30, seed=2))[0],
            load_instance(doc, exact=True)[0],
            load_instance(doc)[0],
            load_graph(text, exact=True),
            load_graph(text),
        ]
        for h in validated:
            assert set(vars(h)) == {"n", "edges"}

    def test_exact_builds_never_read_the_adjacency(self):
        split = EpsilonSplit.of(Fraction(1, 2))
        for exact in (True, False):
            g, s, _ = generate(GeneratorSpec("grid", 36, seed=5, exact=exact))
            eps_spanner(g, s, split if exact else EpsilonSplit.of(0.5))
            assert ("adjacency" in vars(g)) is not exact
        for build in (four_eps_spanner, eps_spanner):
            g, s, _ = generate(GeneratorSpec("erdos-renyi", 30, seed=1))
            build(g, s, split)
            assert "adjacency" not in vars(g) and "_exact" in vars(g)
        g, s, _ = generate(GeneratorSpec("geometric", 30, seed=2))
        wmax_spanner(g, s, SampleConfig(split, seed=0))
        assert "adjacency" not in vars(g)
        tree = Graph.from_edges(5, [(i, i + 1, 1) for i in range(4)])
        eps_spanner(tree, [0, 2, 4], split)  # the tree-host lightness check
        assert "adjacency" not in vars(tree)

    def test_connectivity_matches_union_find(self):
        # Vertex 1 is reached from 0 only down the edge (1, 2).
        cases = [(3, [(0, 2, 1), (1, 2, 1)])]
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 9)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            cases.append((n, [(u, v, 1) for u, v in
                              rng.sample(pairs, rng.randint(0, len(pairs)))]))
        for n, edges in cases:
            uf = _UnionFind(range(n))
            for u, v, _ in edges:
                uf.union(u, v)
            expected = len({uf.find(x) for x in range(n)}) == 1
            assert Graph(n, tuple(edges)).is_connected() == expected, (n, edges)


class TestVertexCountBoundaries:
    def test_negative_vertex_count_is_refused(self):
        with pytest.raises(InvalidVertexError, match="negative"):
            Graph.from_edges(-1, [])
        for exact in (False, True):
            with pytest.raises(InvalidVertexError, match="negative"):
                load_instance('{"n": -1, "edges": []}', exact=exact)

    def test_zero_vertices_still_load(self):
        g, terminals, levels = load_instance('{"n": 0, "edges": []}')
        assert g.n == 0 and g.edges == () and g.is_connected()
        assert terminals == frozenset() and levels is None

    def test_too_few_edges_refused_before_any_vertex_list(self, monkeypatch):
        monkeypatch.setattr(Graph, "is_connected",
                            lambda self: pytest.fail("walked the vertices"))
        for exact in (False, True):
            with pytest.raises(DisconnectedError, match="1 edges cannot connect"):
                load_instance('{"n": 1000000, "edges": [[0, 1, 1]]}', exact=exact)
        with pytest.raises(DisconnectedError):
            Graph.from_edges(3, [(0, 1, 1)])

    @pytest.mark.parametrize("edge, error", [
        ([0, 0, 1], SelfLoopError),
        ([0, 1, -1], NonpositiveWeightError),
        ([0, 1000000, 1], InvalidVertexError),
        ([0, 1, True], InvalidWeightError),
    ])
    def test_per_edge_errors_come_first(self, edge, error):
        doc = json.dumps({"n": 1000000, "edges": [edge]})
        with pytest.raises(error):
            load_instance(doc)
