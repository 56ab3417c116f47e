import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    cycle_graph,
    enumerate_steiner_optimum,
    grid_graph,
    is_tree,
    leaves_are_terminals,
    odd_edge,
    rand_connected_graph,
    rand_tree,
    reference_exact_steiner,
    subgraph_dist,
    tie_heavy,
)
from lightspan.graph import (
    Beta,
    Graph,
    NonExactArithmeticError,
    UnknownEdgeError,
    canonical,
)
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

    def test_binary64_refused(self):
        # The same refusal as the exact oracles': no optimum rests on a
        # tolerance.
        g = rand_connected_graph(1, 8, 6, exact=False)
        with pytest.raises(NonExactArithmeticError, match="rational"):
            exact_steiner(g, [0, 2, 5])

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

    def test_tree_host_gives_the_minimal_subtree(self):
        # A tree host takes the general route; its pruned tree is the
        # one subtree spanning the terminals.
        for seed in range(12):
            g = rand_tree(seed + 500, 14)
            ts = sorted({0, 3, 7, 13, 1 + seed % 12, 2 + seed % 11})
            tree = exact_steiner(g, ts)
            assert tree.edges == prune_to_terminals(
                [canonical(u, v) for u, v, _ in g.edges], frozenset(ts))
            assert tree.weight == reference_exact_steiner(g, ts)

    def test_steiner_points_used(self):
        # star: terminals on the rim, hub is a Steiner point
        g = Graph.from_edges(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1),
                                 (0, 1, Fraction(5, 2)), (1, 2, Fraction(5, 2)),
                                 (0, 2, Fraction(5, 2))])
        t = exact_steiner(g, [0, 1, 2])
        assert t.weight == 3
        assert t.edges == frozenset({(0, 3), (1, 3), (2, 3)})

    @given(tie_heavy(exact=True, max_terminals=8))
    @settings(max_examples=80, deadline=None)
    def test_rows_match_the_dict_program_on_tie_heavy_graphs(self, case):
        # Equal-weight alternatives abound here, so the rebuild by
        # integer equality meets many ties.
        g, ts = case
        tree = exact_steiner(g, ts)
        assert tree.weight == reference_exact_steiner(g, ts)
        assert is_tree(tree.edges, ts)
        assert leaves_are_terminals(tree.edges, ts)


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


    @settings(max_examples=120, deadline=None)
    @given(tie_heavy(), st.sampled_from(["relative", "wmax"]),
           st.sampled_from([0, Fraction(1, 2), 64]))
    def test_r_serves_as_t_and_h_when_s_prime_is_s(self, case, mode, value):
        # T and H equal the two-tree construction (Mehlhorn over S',
        # Kruskal over R and T, pruning) on every backbone; when S' = S,
        # approx_steiner runs once, for R.  Slack 64 W holds on every
        # pair of these small graphs, so S' = S is drawn often.
        g, ts = case
        beta = Beta(mode, value if g.is_exact else float(value))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(steiner, "approx_steiner",
                       lambda g, ts: calls.append(ts) or approx_steiner(g, ts))
            bb = build_backbone(g, ts, beta)
        s_prime = bb.s_prime
        t = approx_steiner(g, s_prime)
        union = steiner._kruskal(g, bb.r.edges | t.edges)
        h = steiner._tree_of(g, s_prime, prune_to_terminals(union, s_prime))
        if h.weight > 2 * t.weight:
            t = SteinerTree(s_prime, h.edges, h.weight)
        assert (bb.t, bb.h) == (t, h)
        assert len(calls) == (1 if s_prime == bb.terminals else 2)


def contracted_optimum(g, ts):
    """The optimum through the contraction: the contracted host edges
    plus the reference optimum of the contracted graph, whose weights
    are g's packed weights (g itself when nothing is contracted)."""
    contracted, reduced, reduced_ts, host = steiner._contract_terminal_edges(g, ts)
    rest = (reference_exact_steiner(reduced, reduced_ts) * reduced._packed[0]
            if len(reduced_ts) > 1 else 0)
    packed = sum(g.packed_weight_of(u, v) for u, v in contracted) + rest
    return Fraction(packed, g._packed[0])


def assert_optimal_tree(g, ts):
    tree = exact_steiner(g, ts)
    assert tree.weight == reference_exact_steiner(g, ts)
    assert is_tree(tree.edges, ts)
    assert leaves_are_terminals(tree.edges, ts)
    return tree


def record_programs(monkeypatch, name="_bounded_program"):
    """Log (vertex count, terminal count) of each run of the named solver:
    by default the bounded program, which receives the contracted graph."""
    runs = []
    real = getattr(steiner, name)

    def recording(g, ts):
        runs.append((g.n, len(ts)))
        return real(g, ts)
    monkeypatch.setattr(steiner, name, recording)
    return runs


class TestTerminalContraction:
    """Lightest terminal-to-terminal edges are contracted before the
    Dreyfus-Wagner program; the optimum weight never changes."""

    @given(tie_heavy(exact=True, max_terminals=8))
    @settings(max_examples=120, deadline=None)
    def test_contraction_keeps_the_optimum_on_tie_heavy_graphs(self, case):
        g, ts = case
        assert contracted_optimum(g, ts) == reference_exact_steiner(g, ts)
        assert_optimal_tree(g, ts)

    def test_random_graphs_match_the_reference(self):
        # Each graph also runs with one edge 1/3 heavier, whose contracted
        # graph can pack over another denominator than the host.
        for seed in range(40):
            n = 6 + seed % 6
            g = rand_connected_graph(seed + 900, n, n)
            ts = sorted(set(range(0, n, 1 + seed % 3)))[:8]
            for h in (g, odd_edge(g, seed % len(g.edges))):
                assert contracted_optimum(h, ts) == reference_exact_steiner(h, ts)
                assert_optimal_tree(h, ts)

    def test_chain_collapses_step_by_step(self, monkeypatch):
        # Each merged group's lightest edge is the next chain edge; the
        # heavier spokes to the hub 4 never win.  One terminal is left.
        g = Graph.from_edges(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3),
                                 (0, 4, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5)])
        contracted, reduced, reduced_ts, _ = steiner._contract_terminal_edges(
            g, [0, 1, 2, 3])
        assert contracted == [(0, 1), (1, 2), (2, 3)]
        assert reduced.n == 2 and reduced_ts == [0]
        runs = record_programs(monkeypatch)
        tree = assert_optimal_tree(g, [0, 1, 2, 3])
        assert tree.edges == frozenset(contracted) and tree.weight == 6
        assert runs == [(2, 1)]

    def test_blocked_group_still_merges_along_its_partners_lightest_edge(self):
        # 2's lightest edge reaches the non-terminal 3, which blocks it;
        # (1, 2) is still the lightest edge leaving {0, 1}, so it merges,
        # and the merged group is blocked.
        g = Graph.from_edges(5, [(0, 1, 1), (1, 2, 2), (2, 3, Fraction(3, 2)),
                                 (3, 4, 1), (0, 4, 4), (2, 4, 3)])
        ts = [0, 1, 2, 4]
        contracted, _, reduced_ts, _ = steiner._contract_terminal_edges(g, ts)
        assert contracted == [(0, 1), (1, 2)] and len(reduced_ts) == 2
        assert contracted_optimum(g, ts) == reference_exact_steiner(g, ts)
        assert_optimal_tree(g, ts)

    def test_every_terminal_merges_into_one_group(self, monkeypatch):
        g = cycle_graph(9, 1, [(0, 4), (2, 7)], exact=True)
        runs = record_programs(monkeypatch)
        tree = assert_optimal_tree(g, range(9))
        assert tree.weight == 8
        assert runs == [(1, 1)]

    def test_lightest_edge_to_a_non_terminal_contracts_nothing(self,
                                                               monkeypatch):
        # The hub 3 is lighter than any rim edge, so every terminal is
        # blocked at once and the program runs on the host graph itself.
        g = Graph.from_edges(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1),
                                 (0, 1, Fraction(5, 2)), (1, 2, Fraction(5, 2)),
                                 (0, 2, Fraction(5, 2))])
        contracted, reduced, reduced_ts, host = steiner._contract_terminal_edges(
            g, [0, 1, 2])
        assert contracted == [] and reduced is g
        assert reduced_ts == [0, 1, 2] and host == {}
        runs = record_programs(monkeypatch)
        assert assert_optimal_tree(g, [0, 1, 2]).weight == 3
        assert runs == [(4, 3)]

    def test_ties_for_the_lightest_edge(self):
        # Terminal 1 ties between the non-terminal 0 and the terminal 2,
        # and the (w, u, v) order meets (0, 1) first; on a unit grid every
        # edge ties.
        g = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        for ts in ([1, 2], [1, 2, 3], [0, 2], [0, 1, 2, 3]):
            assert contracted_optimum(g, ts) == reference_exact_steiner(g, ts)
            assert_optimal_tree(g, ts)
        grid = grid_graph(3, 4, [1], exact=True)
        for ts in itertools.combinations(range(0, 12, 2), 4):
            assert contracted_optimum(grid, ts) == reference_exact_steiner(grid, ts)
            assert_optimal_tree(grid, list(ts))

    def test_thirteen_terminals_raise_before_any_contraction(self):
        # All 13 would merge into one group, yet the cap counts them all.
        g = cycle_graph(13, 1, [(0, 6)], exact=True)
        with pytest.raises(TooManyTerminalsError):
            exact_steiner(g, range(13))

    def test_disconnected_terminals_raise(self):
        # Two components; (0, 1) and (3, 4) contract, and the two groups
        # left still lie in different components.
        for ts in ([0, 1, 3, 4], [0, 3]):
            g = Graph(5, ((0, 1, 1), (0, 2, 3), (1, 2, 2), (3, 4, 1)))
            with pytest.raises(UnknownEdgeError):
                exact_steiner(g, ts)

    def test_built_instance_runs_the_program_on_fewer_terminals(
            self, monkeypatch):
        from lightspan.additive import EpsilonSplit, eps_spanner
        from lightspan.generators import GeneratorSpec, generate
        half = EpsilonSplit.of(Fraction(1, 2))
        g, terms, _ = generate(GeneratorSpec("erdos-renyi", n=30, seed=1,
                                             exact=True))
        bb = build_backbone(g, terms, Beta("relative", half.eps))
        runs = record_programs(monkeypatch)
        sp = eps_spanner(g, terms, half)
        assert sp.meta["lightness_mode"] == "exact"
        ((n, t),) = runs
        assert t < len(bb.s_prime) and n < g.n


def assert_bounded_optimum(g, ts):
    """The ascent run to its end leaves every reduced cost nonnegative
    and bounds the reference optimum from below, and the bounded program
    returns that optimum; returns (LB, OPT) packed."""
    denom, adj = g._packed
    opt = reference_exact_steiner(g, ts)
    lb, into = steiner._dual_ascent(adj, ts, 10 ** 5)  # ends the ascent
    assert_dual_feasible(adj, into)
    assert lb <= opt * denom
    assert steiner._bounded_program(g, ts)[1] == opt * denom
    assert_optimal_tree(g, ts)
    return lb, opt * denom


def assert_dual_feasible(adj, into):
    """Each reduced cost lies in [0, w]: no raise went past the cheapest
    arc into its cut."""
    weight = {(x, y): w for y, a in enumerate(adj) for x, w in a}
    assert all(0 <= c <= weight[x, y] for y, arcs in enumerate(into)
               for x, c in arcs)


def route_instance(seed, n, extra):
    return rand_connected_graph(seed, n, extra), list(range(0, n, 2))[:5]


class TestDualAscentBound:
    """The dual-ascent bound ahead of the Dreyfus-Wagner program: LB never
    exceeds the optimum, and every route returns the optimum."""

    @given(tie_heavy(exact=True, max_terminals=8))
    @settings(max_examples=150, deadline=None)
    def test_bounded_program_is_optimal_on_tie_heavy_graphs(self, case):
        assert_bounded_optimum(*case)

    def test_bounded_program_is_optimal_on_random_graphs(self):
        tight = 0
        for seed in range(60):
            n = 6 + seed % 8
            g = rand_connected_graph(seed + 700, n, n // 2 + seed % 5)
            lb, opt = assert_bounded_optimum(g, sorted(range(0, n, 2))[:6])
            tight += lb == opt
        assert tight > 0

    def test_a_stopped_ascent_still_gives_the_optimum(self, monkeypatch):
        # Caps of 0 arc scans (no raise), 1 (one raise) and every k up to
        # the full ascent's: each LB is a lower bound, LB grows with the
        # cap, and the program on what the bound keeps is optimal.
        real = steiner._dual_ascent
        for seed, n, extra in ((5001, 7, 4), (5005, 11, 5), (5006, 12, 7)):
            g, ts = route_instance(seed, n, extra)
            contracted, reduced, rts, _ = steiner._contract_terminal_edges(g, ts)
            denom, adj = reduced._packed
            opt = reference_exact_steiner(reduced, rts) * denom
            full = real(adj, rts, 10 ** 5)[0]
            lbs = []
            for cap in range(0, 400):
                lb, into = real(adj, rts, cap)
                assert_dual_feasible(adj, into)
                lbs.append(lb)
                monkeypatch.setattr(steiner, "_dual_ascent",
                                    lambda adj, ts, scans: real(adj, ts, cap))
                assert steiner._bounded_program(reduced, rts)[1] == opt
                assert_optimal_tree(g, ts)
            assert lbs[0] == 0 < lbs[1] and lbs == sorted(lbs)
            assert lbs[-1] == full <= opt

    def test_pruned_graph_counts_in_host_units(self):
        # Each edge in turn alone carries the factor 3 of the host's
        # denominator; where the bound prunes it away, the program on
        # the kept vertices still returns the host's packed optimum.
        g, ts = route_instance(5006, 12, 7)
        for k in range(len(g.edges)):
            assert_bounded_optimum(odd_edge(g, k), ts)

    def test_route_program_skipped(self, monkeypatch):
        g, ts = route_instance(5005, 11, 5)
        outer = record_programs(monkeypatch)
        inner = record_programs(monkeypatch, "_dreyfus_wagner")
        assert_optimal_tree(g, ts)
        assert outer == [(10, 4)] and inner == []

    def test_route_program_on_fewer_vertices(self, monkeypatch):
        g, ts = route_instance(5006, 12, 7)
        outer = record_programs(monkeypatch)
        inner = record_programs(monkeypatch, "_dreyfus_wagner")
        assert_optimal_tree(g, ts)
        assert outer == [(12, 5)] and inner == [(8, 5)]

    def test_route_program_on_the_whole_contracted_graph(self, monkeypatch):
        g, ts = route_instance(5001, 7, 4)
        outer = record_programs(monkeypatch)
        inner = record_programs(monkeypatch, "_dreyfus_wagner")
        assert_optimal_tree(g, ts)
        assert outer == [(7, 4)] and inner == [(7, 4)]

    def test_three_terminals_run_the_program_unbounded(self, monkeypatch):
        g = rand_connected_graph(5006, 12, 7)
        ascents = []
        monkeypatch.setattr(steiner, "_dual_ascent",
                            lambda *args: ascents.append(args))
        inner = record_programs(monkeypatch, "_dreyfus_wagner")
        assert_optimal_tree(g, [0, 2, 4])
        assert ascents == [] and inner == [(12, 3)]
