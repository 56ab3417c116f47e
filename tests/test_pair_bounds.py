"""PairBounds, the one spanner-condition check behind the backbone scan,
the greedy completion, certification, the repair pass and the oracles,
pinned against the naive references in helpers and against metamorphic
and differential relations; and TreeDistances, the tree walks the
backbone's scan over R reads, pinned against Dijkstra on the same tree.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_shortest_paths,
    floyd_warshall,
    greedy_reference,
    rand_connected_graph,
    rand_tree,
    record_seeded_searches,
    reference_pair_bounds,
    subgraph_dist,
    tenths_graph,
    tie_break_choice,
    tie_heavy,
)
from lightspan import sampled
from lightspan.additive import (
    EpsilonSplit,
    _insert_path,
    eps_spanner,
    four_eps_spanner,
    greedy_complete,
)
from lightspan.generators import GeneratorSpec, generate
from lightspan.graph import (
    Beta,
    Graph,
    PairBounds,
    SubgraphAdjacency,
    TreeDistances,
    build_path_table,
    canonical,
)
from lightspan.oracle import verify_spanner
from lightspan.sampled import SampleConfig, wmax_spanner
from lightspan.steiner import approx_steiner, build_backbone

HALF = Beta("relative", Fraction(1, 2))


def all_pairs(g):
    return [canonical(u, v) for u, v, _ in g.edges]


def reweighted(g, weight):
    """g with each edge weight w replaced by weight(w)."""
    return Graph.from_edges(g.n, [(u, v, weight(w)) for u, v, w in g.edges])


def regimes(seed, n, extra):
    """One graph per weight regime: {1, 2}, p/q, dyadic binary64 k/8 and
    non-dyadic binary64 k/10."""
    g = rand_connected_graph(seed, n, extra)
    rng = random.Random(seed)
    return [
        reweighted(g, lambda w: rng.choice((1, 2))),
        reweighted(g, lambda w: Fraction(rng.randint(1, 9), rng.randint(1, 7))),
        rand_connected_graph(seed, n, extra, exact=False),
        tenths_graph(seed, n, extra),
    ]


class TestPairBounds:
    def test_allowed_is_distance_plus_slack_in_pair_order(self):
        g = rand_connected_graph(5, 12, 16)
        table = build_path_table(g, [11, 0, 7, 3])
        for beta in (HALF, Beta("wmax", 2)):
            bounds = PairBounds(table, beta)
            assert list(bounds.allowed) == table.pair_keys()
            for (u, v), allowed in bounds.allowed.items():
                assert allowed == (table.dist(u, v)
                                   + beta.slack(table.w(u, v), g.w_max))

    def test_one_search_per_source_even_when_edges_are_added(self, monkeypatch):
        g = rand_connected_graph(6, 12, 16)
        table = build_path_table(g, [0, 3, 7, 11])
        bounds = PairBounds(table, HALF)
        sources = record_seeded_searches(monkeypatch)
        full = SubgraphAdjacency(g, all_pairs(g))
        assert bounds.violations(full) == []
        assert sources == [0, 3, 7]

        # Inserting the fixed path of the first pair runs no new search:
        # the live distances of the source absorb the new edges, and the
        # next pair of the same source sees them.
        sources.clear()
        sub = SubgraphAdjacency(g)
        seen = {}
        for pair in table.pair_keys():
            ok = bounds.holds(sub, *pair)
            seen[pair] = sub.distance(*pair)
            if pair == (0, 3):
                assert seen[pair] == math.inf and not ok
                for e in table.path(0, 3).edge_pairs():
                    sub.add_edge(*e)
        assert sources == [0, 3, 7]
        assert seen[(0, 7)] == subgraph_dist(g, table.path(0, 3).edge_pairs(), 0, 7)
        assert bounds.violations(sub) == [p for p in table.pair_keys()
                                          if not bounds.holds(sub, *p)]
        assert sources == [0, 3, 7]

    def test_relative_tolerance_margin(self):
        # d_G(0, 2) = 2 - delta on the direct edge; without it d_H = 2.
        # PairBounds flags the pair; verify_spanner forgives 1e-12 only.
        for delta, tolerant in ((1e-12, True), (1e-6, False)):
            g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0 - delta)])
            table = build_path_table(g, [0, 2])
            h = [(0, 1), (1, 2)]
            zero = Beta("relative", 0)
            assert PairBounds(table, zero).violations(
                SubgraphAdjacency(g, h)) == [(0, 2)]
            assert not verify_spanner(g, [0, 2], h, zero).ok
            assert verify_spanner(g, [0, 2], h, zero, 1e-9).ok is tolerant


EXACT_BETAS = (HALF, Beta("relative", 0), Beta("relative", Fraction(1, 3)),
               Beta("relative", 2), Beta("wmax", Fraction(9, 2)),
               Beta("wmax", Fraction(1, 3)))
FLOAT_BETAS = (Beta("relative", 0.5), Beta("relative", 0), Beta("relative", 0.1),
               HALF, Beta("wmax", 4.5), Beta("wmax", 0.3))


def assert_rows_match_reference(g, ts, edges):
    """holds gives the reference's ok for each pair, violations the
    failing pairs in order, and allowed the reference's allowances, for
    every beta of the regime; verify_spanner reports the reference's
    failing pairs, with d_H and allowance, under every tolerance the
    regime admits."""
    table = build_path_table(g, ts)
    betas = EXACT_BETAS if g.is_exact else FLOAT_BETAS
    for beta in betas:
        sub = SubgraphAdjacency(g, edges)
        allowed, expected = reference_pair_bounds(table, beta, g.w_max, sub)
        bounds = PairBounds(table, beta)
        assert ([bounds.holds(sub, u, v) for u, v in table.pair_keys()]
                == [ok for _, _, ok in expected]), beta
        assert (bounds.violations(sub)
                == [pair for pair, _, ok in expected if not ok]), beta
        assert ([repr(x) for x in bounds.allowed.items()]
                == [repr(x) for x in allowed.items()]), beta
        for rel_tol in ((0.0,) if g.is_exact else (0.0, 1e-9)):
            _, expected = reference_pair_bounds(table, beta, g.w_max,
                                                SubgraphAdjacency(g, edges),
                                                rel_tol)
            rep = verify_spanner(g, ts, edges, beta, rel_tol)
            assert ([repr((v.pair, v.d_h, v.allowed)) for v in rep.violations]
                    == [repr((pair, d_h, allowed[pair]))
                        for pair, d_h, ok in expected if not ok]), beta
            assert rep.ok == all(ok for _, _, ok in expected), beta


class TestPackedRowsAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(tie_heavy(), st.randoms(use_true_random=False))
    def test_tie_heavy(self, case, rnd):
        g, ts = case
        for edges in (all_pairs(g),
                      [e for e in all_pairs(g) if rnd.random() < 0.7]):
            assert_rows_match_reference(g, ts, edges)

    def test_weight_regimes(self):
        rng = random.Random(5)
        for seed in range(10):
            for g in regimes(seed + 40, 14, 18):
                ts = sorted(rng.sample(range(g.n), 6))
                tree = approx_steiner(g, ts).edges
                for edges in (all_pairs(g), tree,
                              [e for e in all_pairs(g) if rng.random() < 0.6]):
                    assert_rows_match_reference(g, ts, edges)


class TestGreedyOnPairBounds:
    @settings(max_examples=100, deadline=None)
    @given(tie_heavy(), st.randoms(use_true_random=False))
    def test_greedy_matches_the_host_unit_reference(self, case, rnd):
        # The greedy skips a pair when PairBounds.holds says so; the
        # reference compares a Bellman-Ford d_H with d_G + Beta.slack.
        g, ts = case
        initial = [e for e in all_pairs(g) if rnd.random() < 0.4]
        for beta in (EXACT_BETAS if g.is_exact else FLOAT_BETAS):
            state = greedy_complete(g, initial, ts, beta)
            assert ((state.edges, state.added, state.insertions)
                    == greedy_reference(g, initial, ts, beta, _insert_path)), beta

    def test_greedy_takes_no_tolerance(self):
        # d_H = 0.1 + 0.2 exceeds d_G = 0.3 by one ulp: the 1e-9 margin
        # of certification would pass the pair, the greedy inserts (0, 2).
        g = Graph.from_edges(3, [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3)])
        state = greedy_complete(g, [(0, 1), (1, 2)], [0, 2], Beta("relative", 0))
        assert state.added == {(0, 2)}


class TestTreeDistances:
    @staticmethod
    def assert_walk_equals_dijkstra(g, edges):
        walk, dijkstra = TreeDistances(g, edges), SubgraphAdjacency(g, edges)
        for s in range(g.n):
            assert ([repr(d) for d in walk.distances(s)]
                    == [repr(d) for d in dijkstra.distances(s)]), s

    def test_steiner_trees_in_every_regime(self):
        rng = random.Random(9)
        for seed in range(12):
            for g in regimes(seed + 70, 30, 40):
                ts = rng.sample(range(g.n), rng.randint(2, 12))
                self.assert_walk_equals_dijkstra(g, approx_steiner(g, ts).edges)

    def test_whole_trees_with_non_dyadic_weights(self):
        for seed in range(10):
            t = rand_tree(seed, 40)
            g = reweighted(t, lambda w: int(w * 8) / 10)
            self.assert_walk_equals_dijkstra(g, all_pairs(g))

    def test_backbone_pairs_equal_the_reference_scan(self):
        rng = random.Random(13)
        for seed in range(8):
            for g in regimes(seed + 90, 20, 26):
                ts = sorted(rng.sample(range(g.n), 7))
                betas = EXACT_BETAS if g.is_exact else FLOAT_BETAS
                for beta in betas:
                    bb = build_backbone(g, ts, beta)
                    on_r = SubgraphAdjacency(g, bb.r.edges)
                    _, rows = reference_pair_bounds(bb.path_table, beta,
                                                    g.w_max, on_r)
                    assert bb.unsatisfied_pairs == {p for p, _, ok in rows if not ok}


class TestToleranceRules:
    """PairBounds checks exactly; verify_spanner alone takes a tolerance.
    Exact mode is tolerance-free: a nonzero rel_tol on a rational graph
    is refused, not applied; one outside [0, inf) is refused anywhere."""

    # d_H(0, 2) = 2 through vertex 1, against d_G(0, 2) = 3/2.
    EXACT = [(0, 1, 1), (1, 2, 1), (0, 2, Fraction(3, 2))]

    def test_exact_check_flags_the_pair(self):
        g = Graph.from_edges(3, self.EXACT)
        table = build_path_table(g, [0, 2])
        sub = SubgraphAdjacency(g, [(0, 1), (1, 2)])
        for beta in (Beta("relative", 0), Beta("wmax", 0)):
            assert PairBounds(table, beta).violations(sub) == [(0, 2)]
        assert sub.distance(0, 2) == 2

    def test_negative_tolerance_is_rejected_in_both_regimes(self):
        for edges in (self.EXACT, [(u, v, float(w)) for u, v, w in self.EXACT]):
            g = Graph.from_edges(3, edges)
            with pytest.raises(ValueError):
                verify_spanner(g, [0, 2], [(0, 1), (1, 2)], HALF, -1e-9)

    def test_verify_spanner_refuses_a_tolerance_on_an_exact_graph(self):
        g = Graph.from_edges(3, self.EXACT)
        h, zero = [(0, 1), (1, 2)], Beta("relative", 0)
        for rel_tol in (0.4, 1e-9):
            with pytest.raises(ValueError):
                verify_spanner(g, [0, 2], h, zero, rel_tol)
        rep = verify_spanner(g, [0, 2], h, zero)
        assert not rep.ok
        assert [(v.d_h, v.allowed) for v in rep.violations] == [(2, Fraction(3, 2))]

    @pytest.mark.parametrize("terminals", [[], [0], [2, 2]])
    def test_verify_spanner_applies_the_rules_below_two_terminals(self, terminals):
        # No pair is checked, but the arguments are refused as with pairs.
        exact = Graph.from_edges(3, self.EXACT)
        binary64 = Graph.from_edges(3, [(u, v, float(w)) for u, v, w in self.EXACT])
        zero = Beta("relative", 0)
        for g, rel_tol in ((exact, 0.4), (exact, -1.0), (binary64, -1.0)):
            with pytest.raises(ValueError):
                verify_spanner(g, terminals, [], zero, rel_tol)
        for g, rel_tol in ((exact, 0.0), (binary64, 0.0), (binary64, 1e-9)):
            rep = verify_spanner(g, terminals, [], zero, rel_tol)
            assert rep.ok and rep.violations == ()

    @pytest.mark.parametrize("terminals", [[], [0], [0, 1, 2]])
    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -math.inf])
    def test_verify_spanner_refuses_a_tolerance_outside_zero_to_inf(
            self, terminals, rel_tol):
        # A NaN margin made every pair of a correct spanner fail (each
        # excess -1/2 here), and an infinite one forgave any reachable d_H.
        path = [(0, 1, 1), (1, 2, 1), (0, 2, 3)]
        half = Beta("relative", 0.5)
        for g in (Graph.from_edges(3, path),
                  Graph.from_edges(3, [(u, v, float(w)) for u, v, w in path])):
            with pytest.raises(ValueError):
                verify_spanner(g, terminals, [(0, 1), (1, 2)], half, rel_tol)
            assert verify_spanner(g, terminals, [(0, 1), (1, 2)], half).ok


def brute_force_violations(g, terms, edges, beta):
    """Violating pairs with d_G, d_H and the allowance, from Floyd-Warshall,
    Bellman-Ford and the documented fixed-path tie-break."""
    dist = floyd_warshall(g)
    out = {}
    for i, u in enumerate(terms):
        for v in terms[i + 1:]:
            path = tie_break_choice(all_shortest_paths(g, u, v))
            w = max(g.weight_of(a, b) for a, b in zip(path, path[1:]))
            allowed = dist[u][v] + beta.slack(w, g.w_max)
            d_h = subgraph_dist(g, edges, u, v)
            if d_h > allowed:
                out[(u, v)] = (dist[u][v], d_h, allowed)
    return out


def test_verify_spanner_matches_brute_force():
    rng = random.Random(11)
    checked = 0
    for seed in range(12):
        g = rand_connected_graph(seed + 900, 9, 8)
        terms = sorted(rng.sample(range(g.n), 4))
        for beta in (HALF, Beta("relative", 0), Beta("wmax", Fraction(1, 4))):
            edges = [e for e in all_pairs(g) if rng.random() < 0.7]
            rep = verify_spanner(g, terms, edges, beta)
            expected = brute_force_violations(g, terms, edges, beta)
            got = {v.pair: (v.d_g, v.d_h, v.allowed) for v in rep.violations}
            assert got == expected
            assert rep.ok == (not expected)
            checked += len(expected)
    assert checked > 0


def test_scaling_weights_keeps_one_level_edge_sets():
    split = EpsilonSplit.of(Fraction(1, 2))
    for seed in range(20):
        g = rand_connected_graph(seed + 300, 12, 14)
        terms = [0, 3, 6, 9]
        eps = eps_spanner(g, terms, split).edges
        four = four_eps_spanner(g, terms, split).edges
        for c in (Fraction(3, 7), Fraction(5)):
            gc = Graph.from_edges(g.n, [(u, v, w * c) for u, v, w in g.edges])
            assert eps_spanner(gc, terms, split).edges == eps
            assert four_eps_spanner(gc, terms, split).edges == four


def test_binary64_build_of_dyadic_instance_passes_exact_oracle():
    # Weights k/8 are exact in binary64, so the float build's output can
    # be checked without tolerance on the rational twin.
    split = EpsilonSplit.of(0.5)
    for seed in range(20):
        exact = rand_connected_graph(seed + 600, 14, 18)
        floats = rand_connected_graph(seed + 600, 14, 18, exact=False)
        terms = [0, 4, 8, 13]
        built = (
            (eps_spanner(floats, terms, split), HALF),
            (four_eps_spanner(floats, terms, split),
             Beta("relative", Fraction(9, 2))),
            (wmax_spanner(floats, terms, SampleConfig(split, seed=seed)),
             Beta("wmax", Fraction(9, 2))),
        )
        for sp, beta in built:
            assert verify_spanner(exact, terms, sp.edges, beta).ok, seed


def test_repair_pass_inserts_fixed_paths(monkeypatch):
    # With no sampled vertices the prefix/suffix routes stay open, so the
    # repair pass must close them with fixed paths.
    monkeypatch.setattr(sampled, "_sample_vertices", lambda bb, size, seed: [])
    g, terms, _ = generate(GeneratorSpec(
        "grid", n=100, seed=5, weight_range=(1, 1), terminal_fraction=0.25))
    beta = Beta("wmax", Fraction(9, 2))
    sp = wmax_spanner(g, terms, SampleConfig(EpsilonSplit.of(Fraction(1, 2)),
                                             seed=1, ell=0.5))
    assert sp.meta["repaired"]
    table = build_path_table(g, terms)
    for u, v in sp.meta["repaired"]:
        assert set(table.path(u, v).edge_pairs()) <= sp.edges
    assert verify_spanner(g, terms, sp.edges, beta).ok


def test_repair_pass_reads_each_pair_after_the_earlier_repairs(monkeypatch):
    # A fixed path inserted for one pair can serve a later one, which the
    # pass must then leave alone: replay the pass on the subgraph it
    # started from, with the Bellman-Ford reference, pair after pair.
    # The pass reads the greedy's bounds, so those record its start.
    monkeypatch.setattr(sampled, "_sample_vertices", lambda bb, size, seed: [])
    start = []

    class Recording(PairBounds):
        def holds(self, sub, u, v):
            if not start:
                start.append(sub.edges)
            return super().holds(sub, u, v)

        def violations(self, sub):
            if not start:
                start.append(sub.edges)
            return super().violations(sub)

    real_greedy = sampled.greedy_complete

    def greedy(*args, **kwargs):
        state = real_greedy(*args, **kwargs)
        return dataclasses.replace(
            state, bounds=Recording(state.bounds.table, state.bounds.beta))

    monkeypatch.setattr(sampled, "greedy_complete", greedy)
    g, terms, _ = generate(GeneratorSpec(
        "grid", n=100, seed=3, weight_range=(1, 1), terminal_fraction=0.25))
    beta = Beta("wmax", Fraction(9, 2))
    sp = wmax_spanner(g, terms, SampleConfig(EpsilonSplit.of(Fraction(1, 2)),
                                             seed=1, ell=0.5))
    table = build_path_table(g, terms)
    edges, replayed, at_start = set(start[0]), [], []
    for u, v in table.pair_keys():
        allowed = table.dist(u, v) + beta.slack(table.w(u, v), g.w_max)
        if subgraph_dist(g, start[0], u, v) > allowed:
            at_start.append((u, v))
        if subgraph_dist(g, edges, u, v) > allowed:
            replayed.append((u, v))
            edges |= set(table.path(u, v).edge_pairs())
    assert sp.meta["repaired"] == replayed
    assert len(replayed) < len(at_start)
