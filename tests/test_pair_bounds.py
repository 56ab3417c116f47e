"""PairBounds, the one spanner-condition check behind the backbone scan,
certification, the repair pass and the oracles, pinned against the naive
references in helpers and against metamorphic and differential relations.
"""

import math
import random
from fractions import Fraction

from helpers import (
    all_shortest_paths,
    floyd_warshall,
    rand_connected_graph,
    subgraph_dist,
    tie_break_choice,
)
from lightspan import sampled
from lightspan.additive import EpsilonSplit, eps_spanner, four_eps_spanner
from lightspan.generators import GeneratorSpec, generate
from lightspan.graph import (
    Beta,
    Graph,
    PairBounds,
    SubgraphAdjacency,
    build_path_table,
    canonical,
)
from lightspan.oracle import verify_spanner
from lightspan.sampled import SampleConfig, wmax_spanner

HALF = Beta("relative", Fraction(1, 2))


def all_pairs(g):
    return [canonical(u, v) for u, v, _ in g.edges]


class TestPairBounds:
    def test_allowed_is_distance_plus_slack_in_pair_order(self):
        g = rand_connected_graph(5, 12, 16)
        table = build_path_table(g, [11, 0, 7, 3])
        for beta in (HALF, Beta("wmax", 2)):
            bounds = PairBounds(table, beta, g.w_max)
            assert list(bounds.allowed) == table.pair_keys()
            for (u, v), allowed in bounds.allowed.items():
                assert allowed == (table.dist(u, v)
                                   + beta.slack(table.w(u, v), g.w_max))

    def test_one_search_per_source_even_when_edges_are_added(self, monkeypatch):
        g = rand_connected_graph(6, 12, 16)
        table = build_path_table(g, [0, 3, 7, 11])
        bounds = PairBounds(table, HALF, g.w_max)
        sources = []
        real = SubgraphAdjacency.sssp

        def counting(self, source):
            sources.append(source)
            return real(self, source)

        monkeypatch.setattr(SubgraphAdjacency, "sssp", counting)
        full = SubgraphAdjacency(g, all_pairs(g))
        assert all(ok for _, _, ok in bounds.check(full))
        assert sources == [0, 3, 7]

        # Inserting the fixed path of the first pair runs no new search:
        # the live distances of the source absorb the new edges, and the
        # next pair of the same source sees them.
        sources.clear()
        sub = SubgraphAdjacency(g)
        seen = {}
        for pair, d_h, ok in bounds.check(sub):
            seen[pair] = d_h
            if pair == (0, 3):
                assert d_h == math.inf and not ok
                for e in table.path(0, 3).edge_pairs():
                    sub.add_edge(*e)
        assert sources == [0, 3, 7]
        assert seen[(0, 7)] == subgraph_dist(g, table.path(0, 3).edge_pairs(), 0, 7)

    def test_relative_tolerance_margin(self):
        # d_G(0, 2) = 2 - delta on the direct edge; without it d_H = 2.
        for delta, tolerant in ((1e-12, True), (1e-6, False)):
            g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0 - delta)])
            table = build_path_table(g, [0, 2])
            sub = SubgraphAdjacency(g, [(0, 1), (1, 2)])
            zero = Beta("relative", 0)
            [(_, _, exact_ok)] = PairBounds(table, zero, g.w_max).check(sub)
            [(_, _, tol_ok)] = PairBounds(table, zero, g.w_max, 1e-9).check(sub)
            assert exact_ok is False
            assert tol_ok is tolerant


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
        "grid", n=40, seed=1, weight_range=(1, 1), terminal_fraction=0.25))
    beta = Beta("wmax", Fraction(9, 2))
    sp = wmax_spanner(g, terms, SampleConfig(EpsilonSplit.of(Fraction(1, 2)),
                                             seed=1, ell=0.5))
    assert sp.meta["repaired"]
    table = build_path_table(g, terms)
    for u, v in sp.meta["repaired"]:
        assert set(table.path(u, v).edge_pairs()) <= sp.edges
    assert verify_spanner(g, terms, sp.edges, beta).ok
