import math
from fractions import Fraction

import pytest

from helpers import rand_connected_graph, rand_tree
from lightspan.additive import EpsilonSplit, build_h0_eps, greedy_complete
from lightspan.graph import Beta, Graph, FixedPath, SubgraphAdjacency, canonical
from lightspan.oracle import verify_spanner
from lightspan.sampled import (
    DistanceChainError,
    SampleConfig,
    _distance_chains,
    choose_ell,
    prefix_suffix,
    threshold_search,
    wmax_spanner,
)
from lightspan.steiner import build_backbone
from lightspan.transform import map_back, scaled_universe

SPLIT = EpsilonSplit.of(Fraction(1, 2))
WMAX_BETA = Beta("wmax", Fraction(9, 2))


def path_graph(weights):
    return Graph.from_edges(len(weights) + 1,
                            [(i, i + 1, w) for i, w in enumerate(weights)])


class TestPrefixSuffix:
    def test_all_present_is_empty(self):
        g = path_graph([Fraction(2, 5)] * 4)
        path = FixedPath((0, 4), Fraction(8, 5), (0, 1, 2, 3, 4), Fraction(2, 5))
        current = {canonical(i, i + 1) for i in range(4)}
        pre, suf, overlap = prefix_suffix(g, path, current, Fraction(1, 2))
        assert pre == () and suf == () and overlap is False

    def test_hand_simulated_accumulation(self):
        # missing weights 0.4 each, ell = 0.5: two edges per side, disjoint
        g = path_graph([Fraction(2, 5)] * 4)
        path = FixedPath((0, 4), Fraction(8, 5), (0, 1, 2, 3, 4), Fraction(2, 5))
        pre, suf, overlap = prefix_suffix(g, path, set(), Fraction(1, 2))
        assert pre == ((0, 1), (1, 2))
        assert suf == ((2, 3), (3, 4))
        assert overlap is False

    def test_pigeonhole_overlap(self):
        # total missing 0.8 < 2 * 0.5 forces an overlap
        g = path_graph([Fraction(2, 5), Fraction(2, 5)])
        path = FixedPath((0, 2), Fraction(4, 5), (0, 1, 2), Fraction(2, 5))
        pre, suf, overlap = prefix_suffix(g, path, set(), Fraction(1, 2))
        assert overlap is True

    def test_total_missing_below_ell_takes_whole_path(self):
        g = path_graph([Fraction(1, 10)] * 3)
        path = FixedPath((0, 3), Fraction(3, 10), (0, 1, 2, 3), Fraction(1, 10))
        pre, suf, overlap = prefix_suffix(g, path, set(), Fraction(1, 2))
        assert pre == suf == ((0, 1), (1, 2), (2, 3))
        assert overlap is True


class TestThresholdSearch:
    def test_constant_vprime_closed_form(self):
        calls = []

        def v_prime(ell):
            calls.append(ell)
            return 9

        # ell* = sqrt(100 * 9) / 5 = 6
        got = threshold_search(100.0, 5, 50.0, v_prime)
        assert got == pytest.approx(6.0)

    def test_monotone_synthetic_brackets_fixed_point(self):
        def v_prime(ell):
            # nonincreasing step function of ell
            return 16 if ell < 4 else 4

        # crossing: for ell < 4 rhs = sqrt(64*16)/8 = 4; at ell >= 4 rhs = 2
        got = threshold_search(64.0, 8, 32.0, v_prime)
        assert got is not None
        rhs = math.sqrt(64.0 * v_prime(got)) / 8
        assert abs(got - rhs) <= max(2.0, 0.05 * got)

    def test_unreachable_fixed_point_signals_none(self):
        # enormous terminal count pushes the fixed point below range
        def v_step(ell):
            return 2 if ell < 1 else 1

        got = threshold_search(1e-6, 10 ** 6, 100.0, v_step)
        assert got is None


class TestChooseEll:
    def test_deterministic(self):
        g = rand_connected_graph(5, 30, 45)
        s = frozenset({0, 6, 12, 18, 24})
        cfg = SampleConfig(SPLIT, c=2.0, seed=9)
        assert choose_ell(g, s, cfg) == choose_ell(g, s, cfg)

    def test_fallback_when_terminals_overwhelm(self):
        # |S| so large the fixed point dives below every edge weight.
        g = rand_connected_graph(6, 24, 40)
        s = frozenset(range(24))
        cfg = SampleConfig(SPLIT, c=0.01, seed=1)
        assert choose_ell(g, s, cfg) is None


class TestWmaxSpanner:
    def test_unit_tree_is_backbone_only_no_repairs(self):
        g = rand_tree(11, 12, unit=True)
        terms = [0, 4, 8, 11]
        sp = wmax_spanner(g, terms, SampleConfig(SPLIT, seed=3))
        bb = build_backbone(g, terms, WMAX_BETA)
        assert sp.edges == bb.h.edges
        assert sp.meta["repaired"] == []

    def test_huge_ell_matches_plain_greedy(self):
        # With ell above every pair's missing weight the loop degenerates
        # to the ordinary greedy completion under the W_max condition.
        g = rand_connected_graph(21, 16, 22)
        terms = [0, 5, 10, 15]
        bb = build_backbone(g, terms, WMAX_BETA)
        inst = scaled_universe(g, bb)
        ell = float(inst.v_h)
        total_gps = sum(w for _, _, w in inst.g_prime_s.edges)
        if total_gps < ell:  # precondition of the equivalence
            pytest.skip("instance too heavy for the degenerate case")
        sp = wmax_spanner(g, terms, SampleConfig(SPLIT, seed=5, ell=ell))
        initial = build_h0_eps(inst, bb.s_prime) | inst.h_prime_pairs()
        sigma = inst.sigma
        state = greedy_complete(
            inst, initial, terms,
            lambda p: sigma * WMAX_BETA.value * g.w_max)
        expected = map_back(inst, state.edges) | bb.h.edges
        # the sampled sub-spanner may add more; the greedy core must agree
        assert expected <= sp.edges

    def test_valid_on_many_seeds(self):
        g = rand_connected_graph(31, 24, 34)
        terms = [1, 7, 13, 19]
        for seed in range(8):
            sp = wmax_spanner(g, terms, SampleConfig(SPLIT, seed=seed))
            rep = verify_spanner(g, terms, sp.edges, WMAX_BETA)
            assert rep.ok

    def test_reproducible(self):
        g = rand_connected_graph(41, 20, 30)
        terms = [0, 6, 12, 18]
        cfg = SampleConfig(SPLIT, c=2.0, seed=77)
        a = wmax_spanner(g, terms, cfg)
        b = wmax_spanner(g, terms, cfg)
        assert a.edges == b.edges and a.weight == b.weight

    def test_fallback_path_is_valid(self):
        g = rand_connected_graph(51, 18, 26)
        terms = list(range(18))
        cfg = SampleConfig(SPLIT, c=0.01, seed=2)
        sp = wmax_spanner(g, terms, cfg)
        assert sp.meta["fallback"] is True
        assert verify_spanner(g, terms, sp.edges, WMAX_BETA).ok

    def test_distance_chain_instrumentation(self):
        hits = 0
        for seed in range(12):
            g = rand_connected_graph(seed + 400, 22, 30)
            terms = [0, 7, 14, 21]
            sp = wmax_spanner(g, terms,
                              SampleConfig(SPLIT, seed=seed, ell=1.5),
                              instrument=True)
            for entry in sp.meta.get("distance_chain", []):
                if entry["hit"]:
                    hits += 1
                    assert entry["ok"]
        print(f"distance-chain hits checked: {hits}")

    def test_violated_distance_chain_raises(self, monkeypatch):
        g = Graph.from_edges(5, [(i, i + 1, 1) for i in range(4)])
        bb = build_backbone(g, [0, 4], WMAX_BETA)
        edges = {(i, i + 1) for i in range(4)}
        route = {(0, 4): (bb.path_table.path(0, 4), [(0, 1)], [(3, 4)])}
        cfg = SampleConfig(SPLIT)
        [entry] = _distance_chains(g, bb, edges, route, [1, 3], cfg)
        assert entry["hit"] and entry["ok"]
        real = SubgraphAdjacency.distance
        monkeypatch.setattr(SubgraphAdjacency, "distance",
                            lambda self, u, v: real(self, u, v) + 10)
        with pytest.raises(DistanceChainError):
            _distance_chains(g, bb, edges, route, [1, 3], cfg)

    def test_needs_two_terminals(self):
        g = rand_connected_graph(2, 8, 10)
        with pytest.raises(ValueError):
            wmax_spanner(g, [3], SampleConfig(SPLIT))
