import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    rand_connected_graph,
    rand_tree,
    record_seeded_searches,
    reference_threshold_search,
)
from lightspan.additive import (
    EpsilonSplit,
    build_h0_eps,
    eps_spanner,
    greedy_complete,
)
from lightspan import additive as additive_mod, sampled as sampled_mod, steiner as steiner_mod
from lightspan.generators import GeneratorSpec, generate
from lightspan.graph import (
    Beta,
    FixedPath,
    Graph,
    PairBounds,
    SubgraphAdjacency,
    canonical,
)
from lightspan.oracle import subset_lightness, verify_spanner
from lightspan.sampled import (
    DistanceChainError,
    SampleConfig,
    _distance_chains,
    _sample_size,
    _sample_vertices,
    choose_ell,
    prefix_suffix,
    threshold_search,
    wmax_spanner,
)
from lightspan.steiner import build_backbone
from lightspan.transform import scaled_universe

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

    @pytest.mark.parametrize("ell", [0, Fraction(-1, 2)])
    def test_nonpositive_ell_refused(self, ell):
        g = path_graph([Fraction(1, 10)] * 3)
        path = FixedPath((0, 3), Fraction(3, 10), (0, 1, 2, 3), Fraction(1, 10))
        with pytest.raises(ValueError, match="ell must be positive"):
            prefix_suffix(g, path, set(), ell)


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


def probe_function(kind, seed, top, scale):
    """(floor, v_prime) over ell with floor(ell) <= v_prime(ell) <= top.

    "monotone" mimics choose_ell: floor is a capped sample size
    ceil(scale / ell) and v_prime a larger nonincreasing step function;
    "arbitrary" draws both per ell from a seeded hash, so v_prime need
    not be monotone at all.
    """
    if kind == "monotone":
        def floor(ell):
            return max(1, min(top, math.ceil(scale / ell)))

        def v_prime(ell):
            return max(floor(ell), min(top, math.ceil(3 * scale / ell)))
    else:
        def floor(ell):
            return random.Random(f"{seed}:floor:{ell!r}").randint(1, top)

        def v_prime(ell):
            return random.Random(f"{seed}:v:{ell!r}").randint(floor(ell), top)
    return floor, v_prime


def log_uniform(lo, hi):
    """Floats 10**x for x drawn from [lo, hi]."""
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


class TestProbeBounds:
    """Bounds decide a probe only as evaluating it would."""

    @settings(max_examples=300, deadline=None)
    @given(log_uniform(-12, 6), st.integers(1, 400), log_uniform(-0.3, 5),
           st.integers(1, 500), log_uniform(-2, 5), st.integers(0, 2 ** 32),
           st.sampled_from(["monotone", "arbitrary"]), st.booleans())
    def test_bounds_never_change_ell(self, factor, s_count, hi, top, scale,
                                     seed, kind, finite_ceil):
        floor, v_prime = probe_function(kind, seed, top, scale)
        ceil = top if finite_ceil else math.inf
        probes = {"reference": [], "bounded": []}

        def recorded(name):
            def call(ell):
                probes[name].append(ell)
                return v_prime(ell)
            return call

        expected = reference_threshold_search(factor, s_count, hi,
                                              recorded("reference"))
        got = threshold_search(factor, s_count, hi, recorded("bounded"),
                               floor, ceil)
        assert got == expected
        assert len(probes["bounded"]) <= len(probes["reference"])

        # v_prime runs at hi, at lo only for a closed-form test the bounds
        # leave open, and elsewhere only where they cannot decide the test.
        def rhs(v):
            return math.sqrt(factor * v) / s_count

        lo = hi / 2 ** 30
        for ell in probes["bounded"]:
            open_test = not rhs(floor(ell)) > ell and rhs(ceil) > ell
            assert (ell == hi or open_test
                    or (ell == lo and v_prime(hi) >= floor(lo))), ell

    def test_default_bounds_keep_the_four_argument_form(self):
        for kind in ("monotone", "arbitrary"):
            for seed in range(20):
                _, v_prime = probe_function(kind, seed, 50, 40.0)
                assert (threshold_search(300.0, 7, 60.0, v_prime)
                        == reference_threshold_search(300.0, 7, 60.0, v_prime))

    def test_choose_ell_builds_fewer_backbones(self, monkeypatch):
        # On generated wmax instances the bounded search returns the
        # reference bisection's ell, over the bracket choose_ell's
        # iteration found, and never builds more probe backbones.  The
        # first nine cases reach a fixed point by iteration alone; the
        # last four bisect, and at c = 1/2 the bounds skip a probe.
        totals, bisected = Counter(), 0
        for inst, cfg in generated_universes():
            ells, built, searched = {}, Counter(), Counter()
            for side in ("bounded", "reference"):
                with monkeypatch.context() as mp:
                    def counted(*args, side=side):
                        built[side] += 1
                        return build_backbone(*args)

                    def search(f, s, hi, vp, *bounds, bracket, side=side):
                        searched[side] += 1
                        if side == "reference":
                            return reference_threshold_search(f, s, hi, vp, bracket)
                        return threshold_search(f, s, hi, vp, *bounds, bracket=bracket)

                    mp.setattr(sampled_mod, "build_backbone", counted)
                    mp.setattr(sampled_mod, "threshold_search", search)
                    ells[side] = choose_ell(inst, cfg)
            assert ells["bounded"] == ells["reference"]
            assert built["bounded"] <= built["reference"]
            assert searched["bounded"] == searched["reference"]
            bisected += searched["bounded"]
            totals.update(built)
        assert bisected == 4
        assert totals["bounded"] < totals["reference"]


def wmax_universe(g, terminals, split=SPLIT):
    """The scaled universe of the +(4+eps)*W_max backbone: what
    wmax_spanner hands to choose_ell."""
    return scaled_universe(build_backbone(g, terminals,
                                          Beta("wmax", 4 + split.eps)))


def generated_universes():
    """(universe, config) of generated binary64 wmax instances: on the
    first nine choose_ell's iteration reaches a fixed point, on the last
    four it repeats a sample size and bisects."""
    split = EpsilonSplit.of(0.5)
    cases = [(kind, 60, seed, seed, 2.0) for kind in ("erdos-renyi", "geometric", "grid")
             for seed in range(3)]
    cases += [("grid", 60, 5, 0, 2.0), ("grid", 60, 17, 2, 2.0),
              ("grid", 40, 0, 2, 0.5), ("grid", 60, 6, 2, 0.5)]
    for kind, n, seed, run_seed, c in cases:
        g, terms, _ = generate(GeneratorSpec(
            kind, n=n, seed=seed, terminal_fraction=0.2, exact=False))
        yield wmax_universe(g, terms, split), SampleConfig(split, c=c, seed=run_seed)


class TestChooseEll:
    def test_deterministic(self):
        g = rand_connected_graph(5, 30, 45)
        s = frozenset({0, 6, 12, 18, 24})
        cfg = SampleConfig(SPLIT, c=2.0, seed=9)
        assert choose_ell(wmax_universe(g, s), cfg) == choose_ell(
            wmax_universe(g, s), cfg)
        for inst, cfg in generated_universes():
            runs = [{}, {}]
            ells = [choose_ell(inst, cfg, backbones=probes) for probes in runs]
            assert ells[0] == ells[1] and list(runs[0]) == list(runs[1])

    def test_an_iterate_is_a_fixed_point_else_the_result_is_bracketed(self, monkeypatch):
        # Without a bisection choose_ell returns an iterate whose sample
        # size is its predecessor's (the last one probed): rhs at it is it,
        # or it is |V_H| and rhs is not below.  Otherwise threshold_search
        # bisects a bracket whose ends read above and not above, and the
        # result lies inside it.
        kinds = Counter()
        for inst, cfg in generated_universes():
            probes, brackets = {}, []

            def search(*args, bracket, **bounds):
                brackets.append(bracket)
                return threshold_search(*args, bracket=bracket, **bounds)

            with monkeypatch.context() as mp:
                mp.setattr(sampled_mod, "threshold_search", search)
                ell = choose_ell(inst, cfg, backbones=probes)
            factor = cfg.c * math.log(max(inst.base.n, 2)) * inst.v_h

            def rhs(x):
                k = _sample_size(cfg, inst, x)
                if k not in probes:
                    probes[k] = build_backbone(
                        inst.base, frozenset(_sample_vertices(inst.backbone, k, cfg.seed)),
                        Beta("relative", cfg.split.eps))
                v = 1 if probes[k] is None else len(probes[k].h.vertices)
                return math.sqrt(factor * v) / len(inst.backbone.terminals)

            hi = float(inst.v_h)
            if not brackets:
                kinds["iterate"] += 1
                assert _sample_size(cfg, inst, ell) == list(probes)[-1]
                assert rhs(ell) == ell or (ell == hi and rhs(ell) >= hi)
            else:
                kinds["bracket"] += 1
                (a, b), = brackets
                assert rhs(a) > a and not rhs(b) > b
                assert a < ell < b
        assert kinds == {"iterate": 9, "bracket": 4}

    def test_wmax_spanner_uses_the_public_ell(self):
        # The builder's ell is the one choose_ell gives on the universe
        # of the W_max backbone, on random and generated instances in
        # both weight regimes; the last case of each falls back (None).
        cases = []
        for exact in (True, False):
            split = SPLIT if exact else EpsilonSplit.of(0.5)
            for seed in range(3):
                g = rand_connected_graph(seed + 70, 24, 36, exact=exact)
                cases.append((g, frozenset({0, 5, 10, 15, 20}),
                              SampleConfig(split, seed=seed)))
            for kind in ("erdos-renyi", "geometric", "grid"):
                g, terms, _ = generate(GeneratorSpec(
                    kind, n=40, seed=2, terminal_fraction=0.2, exact=exact))
                cases.append((g, terms, SampleConfig(split, seed=1)))
            cases.append((rand_connected_graph(6, 24, 40, exact=exact),
                          frozenset(range(24)), SampleConfig(split, c=0.01)))
        ells = []
        for g, terms, cfg in cases:
            ell = wmax_spanner(g, terms, cfg).meta["ell"]
            assert ell == choose_ell(wmax_universe(g, terms, cfg.split), cfg)
            ells.append(ell)
        assert ells[-1] is None and ells.count(None) == 2

    def test_fallback_when_terminals_overwhelm(self):
        # |S| so large the fixed point dives below every edge weight.
        g = rand_connected_graph(6, 24, 40)
        s = frozenset(range(24))
        cfg = SampleConfig(SPLIT, c=0.01, seed=1)
        assert choose_ell(wmax_universe(g, s), cfg) is None


class TestWmaxSpanner:
    def test_ell_above_backbone_vertex_count_refused(self):
        g = rand_connected_graph(21, 16, 22)
        terms = [0, 5, 10, 15]
        v_h = scaled_universe(build_backbone(g, terms, WMAX_BETA)).v_h
        sp = wmax_spanner(g, terms, SampleConfig(SPLIT, ell=float(v_h)))
        assert sp.meta["ell"] == v_h
        with pytest.raises(ValueError, match="outside"):
            wmax_spanner(g, terms, SampleConfig(SPLIT, ell=v_h + 0.5))

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
        inst = scaled_universe(bb)
        ell = float(inst.v_h)
        total_gps = sum(w for _, _, w in inst.g_prime_s.edges)
        if total_gps < ell:  # precondition of the equivalence
            pytest.skip("instance too heavy for the degenerate case")
        sp = wmax_spanner(g, terms, SampleConfig(SPLIT, seed=5, ell=ell))
        initial = build_h0_eps(inst, bb.s_prime) | bb.h.edges
        state = greedy_complete(g, initial, terms, WMAX_BETA)
        expected = state.edges
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

    def test_fallback_reuses_the_backbones_r_and_table(self, monkeypatch):
        # The fallback's eps backbone is built on the wmax backbone's
        # table and R, so Mehlhorn's tree over the 18 terminals is built
        # once.  Building that backbone afresh, as build_backbone does,
        # builds it twice and gives the same output and meta.
        g = rand_connected_graph(51, 18, 26)
        terms, cfg = list(range(18)), SampleConfig(SPLIT, c=0.01, seed=2)
        calls = []
        real = steiner_mod.approx_steiner
        monkeypatch.setattr(steiner_mod, "approx_steiner",
                            lambda g, ts: calls.append(frozenset(ts)) or real(g, ts))
        sp = wmax_spanner(g, terms, cfg)
        assert sp.meta["fallback"] is True
        assert calls.count(frozenset(terms)) == 1
        monkeypatch.setattr(sampled_mod, "_backbone_from", lambda table, r, beta:
                            build_backbone(table.g, table.terminals, beta))
        calls.clear()
        fresh = wmax_spanner(Graph(g.n, g.edges), terms, cfg)
        assert calls.count(frozenset(terms)) == 2
        assert ((sp.edges, sp.weight, sp.subset_lightness, sp.meta)
                == (fresh.edges, fresh.weight, fresh.subset_lightness, fresh.meta))

    def test_fallback_certifies_the_eps_build_once(self, monkeypatch):
        # The fallback's eps build seeds one live list per source, and the
        # wmax certification reads those lists; the output is the eps
        # spanner, with its lightness taken against the wmax backbone.
        g = rand_connected_graph(51, 18, 26)
        terms = list(range(18))
        searched = record_seeded_searches(monkeypatch)
        sp = wmax_spanner(g, terms, SampleConfig(SPLIT, c=0.01, seed=2))
        assert len(searched) <= len(terms) - 1
        eps = eps_spanner(g, terms, SPLIT)
        bb = build_backbone(g, terms, WMAX_BETA)
        light = subset_lightness(bb, eps.weight)
        assert sp.edges == eps.edges and sp.weight == eps.weight
        assert sp.subset_lightness == light.ratio
        assert list(sp.meta.items()) == [
            ("algo", "wmax"), ("c", 0.01), ("seed", 2),
            ("v_h", scaled_universe(bb).v_h), ("fallback", True),
            ("ell", None), ("repaired", []), ("lightness_mode", light.mode)]

    def test_distance_chain_instrumentation(self):
        # Unit grids with a small ell route pairs through prefixes and
        # suffixes, and sampled vertices land near them.
        hits = 0
        for seed in (0, 1):
            g, terms, _ = generate(GeneratorSpec(
                "grid", n=100, seed=seed, weight_range=(1, 1),
                terminal_fraction=0.2, exact=True))
            sp = wmax_spanner(g, terms,
                              SampleConfig(SPLIT, seed=seed, ell=0.5),
                              instrument=True)
            for entry in sp.meta.get("distance_chain", []):
                if entry["hit"]:
                    hits += 1
                    assert entry["ok"]
        assert hits >= 1

    def test_violated_distance_chain_raises(self, monkeypatch):
        g = Graph.from_edges(5, [(i, i + 1, 1) for i in range(4)])
        bb = build_backbone(g, [0, 4], WMAX_BETA)
        edges = {(i, i + 1) for i in range(4)}
        route = {(0, 4): ([(0, 1)], [(3, 4)])}
        bounds = PairBounds(bb.path_table, WMAX_BETA)
        [entry] = _distance_chains(bounds, SubgraphAdjacency(g, edges),
                                   route, [1, 3])
        assert entry["hit"] and entry["ok"]
        real = SubgraphAdjacency.distance
        monkeypatch.setattr(SubgraphAdjacency, "distance",
                            lambda self, u, v: real(self, u, v) + 10)
        with pytest.raises(DistanceChainError):
            _distance_chains(bounds, SubgraphAdjacency(g, edges), route,
                             [1, 3])

    def test_no_backbone_is_built_twice(self, monkeypatch):
        # choose_ell hands its sample backbones to the sample spanner, so
        # no (terminal set, beta) backbone repeats within one build, and
        # the edges are those of a sample spanner with its own backbone.
        g, terms, _ = generate(GeneratorSpec(
            "erdos-renyi", n=60, seed=4, terminal_fraction=0.2, exact=False))
        real_one_level = sampled_mod._one_level
        for seed in range(3):
            cfg = SampleConfig(SPLIT, seed=seed)
            calls = Counter()

            def counted(g, terminals, beta):
                calls[frozenset(terminals), beta] += 1
                return build_backbone(g, terminals, beta)

            with monkeypatch.context() as mp:
                mp.setattr(sampled_mod, "build_backbone", counted)
                mp.setattr(additive_mod, "build_backbone", counted)
                sp = wmax_spanner(g, terms, cfg)
            assert sp.meta["fallback"] is False and sp.meta["sample_size"] >= 2
            assert max(calls.values()) == 1
            assert sum(len(ts) == sp.meta["sample_size"] for ts, _ in calls) == 1
            with monkeypatch.context() as mp:
                mp.setattr(sampled_mod, "_one_level",
                           lambda *args, bb: real_one_level(*args))
                assert wmax_spanner(g, terms, cfg).edges == sp.edges

    def test_needs_two_terminals(self):
        g = rand_connected_graph(2, 8, 10)
        with pytest.raises(ValueError):
            wmax_spanner(g, [3], SampleConfig(SPLIT))
