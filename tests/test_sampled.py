import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

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


def synthetic_choose_ell(monkeypatch, v_h, s_count, n, c, v_of_size):
    """choose_ell on a stand-in universe with |V_H| = v_h, |S| = s_count,
    host order n and no spliced edge weight, whose sample of k >= 2
    vertices has a backbone of v_of_size(k) vertices."""
    backbone = SimpleNamespace(terminals=range(s_count),
                               h=SimpleNamespace(vertices=range(v_h)))
    inst = SimpleNamespace(base=SimpleNamespace(n=n), backbone=backbone,
                           v_h=v_h, lightest_spliced=lambda: 0.0)
    monkeypatch.setattr(sampled_mod, "build_backbone", lambda g, sample, beta:
                        SimpleNamespace(h=SimpleNamespace(
                            vertices=range(v_of_size(len(sample))))))
    cfg = SampleConfig(SPLIT, c=c)
    return choose_ell(inst, cfg), cfg.c * math.log(n) * v_h


class TestSyntheticProbes:
    def test_constant_vprime_gives_the_closed_form(self, monkeypatch):
        # ell* = sqrt(100 * 9) / 5 = 6, reached by the iteration alone.
        got, factor = synthetic_choose_ell(monkeypatch, 50, 5, 50,
                                           2 / math.log(50), lambda k: 9)
        assert got == math.sqrt(factor * 9) / 5 == pytest.approx(6.0)

    def test_step_vprime_is_bracketed(self, monkeypatch):
        # With factor 64 and |S| = 12, |V'_H| = 64 above sample size 16
        # and 16 up to it: rhs is 16/3 for ell < 4 and 8/3 from ell = 4
        # on, so the iterates cycle and the bisection finds the step.
        def v_of_size(k):
            return 64 if k > 16 else 16

        got, factor = synthetic_choose_ell(monkeypatch, 64, 12, 64,
                                           1 / math.log(64), v_of_size)
        assert got == pytest.approx(factor / 16, rel=0.01)

        def v_prime(ell):  # one sampled vertex builds no backbone
            k = min(64, math.ceil(factor / ell))
            return v_of_size(k) if k > 1 else 1

        bracket = (math.sqrt(factor * 16) / 12, math.sqrt(factor * 64) / 12)
        assert got == reference_threshold_search(factor, 12, 64.0, v_prime, bracket)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 300), st.integers(2, 10 ** 6), st.integers(2, 10 ** 4),
           st.floats(-12, 2).map(lambda x: 10.0 ** x), st.integers(0, 300),
           st.lists(st.tuples(st.integers(2, 300), st.integers(0, 300)), max_size=5))
    def test_monotone_vprime_gives_the_reference_ell(self, v_h, s_count, n, c,
                                                     base, steps):
        # |V'_H| of a k-vertex sample is min(|V_H|, k + base + the rises of
        # the steps at or below k): at least k and nondecreasing in k, as a
        # backbone of nested samples would be.  choose_ell returns the
        # iteration's fixed point, else None when rhs is not above lo, else
        # the plain bisection of its bracket.  (The reference would give
        # its closed form when the iterates cycle below lo but |V'_H| is
        # constant over [lo, |V_H|].)
        def v_of_size(k):
            return min(v_h, k + base + sum(rise for at, rise in steps if at <= k))

        with pytest.MonkeyPatch.context() as mp:
            got, factor = synthetic_choose_ell(mp, v_h, s_count, n, c, v_of_size)
        inst = SimpleNamespace(base=SimpleNamespace(n=n), v_h=v_h)
        cfg = SampleConfig(SPLIT, c=c)

        def v_prime(ell):  # one sampled vertex builds no backbone
            k = _sample_size(cfg, inst, ell)
            return v_of_size(k) if k > 1 else 1

        def rhs(x):
            return math.sqrt(factor * v_prime(x)) / s_count

        fixed, bracket = iteration(inst, cfg, rhs)
        if bracket is None:
            assert got == fixed
        elif not rhs(v_h / 2 ** 30) > v_h / 2 ** 30:
            assert got is None
        else:
            assert got == reference_threshold_search(
                factor, s_count, float(v_h), v_prime, bracket)

    def test_unreachable_fixed_point_signals_none(self, monkeypatch):
        # The step instance with ell scaled by 1e-9 (factor by 1e-9, |S|
        # by 1e-9 ** -0.5): the iterates cycle as before, but the step
        # lies below lo = |V_H| / 2**30, where rhs is not above.
        got, _ = synthetic_choose_ell(monkeypatch, 64, 379473, 64,
                                      1e-9 / math.log(64),
                                      lambda k: 64 if k > 16 else 16)
        assert got is None


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


# Probe backbones built per case of generated_universes() by the search
# that skipped a bisection probe whenever bounds on |V'_H| settled its
# test; the plain test must build no more.
BOUNDED_SEARCH_PROBES = (2, 2, 2, 2, 2, 2, 2, 3, 2, 4, 4, 4, 5)


def probe_search(inst, cfg, probes):
    """(factor, v_prime) of choose_ell on inst: v_prime reads and fills
    probes as choose_ell does, so it builds no backbone choose_ell built."""
    factor = cfg.c * math.log(max(inst.base.n, 2)) * inst.v_h

    def v_prime(x):
        k = _sample_size(cfg, inst, x)
        if k not in probes:
            sample = frozenset(_sample_vertices(inst.backbone, k, cfg.seed))
            probes[k] = None if len(sample) < 2 else build_backbone(
                inst.base, sample, Beta("relative", cfg.split.eps))
        return 1 if probes[k] is None else len(probes[k].h.vertices)
    return factor, v_prime


def iteration(inst, cfg, rhs):
    """Where choose_ell's iteration ell <- min(|V_H|, rhs(ell)) from |V_H|
    ends: (ell, None) at the first iterate whose sample size is its
    predecessor's, else (None, (a, b)) at the first size that repeats an
    earlier one, with a the largest iterate inside (lo, |V_H|) that rhs is
    above and b the smallest it is not (lo = |V_H| / 2**30 and |V_H| if
    there is none)."""
    hi = float(inst.v_h)
    lo = hi / 2 ** 30
    ells = [hi]
    while True:
        ells.append(min(hi, rhs(ells[-1])))
        *seen, last, nxt = [_sample_size(cfg, inst, x) for x in ells]
        if nxt == last:
            return ells[-1], None
        if nxt in seen:
            read = [(x, y > x) for x, y in zip(ells, ells[1:]) if lo < x < hi]
            return None, (max((x for x, up in read if up), default=lo),
                          min((x for x, up in read if not up), default=hi))


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

    def test_an_iterate_is_a_fixed_point_else_the_result_is_bracketed(self):
        # When an iterate's sample size is its predecessor's, choose_ell
        # returns it (the last size probed): rhs at it is it, or it is
        # |V_H| and rhs is not below.  Otherwise it bisects the tightest
        # bracket of the iterates, whose ends read above and not above:
        # the result lies inside it.
        kinds = Counter()
        for inst, cfg in generated_universes():
            probes = {}
            ell = choose_ell(inst, cfg, backbones=probes)
            last_probed = list(probes)[-1]
            factor, v_prime = probe_search(inst, cfg, probes)

            def rhs(x):
                return math.sqrt(factor * v_prime(x)) / len(inst.backbone.terminals)

            hi = float(inst.v_h)
            fixed, bracket = iteration(inst, cfg, rhs)
            if bracket is None:
                kinds["iterate"] += 1
                assert ell == fixed
                assert _sample_size(cfg, inst, ell) == last_probed
                assert rhs(ell) == ell or (ell == hi and rhs(ell) >= hi)
            else:
                kinds["bracket"] += 1
                a, b = bracket
                assert rhs(a) > a and not rhs(b) > b
                assert a < ell < b
        assert kinds == {"iterate": 9, "bracket": 4}

    def test_bisecting_cases_return_the_reference_bisection(self):
        # On the cases whose sample sizes repeat, ell is the plain
        # bisection's over the bracket the iteration found.
        bisected = 0
        for inst, cfg in generated_universes():
            probes = {}
            ell = choose_ell(inst, cfg, backbones=probes)
            factor, v_prime = probe_search(inst, cfg, probes)
            s_count = len(inst.backbone.terminals)
            _, bracket = iteration(inst, cfg, lambda x: math.sqrt(
                factor * v_prime(x)) / s_count)
            if bracket is not None:
                bisected += 1
                assert ell == reference_threshold_search(
                    factor, s_count, float(inst.v_h), v_prime, bracket)
        assert bisected == 4

    def test_builds_no_more_probe_backbones_than_the_bounded_search(self, monkeypatch):
        built = []

        def counted(*args):
            built[-1] += 1
            return build_backbone(*args)

        monkeypatch.setattr(sampled_mod, "build_backbone", counted)
        for inst, cfg in generated_universes():
            built.append(0)
            choose_ell(inst, cfg)
        assert all(x <= y for x, y in zip(built, BOUNDED_SEARCH_PROBES, strict=True))

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
