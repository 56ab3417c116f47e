import hashlib
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from helpers import (
    greedy_reference,
    rand_connected_graph,
    rand_tree,
    record_seeded_searches,
    reference_h0_budget,
    reference_h0_eps,
    subgraph_dist,
    tenths_graph,
    tie_heavy,
)
from lightspan import additive, oracle, sampled, steiner, transform
from lightspan.additive import (
    EpsilonSplit,
    GreedyState,
    build_h0_budget,
    build_h0_eps,
    eps_spanner,
    four_eps_spanner,
    greedy_complete,
    neighborhood_budget,
)
from lightspan.generators import GeneratorSpec, generate
from lightspan.graph import (
    Beta,
    Graph,
    PairBounds,
    SubgraphAdjacency,
    build_path_table,
    canonical,
    certify_tolerance,
)
from lightspan.multilevel import (
    MultiLevelInstance,
    four_approx_baseline,
    solve_multilevel,
)
from lightspan.sampled import SampleConfig, wmax_spanner
from lightspan.steiner import SteinerTree, build_backbone
from lightspan.transform import ScaledInstance, scaled_universe

HALF = EpsilonSplit.of(Fraction(1, 2))


def unit_clique(n):
    return Graph.from_edges(
        n, [(u, v, 1) for u, v in itertools.combinations(range(n), 2)])


def synthetic_instance(n, edges):
    """A hand-weighted scaled instance: g_s = g'_s, no tree edges.

    sigma is 1 and the backbone stub's tree spans all n vertices with no
    edge, so |V_H| = n; no edge here weighs more, so none is dropped.
    """
    g = Graph(n, tuple(sorted((canonical(u, v) + (w,) for u, v, w in edges),
                              key=lambda e: (e[0], e[1]))))
    stub = SimpleNamespace(h=SteinerTree(frozenset(range(n)), frozenset(), 0),
                           path_table=SimpleNamespace(g=g))
    inst = ScaledInstance(backbone=stub, sigma=1)
    assert inst.g_s == inst.g_prime_s == g
    return inst


class TestEpsilonSplit:
    def test_default_split(self):
        s = EpsilonSplit.of(Fraction(1, 2))
        assert (s.eps1, s.eps2) == (Fraction(1, 8), Fraction(1, 4))
        assert 2 * s.eps1 + s.eps2 == s.eps

    def test_default_split_float_exact(self):
        s = EpsilonSplit.of(0.3)
        assert 2 * s.eps1 + s.eps2 == s.eps  # powers-of-two shares

    def test_invalid_splits(self):
        with pytest.raises(ValueError):
            EpsilonSplit(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        with pytest.raises(ValueError):
            EpsilonSplit(Fraction(1, 2), Fraction(1, 4), Fraction(0))

    def test_non_finite_eps_rejected(self):
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError):
                EpsilonSplit.of(eps)
        with pytest.raises(ValueError):
            EpsilonSplit(math.inf, math.inf, math.inf)


class TestBuildH0Eps:
    def test_no_subunit_edge_gives_empty_set(self):
        inst = synthetic_instance(3, [(0, 1, Fraction(3, 2)),
                                      (1, 2, Fraction(5, 4))])
        assert build_h0_eps(inst, [0, 1, 2]) == frozenset()

    def test_lightest_incident_selected(self):
        inst = synthetic_instance(3, [(0, 1, Fraction(3, 10)),
                                      (0, 2, Fraction(7, 10))])
        assert build_h0_eps(inst, [0]) == frozenset({(0, 1)})

    def test_weight_bound(self):
        for seed in range(10):
            g = rand_connected_graph(seed, 14, 18)
            bb = build_backbone(g, [0, 4, 8, 12], Beta("relative", HALF.eps))
            inst = scaled_universe(bb)
            h0 = build_h0_eps(inst, bb.s_prime)
            total = sum(inst.g_s.weight_of(u, v) for u, v in h0)
            assert total <= len(bb.s_prime)
            vertices = {x for e in h0 for x in e}
            assert len(vertices) <= 2 * len(bb.s_prime)


class TestBuildH0Budget:
    def test_greedy_prefix(self):
        inst = synthetic_instance(4, [(0, 1, Fraction(2, 10)),
                                      (0, 2, Fraction(2, 10)),
                                      (0, 3, Fraction(2, 10))])
        got = build_h0_budget(inst, [0], Fraction(1, 2))
        assert got == frozenset({(0, 1), (0, 2)})  # third would reach 0.6

    @pytest.mark.parametrize("budget", [0, Fraction(-1, 2)])
    def test_nonpositive_budget_refused(self, budget):
        inst = synthetic_instance(4, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
        with pytest.raises(ValueError, match="budget must be positive"):
            build_h0_budget(inst, [0], budget)

    def test_large_budget_takes_everything(self):
        inst = synthetic_instance(4, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
        got = build_h0_budget(inst, [0], 100)
        assert got == frozenset({(0, 1), (0, 2), (0, 3)})

    def test_sqrt_d_neighbor_count(self):
        # Recount: when the lightest skipped incident edge weighs <= sqrt(d),
        # at least floor(sqrt(d)) incident edges were accepted.
        for seed in range(10):
            g = rand_connected_graph(seed + 40, 16, 24)
            terms = [0, 5, 10, 15]
            bb = build_backbone(g, terms, Beta("relative", HALF.eps))
            inst = scaled_universe(bb)
            d = neighborhood_budget(inst)
            h0 = build_h0_budget(inst, terms, d)
            sqrt_d = math.sqrt(float(d))
            for u in terms:
                inc = sorted((w, nbr) for nbr, w in inst.g_s.adjacency[u])
                running, accepted = 0, []
                breaking = None
                for w, nbr in inc:
                    if running + w > d:
                        breaking = w
                        break
                    running += w
                    accepted.append(canonical(u, nbr))
                # physical output matches the recount, restricted to g'_s
                surviving = set(inst.g_prime_s.weight_by_pair)
                assert {e for e in accepted if e in surviving} <= h0
                if breaking is not None and float(breaking) <= sqrt_d:
                    assert len(accepted) >= math.floor(sqrt_d)

    def test_uncapped_budget_keeps_h0(self):
        # Capping d at the largest incident weight sum of g_s never
        # changes H0: past the cap every neighbourhood is taken whole.
        capped = 0
        for kind in ("grid", "erdos-renyi"):
            for seed in range(3):
                g, terms, _ = generate(GeneratorSpec(kind, 40, seed=seed))
                bb = build_backbone(g, terms, Beta("relative", 4 + HALF.eps))
                inst = scaled_universe(bb)
                d = neighborhood_budget(inst)
                cap = max(sum((w for _, w in nbrs), 0)
                          for nbrs in inst.g_s.adjacency)
                capped += d > cap
                assert (build_h0_budget(inst, terms, d)
                        == build_h0_budget(inst, terms, min(d, cap)))
        assert capped  # the cap bound on some instance


def assert_host_h0_matches_universe(g, terms):
    """H0 from host adjacency equals H0 from a materialised universe, bit
    for bit, under both one-level conditions and at budgets that stop
    early, at d, and past every heavy edge; so do the scaled incident
    edges and the lightest g'_s weight."""
    eps = Fraction(1, 2) if g.is_exact else 0.5
    for beta in (Beta("relative", eps), Beta("relative", 4 + eps)):
        bb = build_backbone(g, terms, beta)
        lazy, built = scaled_universe(bb), scaled_universe(bb)
        assert (build_h0_eps(lazy, bb.s_prime)
                == reference_h0_eps(built, bb.s_prime))
        d = neighborhood_budget(lazy)
        for budget in (Fraction(1, 2), d, 3 * lazy.v_h):
            assert (build_h0_budget(lazy, terms, budget)
                    == reference_h0_budget(built, terms, budget))
        for v in range(g.n):
            assert (sorted(lazy.incident_units(v))
                    == sorted((w * lazy.unit, nbr) for nbr, w in built.g_s.adjacency[v]))
        assert (repr(lazy.lightest_spliced())
                == repr(min(w for *_, w in built.g_prime_s.edges)))


class TestH0InHostUnits:
    def test_generated_exact_and_binary64(self):
        for kind in ("erdos-renyi", "geometric", "grid"):
            for exact in (True, False):
                for seed in range(3):
                    g, terms, _ = generate(GeneratorSpec(
                        kind, n=40, seed=seed, exact=exact))
                    assert_host_h0_matches_universe(g, terms)

    def test_heavy_edges_dropped(self):
        # (0, 3) scales far above |V_H| and leaves g_s; at a budget past
        # |V_H| it would otherwise enter H0.
        for w in (1000, 1000.0):
            one = type(w)(1)
            g = Graph.from_edges(4, [(0, 1, one), (1, 2, one), (2, 3, one),
                                     (0, 3, w)])
            assert_host_h0_matches_universe(g, [0, 3])
            bb = build_backbone(g, [0, 3], Beta("relative", 4))
            assert (0, 3) not in build_h0_budget(scaled_universe(bb),
                                                 [0, 3], 100)

    def test_underflowed_scaled_tree_edge_stays_whole(self):
        # sigma is about 1e-300, so the 1e-300 tree edge scales to 0.0 in
        # binary64; it counts as one piece and wmax builds and certifies.
        from lightspan.oracle import verify_spanner
        g = Graph.from_edges(4, [(0, 1, 1e300), (1, 2, 1e300), (2, 3, 1e300),
                                 (0, 3, 1e-300)])
        assert_host_h0_matches_universe(g, range(4))
        sp = wmax_spanner(g, range(4), SampleConfig(EpsilonSplit.of(0.5)))
        assert verify_spanner(g, range(4), sp.edges, Beta("wmax", 4.5),
                              certify_tolerance(g)).ok

    def test_exact_budget_and_splice_boundaries(self):
        # H = 0-1-2 weighs 2 over |V_H| = 3, so sigma = 3/2 and the tree
        # edge (0, 1) scales to exactly one unit: it survives the splice.
        # At 0, (0, 3) scales to 1/2 and (0, 1) brings the running sum to
        # exactly the non-integer budget 3/2, so both are taken.
        g = Graph.from_edges(4, [(0, 1, Fraction(2, 3)), (1, 2, Fraction(4, 3)),
                                 (0, 3, Fraction(1, 3)), (0, 2, Fraction(8, 3))])
        bb = build_backbone(g, [0, 2], Beta("relative", 4 + HALF.eps))
        assert bb.h.edges == {(0, 1), (1, 2)}
        lazy = scaled_universe(bb)
        assert lazy.sigma == Fraction(3, 2)
        built = scaled_universe(bb)
        d = Fraction(3, 2)
        h0 = build_h0_budget(lazy, [0, 2], d)
        assert h0 == reference_h0_budget(built, [0, 2], d) == {(0, 1), (0, 3)}
        assert build_h0_budget(lazy, [0, 2], d - Fraction(1, 10**9)) == {(0, 3)}
        assert_host_h0_matches_universe(g, [0, 2])

    @settings(max_examples=60, deadline=None)
    @given(tie_heavy())
    def test_tie_heavy(self, case):
        # Binary64 products of different weights can tie here.
        assert_host_h0_matches_universe(*case)


STAGES = ("g_s", "heavy_removed", "h_s", "subdivision_of", "h_prime",
          "provenance", "g_prime_s")


class TestScaledUniverseOnRead:
    def test_untraced_builds_materialise_no_universe(self, monkeypatch):
        built = count_calls(monkeypatch, "_mk_graph", transform)
        g, terms, _ = generate(GeneratorSpec("erdos-renyi", n=30, seed=2,
                                             exact=False))
        builds = [b for b, *_ in report_builds(monkeypatch)] + [
            lambda: wmax_spanner(g, terms, SampleConfig(EpsilonSplit.of(0.5))),
            lambda: solve_multilevel(small_levels_instance())]
        for build in builds:
            build()
        assert built == []

    def test_first_read_builds_every_stage_once(self, monkeypatch):
        # g_s, h_s, h_prime and g_prime_s are the four graphs; a second
        # read of every stage returns the same objects and builds none.
        g = rand_connected_graph(12, 16, 20)
        bb = build_backbone(g, [0, 5, 10, 15], Beta("relative", HALF.eps))
        built = count_calls(monkeypatch, "_mk_graph", transform)
        inst = scaled_universe(bb)
        assert inst.sigma == Fraction(len(bb.h.vertices)) / bb.h.weight
        assert inst.v_h == len(bb.h.vertices) and built == []
        assert inst.g_prime_s.n > g.n and len(built) == 4
        first = [getattr(inst, stage) for stage in STAGES]
        assert all(getattr(inst, stage) is stage_value
                   for stage, stage_value in zip(STAGES, first))
        assert len(built) == 4
        with pytest.raises(AttributeError):
            inst.no_such_stage


class TestGreedyComplete:
    def test_satisfied_initial_adds_nothing(self):
        g = rand_connected_graph(3, 10, 12)
        bb = build_backbone(g, [0, 4, 9], Beta("relative", HALF.eps))
        all_edges = [canonical(u, v) for u, v, _ in g.edges]
        state = greedy_complete(g, all_edges, [0, 4, 9], Beta("relative", 0))
        assert state.added == frozenset()
        assert state.insertions == 0

    def test_unit_k4_star_forces_every_edge(self):
        g = unit_clique(4)
        bb = build_backbone(g, range(4), Beta("relative", HALF.eps))
        inst = scaled_universe(bb)
        initial = build_h0_eps(inst, bb.s_prime) | bb.h.edges
        state = greedy_complete(g, initial, range(4), Beta("relative", HALF.eps))
        assert len(state.edges) == 6  # all of K4

    def test_policy_decides_what_is_inserted(self):
        # A policy that inserts nothing is asked once about every pair
        # the initial subgraph violates, and the subgraph never grows.
        from lightspan.graph import build_path_table
        g = rand_connected_graph(17, 16, 22)
        terms = [0, 5, 10, 15]
        bb = build_backbone(g, terms, Beta("relative", HALF.eps))
        inst = scaled_universe(bb)
        initial = build_h0_eps(inst, bb.s_prime) | bb.h.edges
        asked = []

        def nothing(pair, path, current):
            asked.append(pair)
            return []

        state = greedy_complete(g, initial, terms, Beta("relative", 0),
                                policy=nothing)
        assert state.edges == initial and state.added == frozenset()
        table = build_path_table(g, terms)
        violated = {(u, v) for u, v in table.pair_keys()
                    if subgraph_dist(g, initial, u, v) > table.dist(u, v)}
        assert violated and sorted(asked) == sorted(violated)
        assert state.insertions == len(asked)

    def test_generator_policy_sees_each_yielded_edge_inserted(self):
        # The loop inserts each edge as it is yielded, so a generator
        # policy reads it in the subgraph when it resumes, and its code
        # after the last yield sees every yielded edge inserted.
        g = rand_connected_graph(17, 16, 22)
        terms = [0, 5, 10, 15]
        bb = build_backbone(g, terms, Beta("relative", HALF.eps))
        inst = scaled_universe(bb)
        initial = build_h0_eps(inst, bb.s_prime) | bb.h.edges
        resumed, finished = [], []

        def one_at_a_time(pair, path, current):
            missing = [e for e in path.edge_pairs() if e not in current]
            for e in missing:
                yield e
                resumed.append(e in current)
            finished.append(all(e in current for e in missing))

        state = greedy_complete(g, initial, terms, Beta("relative", 0),
                                policy=one_at_a_time)
        assert state.insertions == len(finished) > 0
        assert all(finished) and all(resumed)
        assert len(resumed) == len(state.added)

    def test_final_state_satisfies_all_pairs_independent_check(self):
        for seed in range(8):
            g = rand_connected_graph(seed + 60, 20, 30)
            terms = [1, 5, 9, 13, 17]
            bb = build_backbone(g, terms, Beta("relative", HALF.eps))
            inst = scaled_universe(bb)
            initial = build_h0_eps(inst, bb.s_prime) | bb.h.edges
            table = bb.path_table

            def slack(pair):
                return HALF.eps * table.w(*pair)

            state = greedy_complete(g, initial, terms,
                                    Beta("relative", HALF.eps))
            assert initial <= state.edges
            from lightspan.graph import build_path_table
            g_table = build_path_table(g, terms)
            for i, u in enumerate(terms):
                for v in terms[i + 1:]:
                    d = subgraph_dist(g, state.edges, u, v)
                    assert d <= g_table.dist(u, v) + slack(canonical(u, v))


def greedy_instances(kind):
    """(graph, terminals, split) triples of one kind: exact, binary64 with
    weights k/10, and unit-weight grids (many ties)."""
    out = []
    for seed in range(3):
        if kind == "exact":
            g = rand_connected_graph(seed + 700, 18, 26)
            out.append((g, [0, 3, 7, 11, 14, 17], HALF))
        elif kind == "tenths":
            g = tenths_graph(seed + 700, 18, 26)
            out.append((g, [0, 3, 7, 11, 14, 17], EpsilonSplit.of(0.5)))
        else:
            g, terms, _ = generate(GeneratorSpec(
                "grid", n=36, seed=seed, weight_range=(1, 1),
                terminal_fraction=0.2, exact=True))
            out.append((g, sorted(terms), HALF))
    return out


class TestGreedyAgainstReference:
    @pytest.mark.parametrize("kind", ["exact", "tenths", "unit-grid"])
    def test_builders_match_from_scratch_loop(self, kind, monkeypatch):
        # Every greedy_complete call of the one-level builders (default
        # policy) and of wmax_spanner (prefix/suffix policy, plus the
        # sample's eps spanner) returns what a loop that searches from
        # scratch for every pair returns, given the same arguments.
        calls = []
        real = additive.greedy_complete

        def spy(*args, **kwargs):
            state = real(*args, **kwargs)
            calls.append((args, kwargs, state))
            return state

        monkeypatch.setattr(additive, "greedy_complete", spy)
        monkeypatch.setattr(sampled, "greedy_complete", spy)
        for g, terms, split in greedy_instances(kind):
            eps_spanner(g, terms, split)
            four_eps_spanner(g, terms, split)
            wmax_spanner(g, terms, SampleConfig(split, seed=1, ell=0.5))
        policies = set()
        for args, kwargs, state in calls:
            g, initial, terminals, beta, *_ = args
            policy = kwargs.get("policy", additive._insert_path)
            policies.add(policy.__name__)
            edges, added, insertions = greedy_reference(
                g, initial, terminals, beta, policy)
            assert state == GreedyState(edges, added, insertions)
        assert policies == {"_insert_path", "prefix_suffix_policy"}
        assert sum(state.insertions for *_, state in calls) > 0

    def test_at_most_one_search_per_source(self, monkeypatch):
        searched = record_seeded_searches(monkeypatch)
        total = 0
        for g, terms, _ in greedy_instances("unit-grid"):
            bb = build_backbone(g, terms, Beta("relative", HALF.eps))
            inst = scaled_universe(bb)
            initial = build_h0_eps(inst, bb.s_prime) | bb.h.edges
            searched.clear()
            state = greedy_complete(g, initial, terms, Beta("relative", 0))
            total += state.insertions
            assert len(searched) <= len(terms) - 1
            assert len(searched) == len(set(searched))
        assert total > 0


class TestOneLiveSubgraph:
    """A build seeds one live distance list per source terminal, in its
    greedy; certification and the wmax repair pass read those lists."""

    def test_eps_build_seeds_at_most_one_list_per_source(self, monkeypatch):
        searched = record_seeded_searches(monkeypatch)
        for kind in ("exact", "tenths", "unit-grid"):
            for g, terms, split in greedy_instances(kind):
                searched.clear()
                sp = eps_spanner(g, terms, split)
                assert sp.pair_report
                assert len(searched) <= len(terms) - 1

    def test_wmax_repair_and_certification_seed_nothing(self, monkeypatch):
        searched = record_seeded_searches(monkeypatch)
        marks = {}
        real_greedy, real_one_level = sampled.greedy_complete, sampled._one_level

        def greedy(*args, **kwargs):
            state = real_greedy(*args, **kwargs)
            marks["greedy"] = len(searched)
            return state

        def one_level(*args, **kwargs):
            before = len(searched)
            sp = real_one_level(*args, **kwargs)
            marks["sample"] += len(searched) - before
            return sp

        monkeypatch.setattr(sampled, "greedy_complete", greedy)
        monkeypatch.setattr(sampled, "_one_level", one_level)
        grid = generate(GeneratorSpec("grid", n=100, seed=5, weight_range=(1, 1),
                                      terminal_fraction=0.25))
        checked = repaired = 0
        for g, terms, _ in greedy_instances("unit-grid") + [grid]:
            for ell, no_sample in itertools.product((None, 0.5), (False, True)):
                searched.clear()
                marks.update(greedy=None, sample=0)
                with monkeypatch.context() as mp:
                    if no_sample:  # the routes stay open: repairs fire
                        mp.setattr(sampled, "_sample_vertices",
                                   lambda bb, size, seed: [])
                    sp = wmax_spanner(g, terms,
                                      SampleConfig(HALF, seed=1, ell=ell))
                if sp.meta["fallback"]:
                    continue
                checked += 1
                repaired += len(sp.meta["repaired"])
                assert marks["greedy"] <= len(terms) - 1
                assert len(searched) == marks["greedy"] + marks["sample"]
        assert checked and repaired


def count_calls(monkeypatch, name, *modules):
    """Replace the function `name` on each module with a wrapper that
    logs one entry per call; returns the log."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def small_levels_instance():
    """An exact 3-level instance small enough for exact lightness."""
    g, _, levels = generate(GeneratorSpec("erdos-renyi", n=20, seed=5,
                                          levels_k=3, exact=True))
    return MultiLevelInstance(g, levels, max(levels.values()),
                              Beta("relative", HALF.eps))


def report_builds(monkeypatch):
    """(spanner build, its graph, terminals, condition) for exact and
    binary64 one-level builds, a wmax build with repairs and a wmax
    fallback build."""
    wmax = Beta("wmax", 4 + HALF.eps)

    def repaired_wmax():
        with monkeypatch.context() as mp:  # the routes stay open
            mp.setattr(sampled, "_sample_vertices", lambda bb, size, seed: [])
            return wmax_spanner(grid, grid_terms,
                                SampleConfig(HALF, seed=1, ell=0.5))

    g, terms, _ = generate(GeneratorSpec("erdos-renyi", n=24, seed=3,
                                         terminal_fraction=0.25, exact=True))
    gf = tenths_graph(701, 18, 26)
    tf = [0, 3, 7, 11, 14, 17]
    grid, grid_terms, _ = generate(GeneratorSpec(
        "grid", n=100, seed=5, weight_range=(1, 1), terminal_fraction=0.25))
    dense = rand_connected_graph(51, 18, 26)
    return [
        (lambda: eps_spanner(g, terms, HALF), g, terms,
         Beta("relative", HALF.eps)),
        (lambda: four_eps_spanner(g, terms, HALF), g, terms,
         Beta("relative", 4 + HALF.eps)),
        (lambda: eps_spanner(gf, tf, EpsilonSplit.of(0.5)), gf, tf,
         Beta("relative", 0.5)),
        (repaired_wmax, grid, grid_terms, wmax),
        (lambda: wmax_spanner(dense, range(18),
                              SampleConfig(HALF, c=0.01, seed=2)),
         dense, list(range(18)), wmax),
    ]


class TestLightnessAndReportOnDemand:
    """Builds compute only what their caller reads: oracle and sample
    spanner builds no lightness, and no build a pair report before it is
    read.  The public builders compute their lightness inside the call."""

    def test_multilevel_solves_compute_no_lightness(self, monkeypatch):
        inst = small_levels_instance()
        light = count_calls(monkeypatch, "subset_lightness", additive, oracle)
        dw = count_calls(monkeypatch, "exact_steiner", steiner, oracle)
        solve_multilevel(inst, p=math.e, seed=3)
        four_approx_baseline(inst)
        assert light == [] and dw == []
        # The same terminals through a public builder run both, so the
        # counters see what the solves skipped.
        eps_spanner(inst.g, inst.terminal_set(1), HALF)
        assert light == ["subset_lightness"] and dw == ["exact_steiner"]

    def test_public_builders_compute_lightness_inside_the_call(
            self, monkeypatch):
        g, terms, _ = generate(GeneratorSpec("erdos-renyi", n=24, seed=3,
                                             terminal_fraction=0.25,
                                             exact=True))
        dense = rand_connected_graph(51, 18, 26)
        builds = [
            lambda: eps_spanner(g, terms, HALF),
            lambda: four_eps_spanner(g, terms, HALF),
            lambda: wmax_spanner(g, terms, SampleConfig(HALF, seed=4)),
            lambda: wmax_spanner(dense, range(18),
                                 SampleConfig(HALF, c=0.01, seed=2)),
        ]
        light = count_calls(monkeypatch, "subset_lightness", additive, oracle)
        for build in builds:
            light.clear()
            sp = build()
            assert len(light) == 1  # before any attribute is read
            assert sp.subset_lightness is not None
            assert sp.meta["lightness_mode"] in ("exact", "approx")
            assert len(light) == 1

    def test_pair_report_is_built_on_first_read(self, monkeypatch):
        real = additive.PairCheck
        made = count_calls(monkeypatch, "PairCheck", additive)
        repaired = fallback = 0
        for build, g, terms, beta in report_builds(monkeypatch):
            sp = build()
            repaired += len(sp.meta.get("repaired", ()))
            fallback += bool(sp.meta.get("fallback"))
            assert made == []
            table = build_path_table(g, terms)
            expected = {}
            for u, v in table.pair_keys():
                w = table.w(u, v)
                expected[(u, v)] = real(table.dist(u, v),
                                        subgraph_dist(g, sp.edges, u, v),
                                        w, beta.slack(w, g.w_max))
            report = sp.pair_report
            assert list(report) == sorted(expected)
            assert report == expected
            assert len(made) == len(expected)
            assert sp.pair_report is report  # built once
            made.clear()
        assert repaired and fallback


def slack_builds(split):
    """(spanner build, its graph, terminals, condition) for every builder
    on exact graphs, under split's eps: the +eps spanner (also on a
    four-vertex graph with thirds), the +(4+eps) spanner, and a wmax
    build with and one without its fallback."""
    thirds = Graph.from_edges(4, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(2, 3)),
                                  (2, 3, Fraction(1, 2)), (0, 3, Fraction(5, 2))])
    g = rand_connected_graph(702, 18, 26)
    terms = [0, 3, 7, 11, 14, 17]
    grid, grid_terms, _ = generate(GeneratorSpec(
        "grid", n=100, seed=5, weight_range=(1, 1), terminal_fraction=0.25))
    dense = rand_connected_graph(51, 18, 26)
    rel, wmax = Beta("relative", split.eps), Beta("wmax", 4 + split.eps)
    return [
        (lambda: eps_spanner(thirds, [0, 2, 3], split), thirds, [0, 2, 3], rel),
        (lambda: eps_spanner(g, terms, split), g, terms, rel),
        (lambda: four_eps_spanner(g, terms, split), g, terms,
         Beta("relative", 4 + split.eps)),
        (lambda: wmax_spanner(grid, grid_terms,
                              SampleConfig(split, seed=1, ell=0.5)),
         grid, grid_terms, wmax),
        (lambda: wmax_spanner(dense, range(18),
                              SampleConfig(split, c=0.01, seed=2)),
         dense, list(range(18)), wmax),
    ]


class TestReportSlack:
    @pytest.mark.parametrize("eps", [0.3, Fraction(3, 10)])
    def test_report_slack_is_the_checked_slack(self, eps):
        # A binary64 eps on an exact graph is checked as the Fraction it
        # holds; the report gives that slack, not a rounded product.
        fallbacks = set()
        for build, g, terms, beta in slack_builds(EpsilonSplit.of(eps)):
            sp = build()
            fallbacks.add(sp.meta.get("fallback"))
            allowed = PairBounds(build_path_table(g, terms), beta).allowed
            assert list(sp.pair_report) == list(allowed)
            for p, chk in sp.pair_report.items():
                assert chk.d_g + chk.slack == allowed[p]
                assert type(chk.d_g + chk.slack) is type(allowed[p])
        assert fallbacks == {None, False, True}


class TestOneConditionPerBuild:
    """A build constructs a PairBounds for its backbone's scan and one
    for its greedy; certification, the wmax repair pass and the pair
    report read the greedy's.  Only the wmax fallback, whose greedy
    checked the relative condition, builds the wmax one afterwards."""

    def test_no_bounds_built_after_the_last_greedy(self, monkeypatch):
        events = []
        real_init, real_greedy = PairBounds.__init__, additive.greedy_complete

        def init(self, *args):
            events.append("bounds")
            real_init(self, *args)

        def greedy(*args, **kwargs):
            state = real_greedy(*args, **kwargs)
            events.append("greedy")
            return state

        monkeypatch.setattr(PairBounds, "__init__", init)
        monkeypatch.setattr(additive, "greedy_complete", greedy)
        monkeypatch.setattr(sampled, "greedy_complete", greedy)

        def after_last_greedy(build):
            events.clear()
            sp = build()
            if not isinstance(sp, frozenset):
                assert sp.pair_report
            return events[len(events) - events[::-1].index("greedy"):], sp

        g, terms, _ = generate(GeneratorSpec("erdos-renyi", n=24, seed=3,
                                             terminal_fraction=0.25, exact=True))
        oracle_build = additive.one_level_oracle(Beta("relative", HALF.eps))
        for build in (lambda: eps_spanner(g, terms, HALF),
                      lambda: four_eps_spanner(g, terms, HALF),
                      lambda: oracle_build(g, frozenset(terms))):
            assert after_last_greedy(build)[0] == []
            assert events == ["bounds", "bounds", "greedy"]
        grid, grid_terms, _ = generate(GeneratorSpec(
            "grid", n=100, seed=5, weight_range=(1, 1), terminal_fraction=0.25))
        for ell in (0.5, None):
            late, sp = after_last_greedy(
                lambda: wmax_spanner(grid, grid_terms,
                                     SampleConfig(HALF, seed=1, ell=ell)))
            assert not sp.meta["fallback"] and sp.meta["sample_size"] >= 2
            assert late == []
        late, sp = after_last_greedy(
            lambda: wmax_spanner(rand_connected_graph(51, 18, 26), range(18),
                                 SampleConfig(HALF, c=0.01, seed=2)))
        assert sp.meta["fallback"] and late == ["bounds"]


class TestEpsSpanner:
    def test_unit_tree_spanner_is_exactly_the_backbone(self):
        g = rand_tree(5, 12, unit=True)
        terms = [0, 4, 8, 11]
        sp = eps_spanner(g, terms, HALF)
        bb = build_backbone(g, terms, Beta("relative", HALF.eps))
        assert sp.edges == bb.h.edges
        assert sp.meta["insertions"] == 0
        assert sp.subset_lightness <= 2

    def test_general_tree_contains_backbone_no_insertions(self):
        for seed in range(6):
            g = rand_tree(seed + 30, 14)
            terms = [0, 6, 13]
            sp = eps_spanner(g, terms, HALF)
            bb = build_backbone(g, terms, Beta("relative", HALF.eps))
            assert bb.h.edges <= sp.edges
            assert sp.meta["insertions"] == 0
            assert sp.subset_lightness <= 2

    def test_unit_clique_takes_all_edges(self):
        for n in (5, 7, 9):
            g = unit_clique(n)
            sp = eps_spanner(g, range(n), HALF)
            assert len(sp.edges) == n * (n - 1) // 2
            assert sp.subset_lightness == Fraction(n, 2)

    def test_pair_report_certifies(self):
        g = rand_connected_graph(77, 30, 40)
        terms = [2, 7, 12, 17, 22, 27]
        sp = eps_spanner(g, terms, HALF)
        for (u, v), chk in sp.pair_report.items():
            assert chk.d_h <= chk.d_g + chk.slack
            assert chk.slack == HALF.eps * chk.w

    def test_deterministic(self):
        g = rand_connected_graph(80, 24, 30)
        terms = [0, 6, 12, 18]
        a = eps_spanner(g, terms, HALF)
        b = eps_spanner(g, terms, HALF)
        assert a.edges == b.edges and a.weight == b.weight
        assert a.pair_report == b.pair_report


class TestFourEpsSpanner:
    def test_budget_formula_exact(self):
        # |V_H| = 8, |S| = 8 -> d = 8^(2/3+2/3) / ... = 4 exactly
        g = unit_clique(8)
        bb = build_backbone(g, range(8), Beta("relative", 4 + HALF.eps))
        inst = scaled_universe(bb)
        assert inst.v_h == 8
        assert neighborhood_budget(inst) == 4

    def test_path_tree_spanner_is_backbone(self):
        g = Graph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        sp = four_eps_spanner(g, [0, 3], HALF)
        bb = build_backbone(g, [0, 3], Beta("relative", 4 + HALF.eps))
        assert sp.edges == bb.h.edges

    def test_certified_on_random_instances(self):
        for seed in range(8):
            g = rand_connected_graph(seed + 90, 26, 36)
            terms = [1, 7, 13, 19, 25]
            sp = four_eps_spanner(g, terms, HALF)
            for (u, v), chk in sp.pair_report.items():
                assert chk.d_h <= chk.d_g + chk.slack
                assert chk.slack == (4 + HALF.eps) * chk.w

    def test_weight_comparison_reported_not_asserted(self, capsys):
        # The looser condition usually, but not provably, yields a spanner
        # no heavier than the +eps one; differences are findings, not bugs.
        findings = []
        for seed in range(6):
            g = rand_connected_graph(seed + 120, 18, 24)
            terms = [0, 5, 10, 15]
            w_eps = eps_spanner(g, terms, HALF).weight
            w_four = four_eps_spanner(g, terms, HALF).weight
            if w_four > w_eps:
                findings.append((seed, float(w_eps), float(w_four)))
        print(f"four-eps heavier than eps on {len(findings)}/6 instances: "
              f"{findings}")


class TestInstrumentation:
    def test_setoff_improvement_events_hold_in_rational_mode(self):
        failures = []
        budgets = []
        for seed in range(6):
            g = rand_connected_graph(seed + 150, 14, 20)
            terms = [0, 4, 8, 12]
            sp = eps_spanner(g, terms, HALF, instrument=True)
            rep = sp.meta.get("instrumentation")
            if rep is None:
                continue
            failures.extend(rep.event_failures)
            budgets.append((rep.max_events_per_pair(),
                            1 + rep.improvement_budget()))
        assert failures == []
        # Improvement budget is an empirical report, not an assertion.
        print("observed (events, 1+budget) per run:", budgets)

    @pytest.mark.parametrize("kind, setoffs, digest", [
        ("rand", 12, "b85b93ec7deb4347"),
        ("erdos-renyi", 57, "99be18ee077b7b42"),
        ("geometric", 47, "877859014d583a68"),
        ("grid", 19, "a08f8f5e46d9daf5"),
    ])
    def test_events_pinned(self, kind, setoffs, digest):
        # The events of fixed instances: the accounting reads the
        # distances after the insertion, so moving it before the policy's
        # edges go in changes the set-offs.
        if kind == "rand":
            g, terms = rand_connected_graph(152, 14, 20), [0, 4, 8, 12]
        else:
            g, terms, _ = generate(GeneratorSpec(kind, n=40, seed=1))
        rep = eps_spanner(g, terms, HALF, instrument=True).meta["instrumentation"]
        assert rep.split == HALF
        assert len(rep.setoffs) == setoffs
        assert set(rep.setoffs.values()) == {1}
        assert rep.improvements == {} and rep.event_failures == ()
        keys = repr(sorted(rep.setoffs)).encode()
        assert hashlib.sha256(keys).hexdigest()[:16] == digest

    def test_instrumentation_counts_are_nonnegative_ints(self):
        g = rand_connected_graph(160, 12, 18)
        sp = eps_spanner(g, [0, 5, 11], HALF, instrument=True)
        rep = sp.meta.get("instrumentation")
        if rep is not None:
            assert all(v == 1 for v in rep.setoffs.values())
            assert all(v >= 1 for v in rep.improvements.values())


class TestBinary64Mode:
    def test_builders_certify_within_relative_tolerance(self):
        from lightspan.oracle import verify_spanner
        split = EpsilonSplit.of(0.5)
        for seed in range(6):
            g = rand_connected_graph(seed + 500, 24, 34, exact=False)
            terms = [0, 6, 12, 18, 23]
            sp = eps_spanner(g, terms, split)
            assert verify_spanner(g, terms, sp.edges,
                                  Beta("relative", 0.5), 1e-9).ok
            sp4 = four_eps_spanner(g, terms, split)
            assert verify_spanner(g, terms, sp4.edges,
                                  Beta("relative", 4.5), 1e-9).ok


class TestCertifyReportsTheFirstViolation:
    def test_exact_and_binary64(self):
        # The empty subgraph breaks every pair; the message names the
        # first in pair order, with its d_H and allowance.
        for g in (rand_connected_graph(8, 10, 12), tenths_graph(8, 10, 12)):
            beta = Beta("relative", HALF.eps if g.is_exact else 0.5)
            bb = build_backbone(g, [2, 5, 9], beta)
            with pytest.raises(additive.SpannerConstructionError,
                               match=r"pair \(2,5\): d_H=inf exceeds "):
                additive._certify(PairBounds(bb.path_table, beta),
                                  SubgraphAdjacency(g), {})


class TestDegenerate:
    def test_single_terminal(self):
        g = rand_connected_graph(1, 8, 10)
        sp = eps_spanner(g, [3], HALF)
        assert sp.edges == frozenset() and sp.weight == 0
        assert sp.subset_lightness is None
        assert sp.pair_report == {}
