import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lightspan
from helpers import (
    cycle_graph,
    grid_graph,
    perfbench_run,
    rand_connected_graph,
    rand_tree,
    reference_report,
    report_fields,
    subgraph_dist,
    tie_heavy,
)
from lightspan import graph as graph_mod, oracle, steiner
from lightspan.additive import EpsilonSplit, eps_spanner, four_eps_spanner
from lightspan.generators import generate
from lightspan.graph import (
    Beta,
    Graph,
    NonExactArithmeticError,
    build_path_table,
    canonical,
    certify_tolerance,
    shortest_paths,
)
from lightspan.multilevel import MultiLevelInstance
from lightspan.oracle import (
    InstanceTooLargeError,
    exact_multilevel,
    exact_one_level,
    subset_lightness,
    verify_spanner,
)
from lightspan.steiner import build_backbone, exact_steiner

HALF = Beta("relative", Fraction(1, 2))


def unit_clique(n):
    return Graph.from_edges(
        n, [(u, v, 1) for u, v in itertools.combinations(range(n), 2)])


class TestVerifySpanner:
    def test_full_graph_always_ok(self):
        for seed in range(6):
            g = rand_connected_graph(seed, 12, 16)
            edges = [canonical(u, v) for u, v, _ in g.edges]
            rep = verify_spanner(g, range(g.n), edges, HALF)
            assert rep.ok and rep.max_excess == 0

    def test_empty_edges_violate_with_infinite_distance(self):
        g = rand_connected_graph(1, 8, 8)
        rep = verify_spanner(g, [0, 3, 6], [], HALF)
        assert not rep.ok
        assert len(rep.violations) == 3
        assert all(v.d_h == math.inf for v in rep.violations)
        assert rep.max_excess == math.inf

    def test_k4_star_has_three_half_violations(self):
        g = unit_clique(4)
        star = [(0, 1), (0, 2), (0, 3)]
        rep = verify_spanner(g, range(4), star, HALF)
        assert not rep.ok
        assert len(rep.violations) == 3
        # d_H = 2 through the hub, allowed 1.5
        assert all(v.d_h == 2 and v.allowed == Fraction(3, 2)
                   and v.excess == Fraction(1, 2) for v in rep.violations)

    def test_monotone_in_edges(self):
        import random
        for seed in range(8):
            g = rand_connected_graph(seed + 20, 10, 14)
            rng = random.Random(seed)
            pairs = [canonical(u, v) for u, v, _ in g.edges]
            sub = [e for e in pairs if rng.random() < 0.6]
            terms = [0, 4, 9]
            rep_small = verify_spanner(g, terms, sub, HALF)
            rep_full = verify_spanner(g, terms, pairs, HALF)
            if rep_small.ok:
                assert rep_full.ok

    def test_report_serializes(self):
        g = unit_clique(4)
        rep = verify_spanner(g, range(4), [(0, 1), (0, 2), (0, 3)], HALF)
        doc = rep.to_json()
        assert doc["ok"] is False and len(doc["violations"]) == 3


def wmax_beta(value, exact):
    return Beta("wmax", value if exact else float(value))


def record_relax(monkeypatch) -> list:
    """Patch `_relax` where `graph` and `oracle` call it to record, per
    call, (adjacency, seed vertices, returned labels)."""
    calls = []
    real = graph_mod._relax

    def recording(adj, dist, seeds, *stop):
        xs = [x for _, x in seeds]
        out = real(adj, dist, seeds, *stop)
        calls.append((adj, xs, list(out)))
        return out

    monkeypatch.setattr(graph_mod, "_relax", recording)
    monkeypatch.setattr(oracle, "_relax", recording)
    return calls


class TestSlackFirstWmax:
    """In wmax mode verify_spanner searches G only from sources with an
    open pair (d_H unreached or above the slack F) and stops each search
    at the slack bound; its reports equal the full-table reference."""

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy(), st.sampled_from([0, Fraction(1, 2), Fraction(9, 2)]),
           st.randoms(use_true_random=False))
    def test_report_equals_the_reference(self, case, value, rnd):
        g, ts = case
        beta = wmax_beta(value, g.is_exact)
        pairs = [canonical(u, v) for u, v, _ in g.edges]
        keep = rnd.random()
        for edges in (pairs, [e for e in pairs if rnd.random() < keep], []):
            for rel_tol in ((0.0,) if g.is_exact else (0.0, 1e-9)):
                assert (report_fields(verify_spanner(g, ts, edges, beta, rel_tol))
                        == reference_report(g, ts, edges, beta, rel_tol)), rel_tol

    @pytest.mark.parametrize("exact", [True, False])
    def test_no_host_search_when_every_pair_is_within_the_slack(self, monkeypatch, exact):
        g = rand_connected_graph(4, 12, 16, exact)
        calls = record_relax(monkeypatch)
        pairs = [canonical(u, v) for u, v, _ in g.edges]
        rep = verify_spanner(g, [0, 3, 7, 11], pairs, wmax_beta(g.n, exact))
        assert rep.ok
        assert g._sssp_memo == {}
        assert [xs for _, xs, _ in calls] == [[0]]
        assert all(adj is not g._packed[1] for adj, _, _ in calls)

    @pytest.mark.parametrize("exact", [True, False])
    def test_only_sources_with_open_pairs_are_searched(self, monkeypatch, exact):
        # A unit path 0-1-...-5 with F = 1: from 0 the targets 3 and 4 are
        # open (L = 4), the pair (3, 4) is not.  The search from 0 stops
        # when it pops (3, 3), since 3 + F >= L; vertex 3 is labelled and
        # nothing beyond it.
        g = Graph.from_edges(6, [(i, i + 1, 1 if exact else 1.0) for i in range(5)])
        calls = record_relax(monkeypatch)
        rep = verify_spanner(g, [0, 3, 4], [(i, i + 1) for i in range(5)],
                             wmax_beta(1, exact))
        assert rep.ok
        assert g._sssp_memo == {}
        host = [(xs, out) for adj, xs, out in calls if adj is g._packed[1]]
        assert host == [([0], [0, 1, 2, 3, None, None])]

    @pytest.mark.parametrize("exact", [True, False])
    def test_settled_targets_are_flagged_and_unsettled_ones_hold(self, monkeypatch, exact):
        # Unit weights, F = 1.  H lacks the chord (0, 3), so d_H(0, 3) = 3
        # against d_G = 1, and d_H(3, 8) = 8 against d_G = 6: both fail.
        # From 0 the open targets are 3 and 8 (d_H = 5), so the search
        # stops when it pops (4, 7): 8 is never labelled, and holds.
        w = 1 if exact else 1.0
        h = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
        g = Graph.from_edges(9, [(u, v, w) for u, v in h + [(0, 3)]])
        beta = wmax_beta(1, exact)
        calls = record_relax(monkeypatch)
        rep = verify_spanner(g, [0, 3, 8], h, beta)
        assert [v.pair for v in rep.violations] == [(0, 3), (3, 8)]
        assert [(xs, out) for adj, xs, out in calls if adj is g._packed[1]] == [
            ([0], [0, 1, 2, 1, 1, 2, 3, 4, None]),
            ([3], [1, 2, 1, 0, 2, 3, 4, 5, 6])]
        assert report_fields(rep) == reference_report(g, [0, 3, 8], h, beta)


    @pytest.mark.parametrize("exact", [True, False])
    def test_a_later_source_proven_by_marks_runs_no_search(self, monkeypatch, exact):
        # H is the path 1-4-0-2-3 with weights 8, 8, 1, 1; G adds the
        # chord (0, 1) of weight 1.  W_max = 8 and beta 3/10, so F = 2
        # (exact: floor(12/5)) or 2.4: (0, 1), (1, 2) and (1, 3) fail.
        # Source 2's one pair (2, 3) is proven from mark 0: UB = d_H(0, 2)
        # + d_H(0, 3) = 3 and LB = d_G(0, 3) - d_G(0, 2) = 1, so 3 <= 1 + F.
        w = 1 if exact else 1.0
        h = [(0, 2, w), (2, 3, w), (0, 4, 8 * w), (1, 4, 8 * w)]
        g = Graph.from_edges(5, h + [(0, 1, w)])
        h = [(u, v) for u, v, _ in h]
        beta = wmax_beta(Fraction(3, 10), exact)
        calls = record_relax(monkeypatch)
        rep = verify_spanner(g, [0, 1, 2, 3], h, beta)
        assert [v.pair for v in rep.violations] == [(0, 1), (1, 2), (1, 3)]
        assert [xs for adj, xs, _ in calls if adj is not g._packed[1]] == [[0], [1]]
        assert [xs for adj, xs, _ in calls if adj is g._packed[1]] == [[0], [1]]
        assert report_fields(rep) == reference_report(g, [0, 1, 2, 3], h, beta)

    def test_binary64_cancellation_proves_no_failing_pair(self, monkeypatch):
        # Mark 1 lies D = 2**30 from u = 2: its G labels of 2 and 3 are D and
        # D + d rounded to a multiple of ulp(D) = 2**-22, so their difference
        # exceeds d_G(2, 3) = d by 2**-24.  Mark 0 lies 2**-30 from 2, so UB
        # exceeds d_H(2, 3) by about 2**-29, and d_H(2, 3) misses its
        # allowance d + F (F = 2) by a few ulps: without the margin, UB <=
        # LB + F would prove the failing pair (2, 3).
        big, d = 2.0 ** 30, 1 + 3 * 2.0 ** -24
        assert (big + d) - big == d + 2.0 ** -24
        b = 2.0
        for _ in range(4):
            b = math.nextafter(b, math.inf)
        g = Graph.from_edges(5, [(0, 2, 2.0 ** -30), (1, 2, big), (2, 3, d),
                                 (2, 4, d), (3, 4, b)])
        h, ts, beta = [(0, 2), (1, 2), (2, 4), (3, 4)], [0, 1, 2, 3], Beta("wmax", 2.0 ** -29)
        proofs = record_proofs(monkeypatch)
        for rel_tol in (0.0, certify_tolerance(g)):
            rep = verify_spanner(g, ts, h, beta, rel_tol)
            assert report_fields(rep) == reference_report(g, ts, h, beta, rel_tol)
        assert [v.pair for v in verify_spanner(g, ts, h, beta).violations] == [(0, 3), (2, 3)]
        assert [(u, k, out) for u, k, _, out in proofs] == [(1, 1, False), (2, 2, False)] * 3

    def test_binary64_rounding_of_the_upper_bound_proves_nothing(self, monkeypatch):
        # H is the path 1-0-3-2 with weights a = b = 2**-53 and c = 1; G
        # adds the edge (1, 2) of weight 2**-60, and F = 1.  From 1, d_H(1,
        # 2) sums a + b first: 1 + 2**-52, one ulp over its allowance 1.
        # Mark 0's UB = a + (b + c) rounds to 1 = F: without the margin on
        # UB and on F, UB <= F would prove the failing pair.
        a = 2.0 ** -53
        g = Graph.from_edges(4, [(0, 1, a), (0, 3, a), (2, 3, 1.0), (1, 2, 2.0 ** -60)])
        h, ts, beta = [(0, 1), (0, 3), (2, 3)], [0, 1, 2], Beta("wmax", 1.0)
        proofs = record_proofs(monkeypatch)
        rep = verify_spanner(g, ts, h, beta)
        assert [(v.pair, v.d_h, v.allowed) for v in rep.violations] == [((1, 2), 1 + 2 * a, 1.0)]
        assert proofs == [(1, 1, 1, False)]
        for rel_tol in (0.0, certify_tolerance(g)):
            assert (report_fields(verify_spanner(g, ts, h, beta, rel_tol))
                    == reference_report(g, ts, h, beta, rel_tol))

    def test_exact_benchmark_instances_under_wmax_and_thinned_copies(self, monkeypatch):
        # Exact hosts checked under Beta("wmax", 4 + eps): an eps spanner,
        # whose slack eps * W(u, v) is within (4 + eps) * W_max, and copies
        # with 1, 3 and 10 edges removed.  Reports equal the reference, and
        # some source is proven.
        split = EpsilonSplit.of(Fraction(1, 2))
        beta = Beta("wmax", 4 + split.eps)
        proofs = record_proofs(monkeypatch)
        for k, kind in enumerate(["erdos-renyi", "geometric", "grid"]):
            g, ts, _ = generate(lightspan.GeneratorSpec(kind=kind, n=60, seed=k,
                                                        terminal_fraction=0.25))
            assert g.is_exact
            edges, rng = sorted(eps_spanner(g, ts, split).edges), random.Random(k)
            for removed in (0, 1, 3, 10):
                es = edges[:]
                for _ in range(removed):
                    es.pop(rng.randrange(len(es)))
                rep = verify_spanner(Graph(g.n, g.edges), ts, es, beta)
                assert report_fields(rep) == reference_report(g, ts, es, beta), (kind, removed)
        assert any(out for *_, out in proofs)

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("exact", [True, False])
    def test_a_label_past_the_stop_bounds_only(self, monkeypatch, exact, swap):
        # F = 1.  Source 0's limit is d_H(0, 2) - F = 1, so its search pops
        # 0 and 1 and stops at (1, 5): vertex 2 keeps the label 2 of the
        # edge (0, 2), though d_G(0, 2) = 19/16 over 0-1-3-2.  The pair
        # (1, 2) fails (d_H = 17/8 > 17/16 + 1), and only stop - d_G(0, 1)
        # = 7/8 bounds its d_G from below: read as a distance, 2 - 1/8
        # would prove it (17/8 <= 15/8 + 1).  With 1 and 2 swapped the
        # label past the stop is the source's, not the target's.
        w = (lambda x: x) if exact else float
        x = {1: 2, 2: 1} if swap else {}
        h = [(0, 1, w(Fraction(1, 8))), (0, 5, w(1)), (2, 5, w(1))]
        g = Graph.from_edges(6, [(x.get(a, a), x.get(b, b), c) for a, b, c in h + [
            (1, 3, w(1)), (2, 3, w(Fraction(1, 16))), (0, 2, w(2)), (3, 4, w(1))]])
        h = [canonical(x.get(a, a), x.get(b, b)) for a, b, _ in h]
        beta = wmax_beta(Fraction(1, 2), exact)
        proofs = record_proofs(monkeypatch)
        rep = verify_spanner(g, [0, 1, 2], h, beta)
        assert [v.pair for v in rep.violations] == [(1, 2)]
        assert proofs == [(1, 1, 1, False)]
        assert report_fields(rep) == reference_report(g, [0, 1, 2], h, beta)

    @pytest.mark.parametrize("exact", [True, False])
    def test_a_terminal_unreached_in_h_proves_nothing(self, monkeypatch, exact):
        # H's components are {0, 3} and {1, 2} on the unit path 0-1-2-3, so
        # every d_H between them is None.  F = 100 exceeds every finite
        # d_H, yet source 1 (no mark reaches it) and source 2 (mark 1
        # reaches 2 but not 3) are searched; every cross pair fails.
        w = 1 if exact else 1.0
        g = Graph.from_edges(4, [(0, 1, w), (1, 2, w), (2, 3, w), (0, 3, w)])
        h, ts, beta = [(0, 3), (1, 2)], [0, 1, 2, 3], wmax_beta(100, exact)
        proofs = record_proofs(monkeypatch)
        rep = verify_spanner(g, ts, h, beta)
        assert [v.pair for v in rep.violations] == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert all(v.d_h == math.inf for v in rep.violations)
        assert [(u, k, out) for u, k, _, out in proofs] == [(1, 1, False), (2, 2, False)]
        assert report_fields(rep) == reference_report(g, ts, h, beta)

    def test_every_vertex_a_terminal_caps_the_work_per_source(self, monkeypatch):
        # Geometric, n = 160, every vertex a terminal: an attempt reads at
        # most m // t marks, so it makes at most m pair-mark evaluations.
        g, ts, _ = generate(lightspan.GeneratorSpec(kind="geometric", n=160, seed=1,
                                                    terminal_fraction=1.0, exact=False))
        assert len(ts) == g.n
        m = len(g.edges)
        es = [canonical(u, v) for i, (u, v, _) in enumerate(g.edges) if i % 5]
        beta = Beta("wmax", 4.5)
        proofs = record_proofs(monkeypatch)
        rep = verify_spanner(g, ts, es, beta, certify_tolerance(g))
        assert all(k * t <= m for _, k, t, _ in proofs)
        handled = [u for u in sorted(ts)[:-1] if u not in {u for u, *_, out in proofs if out}]
        assert any(k < handled.index(u) for u, k, _, _ in proofs if u in handled)
        assert any(out for *_, out in proofs)
        assert report_fields(rep) == reference_report(g, ts, es, beta, certify_tolerance(g))


def record_proofs(monkeypatch) -> list:
    """Patch `oracle._proven` to record, per attempt, (source, marks read,
    targets, verdict)."""
    calls = []
    real = oracle._proven

    def recording(marks, u, targets, *rest):
        out = real(marks, u, targets, *rest)
        calls.append((u, len(marks), len(targets), out))
        return out

    monkeypatch.setattr(oracle, "_proven", recording)
    return calls


def relative_beta(value, exact):
    return Beta("relative", value if exact else float(value))


def record_kernel(monkeypatch) -> list:
    """Patch `shortest_paths_adj` where `graph` and `oracle` call it to
    record, per call, (source, stop arguments, returned distance labels)."""
    calls = []
    real = graph_mod.shortest_paths_adj

    def recording(adj, source, denom=None, *stop):
        out = real(adj, source, denom, *stop)
        calls.append((source, stop, list(out._dist)))
        return out

    monkeypatch.setattr(graph_mod, "shortest_paths_adj", recording)
    monkeypatch.setattr(oracle, "shortest_paths_adj", recording)
    return calls


def kept_limits(g) -> dict:
    """Source -> limit of each search memoised on g (inf: a full one)."""
    return {u: limit for u, (limit, _) in g._sssp_memo.items()}


class TestSlackFirstRelative:
    """In relative mode each target v of a source u has the slack lower
    bound beta * max(light(u), light(v)), light(x) being G's lightest edge
    at x: verify_spanner searches G only from sources with a target
    whose d_H exceeds it, stops each search at its targets' bound, and
    reports what the full-table reference does."""

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy(), st.sampled_from([0, Fraction(1, 2), Fraction(9, 2)]),
           st.randoms(use_true_random=False))
    def test_report_equals_the_reference(self, case, value, rnd):
        g, ts = case
        beta = relative_beta(value, g.is_exact)
        pairs = [canonical(u, v) for u, v, _ in g.edges]
        keep = rnd.random()
        for edges in (pairs, [e for e in pairs if rnd.random() < keep], []):
            for rel_tol in ((0.0,) if g.is_exact else (0.0, 1e-9)):
                assert (report_fields(verify_spanner(g, ts, edges, beta, rel_tol))
                        == reference_report(g, ts, edges, beta, rel_tol)), rel_tol

    @pytest.mark.parametrize("exact", [True, False])
    def test_unit_path_stops_at_the_targets_bound(self, monkeypatch, exact):
        # A unit path 0-1-...-5 with beta 1: every s_v is 1.  From 0 the
        # targets 3 and 4 need d >= 2 and d >= 3, so the search stops when
        # it pops (3, 3): vertex 3 is labelled and nothing beyond it.  From
        # 3, d_H(3, 4) = 1 <= s_4: no search.
        g = Graph.from_edges(6, [(i, i + 1, 1 if exact else 1.0) for i in range(5)])
        calls = record_kernel(monkeypatch)
        rep = verify_spanner(g, [0, 3, 4], [(i, i + 1) for i in range(5)],
                             relative_beta(1, exact))
        assert rep.ok
        assert kept_limits(g) == {0: 3}
        assert calls == [(0, (3,), [0, 1, 2, 3, None, None])]

    @pytest.mark.parametrize("exact", [True, False])
    def test_no_host_search_when_every_target_is_within_its_bound(
            self, monkeypatch, exact):
        # Weights are k / 8, k = 8..80, so light(x) >= 1 at every x: with
        # beta = 80 n every s_v exceeds the d_H of the full edge set.
        g = rand_connected_graph(4, 12, 16, exact)
        kernel, relax = record_kernel(monkeypatch), record_relax(monkeypatch)
        pairs = [canonical(u, v) for u, v, _ in g.edges]
        rep = verify_spanner(g, [0, 3, 7, 11], pairs, relative_beta(80 * g.n, exact))
        assert rep.ok
        assert g._sssp_memo == {}
        assert kernel == []
        assert [xs for _, xs, _ in relax] == [[0], [3], [7]]
        assert all(adj is not g._packed[1] for adj, _, _ in relax)

    @pytest.mark.parametrize("exact", [True, False])
    def test_settled_targets_are_flagged_and_unsettled_ones_hold(self, monkeypatch, exact):
        # Unit weights, beta 1, so every s_v is 1.  H lacks the chord
        # (0, 3), so d_H(0, 3) = 3 against d_G + 1 = 2, and d_H(3, 8) = 8
        # against 6 + 1: both fail.  From 0 the targets need d >= 2 and
        # d >= 4, so the search stops when it pops (4, 7): 8 is never
        # labelled, and holds.
        w = 1 if exact else 1.0
        h = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
        g = Graph.from_edges(9, [(u, v, w) for u, v in h + [(0, 3)]])
        beta = relative_beta(1, exact)
        calls = record_kernel(monkeypatch)
        rep = verify_spanner(g, [0, 3, 8], h, beta)
        assert [v.pair for v in rep.violations] == [(0, 3), (3, 8)]
        assert calls == [(0, (4,), [0, 1, 2, 1, 1, 2, 3, 4, None]),
                         (3, (7,), [1, 2, 1, 0, 2, 3, 4, 5, 6])]
        assert kept_limits(g) == {0: 4, 3: 7}
        assert report_fields(rep) == reference_report(g, [0, 3, 8], h, beta)

    def test_bound_is_the_max_of_the_lightest_edges(self, monkeypatch):
        # A path 0-1-2-3 with weights 3, 1, 2: the one target 3 of 0 has
        # s = floor(3/2 * max(3, 2)) = 4.  Without (0, 1) in H, d_H = inf,
        # so 0 searches G to the end; the pair (0, 3) fails.  With the
        # whole path, d_H(0, 3) = 6 and the limit is 6 - 4 = 2: the search
        # stops at its first pop at or above 2.
        edges = [(0, 1, 3), (1, 2, 1), (2, 3, 2)]
        beta = Beta("relative", Fraction(3, 2))
        calls = record_kernel(monkeypatch)
        g = Graph.from_edges(4, edges)
        assert verify_spanner(g, [0, 3], [(1, 2), (2, 3)], beta).violations[0].pair == (0, 3)
        assert verify_spanner(Graph.from_edges(4, edges), [0, 3], [(0, 1), (1, 2), (2, 3)],
                              beta).ok
        assert [stop for _, stop, _ in calls] == [(math.inf,), (2,)]
        assert calls[1][2] == [0, 3, None, None]

    @pytest.mark.parametrize("exact", [True, False])
    def test_a_later_check_reuses_a_search_stopped_no_earlier(self, monkeypatch, exact):
        # The unit path of test_unit_path_stops_at_the_targets_bound.  The
        # first check stops the search from 0 at limit 3 and memoises it.
        # A second check on the same graph whose limit for 0 is 2 (target
        # 3 only) reuses it, and so does a wmax check (F = 1, limit 2).  A
        # third, on H without (4, 5), leaves the target 5 unreached: its
        # limit is inf, so 0 searches G to the end, and that search
        # replaces the kept one; `shortest_paths` takes it as full.
        w = 1 if exact else 1.0
        g = Graph.from_edges(6, [(i, i + 1, w) for i in range(5)])
        path = [(i, i + 1) for i in range(5)]
        beta = relative_beta(1, exact)
        calls, relax = record_kernel(monkeypatch), record_relax(monkeypatch)
        assert verify_spanner(g, [0, 3, 4], path, beta).ok
        assert verify_spanner(g, [0, 3], path, beta).ok
        assert verify_spanner(g, [0, 3], path, wmax_beta(1, exact)).ok
        assert [(s, stop) for s, stop, _ in calls] == [(0, (3,))]
        assert [adj for adj, _, _ in relax if adj is g._packed[1]] == []
        assert kept_limits(g) == {0: 3}
        rep = verify_spanner(g, [0, 4, 5], path[:4], beta)
        assert [v.pair for v in rep.violations] == [(0, 5), (4, 5)]
        assert [(s, stop) for s, stop, _ in calls] == [(0, (3,)), (0, (math.inf,)),
                                                       (4, (math.inf,))]
        assert kept_limits(g) == {0: math.inf, 4: math.inf}
        assert report_fields(rep) == reference_report(g, [0, 4, 5], path[:4], beta)
        assert shortest_paths(g, 0) is g._sssp_memo[0][1]
        assert len(calls) == 3

    @pytest.mark.parametrize("mode", ["wmax", "relative"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_full_searches_serve_checks_and_stopped_ones_serve_no_full_read(
            self, monkeypatch, mode, exact):
        # A full search from 0 memoised by `shortest_paths`, as a build on
        # g leaves it, serves a check whatever its limit: no host search.
        # A search a check stopped and kept is not full: `shortest_paths`
        # runs its own and replaces it.
        w = 1 if exact else 1.0
        g = Graph.from_edges(6, [(i, i + 1, w) for i in range(5)])
        path = [(i, i + 1) for i in range(5)]
        beta = Beta(mode, 1 if exact else 1.0)
        full = shortest_paths(g, 0)
        kernel, relax = record_kernel(monkeypatch), record_relax(monkeypatch)
        assert verify_spanner(g, [0, 3, 4], path, beta).ok
        rep = verify_spanner(g, [0, 5], path[:4], beta)
        assert [v.pair for v in rep.violations] == [(0, 5)]
        assert kernel == []
        assert [adj for adj, _, _ in relax if adj is g._packed[1]] == []
        assert g._sssp_memo == {0: (math.inf, full)}
        h = Graph.from_edges(6, [(i, i + 1, w) for i in range(5)])
        assert verify_spanner(h, [0, 3, 4], path, relative_beta(1, exact)).ok
        assert kept_limits(h) == {0: 3}
        sp = shortest_paths(h, 0)
        assert kept_limits(h) == {0: math.inf}
        assert [s for s, _, _ in kernel] == [0, 0]
        assert [sp.distance(v) for v in range(6)] == [0, 1, 2, 3, 4, 5]

    def test_bound_is_floored_exactly_on_large_weights(self):
        # M = 2**53, beta 7/3: the pair (0, 2) has d_G = M + 1 on 0-1-2, W
        # = M, and s = 7M // 3, which binary64 division would round up by
        # 2.  H's path 0-3-2 is M + s + 2 long: the pair fails by 1 in
        # packed units (1/3 in host units), and the search must pop past M
        # to settle 2.
        m = 2 ** 53
        s = 7 * m // 3
        g = Graph.from_edges(4, [(0, 1, m), (1, 2, 1), (0, 3, m), (2, 3, s + 2)])
        beta = Beta("relative", Fraction(7, 3))
        rep = verify_spanner(g, [0, 2], [(0, 3), (2, 3)], beta)
        assert ([(v.pair, v.d_g, v.excess) for v in rep.violations]
                == [((0, 2), m + 1, Fraction(1, 3))])
        assert report_fields(rep) == reference_report(g, [0, 2], [(0, 3), (2, 3)], beta)

    def test_limit_steps_over_binary64_rounding(self):
        # beta 0.1 and W = light(0) = 3.0, so s = 0.1 * 3.0 and the pair
        # (0, 2) is allowed 3.0 + s = 3.3; H's path 0-3-2 is one ulp
        # longer, so the pair fails.  3.3000000000000003 - s rounds to
        # 3.0, but 3.0 + s < 3.3000000000000003: the least d is one step
        # above 3.0, so the pop (3.0, 1) does not stop the search, and 2,
        # reached over an edge too light to move 3.0, is settled.
        d_h = math.nextafter(3.3, math.inf)
        g = Graph.from_edges(4, [(0, 1, 3.0), (1, 2, 1e-17), (0, 3, 3.0),
                                 (2, 3, d_h - 3.0)])
        beta = Beta("relative", 0.1)
        rep = verify_spanner(g, [0, 2], [(0, 3), (2, 3)], beta)
        assert [(v.pair, v.d_g, v.d_h, v.allowed) for v in rep.violations] == [
            ((0, 2), 3.0, d_h, 3.3)]
        assert report_fields(rep) == reference_report(g, [0, 2], [(0, 3), (2, 3)], beta)


class TestSlackFirstOnBenchmarkCells:
    def test_wmax_sampled_cells_and_their_thinned_copies(self, monkeypatch):
        # Every wmax-sampled cell of the benchmark at seed 3, and copies
        # with 1, 3 and 10 edges removed: verify_spanner's report equals
        # the full-table reference at the benchmark's tolerance and at 0.
        # The benchmark's 24 checks (nothing removed, its tolerance) run at
        # most 240 subgraph and 210 host searches (456 and 251 before the
        # checks proved pairs from their marks).
        run = perfbench_run()
        workload = run.WORKLOADS["wmax-sampled"](3)
        instances = {i.label: generate(i.spec(lightspan)) for i in workload.instances}
        assert len(workload.cells) == 24
        flagged, searches, real = 0, {"subgraph": 0, "host": 0}, graph_mod._relax
        for k, cell in enumerate(workload.cells):
            g, terminals, levels = instances[cell.instance.label]
            call, [(ts, beta)], read = run.prepare(lightspan, cell, g, terminals, levels)
            edges = sorted(read(call())[0][0])
            rng = random.Random(k)
            for removed in (0, 1, 3, 10):
                es = edges[:]
                for _ in range(removed):
                    es.pop(rng.randrange(len(es)))
                for rel_tol in (0.0, certify_tolerance(g)):
                    checked = run.fresh_graph(lightspan, g)
                    with monkeypatch.context() as m:
                        if not removed and rel_tol:
                            def counting(adj, *args):
                                searches["host" if adj is checked._packed[1] else "subgraph"] += 1
                                return real(adj, *args)
                            m.setattr(graph_mod, "_relax", counting)
                            m.setattr(oracle, "_relax", counting)
                        rep = verify_spanner(checked, ts, es, beta, rel_tol)
                    assert (report_fields(rep)
                            == reference_report(g, ts, es, beta, rel_tol)), (cell.key, removed)
                    assert rep.ok or removed
                    flagged += len(rep.violations)
        assert flagged
        assert searches["subgraph"] <= 240 and searches["host"] <= 210, searches

    def test_relative_cells_and_their_thinned_copies(self):
        # One-level's first two batches and every small-exact cell of the
        # benchmark at seed 3 (each level of a multi-level output), and
        # copies with 1, 3 and 10 edges removed, all checked on one fresh
        # graph per cell: verify_spanner's report equals the full-table
        # reference.  The hosts are exact.
        run = perfbench_run()
        cells = {"one-level": run.WORKLOADS["one-level"](3).batches[:2],
                 "small-exact": run.WORKLOADS["small-exact"](3).batches}
        instances, flagged = {}, 0
        for name, batches in cells.items():
            for k, cell in enumerate(c for batch in batches for c in batch):
                if cell.instance not in instances:
                    instances[cell.instance] = generate(cell.instance.spec(lightspan))
                g, terminals, levels = instances[cell.instance]
                call, conds, read = run.prepare(lightspan, cell, g, terminals, levels)
                rng, checked = random.Random(k), run.fresh_graph(lightspan, g)
                for edges, (ts, beta) in zip(read(call())[0], conds):
                    if len(ts) < 2:
                        continue
                    assert beta.mode == "relative" and g.is_exact
                    for removed in (0, 1, 3, 10):
                        es = sorted(edges)
                        for _ in range(min(removed, len(es))):
                            es.pop(rng.randrange(len(es)))
                        rep = verify_spanner(checked, ts, es, beta)
                        assert (report_fields(rep)
                                == reference_report(g, ts, es, beta)), (name, cell.key, removed)
                        assert rep.ok or removed
                        flagged += len(rep.violations)
        assert flagged


class TestSubsetLightness:
    def test_spanner_equal_to_steiner_tree_gives_one(self):
        g = rand_tree(9, 10)
        bb = build_backbone(g, [0, 4, 9], HALF)
        res = subset_lightness(bb, bb.t.weight)
        assert res.mode == "exact"
        assert res.ratio == 1

    @pytest.mark.parametrize("tree_host", [True, False])
    def test_zero_weight_denominator_is_degenerate(self, tree_host):
        g = rand_tree(9, 10) if tree_host else rand_connected_graph(3, 10, 8)
        res = subset_lightness(build_backbone(g, [4], HALF), 5)
        assert (res.ratio, res.mode, res.steiner_weight) == (None, "degenerate", 0)

    def test_fifty_over_sixty(self):
        g = Graph.from_edges(3, [(0, 1, 30), (1, 2, 30)])
        bb = build_backbone(g, [0, 2], HALF)
        res = subset_lightness(bb, Fraction(50))
        assert res.steiner_weight == 60
        assert res.ratio == Fraction(5, 6)
        assert round(float(res.ratio), 4) == 0.8333

    def test_unit_clique_ratio_n_over_two(self):
        for n in (6, 13):
            g = unit_clique(n)
            bb = build_backbone(g, range(n), HALF)
            res = subset_lightness(bb, Fraction(n * (n - 1), 2))
            assert res.ratio == Fraction(n, 2)

    def test_budget_reads_the_unreduced_s_prime(self, monkeypatch):
        # Ten terminals in adjacent pairs on a 200-cycle: the contraction
        # would leave 5 groups, whose program fits the budget, but the
        # budget is tested on |S'| = 10, so the mode stays "approx".
        g = cycle_graph(200, 1, [], exact=True)
        ts = sorted({x for k in range(0, 100, 20) for x in (k, k + 1)})
        bb = build_backbone(g, ts, Beta("relative", 1000))
        assert bb.s_prime == frozenset(ts)
        assert 3 ** (len(ts) - 1) * g.n > oracle._EXACT_LIGHTNESS_BUDGET
        _, reduced, reduced_ts, _ = steiner._contract_terminal_edges(g, ts)
        assert len(reduced_ts) == 5
        assert (3 ** (len(reduced_ts) - 1) * reduced.n
                <= oracle._EXACT_LIGHTNESS_BUDGET)
        calls = []
        monkeypatch.setattr(oracle, "exact_steiner",
                            lambda *args: calls.append(args))
        res = subset_lightness(bb, g.total_weight)
        assert res.mode == "approx" and calls == []
        assert res.steiner_weight == bb.t.weight

    def test_solver_cap_is_read_not_restated(self, monkeypatch):
        # A 4x4 grid with |S'| = 10 fits the work budget; under a solver
        # cap of 3, lowered wherever the cap is read, the denominator
        # falls back to the approximate tree instead of raising.
        g = grid_graph(4, 4, [1, 2, 3], exact=True)
        ts = [0, 2, 3, 5, 6, 9, 10, 12, 13, 15]
        bb = build_backbone(g, ts, Beta("relative", 1000))
        assert bb.s_prime == frozenset(ts)
        assert 3 ** (len(ts) - 1) * g.n <= oracle._EXACT_LIGHTNESS_BUDGET
        assert subset_lightness(bb, g.total_weight).mode == "exact"
        for mod in (steiner, oracle):
            monkeypatch.setattr(mod, "EXACT_STEINER_MAX_TERMINALS", 3,
                                raising=False)
        res = subset_lightness(bb, g.total_weight)
        assert res.mode == "approx"
        assert res.steiner_weight == bb.t.weight

    def test_approx_mode_recorded_when_s_prime_large(self):
        g = rand_connected_graph(33, 40, 70)
        bb = build_backbone(g, list(range(0, 40, 4)), HALF)
        assert len(bb.s_prime) > 12
        res = subset_lightness(bb, g.total_weight)
        assert res.mode == "approx"
        assert res.steiner_weight == bb.t.weight


def brute_force_one_level(g, terminals, beta):
    """Exhaustive minimum over all edge subsets, no pruning."""
    ts = sorted(set(terminals))
    table = build_path_table(g, ts)
    allowed = {}
    for i, u in enumerate(ts[:-1]):
        for v in ts[i + 1:]:
            allowed[(u, v)] = table.dist(u, v) + beta.slack(table.w(u, v),
                                                            g.w_max)
    pairs = [canonical(u, v) for u, v, _ in g.edges]
    best = None
    for r in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, r):
            if all(subgraph_dist(g, combo, u, v) <= a
                   for (u, v), a in allowed.items()):
                w = sum(g.weight_of(*e) for e in combo)
                if best is None or w < best:
                    best = w
    return best


class TestExactOneLevel:
    def test_tree_host_gives_steiner_subtree(self):
        g = rand_tree(4, 9)
        terms = [0, 5, 8]
        edges = exact_one_level(g, terms, HALF)
        sub = exact_steiner(g, terms)
        assert sum(g.weight_of(*e) for e in edges) == sub.weight

    def test_huge_beta_degenerates_to_steiner(self):
        for seed in range(6):
            g = rand_connected_graph(seed + 40, 7, 3)
            terms = [0, 3, 6]
            edges = exact_one_level(g, terms, Beta("relative", 10 ** 6))
            assert (sum(g.weight_of(*e) for e in edges)
                    == exact_steiner(g, terms).weight)

    def test_double_oracle_cross_check(self):
        for seed in range(8):
            g = rand_connected_graph(seed + 60, 6, 3)
            terms = [0, 2, 5]
            got = exact_one_level(g, terms, HALF)
            got_w = sum(g.weight_of(*e) for e in got)
            assert got_w == brute_force_one_level(g, terms, HALF)

    def test_optimum_bounds_constructions(self):
        split = EpsilonSplit.of(Fraction(1, 2))
        for seed in range(6):
            g = rand_connected_graph(seed + 80, 8, 4)
            terms = [0, 3, 7]
            opt = sum(g.weight_of(*e)
                      for e in exact_one_level(g, terms, HALF))
            assert opt <= eps_spanner(g, terms, split).weight
            four = four_eps_spanner(g, terms, split)
            opt4 = sum(g.weight_of(*e)
                       for e in exact_one_level(
                           g, terms, Beta("relative", Fraction(9, 2))))
            assert opt4 <= four.weight

    def test_rejects_floats_and_big_instances(self):
        g = rand_connected_graph(1, 8, 6, exact=False)
        with pytest.raises(NonExactArithmeticError):
            exact_one_level(g, [0, 5], HALF)
        big = rand_connected_graph(2, 15, 10)
        with pytest.raises(InstanceTooLargeError):
            exact_one_level(big, [0, 5], HALF)

    def test_result_is_verified(self):
        g = rand_connected_graph(99, 8, 4)
        terms = [0, 3, 7]
        edges = exact_one_level(g, terms, HALF)
        assert verify_spanner(g, terms, edges, HALF).ok


class TestExactMultilevel:
    def test_single_level_equals_one_level(self):
        g = rand_connected_graph(7, 7, 3)
        inst = MultiLevelInstance(g, {0: 1, 3: 1, 6: 1}, 1, HALF)
        ml = exact_multilevel(inst)
        one = exact_one_level(g, [0, 3, 6], HALF)
        assert ml.cost == sum(g.weight_of(*e) for e in one)

    def test_equal_levels_double_the_cost(self):
        g = rand_connected_graph(8, 7, 3)
        inst2 = MultiLevelInstance(g, {0: 2, 3: 2, 6: 2}, 2, HALF)
        inst1 = MultiLevelInstance(g, {0: 1, 3: 1, 6: 1}, 1, HALF)
        assert exact_multilevel(inst2).cost == 2 * exact_multilevel(inst1).cost

    def test_nesting_and_validity(self):
        g = rand_connected_graph(9, 7, 4)
        inst = MultiLevelInstance(g, {0: 1, 2: 2, 5: 3, 6: 1}, 3, HALF)
        ml = exact_multilevel(inst)
        e1, e2, e3 = ml.edge_sets
        assert e3 <= e2 <= e1
        for i, es in enumerate(ml.edge_sets, start=1):
            terms = inst.terminal_set(i)
            if len(terms) >= 2:
                assert verify_spanner(g, terms, es, HALF).ok
        assert ml.cost == sum(sum(g.weight_of(*e) for e in es)
                              for es in ml.edge_sets)

    def test_caps(self):
        g = rand_connected_graph(10, 12, 8)
        inst = MultiLevelInstance(g, {0: 1, 5: 1}, 1, HALF)
        with pytest.raises(InstanceTooLargeError):
            exact_multilevel(inst)
