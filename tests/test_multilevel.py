import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import rand_connected_graph
from lightspan.additive import EpsilonSplit, eps_spanner
from lightspan.graph import Beta
from lightspan.multilevel import (
    MultiLevelInstance,
    four_approx_baseline,
    merge_bound_diagnostic,
    round_levels,
    rounding_cost_ratio,
    rounding_ratio_analytic,
    solve_multilevel,
)
from lightspan.oracle import exact_one_level, verify_spanner

HALF = Beta("relative", Fraction(1, 2))
ONE = Beta("relative", Fraction(1))


class TestRoundLevels:
    def test_powers_of_two_example(self):
        groups = round_levels({10: 1, 11: 2, 12: 3}, 2, 1)
        rounded = {}
        for grp in groups:
            for v in grp.terminals:
                rounded[v] = max(rounded.get(v, 0), grp.value)
        assert rounded == {10: 2, 11: 2, 12: 4}

    def test_e_with_half_offset(self):
        groups = round_levels({0: 3}, math.e, 0.5)
        assert groups[0].value == pytest.approx(4.4817, abs=1e-4)

    def test_grid_value_is_fixed_point(self):
        groups = round_levels({0: 4}, 2, 1)
        assert groups[0].value == 4

    def test_cumulative_nesting(self):
        groups = round_levels({0: 1, 1: 2, 2: 3, 3: 5}, 2, 0.7)
        for a, b in zip(groups, groups[1:]):
            assert b.terminals <= a.terminals
        assert groups[-1].value >= 5  # grid covers the top level

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            round_levels({0: 1}, 1.0, 0.5)
        with pytest.raises(ValueError):
            round_levels({0: 1}, 2.0, 0.0)
        with pytest.raises(ValueError):
            round_levels({0: 1}, math.inf, 0.5)


class TestInstanceValidation:
    def test_requires_top_level_terminal(self):
        g = rand_connected_graph(0, 6, 6)
        with pytest.raises(ValueError):
            MultiLevelInstance(g, {0: 1}, 2, HALF)

    def test_level_range(self):
        g = rand_connected_graph(0, 6, 6)
        with pytest.raises(ValueError):
            MultiLevelInstance(g, {0: 5}, 2, HALF)

    def test_at_least_one_level(self):
        g = rand_connected_graph(0, 6, 6)
        with pytest.raises(ValueError, match="k must be at least 1"):
            MultiLevelInstance(g, {}, 0, HALF)


class TestSolveMultilevel:
    def test_single_level_is_one_oracle_call(self):
        g = rand_connected_graph(2, 12, 16)
        inst = MultiLevelInstance(g, {0: 1, 4: 1, 9: 1}, 1, ONE)
        calls = []

        def oracle(graph, terms):
            calls.append(terms)
            return eps_spanner(graph, terms, EpsilonSplit.of(ONE.value)).edges

        sol = solve_multilevel(inst, oracle, seed=5)
        assert len(calls) == 1
        assert sol.cost == sum(g.weight_of(*e) for e in sol.edge_sets[0])

    def test_all_terminals_at_top_level_single_group(self):
        g = rand_connected_graph(3, 10, 14)
        inst = MultiLevelInstance(g, {0: 3, 4: 3, 9: 3}, 3, ONE)
        for seed in range(5):
            sol = solve_multilevel(inst, seed=seed)
            assert len(set(sol.edge_sets)) == 1  # all levels identical

    def test_nesting_and_per_level_validity(self):
        for seed in range(6):
            g = rand_connected_graph(seed + 30, 14, 20)
            levels = {0: 1, 3: 2, 6: 3, 9: 1, 12: 2}
            inst = MultiLevelInstance(g, levels, 3, ONE)
            sol = solve_multilevel(inst, seed=seed)
            assert sol.nesting_ok
            for i, es in enumerate(sol.edge_sets, start=1):
                terms = inst.terminal_set(i)
                if len(terms) >= 2:
                    assert verify_spanner(g, terms, es, ONE).ok
            top = sorted(sol.rounded_levels)[-1]
            assert top >= inst.k

    def test_cost_equals_top_level_charging(self):
        g = rand_connected_graph(8, 12, 18)
        inst = MultiLevelInstance(g, {0: 1, 4: 2, 9: 2}, 2, ONE)
        sol = solve_multilevel(inst, seed=11)
        per_edge = {}
        for lvl, es in enumerate(sol.edge_sets, start=1):
            for e in es:
                per_edge[e] = max(per_edge.get(e, 0), lvl)
        assert sol.cost == sum(g.weight_of(*e) * lvl
                               for e, lvl in per_edge.items())

    def test_seeded_determinism(self):
        g = rand_connected_graph(9, 12, 18)
        inst = MultiLevelInstance(g, {0: 1, 4: 2, 9: 3}, 3, ONE)
        a = solve_multilevel(inst, seed=21)
        b = solve_multilevel(inst, seed=21)
        assert a == b

    def test_oracle_pairs_in_either_order_on_an_exact_instance(self):
        g = rand_connected_graph(8, 12, 18)
        inst = MultiLevelInstance(g, {0: 1, 4: 2, 9: 2}, 2, ONE)
        assert g.is_exact

        def forward(graph, terms):
            return eps_spanner(graph, terms, EpsilonSplit.of(ONE.value)).edges

        def backward(graph, terms):
            return {(v, u) for u, v in forward(graph, terms)}

        for solve in (lambda o: solve_multilevel(inst, o, seed=11),
                      lambda o: four_approx_baseline(inst, o)):
            assert solve(backward).cost == solve(forward).cost
        assert (merge_bound_diagnostic(inst, 2, 1, backward)
                == merge_bound_diagnostic(inst, 2, 1, forward))



class TestFourApproxBaseline:
    def test_grid_and_rounding_for_documented_case(self):
        g = rand_connected_graph(4, 12, 16)
        levels = {0: 1, 4: 3, 9: 4}
        inst = MultiLevelInstance(g, levels, 4, ONE)
        sol = four_approx_baseline(inst)
        assert sol.q_used == 1.0
        assert tuple(sol.rounded_levels) == (2, 4)
        groups = round_levels(levels, 2, 1)
        rounded = {}
        for grp in groups:
            for v in grp.terminals:
                rounded[v] = max(rounded.get(v, 0), grp.value)
        assert rounded == {0: 2, 4: 4, 9: 4}

    def test_single_level_identical_to_randomized(self):
        g = rand_connected_graph(5, 10, 12)
        inst = MultiLevelInstance(g, {0: 1, 5: 1, 9: 1}, 1, ONE)
        assert (four_approx_baseline(inst).edge_sets
                == solve_multilevel(inst, seed=3).edge_sets)


class TestRoundingRatio:
    def test_analytic_anchors(self):
        assert rounding_ratio_analytic(2) == pytest.approx(1 / math.log(2))
        assert rounding_ratio_analytic(2) == pytest.approx(1.4427, abs=1e-4)
        assert rounding_ratio_analytic(math.e) == pytest.approx(math.e - 1)
        assert rounding_ratio_analytic(math.e) == pytest.approx(1.7183, abs=1e-4)

    def test_overall_ratio_minimized_at_e(self):
        f = lambda p: p / math.log(p)
        assert f(math.e) == pytest.approx(math.e)
        for p in (1.5, 2, 2.5, 3, 4, 6):
            assert f(p) >= f(math.e) - 1e-12

    @pytest.mark.parametrize("p", [1.0, 0.5, math.inf, math.nan])
    def test_rounding_cost_ratio_requires_finite_p_above_one(self, p):
        # p = inf used to die inside statistics.stdev with AttributeError.
        with pytest.raises(ValueError):
            rounding_cost_ratio(p, 5)

    def test_monte_carlo_within_three_stderr(self):
        for p in (2.0, math.e, 4.0):
            est = rounding_cost_ratio(p, trials=20000, seed=13)
            assert abs(est.mean - rounding_ratio_analytic(p)) <= 3 * est.stderr


def tiny_instance(seed):
    g = rand_connected_graph(seed, 6, 3)  # <= 8 edges
    levels = {0: 1, 2: 2, 5: 2}
    return MultiLevelInstance(g, levels, 2, HALF)


class TestMergeBound:
    def test_diagnostic_on_ten_edge_instance(self):
        g = rand_connected_graph(77, 8, 3)
        assert len(g.edges) <= 12
        inst = MultiLevelInstance(g, {0: 1, 3: 2, 7: 2}, 2, HALF)
        cache = {}

        def oracle(graph, terms):
            key = frozenset(terms)
            if key not in cache:
                cache[key] = exact_one_level(graph, terms, inst.condition)
            return cache[key]

        for p in (2, 4):
            diag = merge_bound_diagnostic(inst, p, 1, oracle)
            assert diag.ok
            assert diag.merged_rounded_cost <= diag.bound_factor * diag.opt_level_sum


def test_fresh_imports_leave_one_graph_class_alive():
    # A module-level typing alias over Graph would sit in typing's cache
    # and keep every earlier import's Graph class (and graph.py) alive.
    # A subprocess, so the other tests keep their module objects.
    script = textwrap.dedent("""
        import gc, importlib, sys, weakref
        refs = []
        for _ in range(5):
            for name in [n for n in sys.modules
                         if n == "lightspan" or n.startswith("lightspan.")]:
                del sys.modules[name]
            importlib.import_module("lightspan")
            refs.append(weakref.ref(sys.modules["lightspan.graph"].Graph))
        gc.collect()
        print(sum(r() is not None for r in refs))
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["1"]
