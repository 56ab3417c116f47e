"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They check isolation between timed builds, seed determinism, failure
accounting, the traced run's guards and restoration, output pinning
and that BENCHMARK.json names the metrics this code reports.  Builds
use a few cells of the small-exact workload, so the tests take seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WHY, WORKLOADS  # noqa: E402


def few_cells(count: int = 8, seed: int = 3):
    w = WORKLOADS["small-exact"](seed)
    return dataclasses.replace(w, batches=(w.cells[:count],))


def module_bindings() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "lightspan" or name.startswith("lightspan."))
            for attr, value in vars(mod).items()}


def tracer_wrappers() -> list:
    """Bindings of the loaded lightspan modules that are tracer wrappers."""
    return [key for key, value in module_bindings().items()
            if getattr(getattr(value, "__code__", None), "co_qualname", "").startswith("Tracer.")]


@contextlib.contextmanager
def after_each_load(hook):
    """Call hook(lightspan) after every fresh import a build makes."""
    real = run.load_lightspan

    def load():
        ls = real()
        hook(ls)
        return ls
    with mock.patch.object(run, "load_lightspan", load):
        yield


def rebind(original, replacement) -> None:
    """Bind replacement wherever a lightspan module binds original."""
    for mod in run.lightspan_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Isolation(unittest.TestCase):
    def test_no_timed_build_reuses_a_graph(self):
        w = few_cells()
        _, instances, _, _ = run.set_up(w)
        seen = []  # (graph, cached attributes at call time); keeps ids unique

        def recorder(ls, name, graph_of):
            original = getattr(ls, name)

            def call(*args, **kwargs):
                g = graph_of(args)
                seen.append((g, set(vars(g)) - {"n", "edges"}))
                return original(*args, **kwargs)
            setattr(ls, name, call)

        def hook(ls):
            for name in ("eps_spanner", "four_eps_spanner"):
                recorder(ls, name, lambda args: args[0])
            for name in ("solve_multilevel", "four_approx_baseline"):
                recorder(ls, name, lambda args: args[0].g)

        runner = run.Runner(instances)
        with after_each_load(hook):
            runner.run(w.cells * 2)
        self.assertEqual(len(seen), 2 * len(w.cells))
        self.assertFalse(runner.failures())
        self.assertEqual(len({id(g) for g, _ in seen}), len(seen))
        self.assertEqual(len({id(g.edges) for g, _ in seen}), len(seen))
        self.assertTrue(all(not cached for _, cached in seen))
        originals = {id(g) for g, _, _ in instances.values()}
        self.assertFalse(originals & {id(g) for g, _ in seen})

    def test_guard_refuses_a_reused_graph_or_import(self):
        w = few_cells(2)
        ls, instances, _, _ = run.set_up(w)
        runner = run.Runner(instances)
        with mock.patch.object(run, "fresh_graph", lambda ls, g: g):
            with self.assertRaises(run.IsolationError):
                runner.build(w.cells[0])
        g, terminals, _ = instances[w.cells[0].instance.label]
        used = run.fresh_graph(ls, g)
        ls.eps_spanner(used, terminals, ls.EpsilonSplit.of(run.EPS))
        with mock.patch.object(run, "fresh_graph", lambda ls, g: used):
            with self.assertRaises(run.IsolationError):
                runner.build(w.cells[1])
        self.assertEqual(runner.records, [])
        runner.build(w.cells[0])
        with mock.patch.object(run, "load_lightspan", lambda: sys.modules["lightspan"]):
            with self.assertRaises(run.IsolationError):
                runner.build(w.cells[1])
        self.assertEqual(len(runner.records), 1)
        # The check of a build needs an import of its own as well.
        real, loads = run.load_lightspan, []

        def reload_for_the_build_only():
            loads.append(None)
            return real() if len(loads) == 1 else sys.modules["lightspan"]
        with mock.patch.object(run, "load_lightspan", reload_for_the_build_only):
            with self.assertRaises(run.IsolationError):
                runner.build(w.cells[1])
        self.assertEqual(len(loads), 2)

    def test_value_keyed_memo_gets_no_hit_across_builds(self):
        # Graph compares and hashes by value, so a memo keyed on
        # (graph, source) hits on any equal graph.  Every build and every
        # check re-imports lightspan, so such a memo starts empty in each.
        w = few_cells()
        ls, instances, _, _ = run.set_up(w)
        g, _, _ = instances[w.cells[0].instance.label]
        memo = functools.lru_cache(maxsize=None)(sys.modules["lightspan.graph"].shortest_paths)
        memo(run.fresh_graph(ls, g), 0)
        memo(run.fresh_graph(ls, g), 0)
        self.assertEqual(memo.cache_info().hits, 1)

        memos = []

        def hook(ls):
            original = sys.modules["lightspan.graph"].shortest_paths
            memos.append(functools.lru_cache(maxsize=None)(original))
            rebind(original, memos[-1])

        runner = run.Runner(instances)
        with after_each_load(hook):
            runner.run(w.cells * 2)
        self.assertFalse(runner.failures())
        # One import for each build and one for its check.
        self.assertEqual(len(memos), 4 * len(w.cells))
        first = [m.cache_info() for m in memos[:2 * len(w.cells)]]
        again = [m.cache_info() for m in memos[2 * len(w.cells):]]
        self.assertTrue(all(info.misses > 0 for info in first[::2]))
        self.assertEqual(first, again)

    def test_seed_fixes_cells_and_outputs(self):
        for name, make in WORKLOADS.items():
            self.assertEqual(make(5), make(5), name)
            a = {i.seed for i in make(5).instances}
            b = {i.seed for i in make(6).instances}
            self.assertFalse(a & b, name)
        pinned = []
        for _ in range(2):
            w = few_cells(seed=5)
            _, instances, _, _ = run.set_up(w)
            runner = run.Runner(instances)
            runner.run(w.cells)
            pinned.append(runner.pinned)
        self.assertEqual(pinned[0], pinned[1])
        _, other, _, _ = run.set_up(few_cells(seed=6))
        edges = {g.edges for g, _, _ in instances.values()}
        self.assertFalse(edges & {g.edges for g, _, _ in other.values()})


class FailureAccounting(unittest.TestCase):
    def test_oracle_failure_and_exception_are_counted(self):
        w = few_cells(4)  # eps, four-eps, multilevel-e, multilevel-4 on one instance
        _, instances, _, _ = run.set_up(w)
        removed = []

        def hook(ls):
            real = ls.eps_spanner

            def broken_output(g, terminals, split):
                sp = real(g, terminals, split)
                ts = sorted(terminals)
                beta = ls.Beta("relative", split.eps)
                for i, u in enumerate(ts):
                    for v in ts[i + 1:]:
                        for e in ls.fixed_shortest_path(g, u, v).edge_pairs():
                            edges = sp.edges - {e}
                            if e in sp.edges and not ls.verify_spanner(g, ts, edges, beta).ok:
                                removed.append(e)
                                return dataclasses.replace(sp, edges=edges)
                raise AssertionError("no fixed-path edge is essential")

            def raising(*args):
                raise ValueError("injected")

            ls.eps_spanner = broken_output
            ls.four_eps_spanner = raising

        runner = run.Runner(instances)
        with after_each_load(hook):
            runner.run(w.cells)
        self.assertEqual(len(removed), 1)
        self.assertEqual(len(runner.records), 4)
        eps, four, ml_e, ml_4 = runner.records
        self.assertEqual((eps.ok, eps.error), (False, "output fails the oracle"))
        self.assertIsNotNone(eps.build_s)
        self.assertFalse(four.ok)
        self.assertIn("injected", four.error)
        self.assertTrue(ml_e.ok and ml_4.ok)
        values, _ = run.end_to_end(runner.records, setup_s=1.0)
        self.assertEqual(values["failed_share"], 0.5)


class TracedRun(unittest.TestCase):
    def test_traced_outputs_match_and_originals_are_restored(self):
        w = few_cells(8)
        _, instances, _, _ = run.set_up(w)
        plain = run.Runner(instances)
        plain.run(w.cells)
        tr = tracer.Tracer()
        traced = run.Runner(instances, tr)
        traced.run(w.cells)
        self.assertFalse(traced.failures())
        self.assertEqual(sum(r.traced for r in traced.records), len(w.cells))
        self.assertEqual(plain.pinned, traced.pinned)
        self.assertEqual(tracer_wrappers(), [])
        counts = tr.call_counts()
        self.assertGreater(counts["steiner.exact_steiner"], 0)
        self.assertEqual(run.unexercised(w, tr), [])
        layers = tr.layer_metrics(len(w.cells))
        self.assertEqual(set(layers) | {"generators.generate_s", "trace.overhead_share"},
                         {name for name, *_ in tracer.LAYER_METRICS})

    def test_restore_puts_back_every_original(self):
        run.load_lightspan()
        before = module_bindings()
        tr = tracer.Tracer()
        tr.install()
        wrapped = tracer_wrappers()
        self.assertIn(("lightspan.additive", "build_backbone"), wrapped)
        self.assertIn(("lightspan.sampled", "build_backbone"), wrapped)
        tr.restore()
        after = module_bindings()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(before[k] is after[k] for k in before))
        self.assertEqual(tracer_wrappers(), [])

    def test_missing_entry_point_refuses_to_start(self):
        run.load_lightspan()
        before = module_bindings()
        bogus = tracer.ENTRY_POINTS + (("sampled", "no_such_function", "x"),)
        with mock.patch.object(tracer, "ENTRY_POINTS", bogus):
            with self.assertRaises(tracer.TraceSetupError):
                tracer.Tracer().install()
        after = module_bindings()
        self.assertTrue(all(before[k] is after[k] for k in before))

    def test_unexercised_layer_is_reported(self):
        w = WORKLOADS["wmax-sampled"](1)
        errors = run.unexercised(w, tracer.Tracer())
        self.assertTrue(any("sampled.choose_ell" in e for e in errors))
        errors = run.unexercised(WORKLOADS["small-exact"](1), tracer.Tracer())
        self.assertTrue(any("steiner.exact_steiner" in e for e in errors))


class Pinning(unittest.TestCase):
    def test_compare_reports_differing_cells(self):
        a = {"cells": {"x/eps/r0": {"digest": "1", "lightness": "2", "cost": None},
                       "y/eps/r0": {"digest": "3", "lightness": "4", "cost": None}}}
        self.assertEqual(compare.differences(a, a), [])
        b = json.loads(json.dumps(a))
        b["cells"]["y/eps/r0"]["digest"] = "5"
        del b["cells"]["x/eps/r0"]
        diffs = compare.differences(a, b)
        self.assertEqual(len(diffs), 2)
        self.assertIn("x/eps/r0: missing from the second file", diffs)
        self.assertTrue(any(d.startswith("y/eps/r0: digest 3 -> 5") for d in diffs))

    def test_tail_has_ten_samples_beyond(self):
        value, pct, n = run.tail([float(i) for i in range(40)])
        self.assertEqual((value, n), (29.0, 40))
        self.assertEqual(sum(x > value for x in range(40)), 10)
        self.assertAlmostEqual(pct, 75.0)


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        units = dict(run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         [(name, units[name]) for name in run.GATED])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(n, u, b) for n, u, b, _ in tracer.LAYER_METRICS])
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]}, WHY)
        self.assertEqual(set(WHY), set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
