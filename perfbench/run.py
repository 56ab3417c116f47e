"""Certified-build benchmark for lightspan.

    python3 perfbench/run.py --workload one-level --seed 1 --seconds 30 --trace 0

Runs the cells of one seeded workload (see workloads.py) through the
public API in a closed loop: one process, one thread, one build at a
time.  Every build, and every check of a build, runs on a fresh import
of lightspan and gets a Graph object that nothing timed before touched,
so no cache, module-level or keyed on graph values, carries over from
one timed build or check to the next.
Every output is checked with the independent oracle `verify_spanner`
(every level for multi-level builds); a build that raises or fails the
oracle counts as failed and the run goes on.

--seconds fixes the run length as an amount of work: the run makes
seconds // PASS_SECONDS passes over the workload's batches (at least
one).  Throughput and check time are taken per batch and the run
reports their median, so a few seconds in which the machine runs slow
move one batch, not the figure.

--trace 0 prints the end-to-end metrics.  --trace 1 builds every cell
twice, untraced and then traced (see tracer.py), checks that both give
the same outputs and prints the per-layer metrics.  Either way the last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it name every metric with its unit.  The
run also writes perfbench/results/<workload>-seed<N>[-traced].json,
which pins each cell's output digest, lightness and multi-level cost;
compare two with perfbench/compare.py.  A traced run writes its spans
next to it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

from tracer import LAYER_METRICS, Tracer, TraceSetupError
from workloads import WORKLOADS, Cell, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

EPS = Fraction(1, 2)
WMAX_C = 2.0
# Run seconds per pass over the workload's batches.
PASS_SECONDS = 30

# Every end-to-end metric, in print order, with its unit.
END_TO_END = (
    ("builds_per_s", "1/s"),
    ("build_s_p50", "s"),
    ("build_s_tail", "s"),
    ("verify_s_p50", "s"),
    ("verify_s_mean", "s"),
    ("lightness_mean", "ratio"),
    ("ml_cost_ratio", "ratio"),
    ("failed_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# The metrics BENCHMARK.json bounds and the last stdout line carries.
# The others are printed and recorded only.  The per-build medians and
# the tail are single order statistics over cells of widely different
# cost: across ten seeds on a 2-vCPU machine they spread by up to 0.27
# (tail 0.29), more than the largest allowed bound (0.25), so the batch
# medians builds_per_s and verify_s_mean stand in for them.  failed_share
# is 0 on a correct run (the last stdout line carries attempted and
# failed), and ml_cost_ratio exists on small-exact only.
GATED = ("builds_per_s", "verify_s_mean", "lightness_mean", "peak_rss_mb", "setup_s")


class BenchSetupError(RuntimeError):
    """The benchmark cannot start: the lightspan sources are missing or misplaced."""


class IsolationError(RuntimeError):
    """A timed operation would reuse state of an earlier one; the run stops."""


# -- loading and set-up ------------------------------------------------

def _is_lightspan(name: str) -> bool:
    return name == "lightspan" or name.startswith("lightspan.")


def lightspan_modules() -> list:
    return [m for n, m in sys.modules.items() if _is_lightspan(n) and m is not None]


def load_lightspan():
    """A fresh import of lightspan from this checkout's src/."""
    if not (SRC / "lightspan" / "__init__.py").is_file():
        raise BenchSetupError(f"no lightspan sources under {SRC}")
    if str(SRC) not in sys.path:
        # Every build re-imports lightspan: compile its sources once per
        # checkout, not once per import, whatever PYTHONDONTWRITEBYTECODE says.
        sys.dont_write_bytecode = False
        sys.pycache_prefix = str(RESULTS / "pycache")
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if _is_lightspan(n)]:
        del sys.modules[name]
    ls = importlib.import_module("lightspan")
    if Path(ls.__file__).resolve().parent != SRC / "lightspan":
        raise BenchSetupError(f"lightspan imported from {ls.__file__}, not {SRC}")
    return ls


def set_up(workload: Workload):
    """One set-up: a fresh import plus generation of every instance.

    Returns (lightspan, instances, set-up seconds, generation seconds).
    """
    gc.collect()
    t0 = time.perf_counter()
    ls = load_lightspan()
    t1 = time.perf_counter()
    instances = {inst.label: ls.generate(inst.spec(ls)) for inst in workload.instances}
    t2 = time.perf_counter()
    return ls, instances, t2 - t0, t2 - t1


def fresh_graph(ls, g):
    """A new Graph object equal to g that shares no object a build could cache on."""
    return ls.Graph(g.n, tuple((u, v, w) for u, v, w in g.edges))


# -- one build ---------------------------------------------------------

def digest(edge_sets) -> str:
    """A short hash of the output edge sets, one per level."""
    text = "|".join(";".join(f"{u},{v}" for u, v in sorted(es)) for es in edge_sets)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def prepare(ls, cell: Cell, g, terminals, levels):
    """The builder call of a cell (the timed region), the conditions its
    output must meet as (terminal set, beta) pairs, and a reader that
    turns the result into (edge sets, lightness, cost).

    Library functions are looked up on the package here, after a traced
    build has installed its wrappers.
    """
    exact = cell.instance.exact
    split = ls.EpsilonSplit.of(EPS if exact else float(EPS))
    eps = split.eps
    if cell.algo in ("eps", "four-eps", "wmax"):
        if cell.algo == "eps":
            beta = ls.Beta("relative", eps)
            call = partial(ls.eps_spanner, g, terminals, split)
        elif cell.algo == "four-eps":
            beta = ls.Beta("relative", 4 + eps)
            call = partial(ls.four_eps_spanner, g, terminals, split)
        else:
            beta = ls.Beta("wmax", 4 + eps)
            cfg = ls.SampleConfig(split, c=WMAX_C, seed=cell.run_seed)
            call = partial(ls.wmax_spanner, g, terminals, cfg)
        return call, [(terminals, beta)], lambda sp: ((sp.edges,), sp.subset_lightness, None)
    condition = ls.Beta("relative", eps)
    inst = ls.MultiLevelInstance(g, levels, max(levels.values()), condition)
    if cell.algo == "multilevel-e":
        call = partial(ls.solve_multilevel, inst, p=math.e, seed=cell.run_seed)
    else:
        call = partial(ls.four_approx_baseline, inst)
    conds = [(inst.terminal_set(i), condition) for i in range(1, inst.k + 1)]

    def read(sol):
        if not sol.nesting_ok:
            raise ValueError("multi-level edge sets are not nested")
        return tuple(sol.edge_sets), None, sol.cost
    return call, conds, read


def verify(ls, g, edge_sets, conds, exact: bool) -> bool:
    """The independent oracle check of one output (every level), with
    each condition rebuilt from this import of lightspan."""
    rel_tol = 0.0 if exact else 1e-9
    ok = len(edge_sets) == len(conds)
    for edges, (terms, beta) in zip(edge_sets, conds):
        if len(terms) >= 2:
            ok &= ls.verify_spanner(g, terms, edges, ls.Beta(beta.mode, beta.value), rel_tol).ok
    return ok


@dataclass
class Record:
    cell: str
    algo: str
    traced: bool
    batch: int
    build_s: float | None = None
    verify_s: float | None = None
    ok: bool = False
    error: str | None = None
    digest: str | None = None
    lightness: object = None     # subset lightness of a one-level build
    cost: object = None          # level-summed cost of a multi-level build

    def pinned(self) -> dict:
        return {"digest": self.digest,
                "lightness": None if self.lightness is None else str(self.lightness),
                "cost": None if self.cost is None else str(self.cost)}


@dataclass
class Runner:
    """Closed-loop runner of one workload: builds, checks and accounts."""

    instances: dict
    tracer: Tracer | None = None
    records: list[Record] = field(default_factory=list)
    pinned: dict[str, dict] = field(default_factory=dict)
    # Modules an earlier build ran on; weak, so old imports are freed.
    _used: weakref.WeakSet = field(default_factory=weakref.WeakSet)

    def fresh(self, g0):
        """A fresh import of lightspan and a fresh copy of the graph g0.

        Nothing may carry over between timed operations: the modules are
        new, and the graph is a new object with no cached attribute and
        no edge tuple shared with the generated instance.
        """
        ls = load_lightspan()
        modules = lightspan_modules()
        g = fresh_graph(ls, g0)
        if (any(m in self._used for m in modules) or g is g0 or g.edges is g0.edges
                or set(vars(g)) != {"n", "edges"}):
            raise IsolationError("a timed build would reuse state of an earlier build")
        self._used.update(modules)
        return ls, g

    def build(self, cell: Cell, traced: bool = False, batch: int = 0) -> Record:
        g0, terminals, levels = self.instances[cell.instance.label]
        ls, g = self.fresh(g0)
        rec = Record(cell.key, cell.algo, traced, batch)
        self.records.append(rec)
        tracer = self.tracer if traced else None
        gc.collect()
        if tracer:
            tracer.install()
            tracer.begin_build(len(self.records) - 1)
        try:
            call, conds, read = prepare(ls, cell, g, terminals, levels)
            t0 = time.perf_counter()
            result = call()
            rec.build_s = time.perf_counter() - t0
            edge_sets, rec.lightness, rec.cost = read(result)
            del result, call
            # The check runs on a fresh import as well, as `lightspan
            # verify` does, so no cache the build filled can serve it.
            if tracer:
                tracer.restore()
            ls, g = self.fresh(g0)
            if tracer:
                tracer.install()
            gc.collect()
            t1 = time.perf_counter()
            rec.ok = verify(ls, g, edge_sets, conds, cell.instance.exact)
            rec.verify_s = time.perf_counter() - t1
            rec.digest = digest(edge_sets)
            if not rec.ok:
                rec.error = "output fails the oracle"
        except IsolationError:
            raise
        except Exception as exc:  # a failed build is counted; the run goes on
            rec.ok = False
            rec.error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        finally:
            if tracer:
                tracer.end_build()
                tracer.restore()
        if rec.ok and self.pinned.setdefault(cell.key, rec.pinned()) != rec.pinned():
            rec.ok = False
            rec.error = "output differs from an earlier build of the same cell"
        return rec

    def run(self, cells, batch: int = 0) -> None:
        for cell in cells:
            self.build(cell, batch=batch)
            if self.tracer is not None:
                self.build(cell, traced=True, batch=batch)

    def failures(self) -> list[Record]:
        return [r for r in self.records if not r.ok]


# -- metrics -----------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, pct, n)."""
    xs = sorted(samples)
    n = len(xs)
    i = max(0, n - 11)
    return xs[i], 100.0 * (i + 1) / n, n


def batch_medians(done: list[Record]) -> tuple[float, float]:
    """Median over batches of (builds / build time, mean check time)."""
    batches: dict[int, list[Record]] = {}
    for r in done:
        batches.setdefault(r.batch, []).append(r)
    rates, checks = [], []
    for rs in batches.values():
        rates.append(len(rs) / sum(r.build_s for r in rs))
        verified = [r.verify_s for r in rs if r.verify_s is not None]
        if verified:
            checks.append(statistics.fmean(verified))
    return (statistics.median(rates) if rates else 0.0,
            statistics.median(checks) if checks else 0.0)


def end_to_end(records: list[Record], setup_s: float) -> tuple[dict, dict]:
    """End-to-end values of untraced records, and notes printed beside them."""
    untraced = [r for r in records if not r.traced]
    done = [r for r in untraced if r.build_s is not None]
    builds = [r.build_s for r in done]
    verifies = [r.verify_s for r in done if r.verify_s is not None]
    builds_per_s, verify_s_mean = batch_medians(done)
    light = [float(r.lightness) for r in untraced if r.ok and r.lightness is not None]
    cost = {"multilevel-e": 0, "multilevel-4": 0}
    for r in untraced:
        if r.ok and r.algo in cost:
            cost[r.algo] += r.cost
    values = {
        "builds_per_s": builds_per_s,
        "build_s_p50": statistics.median(builds) if builds else 0.0,
        "verify_s_p50": statistics.median(verifies) if verifies else 0.0,
        "verify_s_mean": verify_s_mean,
        "lightness_mean": statistics.fmean(light) if light else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "failed_share": sum(not r.ok for r in untraced) / len(untraced),
    }
    batches = len({r.batch for r in done})
    notes = {"failed_share": f"{sum(not r.ok for r in untraced)} of {len(untraced)} builds",
             "builds_per_s": f"median of {batches} batches",
             "verify_s_mean": f"median of {batches} batch means"}
    if builds:
        values["build_s_tail"], pct, n = tail(builds)
        notes["build_s_tail"] = f"p{pct:.1f} of {n} samples"
    else:
        values["build_s_tail"] = 0.0
    if cost["multilevel-4"]:
        values["ml_cost_ratio"] = float(Fraction(cost["multilevel-e"]) / Fraction(cost["multilevel-4"]))
    return values, notes


def traced_layers(runner: Runner, tracer: Tracer, generate_s: float) -> dict:
    """Per-layer metrics of a traced run, with generation time and overhead."""
    traced = [r.build_s for r in runner.records if r.traced and r.build_s is not None]
    untraced = [r.build_s for r in runner.records if not r.traced and r.build_s is not None]
    layers = tracer.layer_metrics(len(traced))
    layers["generators.generate_s"] = generate_s
    # Share of untraced throughput lost to tracing, over the same cells.
    layers["trace.overhead_share"] = 1 - sum(untraced) / sum(traced) if traced else 0.0
    return layers


def unexercised(workload: Workload, tracer: Tracer) -> list[str]:
    """An error for each layer the workload must exercise but did not."""
    counts = tracer.call_counts()
    return [f"layer {name} recorded no calls on {workload.name}"
            for name in workload.exercised if counts[name] == 0]


# -- context and output ------------------------------------------------

def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(workload: str, seed: int, seconds: int, passes: int, trace: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "passes": passes, "trace": trace,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(ROOT),
        "load": "closed loop, 1 process, 1 thread, 1 build at a time",
    }


def write_json(path: Path, data, indent: int | None = 1) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    trace = bool(args.trace)

    workload = WORKLOADS[args.workload](args.seed)
    passes = max(1, args.seconds // PASS_SECONDS)
    ctx = context(workload.name, args.seed, args.seconds, passes, trace)
    try:
        _, instances, *first_set_up = set_up(workload)
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()  # refuses to start when an entry point is missing
            tracer.restore()
    except (BenchSetupError, TraceSetupError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    # Long-lived set-up objects leave the collector's view, so a build
    # pays only for the garbage it makes itself.
    gc.collect()
    gc.freeze()

    runner = Runner(instances, tracer)
    origin = time.perf_counter()
    # One more set-up after each batch, so that the median set-up time
    # sees the same machine as the builds.
    set_ups = [first_set_up]
    for _ in range(passes):
        for b, batch in enumerate(workload.batches):
            runner.run(batch, b)
            set_ups.append(set_up(workload)[2:])
    setup_s = statistics.median(s for s, _ in set_ups)
    generate_s = statistics.median(g for _, g in set_ups)
    failures = runner.failures()
    out_path = RESULTS / f"{workload.name}-seed{args.seed}{'-traced' if trace else ''}.json"
    result = {
        "context": ctx,
        "cells": dict(sorted(runner.pinned.items())),
        "failures": [{"cell": r.cell, "traced": r.traced, "error": r.error} for r in failures],
        "builds": [[r.cell, r.batch, r.traced, r.build_s, r.verify_s, r.ok]
                   for r in runner.records],
    }
    print(f"workload {workload.name} seed {args.seed}: {len(workload.cells)} cells in "
          f"{len(workload.batches)} batches x {passes} pass(es); python {ctx['python']}, "
          f"nproc {ctx['nproc']}, git {ctx['git_revision'][:12]}")
    for r in failures:
        print(f"FAILED {r.cell}{' (traced)' if r.traced else ''}: {r.error}")

    if trace:
        layers = traced_layers(runner, tracer, generate_s)
        result["layers"] = layers
        spans_path = out_path.with_name(out_path.stem + "-spans.json")
        write_json(spans_path, tracer.spans_json(origin), indent=None)
        print(f"  per traced build unless named otherwise; spans in {spans_path}")
        for name, unit, _, moves in LAYER_METRICS:
            print(f"  {name:<34} {layers[name]:.6g} {unit}  (moves {moves})")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _, _ in LAYER_METRICS}
    else:
        values, notes = end_to_end(runner.records, setup_s)
        result["end_to_end"], result["notes"] = values, notes
        for name, unit in END_TO_END:
            if name in values:
                note = f"  ({notes[name]})" if name in notes else ""
                print(f"  {name:<16} {values[name]:.6g} {unit}{note}")
        units = dict(END_TO_END)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in GATED}
    write_json(out_path, result)

    guard_errors = unexercised(workload, tracer) if trace else []
    for msg in guard_errors:
        print(f"perfbench: error: {msg}", file=sys.stderr)
    if guard_errors:
        return 3
    print(json.dumps({"correct": not failures, "attempted": len(runner.records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
