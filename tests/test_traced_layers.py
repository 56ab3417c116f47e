"""The builders call the entry points a traced benchmark run requires.

A traced run of `perfbench/run.py` fails when a layer its workload lists
as exercised (`perfbench/workloads.py`) records no call.  Every workload
lists `transform.scaled_universe`, and `wmax-sampled` also lists
`sampled.choose_ell`.  These tests install the benchmark's own tracer
around small builds, so a builder that stops calling either entry point
fails here, not first in a traced run.
"""

import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lightspan import additive, multilevel, sampled, steiner
from lightspan.additive import EpsilonSplit
from lightspan.generators import GeneratorSpec, generate
from lightspan.graph import Beta
from lightspan.multilevel import MultiLevelInstance
from lightspan.sampled import SampleConfig
from lightspan.steiner import build_backbone
from lightspan.transform import scaled_universe

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """A perfbench module loaded from its file, under a private name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations here
    spec.loader.exec_module(mod)
    return mod


tracer = load_perfbench("tracer")
workloads = load_perfbench("workloads")

HALF = EpsilonSplit.of(Fraction(1, 2))


def traced(build):
    """Run build under the benchmark's tracer; returns the tracer."""
    t = tracer.Tracer()
    t.install()
    try:
        build()
    finally:
        t.restore()
    return t


def builds():
    """(name, build, layers it must record) for each builder."""
    g, terms, levels = generate(GeneratorSpec("erdos-renyi", n=30, seed=4,
                                              levels_k=2, exact=True))
    gf, tf, _ = generate(GeneratorSpec("grid", n=36, seed=1, exact=False))
    inst = MultiLevelInstance(g, levels, max(levels.values()),
                              Beta("relative", HALF.eps))
    universe = {"transform.scaled_universe"}
    return [
        ("eps", lambda: additive.eps_spanner(g, terms, HALF), universe),
        ("four-eps", lambda: additive.four_eps_spanner(g, terms, HALF),
         universe),
        ("wmax", lambda: sampled.wmax_spanner(
            gf, tf, SampleConfig(EpsilonSplit.of(0.5), seed=3)),
         universe | {"sampled.choose_ell"}),
        ("multilevel", lambda: multilevel.solve_multilevel(inst, seed=1),
         universe),
    ]


def test_workloads_still_require_these_layers():
    for name, make in workloads.WORKLOADS.items():
        exercised = make(1).exercised
        assert "transform.scaled_universe" in exercised, name
        if name == "wmax-sampled":
            assert "sampled.choose_ell" in exercised


BUILDS = builds()


@pytest.mark.parametrize("name,build,layers", BUILDS,
                         ids=[name for name, *_ in BUILDS])
def test_builder_records_required_layers(name, build, layers):
    t = traced(build)
    calls = t.call_counts()
    assert all(calls[layer] >= 1 for layer in layers), (name, calls)


def test_traced_universe_reports_the_spliced_graph():
    # The tracer reads g'_s of each universe the builder made, after its
    # span: the universe builds it then, equal to a fresh universe's.
    g, terms, _ = generate(GeneratorSpec("geometric", n=30, seed=2))
    t = traced(lambda: additive.eps_spanner(g, terms, HALF))
    bb = build_backbone(g, terms, Beta("relative", HALF.eps))
    assert t.samples["spliced"] == [scaled_universe(bb).g_prime_s.n]


def test_exact_lightness_records_one_exact_steiner_call():
    # The contraction hands the smaller program to a private helper, so
    # the traced entry point is entered once per exact denominator.
    g, terms, _ = generate(GeneratorSpec("erdos-renyi", n=30, seed=1,
                                         exact=True))
    bb = build_backbone(g, terms, Beta("relative", HALF.eps))
    contracted, *_ = steiner._contract_terminal_edges(g, sorted(bb.s_prime))
    assert contracted
    built = []
    t = traced(lambda: built.append(additive.eps_spanner(g, terms, HALF)))
    assert built[0].meta["lightness_mode"] == "exact"
    assert t.call_counts()["steiner.exact_steiner"] == 1


def test_perfbench_selftest_passes():
    # The harness checks (isolation, determinism, failure accounting and
    # the tracer's wrapping of entry points such as greedy_complete) run
    # in their own process, as `python3 perfbench/selftest.py` does.
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
