"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them inline).

Everything here is seeded and self-contained; rational arithmetic is
used wherever a criterion demands zero tolerance.
"""

import itertools
import math
import random
import statistics
import time
from fractions import Fraction

from helpers import rand_connected_graph, subgraph_dist
from lightspan.additive import EpsilonSplit, eps_spanner, four_eps_spanner
from lightspan.bench import run_experiment, trend_config, trend_curve
from lightspan.generators import GeneratorSpec, generate
from lightspan.graph import Beta, Graph, build_path_table, canonical
from lightspan.multilevel import (
    MultiLevelInstance,
    _solve_with_q,
    four_approx_baseline,
    merge_bound_diagnostic,
    rounding_cost_ratio,
    rounding_ratio_analytic,
    solve_multilevel,
)
from lightspan.oracle import exact_multilevel, exact_one_level, verify_spanner
from lightspan.sampled import SampleConfig, wmax_spanner
from lightspan.steiner import approx_steiner, build_backbone, exact_steiner
from lightspan.transform import map_back, scaled_universe

HALF = Beta("relative", Fraction(1, 2))


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def certification_corpus(count: int):
    """Seeded random instances, n <= 100, |S| <= 12, mixed families."""
    eps_values = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    for i in range(count):
        rng = random.Random(9000 + i)
        n = rng.randint(10, 100)
        kind = ("erdos-renyi", "geometric", "grid")[i % 3]
        frac = min(1.0, rng.randint(3, 12) / n)
        g, s, _ = generate(GeneratorSpec(kind, n, seed=i,
                                         terminal_fraction=frac, exact=True))
        if len(s) > 12:
            s = frozenset(sorted(s)[:12])
        yield g, s, eps_values[i % 3]


def test_criterion_1_certification_500_instances_rational():
    t0 = time.perf_counter()
    checked = 0
    for g, s, eps in certification_corpus(500):
        split = EpsilonSplit.of(eps)
        sp1 = eps_spanner(g, s, split)
        sp2 = four_eps_spanner(g, s, split)
        assert verify_spanner(g, s, sp1.edges, Beta("relative", eps)).ok
        assert verify_spanner(g, s, sp2.edges,
                              Beta("relative", 4 + eps)).ok
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 500
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(1, f"500 instances x (eps, four-eps) certified exactly "
              f"in {elapsed:.1f}s (< 60s)")


def test_criterion_2_clique_tightness_exact_n_over_two():
    split = EpsilonSplit.of(Fraction(1, 2))
    for n in range(6, 21):
        g = Graph.from_edges(
            n, [(u, v, 1) for u, v in itertools.combinations(range(n), 2)])
        sp = eps_spanner(g, range(n), split)
        assert len(sp.edges) == n * (n - 1) // 2
        assert sp.subset_lightness == Fraction(n, 2), n
    report(2, "unit cliques n=6..20 at eps=1/2: subset-lightness = n/2 exactly")


def test_criterion_3_steiner_two_approximation():
    worst = Fraction(0)
    for seed in range(100):
        rng = random.Random(500 + seed)
        n = rng.randint(5, 10)
        g = rand_connected_graph(700 + seed, n, rng.randint(2, 8))
        k = rng.randint(2, min(6, n))
        terms = frozenset(rng.sample(range(n), k))
        approx = approx_steiner(g, terms)
        exact = exact_steiner(g, terms)
        assert exact.weight <= approx.weight <= 2 * exact.weight, seed
        if exact.weight > 0:
            worst = max(worst, Fraction(approx.weight) / Fraction(exact.weight))
    report(3, f"100 instances: weight(approx) <= 2 x weight(exact); "
              f"worst observed ratio {float(worst):.3f}")


def test_criterion_4_transform_distance_preservation_exact():
    checked = 0
    for i in range(200):
        rng = random.Random(2000 + i)
        n = rng.randint(8, 24)
        g = rand_connected_graph(3000 + i, n, rng.randint(n // 2, 2 * n))
        terms = sorted(rng.sample(range(n), rng.randint(2, min(6, n))))
        bb = build_backbone(g, terms, HALF)
        inst = scaled_universe(bb)
        table_g = bb.path_table

        # Scaling invariance: the condition holds in a random
        # subgraph iff it holds after scaling, both beta values.
        sub = [canonical(u, v) for u, v, _ in g.edges if rng.random() < 0.7]
        for beta_val in (Fraction(1, 2), Fraction(9, 2)):
            for (u, v) in table_g.pair_keys():
                d_sub = subgraph_dist(g, sub, u, v)
                lhs = d_sub <= table_g.dist(u, v) + beta_val * table_g.w(u, v)
                scaled = (d_sub * inst.sigma if d_sub != math.inf
                          else math.inf)
                rhs = scaled <= inst.sigma * (table_g.dist(u, v)
                                              + beta_val * table_g.w(u, v))
                assert lhs == rhs

        # Heavy-edge removal: terminal-pair distances stay sigma times
        # the host's (the scaled host's before the drop), exactly.
        t_after = build_path_table(inst.g_s, terms)
        for pair in t_after.pair_keys():
            assert t_after.dist(*pair) == inst.sigma * table_g.dist(*pair)

        # Subdivision: conserves tree weight, pieces <= 1, vertex bounds.
        v_h = inst.v_h
        assert sum(w for _, _, w in inst.h_prime.edges) == v_h
        assert all(w <= 1 for _, _, w in inst.h_prime.edges)
        assert inst.h_prime.n - g.n <= v_h

        # Splice: terminal distances preserved; provenance round-trips.
        t_gps = build_path_table(inst.g_prime_s, terms)
        for pair in t_after.pair_keys():
            assert t_after.dist(*pair) == t_gps.dist(*pair)
        assert map_back(inst, inst.h_prime_pairs()) == bb.h.edges
        checked += 1
    assert checked == 200
    report(4, "200 instances: scaling/heavy-drop/subdivision/splice "
              "distance checks all exact")


def test_criterion_5_wmax_validity_and_repair_rate():
    split = EpsilonSplit.of(Fraction(1, 2))
    beta = Beta("wmax", Fraction(9, 2))
    repairs = 0
    trials = 200
    for i in range(trials):
        rng = random.Random(4000 + i)
        n = rng.randint(16, 100)
        kind = ("erdos-renyi", "geometric")[i % 2]
        frac = min(1.0, rng.randint(4, 12) / n)
        g, s, _ = generate(GeneratorSpec(kind, n, seed=i,
                                         terminal_fraction=frac, exact=True))
        if len(s) > 12:
            s = frozenset(sorted(s)[:12])
        sp = wmax_spanner(g, s, SampleConfig(split, c=2.0, seed=1000 + i))
        assert verify_spanner(g, s, sp.edges, beta).ok, i
        if sp.meta["repaired"]:
            repairs += 1
    rate = repairs / trials
    assert rate <= 0.05, f"repair rate {rate:.1%}"
    report(5, f"wmax valid on all {trials} seeds; repair pass fired in "
              f"{repairs}/{trials} trials ({rate:.1%} <= 5%)")


def test_criterion_6_rounding_cost_monte_carlo():
    assert rounding_ratio_analytic(2) == 1 / math.log(2)
    assert abs(rounding_ratio_analytic(2) - 1.4427) < 5e-5
    assert abs(rounding_ratio_analytic(math.e) - 1.7183) < 5e-5
    details = []
    for p in (2.0, math.e, 4.0):
        est = rounding_cost_ratio(p, trials=10_000, seed=20_251)
        target = rounding_ratio_analytic(p)
        assert abs(est.mean - target) <= 3 * est.stderr, p
        details.append(f"p={p:.3f}: {est.mean:.4f} vs {target:.4f} "
                       f"(3se={3 * est.stderr:.4f})")
    report(6, "; ".join(details))


def tiny_multilevel_corpus(count: int):
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(5, 8)
        g = rand_connected_graph(seed + 5000, n, rng.randint(1, 4))
        if len(g.edges) > 12:
            continue
        k = rng.randint(1, 3)
        terms = sorted(rng.sample(range(n), rng.randint(2, min(4, n))))
        levels = {t: rng.randint(1, k) for t in terms}
        levels[terms[0]] = k
        out.append(MultiLevelInstance(g, levels, k, HALF))
    return out


def cached_exact_oracle(inst):
    cache = {}

    def oracle(g, terms):
        key = frozenset(terms)
        if key not in cache:
            cache[key] = exact_one_level(g, terms, inst.condition)
        return cache[key]

    return oracle


def test_criterion_7_merge_bound_deterministic():
    corpus = tiny_multilevel_corpus(50)
    for idx, inst in enumerate(corpus):
        oracle = cached_exact_oracle(inst)
        for p in (2, 4):
            diag = merge_bound_diagnostic(inst, p, 1, oracle)
            assert diag.merged_rounded_cost <= \
                diag.bound_factor * diag.opt_level_sum, (idx, p)
    report(7, "50 tiny instances x p in {2,4}: merged rounded cost within "
              "1/(1-1/p) of the exact per-level optimum sum, exactly")


def test_criterion_8_expected_ratio_e_and_baseline_4():
    corpus = tiny_multilevel_corpus(50)
    worst_ratio = 0.0
    for idx, inst in enumerate(corpus):
        oracle = cached_exact_oracle(inst)
        opt = float(exact_multilevel(inst).cost)
        rng = random.Random(777 + idx)
        costs = []
        for _ in range(1000):
            q = rng.random()
            while q == 0.0:
                q = rng.random()
            costs.append(float(_solve_with_q(inst, oracle, math.e, q).cost))
        mean = statistics.fmean(costs)
        se = statistics.stdev(costs) / math.sqrt(len(costs))
        assert mean <= math.e * opt + 3 * se, (idx, mean, opt)
        worst_ratio = max(worst_ratio, mean / opt)
        base = four_approx_baseline(inst, oracle)
        assert base.cost <= 4 * exact_multilevel(inst).cost, idx
    report(8, f"50 instances x 1000 q-draws: worst mean/OPT = "
              f"{worst_ratio:.3f} <= e; baseline always <= 4 x OPT")


def test_criterion_9_lightness_trend_nonincreasing():
    rows = run_experiment(trend_config())
    assert all(r.ok for r in rows)
    curve = trend_curve(rows)
    lines = []
    for family, pts in curve.items():
        normalized = [(s, light / s) for s, light in pts]
        tail = [v for s, v in normalized if s >= 8]
        assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:])), family
        lines.append(f"{family}: " + " ".join(
            f"{s}:{v:.3f}" for s, v in normalized))
    report(9, "lightness/|S| non-increasing beyond |S|=8 "
              "(empirical trend); " + "; ".join(lines))


def test_criterion_10_determinism():
    # seeded generation
    spec = GeneratorSpec("erdos-renyi", 30, seed=12, levels_k=2, exact=True)
    assert generate(spec) == generate(spec)

    g, s, levels = generate(spec)
    split = EpsilonSplit.of(Fraction(1, 2))

    # deterministic builders, exact and binary64
    a, b = eps_spanner(g, s, split), eps_spanner(g, s, split)
    assert a.edges == b.edges and a.weight == b.weight \
        and a.pair_report == b.pair_report
    a, b = four_eps_spanner(g, s, split), four_eps_spanner(g, s, split)
    assert a.edges == b.edges and a.weight == b.weight
    gf, sf, _ = generate(GeneratorSpec("erdos-renyi", 30, seed=12,
                                       exact=False))
    fa = eps_spanner(gf, sf, EpsilonSplit.of(0.5))
    fb = eps_spanner(gf, sf, EpsilonSplit.of(0.5))
    assert fa.edges == fb.edges and fa.weight == fb.weight

    # seeded randomized operations
    cfg = SampleConfig(split, c=2.0, seed=99)
    wa, wb = wmax_spanner(g, s, cfg), wmax_spanner(g, s, cfg)
    assert wa.edges == wb.edges and wa.meta["ell"] == wb.meta["ell"]

    inst = MultiLevelInstance(g, levels, 2, HALF)
    assert solve_multilevel(inst, seed=5) == solve_multilevel(inst, seed=5)

    # experiment rows identical apart from wall-clock timing
    config = {
        "instances": [{"kind": "grid", "n": 9, "seed": 3, "name": "g9"}],
        "algorithms": ["eps", "four-eps"],
        "epsilon": 0.5,
        "seeds": [0, 1],
        "exact": True,
    }
    strip = lambda rows: [
        (r.instance, r.algo, r.seed, r.n, r.s, r.edges, r.weight,
         r.lightness, r.ok, tuple(sorted(r.extra.items())))
        for r in rows
    ]
    assert strip(run_experiment(config)) == strip(run_experiment(config))
    report(10, "generation, builders (both arithmetics), sampled and "
               "multi-level solvers, and bench rows are bit-identical "
               "across runs (runtimes excluded)")
