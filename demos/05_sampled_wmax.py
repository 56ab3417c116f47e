"""The randomized +(4+eps)*W_max construction.

Pairs missing less than ell of path weight get patched outright; heavier
pairs only get a prefix and a suffix, and a sampled subset of backbone
vertices is glued together with a +eps*W(.,.) spanner so that, with high
probability, some sampled vertex sits within W_max of each prefix and
suffix.  A deterministic repair pass re-certifies every pair at the end,
so the output is always valid; how often repair fires measures how sharp
the probabilistic argument is in practice.
"""

from fractions import Fraction

from lightspan import (
    Beta,
    EpsilonSplit,
    GeneratorSpec,
    SampleConfig,
    generate,
    verify_spanner,
    wmax_spanner,
)

split = EpsilonSplit.of(Fraction(1, 2))
g, terminals, _ = generate(GeneratorSpec("erdos-renyi", 60, seed=8,
                                         terminal_fraction=0.15))
print(f"instance: n = {g.n}, m = {len(g.edges)}, |S| = {len(terminals)}, "
      f"W_max = {g.w_max}")

runs = [wmax_spanner(g, terminals, SampleConfig(split, c=2.0, seed=seed))
        for seed in range(10)]
ell = runs[0].meta["ell"]  # choose_ell's fixed point for seed 0
print(f"threshold search: ell = {ell if ell is None else round(ell, 4)}")

print("\nten seeded runs (c = 2):")
repair_count = 0
for seed, sp in enumerate(runs):
    rep = verify_spanner(g, terminals, sp.edges,
                         Beta("wmax", 4 + split.eps))
    repaired = len(sp.meta["repaired"])
    repair_count += bool(repaired)
    print(f"  seed {seed}: edges {len(sp.edges):3d}, "
          f"weight {float(sp.weight):8.2f}, sample {sp.meta['sample_size']:2d}, "
          f"repairs {repaired}, certified {rep.ok}")
print(f"\nrepair pass fired in {repair_count}/10 runs "
      "(the sampling argument promises it is rare)")

# The fallback: when the fixed point has no room, the +eps*W spanner is a
# valid +(4+eps)*W_max spanner since W(u, v) <= W_max.
g2, s2, _ = generate(GeneratorSpec("erdos-renyi", 20, seed=5,
                                   terminal_fraction=1.0))
sp2 = wmax_spanner(g2, s2, SampleConfig(split, c=0.01, seed=1))
print(f"\ndegenerate threshold on a dense terminal set: "
      f"fallback = {sp2.meta['fallback']}, still certified "
      f"{verify_spanner(g2, s2, sp2.edges, Beta('wmax', 4 + split.eps)).ok}")
