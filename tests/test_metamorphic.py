"""Scaling every weight leaves every build unchanged.

The constructions work in the scaled universe, whose weights are the
host's times |V_H| / weight(H), and every lightness is a ratio of host
weights.  So multiplying every exact weight by a positive rational k
changes no edge set and no lightness, and scales a multi-level cost by
k.  On binary64 graphs a power of two scales every product and quotient
without rounding, so the same holds there.
"""

from fractions import Fraction

import pytest

from lightspan.additive import EpsilonSplit, eps_spanner, four_eps_spanner
from lightspan.generators import GeneratorSpec, generate
from lightspan.graph import Beta, Graph
from lightspan.multilevel import MultiLevelInstance, four_approx_baseline
from lightspan.sampled import SampleConfig, wmax_spanner

FAMILIES = ("erdos-renyi", "geometric", "grid")
SEEDS = (1, 2, 3)


def scaled(g: Graph, k) -> Graph:
    return Graph.from_edges(g.n, [(u, v, w * k) for u, v, w in g.edges])


def one_level_builds(g, terminals, split, seed):
    """(name, edges, lightness) of each one-level builder on g."""
    out = [(name, build(g, terminals, split))
           for name, build in (("eps", eps_spanner), ("four-eps", four_eps_spanner))]
    out.append(("wmax", wmax_spanner(g, terminals, SampleConfig(split, seed=seed))))
    return [(name, sp.edges, sp.subset_lightness) for name, sp in out]


def multilevel_build(g, levels, eps):
    sol = four_approx_baseline(MultiLevelInstance(
        g, levels, max(levels.values()), Beta("relative", eps)))
    return sol.edge_sets, sol.cost


@pytest.mark.parametrize("kind", FAMILIES)
@pytest.mark.parametrize("exact,factors", [
    (True, (Fraction(3, 7), 1000, Fraction(1, 1024))),
    (False, (1024.0, 1 / 1024)),
], ids=["exact", "binary64"])
def test_scaling_all_weights_changes_no_output(kind, exact, factors):
    eps = Fraction(1, 2) if exact else 0.5
    split = EpsilonSplit.of(eps)
    for seed in SEEDS:
        g, terminals, levels = generate(GeneratorSpec(kind, n=30, seed=seed,
                                                      levels_k=3, exact=exact))
        one_level = one_level_builds(g, terminals, split, seed)
        edge_sets, cost = multilevel_build(g, levels, eps)
        for k in factors:
            gk = scaled(g, k)
            assert one_level_builds(gk, terminals, split, seed) == one_level, (seed, k)
            assert multilevel_build(gk, levels, eps) == (edge_sets, cost * k), (seed, k)
