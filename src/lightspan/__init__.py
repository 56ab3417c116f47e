"""lightspan: subsetwise additive spanners of weighted graphs with
Steiner-tree lightness certification and exact verification oracles."""

from .additive import (
    EpsilonSplit,
    GreedyState,
    Spanner,
    SpannerConstructionError,
    build_h0_budget,
    build_h0_eps,
    eps_spanner,
    four_eps_spanner,
    greedy_complete,
    one_level_oracle,
)
from .graph import (
    Beta,
    FixedPath,
    Graph,
    GraphError,
    PathTable,
    build_path_table,
    dump_instance,
    fixed_shortest_path,
    load_graph,
    load_instance,
)
from .generators import GeneratorSpec, generate
from .multilevel import (
    MultiLevelInstance,
    MultiLevelSolution,
    four_approx_baseline,
    round_levels,
    rounding_cost_ratio,
    rounding_ratio_analytic,
    solve_multilevel,
)
from .oracle import (
    VerificationReport,
    exact_multilevel,
    exact_one_level,
    subset_lightness,
    verify_spanner,
)
from .sampled import SampleConfig, choose_ell, prefix_suffix, wmax_spanner
from .steiner import (
    Backbone,
    SteinerTree,
    approx_steiner,
    build_backbone,
    exact_steiner,
)
from .transform import ScaledInstance, map_back, scaled_universe

__all__ = [
    "Backbone", "Beta", "EpsilonSplit", "FixedPath", "GeneratorSpec",
    "Graph", "GraphError", "GreedyState", "MultiLevelInstance",
    "MultiLevelSolution", "PathTable", "SampleConfig", "ScaledInstance",
    "Spanner", "SpannerConstructionError", "SteinerTree",
    "VerificationReport", "approx_steiner", "build_backbone",
    "build_h0_budget", "build_h0_eps", "build_path_table", "choose_ell",
    "dump_instance", "eps_spanner", "exact_multilevel",
    "exact_one_level", "exact_steiner", "fixed_shortest_path",
    "four_approx_baseline", "four_eps_spanner", "generate",
    "greedy_complete", "load_graph", "load_instance", "map_back",
    "one_level_oracle", "prefix_suffix", "round_levels",
    "rounding_cost_ratio", "rounding_ratio_analytic", "scaled_universe",
    "solve_multilevel", "subset_lightness", "verify_spanner", "wmax_spanner",
]
