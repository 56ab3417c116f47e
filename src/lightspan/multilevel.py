"""Multi-level spanners: nested edge sets, one per terminal level.

Terminal levels are rounded up onto the grid p^(q+i); one single-level
spanner is built per distinct rounded level and the solutions are merged
top-down so lower levels contain every higher one.  With q drawn
uniformly from (0, 1] and p = e this is an e-approximation in
expectation; p = 2 with q fixed at 1 reproduces the deterministic
4-approximation baseline.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from .additive import one_level_oracle
from .graph import Beta, Graph, Pair, Weight

if TYPE_CHECKING:
    from typing import Callable

    # Type checkers only: typing caches subscripted generics, and at run
    # time that cache would keep this import's Graph class (and all of
    # graph.py) alive after lightspan is imported afresh.
    Oracle = Callable[[Graph, frozenset[int]], frozenset[Pair]]


@dataclass(frozen=True)
class MultiLevelInstance:
    """A graph with integer terminal levels 1..k (absent vertices: level 0).

    The level sets S_i = {v : level(v) >= i} are nested by construction;
    S_k must be nonempty, so k equals the highest assigned level.
    """

    g: Graph
    levels: dict[int, int] = field(compare=False)
    k: int
    condition: Beta

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        for v, lvl in self.levels.items():
            self.g.check_vertex(v)
            if not 1 <= lvl <= self.k:
                raise ValueError(f"level {lvl} of vertex {v} outside 1..{self.k}")
        if not any(lvl >= self.k for lvl in self.levels.values()):
            raise ValueError("S_k is empty: no terminal at the top level")

    def terminal_set(self, i: int) -> frozenset[int]:
        return frozenset(v for v, lvl in self.levels.items() if lvl >= i)


@dataclass(frozen=True)
class RoundedGroup:
    """One distinct rounded level with its cumulative terminal set."""

    value: Weight
    terminals: frozenset[int]


@dataclass(frozen=True)
class MultiLevelSolution:
    """Nested edge sets E_1 >= E_2 >= ... >= E_k with level-summed cost."""

    edge_sets: tuple[frozenset[Pair], ...]
    cost: Weight
    q_used: float
    rounded_levels: tuple[Weight, ...]

    @cached_property
    def nesting_ok(self) -> bool:
        return all(self.edge_sets[i + 1] <= self.edge_sets[i]
                   for i in range(len(self.edge_sets) - 1))


def _round_one(level: int, p: float, q: float) -> Weight:
    # Integral p and q admit an exact integer grid (needed for the exact
    # merge-bound diagnostic); otherwise the grid is binary64.
    if float(p).is_integer() and float(q).is_integer():
        p, q = int(p), int(q)
    i = 0
    while p ** (q + i) < level:
        i += 1
    return p ** (q + i)


def round_levels(levels: dict[int, int], p: float, q: float
                 ) -> list[RoundedGroup]:
    """Round each terminal level up to the nearest p^(q+i), grouped.

    Groups come back ascending by rounded value; each group's terminal
    set is cumulative (every terminal rounded to that value or higher),
    which preserves the nesting of the original level sets.
    """
    if not 1 < p < math.inf:
        raise ValueError("p must exceed 1 and be finite")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    rounded = {v: _round_one(lvl, p, q) for v, lvl in levels.items() if lvl >= 1}
    return [RoundedGroup(value, frozenset(v for v, rv in rounded.items()
                                          if rv >= value))
            for value in sorted(set(rounded.values()))]


def _merge_groups(g: Graph, groups: list[RoundedGroup], oracle: Oracle
                  ) -> list[frozenset[Pair]]:
    """Oracle solution per group, merged downward from the top level."""
    merged: list[frozenset[Pair]] = [frozenset()] * len(groups)
    acc: frozenset[Pair] = frozenset()
    for j in range(len(groups) - 1, -1, -1):
        acc = acc | oracle(g, groups[j].terminals)
        merged[j] = acc
    return merged


def _expand_to_levels(groups: list[RoundedGroup],
                      merged: list[frozenset[Pair]], k: int
                      ) -> tuple[frozenset[Pair], ...]:
    # Original level i is served by the smallest rounded level >= i.
    out = []
    for i in range(1, k + 1):
        j = next(idx for idx, grp in enumerate(groups) if grp.value >= i)
        out.append(merged[j])
    return tuple(out)


def _cost(g: Graph, edge_sets: Iterable[frozenset[Pair]]) -> Weight:
    return sum((g.weight_sum(es) for es in edge_sets), 0)


def solve_multilevel(inst: MultiLevelInstance, oracle: Oracle | None = None,
                     p: float = math.e, seed: int = 0) -> MultiLevelSolution:
    """Randomized rounding solution: q uniform in (0,1], one oracle call
    per rounded group, merged top-down and expanded to levels 1..k."""
    rng = random.Random(seed)
    q = rng.random()
    while q == 0.0:
        q = rng.random()
    return _solve_with_q(inst, oracle, p, q)


def four_approx_baseline(inst: MultiLevelInstance,
                         oracle: Oracle | None = None) -> MultiLevelSolution:
    """Deterministic baseline: grid 2, 4, 8, ... (p = 2, q = 1)."""
    return _solve_with_q(inst, oracle, 2.0, 1.0)


def _solve_with_q(inst: MultiLevelInstance, oracle: Oracle | None,
                  p: float, q: float) -> MultiLevelSolution:
    oracle = oracle or one_level_oracle(inst.condition)
    groups = round_levels(inst.levels, p, q)
    merged = _merge_groups(inst.g, groups, oracle)
    edge_sets = _expand_to_levels(groups, merged, inst.k)
    return MultiLevelSolution(
        edge_sets=edge_sets,
        cost=_cost(inst.g, edge_sets),
        q_used=q,
        rounded_levels=tuple(grp.value for grp in groups),
    )


@dataclass(frozen=True)
class RoundingEstimate:
    mean: float
    stderr: float
    trials: int


def rounding_ratio_analytic(p: float) -> float:
    """Expected rounding-cost inflation (p - 1) / ln p."""
    return (p - 1) / math.log(p)


def rounding_cost_ratio(p: float, trials: int, seed: int = 0
                        ) -> RoundingEstimate:
    """Monte-Carlo estimate of the expected rounding-cost inflation.

    An edge whose top level sits at p^(s+i) is rounded to p^(q+i) when
    s <= q and to p^(q+i+1) otherwise, inflating its cost by p^(q-s) or
    p^(q-s+1); the expectation over uniform q is (p-1)/ln p regardless
    of s.
    """
    if not 1 < p < math.inf:
        raise ValueError("p must exceed 1 and be finite")
    rng = random.Random(seed)
    vals = []
    for _ in range(trials):
        s = 1.0 - rng.random()
        q = 1.0 - rng.random()
        vals.append(p ** (q - s) if s <= q else p ** (q - s + 1))
    mean = statistics.fmean(vals)
    stderr = statistics.stdev(vals) / math.sqrt(trials) if trials > 1 else 0.0
    return RoundingEstimate(mean, stderr, trials)


@dataclass(frozen=True)
class MergeDiagnostic:
    merged_rounded_cost: Weight
    opt_level_sum: Weight
    bound_factor: float

    @property
    def ok(self) -> bool:
        return self.merged_rounded_cost <= self.bound_factor * self.opt_level_sum


def merge_bound_diagnostic(inst: MultiLevelInstance, p: float, q: float,
                           oracle: Oracle) -> MergeDiagnostic:
    """Check the merge bound: rounded merged cost vs (1/(1-1/p)) * sum OPT_s.

    The merged cost charges every edge its highest rounded level; the
    optimum side sums, over integer levels s up to the top grid value,
    the given oracle's cost on the rounded instance's level-s terminals.
    Meaningful with an exact oracle and an integral grid (p, q integers
    keep the arithmetic exact).
    """
    groups = round_levels(inst.levels, p, q)
    merged = _merge_groups(inst.g, groups, oracle)
    g = inst.g
    seen: set[Pair] = set()
    merged_cost: Weight = 0
    for j in range(len(groups) - 1, -1, -1):
        for e in merged[j]:
            if e not in seen:
                seen.add(e)
                merged_cost = merged_cost + groups[j].value * g.weight_of(*e)
    top = groups[-1].value
    opt_sum: Weight = 0
    cache: dict[frozenset[int], Weight] = {}
    for s in range(1, int(math.floor(top)) + 1):
        terms = frozenset(v for grp in groups if grp.value >= s
                          for v in grp.terminals)
        if len(terms) < 2:
            continue
        if terms not in cache:
            cache[terms] = g.weight_sum(oracle(g, terms))
        opt_sum = opt_sum + cache[terms]
    return MergeDiagnostic(merged_cost, opt_sum, 1 / (1 - 1 / p))
