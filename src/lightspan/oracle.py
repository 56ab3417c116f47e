"""Ground truth: exact spanner verification, subset-lightness against
Steiner lower bounds, and exhaustive optima at tiny scale.

Everything here that claims optimality (the exact_* operations) insists
on rational weights; binary64 inputs are rejected so that no optimality
statement ever rests on a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable

from .graph import (
    Beta,
    Graph,
    GraphError,
    Pair,
    PairBounds,
    PathTable,
    ShortestPaths,
    SubgraphAdjacency,
    Weight,
    _packed_slack,
    _relax,
    build_path_table,
    canonical,
    json_number,
    shortest_paths_adj,
)
from .steiner import (
    EXACT_STEINER_MAX_TERMINALS,
    Backbone,
    _UnionFind,
    exact_steiner,
    _is_tree_graph,
    _require_exact,
    _steiner_subtree_of_tree,
)

EXACT_ONE_LEVEL_MAX_EDGES = 20
EXACT_MULTILEVEL_MAX_EDGES = 12
EXACT_MULTILEVEL_MAX_LEVELS = 3
# Cap on the Dreyfus-Wagner work 3^(t-1) * n accepted inside
# subset_lightness before it falls back to the approximate tree.
_EXACT_LIGHTNESS_BUDGET = 600_000


class InstanceTooLargeError(GraphError):
    """Input exceeds the exhaustive-search caps."""


@dataclass(frozen=True)
class Violation:
    pair: Pair
    d_g: Weight
    d_h: Weight
    allowed: Weight
    excess: Weight


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[Violation, ...]
    max_excess: Weight

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "max_excess": json_number(self.max_excess),
            "violations": [
                {
                    "pair": list(v.pair),
                    "d_g": json_number(v.d_g),
                    "d_h": json_number(v.d_h),
                    "allowed": json_number(v.allowed),
                    "excess": json_number(v.excess),
                }
                for v in self.violations
            ],
        }


def verify_spanner(g: Graph, terminals: Iterable[int], edges: Iterable[Pair],
                   beta: Beta, rel_tol: float = 0.0) -> VerificationReport:
    """Check d_H(u,v) <= d_G(u,v) + slack for every terminal pair.

    The one check that takes a tolerance: rel_tol = 0 is exact, and the
    only value rational mode takes; on binary64 a finite rel_tol >= 0,
    such as `certify_tolerance(g)`, forgives a pair PairBounds flags when
    d_H - allowed <= rel_tol * max(1, |allowed|).  Else ValueError.
    It reads d_G only where `_slack_table` shows a verdict needs it.
    """
    ts = sorted(set(terminals))
    for t in ts:
        g.check_vertex(t)
    sub = SubgraphAdjacency(g, edges)  # raises UnknownEdgeError on foreign edges
    if not 0 <= rel_tol < math.inf:  # also refuses nan
        raise ValueError(f"rel_tol {rel_tol} is not finite and nonnegative")
    if rel_tol and g.is_exact:
        raise ValueError("exact (rational) checks take no tolerance; "
                         f"got rel_tol {rel_tol}")
    if len(ts) < 2:
        return VerificationReport(True, (), 0)
    bounds = PairBounds(_slack_table(g, ts, sub, beta), beta)
    violations = []
    for p in bounds.violations(sub):
        d_g, d_h = bounds.table.dist(*p), sub.distance(*p)
        a = d_g + bounds.slack(*p)  # a flagged pair is settled: exact labels
        excess = math.inf if d_h == math.inf else d_h - a  # inf - Fraction overflows
        if not (rel_tol and excess <= rel_tol * max(1.0, abs(a))):
            violations.append(Violation(p, d_g, d_h, a, excess))
    max_excess = max((v.excess for v in violations), default=0)
    return VerificationReport(not violations, tuple(violations), max_excess)


def _slack_table(g: Graph, ts: list[int], sub: SubgraphAdjacency,
                 beta: Beta) -> PathTable:
    """A table of sorted terminals ts on which `PairBounds` flags what a
    full fixed-path table would (README: the slack-first check).  Target
    v > u of source u has a lower bound s_v on its packed slack: F in wmax
    mode, else beta * max(light(u), light(v)) floored, light(x) being G's
    lightest edge at x.  u's limit is the least d with d + s_v >= d_H(v) for
    every target (inf if one is unreached).  u reads a `g._sssp_memo` search
    stopped at or past it, or, if it is > 0, stops its own there (kept if a
    kernel search: relative mode needs W labels; wmax runs `_relax`).  In
    wmax mode each handled source becomes a mark, and a source whose pairs
    `_proven` settles from the last m // t marks (m edges, t targets) is
    left out of the table, with no search at all."""
    value, f = _packed_slack(g, beta)
    denom, adj = g._packed
    p, q = (value, 1) if denom is None else (value.numerator, value.denominator)
    sources, memo, low, marks = {}, g._sssp_memo, None, []
    # A binary64 label is within n * 2**-53 of its real distance, relatively:
    # three such factors in a bound and 8 roundings evaluating it (README).
    err = 0 if denom is not None else (3 * g.n + 8) * 2.0 ** -53
    for i, u in enumerate(ts[:-1]):
        targets = ts[i + 1:]
        if marks and (k := len(g.edges) // len(targets)) and _proven(
                marks[-k:], u, targets, f, err):
            continue
        if (kept := memo.get(u, (-1,)))[0] == math.inf:  # serves any limit
            sources[u], stop = kept[1], math.inf
        else:
            live, limit = sub.distances(u), 0
            if f is not None:  # one slack F: the largest d_H sets the limit
                targets = [max(targets, key=lambda v: math.inf if live[v] is None else live[v])]
            else:  # s_v = max(low[u], low[v]): flooring and rounding are monotone
                low = low or {t: value * m if denom is None else p * m // q
                              for t in ts for m in [min((w for _, w in adj[t]), default=0)]}
            for v in targets:
                if live[v] is None:  # inf - s overflows on huge exact weights
                    limit = math.inf
                    break
                d_h, s = live[v], f if f is not None else max(low[u], low[v])
                t = d_h - s
                while t + s < d_h:  # binary64 rounding
                    t = math.nextafter(t, math.inf)
                limit = max(limit, t)
            if kept[0] >= limit:
                sources[u], stop = kept[1], kept[0]
            elif f is None and limit > 0:
                memo[u] = limit, shortest_paths_adj(adj, u, denom, limit)
                sources[u] = memo[u][1]
            else:  # wmax distances; no search at all if every target holds
                dist = [None] * g.n
                if limit > 0:
                    dist[u] = 0
                    _relax(adj, dist, [(0, u)], limit)
                sources[u], stop = ShortestPaths(u, dist, None, None, denom), limit
        if f is not None:
            marks.append((sub.distances(u), sources[u]._dist, stop))
    return PathTable(frozenset(ts), sources, g)


def _proven(marks: list, u: int, targets: list[int], f: Weight, err: Weight) -> bool:
    """Whether every pair (u, v) meets d_H <= d_G + F by the marks' labels
    alone (README: the slack-first check).  A mark (h, d, stop) is a
    handled source r with its live d_H list h and its packed G labels d,
    each exact below stop and else at least stop.  By the triangle
    inequality UB = min_r h[u] + h[v] >= d_H(u, v) and LB = max_r
    |d[v] - d[u]| (stop - the exact label, if one is not) <= d_G(u, v); a
    pair is proven when UB <= LB + F.  Exact labels compare as integers
    (err = 0); on binary64 every operand, F too, yields the share err of
    its size, so rounding cannot prove a failing pair."""
    near = []
    for h, d, stop in marks:
        if (hu := h[u]) is not None:
            du = d[u]
            near.append((h, hu, d, du if du is not None and du < stop else None,
                         None if stop == math.inf else stop))
    if not near:
        return False
    fe = f - err * f
    for v in targets:
        ub = None
        for h, hu, _, _, _ in near:
            if (hv := h[v]) is None:
                return False  # r reaches u in H but not v: d_H(u, v) is inf
            if ub is None or hu + hv < ub:
                ub = hu + hv
        ub += err * ub
        if ub <= fe:  # LB >= 0
            continue
        for _, _, d, du, stop in near:
            if (dv := d[v]) is not None and (stop is None or dv < stop):
                if du is not None:
                    lb = abs(dv - du) - err * (dv + du)
                elif stop is not None:
                    lb = stop - dv - err * (stop + dv)
                else:
                    continue
            elif du is not None and stop is not None:
                lb = stop - du - err * (stop + du)
            else:
                continue
            if ub <= lb + fe:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class LightnessResult:
    """Subset-lightness with the provenance of its denominator."""

    ratio: Weight | None
    mode: str  # "exact" | "approx" | "degenerate"
    steiner_weight: Weight


def subset_lightness(backbone: Backbone, spanner_weight: Weight) -> LightnessResult:
    """Spanner weight over the weight of the Steiner tree on S u S*.

    The denominator is exact (Dreyfus-Wagner, or the minimal subtree for
    tree hosts) whenever that is affordable, otherwise the backbone's
    2-approximate tree T with the mode recorded.
    """
    g, s_prime = backbone.path_table.g, backbone.s_prime
    t = len(s_prime)
    if _is_tree_graph(g):
        denom = _steiner_subtree_of_tree(g, sorted(s_prime)).weight
        mode = "exact"
    elif (g.is_exact and t <= EXACT_STEINER_MAX_TERMINALS
          and 3 ** max(t - 1, 0) * g.n <= _EXACT_LIGHTNESS_BUDGET):
        denom = exact_steiner(g, s_prime).weight
        mode = "exact"
    else:
        denom = backbone.t.weight
        mode = "approx"
    if not denom > 0:
        return LightnessResult(None, "degenerate", denom)
    if isinstance(spanner_weight, float) or isinstance(denom, float):
        ratio: Weight = spanner_weight / denom
    else:
        ratio = Fraction(spanner_weight) / Fraction(denom)
    return LightnessResult(ratio, mode, denom)


def _connects(n: int, edge_list: list[Pair], active: int,
              terminals: list[int]) -> bool:
    """Union-find check that the selected+undecided edges can join terminals."""
    uf = _UnionFind(range(n))
    for idx, (u, v) in enumerate(edge_list):
        if active & (1 << idx):
            uf.union(u, v)
    root = uf.find(terminals[0])
    return all(uf.find(t) == root for t in terminals[1:])


def _feasible(bounds: PairBounds, edges: Iterable[Pair]) -> bool:
    """The exact spanner condition on the bounds' pairs, in sorted order,
    stopping at the first failing pair."""
    sub = SubgraphAdjacency(bounds.table.g, edges)
    return all(bounds.holds(sub, *p) for p in bounds.table.pair_keys())


def exact_one_level(g: Graph, terminals: Iterable[int],
                    beta: Beta) -> frozenset[Pair]:
    """Minimum-total-weight edge subset satisfying the spanner condition.

    Weight-ordered depth-first subset search; a branch is pruned as soon
    as its committed weight reaches the incumbent or it can no longer
    connect the terminals.
    """
    _require_exact(g)
    if len(g.edges) > EXACT_ONE_LEVEL_MAX_EDGES:
        raise InstanceTooLargeError(
            f"{len(g.edges)} edges exceed the cap {EXACT_ONE_LEVEL_MAX_EDGES}")
    ts = sorted(set(terminals))
    for t in ts:
        g.check_vertex(t)
    if len(ts) < 2:
        return frozenset()
    bounds = PairBounds(build_path_table(g, ts), beta)
    ordered = sorted(g.edges, key=lambda e: (e[2], e[0], e[1]), reverse=True)
    pairs = [canonical(u, v) for u, v, _ in ordered]
    weights = [w for _, _, w in ordered]
    m = len(pairs)
    full = (1 << m) - 1

    best_weight = g.total_weight
    best_set = frozenset(pairs)

    def dfs(idx: int, cur_weight: Weight, chosen_mask: int) -> None:
        nonlocal best_weight, best_set
        if cur_weight >= best_weight:
            return
        if idx == m:
            edges = [pairs[i] for i in range(m) if chosen_mask >> i & 1]
            if _feasible(bounds, edges):
                best_weight = cur_weight
                best_set = frozenset(edges)
            return
        # Exclude this edge first so light subsets are explored early,
        # but only if the terminals can still be connected without it.
        undecided_after = full & ~((1 << (idx + 1)) - 1)
        if _connects(g.n, pairs, chosen_mask | undecided_after, ts):
            dfs(idx + 1, cur_weight, chosen_mask)
        dfs(idx + 1, cur_weight + weights[idx], chosen_mask | (1 << idx))

    dfs(0, 0, 0)
    return best_set


@dataclass(frozen=True)
class ExactMultiLevel:
    edge_sets: tuple[frozenset[Pair], ...]  # E_1 down to E_k, nested
    cost: Weight


def exact_multilevel(inst) -> ExactMultiLevel:
    """Minimum-cost nested edge sets, exhaustive over per-edge top levels.

    Each edge is assigned a top level; E_i collects the edges of top
    level >= i, which makes the nesting automatic, and the cost equals
    the sum over levels of weight(E_i).  A subset-minimum dynamic program
    over edge masks finds the optimum.
    """
    g: Graph = inst.g
    _require_exact(g)
    k: int = inst.k
    if len(g.edges) > EXACT_MULTILEVEL_MAX_EDGES or k > EXACT_MULTILEVEL_MAX_LEVELS:
        raise InstanceTooLargeError(
            f"exact multilevel capped at {EXACT_MULTILEVEL_MAX_EDGES} edges "
            f"and {EXACT_MULTILEVEL_MAX_LEVELS} levels")
    pairs = [canonical(u, v) for u, v, _ in g.edges]
    weights = [w for _, _, w in g.edges]
    m = len(pairs)
    n_masks = 1 << m
    mask_weight: list[Weight] = [0] * n_masks
    for mask in range(1, n_masks):
        low = mask & -mask
        mask_weight[mask] = mask_weight[mask ^ low] + weights[low.bit_length() - 1]

    level_terms = [inst.terminal_set(i) for i in range(1, k + 1)]
    bounds = {terms: PairBounds(build_path_table(g, terms), inst.condition)
              for terms in level_terms if len(terms) >= 2}

    @cache
    def feasible(mask: int, terms: frozenset[int]) -> bool:
        edge_list = [pairs[i] for i in range(m) if mask & (1 << i)]
        ts = sorted(terms)
        return len(ts) < 2 or (_connects(g.n, edge_list, (1 << len(edge_list)) - 1, ts)
                               and _feasible(bounds[terms], edge_list))

    # cost_up[A] = cheapest cost of levels i..k when E_i = A, computed
    # top-down; the subset-minimum transform propagates the best nested
    # choice from the level above.
    cost_up: list[Weight] = [
        mask_weight[mask] if feasible(mask, level_terms[k - 1]) else math.inf
        for mask in range(n_masks)
    ]
    choice: list[list[int]] = []
    for i in range(k - 1, 0, -1):
        best = list(cost_up)
        arg = list(range(n_masks))
        for b in range(m):
            bit = 1 << b
            for mask in range(n_masks):
                if mask & bit and best[mask ^ bit] < best[mask]:
                    best[mask] = best[mask ^ bit]
                    arg[mask] = arg[mask ^ bit]
        nxt: list[Weight] = []
        for mask in range(n_masks):
            if best[mask] < math.inf and feasible(mask, level_terms[i - 1]):
                nxt.append(mask_weight[mask] + best[mask])
            else:
                nxt.append(math.inf)
        cost_up = nxt
        choice.append(arg)

    best_mask = min(range(n_masks), key=lambda mk: (cost_up[mk], mk))
    if cost_up[best_mask] == math.inf:
        raise GraphError("no feasible multilevel solution (disconnected host?)")
    masks = [best_mask]
    for arg in reversed(choice):
        masks.append(arg[masks[-1]])
    edge_sets = tuple(
        frozenset(pairs[i] for i in range(m) if mask & (1 << i))
        for mask in masks
    )
    return ExactMultiLevel(edge_sets, cost_up[best_mask])
