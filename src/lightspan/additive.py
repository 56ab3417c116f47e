"""Deterministic subsetwise additive spanners.

Two constructions share one greedy completion loop over the spliced
scaled graph: the +eps*W(.,.) spanner seeds the loop with one sub-unit
edge per S' vertex, the +(4+eps)*W(.,.) spanner seeds it with a weight
budget of cheap edges around every terminal.  Pairs are processed in
nondecreasing order of the maximum edge weight on their fixed path, ties
by shorter distance; a pair whose current detour exceeds its allowance
gets all missing fixed-path edges inserted.  The result is mapped back
to the input graph, joined with the backbone tree, and certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .graph import (
    Beta,
    Graph,
    Pair,
    SubgraphAdjacency,
    UnknownEdgeError,
    Weight,
    build_path_table,
    canonical,
    shortest_paths,
)
from .oracle import LightnessResult, subset_lightness
from .steiner import Backbone, build_backbone
from .transform import ScaledInstance, map_back, scaled_universe


class SpannerConstructionError(RuntimeError):
    """A finished spanner failed its own certification; internal bug."""


@dataclass(frozen=True)
class EpsilonSplit:
    """Total additive allowance eps split as eps = 2*eps1 + eps2.

    The split only matters for set-off/improvement instrumentation; the
    construction itself uses the total.
    """

    eps: Weight
    eps1: Weight
    eps2: Weight

    def __post_init__(self) -> None:
        if not (self.eps > 0 and self.eps1 > 0 and self.eps2 > 0):
            raise ValueError("all epsilon shares must be positive")
        if 2 * self.eps1 + self.eps2 != self.eps:
            raise ValueError("split must satisfy 2*eps1 + eps2 = eps")

    @classmethod
    def of(cls, eps: Weight) -> "EpsilonSplit":
        """Default split eps1 = eps/4, eps2 = eps/2 (exact for binary64 too)."""
        if isinstance(eps, (int, Fraction)) and not isinstance(eps, bool):
            eps = Fraction(eps)
        return cls(eps, eps / 4, eps / 2)


@dataclass(frozen=True)
class PairCheck:
    """Certification record for one terminal pair, in host-graph units."""

    d_g: Weight
    d_h: Weight
    w: Weight
    slack: Weight


@dataclass(frozen=True)
class Spanner:
    """A certified spanner: edge subset of the host plus its report."""

    edges: frozenset[Pair]
    weight: Weight
    pair_report: dict[Pair, PairCheck] = field(compare=False)
    subset_lightness: Weight | None
    meta: dict = field(compare=False)


@dataclass(frozen=True)
class InstrumentationReport:
    """Set-off / improvement accounting of one greedy run (analysis aid)."""

    split: EpsilonSplit
    setoffs: dict[tuple[int, int], int] = field(compare=False)
    improvements: dict[tuple[int, int], int] = field(compare=False)
    event_failures: tuple = ()

    def improvement_budget(self) -> int:
        return math.ceil(4 * self.split.eps1 / self.split.eps2) + 1

    def max_events_per_pair(self) -> int:
        keys = set(self.setoffs) | set(self.improvements)
        return max((self.setoffs.get(k, 0) + self.improvements.get(k, 0)
                    for k in keys), default=0)


@dataclass(frozen=True)
class GreedyState:
    edges: frozenset[Pair]
    added: frozenset[Pair]
    insertions: int
    instrumentation: InstrumentationReport | None = None


def build_h0_eps(inst: ScaledInstance, s_prime: Iterable[int]) -> frozenset[Pair]:
    """For each S' vertex, its lightest incident scaled edge when < 1 unit."""
    adj = inst.g_s.adjacency
    out: set[Pair] = set()
    for v in sorted(set(s_prime)):
        best: tuple[Weight, int] | None = None
        for nbr, w in adj[v]:
            if best is None or (w, nbr) < best:
                best = (w, nbr)
        if best is not None and best[0] < 1:
            out.add(canonical(v, best[1]))
    return frozenset(out)


def build_h0_budget(inst: ScaledInstance, terminals: Iterable[int],
                    budget: Weight) -> frozenset[Pair]:
    """Cheapest incident scaled edges per terminal up to a weight budget.

    Tree edges heavier than one unit consume budget but are physically
    represented by their subdivision inside H', so only edges that
    survive the splice are returned.
    """
    if not budget > 0:
        raise ValueError("budget must be positive")
    adj = inst.g_s.adjacency
    surviving = inst.g_prime_s.weight_by_pair
    out: set[Pair] = set()
    for u in sorted(set(terminals)):
        running: Weight = 0
        for w, nbr in sorted((w, nbr) for nbr, w in adj[u]):
            if running + w > budget:
                break
            running = running + w
            pair = canonical(u, nbr)
            if pair in surviving:
                out.add(pair)
    return frozenset(out)


class _Instrumentor:
    """Tracks the set-off / improvement events around each insertion."""

    def __init__(self, inst: ScaledInstance, split: EpsilonSplit, table) -> None:
        self.split = split
        self.table = table
        self.gps = inst.g_prime_s
        self.setoffs: dict[tuple[int, int], int] = {}
        self.improvements: dict[tuple[int, int], int] = {}
        self.failures: list = []
        self._ctx = None

    def before(self, pair: Pair, path, d_cur: Weight,
               current: SubgraphAdjacency) -> None:
        u, v = pair
        w = self.table.w(u, v)
        near = current.multi_source_distances(path.vertices)
        witnesses = sorted(q for q, d in near.items()
                           if d <= self.split.eps1 * w)
        self._ctx = {
            "pair": pair,
            "w": w,
            "premise": d_cur > self.table.dist(u, v) + self.split.eps * w,
            "witnesses": witnesses,
            "before": {x: current.sssp(x) for x in pair},
            "seton_snapshot": set(self.setoffs),
        }

    def after(self, current: SubgraphAdjacency) -> None:
        ctx = self._ctx
        self._ctx = None
        u, v = ctx["pair"]
        w = ctx["w"]
        thr = self.split.eps2 * w / 2
        after = {x: current.sssp(x) for x in (u, v)}
        for q in ctx["witnesses"]:
            drops = {}
            for x in (u, v):
                d_b = ctx["before"][x].distance(q)
                d_a = after[x].distance(q)
                drops[x] = d_b - d_a if d_a != math.inf else 0
                d_full = shortest_paths(self.gps, x).distance(q)
                cond1 = d_a <= d_full + 2 * self.split.eps1 * w
                if ctx["premise"] and not cond1:
                    self.failures.append(((u, v), q, x, "set-off bound"))
                key = (x, q)
                if cond1 and key not in self.setoffs:
                    self.setoffs[key] = 1
                elif key in ctx["seton_snapshot"] and drops[x] > thr:
                    self.improvements[key] = self.improvements.get(key, 0) + 1
            if ctx["premise"] and not (drops[u] > thr or drops[v] > thr):
                self.failures.append(((u, v), q, None, "improvement dichotomy"))

    def report(self) -> InstrumentationReport:
        return InstrumentationReport(self.split, dict(self.setoffs),
                                     dict(self.improvements),
                                     tuple(self.failures))


def greedy_complete(inst: ScaledInstance, initial: Iterable[Pair],
                    terminals: Iterable[int],
                    slack: Callable[[Pair], Weight],
                    instrument: EpsilonSplit | None = None) -> GreedyState:
    """Process terminal pairs of the spliced graph in nondecreasing order
    of fixed-path max edge weight (ties: shorter distance, then pair id),
    inserting all missing fixed-path edges of every violating pair.

    Distances are recomputed from scratch for each examined pair; edge
    insertions only shrink later distances, so pairs stay satisfied.
    """
    gps = inst.g_prime_s
    init = frozenset(canonical(*e) for e in initial)
    for e in init:
        if e not in gps.weight_by_pair:
            raise UnknownEdgeError(f"initial edge {e} not in spliced graph")
    ts = sorted(set(terminals))
    table = build_path_table(gps, ts)
    order = sorted(table.pair_keys(),
                   key=lambda p: (table.w(*p), table.dist(*p), p))
    current = SubgraphAdjacency(gps, init)
    instr = _Instrumentor(inst, instrument, table) if instrument else None
    added: set[Pair] = set()
    insertions = 0
    for pair in order:
        u, v = pair
        d_cur = current.sssp(u).distance(v)
        if d_cur <= table.dist(u, v) + slack(pair):
            continue
        path = table.path(u, v)
        missing = [e for e in path.edge_pairs() if e not in current]
        if instr:
            instr.before(pair, path, d_cur, current)
        for e in missing:
            current.add_edge(*e)
            added.add(e)
        insertions += 1
        if instr:
            instr.after(current)
    return GreedyState(current.edges, frozenset(added), insertions,
                       instr.report() if instr else None)


def _icbrt(n: int) -> int:
    """Floor integer cube root."""
    if n < 0:
        raise ValueError("negative")
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


_BUDGET_SCALE = 1 << 20


def neighborhood_budget(inst: ScaledInstance, terminal_count: int) -> Weight:
    """The d = |V_H|^(4/3) / |S|^(2/3) budget, clamped to [1, max incident sum].

    In exact mode the cube root is taken deterministically at a fixed
    dyadic precision so the budget is platform-independent.
    """
    v = inst.v_h
    s2 = terminal_count ** 2
    if inst.base.is_exact:
        d: Weight = Fraction(_icbrt(v ** 4 * _BUDGET_SCALE ** 3 // s2),
                             _BUDGET_SCALE)
    else:
        d = v ** (4 / 3) / terminal_count ** (2 / 3)
    cap: Weight = 0
    for nbrs in inst.g_s.adjacency:
        inc = sum((w for _, w in nbrs), 0)
        if inc > cap:
            cap = inc
    return min(max(1, d), cap)


def _certify(g: Graph, terminals: frozenset[int], beta: Beta, bb: Backbone,
             edges_g: frozenset[Pair], meta: dict) -> Spanner:
    rel_tol = 0.0 if g.is_exact else 1e-9
    table = bb.path_table
    sub = SubgraphAdjacency(g, edges_g)
    w_max = g.w_max
    ts = sorted(terminals)
    report: dict[Pair, PairCheck] = {}
    for i, u in enumerate(ts[:-1]):
        sp = sub.sssp(u)
        for v in ts[i + 1:]:
            w = table.w(u, v)
            slack = beta.slack(w, w_max)
            d_g = table.dist(u, v)
            d_h = sp.distance(v)
            report[(u, v)] = PairCheck(d_g, d_h, w, slack)
            allowed = d_g + slack
            margin = rel_tol * max(1.0, abs(float(allowed))) if rel_tol else 0
            if d_h == math.inf or d_h - allowed > margin:
                raise SpannerConstructionError(
                    f"pair ({u},{v}): d_H={d_h} exceeds {allowed}")
    weight = sum((g.weight_of(u, v) for u, v in edges_g), 0)
    light: LightnessResult = subset_lightness(g, bb, weight)
    meta = dict(meta)
    meta["lightness_mode"] = light.mode
    return Spanner(edges_g, weight, report, light.ratio, meta)


def _trivial_spanner(algo: str) -> Spanner:
    return Spanner(frozenset(), 0, {}, None, {"algo": algo, "degenerate": True})


def _one_level(g: Graph, terminals: frozenset[int], beta: Beta, h0_mode: str,
               algo: str, instrument: EpsilonSplit | None = None) -> Spanner:
    if len(terminals) < 2:
        return _trivial_spanner(algo)
    bb = build_backbone(g, terminals, beta)
    inst = scaled_universe(g, bb)
    meta: dict = {
        "algo": algo,
        "beta_mode": beta.mode,
        "beta_value": float(beta.value),
        "v_h": inst.v_h,
        "sigma": float(inst.sigma),
        "unsatisfied_pairs": len(bb.unsatisfied_pairs),
    }
    if h0_mode == "incident":
        h0 = build_h0_eps(inst, bb.s_prime)
    else:
        budget = neighborhood_budget(inst, len(terminals))
        h0 = build_h0_budget(inst, terminals, budget)
        meta["budget"] = float(budget)
    initial = h0 | inst.h_prime_pairs()
    sigma = inst.sigma
    table = bb.path_table
    w_max = g.w_max

    def slack(pair: Pair) -> Weight:
        # Slack is the scaled image of the target condition in G; the
        # fixed paths of G and G_s coincide, so this certifies the final
        # unscaled condition exactly (the spliced graph's own max-edge
        # values can drift when subdivision changes a tie-break).
        return sigma * beta.slack(table.w(*pair), w_max)

    state = greedy_complete(inst, initial, terminals, slack,
                            instrument=instrument)
    edges_g = map_back(inst, state.edges) | bb.h.edges
    meta["insertions"] = state.insertions
    meta["h0_edges"] = len(h0)
    if state.instrumentation is not None:
        meta["instrumentation"] = state.instrumentation
    return _certify(g, terminals, beta, bb, edges_g, meta)


def eps_spanner(g: Graph, terminals: Iterable[int], split: EpsilonSplit,
                instrument: bool = False) -> Spanner:
    """Subsetwise +eps*W(.,.) spanner (deterministic)."""
    return _one_level(g, frozenset(terminals), Beta("relative", split.eps),
                      "incident", "eps", split if instrument else None)


def four_eps_spanner(g: Graph, terminals: Iterable[int], split: EpsilonSplit,
                     instrument: bool = False) -> Spanner:
    """Subsetwise +(4+eps)*W(.,.) spanner (deterministic)."""
    return _one_level(g, frozenset(terminals),
                      Beta("relative", 4 + split.eps), "budget", "four-eps",
                      split if instrument else None)


def one_level_oracle(beta: Beta) -> Callable[[Graph, frozenset[int]], frozenset[Pair]]:
    """A single-level spanner builder for the multi-level solver."""

    def build(g: Graph, terminals: frozenset[int]) -> frozenset[Pair]:
        return _one_level(g, frozenset(terminals), beta, "incident",
                          "one-level").edges

    return build
