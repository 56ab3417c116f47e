"""Deterministic subsetwise additive spanners.

Two constructions share one greedy completion loop over the host graph:
the +eps*W(.,.) spanner seeds the loop with one sub-unit edge per S'
vertex, the +(4+eps)*W(.,.) spanner seeds it with a weight budget of
cheap edges around every terminal, both chosen in the scaled universe
and joined with the backbone tree.  Pairs are processed in
nondecreasing order of the maximum edge weight on their fixed path, ties
by shorter distance; a pair whose detour breaks the builder's Beta (by
PairBounds, with no tolerance) gets what the insertion policy, the
loop's one extension point, returns: all missing fixed-path edges, a
prefix and suffix for the sampled W_max spanner, or all missing edges
plus set-off / improvement accounting in instrumented eps_spanner runs.
The paper runs the loop on the spliced graph; on G it agrees up to ties
(the scale is uniform, every backbone piece is in the initial set, and
dropped heavy edges lie on no terminal shortest path).  Certification
reads the loop's live subgraph and checks it against the loop's bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable

from .graph import (
    Beta,
    FixedPath,
    Graph,
    Pair,
    PairBounds,
    SubgraphAdjacency,
    Weight,
    build_path_table,
    canonical,
    shortest_paths,
)
from .oracle import subset_lightness
from .steiner import Backbone, build_backbone
from .transform import ScaledInstance, scaled_universe


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
        if not (0 < self.eps < math.inf and self.eps1 > 0 and self.eps2 > 0):
            raise ValueError("all epsilon shares must be positive and finite")
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
    """A certified spanner: edge subset of the host plus its report.

    Only the public builders compute subset_lightness (oracle and sample
    spanner builds carry None); pair_report is built on first read.
    """

    edges: frozenset[Pair]
    weight: Weight
    subset_lightness: Weight | None
    meta: dict = field(compare=False)
    # (the bounds it was certified against, its subgraph), for pair_report.
    _checked: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def pair_report(self) -> dict[Pair, PairCheck]:
        """One PairCheck per terminal pair, in host units and pair order."""
        if self._checked is None:
            return {}
        bounds, sub = self._checked
        t = bounds.table
        return {p: PairCheck(t.dist(*p), sub.distance(*p), t.w(*p),
                             bounds.slack(*p))
                for p in t.pair_keys()}


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
    """greedy_complete's result; the loop's sub and bounds are not compared."""

    edges: frozenset[Pair]
    added: frozenset[Pair]
    insertions: int
    sub: SubgraphAdjacency | None = field(default=None, compare=False,
                                          repr=False)
    bounds: PairBounds | None = field(default=None, compare=False, repr=False)


def build_h0_eps(inst: ScaledInstance, s_prime: Iterable[int]) -> frozenset[Pair]:
    """For each S' vertex, its lightest incident scaled edge when < 1 unit."""
    out: set[Pair] = set()
    for v in sorted(set(s_prime)):
        best = min(inst.incident_units(v), default=None)
        if best is not None and best[0] < inst.unit:
            out.add(canonical(v, best[1]))
    return frozenset(out)


def build_h0_budget(inst: ScaledInstance, terminals: Iterable[int],
                    budget: Weight) -> frozenset[Pair]:
    """Cheapest incident scaled edges per terminal up to a weight budget.

    Tree edges heavier than one unit consume budget but are physically
    represented by their subdivision inside H', so only edges that
    survive the splice are returned.  Weights count `inst.unit`s; on
    exact graphs they are integers, and the budget is floored to match.
    """
    if not budget > 0:
        raise ValueError("budget must be positive")
    limit = math.floor(budget * inst.unit) if inst.base.is_exact else budget
    out: set[Pair] = set()
    for u in sorted(set(terminals)):
        running: Weight = 0
        for w, nbr in sorted(inst.incident_units(u)):
            if running + w > limit:
                break
            running = running + w
            pair = canonical(u, nbr)
            if inst.spliced(pair, w):
                out.add(pair)
    return frozenset(out)


def _instrumented(split: EpsilonSplit, table, setoffs: dict,
                  improvements: dict, failures: list) -> Callable:
    """`_insert_path`, adding each insertion's set-off / improvement events
    on table's graph to setoffs, improvements and failures.  The code after
    `yield from` runs once the loop has inserted every yielded edge, so
    it reads the distances the insertion left."""

    def instrumented(pair: Pair, path: FixedPath,
                     current: SubgraphAdjacency) -> Iterable[Pair]:
        u, v = pair
        w = table.w(u, v)
        near = current.multi_source_distances(path.vertices)
        witnesses = sorted(q for q, d in near.items() if d <= split.eps1 * w)
        # Values, not the live lists, which add_edge lowers in place.
        before = {(x, q): current.distance(x, q) for x in pair for q in witnesses}
        seton = set(setoffs)
        yield from _insert_path(pair, path, current)
        thr = split.eps2 * w / 2
        for q in witnesses:
            drops = {}
            for x in pair:
                d_a = current.distance(x, q)
                drops[x] = before[x, q] - d_a if d_a != math.inf else 0
                d_full = shortest_paths(table.g, x).distance(q)
                cond1 = d_a <= d_full + 2 * split.eps1 * w
                if not cond1:
                    failures.append((pair, q, x, "set-off bound"))
                key = (x, q)
                if cond1 and key not in setoffs:
                    setoffs[key] = 1
                elif key in seton and drops[x] > thr:
                    improvements[key] = improvements.get(key, 0) + 1
            if not (drops[u] > thr or drops[v] > thr):
                failures.append((pair, q, None, "improvement dichotomy"))

    return instrumented


def _insert_path(pair: Pair, path: FixedPath,
                 current: SubgraphAdjacency) -> list[Pair]:
    return [e for e in path.edge_pairs() if e not in current]


def greedy_complete(g: Graph, initial: Iterable[Pair],
                    terminals: Iterable[int], beta: Beta,
                    policy: Callable[[Pair, FixedPath, SubgraphAdjacency],
                                     Iterable[Pair]] = _insert_path) -> GreedyState:
    """Process terminal pairs of g in nondecreasing order of fixed-path
    max edge weight (ties: shorter distance, then pair id), inserting the
    edges that policy(pair, fixed path, current subgraph) returns for
    each pair that PairBounds.holds rejects under beta: by default all
    missing fixed-path edges, for wmax_spanner a prefix and suffix.  It
    consumes each policy iterable fully, inserting each missing edge as
    it is yielded, so a generator's code after its last yield sees them
    all inserted (`_instrumented` relies on this).

    The fixed paths come from g's memoised searches, which the backbone
    ran.  The subgraph, returned as state.sub, keeps one live distance
    list per source terminal, seeded by one search and repaired by a
    decrease-only search from the endpoints of each inserted edge, so
    each examined pair is a lookup.  Insertions only shrink later
    distances, so pairs stay satisfied.
    """
    table = build_path_table(g, sorted(set(terminals)))
    order = sorted(table.pair_keys(), key=table.order_key)
    bounds = PairBounds(table, beta)
    current = SubgraphAdjacency(g, initial)  # UnknownEdgeError if foreign
    added: set[Pair] = set()
    insertions = 0
    for pair in order:
        if bounds.holds(current, *pair):
            continue
        for e in policy(pair, table.path(*pair), current):
            if e not in current:
                current.add_edge(*e)
                added.add(e)
        insertions += 1
    return GreedyState(current.edges, frozenset(added), insertions, current,
                       bounds)


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


def neighborhood_budget(inst: ScaledInstance) -> Weight:
    """The d = |V_H|^(4/3) / |S|^(2/3) budget, floored at 1, with S the
    terminals of inst's backbone.

    In exact mode the cube root is taken deterministically at a fixed
    dyadic precision so the budget is platform-independent.  A budget
    above a terminal's incident weight sum takes its whole neighbourhood,
    so d needs no cap.
    """
    v, s = inst.v_h, len(inst.backbone.terminals)
    s2 = s ** 2
    if inst.base.is_exact:
        d: Weight = Fraction(_icbrt(v ** 4 * _BUDGET_SCALE ** 3 // s2),
                             _BUDGET_SCALE)
    else:
        d = v ** (4 / 3) / s ** (2 / 3)
    return max(1, d)


def _certify(bounds: PairBounds, sub: SubgraphAdjacency, meta: dict,
             bb: Backbone | None = None) -> Spanner:
    """Check every terminal pair on sub, the caller's subgraph of the
    bounds' graph, against bounds (no tolerance), and return the spanner
    of its edges, with its subset lightness against bb if given."""
    bad = bounds.violations(sub)
    if bad:
        u, v = bad[0]
        raise SpannerConstructionError(f"pair ({u},{v}): d_H={sub.distance(u, v)}"
                                       f" exceeds {bounds.allowed[(u, v)]}")
    edges = sub.edges
    weight = bounds.table.g.weight_sum(edges)
    ratio = None
    if bb is not None:
        res = subset_lightness(bb, weight)
        ratio, meta = res.ratio, {**meta, "lightness_mode": res.mode}
    return Spanner(edges, weight, ratio, meta, (bounds, sub))


def _one_level(g: Graph, terminals: frozenset[int], beta: Beta, algo: str,
               instrument: EpsilonSplit | None = None,
               bb: Backbone | None = None, light: bool = False) -> Spanner:
    """One builder run, reusing bb as the backbone of (g, terminals, beta)
    if given; light adds the lightness, which only public builders read.
    algo "four-eps" seeds the budget H0, any other the incident one."""
    if len(terminals) < 2:
        return Spanner(frozenset(), 0, None, {"algo": algo, "degenerate": True})
    bb = bb or build_backbone(g, terminals, beta)
    inst = scaled_universe(bb)
    meta: dict = {
        "algo": algo,
        "beta_mode": beta.mode,
        "beta_value": float(beta.value),
        "v_h": inst.v_h,
        "sigma": float(inst.sigma),
        "unsatisfied_pairs": len(bb.unsatisfied_pairs),
    }
    if algo == "four-eps":
        budget = neighborhood_budget(inst)
        h0 = build_h0_budget(inst, terminals, budget)
        meta["budget"] = float(budget)
    else:
        h0 = build_h0_eps(inst, bb.s_prime)
    policy = _insert_path
    if instrument:
        setoffs, improvements, failures = {}, {}, []
        policy = _instrumented(instrument, bb.path_table, setoffs,
                               improvements, failures)
    state = greedy_complete(g, h0 | bb.h.edges, terminals, beta, policy=policy)
    meta["insertions"] = state.insertions
    meta["h0_edges"] = len(h0)
    if instrument:
        meta["instrumentation"] = InstrumentationReport(
            instrument, setoffs, improvements, tuple(failures))
    return _certify(state.bounds, state.sub, meta, bb if light else None)


def eps_spanner(g: Graph, terminals: Iterable[int], split: EpsilonSplit,
                instrument: bool = False) -> Spanner:
    """Subsetwise +eps*W(.,.) spanner (deterministic)."""
    return _one_level(g, frozenset(terminals), Beta("relative", split.eps),
                      "eps", split if instrument else None, light=True)


def four_eps_spanner(g: Graph, terminals: Iterable[int],
                     split: EpsilonSplit) -> Spanner:
    """Subsetwise +(4+eps)*W(.,.) spanner (deterministic)."""
    return _one_level(g, frozenset(terminals),
                      Beta("relative", 4 + split.eps), "four-eps", light=True)


def one_level_oracle(beta: Beta) -> Callable[[Graph, frozenset[int]], frozenset[Pair]]:
    """A single-level builder for the multi-level solver: edges only."""

    def build(g: Graph, terminals: frozenset[int]) -> frozenset[Pair]:
        return _one_level(g, frozenset(terminals), beta, "one-level").edges

    return build
