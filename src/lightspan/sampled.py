"""Randomized +(4+eps)*W_max spanner with threshold search and repair.

Pairs whose fixed path misses less than a threshold ell of scaled weight
(ell / sigma on the host graph, where the loop runs) get all missing
edges; heavier pairs get only a prefix and suffix of that missing weight
each, and a uniformly sampled vertex subset of the backbone is tied
together by a +eps*W(.,.) spanner so sampled vertices land near those
prefixes and suffixes with high probability.  A deterministic repair
pass, on the loop's live subgraph, then certifies the output
unconditionally: any still-violating pair receives its fixed path, and
every repair is logged so the high-probability claim stays measurable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .additive import (
    EpsilonSplit,
    Spanner,
    _certify,
    _one_level,
    build_h0_eps,
    greedy_complete,
)
from .graph import (
    Beta,
    FixedPath,
    Graph,
    Pair,
    PairBounds,
    SubgraphAdjacency,
    Weight,
    _unpack,
)
from .steiner import Backbone, _backbone_from, build_backbone
from .transform import ScaledInstance, scaled_universe


class DistanceChainError(RuntimeError):
    """An exact instrumented run broke the prefix/suffix distance chain."""


@dataclass(frozen=True)
class SampleConfig:
    """Knobs of the sampled construction.

    ell is the missing-weight threshold in scaled units (ell / sigma in
    host units); None means it is found by the fixed-point search.  c
    controls the oversampling factor c * ln n * |V_H| / ell, capped at
    |V_H|.  Both must be positive and finite.
    """

    split: EpsilonSplit
    c: float = 2.0
    seed: int = 0
    ell: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.c < math.inf:
            raise ValueError("oversampling constant c must be positive and finite")
        if self.ell is not None and not 0 < self.ell < math.inf:
            raise ValueError("ell must be positive and finite")


def prefix_suffix(g: Graph, path: FixedPath, current, ell: Weight
                  ) -> tuple[tuple[Pair, ...], tuple[Pair, ...], bool]:
    """Shortest initial and final subpaths holding >= ell missing weight.

    Returns (prefix edges, suffix edges, overlapped).  When the path has
    no missing edge both sides are empty; when the total missing weight
    cannot fill both sides they overlap and the caller inserts the whole
    path.
    """
    if not ell > 0:
        raise ValueError("ell must be positive")
    edges = path.edge_pairs()
    missing = [0 if e in current else g.weight_of(*e) for e in edges]
    if not any(missing):
        return (), (), False
    i = _reach(missing, ell)
    j = len(edges) - 1 - _reach(missing[::-1], ell)
    return tuple(edges[:i + 1]), tuple(edges[j:]), j <= i


def _reach(missing: list[Weight], ell: Weight) -> int:
    """The first index where the running sum of missing reaches ell,
    else the last index."""
    cum: Weight = 0
    for idx, mw in enumerate(missing):
        cum = cum + mw
        if cum >= ell:
            return idx
    return len(missing) - 1


def _sample_size(cfg: SampleConfig, inst: ScaledInstance, ell: float) -> int:
    """c ln n |V_H| / ell in [1, |V_H|], capped before ceil: it may be inf."""
    n, vh = inst.base.n, inst.v_h
    return max(1, math.ceil(min(cfg.c * math.log(max(n, 2)) * vh / ell, vh)))


def _sample_vertices(backbone: Backbone, size: int, seed: int) -> list[int]:
    pool = sorted(backbone.h.vertices)
    rng = random.Random(seed)
    return sorted(rng.sample(pool, min(size, len(pool))))


def threshold_search(factor: float, s_count: int, hi: float, v_prime,
                     floor: Callable[[float], int] = lambda ell: 1,
                     ceil: float = math.inf) -> float | None:
    """Solve ell = sqrt(factor * v_prime(ell)) / s_count over (0, hi].

    v_prime is a nonincreasing integer-valued function of ell, so the
    residual sqrt(factor * v_prime(ell)) / s_count - ell decreases and a
    sign change can be bisected; at most 40 halvings, early exit when
    successive midpoints agree within 1% relatively.  None signals that
    no fixed point lies in range.

    Each probe obeys floor(ell) <= v_prime(ell) <= ceil.  With factor > 0
    the right-hand side is monotone in v under IEEE rounding (a product,
    sqrt and a quotient by positive numbers all round monotonically), so
    a test the bounds decide skips v_prime and still gives its verdict:
    the search visits the same midpoints and returns the same ell, even
    for a v_prime that is not monotone.
    """

    def rhs(v: float) -> float:
        return math.sqrt(factor * v) / s_count

    def above(ell: float) -> bool:
        """rhs(v_prime(ell)) > ell, from the bounds when they decide it."""
        if rhs(floor(ell)) > ell:
            return True
        return rhs(ceil) > ell and rhs(v_prime(ell)) > ell

    lo = hi / 2 ** 30
    v_hi = v_prime(hi)
    # v_prime(lo) >= floor(lo): it cannot equal a smaller v_prime(hi).
    if v_hi >= floor(lo) and v_prime(lo) == v_hi:
        # Sample-insensitive instance: the equation is closed-form.
        return min(hi, rhs(v_hi))
    if rhs(v_hi) >= hi:
        return hi
    if not above(lo):
        return None
    a, b = lo, hi
    prev: float | None = None
    for _ in range(40):
        mid = (a + b) / 2
        if above(mid):
            a = mid
        else:
            b = mid
        if prev is not None and abs(mid - prev) < 0.01 * prev:
            break
        prev = mid
    return (a + b) / 2


def choose_ell(inst: ScaledInstance, cfg: SampleConfig, *,
               backbones: dict[int, Backbone | None] | None = None
               ) -> float | None:
    """Approximate the fixed point ell = sqrt(c ln n |V_H| |V'_H|(ell)) / |S|.

    inst is the scaled wmax universe: g is inst.base, S the terminals of
    its backbone, and |V_H| = inst.v_h.  |V'_H|(ell) is the backbone
    vertex count of the sample drawn at ell.  Returns None (fallback to
    the +eps*W spanner) when the fixed point cannot be bracketed or lands
    below every edge weight of inst.  Each probe's sample backbone, or
    None below two sampled vertices, is kept under its sample size in
    backbones (a fresh dict if not given), so `wmax_spanner` can reuse
    the one it samples.
    """
    g, bb, vh = inst.base, inst.backbone, inst.v_h
    if vh < 2 or len(bb.terminals) < 2:
        return None
    factor = cfg.c * math.log(max(g.n, 2)) * vh
    probes = {} if backbones is None else backbones

    def v_prime(ell: float) -> int:
        size = _sample_size(cfg, inst, ell)
        if size not in probes:
            sample = frozenset(_sample_vertices(bb, size, cfg.seed))
            probes[size] = None if len(sample) < 2 else build_backbone(
                g, sample, Beta("relative", cfg.split.eps))
        probe = probes[size]
        return 1 if probe is None else len(probe.h.vertices)

    # A sample lies inside its backbone's S', which lies inside V(H).
    ell = threshold_search(factor, len(bb.terminals), float(vh), v_prime,
                           lambda ell: _sample_size(cfg, inst, ell), g.n)
    if ell is None or not ell > 0 or ell < inst.lightest_spliced():
        return None
    return ell


def wmax_spanner(g: Graph, terminals: Iterable[int], cfg: SampleConfig,
                 instrument: bool = False) -> Spanner:
    """Subsetwise +(4+eps)*W_max spanner, valid on every seed.

    The repair pass makes the contract deterministic; its firings are
    recorded in meta["repaired"] so the with-high-probability behaviour
    of the sampling stays observable.
    """
    ts = frozenset(terminals)
    if len(ts) < 2:
        raise ValueError("the sampled construction needs at least two terminals")
    beta = Beta("wmax", 4 + cfg.split.eps)
    bb = build_backbone(g, ts, beta)
    inst = scaled_universe(bb)
    initial = build_h0_eps(inst, bb.s_prime) | bb.h.edges

    probes: dict[int, Backbone | None] = {}
    ell = cfg.ell if cfg.ell is not None else choose_ell(
        inst, cfg, backbones=probes)
    meta: dict = {
        "algo": "wmax",
        "c": cfg.c,
        "seed": cfg.seed,
        "v_h": inst.v_h,
    }
    if ell is None:
        # Degenerate threshold search: the +eps*W(.,.) spanner on S is a
        # valid +(4+eps)*W_max spanner since W(u,v) <= W_max, built on bb's
        # table and R; certified again under beta, with the lightness against bb.
        relative = Beta("relative", cfg.split.eps)
        fallback = _one_level(g, ts, relative, "eps",
                              bb=_backbone_from(bb.path_table, bb.r, relative))
        meta.update({"fallback": True, "ell": None, "repaired": []})
        return _certify(PairBounds(bb.path_table, beta), fallback._checked[1],
                        meta, bb)
    if not 0 < ell <= inst.v_h:
        raise ValueError(f"ell={ell} outside (0, |V_H|={inst.v_h}]")
    meta["fallback"] = False
    meta["ell"] = float(ell)

    ell_g = Fraction(ell) / inst.sigma  # exact on exact graphs, else ell / sigma
    route: dict[Pair, tuple] = {}

    def prefix_suffix_policy(pair: Pair, path: FixedPath,
                             current: SubgraphAdjacency) -> Iterable[Pair]:
        # A violated pair misses an edge, and one that misses less than
        # ell_g gets overlapping sides, so every missing edge goes in.
        pre, suf, overlapped = prefix_suffix(g, path, current, ell_g)
        if overlapped:
            return [e for e in path.edge_pairs() if e not in current]
        route[pair] = (pre, suf)
        return pre + suf

    state = greedy_complete(g, initial, ts, beta, policy=prefix_suffix_policy)
    sub, bounds = state.sub, state.bounds

    size = _sample_size(cfg, inst, ell)
    sample = _sample_vertices(bb, size, cfg.seed)
    meta["sample_size"] = len(sample)
    cached = probes.get(size)
    probes.clear()  # the other samples' backbones go now
    if len(sample) >= 2:
        # The +eps*W(.,.) spanner of eps_spanner, on the backbone
        # choose_ell built for this sample when it built one.
        for e in _one_level(g, frozenset(sample), Beta("relative", cfg.split.eps),
                            "eps", bb=cached).edges:
            sub.add_edge(*e)

    if instrument and route:
        meta["distance_chain"] = _distance_chains(bounds, sub, route, sample)

    # Repair pass: check every pair in sorted order, inserting the fixed
    # path of any violator.  The greedy's live distances absorb each
    # insertion before the next pair is read, and certification reads them.
    repaired: list[Pair] = []
    for pair in bounds.table.pair_keys():
        if not bounds.holds(sub, *pair):
            repaired.append(pair)
            for e in bounds.table.path(*pair).edge_pairs():
                sub.add_edge(*e)
    meta["repaired"] = repaired
    return _certify(bounds, sub, meta, bb)


def _distance_chains(bounds: PairBounds, sub: SubgraphAdjacency,
                     route: dict[Pair, tuple], sample: list[int]) -> list[dict]:
    """Reconstruct the prefix/suffix distance chain for instrumented runs.

    For each prefix/suffix pair whose neighborhoods were hit by sampled
    vertices (within W_max in the built spanner), the chain
    u -> a -> r -> s -> b -> v must stay within the pair's allowance
    d_G(u,v) + (4+eps)W_max from bounds.  sub is the built spanner
    before its repair pass.
    """
    g = bounds.table.g
    w_max = g.w_max
    rows = {r: [_unpack(d, sub.denom) for d in sub.distances(r)]
            for r in sample}

    def nearest(side: tuple[Pair, ...]) -> tuple | None:
        """The least (d, x, r) over sampled r and x on side's edges with
        d = d_sub(r, x) <= W_max; equal tuples are identical."""
        return min(((d, x, r) for r in rows for e in side for x in e
                    if (d := rows[r][x]) <= w_max), default=None)

    out: list[dict] = []
    for pair, (pre, suf) in sorted(route.items()):
        u, v = pair
        best_pre, best_suf = nearest(pre), nearest(suf)
        hit = best_pre is not None and best_suf is not None
        entry = {"pair": pair, "hit": hit}
        if hit:
            _, a, r = best_pre
            _, b, s = best_suf
            chain = (sub.distance(u, a) + rows[r][a] + rows[r][s]
                     + rows[s][b] + sub.distance(b, v))
            allowed = bounds.allowed[pair]
            entry["chain"] = chain
            entry["allowed"] = allowed
            entry["ok"] = chain <= allowed
            if g.is_exact and not entry["ok"]:
                raise DistanceChainError(
                    f"pair {pair}: chain {chain} exceeds {allowed}")
        out.append(entry)
    return out
