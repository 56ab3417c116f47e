"""Randomized +(4+eps)*W_max spanner with threshold search and repair.

Pairs whose fixed path misses less than a threshold ell of weight get all
missing edges; heavier pairs get only a prefix and suffix of missing
weight ell each, and a uniformly sampled vertex subset of the backbone is
tied together by a +eps*W(.,.) spanner so sampled vertices land near
those prefixes and suffixes with high probability.  A deterministic
repair pass then certifies the output unconditionally: any still-violating
pair receives its fixed path, and every repair is logged so the
high-probability claim stays measurable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .additive import (
    EpsilonSplit,
    Spanner,
    _certify,
    build_h0_eps,
    eps_spanner,
)
from .graph import (
    Beta,
    FixedPath,
    Graph,
    Pair,
    SubgraphAdjacency,
    Weight,
    build_path_table,
    canonical,
)
from .steiner import Backbone, build_backbone
from .transform import map_back, scaled_universe


class DistanceChainError(RuntimeError):
    """An exact instrumented run broke the prefix/suffix distance chain."""


@dataclass(frozen=True)
class SampleConfig:
    """Knobs of the sampled construction.

    ell is the missing-weight threshold in scaled units; None means it is
    found by the fixed-point search.  c controls the oversampling factor
    c * ln n * |V_H| / ell.
    """

    split: EpsilonSplit
    c: float = 2.0
    seed: int = 0
    ell: float | None = None

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError("oversampling constant c must be positive")
        if self.ell is not None and not self.ell > 0:
            raise ValueError("ell must be positive")


def prefix_suffix(gps: Graph, path: FixedPath, current, ell: Weight
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
    missing = [0 if e in current else gps.weight_of(*e) for e in edges]
    if not any(missing):
        return (), (), False
    last = len(edges) - 1
    cum: Weight = 0
    i = last
    for idx, mw in enumerate(missing):
        cum = cum + mw
        if cum >= ell:
            i = idx
            break
    cum = 0
    j = 0
    for idx in range(last, -1, -1):
        cum = cum + missing[idx]
        if cum >= ell:
            j = idx
            break
    return tuple(edges[:i + 1]), tuple(edges[j:]), j <= i


def _scaled_min_edge(g: Graph, backbone: Backbone) -> Weight:
    """Smallest edge weight of the spliced graph, without building it."""
    sigma = (Fraction(len(backbone.h.vertices)) / Fraction(backbone.h.weight)
             if g.is_exact else len(backbone.h.vertices) / backbone.h.weight)
    tree = backbone.h.edges
    best = None
    for u, v, w in g.edges:
        ws = w * sigma
        if canonical(u, v) in tree:
            ws = ws / math.ceil(ws)
        if best is None or ws < best:
            best = ws
    return best


def _sample_vertices(backbone: Backbone, size: int, seed: int) -> list[int]:
    pool = sorted(backbone.h.vertices)
    rng = random.Random(seed)
    return sorted(rng.sample(pool, min(size, len(pool))))


def threshold_search(factor: float, s_count: int, hi: float,
                     v_prime) -> float | None:
    """Solve ell = sqrt(factor * v_prime(ell)) / s_count over (0, hi].

    v_prime is a nonincreasing integer-valued function of ell, so the
    residual sqrt(factor * v_prime(ell)) / s_count - ell decreases and a
    sign change can be bisected; at most 40 halvings, early exit when
    successive midpoints agree within 1% relatively.  None signals that
    no fixed point lies in range.
    """

    def rhs(ell: float) -> float:
        return math.sqrt(factor * v_prime(ell)) / s_count

    lo = hi / 2 ** 30
    if v_prime(lo) == v_prime(hi):
        # Sample-insensitive instance: the equation is closed-form.
        return min(hi, rhs(hi))
    if rhs(hi) >= hi:
        return hi
    if rhs(lo) <= lo:
        return None
    a, b = lo, hi
    prev: float | None = None
    for _ in range(40):
        mid = (a + b) / 2
        if rhs(mid) > mid:
            a = mid
        else:
            b = mid
        if prev is not None and abs(mid - prev) < 0.01 * prev:
            break
        prev = mid
    return (a + b) / 2


def choose_ell(g: Graph, terminals: Iterable[int], cfg: SampleConfig,
               backbone: Backbone | None = None) -> float | None:
    """Approximate the fixed point ell = sqrt(c ln n |V_H| |V'_H|(ell)) / |S|.

    |V'_H|(ell) is the backbone vertex count of the sample drawn at ell.
    Returns None (fallback to the +eps*W spanner) when the fixed point
    cannot be bracketed or lands below every edge weight.
    """
    ts = frozenset(terminals)
    bb = backbone or build_backbone(
        g, ts, Beta("wmax", 4 + cfg.split.eps))
    vh = len(bb.h.vertices)
    if vh < 2 or len(ts) < 2:
        return None
    factor = cfg.c * math.log(max(g.n, 2)) * vh
    cache: dict[int, int] = {}

    def v_prime(ell: float) -> int:
        size = min(vh, max(1, math.ceil(factor / ell)))
        if size not in cache:
            sample = _sample_vertices(bb, size, cfg.seed)
            if len(sample) < 2:
                cache[size] = 1
            else:
                sub_bb = build_backbone(g, frozenset(sample),
                                        Beta("relative", cfg.split.eps))
                cache[size] = len(sub_bb.h.vertices)
        return cache[size]

    ell = threshold_search(factor, len(ts), float(vh), v_prime)
    if ell is None or not ell > 0 or ell < _scaled_min_edge(g, bb):
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
    inst = scaled_universe(g, bb)
    gps = inst.g_prime_s
    initial = build_h0_eps(inst, bb.s_prime) | inst.h_prime_pairs()

    ell = cfg.ell if cfg.ell is not None else choose_ell(g, ts, cfg, bb)
    meta: dict = {
        "algo": "wmax",
        "c": cfg.c,
        "seed": cfg.seed,
        "v_h": inst.v_h,
    }
    if ell is None:
        # Degenerate threshold search: the +eps*W(.,.) spanner on S is a
        # valid +(4+eps)*W_max spanner since W(u,v) <= W_max.
        fallback = eps_spanner(g, ts, cfg.split)
        meta.update({"fallback": True, "ell": None, "repaired": []})
        return _certify(g, ts, beta, bb, fallback.edges, meta)
    if not 0 < ell <= inst.v_h:
        raise ValueError(f"ell={ell} outside (0, |V_H|={inst.v_h}]")
    meta["fallback"] = False
    meta["ell"] = float(ell)

    sigma = inst.sigma
    table = build_path_table(gps, sorted(ts))
    order = sorted(table.pair_keys(),
                   key=lambda p: (table.w(*p), table.dist(*p), p))
    w_max = g.w_max
    slack_scaled = sigma * beta.slack(0, w_max)
    current = SubgraphAdjacency(gps, initial)
    route: dict[Pair, tuple] = {}
    for pair in order:
        u, v = pair
        if current.sssp(u).distance(v) <= table.dist(u, v) + slack_scaled:
            continue
        path = table.path(u, v)
        missing = [e for e in path.edge_pairs() if e not in current]
        x = sum((gps.weight_of(*e) for e in missing), 0)
        if x < ell:
            for e in missing:
                current.add_edge(*e)
        else:
            pre, suf, overlapped = prefix_suffix(gps, path, current, ell)
            if overlapped:
                for e in missing:
                    current.add_edge(*e)
            else:
                route[pair] = (path, pre, suf)
                for e in pre + suf:
                    if e not in current:
                        current.add_edge(*e)

    sample_size = math.ceil(cfg.c * math.log(max(g.n, 2)) * inst.v_h / ell)
    sample = _sample_vertices(bb, sample_size, cfg.seed)
    meta["sample_size"] = len(sample)
    sub_edges: frozenset[Pair] = frozenset()
    if len(sample) >= 2:
        sub_edges = eps_spanner(g, frozenset(sample), cfg.split).edges

    edges_g = set(map_back(inst, current.edges)) | set(bb.h.edges) | set(sub_edges)

    if instrument and route:
        meta["distance_chain"] = _distance_chains(
            g, bb, edges_g, route, sample, cfg)

    # Repair pass: certify every pair, inserting the fixed path of any
    # violator (sorted order, deterministic).
    rel_tol = 0.0 if g.is_exact else 1e-9
    sub = SubgraphAdjacency(g, edges_g)
    gtable = bb.path_table
    repaired: list[Pair] = []
    for pair in sorted(gtable.pair_keys()):
        u, v = pair
        allowed = gtable.dist(u, v) + beta.slack(gtable.w(u, v), w_max)
        margin = rel_tol * max(1.0, abs(float(allowed))) if rel_tol else 0
        d_h = sub.sssp(u).distance(v)
        if d_h == math.inf or d_h - allowed > margin:
            repaired.append(pair)
            for e in gtable.path(u, v).edge_pairs():
                if e not in sub:
                    sub.add_edge(*e)
                    edges_g.add(e)
    meta["repaired"] = repaired
    return _certify(g, ts, beta, bb, frozenset(edges_g), meta)


def _distance_chains(g: Graph, bb: Backbone, edges_g: set[Pair],
                     route: dict[Pair, tuple], sample: list[int],
                     cfg: SampleConfig) -> list[dict]:
    """Reconstruct the prefix/suffix distance chain for instrumented runs.

    For each prefix/suffix pair whose neighborhoods were hit by sampled
    vertices (within W_max in the built spanner), the chain
    u -> a -> r -> s -> b -> v must stay within d_G(u,v) + (4+eps)W_max.
    """
    sub = SubgraphAdjacency(g, edges_g)
    w_max = g.w_max
    sample_sp = {r: sub.sssp(r) for r in sample}
    out: list[dict] = []
    for pair, (path, pre, suf) in sorted(route.items()):
        u, v = pair
        pre_verts = [x for e in pre for x in e if x < g.n]
        suf_verts = [x for e in suf for x in e if x < g.n]
        best_pre = best_suf = None
        for r, sp in sample_sp.items():
            for a in pre_verts:
                d = sp.distance(a)
                if d <= w_max and (best_pre is None or (d, a, r) < best_pre):
                    best_pre = (d, a, r)
            for b in suf_verts:
                d = sp.distance(b)
                if d <= w_max and (best_suf is None or (d, b, r) < best_suf):
                    best_suf = (d, b, r)
        hit = best_pre is not None and best_suf is not None
        entry = {"pair": pair, "hit": hit}
        if hit:
            _, a, r = best_pre
            _, b, s = best_suf
            chain = (sub.distance(u, a) + sample_sp[r].distance(a)
                     + sample_sp[r].distance(s) + sample_sp[s].distance(b)
                     + sub.distance(b, v))
            allowed = (bb.path_table.dist(u, v)
                       + (4 + cfg.split.eps) * w_max)
            entry["chain"] = chain
            entry["allowed"] = allowed
            entry["ok"] = chain <= allowed
            if g.is_exact and not entry["ok"]:
                raise DistanceChainError(
                    f"pair {pair}: chain {chain} exceeds {allowed}")
        out.append(entry)
    return out
