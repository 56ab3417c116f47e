"""The scaled and subdivided universe of the paper's analysis.

Starting from a backbone tree H over S', the host graph is rescaled so
that H weighs exactly |V_H|, edges heavier than |V_H| are dropped (they
can never lie on a terminal-pair shortest path), H's scaled edges are
subdivided into unit-or-lighter pieces, and the pieces are spliced into
the scaled graph.  A provenance map carries every spliced edge back to
the original edge of the host.  The builders choose their seed edges
H0 by the paper's rules in scaled units, read off the host edges, so a
build materialises none of these graphs; the greedy completion and
certification then run on the host graph (see `additive`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .graph import Graph, Pair, UnknownEdgeError, Weight, canonical
from .steiner import Backbone


def _mk_graph(n: int, edges: Iterable[tuple[int, int, Weight]]) -> Graph:
    canon = sorted((canonical(u, v) + (w,) for u, v, w in edges),
                   key=lambda e: (e[0], e[1]))
    return Graph(n, tuple(canon))


_STAGES = ("g_s", "h_s", "heavy_removed", "h_prime", "subdivision_of",
           "g_prime_s", "provenance")


@dataclass(frozen=True)
class ScaledInstance:
    """Progressively built scaled universe; immutable at every stage.

    Stages fill in: g_s and h_s (scale), heavy_removed (drop), h_prime
    and subdivision_of (subdivide), g_prime_s and provenance (splice).
    The universe of `scaled_universe` holds only base, backbone and
    sigma, and runs all four stages on the first read of any of them.
    `incident`, `spliced` and `lightest_spliced` apply the stages' rules
    to host edges, with the product w * sigma of `scale_instance`, so
    binary64 rounds as in the built graphs; on exact graphs
    `incident_units` gives the same edges in integer units.
    """

    base: Graph
    backbone: Backbone
    sigma: Weight
    g_s: Graph
    h_s: Graph
    heavy_removed: frozenset[Pair]
    h_prime: Graph | None
    subdivision_of: dict[Pair, Pair] | None = field(compare=False)
    g_prime_s: Graph | None
    provenance: dict[Pair, Pair] | None = field(compare=False)

    def __getattr__(self, name: str):
        # Reached only for a stage that a lazy universe has not built.
        if name not in _STAGES:
            raise AttributeError(name)
        built = splice(subdivide_tree(drop_heavy_edges(
            scale_instance(self.base, self.backbone))))
        self.__dict__.update((stage, getattr(built, stage)) for stage in _STAGES)
        return self.__dict__[name]

    @property
    def v_h(self) -> int:
        """|V_H|: vertex count of the backbone tree."""
        return len(self.backbone.h.vertices)

    def h_prime_pairs(self) -> frozenset[Pair]:
        return frozenset(canonical(u, v) for u, v, _ in self.h_prime.edges)

    def incident(self, v: int) -> list[tuple[Weight, int]]:
        """(scaled weight, neighbour) of each edge of g_s at v."""
        unit = self.unit
        return [(Fraction(ws, unit) if self.base.is_exact else ws, nbr)
                for ws, nbr in self.incident_units(v)]

    @cached_property
    def unit(self) -> int:
        """One scaled unit in `incident_units`: denom * b' on exact graphs,
        where sigma = a / b', so each packed w_p * a is an integer; else 1."""
        denom = self.base._packed[0]
        return 1 if denom is None else denom * self.sigma.denominator

    def incident_units(self, v: int) -> list[tuple[Weight, int]]:
        """`incident(v)`, each weight times `unit`, in the same order."""
        a = self.sigma.numerator if self.base.is_exact else self.sigma
        cap, tree = self.v_h * self.unit, self.backbone.h.edges
        return [(ws, nbr) for nbr, w in self.base._packed[1][v]
                if (ws := w * a) <= cap or canonical(v, nbr) in tree]

    def spliced(self, pair: Pair, scaled: Weight) -> bool:
        """Whether the g_s edge pair of that weight, in `unit`s, is in
        g'_s: subdivide_tree replaces a tree edge heavier than one unit."""
        return pair not in self.backbone.h.edges or scaled <= self.unit

    def lightest_spliced(self) -> Weight:
        """The minimum edge weight of g'_s: over the scaled non-tree edges
        g_s keeps and the pieces w / ceil(w) of the scaled tree edges (an
        underflowed binary64 w = 0 stays whole, as in subdivide_tree)."""
        sigma, v_h, tree = self.sigma, self.v_h, self.backbone.h.edges
        scaled = ((canonical(u, v), w * sigma) for u, v, w in self.base.edges)
        return min(ws / max(1, math.ceil(ws)) if pair in tree else ws
                   for pair, ws in scaled if ws <= v_h or pair in tree)


def _sigma(g: Graph, backbone: Backbone) -> Weight:
    """sigma = |V_H| / weight(H), exact on exact graphs."""
    weight_h = backbone.h.weight
    if not weight_h > 0:
        raise ValueError("backbone has zero weight; need at least two terminals")
    n_vh = len(backbone.h.vertices)
    if g.is_exact:
        return Fraction(n_vh) / Fraction(weight_h)
    return n_vh / weight_h


def scale_instance(g: Graph, backbone: Backbone) -> ScaledInstance:
    """Multiply all edge weights by sigma = |V_H| / weight(H)."""
    sigma = _sigma(g, backbone)
    g_s = _mk_graph(g.n, ((u, v, w * sigma) for u, v, w in g.edges))
    h_pairs = backbone.h.edges
    h_s = _mk_graph(g.n, ((u, v, w * sigma) for u, v, w in g.edges
                          if canonical(u, v) in h_pairs))
    return ScaledInstance(g, backbone, sigma, g_s, h_s, frozenset(),
                          None, None, None, None)


def drop_heavy_edges(inst: ScaledInstance) -> ScaledInstance:
    """Remove non-tree edges heavier than |V_H| from the scaled graph.

    The scaled backbone weighs exactly |V_H|, so no terminal-pair
    shortest path can use such an edge; tree edges themselves never
    exceed the threshold and are never candidates.
    """
    threshold = inst.v_h
    tree_pairs = inst.backbone.h.edges
    removed = frozenset(canonical(u, v) for u, v, w in inst.g_s.edges
                        if w > threshold and canonical(u, v) not in tree_pairs)
    if not removed:
        return inst
    g_s = _mk_graph(inst.g_s.n, (e for e in inst.g_s.edges
                                 if canonical(e[0], e[1]) not in removed))
    return replace(inst, g_s=g_s, heavy_removed=removed)


def subdivide_tree(inst: ScaledInstance) -> ScaledInstance:
    """Split each scaled tree edge of weight w into ceil(w) equal pieces.

    ceil(w) - 1 fresh vertices per edge, so every piece weighs at most
    one unit and the subdivision adds at most weight(H_s) = |V_H| new
    vertices in total.
    """
    next_id = inst.base.n
    edges: list[tuple[int, int, Weight]] = []
    sub_of: dict[Pair, Pair] = {}
    for u, v, w in inst.h_s.edges:
        orig = canonical(u, v)
        k = math.ceil(w)
        if k <= 1:
            edges.append((u, v, w))
            sub_of[orig] = orig
            continue
        piece = w / k
        chain = [u] + list(range(next_id, next_id + k - 1)) + [v]
        next_id += k - 1
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b, piece))
            sub_of[canonical(a, b)] = orig
    h_prime = _mk_graph(next_id, edges)
    return replace(inst, h_prime=h_prime, subdivision_of=sub_of)


def splice(inst: ScaledInstance) -> ScaledInstance:
    """Replace the scaled tree edges by their subdivided pieces.

    g'_s keeps every surviving non-tree edge of g_s plus all of H'.
    Distances between original vertices are unchanged; terminal-pair
    distances equal those of the unscaled graph times sigma.
    """
    if inst.h_prime is None:
        raise ValueError("subdivide_tree must run before splice")
    tree_pairs = inst.backbone.h.edges
    edges: list[tuple[int, int, Weight]] = []
    provenance: dict[Pair, Pair] = {}
    for u, v, w in inst.g_s.edges:
        pair = canonical(u, v)
        if pair in tree_pairs:
            continue
        edges.append((u, v, w))
        provenance[pair] = pair
    for u, v, w in inst.h_prime.edges:
        pair = canonical(u, v)
        edges.append((u, v, w))
        provenance[pair] = inst.subdivision_of[pair]
    g_prime_s = _mk_graph(inst.h_prime.n, edges)
    return replace(inst, g_prime_s=g_prime_s, provenance=provenance)


def map_back(inst: ScaledInstance, edges: Iterable[Pair]) -> frozenset[Pair]:
    """Translate g'_s edges to their originating edges of the host graph.

    Any selected piece of a subdivided edge restores the whole original
    edge, which can only shorten distances in the mapped subgraph.
    """
    if inst.provenance is None:
        raise ValueError("splice must run before map_back")
    out: set[Pair] = set()
    for e in edges:
        pair = canonical(*e)
        if pair not in inst.provenance:
            raise UnknownEdgeError(f"edge {pair} not in g'_s")
        out.add(inst.provenance[pair])
    return frozenset(out)


def scaled_universe(g: Graph, backbone: Backbone) -> ScaledInstance:
    """The universe of scale, drop, subdivide and splice, returned with
    sigma only: its first stage read runs the whole pipeline."""
    inst = object.__new__(ScaledInstance)
    for name, value in (("base", g), ("backbone", backbone),
                        ("sigma", _sigma(g, backbone))):
        object.__setattr__(inst, name, value)
    return inst
