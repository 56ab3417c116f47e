"""The scaled and subdivided universe of the paper's analysis.

Starting from a backbone tree H over S', the host graph is rescaled so
that H weighs exactly |V_H|, edges heavier than |V_H| are dropped (they
can never lie on a terminal-pair shortest path), H's scaled edges are
subdivided into unit-or-lighter pieces, and the pieces are spliced into
the scaled graph.  A provenance map carries every spliced edge back to
the original edge of the host.  `scaled_universe` returns one
`ScaledInstance`, which builds each stage on its first read.  The
builders choose their seed edges H0 by the paper's rules in scaled
units, read off the host edges, so a build materialises none of these
graphs; the greedy completion and certification then run on the host
graph (see `additive`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

from .graph import Graph, Pair, UnknownEdgeError, Weight, canonical
from .steiner import Backbone


def _mk_graph(n: int, edges: Iterable[tuple[int, int, Weight]]) -> Graph:
    canon = sorted((canonical(u, v) + (w,) for u, v, w in edges),
                   key=lambda e: (e[0], e[1]))
    return Graph(n, tuple(canon))


def _pieces(ws: Weight) -> int:
    """How many equal pieces, each of at most one unit, the subdivision
    splits a scaled tree edge of weight ws into: ceil(ws), but an
    underflowed binary64 ws = 0 stays whole."""
    return max(1, math.ceil(ws))


class ScaledInstance:
    """The scaled universe of one backbone, each stage built on first read.

    g_s is the host with every weight times sigma and its heavy non-tree
    edges (heavy_removed) dropped; h_s is the scaled backbone tree; h_prime
    subdivides it, with subdivision_of naming each piece's tree edge; and
    g_prime_s splices h_prime into g_s, with provenance naming each edge's
    host edge.  The builders read no stage: `incident_units`, `spliced` and
    `lightest_spliced` apply the same rules to host edges, with the
    product w * sigma, so binary64 rounds as in the stages; on exact graphs
    `incident_units` counts integer units.
    """

    def __init__(self, backbone: Backbone, sigma: Weight) -> None:
        self.backbone, self.sigma = backbone, sigma
        self.base = backbone.path_table.g

    @property
    def v_h(self) -> int:
        """|V_H|: vertex count of the backbone tree."""
        return len(self.backbone.h.vertices)

    def _kept(self) -> Iterator[tuple[Pair, Weight]]:
        """(pair, w * sigma) of each host edge g_s keeps: the scaled backbone
        weighs |V_H|, so no terminal-pair shortest path uses a non-tree edge
        heavier than that."""
        sigma, v_h, tree = self.sigma, self.v_h, self.backbone.h.edges
        for u, v, w in self.base.edges:
            pair, ws = canonical(u, v), w * sigma
            if ws <= v_h or pair in tree:
                yield pair, ws

    @cached_property
    def g_s(self) -> Graph:
        return _mk_graph(self.base.n, (pair + (ws,) for pair, ws in self._kept()))

    @cached_property
    def heavy_removed(self) -> frozenset[Pair]:
        kept = self.g_s.weight_by_pair
        return frozenset(pair for u, v, _ in self.base.edges
                         if (pair := canonical(u, v)) not in kept)

    @cached_property
    def h_s(self) -> Graph:
        tree = self.backbone.h.edges
        return _mk_graph(self.base.n, (e for e in self.g_s.edges if e[:2] in tree))

    @cached_property
    def subdivision_of(self) -> dict[Pair, Pair]:
        """Each edge of H' -> its tree edge: a scaled tree edge of weight w
        becomes a chain through _pieces(w) - 1 fresh vertices, numbered
        from base.n in edge order, so at most weight(H_s) = |V_H| of them."""
        next_id, out = self.base.n, {}
        for u, v, w in self.h_s.edges:
            k = _pieces(w)
            chain = [u, *range(next_id, next_id + k - 1), v]
            next_id += k - 1
            out.update((canonical(a, b), (u, v)) for a, b in zip(chain, chain[1:]))
        return out

    @cached_property
    def h_prime(self) -> Graph:
        scaled, sub_of = self.h_s.weight_by_pair, self.subdivision_of
        n = self.base.n + len(sub_of) - len(scaled)
        return _mk_graph(n, (piece + (scaled[e] / _pieces(scaled[e]),)
                             for piece, e in sub_of.items()))

    @cached_property
    def provenance(self) -> dict[Pair, Pair]:
        tree = self.backbone.h.edges
        return {**{pair: pair for pair in self.g_s.weight_by_pair if pair not in tree},
                **self.subdivision_of}

    @cached_property
    def g_prime_s(self) -> Graph:
        """g_s with its tree edges replaced by H'.  Distances between
        original vertices are unchanged; terminal-pair distances equal
        those of the host times sigma."""
        tree = self.backbone.h.edges
        return _mk_graph(self.h_prime.n, [e for e in self.g_s.edges if e[:2] not in tree]
                         + list(self.h_prime.edges))

    def h_prime_pairs(self) -> frozenset[Pair]:
        return frozenset(canonical(u, v) for u, v, _ in self.h_prime.edges)

    @cached_property
    def unit(self) -> int:
        """One scaled unit in `incident_units`: denom * b' on exact graphs,
        where sigma = a / b', so each packed w_p * a is an integer; else 1."""
        denom = self.base._packed[0]
        return 1 if denom is None else denom * self.sigma.denominator

    def incident_units(self, v: int) -> list[tuple[Weight, int]]:
        """(scaled weight times `unit`, neighbour) of each edge of g_s at v."""
        a = self.sigma.numerator if self.base.is_exact else self.sigma
        cap, tree = self.v_h * self.unit, self.backbone.h.edges
        return [(ws, nbr) for nbr, w in self.base._packed[1][v]
                if (ws := w * a) <= cap or canonical(v, nbr) in tree]

    def spliced(self, pair: Pair, scaled: Weight) -> bool:
        """Whether the g_s edge pair of that weight, in `unit`s, is in
        g'_s: the subdivision replaces a tree edge heavier than one unit."""
        return pair not in self.backbone.h.edges or scaled <= self.unit

    def lightest_spliced(self) -> Weight:
        """The minimum edge weight of g'_s: over the edges g_s keeps, with
        each tree edge's weight divided by its piece count."""
        tree = self.backbone.h.edges
        return min(ws / _pieces(ws) if pair in tree else ws
                   for pair, ws in self._kept())


def map_back(inst: ScaledInstance, edges: Iterable[Pair]) -> frozenset[Pair]:
    """Translate g'_s edges to their originating edges of the host graph.

    Any selected piece of a subdivided edge restores the whole original
    edge, which can only shorten distances in the mapped subgraph.
    """
    out: set[Pair] = set()
    for e in edges:
        pair = canonical(*e)
        if pair not in inst.provenance:
            raise UnknownEdgeError(f"edge {pair} not in g'_s")
        out.add(inst.provenance[pair])
    return frozenset(out)


def scaled_universe(backbone: Backbone) -> ScaledInstance:
    """The scaled universe around backbone, on its host graph g =
    backbone.path_table.g; only sigma = |V_H| / weight(H), exact on
    exact graphs, is computed now, each stage on its first read."""
    g, weight_h = backbone.path_table.g, backbone.h.weight
    if not weight_h > 0:
        raise ValueError("backbone has zero weight; need at least two terminals")
    n_vh = len(backbone.h.vertices)
    sigma = Fraction(n_vh) / Fraction(weight_h) if g.is_exact else n_vh / weight_h
    return ScaledInstance(backbone, sigma)
