"""Weighted-graph core: deterministic shortest paths and the per-pair
max-edge metric that every spanner condition references.

Graphs are undirected, simple, positively weighted, with vertices 0..n-1.
Weights are either binary64 floats or exact rationals (int / Fraction);
a graph never mixes the two regimes.  All shortest-path work on exact
graphs happens in integers over one common denominator, so distances and
comparisons are exact with no tolerance questions.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Union

Weight = Union[int, float, Fraction]
Pair = tuple[int, int]
EdgeTuple = tuple[int, int, Weight]

INF = math.inf


class GraphError(ValueError):
    """Base class for malformed graph input."""


class ParseError(GraphError):
    """Edge-list or instance document could not be parsed."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """An unordered vertex pair appears more than once."""


class NonpositiveWeightError(GraphError):
    """An edge weight is zero or negative."""


class InvalidWeightError(GraphError):
    """An edge weight is not a finite number (bool, infinity, non-numeric)."""


class DisconnectedError(GraphError):
    """The graph is not connected."""


class InvalidVertexError(GraphError):
    """A vertex id is outside 0..n-1."""


class UnknownEdgeError(GraphError):
    """An edge does not belong to the host graph."""


class NonExactArithmeticError(GraphError):
    """Exact oracles require rational (int / Fraction) edge weights."""


def canonical(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


def run_value(x: float, exact: bool) -> Weight:
    """A user's number, such as an eps, in a run's arithmetic: the
    rational of its decimal spelling when exact, else a float."""
    return Fraction(str(x)) if exact else float(x)


@dataclass(frozen=True)
class Beta:
    """An additive spanner condition: d_H <= d_G + slack.

    mode "relative" gives slack = value * W(u, v) where W(u, v) is the
    maximum edge weight on the fixed shortest path between u and v;
    mode "wmax" gives slack = value * W_max over the whole graph.
    """

    mode: str  # "relative" | "wmax"
    value: Weight

    def __post_init__(self) -> None:
        if self.mode not in ("relative", "wmax"):
            raise ValueError(f"unknown beta mode {self.mode!r}")
        if not 0 <= self.value < math.inf:  # also refuses nan
            raise ValueError("beta value must be nonnegative and finite")

    def slack(self, w_pair: Weight, w_max: Weight) -> Weight:
        if self.mode == "relative":
            return self.value * w_pair
        return self.value * w_max


@dataclass(frozen=True, eq=True)
class Graph:
    """Immutable undirected weighted graph over vertices 0..n-1.

    Construction through this initializer performs no validation; use
    :func:`load_graph`, :meth:`Graph.from_edges` or the generators for
    checked instances.  Internal pipeline stages (scaled or spliced
    graphs) may legitimately be disconnected.
    """

    n: int
    edges: tuple[EdgeTuple, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[EdgeTuple]) -> "Graph":
        """Validated constructor enforcing all graph invariants."""
        if n < 0:
            raise InvalidVertexError(f"vertex count {n} is negative")
        seen: set[Pair] = set()
        canon: list[EdgeTuple] = []
        floats = 0
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            key = canonical(u, v)
            if key in seen:
                raise DuplicateEdgeError(f"duplicate edge {key}")
            t = type(w)  # exact types: bool is an int subclass
            if t is float:
                floats += 1
                if not math.isfinite(w):
                    raise InvalidWeightError(f"edge {key} has weight {w}, not finite")
            elif t is not int and t is not Fraction:
                raise InvalidWeightError(f"edge {key} has weight {w!r}, not a number")
            # A Fraction's sign is its numerator's: Fraction.__gt__ would
            # pay for numbers.Rational isinstance checks.
            if not (w.numerator if t is Fraction else w) > 0:
                raise NonpositiveWeightError(f"edge {key} has weight {w}")
            seen.add(key)
            canon.append((key[0], key[1], w))
        if 0 < floats < len(canon):
            raise InvalidWeightError("the graph mixes binary64 and exact weights")
        if floats and sum(e[2] for e in canon) == INF:  # path lengths overflow
            raise InvalidWeightError("the binary64 weights sum to infinity")
        if len(canon) < n - 1:  # refused before any per-vertex list exists
            raise DisconnectedError(f"{len(canon)} edges cannot connect {n} vertices")
        g = cls(n, tuple(sorted(canon)))  # pairs are unique: no weight is compared
        if not g.is_connected():
            raise DisconnectedError("graph is not connected")
        return g

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, Weight], ...], ...]:
        """Weighted neighbour lists, built on first read: binary64 builds
        read them through `_packed`, exact builds never do."""
        adj: list[list[tuple[int, Weight]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def weight_by_pair(self) -> dict[Pair, Weight]:
        return {(u, v): w for u, v, w in self.edges}

    @cached_property
    def total_weight(self) -> Weight:
        return sum(w for _, _, w in self.edges)

    @cached_property
    def w_max(self) -> Weight:
        return (self._exact[3] if self.is_exact
                else max((w for _, _, w in self.edges), default=0))

    @cached_property
    def is_exact(self) -> bool:
        return self._exact is not None

    @cached_property
    def _sssp_memo(self) -> dict[int, tuple[Weight, "ShortestPaths"]]:
        """Source -> (limit, kernel search stopped there; inf: a full one,
        as `shortest_paths` reads it), on this object only, never shared."""
        return {}

    @cached_property
    def _exact(self) -> tuple[int, tuple, dict[Pair, int], Weight] | None:
        """An exact graph in one pass: the common denominator (one lcm), the
        adjacency and weight per pair packed over it, and the heaviest weight
        (`max`'s pick); None at the first weight not an int or a Fraction."""
        ratios = []
        for _, _, w in self.edges:
            if type(w) is not int and type(w) is not Fraction:
                return None
            ratios.append(w.as_integer_ratio())
        denom = math.lcm(*{d for _, d in ratios})
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        packed, top, heaviest = {}, 0, -INF
        for (u, v, w), (p, d) in zip(self.edges, ratios):
            wi = packed[u, v] = p * (denom // d)
            adj[u].append((v, wi))
            adj[v].append((u, wi))
            if wi > heaviest:
                top, heaviest = w, wi
        return denom, tuple(tuple(a) for a in adj), packed, top

    @cached_property
    def _packed(self) -> tuple[int | None, tuple[tuple[tuple[int, Weight], ...], ...]]:
        """`_exact`'s (denominator, adjacency); (None, adjacency) on floats."""
        return self._exact[:2] if self.is_exact else (None, self.adjacency)

    def weight_sum(self, pairs: Iterable[Pair]) -> Weight:
        """Total weight of edges: one packed sum, unpacked once."""
        return _unpack(sum((self.packed_weight_of(u, v) for u, v in pairs), 0), self._packed[0])

    def packed_weight_of(self, u: int, v: int) -> Weight:
        """`weight_of`, as an integer over `_packed`'s denominator if exact."""
        try:
            return (self._exact[2] if self.is_exact else self.weight_by_pair)[canonical(u, v)]
        except KeyError:
            raise UnknownEdgeError(f"edge ({u},{v}) not in graph") from None

    def weight_of(self, u: int, v: int) -> Weight:
        try:
            return self.weight_by_pair[canonical(u, v)]
        except KeyError:
            raise UnknownEdgeError(f"edge ({u},{v}) not in graph") from None

    def check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise InvalidVertexError(f"vertex {u} outside 0..{self.n - 1}")

    def is_connected(self) -> bool:
        """A walk from vertex 0 over neighbour lists that are dropped
        afterwards, so validation caches no `adjacency`."""
        if self.n == 0:
            return True
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for v in nbrs[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n


def certify_tolerance(g: Graph) -> float:
    """The relative tolerance of an outside check of a spanner of g (CLI
    `verify`, `bench`): 0 if exact, else 1e-9.  Builders check exactly."""
    return 0.0 if g.is_exact else 1e-9


def _unpack(d: Weight | None, denom: int | None) -> Weight:
    """A packed distance (None = unreached) in the host graph's units."""
    if d is None:
        return INF
    if denom is None or denom == 1:
        return d
    return Fraction(d, denom)


class ShortestPaths:
    """Single-source result of the deterministic label-setting search.

    Tie-break among equal-length paths: fewer hops first, then the
    smallest predecessor id at every step (equivalently, the reversed
    vertex sequence is lexicographically minimal).  This makes every
    fixed path, and everything built from fixed paths, reproducible.

    Distances, parents and max-edge labels are per-vertex lists over
    0..n-1 (distance None for unreached vertices).  The max-edge label
    of v is the heaviest edge on the tree path from the source to v: the
    W(source, v) of the fixed path, so no caller walks a path to find
    it.  Distances and max edges are packed (integers over the host
    graph's common denominator on exact graphs).  Host-graph results are
    memoised and shared, so treat them as read-only.
    """

    __slots__ = ("source", "_dist", "_parent", "_maxw", "_denom")

    def __init__(self, source: int, dist: list[Weight | None],
                 parent: list[int | None], maxw: list[Weight],
                 denom: int | None) -> None:
        self.source = source
        self._dist = dist
        self._parent = parent
        self._maxw = maxw
        self._denom = denom

    def distance(self, v: int) -> Weight:
        return _unpack(self._dist[v], self._denom)

    def max_edge(self, v: int) -> Weight:
        """Heaviest edge weight on the tree path to v (0 at the source)."""
        return _unpack(self._maxw[v], self._denom)

    def path_to(self, v: int) -> list[int]:
        if self._dist[v] is None:
            raise UnknownEdgeError(f"vertex {v} not reachable from {self.source}")
        out = [v]
        while out[-1] != self.source:
            out.append(self._parent[out[-1]])
        out.reverse()
        return out

    def reached(self) -> Iterator[int]:
        return (v for v, d in enumerate(self._dist) if d is not None)


def shortest_paths_adj(adj, source: int, denom: int | None = None,
                       limit: Weight | None = None) -> ShortestPaths:
    """Deterministic Dijkstra over an adjacency structure: the engine for
    searches whose paths are read (host searches, the Voronoi regions of
    `steiner.approx_steiner`, relative checks); distances alone come from
    `_relax`.  With a limit it stops as `_relax` does: a vertex popped
    before then has final labels, any other a real path >= the stopping d.

    `adj` indexes each vertex 0..len(adj)-1 to its (neighbor, weight)
    pairs.  The loop is `_relax`'s: heap entries (distance, vertex), an
    entry whose distance is no longer the vertex's is skipped, and only a
    strictly shorter distance pushes.  An equal distance in fewer hops,
    or in as many through a smaller predecessor id, updates the
    (hops, parent) label in place.  With strictly positive weights every
    predecessor on a shortest path to v is popped before v, so v's label
    is final when v is popped, and maxw[v], set with every parent[v]
    from that parent's own final label, follows the final pointer.
    Zero weights are allowed only on the edges out of the source (the
    virtual source of `steiner.approx_steiner`), which is popped first.
    A binary64 sum that absorbs its weight (d + w == d) never moves an
    equal label, so a popped label stays final there as well.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    n = len(adj)
    dist: list[Weight | None] = [None] * n
    hops = [0] * n
    parent: list[int | None] = [None] * n
    maxw: list[Weight] = [0] * n
    dist[source] = 0
    parent[source] = -1
    heap: list[tuple[Weight, int]] = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if limit is not None and d >= limit:
            break
        if d != dist[u]:
            continue  # superseded by a shorter distance
        nh = hops[u] + 1
        mu = maxw[u]
        for v, w in adj[u]:
            nd = d + w
            dv = dist[v]
            if dv is None or nd < dv:
                dist[v] = nd
                hops[v] = nh
                parent[v] = u
                maxw[v] = w if w > mu else mu
                heappush(heap, (nd, v))
            elif nd == dv and nd != d and (nh < hops[v] or nh == hops[v] and u < parent[v]):
                hops[v] = nh
                parent[v] = u
                maxw[v] = w if w > mu else mu
    return ShortestPaths(source, dist, parent, maxw, denom)


def shortest_paths(g: Graph, source: int) -> ShortestPaths:
    """Shortest paths from source, memoised on the graph object."""
    memo = g._sssp_memo
    if memo.get(source, (0,))[0] != math.inf:  # none kept, or a stopped one
        g.check_vertex(source)
        denom, adj = g._packed
        memo[source] = math.inf, shortest_paths_adj(adj, source, denom)
    return memo[source][1]


def _relax(adj, dist: list[Weight | None], seeds: list[tuple[Weight, int]],
           limit: Weight | None = None) -> list[Weight | None]:
    """Decrease-only search (Ramalingam & Reps, J. Algorithms 21, 1996):
    lower dist[x] to d for each seed (d, x), consuming seeds, then relax
    outward while distances drop; returns dist.  The engine for distances
    that need no path; `shortest_paths_adj` is the one for paths.  With a
    limit it stops at the first pop (d, x) with d >= limit."""
    heappush, heappop = heapq.heappush, heapq.heappop
    for d, x in seeds:
        dist[x] = d
    heapq.heapify(seeds)
    while seeds:
        d, x = heappop(seeds)
        if limit is not None and d >= limit:
            break
        if d > dist[x]:
            continue  # superseded by a later decrease
        for y, w in adj[x]:
            nd = d + w
            dy = dist[y]
            if dy is None or nd < dy:
                dist[y] = nd
                heappush(seeds, (nd, y))
    return dist


class SubgraphAdjacency:
    """Mutable adjacency over a subset of a host graph's edges.

    Used by greedy loops that repeatedly query distances on a growing
    edge set; weights are taken packed from the host graph.  No caller
    needs a path, so its engine is `_relax`, not `shortest_paths_adj`.

    `distances(s)` is seeded by `_relax` from (0, s) and then kept exact
    under `add_edge`: when the new edge (a, b, w) shortens d(s, b)
    through a (or d(s, a) through b), `_relax` from that endpoint lowers
    exactly the vertices whose distance drops.  Edges are never removed,
    so no distance ever rises.

    The seeded and repaired lists equal a kernel search bit for bit, in
    binary64 too.  Both compute, for every vertex, the minimum over
    paths from s of the path length summed in order from s.  Rounded
    addition is monotone and fl(d + w) >= d for w > 0, so that minimum
    is the only labelling with d(s) = 0 that gives each vertex the summed
    length of some walk from s and that no edge can lower.  Each value
    `_relax` sets is the length of a walk (the seed, an old path, or a
    relaxed one extended by an edge), and it stops only when no edge
    lowers any label.
    """

    def __init__(self, host: Graph, edges: Iterable[Pair] = ()) -> None:
        self.host = host
        self.denom = host._packed[0]
        # Indexed by host vertex, so it serves as a Dijkstra adjacency.
        adj: list[list[tuple[int, Weight]]] = [[] for _ in range(host.n)]
        seen: set[Pair] = set()
        weights = host._exact[2] if self.denom is not None else host.weight_by_pair
        for u, v in edges:  # add_edge's insertions, with no live list to repair
            key = (u, v) if u < v else (v, u)
            if key not in seen:
                w = weights.get(key)
                if w is None:
                    raise UnknownEdgeError(f"edge ({u},{v}) not in graph")
                seen.add(key)
                adj[u].append((v, w))
                adj[v].append((u, w))
        self._adj, self._edges = adj, seen
        # Source -> packed distances, kept exact by add_edge.
        self._live: dict[int, list[Weight | None]] = {}

    def add_edge(self, u: int, v: int) -> None:
        key = canonical(u, v)
        if key in self._edges:
            return
        w = self.host.packed_weight_of(u, v)
        self._edges.add(key)
        self._adj[u].append((v, w))
        self._adj[v].append((u, w))
        for dist in self._live.values():
            du, dv = dist[u], dist[v]
            if du is not None and (dv is None or du + w < dv):
                _relax(self._adj, dist, [(du + w, v)])
            elif dv is not None and (du is None or dv + w < du):
                _relax(self._adj, dist, [(dv + w, u)])

    def __contains__(self, pair: Pair) -> bool:
        return canonical(*pair) in self._edges

    @property
    def edges(self) -> frozenset[Pair]:
        return frozenset(self._edges)

    def distances(self, source: int) -> list[Weight | None]:
        """Live packed distances from source (None = unreached), read-only."""
        dist = self._live.get(source)
        if dist is None:
            dist = self._live[source] = _relax(
                self._adj, [None] * len(self._adj), [(0, source)])
        return dist

    def distance(self, u: int, v: int) -> Weight:
        return _unpack(self.distances(u)[v], self.denom)

    def multi_source_distances(self, sources: Iterable[int]) -> dict[int, Weight]:
        """Distance from the nearest source, for every reachable vertex."""
        dist = _relax(self._adj, [None] * len(self._adj),
                      [(0, s) for s in sources if self._adj[s]])
        return {v: _unpack(d, self.denom) for v, d in enumerate(dist)
                if d is not None}


class TreeDistances:
    """Distances on a forest of a host graph's edges (the backbone's
    Steiner tree R), by one walk per source over a `SubgraphAdjacency`'s
    packed adjacency: `distances(s)` sets dist[y] = dist[x] + w for each
    tree edge (x, y, w) met from x: no search engine, and no heap.

    The lists equal a `_relax` or kernel search of the same edges bit
    for bit, in binary64 too.  The path from s to y is unique, and every
    other neighbour of y lies behind y, so a search labels y once, from
    its neighbour x on the path: dist[y] = dist[x] + w, the path summed
    in order from s, which is what the walk computes.  (depth(s) +
    depth(y) - 2 depth(lca) from a fixed root sums in another order, and
    its binary64 results can differ.)
    """

    def __init__(self, host: Graph, edges: Iterable[Pair]) -> None:
        self._adj = SubgraphAdjacency(host, edges)._adj

    def distances(self, source: int) -> list[Weight | None]:
        """Packed distances from source (None = not on the forest's
        component of source)."""
        adj = self._adj
        dist: list[Weight | None] = [None] * len(adj)
        dist[source] = 0
        stack = [source]
        while stack:
            x = stack.pop()
            dx = dist[x]
            for y, w in adj[x]:
                if dist[y] is None:
                    dist[y] = dx + w
                    stack.append(y)
        return dist


@dataclass(frozen=True)
class FixedPath:
    """The fixed shortest path of one vertex pair.

    dist is the true shortest-path distance; max_edge is the heaviest
    edge weight along this specific path (the W(u,v) of the pair).
    """

    endpoints: Pair
    dist: Weight
    vertices: tuple[int, ...]
    max_edge: Weight

    def edge_pairs(self) -> list[Pair]:
        vs = self.vertices
        return [canonical(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]


def _path_from_tree(sp: ShortestPaths, v: int) -> FixedPath:
    return FixedPath((sp.source, v), sp.distance(v), tuple(sp.path_to(v)),
                     sp.max_edge(v))


def fixed_shortest_path(g: Graph, u: int, v: int) -> FixedPath:
    """Fixed (deterministically tie-broken) shortest path from u to v."""
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        return FixedPath((u, v), 0, (u,), 0)
    # Canonical source is the smaller endpoint so both orientations of a
    # pair agree on the same undirected path.
    src, dst = canonical(u, v)
    path = _path_from_tree(shortest_paths(g, src), dst)
    if (u, v) != (src, dst):
        path = FixedPath((u, v), path.dist, tuple(reversed(path.vertices)),
                         path.max_edge)
    return path


@dataclass(frozen=True)
class PathTable:
    """Fixed paths for every unordered pair of a terminal set of g.

    The pair (u, v), u < v, is served by the memoised search from u:
    dist and w are lookups into its distance and max-edge labels.  A
    FixedPath is built only when a caller asks for one (greedy
    insertions, repairs, wmax routes); each caller asks once per pair,
    so none is kept.  The table holds g, whose denominator and W_max
    `PairBounds` reads.  A check's slack table may leave out a source
    whose pairs it proved; its pairs are then those of the sources held.
    """

    terminals: frozenset[int]
    _sources: dict[int, ShortestPaths] = field(compare=False, repr=False)
    g: Graph = field(compare=False, repr=False)

    def _label(self, u: int, v: int) -> tuple[ShortestPaths, int]:
        """The search serving the pair, and its far endpoint."""
        if u > v:
            u, v = v, u
        sp = self._sources.get(u)
        if sp is None or u == v or v not in self.terminals:
            raise InvalidVertexError(f"pair ({u},{v}) not in table")
        return sp, v

    def dist(self, u: int, v: int) -> Weight:
        if u == v:
            return 0
        sp, v = self._label(u, v)
        return sp.distance(v)

    def w(self, u: int, v: int) -> Weight:
        """Max edge weight on the fixed path of the pair: W(u, v)."""
        if u == v:
            return 0
        sp, v = self._label(u, v)
        return sp.max_edge(v)

    def order_key(self, pair: Pair) -> tuple[Weight, Weight, Pair]:
        """(W, dist, pair) in packed units, which order like the unpacked
        values: packing multiplies by one positive denominator."""
        sp, v = self._label(*pair)
        return sp._maxw[v], sp._dist[v], pair

    def path(self, u: int, v: int) -> FixedPath:
        return _path_from_tree(*self._label(u, v))

    def vertices_on(self, pairs: Iterable[Pair]) -> set[int]:
        """The union of the fixed paths' vertex sets, one tree walk per
        source; a walk stops at the first vertex its source has marked."""
        marked: dict[int, set[int]] = {}
        for u, v in pairs:
            sp, x = self._label(u, v)
            seen = marked.setdefault(sp.source, {sp.source})
            while x not in seen:
                seen.add(x)
                x = sp._parent[x]
        return set().union(*marked.values())

    def pair_keys(self) -> list[Pair]:
        """The pairs (u, v), u < v, of the sources the table holds, in order."""
        ts = sorted(self.terminals)
        return [(u, v) for i, u in enumerate(ts) if u in self._sources for v in ts[i + 1:]]


def build_path_table(g: Graph, terminals: Iterable[int]) -> PathTable:
    """Fixed-path labels of every unordered terminal pair: one memoised
    search per terminal but the largest, bit-identical across runs."""
    ts = sorted(set(terminals))
    if not ts:
        raise InvalidVertexError("terminal set must be nonempty")
    for t in ts:
        g.check_vertex(t)
    return PathTable(frozenset(ts), {u: shortest_paths(g, u) for u in ts[:-1]}, g)


def _packed_slack(g: Graph, beta: Beta) -> tuple[Weight, Weight | None]:
    """beta's value in g's arithmetic and F, the packed slack of wmax
    mode (None in relative mode), as `PairBounds` states them."""
    denom, value = g._packed[0], beta.value
    if denom is not None and type(value) is float:
        value = Fraction(value)
    f = value * g.w_max if denom is None else math.floor(value * g.w_max * denom)
    return value, None if beta.mode == "relative" else f


class PairBounds:
    """The spanner condition d_H(u, v) <= d_G(u, v) + slack on every pair
    of a fixed-path table: the one check behind the backbone's pair scan,
    the greedy (whose bounds certify, repair and report) and the oracles.
    The table's graph g gives the denominator and W_max; beta is kept.

    Construction keeps one row per source u the table holds, mapping each
    terminal v > u to its allowance, read straight from the search
    labels of u in packed units:
    - binary64: allowed is dist[v] + value * maxw[v] (relative mode) or
      dist[v] + value * w_max (wmax mode), the same float expression as
      in host units, since packed and host values are equal there;
    - exact: the value is taken as a rational p/q and allowed is
      dist[v] + floor(p * maxw[v] / q), or dist[v] + floor(value * w_max
      * denom).  Packed distances are integers, and for an integer d_h,
      d_h <= dist + x holds exactly when d_h <= dist + floor(x), so the
      rows answer as the host-unit check does, in integer comparisons.

    The check is exact in both regimes: only `verify_spanner` forgives
    binary64 rounding, on the pairs `violations` flags.
    """

    def __init__(self, table: PathTable, beta: Beta) -> None:
        denom = table.g._packed[0]
        self.table, self.beta = table, beta
        value, fixed = _packed_slack(table.g, beta)
        self._value = value
        p, q = (value, 1) if denom is None else (value.numerator, value.denominator)
        ts = sorted(table.terminals)
        self._rows: dict[int, dict[int, Weight]] = {}
        for i, u in enumerate(ts[:-1]):
            if (sp := table._sources.get(u)) is None:
                continue  # a source the table does not hold has no row
            dist, maxw = sp._dist, sp._maxw
            row = self._rows[u] = {}
            for v in ts[i + 1:]:
                d = dist[v]
                if d is None:
                    a = INF
                elif fixed is not None:
                    a = d + fixed
                elif denom is None:
                    a = d + value * maxw[v]
                else:
                    a = d + p * maxw[v] // q
                row[v] = a

    def slack(self, u: int, v: int) -> Weight:
        """The pair's slack in host units, with beta's value as the rows take it."""
        t = self.table
        return self._value * (t.w(u, v) if self.beta.mode == "relative" else t.g.w_max)

    @cached_property
    def allowed(self) -> dict[Pair, Weight]:
        """d_G + slack per pair in host units, in pair order, for error
        messages and reports; built on first read."""
        t = self.table
        return {p: t.dist(*p) + self.slack(*p) for p in t.pair_keys()}

    def holds(self, sub, u: int, v: int) -> bool:
        """Whether the pair (u, v), u < v, meets the condition on sub."""
        d, a = sub.distances(u)[v], self._rows[u][v]
        return a == INF if d is None else d <= a

    def violations(self, sub) -> list[Pair]:
        """The pairs failing on sub, in sorted order: one `sub.distances(u)`
        per source (`sub` is a `SubgraphAdjacency` or a `TreeDistances`),
        compared with its row."""
        out: list[Pair] = []
        for u, row in self._rows.items():
            live = sub.distances(u)
            for v, a in row.items():
                d = live[v]
                if (a != INF) if d is None else d > a:
                    out.append((u, v))
        return out


def _parse_weight(token: str, exact: bool) -> Weight:
    """A decimal or p/q weight: a rational when exact, else the nearest float."""
    try:
        w = Fraction(token)
        if exact:
            return int(w) if w.denominator == 1 else w
        return float(w)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad weight {token!r}") from exc


def load_graph(text: str, exact: bool = False) -> Graph:
    """Parse an edge-list document: one "u v w" per line, '#' comments.

    With exact=True weights become rationals parsed from their decimal
    (or p/q) notation, so downstream arithmetic is tolerance-free.
    """
    edges: list[EdgeTuple] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v w', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad vertex id") from exc
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        w = _parse_weight(parts[2], exact)
        edges.append((u, v, w))
        max_id = max(max_id, u, v)
    if not edges:
        raise ParseError("no edges in document")
    return Graph.from_edges(max_id + 1, edges)


def _json_weight(w, exact: bool):
    if isinstance(w, str):
        return _parse_weight(w, exact)
    return float(w) if type(w) is int and not exact else w


def _json_int(x, what: str) -> int:
    """A JSON integer as is; a float, bool or string is an error, not
    something for int() to truncate or coerce."""
    if type(x) is not int:
        raise ParseError(f"{what} {x!r} is not a JSON integer")
    return x


def _json_int_key(k: str) -> int:
    """An object key that spells an integer exactly as JSON writes one."""
    try:
        i = int(k)
    except ValueError:
        i = None
    if str(i) != k:
        raise ParseError(f"levels key {k!r} is not an integer")
    return i


def load_instance(text: str, exact: bool = False):
    """Parse the JSON instance format.

    Returns (graph, terminals, levels) where levels is None when the
    document has no "levels" field.  A weight may be a JSON number or a
    decimal or "p/q" string; with exact=True both become rationals,
    otherwise both become floats (JSON integers included).  n, vertex
    ids, terminals and levels must be JSON integers (levels keys their
    decimal spelling); anything else is a ParseError.
    """
    try:
        doc = json.loads(text, parse_float=(Fraction if exact else float))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ParseError("instance must be an object with 'n' and 'edges'")
    n = _json_int(doc["n"], "n")
    try:
        edges = [(_json_int(u, "vertex id"), _json_int(v, "vertex id"),
                  _json_weight(w, exact)) for u, v, w in doc["edges"]]
    except ParseError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad edge entry: {exc}") from exc
    g = Graph.from_edges(n, edges)
    if not isinstance(doc.get("terminals", []), list):
        raise ParseError("bad terminals: not an array")
    terminals = frozenset(_json_int(t, "terminal")
                          for t in doc.get("terminals", range(n)))
    for t in terminals:
        g.check_vertex(t)
    levels = None
    if doc.get("levels") is not None:
        if not isinstance(doc["levels"], dict):
            raise ParseError("bad levels map: not an object")
        levels = {_json_int_key(k): _json_int(v, "level")
                  for k, v in doc["levels"].items()}
    return g, terminals, levels


def json_number(x: Weight) -> float | str:
    """float(x) when that is finite, else str(x): "inf", or the exact int
    or "p/q" that dump_instance writes."""
    try:
        return float(x) if math.isfinite(x) else str(x)
    except OverflowError:
        return str(x)


def _weight_json(w: Weight, exact: bool) -> Weight | str:
    if not exact:
        return float(w)
    return int(w) if w.denominator == 1 else str(w)


def dump_instance(g: Graph, terminals: Iterable[int],
                  levels: dict[int, int] | None = None) -> str:
    """The JSON instance document; exact weights are written as int or "p/q"
    strings, so load_instance(..., exact=True) restores them exactly."""
    exact = g.is_exact
    doc = {
        "n": g.n,
        "edges": [[u, v, _weight_json(w, exact)] for u, v, w in g.edges],
        "terminals": sorted(set(terminals)),
    }
    if levels is not None:
        doc["levels"] = {str(k): v for k, v in sorted(levels.items())}
    return json.dumps(doc)
