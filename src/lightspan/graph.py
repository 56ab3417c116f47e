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


def is_exact_weight(w: Weight) -> bool:
    return isinstance(w, (int, Fraction)) and not isinstance(w, bool)


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
        if self.value < 0:
            raise ValueError("beta value must be nonnegative")

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
        seen: set[Pair] = set()
        canon: list[EdgeTuple] = []
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
                if w == INF:
                    raise InvalidWeightError(f"edge {key} has infinite weight")
            elif t is not int and t is not Fraction:
                raise InvalidWeightError(f"edge {key} has weight {w!r}, not a number")
            if not w > 0:
                raise NonpositiveWeightError(f"edge {key} has weight {w}")
            seen.add(key)
            canon.append((key[0], key[1], w))
        g = cls(n, tuple(sorted(canon, key=lambda e: (e[0], e[1]))))
        if not g.is_connected():
            raise DisconnectedError("graph is not connected")
        return g

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, Weight], ...], ...]:
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
        return max((w for _, _, w in self.edges), default=0)

    @cached_property
    def is_exact(self) -> bool:
        return all(is_exact_weight(w) for _, _, w in self.edges)

    @cached_property
    def _sssp_memo(self) -> dict[int, "ShortestPaths"]:
        """Source -> ShortestPaths, filled by :func:`shortest_paths`.

        Held on this object only: equal graphs never share results.
        """
        return {}

    @cached_property
    def _packed(self) -> tuple[int | None, tuple[tuple[tuple[int, Weight], ...], ...]]:
        """Adjacency with weights lifted to integers over one denominator.

        Exact graphs only; float graphs keep their weights as-is
        (denominator None).  Keeps the Dijkstra inner loop on machine
        comparisons instead of Fraction arithmetic.
        """
        if not self.is_exact:
            return None, self.adjacency
        denom = 1
        for _, _, w in self.edges:
            if isinstance(w, Fraction):
                denom = math.lcm(denom, w.denominator)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            wi = int(w * denom)
            adj[u].append((v, wi))
            adj[v].append((u, wi))
        return denom, tuple(tuple(a) for a in adj)

    def weight_of(self, u: int, v: int) -> Weight:
        try:
            return self.weight_by_pair[canonical(u, v)]
        except KeyError:
            raise UnknownEdgeError(f"edge ({u},{v}) not in graph") from None

    def has_edge(self, u: int, v: int) -> bool:
        return canonical(u, v) in self.weight_by_pair

    def check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise InvalidVertexError(f"vertex {u} outside 0..{self.n - 1}")

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        adj = self.adjacency
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n


class ShortestPaths:
    """Single-source result of the deterministic label-setting search.

    Tie-break among equal-length paths: fewer hops first, then the
    smallest predecessor id at every step (equivalently, the reversed
    vertex sequence is lexicographically minimal).  This makes every
    fixed path, and everything built from fixed paths, reproducible.

    Distances and parents are per-vertex lists over 0..n-1 (None for
    unreached vertices).  Host-graph results are memoised and shared, so
    treat them as read-only.
    """

    __slots__ = ("source", "_dist", "_parent", "_denom")

    def __init__(self, source: int, dist: list[Weight | None],
                 parent: list[int | None], denom: int | None) -> None:
        self.source = source
        self._dist = dist
        self._parent = parent
        self._denom = denom

    def reachable(self, v: int) -> bool:
        return self._dist[v] is not None

    def distance(self, v: int) -> Weight:
        d = self._dist[v]
        if d is None:
            return INF
        if self._denom is None or self._denom == 1:
            return d
        return Fraction(d, self._denom)

    def distance_raw(self, v: int) -> Weight:
        """Packed-integer distance (same denominator as the host graph)."""
        d = self._dist[v]
        return INF if d is None else d

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


def shortest_paths_adj(adj, source: int, denom: int | None = None) -> ShortestPaths:
    """Deterministic Dijkstra over an adjacency structure.

    `adj` indexes each vertex 0..len(adj)-1 to its (neighbor, weight)
    pairs; with strictly positive weights the (distance, hops, parent)
    label of a vertex is final when it is popped, so parent pointers need
    no post-settlement fixups.
    """
    n = len(adj)
    dist: list[Weight | None] = [None] * n
    hops = [0] * n
    parent: list[int | None] = [None] * n
    settled = bytearray(n)
    dist[source] = 0
    parent[source] = -1
    heap: list[tuple[Weight, int, int]] = [(0, 0, source)]
    while heap:
        d, h, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        nh = h + 1
        for v, w in adj[u]:
            if settled[v]:
                continue
            nd = d + w
            dv = dist[v]
            if dv is None or (nd, nh, u) < (dv, hops[v], parent[v]):
                push = dv is None or (nd, nh) < (dv, hops[v])
                dist[v] = nd
                hops[v] = nh
                parent[v] = u
                if push:
                    heapq.heappush(heap, (nd, nh, v))
    return ShortestPaths(source, dist, parent, denom)


def shortest_paths(g: Graph, source: int) -> ShortestPaths:
    """Shortest paths from source, memoised on the graph object."""
    memo = g._sssp_memo
    sp = memo.get(source)
    if sp is None:
        g.check_vertex(source)
        denom, adj = g._packed
        sp = memo[source] = shortest_paths_adj(adj, source, denom)
    return sp


class SubgraphAdjacency:
    """Mutable adjacency over a subset of a host graph's edges.

    Used by greedy loops that repeatedly query distances on a growing
    edge set; weights are taken packed from the host graph.
    """

    def __init__(self, host: Graph, edges: Iterable[Pair] = ()) -> None:
        self.host = host
        denom, _ = host._packed
        self.denom = denom
        # Indexed by host vertex, so it serves as a Dijkstra adjacency.
        self._adj: list[list[tuple[int, Weight]]] = [[] for _ in range(host.n)]
        self._edges: set[Pair] = set()
        for e in edges:
            self.add_edge(*e)

    def add_edge(self, u: int, v: int) -> None:
        key = canonical(u, v)
        if key in self._edges:
            return
        w = self.host.weight_of(u, v)
        if self.denom is not None:
            w = int(w * self.denom)
        self._edges.add(key)
        self._adj[u].append((v, w))
        self._adj[v].append((u, w))

    def __contains__(self, pair: Pair) -> bool:
        return canonical(*pair) in self._edges

    @property
    def edges(self) -> frozenset[Pair]:
        return frozenset(self._edges)

    def sssp(self, source: int) -> ShortestPaths:
        return shortest_paths_adj(self._adj, source, self.denom)

    def distance(self, u: int, v: int) -> Weight:
        return self.sssp(u).distance(v)

    def multi_source_distances(self, sources: Iterable[int]) -> dict[int, Weight]:
        """Distance from the nearest source, for every reachable vertex."""
        srcs = [s for s in sources if self._adj[s]]
        dist: dict[int, Weight] = {s: 0 for s in srcs}
        heap = [(0, s) for s in sorted(srcs)]
        heapq.heapify(heap)
        settled: set[int] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            for v, w in self._adj[u]:
                nd = d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        if self.denom is None or self.denom == 1:
            return dist
        return {v: Fraction(d, self.denom) for v, d in dist.items()}


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


def _path_from_tree(g: Graph, sp: ShortestPaths, u: int, v: int) -> FixedPath:
    if u == v:
        return FixedPath((u, v), 0, (u,), 0)
    verts = sp.path_to(v)
    if verts[0] != u:
        verts = list(reversed(verts))
    max_edge = max(g.weight_of(a, b) for a, b in zip(verts, verts[1:]))
    return FixedPath((u, v), sp.distance(v), tuple(verts), max_edge)


def fixed_shortest_path(g: Graph, u: int, v: int) -> FixedPath:
    """Fixed (deterministically tie-broken) shortest path from u to v."""
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        return FixedPath((u, v), 0, (u,), 0)
    # Canonical source is the smaller endpoint so both orientations of a
    # pair agree on the same undirected path.
    src, dst = canonical(u, v)
    sp = shortest_paths(g, src)
    path = _path_from_tree(g, sp, src, dst)
    if (u, v) != (src, dst):
        path = FixedPath((u, v), path.dist, tuple(reversed(path.vertices)),
                         path.max_edge)
    return path


@dataclass(frozen=True)
class PathTable:
    """Fixed paths for every unordered pair of a terminal set."""

    terminals: frozenset[int]
    pairs: dict[Pair, FixedPath] = field(compare=False)

    def _key(self, u: int, v: int) -> Pair:
        key = canonical(u, v)
        if key not in self.pairs:
            raise InvalidVertexError(f"pair ({u},{v}) not in table")
        return key

    def dist(self, u: int, v: int) -> Weight:
        if u == v:
            return 0
        return self.pairs[self._key(u, v)].dist

    def w(self, u: int, v: int) -> Weight:
        """Max edge weight on the fixed path of the pair: W(u, v)."""
        if u == v:
            return 0
        return self.pairs[self._key(u, v)].max_edge

    def path(self, u: int, v: int) -> FixedPath:
        return self.pairs[self._key(u, v)]

    def pair_keys(self) -> list[Pair]:
        return sorted(self.pairs)


def build_path_table(g: Graph, terminals: Iterable[int]) -> PathTable:
    """One fixed path per unordered terminal pair, bit-identical across runs."""
    ts = sorted(set(terminals))
    if not ts:
        raise InvalidVertexError("terminal set must be nonempty")
    for t in ts:
        g.check_vertex(t)
    pairs: dict[Pair, FixedPath] = {}
    for i, u in enumerate(ts):
        if i == len(ts) - 1:
            break
        sp = shortest_paths(g, u)
        for v in ts[i + 1:]:
            pairs[(u, v)] = _path_from_tree(g, sp, u, v)
    return PathTable(frozenset(ts), pairs)


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


def load_instance(text: str, exact: bool = False):
    """Parse the JSON instance format.

    Returns (graph, terminals, levels) where levels is None when the
    document has no "levels" field.  A weight may be a JSON number or a
    decimal or "p/q" string; with exact=True both become rationals.
    """
    try:
        doc = json.loads(text, parse_float=(Fraction if exact else float))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ParseError("instance must be an object with 'n' and 'edges'")
    try:
        n = int(doc["n"])
        edges = [(int(u), int(v), _parse_weight(w, exact) if isinstance(w, str) else w)
                 for u, v, w in doc["edges"]]
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad edge entry: {exc}") from exc
    g = Graph.from_edges(n, edges)
    terminals = frozenset(int(t) for t in doc.get("terminals", range(n)))
    for t in terminals:
        g.check_vertex(t)
    levels = None
    if doc.get("levels") is not None:
        try:
            levels = {int(k): int(v) for k, v in doc["levels"].items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"bad levels map: {exc}") from exc
    return g, terminals, levels


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
