"""Steiner-tree machinery: Voronoi-region 2-approximation, exact solver
for small terminal sets, and the backbone bundle every spanner starts from.

The backbone of a terminal set S consists of: an approximate Steiner tree
R over S, the pairs P of S whose tree distance in R violates the target
spanner condition, the enlarged set S' = S plus all vertices on fixed
paths of pairs in P, an approximate Steiner tree T over S', and the
pruned union H of R and T.  H is the cost yardstick: subset-lightness is
spanner weight over the weight of the Steiner tree on S'.

Nothing here is built per pair: each approximate tree takes one search
from all its terminals at once, d(u, v) and W(u, v) are label lookups,
and S' is collected by one tree walk per source.  A fixed path is
materialised only where a caller needs its vertices.  The scan for P
reads R's distances from one walk of R per source
(`graph.TreeDistances`), not from a Dijkstra search: on a tree both sum
the unique path in order from the source, so the distances, and P, are
the same bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .graph import (
    Beta,
    Graph,
    GraphError,
    NonExactArithmeticError,
    Pair,
    PairBounds,
    PathTable,
    TreeDistances,
    UnknownEdgeError,
    Weight,
    build_path_table,
    canonical,
    shortest_paths,
    shortest_paths_adj,
)


class EmptyTerminalSetError(GraphError):
    """Steiner operations need at least one terminal."""


class TooManyTerminalsError(GraphError):
    """The exact solver is limited to 12 terminals."""


class SteinerReconstructionError(RuntimeError):
    """The exact solver's tree does not weigh its optimum; internal bug."""


EXACT_STEINER_MAX_TERMINALS = 12


@dataclass(frozen=True)
class SteinerTree:
    """A tree subgraph of a host graph spanning a terminal set.

    Edges are canonical (u, v) pairs of the host; every leaf is a
    terminal after pruning.  A single terminal yields the empty tree.
    """

    terminals: frozenset[int]
    edges: frozenset[Pair]
    weight: Weight

    @cached_property
    def vertices(self) -> frozenset[int]:
        vs = set(self.terminals)
        for u, v in self.edges:
            vs.add(u)
            vs.add(v)
        return frozenset(vs)


@dataclass(frozen=True)
class Backbone:
    """The full preliminary bundle for one (graph, terminals, condition)."""

    terminals: frozenset[int]
    beta: Beta
    r: SteinerTree
    unsatisfied_pairs: frozenset[Pair]
    s_prime: frozenset[int]
    t: SteinerTree
    h: SteinerTree
    path_table: PathTable


class _UnionFind:
    def __init__(self, items: Iterable[int]) -> None:
        self.parent = {x: x for x in items}

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _kruskal(edges: Iterable[tuple[Weight, int, int]]) -> set[Pair]:
    """Minimum spanning forest, deterministic under (weight, u, v) order."""
    out: set[Pair] = set()
    ordered = sorted(edges)
    uf = _UnionFind({x for _, u, v in ordered for x in (u, v)})
    for _, u, v in ordered:
        if uf.union(u, v):
            out.add(canonical(u, v))
    return out


def prune_to_terminals(edges: Iterable[Pair], terminals: frozenset[int]) -> set[Pair]:
    """Repeatedly drop non-terminal leaves; idempotent."""
    current = set(edges)
    degree: dict[int, int] = {}
    incident: dict[int, set[Pair]] = {}
    for e in current:
        for x in e:
            degree[x] = degree.get(x, 0) + 1
            incident.setdefault(x, set()).add(e)
    queue = [v for v, d in degree.items() if d == 1 and v not in terminals]
    while queue:
        v = queue.pop()
        if degree.get(v, 0) != 1 or v in terminals:
            continue
        (e,) = incident[v]
        current.discard(e)
        u = e[0] if e[1] == v else e[1]
        degree[v] = 0
        degree[u] -= 1
        incident[u].discard(e)
        if degree[u] == 1 and u not in terminals:
            queue.append(u)
    return current


def _tree_of(g: Graph, terminals: frozenset[int], edges: Iterable[Pair]) -> SteinerTree:
    es = frozenset(edges)
    return SteinerTree(terminals, es, sum((g.weight_of(u, v) for u, v in es), 0))


def _check_terminals(g: Graph, terminals: Iterable[int]) -> list[int]:
    ts = sorted(set(terminals))
    if not ts:
        raise EmptyTerminalSetError("terminal set is empty")
    for t in ts:
        g.check_vertex(t)
    return ts


def _is_tree_graph(g: Graph) -> bool:
    return len(g.edges) == g.n - 1 and g.is_connected()


def _steiner_subtree_of_tree(g: Graph, ts: list[int]) -> SteinerTree:
    # On a tree the optimum is the minimal subtree spanning the terminals.
    pruned = prune_to_terminals((canonical(u, v) for u, v, _ in g.edges),
                                frozenset(ts))
    return _tree_of(g, frozenset(ts), pruned)


def _voronoi_bridges(g: Graph, ts: list[int]
                     ) -> tuple[list[int | None], list[tuple[Weight, int, int, int, int]]]:
    """Mehlhorn's boundary MST over the Voronoi regions of sorted terminals.

    One search runs from a virtual vertex n with a zero-weight edge to
    every terminal; the region of v is the terminal its parent pointers
    reach before n.  A host edge (u, v, w) whose ends lie in regions
    i < j, u in region i, is a bridge with key (d[u] + w + d[v], i, j,
    u, v) in packed units.  The smallest key of each region pair enters
    a Kruskal over the regions.  Returns the search's parent pointers and
    the chosen keys.
    """
    denom, adj = g._packed
    n = g.n
    sp = shortest_paths_adj(adj + (tuple((t, 0) for t in ts),), n, denom)
    dist, parent = sp._dist, sp._parent
    region: list[int | None] = [None] * n
    for i, t in enumerate(ts):
        region[t] = i
    for v in range(n):
        if region[v] is None and dist[v] is not None:
            walk, x = [], v
            while region[x] is None:
                walk.append(x)
                x = parent[x]
            for y in walk:
                region[y] = region[x]
    best: dict[tuple[int, int], tuple[Weight, int, int, int, int]] = {}
    for u, nbrs in enumerate(adj):
        i = region[u]
        if i is None:
            continue
        for v, w in nbrs:
            j = region[v]
            if j is None or j <= i:
                continue
            key = (dist[u] + w + dist[v], i, j, u, v)
            if (i, j) not in best or key < best[i, j]:
                best[i, j] = key
    uf = _UnionFind(range(len(ts)))
    chosen = [key for key in sorted(best.values()) if uf.union(key[1], key[2])]
    if len(chosen) < len(ts) - 1:
        raise UnknownEdgeError("the terminals are not connected")
    return parent, chosen


def approx_steiner(g: Graph, terminals: Iterable[int]) -> SteinerTree:
    """Voronoi-region 2-approximate Steiner tree (Mehlhorn, IPL 27, 1988).

    `_voronoi_bridges` finds the MST of the bridges between terminal
    regions in one search; by Mehlhorn's lemma its keys sum to the weight
    of an MST of the metric closure, so the tree weighs at most twice the
    optimum.  Each bridge (u, v) expands into the parent path from u to
    its terminal, the edge (u, v) and the parent path from v.  The parent
    paths of one region form a subtree holding its terminal, and the
    bridges join the regions in a tree, so the union is a tree; each
    non-terminal on it has its parent edge and an edge towards a bridge,
    so every leaf is a terminal.
    """
    ts = _check_terminals(g, terminals)
    tset = frozenset(ts)
    if len(ts) == 1:
        return SteinerTree(tset, frozenset(), 0)
    parent, chosen = _voronoi_bridges(g, ts)
    edges: set[Pair] = set()
    on_tree = set(ts)
    for _, _, _, u, v in chosen:
        edges.add(canonical(u, v))
        for x in (u, v):
            while x not in on_tree:
                on_tree.add(x)
                edges.add(canonical(x, parent[x]))
                x = parent[x]
    return _tree_of(g, tset, edges)


def exact_steiner(g: Graph, terminals: Iterable[int]) -> SteinerTree:
    """Minimum-weight Steiner tree via the Dreyfus-Wagner dynamic program.

    Exponential in the number of terminals (capped at 12); used as the
    oracle behind lightness denominators and approximation-ratio tests.
    """
    if not g.is_exact:
        raise NonExactArithmeticError(
            "exact Steiner trees require rational edge weights")
    ts = _check_terminals(g, terminals)
    tset = frozenset(ts)
    if len(ts) > EXACT_STEINER_MAX_TERMINALS:
        raise TooManyTerminalsError(
            f"{len(ts)} terminals exceed the exact-solver cap "
            f"{EXACT_STEINER_MAX_TERMINALS}")
    if len(ts) == 1:
        return SteinerTree(tset, frozenset(), 0)
    if _is_tree_graph(g):
        return _steiner_subtree_of_tree(g, ts)

    denom, adj = g._packed
    root = ts[-1]
    others = ts[:-1]
    t = len(others)
    full = (1 << t) - 1
    cost: list[dict[int, Weight]] = [{} for _ in range(full + 1)]
    pred: list[dict[int, tuple[str, int]]] = [{} for _ in range(full + 1)]

    for i, q in enumerate(others):
        sp = shortest_paths(g, q)
        m = 1 << i
        cm, pm = cost[m], pred[m]
        for v in sp.reached():
            cm[v] = sp.distance_raw(v) if denom is not None else sp.distance(v)
            if v != q:
                pm[v] = ("walk", sp._parent[v])

    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        cm: dict[int, Weight] = {}
        pm: dict[int, tuple[str, int]] = {}
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:
                cs, co = cost[sub], cost[other]
                small, big = (cs, co) if len(cs) <= len(co) else (co, cs)
                for v, c1 in small.items():
                    c2 = big.get(v)
                    if c2 is None:
                        continue
                    nc = c1 + c2
                    if v not in cm or nc < cm[v]:
                        cm[v] = nc
                        pm[v] = ("merge", sub)
            sub = (sub - 1) & mask
        heap = sorted((c, v) for v, c in cm.items())
        heapq.heapify(heap)
        settled: set[int] = set()
        while heap:
            c, v = heapq.heappop(heap)
            if v in settled or c > cm.get(v, c):
                continue
            settled.add(v)
            for u, w in adj[v]:
                nc = c + w
                if u not in cm or nc < cm[u]:
                    cm[u] = nc
                    pm[u] = ("walk", v)
                    heapq.heappush(heap, (nc, u))
        cost[mask], pred[mask] = cm, pm

    edges: set[Pair] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        while True:
            tag = pred[mask].get(v)
            if tag is None:
                break
            kind, x = tag
            if kind == "walk":
                edges.add(canonical(x, v))
                v = x
            else:
                stack.append((x, v))
                stack.append((mask ^ x, v))
                break

    # Ties in the DP can reconstruct a subgraph rather than a tree; an MST
    # plus pruning restores treeness without changing the optimal weight.
    mst = _kruskal((g.weight_of(u, v), u, v) for u, v in edges)
    tree = _tree_of(g, tset, prune_to_terminals(mst, tset))
    best = cost[full][root]
    if denom is not None:
        best = Fraction(best, denom)
        if tree.weight != best:
            raise SteinerReconstructionError(
                f"reconstructed tree weighs {tree.weight}, optimum is {best}")
    return tree


def build_backbone(g: Graph, terminals: Iterable[int], beta: Beta) -> Backbone:
    """Compute R, the unsatisfied pairs P, S', T and the pruned union H.

    P is one `PairBounds` scan of the terminal pairs, each source's row
    compared with a walk of R from that source (`graph.TreeDistances`):
    R is a tree, so the walk gives the distances a Dijkstra search of R
    would, bit for bit, without a heap.
    """
    ts = _check_terminals(g, terminals)
    tset = frozenset(ts)
    table = build_path_table(g, ts)
    r = approx_steiner(g, ts)

    bounds = PairBounds(table, beta, g.w_max)
    unsat = [p for p, _, ok in bounds.check(TreeDistances(g, r.edges)) if not ok]

    s_prime_f = tset | table.vertices_on(unsat)

    t_tree = approx_steiner(g, s_prime_f)
    union_mst = _kruskal((g.weight_of(u, v), u, v)
                         for u, v in (r.edges | t_tree.edges))
    h = _tree_of(g, s_prime_f, prune_to_terminals(union_mst, s_prime_f))
    if h.weight > 2 * t_tree.weight:
        # With approximate trees R may outweigh T; H itself is then the
        # better constant-factor Steiner tree over S', so use it as T to
        # keep weight(H) <= 2 weight(T).
        t_tree = SteinerTree(s_prime_f, h.edges, h.weight)
    return Backbone(
        terminals=tset,
        beta=beta,
        r=r,
        unsatisfied_pairs=frozenset(unsat),
        s_prime=s_prime_f,
        t=t_tree,
        h=h,
        path_table=table,
    )
