"""Steiner-tree machinery: metric-closure 2-approximation, exact solver
for small terminal sets, and the backbone bundle every spanner starts from.

The backbone of a terminal set S consists of: an approximate Steiner tree
R over S, the pairs P of S whose tree distance in R violates the target
spanner condition, the enlarged set S' = S plus all vertices on fixed
paths of pairs in P, an approximate Steiner tree T over S', and the
pruned union H of R and T.  H is the cost yardstick: subset-lightness is
spanner weight over the weight of the Steiner tree on S'.
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
    PathTable,
    SubgraphAdjacency,
    Weight,
    build_path_table,
    canonical,
    shortest_paths,
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


def approx_steiner(g: Graph, terminals: Iterable[int]) -> SteinerTree:
    """Distance-network (metric closure) 2-approximate Steiner tree.

    Builds the complete graph on the terminals weighted by shortest-path
    distances, takes its MST, expands every MST edge into its fixed
    shortest path, then takes an MST of the expanded subgraph and prunes
    non-terminal leaves.  Weight is at most twice the optimum.
    """
    ts = _check_terminals(g, terminals)
    tset = frozenset(ts)
    if len(ts) == 1:
        return SteinerTree(tset, frozenset(), 0)
    sps = {t: shortest_paths(g, t) for t in ts}
    closure = []
    for i, u in enumerate(ts):
        sp = sps[u]
        for v in ts[i + 1:]:
            closure.append((sp.distance_raw(v), u, v))
    closure_mst = _kruskal(closure)
    expanded: set[Pair] = set()
    for u, v in sorted(closure_mst):
        verts = sps[u].path_to(v)
        expanded.update(canonical(a, b) for a, b in zip(verts, verts[1:]))
    mst = _kruskal((g.weight_of(u, v), u, v) for u, v in expanded)
    return _tree_of(g, tset, prune_to_terminals(mst, tset))


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
    """Compute R, the unsatisfied pairs P, S', T and the pruned union H."""
    ts = _check_terminals(g, terminals)
    tset = frozenset(ts)
    table = build_path_table(g, ts)
    r = approx_steiner(g, ts)

    unsat: list[Pair] = []
    radj = SubgraphAdjacency(g, r.edges)
    w_max = g.w_max
    for i, u in enumerate(ts[:-1]):
        sp = radj.sssp(u)
        for v in ts[i + 1:]:
            allowed = table.dist(u, v) + beta.slack(table.w(u, v), w_max)
            if sp.distance(v) > allowed:
                unsat.append((u, v))

    s_prime = set(ts)
    for u, v in unsat:
        s_prime.update(table.path(u, v).vertices)
    s_prime_f = frozenset(s_prime)

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
