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

The exact solver first contracts lightest edges between terminals
(Duin & Volgenant, Networks 19, 1989).  Let e = (x, y) be a lightest
edge at terminal x, y a terminal: an optimal tree avoiding e has a first
edge f on its x-y path with w(f) >= w(e), and swapping f for e gives an
optimal tree, so OPT(G, S) = w(e) + OPT(G/e, S/e).  The weight is always
the optimum; where optimal trees tie, the tree may differ.

On four or more terminals left, a dual ascent (Wong, Math. Programming
28, 1984) rooted at a terminal r raises the dual of W(t), the vertices
with a zero-reduced-cost path to a terminal t, while r is not in W(t), by
the cheapest reduced cost entering it.  The raises sum to LB <= OPT, also
when the ascent stops after 3^(t-1) * n arc scans, the program's own work.
U, Mehlhorn's tree with an MST over its vertices, weighs at least OPT, so
LB = w(U) proves U.  Else a tree through a non-terminal v weighs at least
LB + d(r, v) + d(v, S - r) in reduced-cost distances (Polzin & Vahdati
Daneshmand, Discrete Appl. Math. 112, 2001), and the program runs without
every v where that exceeds w(U).

Of `graph`'s two search engines, the Voronoi regions and fixed paths read
parent pointers from `shortest_paths_adj`; the Dreyfus-Wagner rows need
only distances, from `_relax`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .graph import (
    Beta,
    Graph,
    GraphError,
    INF,
    NonExactArithmeticError,
    Pair,
    PairBounds,
    PathTable,
    TreeDistances,
    UnknownEdgeError,
    Weight,
    _relax,
    _unpack,
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


def _kruskal(g: Graph, edges: Iterable[Pair]) -> set[Pair]:
    """Minimum spanning forest of canonical host edges under (weight, u, v) order."""
    ordered = sorted((g.packed_weight_of(*e), *e) for e in edges)
    uf = _UnionFind({x for _, u, v in ordered for x in (u, v)})
    return {(u, v) for _, u, v in ordered if uf.union(u, v)}


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
    return SteinerTree(terminals, es, g.weight_sum(es))


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
    chosen = []
    for key in sorted(best.values()):
        if uf.union(key[1], key[2]):
            chosen.append(key)
            if len(chosen) == len(ts) - 1:  # a spanning tree: every later union fails
                break
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
    return _tree_of(g, tset, _mehlhorn_edges(g, ts))


def _mehlhorn_edges(g: Graph, ts: list[int]) -> set[Pair]:
    """The edges of `approx_steiner`'s tree on sorted terminals, two or more."""
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
    return edges


def _contract_terminal_edges(g: Graph, ts: list[int]):
    """Contract each lightest edge leaving a terminal group whose other
    end is a terminal group: one scan in packed (w, u, v) order merges
    two groups when one is an unblocked terminal group and the other a
    terminal group, and else blocks both; a merge with a blocked group is
    blocked.  An unblocked group has met no edge leaving it, so its merge
    edge is a lightest.  Returns the contracted host edges, the graph of
    the groups (the lightest host edge per pair, weighing its packed
    weight, so the graph's denominator is 1), its terminals, and the host
    edge of each of its edges; g itself when none is contracted.
    """
    _, adj = g._packed
    edges = sorted((w, u, v) for u, nbrs in enumerate(adj) for v, w in nbrs if u < v)
    uf = _UnionFind(range(g.n))
    terminal, unblocked = set(ts), set(ts)
    contracted: list[Pair] = []
    for _, u, v in edges:
        a, b = uf.find(u), uf.find(v)
        if a == b:
            continue
        if a in terminal and b in terminal and (a in unblocked or b in unblocked):
            uf.union(a, b)  # a stays the root
            unblocked.discard(b if b in unblocked else a)
            contracted.append((u, v))
        else:
            unblocked -= {a, b}
        if not unblocked:
            break
    if not contracted:
        return [], g, ts, {}
    label = {r: i for i, r in enumerate(dict.fromkeys(map(uf.find, range(g.n))))}
    host: dict[Pair, Pair] = {}
    for _, u, v in edges:
        host.setdefault(canonical(label[uf.find(u)], label[uf.find(v)]), (u, v))
    reduced = Graph(len(label), tuple((a, b, g.packed_weight_of(*e)) for (a, b), e
                                      in sorted(host.items()) if a != b))
    return contracted, reduced, sorted({label[uf.find(t)] for t in ts}), host


def _dreyfus_wagner(g: Graph, ts: list[int]) -> tuple[set[Pair], int]:
    """The Dreyfus-Wagner program on sorted terminals: its rebuilt edges
    and optimum, packed over g's denominator.  Row `mask` holds per
    vertex v the packed weight of a cheapest tree spanning v and the
    terminals in `mask`: a singleton's memoised search, else the
    elementwise minimum of its split merges, relaxed by `_relax`.  The
    tree is rebuilt by integer equality: from (mask, v) to a neighbour u
    with row[u] + w == row[v], else to a split whose halves sum to
    row[v]; a singleton follows its search's parents.
    """
    if len(ts) == 1:
        return set(), 0
    _, adj = g._packed
    root = ts[-1]
    singles = [shortest_paths(g, q) for q in ts[:-1]]
    full = (1 << len(singles)) - 1
    rows: list[list[int | None]] = [[]] * (full + 1)
    for i, sp in enumerate(singles):
        rows[1 << i] = sp._dist  # read only

    def splits(mask: int) -> Iterator[tuple[int, int]]:
        sub = (mask - 1) & mask
        while sub:
            if sub < mask ^ sub:
                yield sub, mask ^ sub
            sub = (sub - 1) & mask

    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        row: list[int | None] = [None] * g.n
        for a, b in splits(mask):
            for v, (ca, cb) in enumerate(zip(rows[a], rows[b])):
                if ca is not None and cb is not None:
                    c = ca + cb
                    if row[v] is None or c < row[v]:
                        row[v] = c
        rows[mask] = _relax(adj, row, sorted((c, v) for v, c in enumerate(row)
                                             if c is not None))
    if rows[full][root] is None:
        raise UnknownEdgeError("the terminals are not connected")

    # Each step lowers row[v] within a mask or splits the mask into
    # disjoint halves, so no state (mask, v) is met twice.
    edges: set[Pair] = set()
    stack, seen = [(full, root)], set()
    while stack:
        mask, v = stack.pop()
        if (mask, v) in seen:
            raise SteinerReconstructionError(f"rebuild met {v} in {mask} twice")
        seen.add((mask, v))
        if mask & (mask - 1) == 0:
            parent = singles[mask.bit_length() - 1]._parent
            while parent[v] != -1:
                edges.add(canonical(v, parent[v]))
                v = parent[v]
            continue
        row = rows[mask]
        c = row[v]
        u = next((u for u, w in adj[v]
                  if row[u] is not None and row[u] + w == c), None)
        if u is not None:
            edges.add(canonical(u, v))
            stack.append((mask, u))
            continue
        for a, b in splits(mask):
            ca, cb = rows[a][v], rows[b][v]
            if ca is not None and cb is not None and ca + cb == c:
                stack += [(a, v), (b, v)]
                break
        else:
            raise SteinerReconstructionError(f"no split of {mask} at {v} "
                                             f"weighs {c}")
    return edges, rows[full][root]


def _dual_ascent(adj, ts: list[int], scans: int) -> tuple[int, list]:
    """The dual ascent on the packed arcs, rooted at ts[0], round-robin
    over the other terminals until `scans` arc scans are spent: LB and
    the reduced costs as reversed arcs, (x, c) in into[y] for x -> y."""
    rc = [[w for _, w in a] for a in adj]
    # Per active terminal t: the marks of W(t) and the arcs into it as (the
    # head's reduced costs, index, tail), first a zero-cost stub into t.
    lb, active = 0, [(bytearray(len(adj)), [([0], 0, t)]) for t in ts[1:]]
    while active and scans > 0:
        inside, cut = active.pop(0)
        scans -= len(cut)
        grow = [a for a in cut if not a[0][a[1]]]
        for _, _, x in grow:
            if not inside[x]:
                inside[x], r = 1, rc[x]
                scans -= len(r)
                for i, (u, _) in enumerate(adj[x]):
                    if not inside[u]:
                        (cut if r[i] else grow).append((r, i, u))
        if not inside[ts[0]]:
            cut[:] = [a for a in cut if not inside[a[2]]]
            delta = min([r[i] for r, i, _ in cut])
            for r, i, _ in cut:
                r[i] -= delta
            lb += delta
            active.append((inside, cut))
    return lb, [[(u, c) for (u, _), c in zip(a, r)] for a, r in zip(adj, rc)]


def _bounded_program(g: Graph, ts: list[int]) -> tuple[set[Pair], int]:
    """`_dreyfus_wagner`'s edges and packed optimum, after the dual-ascent
    bound on four or more terminals: U if LB proves it, else the program
    on the vertices the reduced-cost test keeps, in g's packed weights."""
    if len(ts) < 4:
        return _dreyfus_wagner(g, ts)
    _, adj = g._packed
    on = {x for e in _mehlhorn_edges(g, ts) for x in e}
    upper = prune_to_terminals(_kruskal(g, [(u, v) for u, v, _ in g.edges
                                            if u in on and v in on]), frozenset(ts))
    top = sum(g.packed_weight_of(*e) for e in upper)
    lb, into = _dual_ascent(adj, ts, 3 ** (len(ts) - 1) * g.n)
    if lb == top:
        return upper, lb
    out: list[list[tuple[int, int]]] = [[] for _ in adj]
    for y, arcs in enumerate(into):
        for x, c in arcs:
            out[x].append((y, c))
    labels = [[0 if v in seeds else INF for v in range(g.n)] for seeds in (ts[:1], ts[1:])]
    near = zip(_relax(out, labels[0], [(0, ts[0])]),
               _relax(into, labels[1], [(0, t) for t in ts[1:]]))
    kept = [v for v, (a, b) in enumerate(near) if v in ts or lb + a + b <= top]
    index = {v: i for i, v in enumerate(kept)}
    rest = Graph(len(kept), tuple((index[u], index[v], g.packed_weight_of(u, v))
                                  for u, v, _ in g.edges if u in index and v in index))
    edges, optimum = _dreyfus_wagner(rest, [index[t] for t in ts])
    return {(kept[a], kept[b]) for a, b in edges}, optimum


def _require_exact(g: Graph) -> None:
    """Refuse binary64 g: no optimality claim rests on a tolerance."""
    if not g.is_exact:
        raise NonExactArithmeticError("exact solvers require rational edge weights")


def exact_steiner(g: Graph, terminals: Iterable[int]) -> SteinerTree:
    """Minimum-weight Steiner tree: `_bounded_program` on the graph left by
    `_contract_terminal_edges`, lifted to host edges.  Exponential in the
    terminals, at most 12 before any contraction.  The program runs in
    g's packed integers, and its optimum is unpacked once.  A tree host
    takes the same route to its one minimal subtree."""
    _require_exact(g)
    ts = _check_terminals(g, terminals)
    tset = frozenset(ts)
    if len(ts) > EXACT_STEINER_MAX_TERMINALS:
        raise TooManyTerminalsError(
            f"{len(ts)} terminals exceed the exact-solver cap "
            f"{EXACT_STEINER_MAX_TERMINALS}")
    if len(ts) == 1:
        return SteinerTree(tset, frozenset(), 0)
    contracted, reduced, reduced_ts, host = _contract_terminal_edges(g, ts)
    edges, optimum = _bounded_program(reduced, reduced_ts)
    edges = {host.get(e, e) for e in edges}.union(contracted)
    # Ties in the DP can reconstruct a subgraph rather than a tree; an MST
    # plus pruning restores treeness without changing the optimal weight.
    mst = _kruskal(g, edges)
    tree = _tree_of(g, tset, prune_to_terminals(mst, tset))
    best = _unpack(sum((g.packed_weight_of(*e) for e in contracted), optimum),
                   g._packed[0])
    if tree.weight != best:
        raise SteinerReconstructionError(
            f"reconstructed tree weighs {tree.weight}, optimum is {best}")
    return tree


def build_backbone(g: Graph, terminals: Iterable[int], beta: Beta) -> Backbone:
    """Compute R, the unsatisfied pairs P, S', T and the pruned union H."""
    ts = _check_terminals(g, terminals)
    return _backbone_from(build_path_table(g, ts), approx_steiner(g, ts), beta)


def _backbone_from(table: PathTable, r: SteinerTree, beta: Beta) -> Backbone:
    """The backbone on a given table and R.  P is one `PairBounds` scan of
    the terminal pairs, each source's row compared with a walk of R from
    that source (`graph.TreeDistances`): R is a tree, so the walk gives
    the distances a Dijkstra search of R would, bit for bit, without a heap."""
    g, tset = table.g, table.terminals
    unsat = PairBounds(table, beta).violations(TreeDistances(g, r.edges))

    s_prime_f = tset | table.vertices_on(unsat)
    if s_prime_f == tset:
        # T over S is R, Kruskal keeps a tree, R's leaves are terminals.
        return Backbone(tset, r, frozenset(unsat), tset, r, r, table)

    t_tree = approx_steiner(g, s_prime_f)
    union_mst = _kruskal(g, r.edges | t_tree.edges)
    h = _tree_of(g, s_prime_f, prune_to_terminals(union_mst, s_prime_f))
    if h.weight > 2 * t_tree.weight:
        # With approximate trees R may outweigh T; H itself is then the
        # better constant-factor Steiner tree over S', so use it as T to
        # keep weight(H) <= 2 weight(T).
        t_tree = SteinerTree(s_prime_f, h.edges, h.weight)
    return Backbone(
        terminals=tset,
        r=r,
        unsatisfied_pairs=frozenset(unsat),
        s_prime=s_prime_f,
        t=t_tree,
        h=h,
        path_table=table,
    )
