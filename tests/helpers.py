"""Shared independent oracles for the test suite.

Everything here is deliberately naive (Floyd-Warshall, exhaustive path
and tree enumeration) so it can double-check the library without sharing
code paths with it.  The reference_* functions keep the simpler code the
library's fast paths replaced.  tie_heavy draws the tie-heavy graphs
(unit grids, {1, 2} grids, equal-weight cycles) several suites share.
"""

from __future__ import annotations

import heapq
import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from lightspan import graph as graph_mod
from lightspan.graph import Graph, build_path_table, canonical


def rand_connected_graph(seed: int, n: int, extra_edges: int,
                         exact: bool = True) -> Graph:
    """Random spanning tree plus extra edges, weights in {8/8 .. 80/8}."""
    rng = random.Random(seed)
    edges: dict = {}
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges[canonical(u, v)] = None
    while len(edges) < min(extra_edges + n - 1, n * (n - 1) // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges[canonical(u, v)] = None
    out = []
    for (u, v) in sorted(edges):
        w = Fraction(rng.randint(8, 80), 8)
        out.append((u, v, w if exact else float(w)))
    return Graph.from_edges(n, out)


def tenths_graph(seed: int, n: int, extra_edges: int) -> Graph:
    """rand_connected_graph with binary64 weights k/10, k in 8..80: most
    are not dyadic, so sums of the same terms can round differently."""
    g = rand_connected_graph(seed, n, extra_edges)
    return Graph.from_edges(n, [(u, v, int(w * 8) / 10) for u, v, w in g.edges])


def odd_edge(g: Graph, k: int) -> Graph:
    """g with its edge k 1/3 heavier: on an exact g of eighths that edge
    alone carries the factor 3 of the denominator, so a graph of other
    edges packs its weights over another one."""
    return Graph.from_edges(g.n, [(u, v, w + Fraction(1, 3) if i == k else w)
                                  for i, (u, v, w) in enumerate(g.edges)])


def rand_tree(seed: int, n: int, exact: bool = True,
              unit: bool = False) -> Graph:
    rng = random.Random(seed)
    out = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        w = 1 if unit else Fraction(rng.randint(8, 80), 8)
        if not exact:
            w = float(w)
        out.append((min(u, v), max(u, v), w))
    return Graph.from_edges(n, out)


def floyd_warshall(g: Graph):
    """All-pairs distances, independent of the library's Dijkstra."""
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for u, v, w in g.edges:
        if w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for k in range(g.n):
        dk = dist[k]
        for i in range(g.n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(g.n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def all_shortest_paths(g: Graph, u: int, v: int):
    """Every shortest u-v path, as vertex tuples (tiny graphs only)."""
    dist = floyd_warshall(g)
    target = dist[u][v]
    out = []

    def dfs(x, acc, total):
        if x == v:
            if total == target:
                out.append(tuple(acc))
            return
        for y, w in g.adjacency[x]:
            if y in acc:
                continue
            if total + w + dist[y][v] == target:
                dfs(y, acc + [y], total + w)

    dfs(u, [u], 0)
    return out


def tie_break_choice(paths):
    """The documented rule: fewest hops, then reversed-sequence lex order."""
    return min(paths, key=lambda p: (len(p), tuple(reversed(p))))


def enumerate_steiner_optimum(g: Graph, terminals) -> Fraction:
    """Minimum Steiner tree weight by exhaustive edge-subset search."""
    ts = sorted(set(terminals))
    pairs = [canonical(u, v) for u, v, _ in g.edges]
    weights = {canonical(u, v): w for u, v, w in g.edges}
    best = None
    for r in range(len(pairs) + 1):
        if best is not None and r * min(weights.values()) > best:
            break
        for combo in itertools.combinations(pairs, r):
            # connectivity of terminals within the chosen edges
            parent = {}

            def find(x):
                parent.setdefault(x, x)
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in combo:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
            if all(find(t) == find(ts[0]) for t in ts):
                w = sum(weights[e] for e in combo)
                if best is None or w < best:
                    best = w
    return best


def subgraph_dist(g: Graph, edges, u: int, v: int):
    """Dijkstra-free distance inside an edge subset (Bellman-Ford style)."""
    inf = float("inf")
    dist = {u: 0}
    es = [(a, b, g.weight_of(a, b)) for a, b in edges]
    for _ in range(g.n + len(es)):
        changed = False
        for a, b, w in es:
            da, db = dist.get(a, inf), dist.get(b, inf)
            if da + w < db:
                dist[b] = da + w
                changed = True
            if db + w < da:
                dist[a] = db + w
                changed = True
        if not changed:
            break
    return dist.get(v, inf)


def greedy_reference(g, initial, terminals, beta, policy):
    """greedy_complete's loop on the host graph g with a from-scratch
    Bellman-Ford distance for every examined pair, held against
    d_G + Beta.slack in host units: (edges, added, insertions).

    The policy sees the current edge set as a plain set of canonical pairs.
    """
    table = build_path_table(g, sorted(set(terminals)))
    order = sorted(table.pair_keys(),
                   key=lambda p: (table.w(*p), table.dist(*p), p))
    current = {canonical(*e) for e in initial}
    added = set()
    insertions = 0
    for pair in order:
        u, v = pair
        slack = beta.slack(table.w(u, v), g.w_max)
        if subgraph_dist(g, current, u, v) <= table.dist(u, v) + slack:
            continue
        for e in policy(pair, table.path(u, v), current):
            if e not in current:
                current.add(e)
                added.add(e)
        insertions += 1
    return frozenset(current), frozenset(added), insertions


def reference_sssp(adj, source: int):
    """The tuple-compare Dijkstra the library's kernel replaced:
    (dist, parent, maxw) lists with the (distance, hops, parent) label
    order written as one tuple comparison."""
    n = len(adj)
    dist = [None] * n
    hops = [0] * n
    parent = [None] * n
    maxw = [0] * n
    settled = bytearray(n)
    dist[source] = 0
    parent[source] = -1
    heap = [(0, 0, source)]
    while heap:
        d, h, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        nh = h + 1
        mu = maxw[u]
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
                maxw[v] = w if w > mu else mu
                if push:
                    heapq.heappush(heap, (nd, nh, v))
    return dist, parent, maxw


def reference_exact_steiner(g: Graph, terminals) -> Fraction:
    """The dict-based Dreyfus-Wagner program the library's list rows
    replaced: per subset of the terminals but the largest, a dict of
    vertex -> packed cost, the minimum over the subset's splits, relaxed
    by its own heap loop.  Returns the optimum weight in host units;
    exact graphs only."""
    denom, adj = g._packed
    ts = sorted(set(terminals))
    root, others = ts[-1], ts[:-1]
    full = (1 << len(others)) - 1
    cost = [{} for _ in range(full + 1)]
    for i, q in enumerate(others):
        cost[1 << i] = {v: d for v, d in enumerate(reference_sssp(adj, q)[0])
                        if d is not None}
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        cm = {}
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:
                for v, c1 in cost[sub].items():
                    c2 = cost[other].get(v)
                    if c2 is not None and (v not in cm or c1 + c2 < cm[v]):
                        cm[v] = c1 + c2
            sub = (sub - 1) & mask
        heap = sorted((c, v) for v, c in cm.items())
        settled = set()
        while heap:
            c, v = heapq.heappop(heap)
            if v in settled or c > cm[v]:
                continue
            settled.add(v)
            for u, w in adj[v]:
                if u not in cm or c + w < cm[u]:
                    cm[u] = c + w
                    heapq.heappush(heap, (c + w, u))
        cost[mask] = cm
    return Fraction(cost[full][root], denom)


def record_seeded_searches(monkeypatch) -> list[int]:
    """Patch `graph._relax` to record, in call order, the seed vertices of
    every search it starts on a fresh list, labelled only at its seeds
    (at 0), the way `SubgraphAdjacency.distances` seeds a source.  A
    search resumed on a source's labels, after a bounded read or an edge
    insertion, has labelled a neighbour and is not recorded."""
    seeded = []
    real = graph_mod._relax

    def recording(adj, dist, heap, *limit):
        if all(d is None or d == 0 for d in dist):
            seeded.extend(x for _, x in heap)
        return real(adj, dist, heap, *limit)

    monkeypatch.setattr(graph_mod, "_relax", recording)
    return seeded


def reference_closure_mst(g: Graph, terminals):
    """The MST of the metric closure on the terminals, from a full search
    per terminal: the closure edge list sorted by (d, u, v), then
    union-find.  Returns the chosen (d, u, v) edges, d in host units."""
    ts = sorted(set(terminals))
    adj = g.adjacency
    rows = {t: reference_sssp(adj, t)[0] for t in ts}
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    out = []
    for d, u, v in sorted((rows[u][v], u, v)
                          for i, u in enumerate(ts) for v in ts[i + 1:]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out.append((d, u, v))
    return out


def is_tree(edges, must_span=()):
    """The edges form one tree touching every vertex of must_span."""
    if not edges:
        return len(set(must_span)) <= 1
    verts = {x for e in edges for x in e}
    if not set(must_span) <= verts:
        return False
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False  # cycle
        parent[rv] = ru
    roots = {find(v) for v in verts}
    return len(roots) == 1


def leaves_are_terminals(edges, terminals):
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return all(v in terminals for v, d in deg.items() if d == 1)


def as_weight(k: int, exact: bool):
    """The integer weight k, as a binary64 float unless exact."""
    return k if exact else float(k)


def grid_graph(rows: int, cols: int, weights: list[int], exact: bool) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, [
        (u, v, as_weight(weights[i % len(weights)], exact))
        for i, (u, v) in enumerate(edges)])


def cycle_graph(n: int, weight: int, chords: list[tuple[int, int]],
                exact: bool) -> Graph:
    edges = {(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)}
    edges |= {(min(a, b), max(a, b)) for a, b in chords
              if a != b and (a - b) % n not in (1, n - 1)}
    return Graph.from_edges(n, [(u, v, as_weight(weight, exact))
                                for u, v in sorted(edges)])


@st.composite
def tie_heavy(draw, exact=None, max_terminals=None):
    """(graph, terminals) on a tie-heavy graph, exact or binary64 unless
    `exact` fixes the regime, with at most `max_terminals` terminals."""
    if exact is None:
        exact = draw(st.booleans())
    kind = draw(st.sampled_from(["unit-grid", "grid-1-2", "cycle"]))
    if kind == "cycle":
        n = draw(st.integers(3, 12))
        chords = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=4))
        g = cycle_graph(n, draw(st.integers(1, 3)), chords, exact)
    else:
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 5))
        weights = [1] if kind == "unit-grid" else draw(
            st.lists(st.sampled_from([1, 2]), min_size=1, max_size=7))
        g = grid_graph(rows, cols, weights, exact)
    ts = draw(st.lists(st.integers(0, g.n - 1), min_size=2,
                       max_size=max_terminals, unique=True))
    return g, sorted(ts)


def reference_pair_bounds(table, beta, w_max, sub, rel_tol=0.0):
    """The host-unit pair check the library's packed rows replaced: each
    allowance from two table lookups and Beta.slack, d_H from
    sub.distance, and the tolerance applied whatever the weight regime.
    Returns (allowed, [(pair, d_h, ok), ...]) in pair order."""
    allowed = {p: table.dist(*p) + beta.slack(table.w(*p), w_max)
               for p in table.pair_keys()}
    out = []
    for pair, a in allowed.items():
        d_h = sub.distance(*pair)
        if rel_tol:
            ok = d_h - a <= rel_tol * max(1.0, abs(float(a)))
        else:
            ok = d_h <= a
        out.append((pair, d_h, ok))
    return allowed, out


def reference_report(g, terminals, edges, beta, rel_tol=0.0):
    """`verify_spanner`'s report fields from `reference_pair_bounds` on a
    full fixed-path table: (ok, [(pair, d_g, d_h, allowed, excess), ...],
    max_excess), the failing pairs in pair order."""
    table = build_path_table(g, sorted(set(terminals)))
    sub = graph_mod.SubgraphAdjacency(g, edges)
    allowed, rows = reference_pair_bounds(table, beta, g.w_max, sub, rel_tol)
    out = [(p, table.dist(*p), d_h, allowed[p],
            math.inf if d_h == math.inf else d_h - allowed[p])
           for p, d_h, ok in rows if not ok]
    return not out, out, max((v[4] for v in out), default=0)


def report_fields(rep):
    """A `VerificationReport` in `reference_report`'s shape."""
    return (rep.ok, [(v.pair, v.d_g, v.d_h, v.allowed, v.excess)
                     for v in rep.violations], rep.max_excess)


def perfbench_run():
    """perfbench/run.py, loaded under a private name; it imports its
    sibling modules `tracer` and `workloads` by their own names."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    if str(perfbench) not in sys.path:
        sys.path.append(str(perfbench))
    spec = importlib.util.spec_from_file_location("_perfbench_run_pins",
                                                  perfbench / "run.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations here
    spec.loader.exec_module(mod)
    return mod


def reference_threshold_search(factor, s_count, hi, v_prime, bracket=None):
    """Solve ell = sqrt(factor * v_prime(ell)) / s_count over (0, hi] by
    plain bisection, with lo = hi / 2**30: the closed form when v_prime(lo)
    == v_prime(hi), hi when rhs(hi) >= hi, None when rhs(lo) <= lo, else
    at most 40 halvings of bracket, or of (lo, hi), with the 1% exit.
    `sampled.choose_ell` bisects the bracket its iteration found this
    way; every test here calls v_prime."""

    def rhs(ell):
        return math.sqrt(factor * v_prime(ell)) / s_count

    lo = hi / 2 ** 30
    if v_prime(lo) == v_prime(hi):
        return min(hi, rhs(hi))
    if rhs(hi) >= hi:
        return hi
    if rhs(lo) <= lo:
        return None
    a, b = bracket or (lo, hi)
    prev = None
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


def reference_h0_eps(inst, s_prime):
    """H0 of the +eps*W spanner read from the materialised g_s."""
    adj = inst.g_s.adjacency
    out = set()
    for v in sorted(set(s_prime)):
        best = None
        for nbr, w in adj[v]:
            if best is None or (w, nbr) < best:
                best = (w, nbr)
        if best is not None and best[0] < 1:
            out.add(canonical(v, best[1]))
    return frozenset(out)


def reference_h0_budget(inst, terminals, budget):
    """H0 of the +(4+eps)*W spanner read from the materialised g_s and g'_s."""
    adj = inst.g_s.adjacency
    surviving = inst.g_prime_s.weight_by_pair
    out = set()
    for u in sorted(set(terminals)):
        running = 0
        for w, nbr in sorted((w, nbr) for nbr, w in adj[u]):
            if running + w > budget:
                break
            running = running + w
            if canonical(u, nbr) in surviving:
                out.add(canonical(u, nbr))
    return frozenset(out)


def reference_geometric_edges(pts, r):
    """The double loop the geometric generator's cell scan replaced:
    (u, v, d) for every pair u < v with d = hypot(...) <= r, in (u, v)
    order, testing all n(n-1)/2 pairs."""
    out = []
    for u in range(len(pts)):
        for v in range(u + 1, len(pts)):
            d = math.hypot(pts[u][0] - pts[v][0], pts[u][1] - pts[v][1])
            if d <= r:
                out.append((u, v, d))
    return out
