"""The scaled, de-heavied, subdivided universe the constructions run in.

All spanner algorithms here first rescale the graph so the backbone tree
weighs exactly |V_H|, drop edges heavier than |V_H| (no terminal pair
can use them), subdivide the backbone into unit-or-lighter pieces, and
splice those pieces into the graph.  Terminal distances are untouched,
and a provenance map restores every selected edge to the original graph.
`scaled_universe` returns one object; each stage below is built when
this script first reads it.  The script exits nonzero if a check fails.
"""

import sys
from fractions import Fraction

from lightspan import (
    Beta,
    GeneratorSpec,
    build_backbone,
    build_path_table,
    generate,
    map_back,
    scaled_universe,
)

g, terminals, _ = generate(GeneratorSpec("erdos-renyi", 24, seed=6,
                                         terminal_fraction=0.2))
terminals = frozenset(sorted(terminals)[:5])
bb = build_backbone(g, terminals, Beta("relative", Fraction(1, 2)))
inst = scaled_universe(bb)
failed = []


def check(ok: bool, what: str) -> str:
    """OK, or MISMATCH with what recorded as a failed check."""
    if not ok:
        failed.append(what)
    return "OK" if ok else "MISMATCH"


print(f"host graph: n = {g.n}, m = {len(g.edges)}, "
      f"terminals = {sorted(terminals)}")
print(f"backbone: |V_H| = {inst.v_h}, weight(H) = {bb.h.weight}")
print(f"scale factor sigma = |V_H| / weight(H) = {inst.sigma} "
      f"(~{float(inst.sigma):.4f})")
tree_weight = sum(w for _, _, w in inst.h_s.edges)
print(f"scaled tree weight: {tree_weight} == |V_H| exactly  "
      f"{check(tree_weight == inst.v_h, 'scaled tree weight')}")

print(f"\nheavy edges dropped (> |V_H| = {inst.v_h}): "
      f"{sorted(inst.heavy_removed) or 'none'}")
n_subdiv = inst.h_prime.n - g.n
print(f"subdivision: {n_subdiv} fresh vertices "
      f"(bound: <= weight(H_s) = {inst.v_h})  "
      f"{check(n_subdiv <= inst.v_h, 'fresh vertex bound')}")
heaviest = max(w for _, _, w in inst.h_prime.edges)
print(f"max piece weight: {heaviest} <= 1  {check(heaviest <= 1, 'piece weight')}")
print(f"spliced graph g'_s: n = {inst.g_prime_s.n}, "
      f"m = {len(inst.g_prime_s.edges)}")

t_g = bb.path_table
t_gps = build_path_table(inst.g_prime_s, sorted(terminals))
print("\nterminal distances, original vs spliced/sigma (must agree):")
for pair in t_g.pair_keys()[:5]:
    lhs = t_g.dist(*pair)
    rhs = t_gps.dist(*pair) / inst.sigma
    print(f"  {pair}: {lhs} vs {rhs}  {check(lhs == rhs, f'distance of {pair}')}")

pieces = [p for p, orig in inst.provenance.items() if orig != p]
print(f"\nprovenance: {len(pieces)} piece edges map back onto "
      f"{len(set(inst.provenance[p] for p in pieces))} original edges")
print("round trip of all pieces:",
      check(map_back(inst, inst.h_prime_pairs()) == bb.h.edges, "provenance round trip"))
if failed:
    sys.exit(f"checks failed: {', '.join(failed)}")
