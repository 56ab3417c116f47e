"""Why subset-lightness divides by the bigger Steiner tree T, not R.

The partition gadget is a 2n-clique split into sides A and B: crossing
edges weigh 2, within-side edges 2 + delta.  A cheap Steiner tree R of
the terminals is (essentially) a star, but R satisfies almost no pair of
a +2-ish spanner condition: any spanner must buy Omega(n^2) crossing
paths.  Dividing by weight(R) would make every spanner look terrible.
The lightness denominator therefore uses T, the Steiner tree over S plus
all vertices on the fixed paths of the pairs R fails to serve.
"""

import sys
from fractions import Fraction

from lightspan import (
    Beta,
    EpsilonSplit,
    GeneratorSpec,
    build_backbone,
    eps_spanner,
    generate,
)

spec = GeneratorSpec("partition-gadget", 4, delta=Fraction(1, 10),
                     subdivided=True)
g, terminals, _ = generate(spec)
print(f"subdivided partition gadget: {g.n} vertices, {len(g.edges)} edges, "
      f"{len(terminals)} terminals")

beta = Beta("relative", Fraction(1))
bb = build_backbone(g, terminals, beta)
print(f"\nbackbone for the +1*W(.,.) condition:")
print(f"  R  (tree on S):        weight {bb.r.weight}, "
      f"{len(bb.r.edges)} edges")
print(f"  unsatisfied pairs |P|: {len(bb.unsatisfied_pairs)} "
      f"of {len(terminals) * (len(terminals) - 1) // 2}")
print(f"  S' = S + path vertices: {len(bb.s_prime)} vertices")
print(f"  T  (tree on S'):       weight {bb.t.weight}")
print(f"  H  (pruned R union T): weight {bb.h.weight}, "
      f"|V_H| = {len(bb.h.vertices)}")
if not bb.h.weight <= 2 * bb.t.weight:
    sys.exit("BAD: weight(H) exceeds 2 weight(T)")

sp = eps_spanner(g, terminals, EpsilonSplit.of(Fraction(1)))
print(f"\n+1*W(.,.) spanner: weight {sp.weight}, {len(sp.edges)} edges")
print(f"  against R the ratio would be {float(sp.weight / bb.r.weight):.2f}")
print(f"  subset-lightness (vs tree on S'): "
      f"{float(sp.subset_lightness):.2f}  "
      f"[{sp.meta['lightness_mode']} denominator]")
print("\nThe R-ratio grows with the side size; the T-ratio stays flat.")
