"""Seeded instance generators for experiments and acceptance runs.

All randomness flows through integer-seeded random.Random instances so
identical specs reproduce identical graphs; retry attempts derive their
seed arithmetically (never via hashing, which is process-randomized).
Weights are quantized to eighths (geometric distances to 1/1024) so the
exact and binary64 regimes describe the same instance; a generated graph
holds one weight object per distinct value.
"""

from __future__ import annotations

import bisect
import math
import numbers
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, GraphError, Weight

KINDS = ("erdos-renyi", "geometric", "grid", "unit-clique", "partition-gadget")
MAX_RETRIES = 50


class GenerationError(GraphError):
    """Generator could not produce a connected instance within retries."""


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    seed: int = 0
    p: float | None = None            # erdos-renyi edge probability
    radius: float | None = None       # geometric connection radius
    weight_range: tuple[int, int] = (1, 10)
    terminal_fraction: float = 0.25
    delta: Weight = Fraction(1, 10)   # partition-gadget within-side surcharge
    subdivided: bool = False          # partition-gadget: once-subdivided variant
    levels_k: int | None = None       # attach a level map for multi-level runs
    exact: bool = True
    name: str | None = None

    def __post_init__(self) -> None:
        """Refuse a wrong type or range here, before any draw."""
        if self.kind not in KINDS:
            raise GenerationError(f"unknown generator kind {self.kind!r}")
        optional = {"p", "radius", "levels_k", "name"}
        for names, ok, what in (
                (("n", "seed", "levels_k"), _is_int, "an integer"),
                (("p", "radius", "terminal_fraction", "delta"), _finite_number,
                 "a finite number"),
                (("subdivided",), lambda x: type(x) is bool, "a boolean"),
                (("name",), lambda x: isinstance(x, str), "a string")):
            for name in names:
                value = getattr(self, name)
                if not (ok(value) or (value is None and name in optional)):
                    raise GenerationError(f"{name} must be {what}, got {value!r}")
        wr = self.weight_range
        if not (type(wr) is tuple and len(wr) == 2 and all(map(_is_int, wr))):
            raise GenerationError(f"weight_range must be two integers, got {wr!r}")
        if self.n < 2:
            raise GenerationError("need at least two vertices")
        lo, hi = wr
        if not (0 < lo <= hi <= sys.float_info.max):
            raise GenerationError("weight range must be positive, ordered, finite")
        if not 0 < self.terminal_fraction <= 1:
            raise GenerationError("terminal fraction must lie in (0, 1]")
        if self.p is not None and not 0 <= self.p <= 1:
            raise GenerationError(f"p must lie in [0, 1], got {self.p!r}")
        if self.radius is not None and not self.radius > 0:
            raise GenerationError(f"radius must be positive, got {self.radius!r}")
        if self.levels_k is not None and self.levels_k < 1:
            raise GenerationError(
                f"levels_k must be at least 1, got {self.levels_k!r}")

    @property
    def label(self) -> str:
        return self.name or f"{self.kind}-n{self.n}-s{self.seed}"


def _is_int(x) -> bool:
    """An int, not a bool: JSON true is not a count or a seed."""
    return type(x) is int


def _finite_number(x) -> bool:
    """A real number, not a bool, that converts to a finite float."""
    try:
        return (isinstance(x, numbers.Real) and not isinstance(x, bool)
                and math.isfinite(x))
    except OverflowError:  # an int or Fraction too large for a float
        return False


def _shared(memo: dict[int, Weight], k: int, scale: int, exact: bool) -> Weight:
    """k / scale, one object per k: memo lives for one draw, and is keyed
    by the int k because hashing a Fraction costs far more."""
    w = memo.get(k)
    if w is None:
        w = memo[k] = Fraction(k, scale) if exact else k / scale
    return w


def _weight(rng: random.Random, spec: GeneratorSpec, memo: dict[int, Weight]) -> Weight:
    lo, hi = spec.weight_range
    return _shared(memo, rng.randint(8 * lo, 8 * hi), 8, spec.exact)


def _quantized_distance(d: float, exact: bool, memo: dict[int, Weight]) -> Weight:
    return _shared(memo, max(1, round(1024 * d)), 1024, exact)


def _try_erdos_renyi(rng: random.Random, spec: GeneratorSpec):
    # default density safely above the ln(n)/n connectivity threshold
    p = spec.p if spec.p is not None else min(1.0, 1.7 * math.log(spec.n) / spec.n)
    # One random() per pair in (u, v) order, and a weight draw after each
    # hit, is what a seed fixes: the draws cannot be batched or reordered.
    edges, memo, draw = [], {}, rng.random
    for u in range(spec.n):
        for v in range(u + 1, spec.n):
            if draw() < p:
                edges.append((u, v, _weight(rng, spec, memo)))
    return spec.n, edges


def _close_pairs(pts: list[tuple[float, float]], r: float
                 ) -> list[tuple[int, int, float]]:
    """(u, v, d) for every pair u < v of points in [0, 1)^2 whose distance
    d = hypot(pts[u][0] - pts[v][0], pts[u][1] - pts[v][1]) is at most r,
    in (u, v) order (Bentley, Stanat & Williams, IPL 6, 1977).

    Only pairs in the same or neighbouring cells of a k x k grid are
    tested, and no pair within r is missed despite rounding.  k is at most
    1/side for side = r(1 + 2^-20) + 2^-40, up to the rounding of 1/side.
    hypot errs by under an ulp and a coordinate difference is rounded
    once, so d <= r bounds the exact |x_u - x_v| by r(1 + 2^-50); each
    computed x * k errs by at most k * 2^-53.  So the computed x_u k and
    x_v k lie less than k(r(1 + 2^-50) + 2^-52) apart, which the margins
    keep below 1; their floors then differ by at most 1, and clamping into
    0..k-1 keeps that.  Duplicated points share a cell.  The 2^-40 term
    keeps 1/side finite for any r, and k <= n bounds the cells a tiny r
    makes.  k = 1 (one cell, every pair tested) once side exceeds 1/2, so
    whenever r >= 1.
    """
    n = len(pts)
    k = max(1, min(n, int(1 / (r * (1 + 2 ** -20) + 2 ** -40))))
    cell_of = [(min(int(x * k), k - 1), min(int(y * k), k - 1)) for x, y in pts]
    cells: dict[tuple[int, int], list[int]] = {}
    for u, c in enumerate(cell_of):
        cells.setdefault(c, []).append(u)
    blocks = {(cx, cy): sorted(v for bx in (cx - 1, cx, cx + 1)
                               for by in (cy - 1, cy, cy + 1)
                               for v in cells.get((bx, by), ()))
              for cx, cy in cells}
    out, hypot = [], math.hypot
    for u, (x, y) in enumerate(pts):
        block = blocks[cell_of[u]]
        for v in block[bisect.bisect_right(block, u):]:
            d = hypot(x - pts[v][0], y - pts[v][1])
            if d <= r:
                out.append((u, v, d))
    return out


def _try_geometric(rng: random.Random, spec: GeneratorSpec):
    r = spec.radius if spec.radius is not None else 1.8 / math.sqrt(spec.n)
    pts = [(rng.random(), rng.random()) for _ in range(spec.n)]
    memo: dict[int, Weight] = {}
    return spec.n, [(u, v, _quantized_distance(d, spec.exact, memo))
                    for u, v, d in _close_pairs(pts, r)]


def _try_grid(rng: random.Random, spec: GeneratorSpec):
    rows = max(1, math.isqrt(spec.n))
    cols = math.ceil(spec.n / rows)
    edges, memo = [], {}
    for vid in range(spec.n):
        r, c = divmod(vid, cols)
        right = vid + 1
        down = vid + cols
        if c + 1 < cols and right < spec.n:
            edges.append((vid, right, _weight(rng, spec, memo)))
        if down < spec.n:
            edges.append((vid, down, _weight(rng, spec, memo)))
    return spec.n, edges


def _unit_clique(spec: GeneratorSpec):
    one: Weight = 1 if spec.exact else 1.0
    edges = [(u, v, one) for u in range(spec.n) for v in range(u + 1, spec.n)]
    return spec.n, edges


def _partition_gadget(spec: GeneratorSpec):
    """The 2n-clique whose crossing edges (weight 2) undercut the
    within-side edges (weight 2 + delta); n here is the side size."""
    side = spec.n
    two: Weight = Fraction(2) if spec.exact else 2.0
    inner: Weight = (2 + Fraction(spec.delta)) if spec.exact else float(2 + spec.delta)
    edges = []
    total = 2 * side
    for u in range(total):
        for v in range(u + 1, total):
            crossing = (u < side) != (v < side)
            edges.append((u, v, two if crossing else inner))
    if not spec.subdivided:
        return total, edges, total
    mid = total
    out = []
    half_two, half_inner = two / 2, inner / 2
    for u, v, w in edges:
        half = half_two if w is two else half_inner
        out.append((u, mid, half))
        out.append((mid, v, half))
        mid += 1
    return mid, out, total


def _terminals(rng: random.Random, spec: GeneratorSpec, n_terminals_from: int):
    size = max(2, round(spec.terminal_fraction * n_terminals_from))
    size = min(size, n_terminals_from)
    return frozenset(rng.sample(range(n_terminals_from), size))


def _levels(rng: random.Random, spec: GeneratorSpec,
            terminals: frozenset[int]) -> dict[int, int] | None:
    if spec.levels_k is None:
        return None
    k = spec.levels_k
    levels = {t: rng.randint(1, k) for t in sorted(terminals)}
    if not any(lvl == k for lvl in levels.values()):
        top = rng.choice(sorted(terminals))
        levels[top] = k
    return levels


def generate(spec: GeneratorSpec):
    """Produce (graph, terminals, levels) for a spec, deterministically.

    Disconnected draws are retried with arithmetically derived seeds; a
    GenerationError reports retry exhaustion.
    """
    if spec.kind == "unit-clique":
        n, edges = _unit_clique(spec)
        g = Graph.from_edges(n, edges)
        return g, frozenset(range(n)), None
    if spec.kind == "partition-gadget":
        n, edges, n_orig = _partition_gadget(spec)
        g = Graph.from_edges(n, edges)
        return g, frozenset(range(n_orig)), None

    builders = {
        "erdos-renyi": _try_erdos_renyi,
        "geometric": _try_geometric,
        "grid": _try_grid,
    }
    build = builders[spec.kind]
    for attempt in range(MAX_RETRIES):
        rng = random.Random(spec.seed * 1009 + attempt)
        n, edges = build(rng, spec)
        try:
            g = Graph.from_edges(n, edges)
        except GraphError:
            continue
        terminals = _terminals(rng, spec, n)
        return g, terminals, _levels(rng, spec, terminals)
    raise GenerationError(
        f"no connected draw for {spec.label} in {MAX_RETRIES} attempts")
