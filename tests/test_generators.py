import math
import random
import sys
from fractions import Fraction

import pytest

from helpers import reference_geometric_edges
from lightspan import cli, generators
from lightspan.generators import KINDS, GenerationError, GeneratorSpec, generate


class TestUnitClique:
    def test_k6(self):
        g, terminals, levels = generate(GeneratorSpec("unit-clique", 6))
        assert g.n == 6 and len(g.edges) == 15
        assert all(w == 1 for _, _, w in g.edges)
        assert terminals == frozenset(range(6))
        assert levels is None

    def test_binary64_weights(self):
        g, _, _ = generate(GeneratorSpec("unit-clique", 4, exact=False))
        assert all(type(w) is float and w == 1 for _, _, w in g.edges)
        assert not g.is_exact


class TestPartitionGadget:
    def test_counts_and_weights(self):
        g, terminals, _ = generate(
            GeneratorSpec("partition-gadget", 3, delta=Fraction(1, 10)))
        assert g.n == 6 and len(g.edges) == 15
        crossing = [e for e in g.edges if (e[0] < 3) != (e[1] < 3)]
        inner = [e for e in g.edges if (e[0] < 3) == (e[1] < 3)]
        assert len(crossing) == 9 and all(w == 2 for _, _, w in crossing)
        assert len(inner) == 6 and all(w == Fraction(21, 10)
                                       for _, _, w in inner)
        assert terminals == frozenset(range(6))

    def test_subdivided_variant(self):
        g, terminals, _ = generate(
            GeneratorSpec("partition-gadget", 3, subdivided=True))
        # every original edge becomes two half-weight edges via a midpoint
        assert g.n == 6 + 15
        assert len(g.edges) == 30
        assert terminals == frozenset(range(6))
        assert g.is_exact
        halves = sorted({w for _, _, w in g.edges})
        assert halves == [Fraction(1), Fraction(21, 20)]


class TestRandomFamilies:
    @pytest.mark.parametrize("kind", ["erdos-renyi", "geometric", "grid"])
    def test_connected_and_deterministic(self, kind):
        spec = GeneratorSpec(kind, 20, seed=7)
        g1, t1, _ = generate(spec)
        g2, t2, _ = generate(spec)
        assert g1 == g2 and t1 == t2
        assert g1.is_connected()
        assert len(t1) >= 2

    def test_weights_quantized_and_in_range(self):
        g, _, _ = generate(GeneratorSpec("erdos-renyi", 15, seed=1,
                                         weight_range=(2, 5)))
        for _, _, w in g.edges:
            assert 2 <= w <= 5
            assert (w * 8).denominator == 1

    def test_exact_flag_controls_types(self):
        ge, _, _ = generate(GeneratorSpec("erdos-renyi", 12, seed=3, exact=True))
        gf, _, _ = generate(GeneratorSpec("erdos-renyi", 12, seed=3, exact=False))
        assert ge.is_exact and not gf.is_exact
        # same instance, different arithmetic
        assert [(u, v) for u, v, _ in ge.edges] == [(u, v) for u, v, _ in gf.edges]
        assert all(float(w1) == w2 for (_, _, w1), (_, _, w2)
                   in zip(ge.edges, gf.edges))

    def test_grid_is_path_when_one_row(self):
        g, _, _ = generate(GeneratorSpec("grid", 3, seed=2))
        assert len(g.edges) == 2  # rows=1, cols=3

    def test_levels_attached_with_top_level_present(self):
        spec = GeneratorSpec("erdos-renyi", 16, seed=5, levels_k=3)
        _, terminals, levels = generate(spec)
        assert levels is not None
        assert set(levels) == set(terminals)
        assert max(levels.values()) == 3

    def test_retry_exhaustion(self):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("erdos-renyi", 8, seed=1, p=0.0))

    def test_bad_specs(self):
        with pytest.raises(GenerationError):
            GeneratorSpec("mystery", 5)
        with pytest.raises(GenerationError):
            GeneratorSpec("grid", 5, weight_range=(0, 3))
        with pytest.raises(GenerationError):
            GeneratorSpec("grid", 5, terminal_fraction=0.0)
        with pytest.raises(GenerationError, match="two vertices"):
            GeneratorSpec("grid", 1)


class TestSpecBoundaries:
    # A spec is checked whole when it is made, so a wrong type or range
    # is a GenerationError (CLI exit 2), never a TypeError inside a draw
    # (exit 1) or a refusal after futile draws.
    @pytest.mark.parametrize("field, value", [
        ("n", 5.5), ("n", 1e3), ("n", True), ("n", "9"), ("n", None),
        ("seed", "3"), ("seed", None), ("seed", 1.5), ("seed", False),
        ("levels_k", "2"), ("levels_k", 2.0), ("levels_k", True),
        ("p", "0.5"), ("p", True), ("p", [0.5]),
        ("radius", "0.3"), ("radius", [0.3]),
        ("terminal_fraction", None), ("terminal_fraction", "0.5"),
        ("terminal_fraction", True),
        ("delta", [1]), ("delta", None), ("delta", "0.1"),
        ("p", math.nan), ("radius", math.inf), ("delta", math.inf),
        ("terminal_fraction", math.nan), ("delta", 10 ** 400),
        ("weight_range", (1, 2.5)), ("weight_range", (1,)),
        ("weight_range", (1, 2, 3)), ("weight_range", [1, 4]),
        ("weight_range", (True, 4)), ("weight_range", "ab"),
        ("weight_range", None),
        ("subdivided", 1), ("subdivided", None), ("subdivided", "yes"),
        ("name", 5), ("name", ["x"]),
    ])
    def test_mistyped_field_refused(self, field, value):
        with pytest.raises(GenerationError, match=f"^{field} must "):
            GeneratorSpec(**{"kind": "partition-gadget", "n": 4, field: value})

    @pytest.mark.parametrize("field, value", [
        ("p", -0.5), ("p", 1.5), ("p", -1e-300), ("radius", 0),
        ("radius", -1.0), ("levels_k", 0), ("levels_k", -2),
    ])
    def test_out_of_range_refused(self, field, value):
        with pytest.raises(GenerationError, match=f"^{field} must "):
            GeneratorSpec("erdos-renyi", 9, **{field: value})

    def test_range_edges_accepted(self):
        for fields in ({"p": 0.0}, {"p": 1}, {"p": 1.0}, {"radius": 1e-300},
                       {"levels_k": 1}, {"terminal_fraction": 1},
                       {"delta": Fraction(1, 3)}, {"delta": 0}, {"seed": -4},
                       {"name": None}, {"name": "x"}, {"subdivided": True},
                       {"weight_range": (2, 2)}):
            GeneratorSpec("erdos-renyi", 9, **fields)

    @pytest.mark.parametrize("flags", [
        ["--kind", "erdos-renyi", "--p", "nan"],
        ["--kind", "erdos-renyi", "--p", "-0.5"],
        ["--kind", "erdos-renyi", "--p", "1.5"],
        ["--kind", "geometric", "--radius", "-1"],
        ["--kind", "geometric", "--radius", "inf"],
        ["--kind", "grid", "--levels-k", "0"],
    ])
    def test_cli_refuses_before_any_draw(self, monkeypatch, capsys, flags):
        def no_draw(spec):
            pytest.fail(f"{spec} reached the generator")

        monkeypatch.setattr(cli, "generate", no_draw)
        assert cli.main(["generate", "--n", "1000", *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestSharedWeights:
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("kind, subdivided", [(kind, False) for kind in KINDS]
                             + [("partition-gadget", True)])
    def test_one_object_per_distinct_weight(self, kind, exact, subdivided):
        spec = GeneratorSpec(kind, 40 if kind != "partition-gadget" else 4,
                             seed=3, exact=exact, subdivided=subdivided)
        g, _, _ = generate(spec)
        weights = [w for _, _, w in g.edges]
        assert len({id(w) for w in weights}) == len(set(weights))

    @pytest.mark.parametrize("kind", ["erdos-renyi", "geometric", "grid"])
    def test_no_weight_object_outlives_its_call(self, kind):
        # The memo is local to one draw: a second call makes its own objects.
        for exact in (True, False):
            spec = GeneratorSpec(kind, 30, seed=4, exact=exact)
            g1, g2 = generate(spec)[0], generate(spec)[0]
            assert g1 == g2
            assert not {id(w) for *_, w in g1.edges} & {id(w) for *_, w in g2.edges}


def boundary_points(r, ms):
    """Points on, and one ulp either side of, the lines x = j/m and
    y = j/m, plus points on a 2^-30 grid beside them with partners
    exactly r away (for a dyadic r) along an axis and diagonally, and
    a few duplicates."""
    xs = set()
    for m in ms:
        for j in range(1, m):
            b = j / m
            q = round(b * 2 ** 30) / 2 ** 30
            xs |= {b, math.nextafter(b, 0), math.nextafter(b, 1), q}
            xs |= {x for x in (q + r, q - r, b + r, b - r) if 0 <= x < 1}
    xs = sorted(xs)
    pts = [(x, 0.5) for x in xs] + [(0.25, x) for x in xs]
    pts += [(x + 3 * r / 5, 0.5 + 4 * r / 5) for x in xs if x + 3 * r / 5 < 1]
    pts += pts[::7]
    return pts


class TestCellScan:
    # The grid scan must return exactly the double loop's (u, v, d) list.
    @pytest.mark.parametrize("r, ms", [
        (5 / 64, (11, 12, 13, 14)), (1 / 8, (7, 8, 9)), (0.1, (9, 10, 11)),
        (1 / 3, (2, 3, 4)), (0.5, (2, 3)),
    ])
    def test_points_at_cell_boundaries(self, r, ms):
        pts = boundary_points(r, ms)
        ref = reference_geometric_edges(pts, r)
        assert generators._close_pairs(pts, r) == ref
        # The set is adversarial: it holds pairs exactly r apart.
        assert any(d == r for *_, d in ref)

    def test_tiny_radius(self):
        pts = [(0.0, 0.0), (5e-324, 0.0), (1e-323, 0.0), (0.5, 0.5),
               (0.5, 0.5), (0.5, math.nextafter(0.5, 1)), (0.0, 5e-324)]
        for r in (5e-324, 1e-300):
            ref = reference_geometric_edges(pts, r)
            assert generators._close_pairs(pts, r) == ref
            assert (0, 1, 5e-324) in ref and (3, 4, 0.0) in ref

    @pytest.mark.parametrize("r", [math.sqrt(2), 1.5, sys.float_info.max])
    def test_radius_past_the_diagonal_gives_every_pair(self, r):
        top, rng = math.nextafter(1, 0), random.Random(5)
        pts = [(0.0, 0.0), (top, top), (0.0, top)] + [
            (rng.random(), rng.random()) for _ in range(20)]
        out = generators._close_pairs(pts, r)
        assert out == reference_geometric_edges(pts, r)
        assert len(out) == len(pts) * (len(pts) - 1) // 2

    @pytest.mark.parametrize("r", [0.01, 0.05, 0.2, 0.7, 1.0])
    def test_random_points(self, r):
        for seed in range(3):
            rng = random.Random(seed)
            pts = [(rng.random(), rng.random()) for _ in range(200)]
            pts += pts[:10]
            assert generators._close_pairs(pts, r) == reference_geometric_edges(pts, r)

    @pytest.mark.parametrize("n", [2, 3, 17, 80, 300])
    @pytest.mark.parametrize("radius", [None, 1e-9, 1.0])
    def test_generate_matches_reference_draw(self, monkeypatch, n, radius):
        # Same edges, same weight objects, same RNG state after the draw
        # (the terminals and levels are drawn from it), same failures.
        def draw(scan):
            monkeypatch.setattr(generators, "_close_pairs", scan)
            try:
                g, terminals, levels = generate(spec)
            except GenerationError as exc:
                return str(exc)
            first = {}
            sharing = [first.setdefault(id(w), i) for i, (*_, w) in enumerate(g.edges)]
            return g, [type(w) for *_, w in g.edges], sharing, terminals, levels

        scan = generators._close_pairs
        for seed in range(4 if n < 300 else 1):
            for exact in (True, False):
                spec = GeneratorSpec("geometric", n, seed=seed, radius=radius,
                                     levels_k=3, exact=exact)
                assert draw(scan) == draw(reference_geometric_edges)

    def test_distance_evaluations_are_linear(self, monkeypatch):
        # A count, not a timer: the double loop made n(n-1)/2 = 1,999,000.
        calls = 0
        hypot = math.hypot

        def counted(*args):
            nonlocal calls
            calls += 1
            return hypot(*args)

        monkeypatch.setattr(math, "hypot", counted)
        n = 2000
        generators._try_geometric(random.Random(1),
                                  GeneratorSpec("geometric", n, exact=False))
        assert 0 < calls <= 20 * n

    def test_smallest_radius_exhausts_retries(self):
        with pytest.raises(GenerationError, match="50 attempts"):
            generate(GeneratorSpec("geometric", 40, radius=5e-324))
