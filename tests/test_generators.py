import math
from fractions import Fraction

import pytest

from lightspan import cli
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
