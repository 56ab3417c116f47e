import dataclasses
import io
import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from lightspan.bench import (
    ConfigError,
    ResultRow,
    emit_csv,
    emit_json,
    parse_csv,
    run_experiment,
    trend_config,
    trend_curve,
)
from lightspan import bench as bench_mod
from lightspan.cli import build_parser, main
from lightspan.generators import GenerationError, GeneratorSpec
from lightspan.graph import Beta, load_instance
from lightspan.oracle import verify_spanner

README = Path(__file__).resolve().parent.parent / "README.md"


class TestRunExperiment:
    def test_empty_algorithms_gives_header_only(self):
        config = {"instances": [{"kind": "unit-clique", "n": 5}],
                  "algorithms": []}
        rows = run_experiment(config)
        assert rows == []
        assert emit_csv(rows).splitlines() == [
            "instance,algo,seed,n,S,edges,weight,lightness,ok,runtime_ms,extra_json"]

    def test_single_tree_instance_eps(self):
        # grid with one row is a path, hence a tree
        config = {
            "instances": [{"kind": "grid", "n": 3, "seed": 1,
                           "terminal_fraction": 1.0, "name": "path3"}],
            "algorithms": ["eps"],
            "epsilon": 0.5,
            "seeds": [0],
            "exact": True,
        }
        rows = run_experiment(config)
        assert len(rows) == 1
        row = rows[0]
        assert row.ok is True
        assert row.lightness is not None and row.lightness <= 2
        assert row.instance == "path3" and row.algo == "eps"

    def test_all_algorithms_on_one_instance(self):
        config = {
            "instances": [{"kind": "erdos-renyi", "n": 14, "seed": 4,
                           "levels_k": 2, "name": "er14"}],
            "algorithms": ["eps", "four-eps", "wmax", "multilevel-e",
                           "multilevel-4"],
            "epsilon": 0.5,
            "seeds": [1, 2],
            "exact": True,
        }
        rows = run_experiment(config)
        assert len(rows) == 10
        assert all(r.ok for r in rows)
        ml = [r for r in rows if r.algo == "multilevel-e"]
        assert all("cost" in r.extra and "q" in r.extra for r in ml)

    def test_unit_clique_family_reports_exact_half_n_lightness(self):
        # Forced spanner on unit cliques: the lightness column is n/2.
        config = {
            "instances": [{"kind": "unit-clique", "n": n,
                           "name": f"K{n}"} for n in (6, 10, 14, 20)],
            "algorithms": ["eps"],
            "epsilon": 0.5,
            "seeds": [0],
            "exact": True,
        }
        rows = run_experiment(config)
        for row in rows:
            assert row.lightness == row.n / 2
            assert row.edges == row.n * (row.n - 1) // 2

    @pytest.mark.parametrize("field", [
        {"epsilon": True}, {"seeds": [True, False]}, {"seeds": [0, True]},
        {"c": True}, {"c": False},
    ])
    def test_boolean_knobs_rejected(self, field):
        # JSON true/false are Python ints: epsilon true would run eps = 1,
        # and a True seed would reach the CSV as a seed parse_csv rejects.
        config = {"instances": [{"kind": "unit-clique", "n": 4}],
                  "algorithms": ["eps"], **field}
        with pytest.raises(ConfigError):
            run_experiment(config)

    @pytest.mark.parametrize("field", [
        {"c": None}, {"p": None}, {"c": "2"}, {"exact": "no"}, {"exact": 1},
    ])
    def test_mistyped_knobs_rejected(self, tmp_path, capsys, field):
        # Each is refused, not coerced: float() would crash on null
        # (exit 1) or read "2" as 2.0, and bool() would take "no" as true.
        config = {"instances": [{"kind": "unit-clique", "n": 4}],
                  "algorithms": ["wmax"], **field}
        with pytest.raises(ConfigError):
            run_experiment(config)
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg_file)]) == 2
        assert "config." in capsys.readouterr().err

    @pytest.mark.parametrize("field,algo,instance", [
        ({"c": 10 ** 400}, "wmax", {"kind": "unit-clique", "n": 4}),
        ({"p": 10 ** 400}, "multilevel-e",
         {"kind": "erdos-renyi", "n": 12, "levels_k": 2}),
        ({"p": -10 ** 400}, "multilevel-e",
         {"kind": "erdos-renyi", "n": 12, "levels_k": 2}),
        ({"epsilon": 10 ** 400}, "eps", {"kind": "unit-clique", "n": 4}),
        ({"c": math.inf}, "wmax", {"kind": "unit-clique", "n": 4}),
        ({"p": math.nan}, "multilevel-e",
         {"kind": "erdos-renyi", "n": 12, "levels_k": 2}),
    ])
    def test_numbers_beyond_binary64_rejected(self, tmp_path, capsys, field,
                                              algo, instance):
        # A 401-digit integer passes every range check, then overflows
        # converting to float inside the build (exit 1 with a traceback).
        config = {"instances": [instance], "algorithms": [algo], **field}
        with pytest.raises(ConfigError, match="finite"):
            run_experiment(config)
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg_file)]) == 2
        assert "finite number" in capsys.readouterr().err

    def test_binary64_unit_clique(self, tmp_path, capsys):
        # The certification tolerance follows the graph, which is binary64.
        config = {"instances": [{"kind": "unit-clique", "n": 5}],
                  "algorithms": ["eps", "four-eps", "wmax"]}
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg_file)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3 and all(r["ok"] for r in rows)

    @pytest.mark.parametrize("key", ["mystery", "exact"])
    def test_unknown_or_exact_instance_key_refused(self, tmp_path, capsys,
                                                   key):
        # The whole config sets `exact`; an instance entry may not.
        config = {"instances": [{"kind": "grid", "n": 9, key: True}],
                  "algorithms": ["eps"]}
        with pytest.raises(ConfigError, match="unknown instance fields"):
            run_experiment(config)
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg_file)]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_every_other_spec_field_accepted(self):
        values = {"kind": "grid", "n": 9, "seed": 3, "p": 0.5, "radius": 0.5,
                  "weight_range": [1, 4], "terminal_fraction": 0.5,
                  "delta": 0.25, "subdivided": True, "levels_k": 2,
                  "name": "grid-9"}
        assert set(values) == ({f.name for f in dataclasses.fields(GeneratorSpec)}
                               - {"exact"})
        for entry in [{"kind": "grid", "n": 9, k: v} for k, v in values.items()
                      ] + [values]:
            rows = run_experiment({"instances": [entry], "algorithms": ["eps"]})
            assert len(rows) == 1 and rows[0].ok

    @pytest.mark.parametrize("entry", [
        {"kind": "grid", "n": 5.5}, {"kind": "grid", "n": 1e3},
        {"kind": "grid", "n": 9, "seed": "3"},
        {"kind": "grid", "n": 9, "seed": None},
        {"kind": "grid", "n": 9, "seed": 1.5},
        {"kind": "grid", "n": 9, "levels_k": "2"},
        {"kind": "erdos-renyi", "n": 9, "p": "0.5"},
        {"kind": "geometric", "n": 9, "radius": "0.3"},
        {"kind": "partition-gadget", "n": 3, "delta": [1]},
        {"kind": "grid", "n": 9, "weight_range": 3},
        5, None,
    ])
    def test_mistyped_instance_entry_refused(self, tmp_path, capsys, entry):
        # Each raised a TypeError inside the build (exit 1, which means
        # a verification failure), or ran with a truncated seed.
        config = {"instances": [entry], "algorithms": ["eps"]}
        with pytest.raises(ConfigError):
            run_experiment(config)
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(config))
        assert main(["bench", "--config", str(cfg_file)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_multilevel_requires_levels(self):
        config = {"instances": [{"kind": "unit-clique", "n": 5}],
                  "algorithms": ["multilevel-e"]}
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_schema_errors(self):
        with pytest.raises(ConfigError):
            run_experiment({"instances": []})
        with pytest.raises(ConfigError):
            run_experiment({"instances": [{}], "algorithms": ["magic"]})
        with pytest.raises(ConfigError):
            run_experiment({"instances": [{"kind": "grid", "n": 4}],
                            "algorithms": [], "seeds": "nope"})
        with pytest.raises(ConfigError):
            run_experiment({"instances": [{"kind": "grid", "n": 4,
                                           "mystery": 1}],
                            "algorithms": []})


class TestCsvRoundTrip:
    def test_parse_emit_identity(self):
        rows = [
            ResultRow("er-1", "eps", 3, 20, 5, 17, 123.5, 1.75, True, 8.25,
                      {"note": "x"}),
            ResultRow("gadget", "wmax", 1, 12, 4, 9, 55.125, None, True,
                      3.0, {"ell": 2.5, "repairs": 0}),
        ]
        assert parse_csv(emit_csv(rows)) == rows

    def test_json_emission_parses(self):
        rows = [ResultRow("a", "eps", 0, 5, 2, 4, 10.0, 1.0, True, 1.0, {})]
        doc = json.loads(emit_json(rows))
        assert doc[0]["instance"] == "a" and doc[0]["ok"] is True

    def test_bad_header_rejected(self):
        with pytest.raises(ConfigError):
            parse_csv("a,b,c\n1,2,3\n")


class TestTrend:
    def test_shipped_config_shape(self):
        cfg = trend_config()
        assert cfg["algorithms"] == ["eps"]
        kinds = {e["kind"] for e in cfg["instances"]}
        assert kinds == {"erdos-renyi", "geometric"}

    def test_trend_curve_aggregation(self):
        rows = [
            ResultRow("erdos-renyi-S4-r1", "eps", 0, 48, 4, 1, 1.0, 2.0,
                      True, 1.0, {}),
            ResultRow("erdos-renyi-S4-r2", "eps", 0, 48, 4, 1, 1.0, 4.0,
                      True, 1.0, {}),
            ResultRow("erdos-renyi-S8-r1", "eps", 0, 48, 8, 1, 1.0, 5.0,
                      True, 1.0, {}),
        ]
        curve = trend_curve(rows)
        assert curve["erdos-renyi"] == [(4, 3.0), (8, 5.0)]


class TestCli:
    def test_generate_then_spanner_then_verify(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "erdos-renyi", "--n", "14",
                   "--seed", "3"])
        assert rc == 0
        instance = capsys.readouterr().out
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(instance)

        rc = main(["spanner", "--input", str(inst_file), "--algo", "eps",
                   "--epsilon", "0.5", "--exact-arithmetic"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["edge_count"] > 0

        edges_file = tmp_path / "edges.txt"
        edges_file.write_text(
            "\n".join(f"{u} {v}" for u, v in result["edges"]))
        rc = main(["verify", "--input", str(inst_file), "--edges",
                   str(edges_file), "--epsilon", "0.5",
                   "--exact-arithmetic"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True

    def test_four_eps_subcommand_verifies_at_four_plus_eps(self, tmp_path,
                                                           capsys):
        assert main(["generate", "--kind", "erdos-renyi", "--n", "14",
                     "--seed", "3"]) == 0
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(capsys.readouterr().out)
        assert main(["spanner", "--input", str(inst_file), "--algo",
                     "four-eps", "--epsilon", "0.5", "--format", "csv"]) == 0
        edges_file = tmp_path / "edges.csv"
        edges_file.write_text(capsys.readouterr().out)
        assert main(["verify", "--input", str(inst_file), "--edges",
                     str(edges_file), "--epsilon", "4.5"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_verify_detects_violations_with_exit_code_one(self, tmp_path,
                                                          capsys):
        rc = main(["generate", "--kind", "unit-clique", "--n", "5"])
        assert rc == 0
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(capsys.readouterr().out)
        edges_file = tmp_path / "edges.txt"
        edges_file.write_text("0 1\n0 2\n0 3\n0 4\n")  # star misses pairs
        rc = main(["verify", "--input", str(inst_file), "--edges",
                   str(edges_file), "--epsilon", "0.5",
                   "--exact-arithmetic"])
        assert rc == 1

    def test_verify_reads_spanner_csv_from_stdin(self, tmp_path, capsys,
                                                 monkeypatch):
        rc = main(["generate", "--kind", "grid", "--n", "16", "--seed", "2"])
        assert rc == 0
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(capsys.readouterr().out)
        rc = main(["spanner", "--input", str(inst_file), "--algo", "eps",
                   "--epsilon", "0.5", "--format", "csv"])
        assert rc == 0
        csv = capsys.readouterr().out
        assert csv.startswith("u,v\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(csv))
        rc = main(["verify", "--input", str(inst_file), "--edges", "-",
                   "--epsilon", "0.5"])
        assert rc == 0, capsys.readouterr().err
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_wmax_subcommand(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "erdos-renyi", "--n", "12",
                   "--seed", "9"])
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(capsys.readouterr().out)
        rc = main(["spanner", "--input", str(inst_file), "--algo", "wmax",
                   "--epsilon", "0.5", "--seed", "4", "--c", "2.0",
                   "--exact-arithmetic"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["edge_count"] > 0

    def test_multilevel_subcommand(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "erdos-renyi", "--n", "12",
                   "--seed", "5", "--levels-k", "2"])
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(capsys.readouterr().out)
        rc = main(["multilevel", "--input", str(inst_file), "--epsilon",
                   "1.0", "--seed", "8"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"] > 0 and len(doc["levels"]) == 2

        rc = main(["multilevel", "--input", str(inst_file), "--epsilon",
                   "1.0", "--baseline"])
        assert rc == 0
        capsys.readouterr()

        doc = json.loads(inst_file.read_text())
        del doc["levels"]
        inst_file.write_text(json.dumps(doc))
        assert main(["multilevel", "--input", str(inst_file)]) == 2
        assert "no 'levels' map" in capsys.readouterr().err

    def test_bench_subcommand_csv(self, tmp_path, capsys):
        config = {
            "instances": [{"kind": "grid", "n": 6, "seed": 2}],
            "algorithms": ["eps"],
            "epsilon": 0.5,
            "seeds": [0],
        }
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(config))
        rc = main(["bench", "--config", str(cfg_file), "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("instance,algo,seed")
        out_file = tmp_path / "rows.csv"
        rc = main(["bench", "--config", str(cfg_file), "--format", "csv",
                   "--out", str(out_file)])
        assert rc == 0 and capsys.readouterr().out == ""
        # The same row, built again: only its runtime differs.
        written, printed = (
            [dataclasses.replace(r, runtime_ms=0) for r in parse_csv(text)]
            for text in (out_file.read_text(), out))
        assert len(written) == 1 and written == printed

    def test_bench_verification_failure_exit_code_one(self, tmp_path, capsys,
                                                      monkeypatch):
        # Exit 1 is kept for a build the oracle rejects.
        real = bench_mod.verify_spanner

        def failing(*args):
            return dataclasses.replace(real(*args), ok=False)

        monkeypatch.setattr(bench_mod, "verify_spanner", failing)
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"instances": [{"kind": "grid", "n": 6}],
                                        "algorithms": ["eps"]}))
        assert main(["bench", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err.startswith("verification failure: ")

    @pytest.mark.parametrize("w", ["Infinity", "true"])
    def test_verify_rejects_infinite_or_bool_weight(self, tmp_path, capsys, w):
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(
            f'{{"n": 3, "edges": [[0, 1, 1], [1, 2, {w}]], "terminals": [0, 2]}}')
        edges_file = tmp_path / "edges.txt"
        edges_file.write_text("0 1\n1 2\n")
        for flags in ([], ["--exact-arithmetic"]):
            rc = main(["verify", "--input", str(inst_file), "--edges",
                       str(edges_file), "--epsilon", "0.5", *flags])
            assert rc == 2
        assert "weight" in capsys.readouterr().err

    def test_bad_input_exit_code_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["spanner", "--input", str(bad), "--algo", "eps"])
        assert rc == 2
        rc = main(["spanner", "--input", str(tmp_path / "missing.json"),
                   "--algo", "eps"])
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        ["--algo", "wmax", "--c", "inf"],
        ["--algo", "wmax", "--ell", "inf"],
        ["--algo", "eps", "--epsilon", "inf"],
        ["--algo", "wmax", "--epsilon", "inf"],
    ])
    def test_non_finite_knob_exit_code_two(self, tmp_path, capsys, flags):
        rc = main(["generate", "--kind", "grid", "--n", "16", "--seed", "2"])
        assert rc == 0
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(capsys.readouterr().out)
        rc = main(["spanner", "--input", str(inst_file), *flags])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_verify_non_finite_epsilon_exit_code_two(self, tmp_path, capsys,
                                                     value):
        # With an infinite allowance even the empty edge set would pass.
        rc = main(["generate", "--kind", "grid", "--n", "16", "--seed", "2"])
        assert rc == 0
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(capsys.readouterr().out)
        edges_file = tmp_path / "edges.txt"
        edges_file.write_text("")
        rc = main(["verify", "--input", str(inst_file), "--edges",
                   str(edges_file), "--epsilon", value])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_overflowing_oversampling_samples_every_backbone_vertex(
            self, tmp_path, capsys):
        # c ln n |V_H| / ell overflows to infinity; the sample is capped
        # at |V_H| before rounding up.
        rc = main(["generate", "--kind", "grid", "--n", "16", "--seed", "2"])
        assert rc == 0
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(capsys.readouterr().out)
        rc = main(["spanner", "--input", str(inst_file), "--algo", "wmax",
                   "--c", "1e308"])
        assert rc == 0, capsys.readouterr().err
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert meta["fallback"] is False
        assert meta["sample_size"] == meta["v_h"]

    @pytest.mark.parametrize("doc, message", [
        ('{"n": -1, "edges": []}', "negative"),
        ('{"n": 1000000, "edges": [[0, 1, 1]]}', "cannot connect"),
    ])
    def test_impossible_vertex_counts_exit_code_two(self, tmp_path, capsys,
                                                    doc, message):
        # Exit 1 means a verification failure; a bad graph is exit 2.
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(doc)
        for flags in ([], ["--exact-arithmetic"]):
            assert main(["spanner", "--input", str(inst_file), *flags]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("terminals", ["5", "null", "{}", '"abc"'])
    def test_non_array_terminals_exit_code_two(self, tmp_path, capsys,
                                               terminals):
        inst_file = tmp_path / "inst.json"
        inst_file.write_text('{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], '
                             f'"terminals": {terminals}}}')
        rc = main(["spanner", "--input", str(inst_file), "--algo", "eps"])
        assert rc == 2
        assert "terminals" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        '{"n": 3, "edges": [[0, 1.5, 1], [1, 2, 1]], "terminals": [0, 2]}',
        '{"n": 3, "edges": [[0, 1, 1], [1, 2, 1]], "terminals": [0, 2.9]}',
        '{"n": 3, "edges": [[0, 1, 1], [1, true, 1]], "terminals": [0, 2]}',
    ])
    def test_non_integer_ids_exit_code_two(self, tmp_path, capsys, doc):
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(doc)
        for flags in ([], ["--exact-arithmetic"]):
            rc = main(["spanner", "--input", str(inst_file), "--algo", "eps",
                       *flags])
            assert rc == 2
        assert "integer" in capsys.readouterr().err

    def test_multilevel_infinite_p_exit_code_two(self, tmp_path, capsys):
        # p = inf would round every level to inf and print Infinity,
        # which is not JSON.
        rc = main(["generate", "--kind", "erdos-renyi", "--n", "12",
                   "--seed", "5", "--levels-k", "2"])
        assert rc == 0
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(capsys.readouterr().out)
        rc = main(["multilevel", "--input", str(inst_file), "--p", "inf"])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("generate", "--epsilon"), ("generate", "--beta-mode"),
        ("generate", "--format"), ("spanner", "--beta-mode"),
        ("multilevel", "--format"), ("verify", "--seed"),
        ("verify", "--format"), ("bench", "--epsilon"),
        ("bench", "--beta-mode"), ("bench", "--seed"),
        ("bench", "--exact-arithmetic"),
    ])
    def test_unread_shared_flag_is_a_usage_error(self, capsys, command, flag):
        required = {"generate": ["--kind", "grid", "--n", "4"],
                    "spanner": ["--input", "-"],
                    "multilevel": ["--input", "-"],
                    "verify": ["--input", "-", "--edges", "-"],
                    "bench": ["--config", "-"]}[command]
        value = {"--epsilon": ["0.5"], "--beta-mode": ["wmax"],
                 "--format": ["csv"], "--seed": ["1"],
                 "--exact-arithmetic": []}[flag]
        assert main([command, *required, flag, *value]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_command_lines_parse(self):
        block = re.search(r"## Command line\n\n```sh\n(.*?)```",
                          README.read_text(encoding="utf-8"), re.S).group(1)
        lines = [ln for ln in block.splitlines() if ln.startswith("lightspan ")]
        assert len(lines) >= 7
        parser = build_parser()
        for line in lines:
            words = shlex.split(line)
            cut = next((i for i, w in enumerate(words) if w[0] in "<>|"),
                       len(words))
            parser.parse_args(words[1:cut])  # SystemExit on a usage error


def strict_json(text):
    """The document parsed with NaN and Infinity refused: neither is JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


BIG = 10 ** 400


class TestNumbersBeyondBinary64:
    @pytest.mark.parametrize("w", [str(BIG), '"1e400"'], ids=["int", "string"])
    def test_exact_documents_print_exact_strings(self, tmp_path, capsys, w):
        # float() overflows on these weights; the documents carry them
        # exactly, as dump_instance writes them.
        inst = tmp_path / "inst.json"
        inst.write_text(f'{{"n": 3, "edges": [[0, 1, {w}], [1, 2, 1]], '
                        f'"terminals": [0, 1, 2], "levels": {{"0": 1, "1": 2, "2": 1}}}}')
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        flags = ["--input", str(inst), "--exact-arithmetic"]
        assert main(["spanner", *flags]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["weight"] == str(BIG + 1) and doc["edge_count"] == 2
        assert main(["multilevel", *flags]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert isinstance(doc["cost"], str) and int(doc["cost"]) > BIG
        assert main(["verify", *flags, "--edges", str(edges)]) == 0
        assert strict_json(capsys.readouterr().out)["ok"] is True

    def test_verify_reports_a_disconnected_pair_as_infinite_excess(
            self, tmp_path, capsys):
        # d_H is inf for the pairs the edge set leaves apart; inf minus a
        # Fraction beyond binary64 overflowed, and the excess is inf.
        doc = (f'{{"n": 3, "edges": [[0, 1, {BIG}], [1, 2, 1]], '
               f'"terminals": [0, 1, 2]}}')
        g, terminals, _ = load_instance(doc, exact=True)
        report = verify_spanner(g, terminals, [(0, 1)],
                                Beta("relative", Fraction(1, 2)))
        assert not report.ok and report.max_excess == math.inf
        assert [(v.pair, v.d_h, v.excess) for v in report.violations] == [
            ((0, 2), math.inf, math.inf), ((1, 2), math.inf, math.inf)]
        inst = tmp_path / "inst.json"
        inst.write_text(doc)
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n")
        assert main(["verify", "--input", str(inst), "--edges", str(edges),
                     "--exact-arithmetic"]) == 1
        out = strict_json(capsys.readouterr().out)
        assert out["ok"] is False and out["max_excess"] == "inf"
        assert [v["excess"] for v in out["violations"]] == ["inf", "inf"]
        assert out["violations"][0]["d_g"] == str(BIG + 1)

    def test_weight_range_beyond_binary64_is_refused(self, tmp_path, capsys):
        with pytest.raises(GenerationError):
            GeneratorSpec("grid", n=9, weight_range=(1, BIG))
        for flags in ([], ["--exact-arithmetic"]):
            assert main(["generate", "--kind", "grid", "--n", "9",
                         "--weight-max", str(BIG), *flags]) == 2
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"instances": [{"kind": "grid", "n": 9,
                                                  "weight_range": [1, BIG]}],
                                   "algorithms": ["eps"]}))
        assert main(["bench", "--config", str(cfg)]) == 2
        assert "weight range" in capsys.readouterr().err

    def test_binary64_path_lengths_that_overflow_are_refused(self, tmp_path,
                                                            capsys):
        inst = tmp_path / "inst.json"
        inst.write_text('{"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]], '
                        '"terminals": [0, 1, 2]}')
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        assert main(["spanner", "--input", str(inst)]) == 2
        assert main(["verify", "--input", str(inst), "--edges", str(edges)]) == 2
        assert capsys.readouterr().err.count("sum to infinity") == 2

    def test_binary64_wmax_with_an_underflowing_tree_edge(self, tmp_path,
                                                          capsys):
        inst = tmp_path / "inst.json"
        inst.write_text('{"n": 4, "edges": [[0, 1, 1e300], [1, 2, 1e300], '
                        '[2, 3, 1e300], [0, 3, 1e-300]]}')
        assert main(["spanner", "--input", str(inst), "--algo", "wmax"]) == 0
        doc = strict_json(capsys.readouterr().out)
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"{u} {v}\n" for u, v in doc["edges"]))
        assert main(["verify", "--input", str(inst), "--edges", str(edges),
                     "--beta-mode", "wmax"]) == 0
        assert strict_json(capsys.readouterr().out)["ok"] is True


# One value of each JSON type, and per field of a bench config, a bench
# instance entry and an instance document the types its schema accepts.
JSON_TYPES = {"null": None, "bool": True, "int": 3, "float": 1.5,
              "string": "x", "array": [], "object": {}}
NUMBER = ("int", "float")
BENCH_CONFIG = {"instances": [{"kind": "grid", "n": 4}], "algorithms": ["eps"],
                "seeds": [0]}
BENCH_FIELDS = {
    ("instances",): ("array",), ("instances", 0): ("object",),
    ("algorithms",): ("array",), ("algorithms", 0): ("string",),
    ("seeds",): ("array",), ("seeds", 0): ("int",), ("exact",): ("bool",),
    ("epsilon",): NUMBER, ("c",): NUMBER, ("p",): ("string", *NUMBER),
    **{("instances", 0, name): accepted for name, accepted in {
        "kind": ("string",), "n": ("int",), "seed": ("int",),
        "p": ("null", *NUMBER), "radius": ("null", *NUMBER),
        "weight_range": ("array",), "terminal_fraction": NUMBER,
        "delta": NUMBER, "subdivided": ("bool",),
        "levels_k": ("null", "int"), "name": ("null", "string"),
    }.items()},
}
DOCUMENT = {"n": 3, "edges": [[0, 1, 1], [1, 2, 2], [0, 2, 2]],
            "terminals": [0, 1, 2], "levels": {"0": 1, "1": 2, "2": 1}}
DOCUMENT_FIELDS = {
    ("n",): ("int",), ("edges",): ("array",), ("edges", 0): ("array",),
    ("edges", 0, 0): ("int",), ("edges", 0, 2): ("string", *NUMBER),
    ("terminals",): ("array",), ("terminals", 0): ("int",),
    ("levels",): ("null", "object"), ("levels", "1"): ("int",),
}
CONTRACT_CASES = [
    (command, path, kind)
    for commands, fields in ((("bench",), BENCH_FIELDS),
                             (("spanner", "multilevel", "verify"), DOCUMENT_FIELDS))
    for command in commands
    for path, accepted in fields.items()
    for kind in JSON_TYPES if kind not in accepted
]


class TestExitCodeContract:
    @pytest.mark.parametrize(
        "command, path, kind", CONTRACT_CASES,
        ids=[f"{c}-{'.'.join(map(str, p))}-{k}" for c, p, k in CONTRACT_CASES])
    def test_refused_json_type_exits_two(self, tmp_path, capsys, command,
                                         path, kind):
        # A value of a type the schema refuses is bad input: exit 2 with
        # one error line, never an escaping exception or exit 1.
        doc = json.loads(json.dumps(BENCH_CONFIG if command == "bench"
                                    else DOCUMENT))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = JSON_TYPES[kind]
        doc_file = tmp_path / "doc.json"
        doc_file.write_text(json.dumps(doc))
        edges_file = tmp_path / "edges.txt"
        edges_file.write_text("0 1\n1 2\n")
        argv = {"bench": ["--config", str(doc_file)],
                "verify": ["--input", str(doc_file), "--edges", str(edges_file)],
                }.get(command, ["--input", str(doc_file)])
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("w", ["NaN", "-Infinity", "Infinity"])
    def test_non_finite_json_weight_exits_two(self, tmp_path, capsys, w, exact):
        # JSON's NaN and +-Infinity constants reach the graph as floats in
        # either mode, and are refused as not finite, not as nonpositive.
        doc_file = tmp_path / "doc.json"
        doc_file.write_text(f'{{"n": 2, "edges": [[0, 1, {w}]]}}')
        flags = ["--exact-arithmetic"] if exact else []
        assert main(["spanner", "--input", str(doc_file), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "finite" in err[0], err
