import json

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
from lightspan.cli import main


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
