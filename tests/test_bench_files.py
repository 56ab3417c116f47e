"""Every committed BENCH_*.json at the repository root parses and carries
what a performance claim cites: the revisions and seeds measured, parent
and change medians and quartiles per workload, the output comparison
verdicts, and the traced layer counters.  Its claim names a workload and
a metric the benchmark declares, and every verdict reads "outputs
identical" unless the file explains the difference in `differs_because`."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_at_least_one_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_carries_the_cited_fields(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in ("revisions", "seeds", "workloads", "compare", "trace"):
        assert key in doc, key
    assert all(doc["revisions"].get(side) for side in SIDES)
    assert doc["seeds"]
    assert doc["workloads"]
    for name, entry in doc["workloads"].items():
        for side in SIDES:
            assert entry[side], (name, side)
            for metric, s in entry[side].items():
                if isinstance(s, dict):
                    assert s["q1"] <= s["median"] <= s["q3"], (name, side, metric)
        verdicts = doc["compare"][name]
        assert verdicts and all(isinstance(v, str) for v in verdicts.values())
        for side in SIDES:
            layers = doc["trace"][side][name]
            assert layers and all(isinstance(v, (int, float))
                                  for v in layers.values())


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_claims_a_declared_workload_and_metric(path):
    claim = json.loads(path.read_text(encoding="utf-8"))["claim"]
    assert claim["workload"] in {w["name"] for w in DECLARED["workloads"]}
    assert claim["metric"] in {m["name"] for m in DECLARED["end_to_end"]}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_verdicts_read_outputs_identical(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("differs_because"):
        return
    for name, verdicts in doc["compare"].items():
        for run, verdict in verdicts.items():
            assert verdict.startswith("outputs identical"), (name, run, verdict)
