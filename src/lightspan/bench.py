"""Experiment runner: build spanners over generated instances, certify
every row with the oracle before logging, and emit CSV or JSON tables
suitable for plotting lightness trends and approximation-ratio spreads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

from .additive import EpsilonSplit, eps_spanner, four_eps_spanner
from .graph import Beta, certify_tolerance, run_value
from .generators import GeneratorSpec, _finite_number, generate
from .multilevel import MultiLevelInstance, four_approx_baseline, solve_multilevel
from .oracle import verify_spanner
from .sampled import SampleConfig, wmax_spanner

ALGORITHMS = ("eps", "four-eps", "wmax", "multilevel-e", "multilevel-4")

RESULT_COLUMNS = ("instance", "algo", "seed", "n", "S", "edges", "weight",
                  "lightness", "ok", "runtime_ms", "extra_json")


class ConfigError(ValueError):
    """The experiment configuration does not match the schema."""


class VerificationFailure(RuntimeError):
    """A constructed spanner failed oracle verification (release blocker)."""


@dataclass(frozen=True)
class ResultRow:
    instance: str
    algo: str
    seed: int
    n: int
    s: int
    edges: int
    weight: float
    lightness: float | None
    ok: bool
    runtime_ms: float
    extra: dict = field(default_factory=dict)

    def as_csv_fields(self) -> list[str]:
        return [
            self.instance, self.algo, str(self.seed), str(self.n), str(self.s),
            str(self.edges), repr(self.weight),
            "" if self.lightness is None else repr(self.lightness),
            "true" if self.ok else "false", repr(self.runtime_ms),
            json.dumps(self.extra, sort_keys=True),
        ]


def emit_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv_fields())
    return buf.getvalue()


def parse_csv(text: str) -> list[ResultRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(RESULT_COLUMNS):
        raise ConfigError(f"unexpected results header {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        rows.append(ResultRow(
            instance=rec[0], algo=rec[1], seed=int(rec[2]), n=int(rec[3]),
            s=int(rec[4]), edges=int(rec[5]), weight=float(rec[6]),
            lightness=None if rec[7] == "" else float(rec[7]),
            ok=rec[8] == "true", runtime_ms=float(rec[9]),
            extra=json.loads(rec[10]),
        ))
    return rows


def emit_json(rows: list[ResultRow]) -> str:
    """Each row's fields in order, with s named S as in the CSV header."""
    return json.dumps([{"S" if k == "s" else k: v for k, v in asdict(r).items()}
                       for r in rows], indent=2)


def _check_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    instances = config.get("instances")
    if not isinstance(instances, list) or not instances:
        raise ConfigError("config.instances must be a nonempty list")
    if not all(isinstance(entry, dict) for entry in instances):
        raise ConfigError("config.instances must hold JSON objects")
    algos = config.get("algorithms", [])
    if not isinstance(algos, list):
        raise ConfigError("config.algorithms must be a list")
    for a in algos:
        if a not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {a!r}; pick from {ALGORITHMS}")
    seeds = config.get("seeds", [0])
    # type(), not isinstance: JSON true and false are ints to isinstance.
    if not isinstance(seeds, list) or not all(type(s) is int for s in seeds):
        raise ConfigError("config.seeds must be a list of integers")
    if type(config.get("exact", False)) is not bool:
        raise ConfigError("config.exact must be a boolean")
    for key, default in (("epsilon", 0.5), ("c", 2.0)):
        if not _finite_number(config.get(key, default)):
            raise ConfigError(f"config.{key} must be a finite number")
    p = config.get("p", "e")
    if p != "e" and not _finite_number(p):
        raise ConfigError('config.p must be "e" or a finite number')


def _spec_from(entry: dict, exact: bool) -> GeneratorSpec:
    known = {f.name for f in fields(GeneratorSpec)} - {"exact"}  # set per config
    bad = set(entry) - known
    if bad:
        raise ConfigError(f"unknown instance fields {sorted(bad)}")
    kwargs = dict(entry)
    if isinstance(kwargs.get("weight_range"), list):
        kwargs["weight_range"] = tuple(kwargs["weight_range"])
    try:
        return GeneratorSpec(exact=exact, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad instance spec {entry}: {exc}") from exc


def run_experiment(config: dict) -> list[ResultRow]:
    """One certified row per (instance, algorithm, seed) cell.

    Raises VerificationFailure if any construction fails its oracle
    check; emitted tables therefore always carry ok=true.
    """
    _check_config(config)
    exact = config.get("exact", False)
    split = EpsilonSplit.of(run_value(config.get("epsilon", 0.5), exact))
    seeds = config.get("seeds", [0])
    c = config.get("c", 2.0)
    p = config.get("p", "e")
    p_base = math.e if p == "e" else p

    rows: list[ResultRow] = []
    for entry in config["instances"]:
        spec = _spec_from(entry, exact)
        g, terminals, levels = generate(spec)
        for algo in config.get("algorithms", []):
            for seed in seeds:
                rows.append(_run_cell(spec.label, g, terminals, levels, algo,
                                      seed, split, c, p_base))
    return rows


def _run_cell(label, g, terminals, levels, algo, seed, split, c,
              p_base) -> ResultRow:
    rel_tol = certify_tolerance(g)
    t0 = time.perf_counter()
    extra: dict = {}
    if algo in ("eps", "four-eps", "wmax"):
        if algo == "eps":
            sp = eps_spanner(g, terminals, split)
            beta = Beta("relative", split.eps)
        elif algo == "four-eps":
            sp = four_eps_spanner(g, terminals, split)
            beta = Beta("relative", 4 + split.eps)
        else:
            sp = wmax_spanner(g, terminals, SampleConfig(split, c=c, seed=seed))
            beta = Beta("wmax", 4 + split.eps)
            extra["ell"] = sp.meta["ell"]
            extra["fallback"] = sp.meta["fallback"]
            extra["repairs"] = len(sp.meta["repaired"])
        runtime = (time.perf_counter() - t0) * 1000
        report = verify_spanner(g, terminals, sp.edges, beta, rel_tol)
        if not report.ok:
            raise VerificationFailure(f"{label}/{algo}/seed={seed}: "
                                      f"{len(report.violations)} violations")
        light = None if sp.subset_lightness is None else float(sp.subset_lightness)
        return ResultRow(label, algo, seed, g.n, len(terminals), len(sp.edges),
                         float(sp.weight), light, True, runtime, extra)

    if levels is None:
        raise ConfigError(f"instance {label} has no levels; "
                          f"{algo} needs a multi-level instance")
    condition = Beta("relative", split.eps)
    inst = MultiLevelInstance(g, levels, max(levels.values()), condition)
    if algo == "multilevel-e":
        sol = solve_multilevel(inst, p=p_base, seed=seed)
    else:
        sol = four_approx_baseline(inst)
    runtime = (time.perf_counter() - t0) * 1000
    for i, es in enumerate(sol.edge_sets, start=1):
        terms = inst.terminal_set(i)
        if len(terms) < 2:
            continue
        report = verify_spanner(g, terms, es, condition, rel_tol)
        if not report.ok:
            raise VerificationFailure(f"{label}/{algo}: level {i} violated")
    extra["cost"] = float(sol.cost)
    extra["q"] = sol.q_used
    e1 = sol.edge_sets[0]
    weight = float(g.weight_sum(e1))
    return ResultRow(label, algo, seed, g.n, len(inst.terminal_set(1)),
                     len(e1), weight, None, True, runtime, extra)


def trend_config() -> dict:
    """The shipped lightness-vs-|S| trend configuration.

    Erdos-Renyi and geometric families at fixed n with growing terminal
    counts; the acceptance suite checks that mean eps-spanner lightness
    divided by |S| is non-increasing beyond |S| = 8 on these defaults.
    """
    instances = []
    for family, base in (("erdos-renyi", {"p": 0.18}), ("geometric", {"radius": 0.34})):
        for s_count in (4, 8, 12, 16):
            for seed in (1, 2, 3):
                instances.append({
                    "kind": family, "n": 48, "seed": seed,
                    "terminal_fraction": s_count / 48,
                    "name": f"{family}-S{s_count}-r{seed}",
                    **base,
                })
    return {
        "instances": instances,
        "algorithms": ["eps"],
        "epsilon": 0.5,
        "seeds": [0],
        "exact": False,
    }


def trend_curve(rows: list[ResultRow]) -> dict[str, list[tuple[int, float]]]:
    """Mean lightness per (family, |S|), sorted by |S|."""
    acc: dict[tuple[str, int], list[float]] = {}
    for r in rows:
        if r.lightness is None:
            continue
        family = r.instance.split("-S")[0]
        acc.setdefault((family, r.s), []).append(r.lightness)
    out: dict[str, list[tuple[int, float]]] = {}
    for (family, s), vals in sorted(acc.items()):
        out.setdefault(family, []).append((s, sum(vals) / len(vals)))
    return out
