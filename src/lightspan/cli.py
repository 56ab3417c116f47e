"""Command-line surface: generate, spanner, multilevel, verify, bench.

Exit codes: 0 success, 1 verification failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .additive import EpsilonSplit, eps_spanner, four_eps_spanner
from .bench import (
    ConfigError,
    VerificationFailure,
    emit_csv,
    emit_json,
    run_experiment,
)
from .generators import GeneratorSpec, generate
from .graph import (
    Beta,
    GraphError,
    certify_tolerance,
    dump_instance,
    json_number,
    load_instance,
    run_value,
)
from .multilevel import MultiLevelInstance, four_approx_baseline, solve_multilevel
from .oracle import verify_spanner
from .sampled import SampleConfig, wmax_spanner


_FLAGS = {
    "--epsilon": dict(type=float, default=0.5),
    "--beta-mode": dict(choices=("relative", "wmax"), default="relative"),
    "--seed": dict(type=int, default=0),
    "--format": dict(choices=("csv", "json"), default="json"),
    "--exact-arithmetic": dict(action="store_true", help="run with rational "
                               "weights (tolerance-free checks)"),
}


def _add_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """The shared flags a command reads; any other is a usage error."""
    for name in names:
        sub.add_argument(name, **_FLAGS[name])


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_instance_arg(args):
    return load_instance(_read(args.input), exact=args.exact_arithmetic)


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        kind=args.kind, n=args.n, seed=args.seed, p=args.p,
        radius=args.radius, weight_range=(args.weight_min, args.weight_max),
        terminal_fraction=args.terminal_fraction, delta=Fraction(str(args.delta)),
        subdivided=args.subdivided, levels_k=args.levels_k,
        exact=args.exact_arithmetic,
    )
    g, terminals, levels = generate(spec)
    print(dump_instance(g, terminals, levels))
    return 0


def _spanner_summary(sp, fmt: str) -> str:
    doc = {
        "edges": sorted([list(e) for e in sp.edges]),
        "edge_count": len(sp.edges),
        "weight": json_number(sp.weight),
        "subset_lightness": None if sp.subset_lightness is None
        else json_number(sp.subset_lightness),
        "meta": sp.meta,
    }
    if fmt == "json":
        return json.dumps(doc, indent=2)
    lines = ["u,v"]
    lines += [f"{u},{v}" for u, v in sorted(sp.edges)]
    return "\n".join(lines)


def _cmd_spanner(args) -> int:
    g, terminals, _levels = _load_instance_arg(args)
    split = EpsilonSplit.of(run_value(args.epsilon, args.exact_arithmetic))
    if args.algo == "eps":
        sp = eps_spanner(g, terminals, split)
    elif args.algo == "four-eps":
        sp = four_eps_spanner(g, terminals, split)
    else:
        ell = None if args.ell == "auto" else float(args.ell)
        sp = wmax_spanner(g, terminals,
                          SampleConfig(split, c=args.c, seed=args.seed, ell=ell))
    print(_spanner_summary(sp, args.format))
    return 0


def _cmd_multilevel(args) -> int:
    g, _terminals, levels = _load_instance_arg(args)
    if not levels:
        raise GraphError("instance document has no 'levels' map")
    split = EpsilonSplit.of(run_value(args.epsilon, args.exact_arithmetic))
    condition = Beta(args.beta_mode, split.eps)
    inst = MultiLevelInstance(g, levels, max(levels.values()), condition)
    if args.baseline:
        sol = four_approx_baseline(inst)
    else:
        p = math.e if args.p == "e" else float(args.p)
        sol = solve_multilevel(inst, p=p, seed=args.seed)
    doc = {
        "cost": json_number(sol.cost),
        "q": sol.q_used,
        "rounded_levels": [float(v) for v in sol.rounded_levels],
        "levels": [sorted([list(e) for e in es]) for es in sol.edge_sets],
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_verify(args) -> int:
    g, terminals, _levels = _load_instance_arg(args)
    edges = []
    for i, line in enumerate(_read(args.edges).splitlines()):
        line = line.split("#", 1)[0].strip()
        if not line or (i == 0 and line == "u,v"):  # `spanner --format csv`
            continue
        u, v = line.replace(",", " ").split()[:2]
        edges.append((int(u), int(v)))
    beta = Beta(args.beta_mode, run_value(args.epsilon, args.exact_arithmetic))
    report = verify_spanner(g, terminals, edges, beta, certify_tolerance(g))
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    config = json.loads(_read(args.config))
    rows = run_experiment(config)
    out = emit_csv(rows) if args.format == "csv" else emit_json(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        print(out, end="" if out.endswith("\n") else "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightspan",
        description="Subsetwise additive spanners with certified lightness")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="emit a JSON instance")
    _add_flags(gen, "--seed", "--exact-arithmetic")
    gen.add_argument("--kind", required=True,
                     choices=("erdos-renyi", "geometric", "grid",
                              "unit-clique", "partition-gadget"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, default=None)
    gen.add_argument("--radius", type=float, default=None)
    gen.add_argument("--weight-min", type=int, default=1)
    gen.add_argument("--weight-max", type=int, default=10)
    gen.add_argument("--terminal-fraction", type=float, default=0.25)
    gen.add_argument("--delta", type=float, default=0.1)
    gen.add_argument("--subdivided", action="store_true")
    gen.add_argument("--levels-k", type=int, default=None)
    gen.set_defaults(func=_cmd_generate)

    spn = subs.add_parser("spanner", help="build a certified spanner")
    _add_flags(spn, "--epsilon", "--seed", "--format", "--exact-arithmetic")
    spn.add_argument("--input", required=True, help="instance JSON file or -")
    spn.add_argument("--algo", choices=("eps", "four-eps", "wmax"),
                     default="eps")
    spn.add_argument("--c", type=float, default=2.0)
    spn.add_argument("--ell", default="auto",
                     help="'auto' or a numeric threshold (wmax only)")
    spn.set_defaults(func=_cmd_spanner)

    mlv = subs.add_parser("multilevel", help="solve a multi-level instance")
    _add_flags(mlv, "--epsilon", "--beta-mode", "--seed", "--exact-arithmetic")
    mlv.add_argument("--input", required=True)
    mlv.add_argument("--p", default="e", help="'e' or a number > 1")
    mlv.add_argument("--baseline", action="store_true",
                     help="deterministic 4-approximation grid")
    mlv.set_defaults(func=_cmd_multilevel)

    ver = subs.add_parser("verify", help="check a spanner edge list")
    _add_flags(ver, "--epsilon", "--beta-mode", "--exact-arithmetic")
    ver.add_argument("--input", required=True)
    ver.add_argument("--edges", required=True,
                     help="file of 'u v' or 'u,v' spanner edges, or -")
    ver.set_defaults(func=_cmd_verify)

    ben = subs.add_parser("bench", help="run an experiment config")
    _add_flags(ben, "--format")
    ben.add_argument("--config", required=True)
    ben.add_argument("--out", default=None)
    ben.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (GraphError, ConfigError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
