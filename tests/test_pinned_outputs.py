"""Every cell of the three benchmark workloads at seed 3 builds the
outputs pinned in `pinned_outputs.json`.

One sha256 per cell covers the sorted edge sets, `str` of the weight,
lightness and multi-level cost, and the `repr` of every `meta` entry
(of `q_used` and `rounded_levels` for a multi-level solution).  The
cells and their builder calls come from `perfbench/workloads.py` and
`perfbench/run.py`'s `prepare`, so a change to any certified output
fails here, not first in a benchmark comparison.

The wmax-sampled cells are binary64 and `choose_ell` calls `math.log`,
whose last-bit rounding is up to the platform's libm.  Those pins were
taken on x86_64 Linux (glibc), CPython 3.11.  A change that moves an
output on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_pinned_outputs.py > tests/pinned_outputs.json

and names every cell it moves.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import lightspan as ls
from helpers import perfbench_run

PINS = Path(__file__).resolve().parent / "pinned_outputs.json"
SEED = 3


def output_text(result) -> str:
    """The pinned fields of one build's result, as one string."""
    if isinstance(result, ls.MultiLevelSolution):
        sets, fields = result.edge_sets, [("cost", result.cost)]
        extra = {"q_used": result.q_used, "rounded_levels": result.rounded_levels}
    else:
        sets = (result.edges,)
        fields = [("weight", result.weight), ("lightness", result.subset_lightness)]
        extra = result.meta
    parts = ["|".join(";".join(f"{u},{v}" for u, v in sorted(es)) for es in sets)]
    parts += [f"{name}={value}" for name, value in fields]
    parts += [f"{key}={value!r}" for key, value in sorted(extra.items())]
    return "\n".join(parts)


def cell_digests(workload_name: str) -> dict[str, str]:
    """Cell key -> sha256 of its output, for one workload at SEED."""
    run = perfbench_run()
    workload = run.WORKLOADS[workload_name](SEED)
    instances = {inst.label: ls.generate(inst.spec(ls)) for inst in workload.instances}
    out = {}
    for cell in workload.cells:
        g, terminals, levels = instances[cell.instance.label]
        call, _, _ = run.prepare(ls, cell, g, terminals, levels)
        out[cell.key] = hashlib.sha256(output_text(call()).encode()).hexdigest()
    return out


def test_cells_build_their_pinned_outputs():
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    for name, pinned in pins.items():
        got = cell_digests(name)
        moved = sorted(k for k in pinned.keys() | got.keys()
                       if pinned.get(k) != got.get(k))
        assert not moved, f"{name}: {len(moved)} cells moved, e.g. {moved[:5]}"


if __name__ == "__main__":
    names = ("one-level", "wmax-sampled", "small-exact")
    print(json.dumps({name: cell_digests(name) for name in names}, indent=1))
