"""Compare the pinned outputs of two benchmark results files.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each results file pins, per cell, the digest of the output edge sets,
the subset lightness and the multi-level cost.  Prints "outputs
identical" and exits 0 when every cell matches, otherwise lists each
differing or missing cell and exits 1.  Run the same workload and seed
on both commits so that the cells line up.
"""

from __future__ import annotations

import json
import sys


def differences(before: dict, after: dict) -> list[str]:
    """One line per cell whose pinned output is not the same in both."""
    a, b = before["cells"], after["cells"]
    out = []
    for key in sorted(set(a) | set(b)):
        if key not in b:
            out.append(f"{key}: missing from the second file")
        elif key not in a:
            out.append(f"{key}: missing from the first file")
        elif a[key] != b[key]:
            fields = ", ".join(f"{f} {a[key].get(f)} -> {b[key].get(f)}"
                               for f in sorted(set(a[key]) | set(b[key]))
                               if a[key].get(f) != b[key].get(f))
            out.append(f"{key}: {fields}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            files.append(json.load(fh))
    diffs = differences(*files)
    if not diffs:
        print(f"outputs identical ({len(files[0]['cells'])} cells)")
        return 0
    print(f"{len(diffs)} cell(s) differ:")
    for line in diffs:
        print("  " + line)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
