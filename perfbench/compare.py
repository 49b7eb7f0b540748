"""Check that two benchmark reports of the same code and seed agree exactly.

    python3 perfbench/compare.py perfbench/results/A.json B.json

Operations are matched by index; each pair must have the same argv, the same
CSV sha256 and, when traced, the same counts.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import sys


def differences(a: dict, b: dict) -> list[str]:
    out = []
    if (a["workload"], a["seed"], a["trace"]) != (b["workload"], b["seed"], b["trace"]):
        return ["reports are of different workloads, seeds or trace modes"]
    ops_b = {(op["i"], op["traced"]): op for op in b["ops"]}
    matched = 0
    for op in a["ops"]:
        other = ops_b.get((op["i"], op["traced"]))
        if other is None:
            continue
        matched += 1
        where = f"op {op['i']} traced={op['traced']}"
        if op["argv"] != other["argv"]:
            out.append(f"{where}: argv differs")
        if op.get("sha256") != other.get("sha256"):
            out.append(f"{where}: CSV sha256 differs")
        if op.get("counts") != other.get("counts"):
            out.append(f"{where}: counts differ")
    if not matched:
        out.append("no operation in common")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    diffs = differences(*reports)
    for line in diffs:
        print(line)
    if not diffs:
        print("identical argv, CSV hashes and counts on every shared operation")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
