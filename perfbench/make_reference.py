"""Regenerate perfbench/reference.json from the current source tree.

Usage: python3 perfbench/make_reference.py

The reference is each workload's (id, status, first_discrepancy) list at
both scales.  It was taken once from a tree whose reports were known good;
regenerate it only when a change is meant to alter those reports, and say
so in the change.
"""

import json

from run import BENCH, spawn
from workloads import WORKLOADS


def main() -> None:
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for scale in ("full", "tiny"):
            result = spawn({"mode": "run", "ids": list(workload.ids),
                            **workload.sizes(scale)})
            if result is None:
                raise SystemExit(f"{name} ({scale}) crashed")
            reference[name][scale] = result["reports"]
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
