"""Fault grid: the reports ``run_all`` gives under one injected arithmetic fault.

Each case adds 1 to one value the catalog builds from:
- slot n of ``arith.divisor_sum_table(kind, s, N)``, for sigma and sigma_star
  with s = 1, 3, ..., 13 and sigma_sharp with s = 1, at n in 0, 1, 2, 7, 13;
- ``arith.delta8_oracle(n)`` at n in 0, 3, 20.

That is 78 cases.  For each, ``run_all(order=32, nmax=40, mmax=8)`` on every
registry id is run on fresh state and every report that does not pass is written as one line,
prefixed with the case label.  A change that must keep every fault report
as it was compares against the golden file:

    python3 tests/fault_grid.py            # print differences; exit 1 if any
    python3 tests/fault_grid.py --write    # rewrite tests/data/fault_grid.txt

The file is a script, not a test module; ``test_fault_grid.py`` runs a slice
of it in the tier-1 suite.
"""

from __future__ import annotations

import difflib
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "fault_grid.txt"
sys.path.insert(0, str(ROOT / "src"))

from eisen2 import arith, checks  # noqa: E402

TABLES = (
    [("sigma", s) for s in range(1, 14, 2)]
    + [("sigma_star", s) for s in range(1, 14, 2)]
    + [("sigma_sharp", 1)]
)
TABLE_EXPONENTS = (0, 1, 2, 7, 13)
DELTA8_EXPONENTS = (0, 3, 20)
SETTINGS = dict(order=32, nmax=40, mmax=8)


@contextmanager
def _table_fault(kind: str, s: int, n: int):
    real = arith.divisor_sum_table

    def faulty(k, t, N):
        table = real(k, t, N)
        if (k, t) == (kind, s) and n <= N:
            table[n] += 1
        return table

    with mock.patch.object(arith, "divisor_sum_table", faulty):
        yield


@contextmanager
def _delta8_fault(n: int):
    real = arith.delta8_oracle
    with mock.patch.object(arith, "delta8_oracle", lambda k: real(k) + (k == n)):
        yield


def cases(table_exponents=TABLE_EXPONENTS, delta8_exponents=DELTA8_EXPONENTS):
    """(label, fault context) pairs, in the golden file's order."""
    for kind, s in TABLES:
        for n in table_exponents:
            yield f"{kind}({s})[{n}]+1", _table_fault(kind, s, n)
    for n in delta8_exponents:
        yield f"delta8_oracle({n})+1", _delta8_fault(n)


def run_case(label: str, fault) -> list[str]:
    """One line per report that does not pass, under the fault."""
    with fault:
        reports = checks.run_all(**SETTINGS, ids=checks.registry_ids())
    return [
        f"{label}  " + r.line().replace("\n      note: ", "  note: ")
        for r in reports if r.status != "pass"
    ]


def run_grid(**kw) -> list[str]:
    return [line for label, fault in cases(**kw) for line in run_case(label, fault)]


def main(argv: list[str]) -> int:
    lines = run_grid()
    if "--write" in argv:
        GOLDEN.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} lines to {GOLDEN}")
        return 0
    diff = [line for line in difflib.unified_diff(
        GOLDEN.read_text().splitlines(), lines, "golden", "now", n=0, lineterm="")
        if line[:1] in "+-" and line[:3] not in ("+++", "---")]
    print("\n".join(diff + [f"{len(lines)} failing lines; {len(diff)} differences"]))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
