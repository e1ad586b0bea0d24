"""One measured run of one workload in a fresh interpreter.

Usage: python3 child.py SPEC_JSON, with src/ and perfbench/ on PYTHONPATH.
SPEC is {"mode": "probe" | "run" | "trace", "ids": [...], "order": ...,
"nmax": ..., "mmax": ...}.  The first statements import eisen2.cli and read
the system-wide monotonic clock, so the parent can time set-up across the
process boundary.  A probe then times the yardstick once; a run times the
yardstick, the workload (traced or not) and the yardstick again.  The
result is one JSON object on stdout.
"""

import time

import eisen2.cli  # noqa: F401  -- the set-up being measured

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


def _cpu_s() -> float:
    # children too, so that work moved into worker processes still counts
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def yardstick(n: int = 200) -> tuple:
    """Fixed exact-arithmetic work that uses no eisen2 code: a Fraction and
    a big-integer convolution, like the program's own kernels.  Its time
    tracks the host's current speed."""
    a = [Fraction(1, k) for k in range(1, n + 1)]
    fractions = [Fraction(0)] * n
    for i, x in enumerate(a):
        for j in range(n - i):
            fractions[i + j] += x * a[j]
    b = [k**7 for k in range(1, 4 * n)]
    ints = [0] * len(b)
    for i, x in enumerate(b):
        for j in range(len(b) - i):
            ints[i + j] += x * b[j]
    return fractions[-1], ints[-1]


def _time_yardstick() -> float:
    start = time.perf_counter()
    yardstick()
    return time.perf_counter() - start


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = {"imported": IMPORTED, "eisen2_file": eisen2.cli.__file__}
    if spec["mode"] == "probe":
        result["yardstick_s"] = [_time_yardstick()]
    else:
        from eisen2 import checks
        from eisen2.qseries import rational_str

        tracer = None
        if spec["mode"] == "trace":
            import tracer as tracing

            tracer = tracing.install()
        before = _time_yardstick()
        cpu0 = _cpu_s()
        start = time.perf_counter()
        reports = checks.run_all(order=spec["order"], nmax=spec["nmax"],
                                 mmax=spec["mmax"], ids=spec["ids"])
        run_s = time.perf_counter() - start
        result["cpu_s"] = _cpu_s() - cpu0
        result["yardstick_s"] = [before, _time_yardstick()]
        result["run_s"] = run_s
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["reports"] = [
            [r.id, r.status,
             None if r.first_discrepancy is None else
             [r.first_discrepancy[0], rational_str(r.first_discrepancy[1]),
              rational_str(r.first_discrepancy[2])]]
            for r in reports
        ]
        if tracer is not None:
            result["metrics"], result["layers"], result["trees"] = tracer.report(run_s)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
