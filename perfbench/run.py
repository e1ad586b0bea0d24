"""Fresh-process benchmark of ``eisen2 verify`` (``eisen2.checks.run_all``).

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|tiny] [--out PATH]

Run from the repository root.  Each measured sample is one fresh interpreter
(perfbench/child.py) that imports eisen2 from ``src/`` and runs one workload
once, so every sample pays the module-level caches cold, as a CLI call does.
Children run one at a time until ``--seconds`` have passed.

A fixed yardstick computation that uses no eisen2 code is timed just before
and just after each workload, in the same child, and once in each of the
two probe children that follow it.  --trace 0 reports the end-to-end
metrics: setup_s, run_rel and cpu_rel (the workload's wall and CPU time
divided by the mean of those four yardstick times) and peak_rss_mb.
--trace 1 alternates untraced children with traced ones and reports the
per-layer metrics of the traced children.

Every child's reports are checked against perfbench/reference.json.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the full result, with quartiles, sample counts, the
host description and (traced) the span trees, goes to --out.  Exit status
is 0 when every check matched, 1 when one did not, and 2, with no result
printed, when the package cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

PROBES = 2  # set-up and yardstick children after each workload child
MIN_TRACED = 2  # traced children per run, so their counts can be compared
CHILD_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "run_rel": "ratio", "cpu_rel": "ratio",
              "peak_rss_mb": "MB"}


class CannotRun(Exception):
    """The package under test is missing or does not import."""


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def spawn(spec: dict) -> dict | None:
    """Run one child; returns its result with setup_s, or None if it crashed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    # set-up is measured with bytecode caches present, as an installed
    # package has them; the run's unmeasured first probe writes them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        print("child printed no result", file=sys.stderr)
        return None
    if Path(result["eisen2_file"]).resolve().parent != SRC / "eisen2":
        raise CannotRun(f"imported eisen2 from {result['eisen2_file']}, not {SRC}")
    result["setup_s"] = result["imported"] - start
    return result


def stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def host() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def relative(children: list[dict], key: str) -> list[float]:
    """Each child's time in units of the yardstick timed around it.

    The host's speed drifts by tens of percent over minutes; the yardstick
    times taken next to a workload cancel that drift from the ratio.
    """
    return [c[key] / statistics.fmean(c["around"]) for c in children]


def check_reports(reports: list | None, expected: list) -> int:
    """Checks that did not pass or disagree with the reference.

    A crashed child (reports None) fails every check it attempted.
    """
    if reports is None:
        return len(expected)
    got = {r[0]: r for r in reports}
    failed = len(set(got) - {e[0] for e in expected})  # ids nobody asked for
    for entry in expected:
        r = got.get(entry[0])
        failed += r is None or r[1] != "pass" or r != entry
    return failed


def measure(workload, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    sizes = workload.sizes(scale)
    ids = workload.ids_for_seed(seed)
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        expected = json.load(fh)[workload.name][scale]
    if sorted(e[0] for e in expected) != sorted(workload.ids):
        raise CannotRun("reference.json does not match the frozen id list")

    # one unmeasured probe warms the bytecode cache and the file cache
    if spawn({"mode": "probe"}) is None:
        raise CannotRun("eisen2 does not import")

    spec = {"ids": ids, **sizes}
    setup, untraced, traced, crashes = [], [], [], 0
    attempted = failed = 0
    host_before = host()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not crashes and (
            not untraced or trace and len(traced) < MIN_TRACED):
        results = {mode: spawn({"mode": mode, **spec})
                   for mode in (("run", "trace") if trace else ("run",))}
        probes = [spawn({"mode": "probe"}) for _ in range(PROBES)]
        probes = [p for p in probes if p is not None]
        setup += [p["setup_s"] for p in probes]
        for mode, result in results.items():
            attempted += len(ids)
            failed += check_reports(result and result["reports"], expected)
            if result is None:
                crashes += 1
                continue
            setup.append(result["setup_s"])
            result["around"] = result["yardstick_s"] + [
                p["yardstick_s"][0] for p in probes]
            (traced if mode == "trace" else untraced).append(result)

    notes = []
    if crashes:
        notes.append(f"{crashes} children crashed")
    if untraced and any(t["reports"] != untraced[0]["reports"] for t in traced):
        notes.append("a traced run reported differently from the untraced run")
    out = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "scale": scale, "sizes": sizes, "ids": ids,
        "host_before": host_before, "host_after": host(),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
    }
    if not untraced:
        out["notes"] = notes + ["no workload child completed"]
        return out
    raw = {"run_s": [r["run_s"] for r in untraced],
           "cpu_s": [r["cpu_s"] for r in untraced],
           "yardstick_s": [y for r in untraced for y in r["around"]]}
    out["timings"] = {k: {**stats(v), "unit": "s", "samples": v} for k, v in raw.items()}
    samples = {"setup_s": setup,
               "run_rel": relative(untraced, "run_s"),
               "cpu_rel": relative(untraced, "cpu_s"),
               "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
    out["end_to_end"] = {k: {**stats(v), "unit": END_TO_END[k], "samples": v}
                         for k, v in samples.items()}
    if trace and traced:
        names = traced[0]["metrics"]
        counts = [n for n in names if per_layer_unit(n) == "count"]
        if any(t["metrics"][n] != traced[0]["metrics"][n]
               for t in traced for n in counts):
            notes.append("computed counts differ between traced runs")
        traced_run = [t["run_s"] for t in traced]
        per_layer = {}
        for name in names:
            values = [t["metrics"][name] for t in traced]
            per_layer[name] = {**stats(values), "unit": per_layer_unit(name)}
            if name in counts:  # equal in every traced child, as checked above
                per_layer[name]["median"] = values[0]
        # compared in yardstick units, then scaled back to seconds, so that
        # host drift between the two kinds of child does not show as overhead
        extra = (statistics.median(relative(traced, "run_s"))
                 - out["end_to_end"]["run_rel"]["median"])
        per_layer["trace.overhead_s"] = {
            "median": extra * out["timings"]["yardstick_s"]["median"],
            "n": len(traced), "unit": "s"}
        if "qseries.mul.terms" in per_layer:
            per_layer["qseries.mul.terms"]["source"] = "computed from operand orders"
        out["per_layer"] = per_layer
        middle = sorted(traced, key=lambda t: t["run_s"])[(len(traced) - 1) // 2]
        out["traced_run_s"] = {**stats(traced_run), "samples": traced_run}
        out["layers"] = {
            name: {**v, "self_share": v["self_s"] / middle["run_s"],
                   "inclusive_share": v["inclusive_s"] / middle["run_s"]}
            for name, v in sorted(middle["layers"].items())}
        out["trees"] = middle["trees"]
    out["notes"] = notes
    return out


def print_table(out: dict, section: str) -> None:
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    for name, s in out.get(section, {}).items():
        q1 = f"{s['q1']:12.6g}" if "q1" in s else f"{'':12}"
        q3 = f"{s['q3']:12.6g}" if "q3" in s else f"{'':12}"
        label = " (computed)" if "source" in s else ""
        print(f"{name:28} {s['median']:12.6g} {q1} {q3} {s['n']:4}  {s['unit']}{label}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path,
                        help="result file (default perfbench/out/<run>.json)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # kills the child

    if not (SRC / "eisen2" / "__init__.py").is_file():
        print(f"no eisen2 package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        out = measure(workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except CannotRun as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2

    correct = out["failed"] == 0 and not out["notes"]
    out["correct"] = correct
    path = args.out or BENCH / "out" / (
        f"{args.workload}.{args.scale}.trace{args.trace}.seed{args.seed}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")

    h = out["host_before"]
    print(f"workload {args.workload} ({args.scale}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"python {h['python']}, nproc {h['nproc']} (affinity {h['affinity']}), "
          f"loadavg {h['loadavg']} -> {out['host_after']['loadavg']}")
    section = "per_layer" if args.trace else "end_to_end"
    print_table(out, section)
    if not args.trace:
        print("raw timings, drifting with the host:")
        print_table(out, "timings")
    print(f"checks: {out['attempted'] - out['failed']}/{out['attempted']} match the "
          f"reference, failed_frac {out['failed_frac']:.6g}"
          + "".join(f"; {n}" for n in out["notes"]))
    print(f"result file: {path}")
    metrics = {name: {"value": s["median"], "unit": s["unit"]}
               for name, s in out.get(section, {}).items()}
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
