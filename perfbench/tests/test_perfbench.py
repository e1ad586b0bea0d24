"""Tests of the benchmark itself: metric names, the correctness gate and the
tracer.  Every run here uses the tiny sizes; run with
``python3 -m pytest perfbench/tests`` from the repository root."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("qseries.mul.terms", "catalog.instances", "catalog.builds")


def bench(tmp_path, workload, trace, seed=3, cwd=ROOT):
    out = tmp_path / f"{workload}.{trace}.{seed}.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--scale", "tiny", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_with_its_unit(tmp_path, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = bench(tmp_path, workload, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_and_trace_covers_the_run(tmp_path, workload):
    first, result = bench(tmp_path, workload, 1)
    second, _ = bench(tmp_path, workload, 1)
    counted = [n for n in first["metrics"] if n.endswith(".calls") or n in COUNTS]
    assert {n: first["metrics"][n] for n in counted} == {
        n: second["metrics"][n] for n in counted}
    assert first["metrics"]["checks.calls"]["value"] == len(WORKLOADS[workload].ids)
    # time outside every check span: run_all's own loop and report sorting
    unattributed = first["metrics"]["trace.unattributed_s"]["value"]
    assert 0 <= unattributed < 0.05 * result["traced_run_s"]["median"]


def test_tracer_wraps_every_import_site():
    script = """
import eisen2.cli
from eisen2 import arith, catalog, checks, graded, qseries, scalars
import tracer
originals = {n: getattr(m, n) for m, n in [
    (qseries, "qs_det"), (qseries, "first_difference"), (graded, "e_star_poly"),
    (graded, "gp_evaluate"), (graded, "serre_delta"), (graded, "check_positivity"),
    (graded, "decompose_modular"), (scalars, "ks_coefficient"),
    (scalars, "rs_coefficient"), (scalars, "ks_alpha"), (scalars, "bernoulli")]}
t = tracer.install()
sites = {
    "qs_det": [checks, qseries], "first_difference": [checks, graded, catalog, qseries],
    "e_star_poly": [checks, graded, eisen2.cli], "gp_evaluate": [checks, graded],
    "serre_delta": [checks, graded], "check_positivity": [checks, graded],
    "decompose_modular": [graded, eisen2.cli], "ks_coefficient": [checks, graded],
    "rs_coefficient": [checks], "ks_alpha": [graded],
    "bernoulli": [scalars, arith, catalog],
}
for name, modules in sites.items():
    for m in modules:
        f = getattr(m, name)
        assert f is not originals[name] and f.__wrapped__ is originals[name], (m, name)
arith.tau_table(8)  # reaches the catalog through a function-local import
assert "catalog.delta" in t.base.children["arith.tables"].children
print("ok")
"""
    env = {"PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "ok", proc.stderr


def test_gate_counts_every_disagreement():
    ref = [["A", "pass", None], ["B", "pass", None]]
    assert run.check_reports(ref, ref) == 0
    assert run.check_reports(None, ref) == 2  # a crash fails every check
    assert run.check_reports([ref[0]], ref) == 1  # a missing id
    assert run.check_reports([ref[0], ["B", "fail", [3, "1", "2"]]], ref) == 1
    assert run.check_reports(ref + [["C", "pass", None]], ref) == 1  # unasked id
    failing = [["A", "fail", [3, "1/2", "1"]]]
    assert run.check_reports(failing, failing) == 1  # a failure never passes
    assert run.check_reports([["A", "fail", [4, "1/2", "1"]]], failing) == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "graded-tower",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
