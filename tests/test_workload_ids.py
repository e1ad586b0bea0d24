"""Every check id the benchmark's workloads name must be in the registry.

``perfbench/workloads.py`` writes its id lists out, so that a registry change
shows up in the benchmark instead of silently changing the work measured.
This test makes a rename or deletion fail in the default test run as well,
not first in the benchmark's correctness gate."""

import importlib.util
import sys
from pathlib import Path

from eisen2 import checks

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_frozen_ids_resolve_with_their_scopes(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    frozen = set(workloads.ALL_IDS)
    for workload in workloads.WORKLOADS.values():
        frozen |= set(workload.ids)
    assert frozen <= set(checks.REGISTRY)
    assert {checks.REGISTRY[i].scope for i in workloads.ORDER_IDS} == {"order"}
    assert {checks.REGISTRY[i].scope for i in workloads.RANGE_IDS} == {"range"}
