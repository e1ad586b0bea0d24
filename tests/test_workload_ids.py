"""Every check id the benchmark's workloads name must be in the registry.

``perfbench/workloads.py`` writes its id lists out, so that a registry change
shows up in the benchmark instead of silently changing the work measured.
This test makes a rename or deletion fail in the default test run as well,
not first in the benchmark's correctness gate."""

from eisen2 import checks
from load_workloads import load_workloads


def test_frozen_ids_resolve_with_their_scopes(monkeypatch):
    workloads = load_workloads(monkeypatch)
    frozen = set(workloads.ALL_IDS)
    for workload in workloads.WORKLOADS.values():
        frozen |= set(workload.ids)
    assert frozen <= set(checks.REGISTRY)
    assert {checks.REGISTRY[i].scope for i in workloads.ORDER_IDS} == {"order"}
    assert {checks.REGISTRY[i].scope for i in workloads.RANGE_IDS} == {"range"}
