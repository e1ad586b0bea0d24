"""Every name the benchmark's layer tracer wraps must exist in eisen2.

``perfbench/tracer.py`` patches functions and methods by name; a rename or
deletion in the package would otherwise surface only in the benchmark's own
tests, which the default test run does not collect."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_resolve():
    tracer = _load_tracer()
    for module, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"eisen2.{module}"), attr))
    for module, cls, attr, _ in tracer.METHODS:
        assert attr in vars(getattr(importlib.import_module(f"eisen2.{module}"), cls))
