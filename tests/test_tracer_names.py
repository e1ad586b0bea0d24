"""Every name the benchmark's layer tracer wraps must exist in eisen2, at
every import site the benchmark's tests pin.

``perfbench/tracer.py`` patches functions and methods by name, and
``perfbench/tests/test_perfbench.py::test_tracer_wraps_every_import_site``
pins the modules that bind each patched function; a rename, a deletion or a
dropped import in the package would otherwise surface only in the
benchmark's own tests, which the default test run does not collect.  The
sites are read out of that test with ``ast``, not copied."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


PERFBENCH_TEST = TRACER.parent / "tests" / "test_perfbench.py"


def _import_site_script() -> ast.Module:
    """The script that perfbench's ``test_tracer_wraps_every_import_site`` runs."""
    module = ast.parse(PERFBENCH_TEST.read_text(encoding="utf-8"))
    test = next(node for node in module.body if isinstance(node, ast.FunctionDef)
                and node.name == "test_tracer_wraps_every_import_site")
    script = next(node.value.value for node in test.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["script"])
    return ast.parse(script)


def _module(node: ast.expr):
    """The eisen2 module that a name like ``checks`` or ``eisen2.cli`` stands for."""
    dotted = ast.unparse(node)
    return importlib.import_module(dotted if dotted.startswith("eisen2.") else f"eisen2.{dotted}")


def test_pinned_import_sites_bind_the_traced_functions():
    # each module the benchmark's tracer must patch still binds the function,
    # the object its defining module holds
    values = {node.targets[0].id: node.value for node in _import_site_script().body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    # originals = {n: getattr(m, n) for m, n in [(module, "name"), ...]}
    defining = {name.value: _module(module)
                for module, name in (pair.elts for pair
                                     in values["originals"].generators[0].iter.elts)}
    sites = {key.value: [_module(m) for m in modules.elts]
             for key, modules in zip(values["sites"].keys, values["sites"].values)}
    assert sites and sites.keys() <= defining.keys()
    for name, modules in sites.items():
        original = getattr(defining[name], name)
        for module in modules:
            assert getattr(module, name, None) is original, (module.__name__, name)


# runs every registry check at perfbench's tiny sizes, installs the tracer,
# and runs them again; prints both [id, status, discrepancy] lists and the
# check spans the tracer recorded
_TRACED_RUN = """
import importlib.util, sys
import eisen2.cli
from eisen2 import checks

def run():
    reports = checks.run_all(16, 30, 6, checks.registry_ids())
    return [[r.id, r.status, r.first_discrepancy] for r in reports]

before = run()
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.install()
after = run()
print(repr(before))
print(repr(after))
print(sorted(tracer.base.children))
"""


def test_the_installed_tracer_keeps_every_report():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(TRACER)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    before, after, spans = run.stdout.splitlines()
    assert before == after
    ids = importlib.import_module("eisen2.checks").registry_ids()
    assert before.count("'pass'") == len(ids)
    # every check ran under its tracer span
    assert ast.literal_eval(spans) == sorted(f"check {i}" for i in ids)
