"""Each catalog constructor builds one route, and every other route to the
same series, the E*_2m tower's included, is an equation of a registry check
that ``checks._compare`` judges.  So ``catalog.py`` compares nothing: it
calls ``first_difference`` nowhere (it imports the name only for perfbench's
tracer).  And a check fails one way only, by the discrepancy its runner
returns: no module defines or raises ``CrossCheckMismatch``, and
``run_check`` catches nothing.

Each entry point has one calling convention: ``run_check`` takes its
workspace, the tower and decomposition functions their catalog, and the
Serre derivatives read the weight from the polynomial, so none of them has
a parameter default or a ``weight`` parameter.  And no equation builder in
``checks.py`` seeds a sum with ``QSeries.zero``: each sums from its first
term."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eisen2"


def calls_of(source: str, name: str, func: str) -> list[tuple[str, int]]:
    """Every call of ``func``, bare or as an attribute, as (file name, line)."""
    return [(name, node.lineno) for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.Call)
            and func in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def raises_of(source: str, name: str, exc: str) -> list[tuple[str, int]]:
    """Every ``raise exc(...)`` or ``raise exc``, as (file name, line)."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if exc in (getattr(target, "id", None), getattr(target, "attr", None)):
                found.append((name, node.lineno))
    return found


def defines(source: str, name: str, cls: str) -> list[tuple[str, int]]:
    """Every ``class cls``, as (file name, line)."""
    return [(name, node.lineno) for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.ClassDef) and node.name == cls]


def tries_in(source: str, name: str, func: str) -> list[tuple[str, int]]:
    """Every ``try`` statement inside the function ``func``, as (file name, line)."""
    return [(name, inner.lineno) for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.FunctionDef) and node.name == func
            for inner in ast.walk(node) if isinstance(inner, ast.Try)]


def signature_of(source: str, name: str, func: str) -> tuple[list[str], int]:
    """The parameter names of the function ``func`` and how many of them
    have a default."""
    (node,) = [node for node in ast.walk(ast.parse(source, filename=name))
               if isinstance(node, ast.FunctionDef) and node.name == func]
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    defaults = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return [a.arg for a in params], defaults


ENTRY_POINTS = {
    "checks.py": {"run_check": ["id", "workspace"]},
    "graded.py": {
        "e_star_poly": ["m", "catalog"],
        "check_positivity": ["m", "catalog"],
        "decompose_modular": ["s", "weight", "catalog"],
        "serre_delta": ["f"],
        "serre_partial": ["f"],
    },
}


def _sources():
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_a_check_fails_by_its_discrepancy_alone():
    sources = _sources()
    for name, source in sources.items():
        assert defines(source, name, "CrossCheckMismatch") == []
        assert raises_of(source, name, "CrossCheckMismatch") == []
    assert "def run_check(" in sources["checks.py"]
    assert tries_in(sources["checks.py"], "checks.py", "run_check") == []


def test_the_catalog_compares_nothing():
    sources = _sources()
    assert calls_of(sources["catalog.py"], "catalog.py", "first_difference") == []
    # the guard finds the compare where it belongs
    assert calls_of(sources["checks.py"], "checks.py", "first_difference")


def test_the_guards_find_a_constructor_cross_check():
    # the discriminant's cross-check as it once stood in catalog.py
    old = '''
def _cross_check(name, a, b, route_a, route_b):
    diff = first_difference(a, b)
    if diff is not None:
        raise CrossCheckMismatch(name, diff[0], route_a, route_b, diff[1], diff[2])
'''
    assert calls_of(old, "catalog.py", "first_difference") == [("catalog.py", 3)]
    assert raises_of(old, "catalog.py", "CrossCheckMismatch") == [("catalog.py", 5)]
    assert raises_of("raise catalog.CrossCheckMismatch", "x.py", "CrossCheckMismatch")
    # and the second failure channel as it once stood
    exc = "class CrossCheckMismatch(ArithmeticError):\n    pass\n"
    assert defines(exc, "catalog.py", "CrossCheckMismatch") == [("catalog.py", 1)]
    runner = """
def run_check(id):
    try:
        disc = runner()
    except CrossCheckMismatch as exc:
        disc = exc.exponent
"""
    assert tries_in(runner, "checks.py", "run_check") == [("checks.py", 3)]


def test_each_entry_point_has_one_calling_convention():
    sources = _sources()
    for name, funcs in ENTRY_POINTS.items():
        for func, params in funcs.items():
            assert signature_of(sources[name], name, func) == (params, 0), func
    assert calls_of(sources["checks.py"], "checks.py", "zero") == []


def test_the_guards_find_a_default_and_a_zero_seed():
    old = """
def serre_delta(f, weight=None):
    return _derive(f, weight)

def run_check(id, order=64, *, workspace=None):
    total = QSeries.zero(order)
"""
    assert signature_of(old, "graded.py", "serre_delta") == (["f", "weight"], 1)
    assert signature_of(old, "checks.py", "run_check") == (["id", "order", "workspace"], 2)
    assert calls_of(old, "checks.py", "zero") == [("checks.py", 6)]
