"""Each catalog constructor builds one route, and every other route to the
same series is an equation of a registry check that ``checks._compare``
judges.  So ``catalog.py`` compares nothing: it calls ``first_difference``
nowhere (it imports the name only for perfbench's tracer).  And only the
E*_2m tower in ``graded.py`` raises ``CrossCheckMismatch``, as the one
second way for a check to fail."""

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


def _sources():
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_only_the_tower_raises_a_cross_check_mismatch():
    sources = _sources()
    raising = {name for name, source in sources.items()
               if raises_of(source, name, "CrossCheckMismatch")}
    assert raising == {"graded.py"}


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
