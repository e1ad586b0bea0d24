"""Each catalog constructor builds one route, and every other route to the
same series, the E*_2m tower's included, is an equation of a registry check
that ``checks._compare`` judges.  So ``catalog.py`` compares nothing: it
calls ``first_difference`` nowhere (it imports the name only for perfbench's
tracer).  And a check fails one way only, by the discrepancy its runner
returns: no module defines or raises ``CrossCheckMismatch``, and
``run_check`` catches nothing.

Each entry point has one calling convention: ``run_check`` takes its
workspace, ``run_all`` and ``Workspace`` their sizes (the ``verify`` parser
is the one place that states the defaults), the tower and decomposition
functions their catalog, and the Serre derivatives read the weight from the
polynomial, so none of them has a parameter default or a ``weight``
parameter.  And no equation builder in ``checks.py`` seeds a sum with
``QSeries.zero``: each sums from its first term.

Every equation builder takes one ``SeriesCatalog`` and nothing else, and no
code in ``checks.py`` calls the ``Workspace`` forwards ``sigma_range``,
``sigma_star_range``, ``tau_range`` or ``r_table``, which only perfbench's
tracer pins.  And the builders keep to the catalog protocol that
``SeriesCatalog``'s docstring lists: they run on a stand-in catalog that
offers those methods alone."""

import ast
from pathlib import Path

import pytest

from eisen2 import checks
from eisen2.catalog import SeriesCatalog
from eisen2.qseries import first_difference

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
    """The parameter names of the function ``func``, or of the method
    ``Class.func``, and how many of them have a default."""
    tree = ast.parse(source, filename=name)
    *cls, func = func.split(".")
    if cls:
        (tree,) = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) and node.name == cls[0]]
    (node,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == func]
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    defaults = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return [a.arg for a in params], defaults


ENTRY_POINTS = {
    "checks.py": {
        "run_check": ["id", "workspace"],
        "run_all": ["order", "nmax", "mmax", "ids"],
        "Workspace.__init__": ["self", "order", "nmax", "mmax"],
    },
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


FORWARDS = ("sigma_range", "sigma_star_range", "tau_range", "r_table")


def test_no_check_calls_a_workspace_forward():
    source = _sources()["checks.py"]
    for forward in FORWARDS:
        assert calls_of(source, "checks.py", forward) == [], forward


def test_the_guard_finds_a_workspace_forward():
    # T8's and T9's builders as they once read their series
    old = """
def _t8(ws):
    s3 = ws.sigma_range(3, ws.nmax)
    tau = ws.tau_range(ws.nmax)

def _t9(ws):
    r16 = ws.r_table(16)
    s3 = ws.sigma_star_range(3, ws.nmax)
"""
    assert [calls_of(old, "checks.py", forward) for forward in FORWARDS] == [
        [("checks.py", 3)], [("checks.py", 8)], [("checks.py", 4)], [("checks.py", 7)]]
    # and the default sizes as Workspace once had them
    old = "class Workspace:\n    def __init__(self, order, nmax=200, mmax=20):\n        pass\n"
    assert signature_of(old, "checks.py", "Workspace.__init__") == (
        ["self", "order", "nmax", "mmax"], 2)


def test_every_builder_runs_on_a_bare_catalog(monkeypatch):
    # a builder's one argument is its catalog, and no Workspace is in reach
    monkeypatch.delattr(checks, "Workspace")
    cat = SeriesCatalog(12)
    builders = [check.equations for check in checks.REGISTRY.values() if check.equations]
    assert len(builders) == 43
    for build in builders:
        for lhs, rhs, *_ in build(cat):
            assert min(lhs.order, rhs.order) == cat.order
            assert first_difference(lhs, rhs) is None


# the protocol SeriesCatalog's docstring lists
CATALOG_PROTOCOL = {"level1", "level2", "sigma", "sigma_star", "C", "D", "delta", "theta3",
                    "power", "product", "monomial", "by_name", "combine", "enumerated",
                    "order"}
VALUE_PROTOCOL = {"theta", "scale", "neg_q", "dilate", "hecke", "truncate"}  # and * + -


class OutsideProtocol(AttributeError):
    """A builder reached for a method the catalog protocol does not list."""


def _plain(x):
    """x with every recorded value replaced by its series, in tuples too."""
    if isinstance(x, Recorded):
        return x.series
    return tuple(map(_plain, x)) if isinstance(x, tuple) else x


class Recorded:
    """A stand-in catalog's value: a series reached only through the
    protocol's value methods, each call written to the shared log."""

    def __init__(self, series, log: list):
        self.series, self.log = series, log

    def _apply(self, method: str, *args):
        self.log.append(method)
        return Recorded(getattr(self.series, method)(*map(_plain, args)), self.log)

    def __mul__(self, other):
        return self._apply("__mul__", other)

    def __add__(self, other):
        return self._apply("__add__", other)

    def __sub__(self, other):
        return self._apply("__sub__", other)

    def __getattr__(self, name: str):
        if name not in VALUE_PROTOCOL:
            raise OutsideProtocol(f"value.{name}")
        return lambda *args: self._apply(name, *args)


def _refused(name: str):
    def method(self, *args):
        raise OutsideProtocol(f"value.{name}")
    return method


# the other operators a series has, which the protocol leaves out
for _name in ("__neg__", "__pow__", "__rmul__", "__getitem__", "__iter__", "__len__"):
    setattr(Recorded, _name, _refused(_name))


class RecordingCatalog:
    """A catalog that offers the protocol alone, over a real one, and logs
    each method a builder calls on it or on its values."""

    def __init__(self, order: int):
        self.real, self.log = SeriesCatalog(order), []

    def __getattr__(self, name: str):
        if name not in CATALOG_PROTOCOL:
            raise OutsideProtocol(f"catalog.{name}")
        self.log.append(name)
        if name == "order":
            return self.real.order
        method = getattr(self.real, name)
        return lambda *args: Recorded(method(*map(_plain, args)), self.log)


def test_every_builder_keeps_to_the_catalog_protocol():
    cat = RecordingCatalog(12)
    builders = [check.equations for check in checks.REGISTRY.values() if check.equations]
    assert len(builders) == 43
    for build in builders:
        for lhs, rhs, *_ in build(cat):
            assert first_difference(lhs.series, rhs.series) is None
    # the part of the protocol the builders use today
    assert set(cat.log) == CATALOG_PROTOCOL - {"theta3", "monomial"} | {
        "__mul__", "__sub__", "theta", "scale", "neg_q", "dilate"}


def test_the_stand_in_refuses_a_method_outside_the_protocol():
    cat = RecordingCatalog(4)
    for reach in (lambda: cat._memo, lambda: cat.delta().numerators,
                  lambda: cat.delta().coeffs, lambda: -cat.delta(),
                  lambda: cat.delta()[1], lambda: 2 * cat.delta(),
                  lambda: cat.delta() ** 2):
        with pytest.raises(OutsideProtocol):
            reach()
    # C10's scan reads the integers of a series: no builder may
    with pytest.raises(OutsideProtocol, match="value.numerators"):
        cat.power("theta3", 24).numerators
    assert cat.log == ["delta"] * 6 + ["power"]
