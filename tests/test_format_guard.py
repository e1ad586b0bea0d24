"""Only ``qseries.py`` and ``graded.py`` read the integer format of a series
or a polynomial, the attributes ``_nums`` and ``_den``.  Every other module
goes through ``numerators``, ``denominator`` and the types' own methods, so
the format can change in those two files alone.

Likewise only ``qseries.py`` packs integers into bytes or reads them back,
with ``int.to_bytes`` and ``int.from_bytes``: series multiplication has one
kernel, ``qseries.int_mul``, and no module grows a second packing path.

And polynomials have one kernel too: in ``graded.py`` only
``_sum_of_products`` runs a loop over one polynomial's terms nested in a loop
over another's, so sums, multiples, products and both Serre derivatives all
combine terms there.

The E*_2m tower is built by the recursion of Weierstrass' p, which has no
derivative: ``_solve_level`` and ``e_star_poly`` name neither theta's table
nor a Serre derivative, its helper or A.

And T49 judges the tower from its h levels' own terms:
``e_star_equations`` and ``check_positivity`` name neither the polynomial
kernel nor ``e_star_poly``, so they build no lifted polynomial and no E*
copy.

And a run keeps its state in objects its callers make and pass: no function
under ``src/eisen2`` stores into, deletes from or calls a mutating method on
a module-level container, declares a name ``global``, or carries an
``lru_cache`` or ``cache`` decorator, except the few that ``MODULE_STATE``
names with their reasons.

And series are summed in one place: only ``qseries.py``, which defines
``linear_combination``, and ``catalog.py``, whose ``combine`` delegates to
it, name it.  The equation builders and their value helpers read no
``QSeries``, ``combine``, ``linear_combination`` or ``arith``: every series
and every sum comes through the catalog protocol.

And every module parses as the oldest Python that ``pyproject.toml``
allows, so no newer syntax slips in.  Only syntax is covered: this is the
running interpreter's parser told to refuse what that version lacks."""

import ast
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from eisen2 import checks

SRC = Path(__file__).resolve().parents[1] / "src" / "eisen2"
OWNERS = {"qseries.py", "graded.py"}
FORMAT = {"_nums", "_den"}
KERNEL = "qseries.py"
PACKING = {"to_bytes", "from_bytes"}
POLY_KERNEL = "_sum_of_products"
TOWER = {"_solve_level", "e_star_poly"}
DERIVATIVE = {"_THETA", "_partial", "_serre_terms", "_serre", "serre_delta", "_A"}
JUDGES = {"e_star_equations", "check_positivity"}
COPIES = {POLY_KERNEL, "e_star_poly"}
MUTATORS = {"append", "extend", "insert", "setdefault", "update", "pop", "popitem",
            "clear", "add", "remove", "discard", "sort", "reverse"}
CACHES = {"lru_cache", "cache"}
# (file, function, state) -> why the module-level state is sound
MODULE_STATE = {
    ("scalars.py", "bernoulli", "_BERNOULLI"):
        "each B_n is built from all before it; the list is extended under "
        "_BERNOULLI_LOCK and an entry below its length is final",
    ("checks.py", "_register.wrap", "REGISTRY"):
        "filled once per check as checks.py is imported, and only read after",
    ("arith.py", "r_oracle", "lru_cache"):
        "a pure oracle whose recursion is exponential without the cache; "
        "perfbench's tracer pins it in src",
    ("arith.py", "_triangular_tuples", "lru_cache"):
        "DELTA8's oracle, pure and run by every verify all: about ten times "
        "slower without the cache; perfbench's tracer pins its caller in src",
}


def format_reads(source: str, name: str, attrs=FORMAT) -> list[tuple[str, int, str]]:
    """Every attribute in ``attrs`` (by default ``_nums`` and ``_den``) named
    in the source, as (file name, line, attribute)."""
    return [(name, node.lineno, node.attr)
            for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.Attribute) and node.attr in attrs]


def test_only_qseries_and_graded_read_the_integer_format():
    modules = sorted(SRC.glob("*.py"))
    assert OWNERS | {"checks.py", "catalog.py", "cli.py"} <= {p.name for p in modules}
    reads = [read for p in modules if p.name not in OWNERS
             for read in format_reads(p.read_text(encoding="utf-8"), p.name)]
    assert reads == []


def test_the_guard_finds_a_polynomial_compare_outside_graded():
    # P4's compare as it once stood in checks.py, before it became
    # GradedPoly.first_difference
    old = '''
def _poly_first_diff(p, q):
    keys = sorted(set(p._nums) | set(q._nums))
    dp, dq = p._den, q._den
    for i, key in enumerate(keys):
        x, y = p._nums.get(key, 0), q._nums.get(key, 0)
        if x * dq != y * dp:
            return (i, key, Fraction(x, dp), Fraction(y, dq))
    return None
'''
    reads = format_reads(old, "checks.py")
    assert {attr for _, _, attr in reads} == FORMAT
    assert len(reads) == 6


def test_only_qseries_packs_integers():
    modules = sorted(SRC.glob("*.py"))
    assert KERNEL in {p.name for p in modules}
    packing = [use for p in modules if p.name != KERNEL
               for use in format_reads(p.read_text(encoding="utf-8"), p.name, PACKING)]
    assert packing == []
    # the kernel itself is found, so the guard is not vacuous
    assert {attr for _, _, attr in format_reads(
        (SRC / KERNEL).read_text(encoding="utf-8"), KERNEL, PACKING)} == PACKING


def test_the_guard_finds_a_second_packing_path():
    # the signed-carry unpacking loop int_mul once had, moved to another module
    old = '''
def _unpack(product, size, slots):
    raw = (product & ((1 << 8 * size * slots) - 1)).to_bytes(size * slots, "little")
    half, out, carry = 1 << (8 * size - 1), [], 0
    for i in range(0, size * slots, size):
        c = int.from_bytes(raw[i : i + size], "little") + carry
        carry = c >= half
        out.append(c - (half << 1) if carry else c)
    return out
'''
    uses = format_reads(old, "graded.py", PACKING)
    assert sorted((line, attr) for _, line, attr in uses) == [
        (3, "to_bytes"), (6, "from_bytes")]


def _is_term_loop(iterable: ast.expr) -> bool:
    """Whether a loop over this iterable runs over a polynomial's terms: it
    reads ``_nums`` or calls ``items()``."""
    return any(isinstance(node, ast.Attribute) and node.attr in ("_nums", "items")
               for node in ast.walk(iterable))


def nested_term_loops(source: str, name: str) -> list[tuple[str, int, str]]:
    """Every loop over a polynomial's terms that runs inside another such
    loop, a ``for`` statement or a comprehension, as (file name, line,
    enclosing function)."""
    found = []

    def visit(node, func, depth):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func, depth = node.name, 0
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if _is_term_loop(gen.iter):
                    if depth:
                        found.append((name, gen.iter.lineno, func))
                    depth += 1
        elif isinstance(node, (ast.For, ast.AsyncFor)) and _is_term_loop(node.iter):
            if depth:
                found.append((name, node.lineno, func))
            visit(node.iter, func, depth)
            for child in node.body + node.orelse:
                visit(child, func, depth + 1)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, func, depth)

    visit(ast.parse(source, filename=name), "<module>", 0)
    return found


def test_only_sum_of_products_combines_polynomial_terms():
    source = (SRC / "graded.py").read_text(encoding="utf-8")
    # the kernel itself is found, so the guard is not vacuous
    assert {func for _, _, func in nested_term_loops(source, "graded.py")} == {POLY_KERNEL}


def test_the_guard_finds_a_second_term_loop():
    # the derivation loop graded once had beside the kernel, over generator
    # image tables built at import, and a product's value written as one
    # comprehension
    old = '''
def _derive(f, images):
    image_den, rules = images
    nums = {}
    for exps, x in f._nums.items():
        for i, rule in enumerate(rules):
            e = exps[i]
            if e:
                for (ra, rb, rc), y in rule.items():
                    key = (exps[0] + ra, exps[1] + rb, exps[2] + rc)
                    nums[key] = nums.get(key, 0) + e * x * y
    return GradedPoly._make(nums, f._den * image_den)

def _product_at_one(f, g):
    return sum(u * v for _, u in f._nums.items() for _, v in g._nums.items())
'''
    assert nested_term_loops(old, "graded.py") == [
        ("graded.py", 9, "_derive"), ("graded.py", 15, "_product_at_one")]


def names_read(source: str, name: str, functions=TOWER,
               names=DERIVATIVE) -> list[tuple[str, int, str]]:
    """Every name in ``names`` (by default ``DERIVATIVE``) read inside one of
    ``functions`` (by default ``TOWER``), as a variable or an attribute, as
    (function, line, name)."""
    found = []
    for func in ast.walk(ast.parse(source, filename=name)):
        if isinstance(func, ast.FunctionDef) and func.name in functions:
            for node in ast.walk(func):
                read = getattr(node, "id", None) or getattr(node, "attr", None)
                if read in names:
                    found.append((func.name, node.lineno, read))
    return found


def test_the_tower_build_takes_no_derivative():
    source = (SRC / "graded.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    # both functions are there, so the guard is not vacuous
    assert TOWER <= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert names_read(source, "graded.py") == []


def test_the_guard_finds_a_serre_derivative_in_the_tower():
    # the level step as it stood when the tower ran the paper's recursion
    old = '''
def _solve_level(mm, tower):
    if mm == 2:
        return GradedPoly.monomial((0, 1, 0), divisor_sum_zero("sigma_star", 3))
    return _sum_of_products([
        (-2 * (1 if 2 * k == mm else 2) * comb(2 * mm - 2, 2 * k - 1), tower[k], tower[mm - k])
        for k in range(2, mm // 2 + 1)] + [
        (2 * w, f, g) for w, f, g in _serre_terms(tower[mm - 1], _A, 4)])
'''
    assert names_read(old, "graded.py") == [
        ("_solve_level", 8, "_serre_terms"), ("_solve_level", 8, "_A")]


def test_t49_builds_no_polynomial_copy():
    source = (SRC / "graded.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    # both functions are there, so the guard is not vacuous
    assert JUDGES <= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert names_read(source, "graded.py", JUDGES, COPIES) == []


def test_the_guard_finds_a_lifted_polynomial_and_an_e_star_copy():
    # the level equation and the positivity judge as they stood when each
    # level's E* polynomial was lifted by a product with C^(m-mm)
    old = '''
def e_star_equations(m, catalog):
    def level(mm):
        poly, series, shift = e_star_poly(mm, catalog), catalog.level2(mm), m - mm
        lifted = _sum_of_products([(1, poly, GradedPoly.monomial((0, 0, shift)))])
        return lifted, series
    return (level(mm) for mm in range(3, m + 1))

def check_positivity(m, catalog):
    poly = e_star_poly(m, catalog)
    return not poly.is_zero() and positivity_witness(poly, m) is None
'''
    assert sorted(names_read(old, "graded.py", JUDGES, COPIES)) == [
        ("check_positivity", 10, "e_star_poly"),
        ("e_star_equations", 4, "e_star_poly"), ("e_star_equations", 5, "_sum_of_products")]


def _own_nodes(node):
    """The nodes of one scope: nested functions and classes are left out, and
    a lambda is yielded but not entered, as it binds its own arguments."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Lambda):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
            yield from _own_nodes(child)


def _written_state(scope, bound, state):
    """(line, name) for each write in ``scope``'s own nodes, and in the
    lambdas among them, to a name of ``state`` that ``bound`` or the scope
    does not bind; also the scope's bound names."""
    own = list(_own_nodes(scope))
    local = bound | {a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)} | {
        node.id for node in own if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    local -= {n for node in own if isinstance(node, ast.Global) for n in node.names}
    writes = []
    for node in own:
        if isinstance(node, ast.Lambda):
            writes.extend(_written_state(node, local, state)[0])
            continue
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            owner = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            owner = node.func.value
        else:
            continue
        if isinstance(owner, ast.Name) and owner.id in state and owner.id not in local:
            writes.append((node.lineno, owner.id))
    return writes, local


def module_state_writes(source: str, name: str) -> list[tuple[str, str, int, str]]:
    """Every write to module-level state in a function body, lambdas within it
    included, as (file name, function, line, state): a subscript store or
    delete on a module-level name, a call of one of ``MUTATORS`` on it, a
    ``global`` declaration, or an ``lru_cache`` or ``cache`` decorator (state
    is then the decorator's name).  A name the function, a lambda in it or an
    enclosing function binds is a local, not module state.  The function is
    its dotted path of enclosing functions."""
    tree = ast.parse(source, filename=name)
    state = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)}
    found = []

    def visit(node, path, bound):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = f"{path}.{child.name}" if path else child.name
                for dec in child.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    called = getattr(target, "id", None) or getattr(target, "attr", None)
                    if called in CACHES:
                        found.append((name, func, dec.lineno, called))
                found.extend((name, func, node.lineno, n) for node in _own_nodes(child)
                             if isinstance(node, ast.Global) for n in node.names)
                writes, local = _written_state(child, bound, state)
                found.extend((name, func, line, n) for line, n in writes)
                visit(child, func, local)
            else:
                visit(child, path, bound)

    visit(tree, "", frozenset())
    return found


def test_module_state_is_only_what_the_allow_list_names():
    writes = [write for p in sorted(SRC.glob("*.py"))
              for write in module_state_writes(p.read_text(encoding="utf-8"), p.name)]
    # every allowed entry is found, so the guard is not vacuous
    assert {(file, func, state) for file, func, _, state in writes} == set(MODULE_STATE)


def test_the_guard_finds_a_scalar_memo_and_an_lru_cache():
    # zeta_even as it stood with its own memo, and an oracle cached in a new
    # function; a local list of the same name is no module state
    old = '''
_ZETA: dict[int, Fraction] = {}


def zeta_even(k: int) -> Fraction:
    if k < 0:
        raise ValueError("k must be nonnegative")
    value = _ZETA.get(k)
    if value is None:
        value = _ZETA[k] = Fraction(-(-4) ** k, 2) * bernoulli(2 * k) / factorial(2 * k)
    return value


@functools.lru_cache(maxsize=None)
def lambda_even(k: int) -> Fraction:
    _ZETA = []
    _ZETA.append(zeta_even(k))
    return _ZETA[0] * (1 - Fraction(1, 4**k))
'''
    assert module_state_writes(old, "scalars.py") == [
        ("scalars.py", "zeta_even", 10, "_ZETA"), ("scalars.py", "lambda_even", 14, "lru_cache")]


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_the_guard_finds_each_mutating_method(mutator):
    # a module-level container changed in place by one method call
    old = f'''
_SEEN = set()


def note(k):
    return _SEEN.{mutator}(k)
'''
    assert module_state_writes(old, "arith.py") == [("arith.py", "note", 6, "_SEEN")]


def test_the_guard_looks_inside_a_lambda():
    # a memo filled through the catalog's lambda-build idiom, and a lambda
    # whose own argument shadows the module-level name
    old = '''
_LEVELS = {}


def level(m, catalog):
    return catalog._memo(m, lambda: _LEVELS.setdefault(m, m + 1))


def shadowed(catalog):
    return catalog._memo(0, lambda _LEVELS={}: _LEVELS.setdefault(0, 1))
'''
    assert module_state_writes(old, "graded.py") == [("graded.py", "level", 6, "_LEVELS")]


SUM = "linear_combination"
SUM_OWNERS = {"qseries.py", "catalog.py"}


def names_used(source: str, name: str, target: str) -> list[tuple[str, int]]:
    """Every use of the name ``target``: a variable, an attribute or an
    imported name, as (file name, line)."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        used = (node.name, node.asname) if isinstance(node, ast.alias) else (
            getattr(node, "id", None), getattr(node, "attr", None))
        if target in used:
            found.append((name, node.lineno))
    return found


def test_only_qseries_and_catalog_name_the_series_sum():
    uses = {p.name: names_used(p.read_text(encoding="utf-8"), p.name, SUM)
            for p in sorted(SRC.glob("*.py"))}
    # both owners name it, so the guard is not vacuous
    assert {name for name, found in uses.items() if found} == SUM_OWNERS


def test_the_guard_finds_the_sum_under_another_name():
    # checks.py's import when its builders called a module alias, and a
    # call through the module
    old = """
from .qseries import QSeries, first_difference, rational_str
from .qseries import linear_combination as combine
total = qseries.linear_combination((1, a), (-1, b))
"""
    assert names_used(old, "checks.py", SUM) == [("checks.py", 3), ("checks.py", 4)]


# what a builder reaches the series through when it leaves the catalog
SIDE_DOORS = {"QSeries", "combine", SUM, "arith"}
# the value helpers the builders call; the integer helpers _square_counts
# and _triangular_counts make plain lists for cat.enumerated and are exempt
VALUE_HELPERS = ("_minor", "_conv55_conv37", "_r24_forms")


def _evaluated(node):
    """The nodes below node but those of annotations, which the modules
    never evaluate (``from __future__ import annotations``)."""
    for field, value in ast.iter_fields(node):
        if field not in ("annotation", "returns"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield child
                    yield from _evaluated(child)


def side_doors_read(source: str) -> list[tuple[int, str]]:
    """Every variable of ``SIDE_DOORS`` the source reads, as (line, name);
    a catalog method of the same name, such as ``cat.combine``, is not a
    variable."""
    return [(node.lineno, node.id) for node in _evaluated(ast.parse(source))
            if isinstance(node, ast.Name) and node.id in SIDE_DOORS]


def test_the_builders_reach_series_through_the_catalog_alone():
    builders = [check.equations for check in checks.REGISTRY.values() if check.equations]
    assert len(builders) == 43
    functions = builders + [getattr(checks, helper) for helper in VALUE_HELPERS]
    for func in functions:
        assert side_doors_read(textwrap.dedent(inspect.getsource(func))) == [], func
    # the exempt helper reads its oracle, so the guard is not vacuous
    assert [name for _, name in side_doors_read(
        inspect.getsource(checks._triangular_counts))] == ["arith"]


def test_the_guard_finds_a_builder_leaving_the_catalog():
    # T5, JACOBI and DELTA8 as they stood before the protocol held
    old = """
def _t5(cat: SeriesCatalog) -> list[Equation]:
    s1, s3 = cat.sigma_star(1), cat.sigma_star(3)
    return [(s3, combine((2, s1.theta()), (-4, s1 * s1)))]

def _jacobi(cat: SeriesCatalog) -> Iterable[Equation]:
    for s, counts in _square_counts(cat.order).items():
        yield cat.power("theta3", s), QSeries._make(counts), f"{s}-square formula"

def _delta8(cat: SeriesCatalog) -> list[Equation]:
    count = [arith.delta8_oracle(n) for n in range(cat.order)]
    return [(cat.D(), QSeries._make([0] + count))]
"""
    assert side_doors_read(old) == [(4, "combine"), (8, "QSeries"), (11, "arith"),
                                    (12, "QSeries")]
    # through the catalog, and with QSeries in annotations only, nothing
    new = "def _t5(cat) -> QSeries:\n    x: QSeries = cat.combine((2, cat.D()))\n"
    assert side_doors_read(new) == []


def oldest_python() -> tuple[int, int]:
    """The (major, minor) of ``requires-python`` in ``pyproject.toml``."""
    text = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_every_module_parses_as_the_oldest_python_allowed():
    assert oldest_python() == (3, 10)
    modules = sorted(SRC.glob("*.py"))
    assert {"__init__.py", "checks.py", "qseries.py"} <= {p.name for p in modules}
    for p in modules:
        ast.parse(p.read_text(encoding="utf-8"), filename=p.name,
                  feature_version=oldest_python())


def test_the_syntax_guard_refuses_an_exception_group():
    # except* came in Python 3.11
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=oldest_python())
