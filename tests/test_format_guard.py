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
combine terms there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eisen2"
OWNERS = {"qseries.py", "graded.py"}
FORMAT = {"_nums", "_den"}
KERNEL = "qseries.py"
PACKING = {"to_bytes", "from_bytes"}
POLY_KERNEL = "_sum_of_products"


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
