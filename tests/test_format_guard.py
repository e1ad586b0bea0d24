"""Only ``qseries.py`` and ``graded.py`` read the integer format of a series
or a polynomial, the attributes ``_nums`` and ``_den``.  Every other module
goes through ``numerators``, ``denominator`` and the types' own methods, so
the format can change in those two files alone.

Likewise only ``qseries.py`` packs integers into bytes or reads them back,
with ``int.to_bytes`` and ``int.from_bytes``: series multiplication has one
kernel, ``qseries.int_mul``, and no module grows a second packing path."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eisen2"
OWNERS = {"qseries.py", "graded.py"}
FORMAT = {"_nums", "_den"}
KERNEL = "qseries.py"
PACKING = {"to_bytes", "from_bytes"}


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
