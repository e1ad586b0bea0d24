"""Only ``qseries.py`` and ``graded.py`` read the integer format of a series
or a polynomial, the attributes ``_nums`` and ``_den``.  Every other module
goes through ``numerators``, ``denominator`` and the types' own methods, so
the format can change in those two files alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eisen2"
OWNERS = {"qseries.py", "graded.py"}
FORMAT = {"_nums", "_den"}


def format_reads(source: str, name: str) -> list[tuple[str, int, str]]:
    """Every attribute named ``_nums`` or ``_den`` in the source, as
    (file name, line, attribute)."""
    return [(name, node.lineno, node.attr)
            for node in ast.walk(ast.parse(source, filename=name))
            if isinstance(node, ast.Attribute) and node.attr in FORMAT]


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
