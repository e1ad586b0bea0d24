import re

import fault_grid


def test_fault_grid_slice_matches_golden():
    # the n = 13 column and the delta8 faults, against the committed grid
    # (the whole grid is ``python3 tests/fault_grid.py``)
    labels = {label for label, _ in fault_grid.cases((13,))}
    golden = [line for line in fault_grid.GOLDEN.read_text().splitlines()
              if line.split("  ", 1)[0] in labels]
    assert len(labels) == 18 and golden
    assert fault_grid.run_grid(table_exponents=(13,)) == golden


def test_no_fail_line_names_two_equal_values():
    # a discrepancy is a pair of values that differ: C10 reports flags[0]
    # against a flag that differs from it, not against flags[1] by position
    sides = [re.search(r" at n=\d+: (\S+) != (\S+)", line).groups()
             for line in fault_grid.GOLDEN.read_text().splitlines()]
    assert len(sides) > 1000
    assert [s for s in sides if s[0] == s[1]] == []
