import fault_grid


def test_fault_grid_slice_matches_golden():
    # the n = 13 column and the delta8 faults, against the committed grid
    # (the whole grid is ``python3 tests/fault_grid.py``)
    labels = {label for label, _ in fault_grid.cases((13,))}
    golden = [line for line in fault_grid.GOLDEN.read_text().splitlines()
              if line.split("  ", 1)[0] in labels]
    assert len(labels) == 18 and golden
    assert fault_grid.run_grid(table_exponents=(13,)) == golden
