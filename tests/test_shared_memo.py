"""One series memo per run: every catalog of a ``Workspace`` shares it, a
series missing at a lower order is a higher order's build truncated, and
``run_all`` runs the checks that read the highest catalog order first."""

import contextlib

import pytest

import fault_grid
from eisen2 import arith, catalog, checks, graded
from eisen2.catalog import SeriesCatalog
from eisen2.graded import e_star_order, e_star_poly
from eisen2.qseries import QSeries
from load_workloads import load_workloads
from verify_defaults import sizes, workspace


def _count_work(monkeypatch) -> dict:
    """Series products and divisor-sum tables made from now on."""
    counts = {"products": 0, "tables": 0}
    real_mul, real_table = QSeries.__mul__, arith.divisor_sum_table

    def mul(self, other):
        counts["products"] += isinstance(other, QSeries)
        return real_mul(self, other)

    def table(kind, s, N):
        counts["tables"] += 1
        return real_table(kind, s, N)

    monkeypatch.setattr(QSeries, "__mul__", mul)
    monkeypatch.setattr(arith, "divisor_sum_table", table)
    return counts


def _outcomes(reports) -> list:
    return [(r.id, r.status, r.first_discrepancy, r.notes) for r in reports]


@pytest.mark.parametrize("fault", [None, "sigma(11)[13]+1"])
def test_reports_and_work_do_not_depend_on_the_order_of_the_ids(monkeypatch, fault):
    workload = load_workloads(monkeypatch).WORKLOADS["registry-default"]
    counts = _count_work(monkeypatch)
    runs = []
    with dict(fault_grid.cases())[fault] if fault else contextlib.nullcontext():
        for ids in [sorted(workload.ids)] + [workload.ids_for_seed(s) for s in range(3)]:
            counts.update(products=0, tables=0)
            runs.append((_outcomes(checks.run_all(**workload.tiny, ids=ids)), dict(counts)))
    assert all(run == runs[0] for run in runs[1:])
    outcomes, work = runs[0]
    assert len(outcomes) == len(workload.ids)
    assert any(status == "fail" for _, status, _, _ in outcomes) == bool(fault)
    assert work["products"] > 0 and work["tables"] > 0


def test_a_default_run_makes_at_most_170_products_and_33_tables(monkeypatch):
    # 182 products and 61 tables when each catalog order built its own
    counts = _count_work(monkeypatch)
    reports = checks.run_all(**sizes(), ids=checks.registry_ids())
    assert [r.id for r in reports if r.status != "pass"] == []
    assert counts["products"] <= 170 and counts["tables"] <= 33


def test_every_series_a_lower_order_holds_is_a_fresh_build(monkeypatch):
    made = []

    class Recorded(checks.Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(checks, "Workspace", Recorded)
    checks.run_all(**sizes(), ids=checks.registry_ids())
    (ws,) = made
    fresh = {order: SeriesCatalog(order) for held in ws._memo.values() for order in held}
    compared = 0
    for key, held in ws._memo.items():
        for order, value in held.items():
            if order == max(held) or not isinstance(value, QSeries):
                continue
            cat = fresh[order]
            built = cat.by_name(key) if isinstance(key, str) else cat.monomial(key)
            assert (value.numerators, value.denominator) == (
                built.numerators, built.denominator), (key, order)
            compared += 1
    assert compared >= 30


def test_a_lower_order_truncates_without_building(monkeypatch):
    ws = workspace()
    high, low = ws.catalog_at(200), ws.catalog_at(64)
    delta, bc = high.delta(), high.product("E4star", "C")

    def refuse(*args):
        raise AssertionError("built again at a lower order")

    monkeypatch.setattr(catalog, "_eta24", refuse)
    monkeypatch.setattr(QSeries, "__mul__", refuse)
    assert low.delta().numerators == delta.numerators[:65]
    assert low.product("C", "E4star") == bc and low.product("C", "E4star").order == 64
    assert high._cache is low._cache is ws._memo


def test_a_higher_order_is_built_not_truncated():
    ws = workspace()
    low = ws.catalog_at(16).level2(3)
    high = ws.catalog_at(40).level2(3)
    assert high.order == 40 and high.truncate(16).numerators == low.numerators


def test_the_tower_stays_with_its_own_catalog(monkeypatch):
    ws = workspace()
    top = e_star_order(8)
    e_star_poly(8, ws.catalog_at(top + 10))
    solved = []
    real = graded._solve_level
    monkeypatch.setattr(graded, "_solve_level",
                        lambda mm, tower: solved.append(mm) or real(mm, tower))
    e_star_poly(8, ws.catalog_at(top))
    assert solved == list(range(2, 9))


def test_a_polynomial_key_is_no_series_name():
    cat = SeriesCatalog(e_star_order(20))
    e_star_poly(20, cat)
    # the tower's levels are memoized once, as h_m; E*_2m is no key
    assert "sigma39star_poly" in cat._cache and "E40star_poly" not in cat._cache
    for name in ("E40star_poly", "sigma39star_poly"):
        with pytest.raises(KeyError):
            cat.by_name(name)


def test_catalogs_made_on_their_own_share_nothing():
    a, b = SeriesCatalog(64), SeriesCatalog(16)
    a.delta()
    assert a._cache is not b._cache and b._cache == {}
