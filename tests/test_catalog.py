from fractions import Fraction

import pytest

from eisen2 import arith
from eisen2.catalog import (
    CrossCheckMismatch,
    SeriesCatalog,
    _eta24,
)
from eisen2.qseries import QSeries


def test_level1_normalizations():
    # sigma_s(1) = 1, so the q^1 coefficient is the normalizing constant -4k/B_2k
    cat = SeriesCatalog(1)
    expected = [-24, 240, -504, 480, -264, Fraction(65520, 691), -24]
    assert [cat.level1(k).coeffs[1] for k in range(1, 8)] == expected


def test_level2_normalizations():
    cat = SeriesCatalog(1)
    expected = [8, -16, 8, Fraction(-32, 17), Fraction(8, 31), Fraction(-16, 691)]
    assert [cat.level2(k).coeffs[1] for k in range(1, 7)] == expected


def test_level1_series():
    cat = SeriesCatalog(8)
    p = cat.level1(1)
    assert p.coeffs[:4] == (1, -24, -72, -96)
    assert cat.level1(2).coeffs[1] == 240
    assert cat.level1(3).coeffs[1] == -504
    assert cat.level1(4).coeffs[1] == 480
    assert cat.level1(5).coeffs[1] == -264
    assert cat.level1(0) == QSeries.one(8)


def test_level2_series():
    cat = SeriesCatalog(8)
    a = cat.level2(1)
    assert a.coeffs[:4] == (1, 8, -8, 32)
    assert cat.level2(4).coeffs[1] == Fraction(-32, 17)
    assert cat.level2(0) == QSeries.one(8)
    # c S(0) = 1: the n = 0 convention values give the constant terms
    for k in range(1, 21):
        assert cat.level1(k).coeffs[0] == 1
        assert cat.level2(k).coeffs[0] == 1


def test_discriminant_spot_values():
    d = SeriesCatalog(8).delta()
    assert d.coeffs[0] == 0
    assert d.coeffs[1] == 1
    assert d.coeffs[3] == 252


def test_theta3_pattern():
    t = SeriesCatalog(17).theta3()
    assert t.coeffs[0] == 1
    assert t.coeffs[4] == 2
    assert t.coeffs[16] == 2
    assert t.coeffs[3] == 0
    assert sum(t.coeffs) == 1 + 2 * 4  # squares 1, 4, 9, 16


def test_series_C_values():
    c = SeriesCatalog(12).C()
    assert c.coeffs[0] == 1
    assert c.coeffs[1] == 24
    assert c.coeffs[2] == 24
    assert c.coeffs[3] == 24 * arith.sigma_sharp(3)


def test_series_D_values():
    d = SeriesCatalog(12).D()
    assert d.coeffs[0] == 0
    assert d.coeffs[1] == 1
    assert d.coeffs[2] == 8
    assert d.coeffs[3] == 28


def test_theta_eighth_power_relation():
    cat = SeriesCatalog(40)
    assert (cat.theta3() ** 8).neg_q() == cat.level2(2)


def test_level1_polynomial_relations():
    cat = SeriesCatalog(40)
    e4, e6 = cat.level1(2), cat.level1(3)
    assert cat.level1(4) == e4 * e4
    assert cat.level1(5) == e4 * e6
    assert cat.level1(6).scale(691) == (e4**3).scale(441) + (e6**2).scale(250)
    assert cat.level1(7) == e4 * e4 * e6


def test_level_bridge_relations():
    cat = SeriesCatalog(40)
    a, b, c = cat.level2(1), cat.level2(2), cat.C()
    assert cat.level1(1) == a.scale(3) - c.scale(2)
    assert cat.level1(2) == b.scale(-3) + (c * c).scale(4)
    assert cat.level1(3) == (b * c).scale(9) - (c**3).scale(8)
    # the two weight-2 quotient routes to the discriminant
    assert cat.delta() == (b**3 - cat.level2(3) ** 2).scale(Fraction(-1, 64))


def test_memoization_and_truncation():
    cat = SeriesCatalog(16)
    assert cat.level2(2) is cat.level2(2)
    assert SeriesCatalog(10).level2(2).order == 10
    assert SeriesCatalog(5).level1(2) == SeriesCatalog(40).level1(2).truncate(5)


def test_by_name():
    cat = SeriesCatalog(4)
    assert cat.by_name("E4") == cat.level1(2)
    assert cat.by_name("E10star") == cat.level2(5)
    assert cat.by_name("delta") == cat.delta()
    assert cat.by_name("C") == cat.C()
    # numbers may carry leading zeros, as the CLI has always accepted them
    assert cat.by_name("E04") is cat.level1(2)
    assert cat.by_name("sigma011") is cat.sigma(11)
    assert cat.by_name("sigma03star") is cat.sigma_star(3)
    assert cat.by_name("r024") is cat.power("theta3", 24)
    for bad in ("E3", "Q", "E4sta", "tau", "sigma2", "sigma0", "r0", "sigma3starx",
                "r4star", "sigma", "r", "E\u00b2"):
        with pytest.raises(KeyError):
            cat.by_name(bad)


@pytest.mark.parametrize("s", [1, 3, 5, 7, 11, 13])
def test_by_name_resolves_the_divisor_sums(s):
    cat = SeriesCatalog(40)
    assert cat.by_name(f"sigma{s}").coeffs == tuple(arith.sigma(s, n) for n in range(41))
    assert cat.by_name(f"sigma{s}star").coeffs == tuple(
        arith.sigma_star(s, n) for n in range(41)
    )


def test_by_name_resolves_the_theta_powers():
    cat = SeriesCatalog(8)
    for s in (2, 4, 6, 8, 16, 24):
        assert cat.by_name(f"r{s}").coeffs == tuple(arith.r_oracle(s, n) for n in range(9))
    assert cat.by_name("r1") is cat.theta3()


def _count_products(monkeypatch) -> list:
    calls = []
    real = QSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    return calls


@pytest.mark.parametrize("e", [0, 1, 2])
def test_power_of_an_unknown_name_raises_at_every_exponent(e):
    # the zeroth power once returned 1 without resolving the name
    with pytest.raises(KeyError, match="bogus"):
        SeriesCatalog(8).power("bogus", e)


def test_a_lone_power_is_built_by_squaring(monkeypatch):
    cat = SeriesCatalog(30)
    calls = _count_products(monkeypatch)
    theta24 = cat.power("theta3", 24)
    assert len(calls) <= 5
    # every power on the way is memoized
    assert cat.power("theta3", 12) * cat.power("theta3", 12) == theta24
    assert cat.power("theta3", 3) is cat.power("theta3", 3)


def test_ascending_powers_cost_one_product_each(monkeypatch):
    # gp_evaluate asks for consecutive powers of each generator
    cat = SeriesCatalog(30)
    cat.C()  # C's own cross-check is one product
    calls = _count_products(monkeypatch)
    for e in range(2, 21):
        cat.power("C", e)
    assert len(calls) == 19


def test_divisor_sum_series_never_call_the_oracles(monkeypatch):
    # the catalog sieves; the per-n trial-division functions are oracles only
    def refuse(*args):
        raise AssertionError("per-n divisor-sum oracle called")

    for name in ("divisors", "sigma", "sigma_star", "sigma_sharp"):
        monkeypatch.setattr(arith, name, refuse)
    cat = SeriesCatalog(1000)
    assert cat.sigma(11)[7] == 1 + 7**11
    assert cat.sigma_star(3)[2] == -7
    assert cat.C()[2] == 24
    assert cat.delta()[2] == -24


def test_delta_keeps_no_intermediate_powers(monkeypatch):
    cat = SeriesCatalog(60)
    calls = _count_products(monkeypatch)
    cat.delta()
    # E4^3 and E6^2 on each route, one product per power as before
    assert len(calls) == 6
    assert not [key for key in cat._cache if "^" in key]
    assert {"E4", "E6", "E4star", "E6star", "delta"} <= set(cat._cache)


def test_catalog_rejects_negative():
    with pytest.raises(ValueError):
        SeriesCatalog(-1)
    cat = SeriesCatalog(4)
    with pytest.raises(ValueError):
        cat.level1(-1)


def test_C_equals_the_quotient():
    # the quotient by Newton inversion is the oracle for the sigma# route
    cat = SeriesCatalog(64)
    assert cat.C() == cat.level2(3) * cat.level2(2).invert()


def test_corrupted_sharp_trips_C(monkeypatch):
    real = arith.divisor_sum_table

    def corrupted(kind, s, N):
        table = real(kind, s, N)
        if kind == "sigma_sharp":
            table[4] += 1
        return table

    monkeypatch.setattr(arith, "divisor_sum_table", corrupted)
    cat = SeriesCatalog(8)
    with pytest.raises(CrossCheckMismatch) as info:
        cat.C()
    assert info.value.exponent == 4


def test_eta24_matches_naive_product():
    order = 60
    prod = [1] + [0] * order
    for n in range(1, order + 1):
        for _ in range(24):
            # multiply by (1 - q^n), descending so lower terms are unmodified
            for i in range(order, n - 1, -1):
                prod[i] -= prod[i - n]
    assert _eta24(order) == prod
    assert _eta24(0) == [1]
