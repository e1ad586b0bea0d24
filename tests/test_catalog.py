import random
import sys
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from eisen2 import arith, qseries
from eisen2 import checks
from eisen2.catalog import SeriesCatalog, _eta24
from eisen2.qseries import QSeries
from verify_defaults import workspace


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
    calls = _count_products(monkeypatch)
    for e in range(2, 21):
        cat.power("C", e)
    assert len(calls) == 19


def test_divisor_sum_series_never_call_the_oracles(monkeypatch):
    # the catalog reads the tables; the per-n trial-division functions are oracles only
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
    # the discriminant is the eta product alone: its polynomial routes are
    # DIS's equations, so the constructor makes no series product
    cat = SeriesCatalog(60)
    calls = _count_products(monkeypatch)
    cat.delta()
    assert calls == []
    assert set(cat._cache) == {"delta"}


@pytest.mark.parametrize("name, products", [("C", 0), ("D", 1)])
def test_C_and_D_are_built_by_one_route(monkeypatch, name, products):
    # C is the tabulated sigma# series; D squares C and takes nothing else
    cat = SeriesCatalog(60)
    calls = _count_products(monkeypatch)
    cat.by_name(name)
    assert len(calls) == products


def test_the_eta_product_equals_both_polynomial_routes_to_1000():
    # the three routes to the discriminant agree at the largest order a
    # default run builds, so the multiplication kernel is held to an
    # independent route there: the eta product's squarings against products
    # of Eisenstein series at both levels
    cat = SeriesCatalog(1000)
    e4, e6, b, e6star = cat.level1(2), cat.level1(3), cat.level2(2), cat.level2(3)
    delta = cat.delta()
    assert delta.order == 1000
    assert delta == (e4 * e4 * e4 - e6 * e6).scale(Fraction(1, 1728))
    assert delta == (b * b * b - e6star * e6star).scale(Fraction(-1, 64))


_PRODUCT_NAMES = ("E2", "E4", "E6", "E2star", "E4star", "E6star", "E8star", "C", "D",
                  "delta", "theta3", "sigma3", "sigma5star", "r4")


def test_product_equals_the_plain_chain():
    cat = SeriesCatalog(24)
    rng = random.Random(23)
    for _ in range(60):
        names = [rng.choice(_PRODUCT_NAMES) for _ in range(rng.randint(1, 4))]
        chain = reduce(mul, (cat.by_name(name) for name in names))
        made = cat.product(*names)
        assert (made.numerators, made.denominator) == (chain.numerators, chain.denominator)
        # the key depends on the multiset of names, not on their order
        rng.shuffle(names)
        assert cat.product(*names) is made
    assert cat.product("E4") is cat.level1(2)
    assert cat.product() == QSeries.one(24)


def test_product_of_a_repeat_is_the_power():
    cat = SeriesCatalog(16)
    assert cat.product("E4", "E4") is cat.power("E4", 2)
    assert cat.power("C", 3) is cat.product("C", "C", "C")
    assert cat.product("C", "E4star", "C") is cat.monomial([("C", 2), ("E4star", 1)])


def test_a_second_product_makes_no_series_product(monkeypatch):
    cat = SeriesCatalog(30)
    calls = _count_products(monkeypatch)
    first = cat.product("E2star", "E4star", "C")
    assert len(calls) == 2  # C * E2star, then times E4star
    assert cat.product("C", "E4star", "E2star") is first
    assert cat.product("E2star", "C") is cat.product("C", "E2star")
    assert len(calls) == 2


def test_product_and_monomial_share_one_key(monkeypatch):
    # gp_evaluate lists its generators in ring order, product sorts names;
    # B*C asked for both ways is one series, built by one product
    cat = SeriesCatalog(30)
    calls = _count_products(monkeypatch)
    made = cat.product("C", "E4star")
    assert cat.monomial([("E4star", 1), ("C", 1)]) is made
    assert cat.monomial([("C", 1), ("E4star", 1)]) is made
    assert len(calls) == 1
    assert "C^1*E4star^1" in cat._cache and "E4star^1*C^1" not in cat._cache


def test_only_monomial_multiplies_series(monkeypatch):
    # powers, theta powers, products and D all reach the one memoized build
    cat = SeriesCatalog(30)
    callers = []
    real = QSeries.__mul__

    def recording(self, other):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return real(self, other)

    monkeypatch.setattr(QSeries, "__mul__", recording)
    cat.power("theta3", 24)
    cat.by_name("r8")
    cat.product("E2star", "E4star", "C")
    cat.monomial([("C", 3), ("E4star", 2)])
    cat.D()
    assert callers and set(callers) == {"SeriesCatalog.monomial.<locals>.build"}


def test_power_is_the_monomial_of_one_factor():
    cat = SeriesCatalog(20)
    for e in range(1, 7):
        assert cat.power("theta3", e) is cat.monomial([("theta3", e)])
    one = QSeries.one(20)
    assert cat.power("theta3", 0) == one == cat.monomial([("theta3", 0)])


@pytest.mark.parametrize("powers", [
    [("C", -1), ("E4star", 2)],
    [("C", 1), ("D", -2), ("E4star", 1)],
    [("C", 2), ("E4star", -1)],
])
def test_a_negative_exponent_in_any_factor_raises(powers):
    cat = SeriesCatalog(20)
    with pytest.raises(ValueError, match="negative powers"):
        cat.monomial(powers)
    assert not [key for key in cat._cache if "^-" in key]


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
    # E6STAR-ABC's first equation, C E4* = E6*, fails at the corrupted index
    report = checks.run_check("E6STAR-ABC", workspace(order=8))
    assert report.first_discrepancy == (4, -8416, -8440)
    assert report.notes == ("C E4* = E6* for C = 1 + 24 sum sigma#(n) q^n",)


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


def test_factors_of_one_make_no_product_and_no_key(monkeypatch):
    # E0 and E0star, in any spelling, resolve to the series 1
    cat = SeriesCatalog(10)
    e4, c = cat.level1(2), cat.C()
    calls = []
    real = qseries.int_mul

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qseries, "int_mul", counting)
    one = QSeries.one(10)
    assert cat.product("E0", "E4") is e4
    assert cat.product("E4", "E00", "E000star") is e4
    assert cat.product("E0star", "E0star", "C") is c
    for name in ("E0", "E0star", "E00"):
        for e in range(4):
            assert cat.power(name, e) == one
    assert cat.product("E0", "E0star") == one
    assert cat.monomial([("E0", 3), ("E0star", 2)]) == one
    assert calls == []
    names = {factor.split("^")[0] for key in cat._cache for factor in key.split("*")}
    assert not [name for name in names if name.startswith("E0")]
    # a factor of 1 does not change the key of the rest
    assert cat.product("E0", "C", "E4") is cat.product("C", "E4")
