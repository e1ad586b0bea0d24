from fractions import Fraction
from math import gcd

import pytest

from eisen2 import arith, checks
from eisen2.catalog import SeriesCatalog
from eisen2.qseries import QSeries
from verify_defaults import workspace


def test_divisors():
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(49) == [1, 7, 49]
    with pytest.raises(ValueError):
        arith.divisors(0)


def test_sigma_values():
    assert arith.sigma(3, 3) == 28
    assert arith.sigma(5, 3) == 244
    assert arith.sigma(3, 0) == Fraction(1, 240)
    assert arith.sigma(1, 0) == Fraction(-1, 24)
    assert arith.sigma(5, 0) == Fraction(-1, 504)
    assert arith.sigma(11, 0) == Fraction(691, 65520)
    assert arith.sigma(13, 0) == Fraction(-1, 24)
    with pytest.raises(ValueError):
        arith.sigma(2, 3)


def test_sigma_star_values():
    assert arith.sigma_star(3, 2) == -7
    assert arith.sigma_star(5, 4) == -1055
    assert arith.sigma_star(7, 0) == Fraction(-17, 32)
    assert arith.sigma_star(1, 0) == Fraction(1, 8)
    assert arith.sigma_star(3, 0) == Fraction(-1, 16)
    assert arith.sigma_star(5, 0) == Fraction(1, 8)
    # odd divisors count positively, even negatively
    assert arith.sigma_star(1, 2) == -1
    assert arith.sigma_star(1, 3) == 4


def test_sigma_sharp():
    assert arith.sigma_sharp(1) == 1
    assert arith.sigma_sharp(2) == 1
    assert arith.sigma_sharp(6) == 4
    assert arith.sigma_sharp(12) == 4
    assert arith.sigma_sharp(15) == 24


def _sharp_oracle(s: int, n: int):
    # the odd divisor sum; its n = 0 convention is (1 - 2^s) sigma_s(0)
    if n == 0:
        return (1 - 2**s) * arith.sigma(s, 0)
    if s == 1:
        return arith.sigma_sharp(n)
    return sum(d**s for d in arith.divisors(n) if d % 2)


_ORACLES = {"sigma": arith.sigma, "sigma_star": arith.sigma_star,
            "sigma_sharp": _sharp_oracle}


@pytest.mark.parametrize("s", range(1, 80, 2))
def test_divisor_sum_table_matches_the_oracles(s):
    for kind, oracle in _ORACLES.items():
        expected = [oracle(s, n) for n in range(1001)]
        for N in (0, 1, 2, 48, 300, 1000):
            table = arith.divisor_sum_table(kind, s, N)
            assert table == expected[: N + 1], (kind, N)
            assert all(type(x) is int for x in table[1:])


def test_divisor_sum_table_rejects_bad_input():
    for args in (("sigma", 2, 5), ("sigma_star", 0, 5), ("sigma", 3, -1),
                 ("sigma_odd", 3, 5)):
        with pytest.raises(ValueError):
            arith.divisor_sum_table(*args)


def test_tau_table():
    table = arith.tau_table(30)
    assert table[0] == 0
    assert table[1] == 1
    assert table[2] == -24
    assert table[3] == 252
    assert table[4] == -1472
    assert all(v.denominator == 1 for v in table.coeffs[1:])


def test_tau_table_at_zero_is_the_constant_term():
    assert arith.tau_table(0).coeffs == (0,)
    with pytest.raises(ValueError):
        arith.tau_table(-1)


@pytest.mark.parametrize("N", [0, 1, 30])
def test_tables_are_the_catalogs_series(N):
    cat = SeriesCatalog(N)
    assert isinstance(arith.tau_table(N), QSeries)
    assert arith.tau_table(N) == cat.delta() and arith.tau_table(N).order == N
    for s in (1, 4, 24):
        assert arith.r_count(s, N) == cat.power("theta3", s)
        assert arith.r_count(s, N).order == N


def test_divisor_sum_zero_is_slot_0_and_rejects_bad_input():
    for kind in _ORACLES:
        for s in (1, 3, 11):
            assert arith.divisor_sum_zero(kind, s) == arith.divisor_sum_table(kind, s, 0)[0]
    for args in (("sigma", 2), ("sigma_star", 0), ("sigma_odd", 3)):
        with pytest.raises(ValueError):
            arith.divisor_sum_zero(*args)


def test_r_count_matches_oracle():
    tables = {s: arith.r_count(s, 8) for s in (2, 4, 6, 8, 16, 24)}
    for s, table in tables.items():
        for n in range(9):
            assert table[n] == arith.r_oracle(s, n), (s, n)


def test_r_oracle_values():
    assert arith.r_oracle(2, 1) == 4
    assert arith.r_oracle(8, 0) == 1
    assert arith.r_oracle(24, 1) == 48
    assert arith.r_oracle(16, 1) == 32


def test_delta8_oracle():
    assert arith.delta8_oracle(0) == 1
    assert arith.delta8_oracle(1) == 8
    assert arith.delta8_oracle(2) == 28
    # matches the series route through the weight-4 kernel form
    d = SeriesCatalog(51).D()
    for n in range(50):
        assert d.coeffs[n + 1] == arith.delta8_oracle(n)


def test_jacobi_small_range():
    r2 = arith.r_count(2, 60)
    r4 = arith.r_count(4, 60)
    r8 = arith.r_count(8, 60)
    for n in range(1, 61):
        divs = arith.divisors(n)
        assert r2[n] == 4 * (
            sum(1 for d in divs if d % 4 == 1) - sum(1 for d in divs if d % 4 == 3)
        )
        assert r4[n] == 8 * sum(d for d in divs if d % 4)
        sign = -1 if n % 2 else 1
        assert r8[n] == 16 * sign * sum(
            d**3 if d % 2 == 0 else -(d**3) for d in divs
        )


def test_lagrange_positivity():
    r4 = arith.r_count(4, 500)
    assert all(r4[n] > 0 for n in range(501))


def test_tau_multiplicative():
    table = arith.tau_table(1000)
    tau = table.coeffs
    for m in range(2, 1001):
        for n in range(2, 1000 // m + 1):
            if gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n]


def test_tau_prime_power_recursion():
    tau = arith.tau_table(1000).coeffs
    for p in arith.primes_up_to(31):
        prev, pk = 1, p
        while pk * p <= 1000:
            assert tau[pk * p] == tau[p] * tau[pk] - p**11 * tau[prev]
            prev, pk = pk, pk * p


def test_tau_congruence_mod_691():
    tau = arith.tau_table(1000).coeffs
    for n in range(1, 1001):
        assert (tau[n] - arith.sigma(11, n)).numerator % 691 == 0


def test_tau_squared_prime_bound():
    tau = arith.tau_table(1000).coeffs
    for p in arith.primes_up_to(1000):
        assert tau[p] ** 2 <= 4 * p**11


def test_tau_nonvanishing():
    tau = arith.tau_table(1000).coeffs
    assert all(tau[n] != 0 for n in range(1, 1001))


def test_primes_up_to():
    assert arith.primes_up_to(1) == []
    assert arith.primes_up_to(13) == [2, 3, 5, 7, 11, 13]
    assert len(arith.primes_up_to(1000)) == 168


def test_cross_check_guards_divisor_sums(monkeypatch):
    # corrupting one signed divisor sum must fail DIS's equation between the
    # eta product and the level-2 route, at that exponent with both values
    real = arith.divisor_sum_table

    def corrupted(kind, s, N):
        table = real(kind, s, N)
        if (kind, s) == ("sigma_star", 3):
            table[5] += 1
        return table

    monkeypatch.setattr(arith, "divisor_sum_table", corrupted)
    report = checks.run_check("DIS", workspace(order=12))
    assert report.first_discrepancy == (5, 4830, Fraction(19323, 4))
    assert report.notes == ("eta product against the level-2 route -(E4*^3-E6*^2)/64",)
