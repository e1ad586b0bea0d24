"""The one route to the named q-series: E_{2k}, E*_{2k}, delta, theta3, C, D,
the divisor-sum series sum sigma_s(n) q^n and sum sigma*_s(n) q^n, and the
powers of any of them and their products.

A ``SeriesCatalog`` names, builds and memoizes every series at one order.
``by_name`` resolves every export name, ``power`` builds each power by one
product from the powers already memoized, ``monomial`` each product of
powers by one product more, and ``product`` each product of named series
through ``monomial``, whatever the order of its factors.  So a product that
several checks share is multiplied out once per catalog.  Each series is
built once, by one route, from its defining expansion.  The divisor-sum
series are sieved in integers by ``arith.divisor_sum_table`` and keep its
n = 0 convention values as their constant terms, so the convolution
identities hold from n = 0; the per-n ``arith`` functions are left as the
oracles the tests hold them to.  Each Eisenstein series is one of the
divisor-sum series over its n = 0 convention value
``arith.divisor_sum_zero``, E = S/S(0) and E* = S*/S*(0), so its constant
term is 1.  The discriminant is the eta product, C is 24 times the sieved
odd divisor sums and D is -(E*_4 - C^2)/64; their other routes are
equations of the registry checks DIS, E6STAR-ABC and DELTA8.  No
constructor divides.  The catalog also memoizes the levels of the E*_2m
tower that ``graded.e_star_poly`` builds, whose series equations T49
compares.  The catalog itself compares nothing.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import isqrt

from . import arith
from .qseries import QSeries, int_mul
from .qseries import first_difference  # noqa: F401  (perfbench's tracer wraps it here)
from .scalars import bernoulli  # noqa: F401  (perfbench's tracer wraps it here)

__all__ = ["SeriesCatalog"]


def _eta24(order: int) -> list[int]:
    """Integer coefficients of prod_{n>=1} (1-q^n)^24 up to the order.

    Jacobi's identity gives the cube as a sparse series,
    prod (1-q^n)^3 = sum_{k>=0} (-1)^k (2k+1) q^(k(k+1)/2),
    and three squarings raise it to the 24th power.
    """
    prod = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        prod[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    for _ in range(3):
        prod = int_mul(prod, prod, order)
    return prod


# the numbered export names: E<2k>[star], sigma<odd s>[star] and r<s>
_NAME = re.compile(r"(E|sigma|r)(\d+)(star)?")


def _is_one(name: str) -> bool:
    """Whether the name is E0 or E0star in any spelling, the series 1."""
    m = _NAME.fullmatch(name)
    return m is not None and m[1] == "E" and int(m[2]) == 0


class SeriesCatalog:
    """Memoized named series, their powers and monomials, and E*_2m
    polynomials at one order."""

    def __init__(self, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.order = order
        self._cache: dict = {}

    def _memo(self, key: str, build):
        series = self._cache.get(key)
        if series is None:
            series = self._cache[key] = build()
        return series

    def _sieved(self, kind: str, s: int) -> QSeries:
        """The series of ``arith.divisor_sum_table(kind, s, order)``, whose
        terms past the constant are integers over its denominator."""
        table = arith.divisor_sum_table(kind, s, self.order)
        zero = Fraction(table[0])
        den = zero.denominator
        return QSeries._make([zero.numerator] + [den * x for x in table[1:]], den)

    def sigma(self, s: int) -> QSeries:
        """sum sigma_s(n) q^n for n = 0..order, with the n = 0 convention."""
        return self._memo(f"sigma{s}", lambda: self._sieved("sigma", s))

    def sigma_star(self, s: int) -> QSeries:
        """sum sigma*_s(n) q^n for n = 0..order, with the n = 0 convention."""
        return self._memo(f"sigma{s}star", lambda: self._sieved("sigma_star", s))

    def level1(self, k: int) -> QSeries:
        """E_{2k} = sum sigma_{2k-1}(n) q^n / sigma_{2k-1}(0); E_0 = 1."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k == 0:
            return QSeries.one(self.order)
        s = 2 * k - 1
        return self._memo(f"E{2 * k}", lambda: self.sigma(s).scale(
            1 / arith.divisor_sum_zero("sigma", s)))

    def level2(self, k: int) -> QSeries:
        """E*_{2k} = sum sigma*_{2k-1}(n) q^n / sigma*_{2k-1}(0); E*_0 = 1."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k == 0:
            return QSeries.one(self.order)
        s = 2 * k - 1
        return self._memo(f"E{2 * k}star",
                          lambda: self.sigma_star(s).scale(
                              1 / arith.divisor_sum_zero("sigma_star", s)))

    def delta(self) -> QSeries:
        """The discriminant cusp form, the eta product q prod (1-q^n)^24,
        in integers, so the denominator is 1."""
        return self._memo("delta",
                          lambda: QSeries._make([0] + _eta24(self.order)[: self.order]))

    def theta3(self) -> QSeries:
        """Square-counting theta series: 1 + 2 sum_{m>=1} q^(m^2)."""

        def build() -> QSeries:
            nums = [1] + [0] * self.order
            for m in range(1, isqrt(self.order) + 1):
                nums[m * m] = 2
            return QSeries._make(nums)

        return self._memo("theta3", build)

    def C(self) -> QSeries:
        """The weight-2 form C = E*_6/E*_4 = 1 + 24 sum sigma#(n) q^n, built
        as 24 times the sieved odd divisor sums, whose n = 0 convention is
        1/24."""
        return self._memo("C", lambda: self._sieved("sigma_sharp", 1).scale(24))

    def D(self) -> QSeries:
        """The weight-4 form -(E*_4 - C^2)/64, whose coefficient of q^(n+1)
        counts ordered sums of 8 triangular numbers equal to n."""
        return self._memo("D", lambda: (self.level2(2) - self.power("C", 2)).scale(
            Fraction(-1, 64)))

    def power(self, name: str, e: int) -> QSeries:
        """The series ``by_name(name)`` to the power e >= 0, memoized.

        Each power is one product: the power e - 1 times the base when e is
        odd, and the square of the power e/2 when e is even.  So a power e
        costs at most 2 log2(e) products, and none once memoized.  A power
        of E0 or E0star, in any spelling, is the series 1, with no product
        and no key.
        """
        if e < 0:
            raise ValueError("negative powers are not defined; invert first")
        base = self.by_name(name)  # an unknown name raises even for e = 0
        if e == 0 or _is_one(name):
            return QSeries.one(self.order)
        if e == 1:
            return base

        def build() -> QSeries:
            if e % 2:
                return self.power(name, e - 1) * base
            half = self.power(name, e // 2)
            return half * half

        return self._memo(f"{name}^{e}", build)

    def monomial(self, powers) -> QSeries:
        """The product of the powers ``power(name, e)`` over the (name, e)
        pairs, memoized.  Zero exponents and the factors E0 and E0star (the
        series 1) are dropped and the rest sorted, so the key does not
        depend on the order of the pairs or on a factor 1; a product of
        several powers is one product past the memoized product of all but
        its last factor, so each monomial costs one product once its powers
        exist."""
        factors = tuple(sorted((name, e) for name, e in powers
                               if e and not _is_one(name)))
        if len(factors) < 2:
            return self.power(*factors[0]) if factors else QSeries.one(self.order)
        return self._memo(
            "*".join(f"{name}^{e}" for name, e in factors),
            lambda: self.monomial(factors[:-1]) * self.power(*factors[-1]))

    def product(self, *names: str) -> QSeries:
        """The product of the named series, memoized: the ``monomial`` of the
        names counted with multiplicity, so its key does not depend on the
        order of the names or on how a repeat is written, and
        ``product("E4", "E4")`` is ``power("E4", 2)``."""
        return self.monomial(Counter(names).items())

    def by_name(self, name: str) -> QSeries:
        """Resolve a series by its export name.

        The names are delta, theta3, C, D, E<2k> and E<2k>star (the level-1
        and level-2 Eisenstein series), sigma<odd s> and sigma<odd s>star
        (the divisor-sum series) and r<s> for s >= 1 (theta3^s, whose
        coefficients count representations as sums of s squares).  Numbers
        may carry leading zeros.
        """
        if name in ("delta", "theta3", "C", "D"):
            return getattr(self, name)()
        m = _NAME.fullmatch(name)
        if m:
            kind, number, star = m.groups()
            n = int(number)
            if kind == "E" and n % 2 == 0:
                return self.level2(n // 2) if star else self.level1(n // 2)
            if kind == "sigma" and n % 2 == 1:
                return self.sigma_star(n) if star else self.sigma(n)
            if kind == "r" and not star and n >= 1:
                return self.power("theta3", n)
        raise KeyError(f"unknown series name {name!r}")
