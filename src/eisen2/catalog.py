"""The one route to the named q-series: E_{2k}, E*_{2k}, delta, theta3, C, D,
the divisor-sum series sum sigma_s(n) q^n and sum sigma*_s(n) q^n, and the
powers of any of them and their products.

A ``SeriesCatalog`` names, builds and memoizes every series at one order.
``by_name`` resolves every export name, ``power`` builds each power by one
product from the powers already memoized, and ``monomial`` each product of
powers by one product more.  Each series is built once, from its defining
expansion.  The divisor-sum series are sieved in integers
by ``arith.divisor_sum_table`` and keep its n = 0 convention values as their
constant terms, so the convolution identities hold from n = 0; the per-n
``arith`` functions are left as the oracles the tests hold them to.  Each
Eisenstein series is one of the divisor-sum series over its n = 0
convention value ``arith.divisor_sum_zero``, E = S/S(0) and E* = S*/S*(0),
so its constant term is 1.  C is 24 times the sieved odd divisor sums.  The
discriminant, C and D carry built-in cross-checks between independent
routes, each a series equation that ``_cross_check`` compares, raising
``CrossCheckMismatch`` at the first difference; none of them divides.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

from . import arith
from .qseries import QSeries, first_difference, int_mul
from .scalars import bernoulli  # noqa: F401  (perfbench's tracer wraps it here)

__all__ = [
    "CrossCheckMismatch",
    "SeriesCatalog",
]


class CrossCheckMismatch(ArithmeticError):
    """Two independent routes to the same series disagreed."""

    def __init__(self, name: str, exponent: int, route_a: str, route_b: str,
                 lhs: Fraction, rhs: Fraction):
        self.name = name
        self.exponent = exponent
        self.routes = (route_a, route_b)
        self.values = (lhs, rhs)
        super().__init__(
            f"{name}: routes {route_a!r} and {route_b!r} disagree at q^{exponent}: "
            f"{lhs} != {rhs}"
        )


def _cross_check(name: str, a: QSeries, b: QSeries, route_a: str, route_b: str) -> None:
    """Raise ``CrossCheckMismatch`` at the first difference of the two routes."""
    diff = first_difference(a, b)
    if diff is not None:
        raise CrossCheckMismatch(name, diff[0], route_a, route_b, diff[1], diff[2])


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
        """The discriminant cusp form, built three ways and cross-checked.

        Routes: the eta product q prod (1-q^n)^24, the level-1 expression
        (E_4^3 - E_6^2)/1728, and the level-2 expression -(E*_4^3 - E*_6^2)/64.
        The integer eta product is kept, so the denominator is 1.  The
        powers of the two polynomial routes are not memoized: nothing reads
        them after the cross-check.
        """

        def build() -> QSeries:
            eta_route = QSeries._make([0] + _eta24(self.order)[: self.order])
            e4, e6 = self.level1(2), self.level1(3)
            level1_route = (e4 * e4 * e4 - e6 * e6).scale(Fraction(1, 1728))
            e4, e6 = self.level2(2), self.level2(3)
            level2_route = (e4 * e4 * e4 - e6 * e6).scale(Fraction(-1, 64))
            for other, label in ((level1_route, "(E4^3-E6^2)/1728"),
                                 (level2_route, "-(E4*^3-E6*^2)/64")):
                _cross_check("delta", eta_route, other, "eta product", label)
            return eta_route

        return self._memo("delta", build)

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
        1/24, and cross-checked by C E*_4 = E*_6."""

        def build() -> QSeries:
            series = self._sieved("sigma_sharp", 1).scale(24)
            _cross_check("C", series * self.level2(2), self.level2(3),
                         "(1+24*sum sharp(n) q^n)*E4*", "E6*")
            return series

        return self._memo("C", build)

    def D(self) -> QSeries:
        """The weight-4 form -(E*_4 - C^2)/64, whose coefficients count
        ordered sums of 8 triangular numbers; checked against enumeration."""

        def build() -> QSeries:
            c = self.C()
            series = (self.level2(2) - c * c).scale(Fraction(-1, 64))
            # q^1..q^51 against the enumeration, shifted by one
            count = [arith.delta8_oracle(n) for n in range(min(51, self.order))]
            _cross_check("D", series, QSeries._make([0] + count), "-(E4*-C^2)/64",
                         "triangular-number count")
            return series

        return self._memo("D", build)

    def power(self, name: str, e: int) -> QSeries:
        """The series ``by_name(name)`` to the power e >= 0, memoized.

        Each power is one product: the power e - 1 times the base when e is
        odd or the power e - 1 is memoized, and otherwise the square of the
        power e/2.  So ascending powers cost one product each, and a lone
        power e at most 2 log2(e).
        """
        if e < 0:
            raise ValueError("negative powers are not defined; invert first")
        base = self.by_name(name)  # an unknown name raises even for e = 0
        if e == 0:
            return QSeries.one(self.order)
        if e == 1:
            return base

        def build() -> QSeries:
            if e % 2 or f"{name}^{e - 1}" in self._cache:
                return self.power(name, e - 1) * base
            half = self.power(name, e // 2)
            return half * half

        return self._memo(f"{name}^{e}", build)

    def monomial(self, powers) -> QSeries:
        """The product of the powers ``power(name, e)`` over the (name, e)
        pairs, memoized.  Zero exponents are dropped; a product of several
        powers is one product past the memoized product of all but its last
        factor, so each monomial costs one product once its powers exist."""
        factors = tuple((name, e) for name, e in powers if e)
        if len(factors) < 2:
            return self.power(*factors[0]) if factors else QSeries.one(self.order)
        return self._memo(
            "*".join(f"{name}^{e}" for name, e in factors),
            lambda: self.monomial(factors[:-1]) * self.power(*factors[-1]))

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
