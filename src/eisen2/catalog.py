"""Constructors for the named q-series: E_{2k}, E*_{2k}, delta, theta3, C, D,
and the divisor-sum series sum sigma_s(n) q^n and sum sigma*_s(n) q^n.

Each series is built once, from its defining expansion.  The divisor-sum
series keep the n = 0 convention values of ``arith`` as their constant
terms, so the convolution identities hold from n = 0, and each Eisenstein
series is one of them times its normalizing constant: E = c S at level 1
and E* = c S* at level 2, whose constant term c S(0) is 1.  C is built from
the odd divisor sums.  The discriminant, C and D carry built-in
cross-checks between independent construction routes, and none of them
divides.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import arith
from .qseries import QSeries, first_difference, int_mul
from .scalars import bernoulli

__all__ = [
    "CrossCheckMismatch",
    "SeriesCatalog",
    "level1_constant",
    "level2_constant",
    "eisenstein_level1",
    "eisenstein_level2",
    "discriminant",
    "theta3",
    "series_C",
    "series_D",
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


def level1_constant(k: int) -> Fraction:
    """Coefficient -4k/B_{2k} multiplying sum sigma_{2k-1}(n) q^n."""
    return Fraction(-4 * k) / bernoulli(2 * k)


def level2_constant(k: int) -> Fraction:
    """Coefficient -(1/(1-2^(2k))) * 4k/B_{2k} of the signed divisor sums."""
    return Fraction(-1, 1 - 2 ** (2 * k)) * Fraction(4 * k) / bernoulli(2 * k)


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


class SeriesCatalog:
    """Memoized named series, their powers and E*_2m polynomials at one order."""

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

    def sigma(self, s: int) -> QSeries:
        """sum sigma_s(n) q^n for n = 0..order, with the n = 0 convention."""
        return self._memo(f"sigma{s}", lambda: QSeries(
            [arith.sigma(s, n) for n in range(self.order + 1)]))

    def sigma_star(self, s: int) -> QSeries:
        """sum sigma*_s(n) q^n for n = 0..order, with the n = 0 convention."""
        return self._memo(f"sigma{s}star", lambda: QSeries(
            [arith.sigma_star(s, n) for n in range(self.order + 1)]))

    def level1(self, k: int) -> QSeries:
        """E_{2k} = level1_constant(k) sum sigma_{2k-1}(n) q^n; E_0 = 1."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k == 0:
            return QSeries.one(self.order)
        return self._memo(f"E{2 * k}",
                          lambda: self.sigma(2 * k - 1).scale(level1_constant(k)))

    def level2(self, k: int) -> QSeries:
        """E*_{2k} = level2_constant(k) sum sigma*_{2k-1}(n) q^n; E*_0 = 1."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k == 0:
            return QSeries.one(self.order)
        return self._memo(f"E{2 * k}star",
                          lambda: self.sigma_star(2 * k - 1).scale(level2_constant(k)))

    def delta(self) -> QSeries:
        """The discriminant cusp form, built three ways and cross-checked.

        Routes: the eta product q prod (1-q^n)^24, the level-1 expression
        (E_4^3 - E_6^2)/1728, and the level-2 expression -(E*_4^3 - E*_6^2)/64.
        """

        def build() -> QSeries:
            eta_route = QSeries([0] + _eta24(self.order)[: self.order])
            e4, e6 = self.level1(2), self.level1(3)
            level1_route = (e4**3 - e6**2).scale(Fraction(1, 1728))
            b, bstar6 = self.level2(2), self.level2(3)
            level2_route = (b**3 - bstar6**2).scale(Fraction(-1, 64))
            for other, label in ((level1_route, "(E4^3-E6^2)/1728"),
                                 (level2_route, "-(E4*^3-E6*^2)/64")):
                diff = first_difference(eta_route, other)
                if diff is not None:
                    raise CrossCheckMismatch("delta", diff[0], "eta product",
                                             label, diff[1], diff[2])
            return eta_route

        return self._memo("delta", build)

    def theta3(self) -> QSeries:
        """Square-counting theta series: 1 + 2 sum_{m>=1} q^(m^2)."""

        def build() -> QSeries:
            terms = {0: 1}
            for m in range(1, isqrt(self.order) + 1):
                terms[m * m] = 2
            return QSeries.from_terms(terms, self.order)

        return self._memo("theta3", build)

    def C(self) -> QSeries:
        """The weight-2 form C = E*_6/E*_4 = 1 + 24 sum sigma#(n) q^n, built
        from the odd divisor sums and cross-checked by C E*_4 = E*_6."""

        def build() -> QSeries:
            series = QSeries([1] + [24 * arith.sigma_sharp(n)
                                    for n in range(1, self.order + 1)])
            diff = first_difference(series * self.level2(2), self.level2(3))
            if diff is not None:
                raise CrossCheckMismatch("C", diff[0], "(1+24*sum sharp(n) q^n)*E4*",
                                         "E6*", diff[1], diff[2])
            return series

        return self._memo("C", build)

    def D(self) -> QSeries:
        """The weight-4 form -(E*_4 - C^2)/64, whose coefficients count
        ordered sums of 8 triangular numbers; checked against enumeration."""

        def build() -> QSeries:
            c = self.C()
            series = (self.level2(2) - c * c).scale(Fraction(-1, 64))
            for n in range(min(50, self.order - 1) + 1):
                expected = Fraction(arith.delta8_oracle(n))
                if series.coeffs[n + 1] != expected:
                    raise CrossCheckMismatch("D", n + 1, "-(E4*-C^2)/64",
                                             "triangular-number count",
                                             series.coeffs[n + 1], expected)
            return series

        return self._memo("D", build)

    def power(self, name: str, e: int) -> QSeries:
        """The series ``by_name(name)`` to the power e >= 0.

        Powers are built upward one multiplication at a time from the highest
        one already memoized, and each is memoized on the way.
        """
        if e < 0:
            raise ValueError("negative powers are not defined; invert first")
        if e == 0:
            return QSeries.one(self.order)
        base = self.by_name(name)
        k = e
        while k > 1 and f"{name}^{k}" not in self._cache:
            k -= 1
        series = self._cache[f"{name}^{k}"] if k > 1 else base
        for k in range(k + 1, e + 1):
            series = self._cache[f"{name}^{k}"] = series * base
        return series

    def by_name(self, name: str) -> QSeries:
        """Resolve a series by its export name, e.g. "E4", "E10star", "D"."""
        if name == "delta":
            return self.delta()
        if name == "theta3":
            return self.theta3()
        if name == "C":
            return self.C()
        if name == "D":
            return self.D()
        if name.startswith("E"):
            body = name[1:]
            star = body.endswith("star")
            if star:
                body = body[: -len("star")]
            if body.isdigit() and int(body) % 2 == 0:
                k = int(body) // 2
                return self.level2(k) if star else self.level1(k)
        raise KeyError(f"unknown series name {name!r}")


# module-level convenience wrappers: each call builds a fresh catalog


def eisenstein_level1(k: int, order: int) -> QSeries:
    return SeriesCatalog(order).level1(k)


def eisenstein_level2(k: int, order: int) -> QSeries:
    return SeriesCatalog(order).level2(k)


def discriminant(order: int) -> QSeries:
    return SeriesCatalog(order).delta()


def theta3(order: int) -> QSeries:
    return SeriesCatalog(order).theta3()


def series_C(order: int) -> QSeries:
    return SeriesCatalog(order).C()


def series_D(order: int) -> QSeries:
    return SeriesCatalog(order).D()
