"""The one route to the named q-series: E_{2k}, E*_{2k}, delta, theta3, C, D,
the divisor-sum series sum sigma_s(n) q^n and sum sigma*_s(n) q^n, and the
powers of any of them and their products.

A ``SeriesCatalog`` names, builds and memoizes every series at one order.
``by_name`` resolves every export name, and ``monomial`` builds every product
of powers of named series, each key by one product from keys already memoized;
``power`` is its one-factor case and ``product`` its names counted with
multiplicity.  So a product that several checks share is multiplied out once
per catalog.  Each series is built once, by one route, from its defining
expansion.  Catalogs of several orders may share one memo, keyed by the
series' key and then the order, as the catalogs of one ``checks.Workspace``
do: a series missing at order N that the memo holds at a higher order is
that series truncated to N.  The truncation is exact, since every
construction and every product is exact to its order and the reduced form,
numerators over one denominator, is unique; so it is what a build at N would
give.  A catalog made on its own has a memo of its own.  The divisor-sum
series are read from ``arith.divisor_sum_table``,
which computes them in integers by multiplicativity, about one integer product
per coefficient, and keep its n = 0 convention values as their constant terms,
so the convolution identities hold from n = 0; the per-n ``arith`` functions
are left as the oracles the tests hold them to.  Each Eisenstein series is one
of the divisor-sum series over its n = 0 convention value
``arith.divisor_sum_zero``, E = S/S(0) and E* = S*/S*(0), so its constant term
is 1, and so is C, the table of odd divisor sums over its own.  The
discriminant is the eta product and D is -(E*_4 - C^2)/64, one linear
combination; their other routes are equations of the registry checks DIS,
E6STAR-ABC and DELTA8.  No constructor divides.  The catalog also memoizes
each E*_2m tower level h_m that ``graded`` builds, whose series equations
T49 compares.  The catalog itself compares nothing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

from . import arith
from .qseries import QSeries, int_mul, linear_combination
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
    # every such spelling starts with E0, so no other name meets the regex
    if not name.startswith("E0"):
        return False
    m = _NAME.fullmatch(name)
    return m is not None and int(m[2]) == 0


class SeriesCatalog:
    """Memoized named series, their powers and monomials, and the E*_2m
    tower's levels at one order.  It holds no state but its order and the
    memo, so a catalog handed a shared memo is a view of it.

    It is the one protocol the equation builders read and sum series
    through, so another interpreter or a test's stand-in implements a
    closed list: ``level1``, ``level2``, ``sigma``, ``sigma_star``, ``C``,
    ``D``, ``delta``, ``theta3``, ``power``, ``product``, ``monomial``,
    ``by_name``, ``combine``, ``enumerated`` and ``order`` here, and ``*``,
    ``+``, ``-``, ``theta``, ``scale``, ``neg_q``, ``dilate``, ``hecke`` and
    ``truncate`` on the values they return."""

    def __init__(self, order: int, memo: dict | None = None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.order = order
        # key -> {order: value}, shared by every catalog handed the same memo
        self._cache: dict = {} if memo is None else memo

    def _memo(self, key, build):
        """The value under the key at this order.  On a miss, a series the
        memo holds under the key at a higher order is truncated to this one,
        which is exact: every construction is exact to its order and the
        reduced form is unique.  Else ``build()`` makes it.  A ``GradedPoly``
        is never truncated."""
        held = self._cache.get(key)
        if held is None:
            value = build()
            self._cache[key] = {self.order: value}
            return value
        value = held.get(self.order)
        if value is None:
            source = held[max(held)]
            if isinstance(source, QSeries) and source.order > self.order:
                value = source.truncate(self.order)
            else:
                value = build()
            held[self.order] = value
        return value

    def _tabulated(self, kind: str, s: int) -> QSeries:
        """The series of ``arith.divisor_sum_table(kind, s, order)``, whose
        terms past the constant are integers over its denominator."""
        table = arith.divisor_sum_table(kind, s, self.order)
        zero = Fraction(table[0])
        den = zero.denominator
        return QSeries._make([zero.numerator] + [den * x for x in table[1:]], den)

    def sigma(self, s: int) -> QSeries:
        """sum sigma_s(n) q^n for n = 0..order, with the n = 0 convention."""
        return self._memo(f"sigma{s}", lambda: self._tabulated("sigma", s))

    def sigma_star(self, s: int) -> QSeries:
        """sum sigma*_s(n) q^n for n = 0..order, with the n = 0 convention."""
        return self._memo(f"sigma{s}star", lambda: self._tabulated("sigma_star", s))

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
        """The weight-2 form C = E*_6/E*_4 = 1 + 24 sum sigma#(n) q^n: the
        table of odd divisor sums over its n = 0 convention value, as the
        Eisenstein series are built."""
        return self._memo("C", lambda: self._tabulated("sigma_sharp", 1).scale(
            1 / arith.divisor_sum_zero("sigma_sharp", 1)))

    def D(self) -> QSeries:
        """The weight-4 form -(E*_4 - C^2)/64, whose coefficient of q^(n+1)
        counts ordered sums of 8 triangular numbers equal to n."""
        return self._memo("D", lambda: self.combine(
            (Fraction(-1, 64), self.level2(2)), (Fraction(1, 64), self.power("C", 2))))

    def combine(self, *terms) -> QSeries:
        """The sum of the (weight, series) terms, ``linear_combination``'s."""
        return linear_combination(*terms)

    def enumerated(self, values) -> QSeries:
        """The series whose q^n coefficient is the integer values[n].  Any
        length but order + 1 raises ``ValueError``, so an enumerated side
        never shortens the compared range.  Not memoized: JACOBI and DELTA8
        draw theirs once per run."""
        if len(values) != self.order + 1:
            raise ValueError(f"{len(values)} values for a series of order {self.order}")
        return QSeries._make(values)

    def power(self, name: str, e: int) -> QSeries:
        """The series ``by_name(name)`` to the power e >= 0: the ``monomial``
        of the one factor (name, e).  An unknown name raises even for e = 0."""
        if e < 0:
            raise ValueError("negative powers are not defined; invert first")
        self.by_name(name)
        return self.monomial([(name, e)])

    def monomial(self, powers) -> QSeries:
        """The product of the powers of the named series over the (name, e)
        pairs, memoized: the only catalog code that multiplies two series.
        Zero exponents and the factors E0 and E0star (the series 1) are
        dropped and the rest sorted, so the key, the tuple of the remaining
        pairs, ignores their order and a factor 1; a negative exponent
        raises.  Each key is one product: a power e >= 2 is the square of
        the power e/2, or the power e - 1 times the base when e is odd, so at
        most 2 log2(e) products; several factors are the key of all but the
        last times the key of the last."""
        factors = tuple(sorted([(name, e) for name, e in powers
                                if e and not _is_one(name)]))
        # a hit needs no checks: only a key that was built is held
        held = self._cache.get(factors)
        if held is not None:
            series = held.get(self.order)
            if series is not None:
                return series
        if any(e < 0 for _, e in factors):
            raise ValueError("negative powers are not defined; invert first")
        if not factors:
            return QSeries.one(self.order)
        (name, e), *rest = factors
        if not rest and e == 1:
            return self.by_name(name)

        def build() -> QSeries:
            if rest:
                return self.monomial(factors[:-1]) * self.monomial(factors[-1:])
            if e % 2:
                return self.monomial([(name, e - 1)]) * self.by_name(name)
            half = self.monomial([(name, e // 2)])
            return half * half

        return self._memo(factors, build)

    def product(self, *names: str) -> QSeries:
        """The product of the named series, memoized: the ``monomial`` of the
        names counted with multiplicity, so its key does not depend on the
        order of the names or on how a repeat is written, and
        ``product("E4", "E4")`` is ``power("E4", 2)``."""
        return self.monomial([(name, names.count(name)) for name in set(names)])

    def by_name(self, name: str) -> QSeries:
        """Resolve a series by its export name.

        The names are delta, theta3, C, D, E<2k> and E<2k>star (the level-1
        and level-2 Eisenstein series), sigma<odd s> and sigma<odd s>star
        (the divisor-sum series) and r<s> for s >= 1 (theta3^s, whose
        coefficients count representations as sums of s squares).  Numbers
        may carry leading zeros.
        """
        # a canonical name already built is one lookup; a polynomial's key
        # holds no series
        held = self._cache.get(name)
        if held is not None:
            series = held.get(self.order)
            if isinstance(series, QSeries):
                return series
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
