"""Exact scalar layer: Bernoulli numbers and the even zeta values.

Everything is a ``fractions.Fraction`` or a rational multiple of an even
power of pi (``PiScaled``), so all downstream series arithmetic stays exact.
The Bernoulli numbers, zeta(2k) and lambda(2k) are pure values, memoized per
index; the coefficient functions built from them are not.  ``exact`` is the
gate every layer's inputs pass: ints and Fractions only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

__all__ = [
    "exact",
    "PiScaled",
    "bernoulli",
    "zeta_even",
    "lambda_even",
    "check_scalar_recursion",
    "rs_coefficient",
    "ks_coefficient",
    "ks_alpha",
]

_BERNOULLI: list[Fraction] = [Fraction(1)]
# each B_m is computed from all before it, so the list is extended under one
# lock; an entry below the length is final and read without it
_BERNOULLI_LOCK = threading.Lock()
# zeta(2k) and lambda(2k) by k: pure values, each computed once
_ZETA: dict[int, PiScaled] = {}
_LAMBDA: dict[int, PiScaled] = {}


def exact(value):
    """The value itself if it is an int or a Fraction, else TypeError: a float
    0.1 would enter exact arithmetic as 3602879701896397/36028797018963968."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {value!r}")
    return value


def bernoulli(n: int) -> Fraction:
    """Signed Bernoulli number B_n of x/(e^x - 1), so B_1 = -1/2.

    Computed by the Pascal-triangle recursion
    sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1, in integers: the sum runs
    over the nonzero B_j only, as numerators over the lcm of their
    denominators, and each new B_m is one ``Fraction``.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n >= len(_BERNOULLI):
        with _BERNOULLI_LOCK:
            den = lcm(*(b.denominator for b in _BERNOULLI))
            terms = [(j, b.numerator * (den // b.denominator))
                     for j, b in enumerate(_BERNOULLI) if b]
            for m in range(len(_BERNOULLI), n + 1):
                b = Fraction(-sum(comb(m + 1, j) * x for j, x in terms), (m + 1) * den)
                _BERNOULLI.append(b)
                if b:
                    if den % b.denominator:
                        grow = lcm(den, b.denominator) // den
                        den *= grow
                        terms = [(j, x * grow) for j, x in terms]
                    terms.append((m, b.numerator * (den // b.denominator)))
    return _BERNOULLI[n]


@dataclass(frozen=True)
class PiScaled:
    """An exact value coeff * pi**pi_power with even nonnegative pi_power.

    A zero coefficient is normalized to pi_power 0 so equality is value
    equality.
    """

    coeff: Fraction
    pi_power: int

    def __post_init__(self) -> None:
        if type(self.coeff) is not Fraction:
            object.__setattr__(self, "coeff", Fraction(exact(self.coeff)))
        if self.pi_power < 0 or self.pi_power % 2 != 0:
            raise ValueError("pi_power must be even and nonnegative")
        if self.coeff == 0 and self.pi_power != 0:
            object.__setattr__(self, "pi_power", 0)

    def __add__(self, other: "PiScaled") -> "PiScaled":
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError("cannot add values with different pi powers")
        return PiScaled(self.coeff + other.coeff, self.pi_power)

    def __mul__(self, other):
        if isinstance(other, PiScaled):
            return PiScaled(self.coeff * other.coeff, self.pi_power + other.pi_power)
        return PiScaled(self.coeff * exact(other), self.pi_power)

    __rmul__ = __mul__

    def ratio(self, other: "PiScaled") -> Fraction:
        """Exact quotient self/other, defined when the pi powers agree."""
        if other.coeff == 0:
            raise ZeroDivisionError("division by zero PiScaled value")
        if self.coeff == 0:
            return Fraction(0)
        if self.pi_power != other.pi_power:
            raise ValueError("ratio requires equal pi powers")
        return self.coeff / other.coeff


def zeta_even(k: int) -> PiScaled:
    """zeta(2k) = -(1/2) * (2*pi*i)^(2k) / (2k)! * B_{2k}, as coeff * pi^(2k).

    The factor i^(2k) = (-1)^k is folded into the rational coefficient.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    value = _ZETA.get(k)
    if value is None:
        sign = -1 if k % 2 else 1
        coeff = Fraction(-sign * 4**k, 2) * bernoulli(2 * k) / factorial(2 * k)
        value = _ZETA[k] = PiScaled(coeff, 2 * k)
    return value


def lambda_even(k: int) -> PiScaled:
    """The odd-index analog (1 - 2^(-2k)) * zeta(2k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    value = _LAMBDA.get(k)
    if value is None:
        value = _LAMBDA[k] = zeta_even(k) * (1 - Fraction(1, 4**k))
    return value


def check_scalar_recursion(kind: str, m: int) -> bool:
    """Verify the quadratic recursion for zeta(2m) or lambda(2m) exactly.

    zeta(2m)   = 2/(2m+1) * sum_{k=1}^{m-1} zeta(2k) zeta(2m-2k)
    lambda(2m) = 2/(2m-1) * sum_{k=1}^{m-1} lambda(2k) lambda(2m-2k)
    """
    if m < 2:
        raise ValueError("recursion holds for m >= 2")
    if kind == "zeta":
        f, denom = zeta_even, 2 * m + 1
    elif kind == "lambda":
        f, denom = lambda_even, 2 * m - 1
    else:
        raise ValueError(f"unknown recursion kind {kind!r}")
    total = PiScaled(Fraction(0), 0)
    for k in range(1, m):
        total = total + f(k) * f(m - k)
    return f(m) == total * Fraction(2, denom)


def rs_coefficient(m: int, k: int) -> Fraction:
    """(m-1) * zeta(2k) * zeta(2m-2k) / (2 * pi^2 * zeta(2m-2)) as a Fraction.

    The pi powers of numerator and denominator both equal 2m, so the ratio
    is rational.
    """
    num = zeta_even(k) * zeta_even(m - k) * Fraction(m - 1, 2)
    den = zeta_even(m - 1) * PiScaled(Fraction(1), 2)
    return num.ratio(den)


def ks_coefficient(m: int, k: int) -> Fraction:
    """(2m-2) * lambda(2k) * lambda(2m-2k) / (pi^2 * lambda(2m-2))."""
    num = lambda_even(k) * lambda_even(m - k) * (2 * m - 2)
    den = lambda_even(m - 1) * PiScaled(Fraction(1), 2)
    return num.ratio(den)


def ks_alpha(m: int) -> Fraction:
    """(2m-2)/(pi^2 lambda(2m-2)) * (2m-1)/2 * lambda(2m), a positive rational.

    This is the factor multiplying the weight-2m series when the level-2
    differential recursion is solved for it.
    """
    num = lambda_even(m) * Fraction((2 * m - 2) * (2 * m - 1), 2)
    den = lambda_even(m - 1) * PiScaled(Fraction(1), 2)
    return num.ratio(den)
