"""Exact scalar layer: Bernoulli numbers and the even zeta values.

Everything is a ``fractions.Fraction``, so all downstream series arithmetic
stays exact.  zeta(2k) and lambda(2k) are rational multiples of pi^(2k), and
``zeta_even`` and ``lambda_even`` give the rational parts.  The
differential-equation weights are ratios in which the pi powers cancel, each
one ``Fraction`` of Bernoulli numbers and factorials; the Bernoulli numbers
are the one memo.  ``exact`` is the gate every layer's inputs pass: ints and
Fractions only.
"""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import comb, factorial, lcm

__all__ = [
    "exact",
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
    if n > sys.maxsize:
        # the memo would grow one entry at a time until memory runs out
        raise OverflowError(f"Bernoulli index {n} is past the platform's index range")
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


def zeta_even(k: int) -> Fraction:
    """zeta(2k)/pi^(2k) = -(-4)^k B_{2k} / (2 (2k)!), from
    zeta(2k) = -(1/2) (2 pi i)^(2k) B_{2k} / (2k)!.  So zeta_even(1) = 1/6."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Fraction(-(-4) ** k, 2) * bernoulli(2 * k) / factorial(2 * k)


def lambda_even(k: int) -> Fraction:
    """lambda(2k)/pi^(2k) for the odd-index analog lambda(2k) =
    (1 - 2^(-2k)) zeta(2k).  So lambda_even(1) = 1/8."""
    return zeta_even(k) * (1 - Fraction(1, 4**k))


def check_scalar_recursion(kind: str, m: int) -> bool:
    """Verify the quadratic recursion for zeta(2m) or lambda(2m) exactly.

    zeta(2m)   = 2/(2m+1) * sum_{k=1}^{m-1} zeta(2k) zeta(2m-2k)
    lambda(2m) = 2/(2m-1) * sum_{k=1}^{m-1} lambda(2k) lambda(2m-2k)

    Both sides are pi^(2m) times a Fraction; the Fractions are compared.
    """
    if m < 2:
        raise ValueError("recursion holds for m >= 2")
    if kind == "zeta":
        f, denom = zeta_even, 2 * m + 1
    elif kind == "lambda":
        f, denom = lambda_even, 2 * m - 1
    else:
        raise ValueError(f"unknown recursion kind {kind!r}")
    return f(m) == Fraction(2, denom) * sum(f(k) * f(m - k) for k in range(1, m))


def _rs_terms(m: int, k: int) -> tuple[int, int]:
    """``rs_coefficient``'s numerator and denominator, unreduced; a negative
    Bernoulli index raises ``ValueError`` before either is formed."""
    a, b, c = bernoulli(2 * k), bernoulli(2 * m - 2 * k), bernoulli(2 * m - 2)
    return ((m - 1) * factorial(2 * m - 2) * a.numerator * b.numerator * c.denominator,
            factorial(2 * k) * factorial(2 * m - 2 * k) * a.denominator * b.denominator
            * c.numerator)


def rs_coefficient(m: int, k: int) -> Fraction:
    """(m-1) * zeta(2k) * zeta(2m-2k) / (2 * pi^2 * zeta(2m-2)), the pi
    powers cancelling, as (m-1) (2m-2)! B_{2k} B_{2m-2k} / ((2k)! (2m-2k)!
    B_{2m-2}): one ``Fraction`` normalized once."""
    return Fraction(*_rs_terms(m, k))


def ks_coefficient(m: int, k: int) -> Fraction:
    """(2m-2) * lambda(2k) * lambda(2m-2k) / (pi^2 * lambda(2m-2)), by
    lambda(2j) = (1 - 4^(-j)) zeta(2j) the ``rs_coefficient`` times
    (4^k - 1) (4^(m-k) - 1) / (4^(m-1) - 1): one ``Fraction``."""
    num, den = _rs_terms(m, k)
    return Fraction(num * (4**k - 1) * (4 ** (m - k) - 1), den * (4 ** (m - 1) - 1))


def ks_alpha(m: int) -> Fraction:
    """(2m-2)/(pi^2 lambda(2m-2)) * (2m-1)/2 * lambda(2m), a positive rational:
    the factor multiplying the weight-2m series when the level-2 differential
    recursion is solved for it, as one ``Fraction``
    -(m-1) (4^m - 1) B_{2m} / (2m (4^(m-1) - 1) B_{2m-2}).  Nothing in the
    package calls it; it is kept because perfbench's tracer wraps it."""
    a, c = bernoulli(2 * m), bernoulli(2 * m - 2)
    return Fraction(-(m - 1) * (4**m - 1) * a.numerator * c.denominator,
                    2 * m * (4 ** (m - 1) - 1) * a.denominator * c.numerator)
