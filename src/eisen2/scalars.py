"""Exact scalar layer: Bernoulli numbers and the even zeta values.

Everything is a ``fractions.Fraction``, so all downstream series arithmetic
stays exact.  zeta(2k) and lambda(2k) are rational multiples of pi^(2k), and
every coefficient built from them is a ratio in which the pi powers cancel,
so only the rational parts zeta(2k)/pi^(2k) and lambda(2k)/pi^(2k) are kept.
The Bernoulli numbers and those parts are pure values, memoized per index;
the coefficient functions built from them are not, and each builds one
``Fraction`` from the memoized values' numerators and denominators.
``exact`` is the gate every layer's inputs pass: ints and Fractions only.
"""

from __future__ import annotations

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
# zeta(2k)/pi^(2k) and lambda(2k)/pi^(2k) by k: pure values, each computed once
_ZETA: dict[int, Fraction] = {}
_LAMBDA: dict[int, Fraction] = {}


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


def zeta_even(k: int) -> Fraction:
    """zeta(2k)/pi^(2k) = -(-4)^k B_{2k} / (2 (2k)!), from
    zeta(2k) = -(1/2) (2 pi i)^(2k) B_{2k} / (2k)!.  So zeta_even(1) = 1/6."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    value = _ZETA.get(k)
    if value is None:
        value = _ZETA[k] = Fraction(-(-4) ** k, 2) * bernoulli(2 * k) / factorial(2 * k)
    return value


def lambda_even(k: int) -> Fraction:
    """lambda(2k)/pi^(2k) for the odd-index analog lambda(2k) =
    (1 - 2^(-2k)) zeta(2k).  So lambda_even(1) = 1/8."""
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


def rs_coefficient(m: int, k: int) -> Fraction:
    """(m-1) * zeta(2k) * zeta(2m-2k) / (2 * pi^2 * zeta(2m-2)) as a Fraction;
    the pi powers above and below both equal 2m.  One ``Fraction`` from the
    three memoized values' numerators and denominators, normalized once."""
    a, b, c = zeta_even(k), zeta_even(m - k), zeta_even(m - 1)
    return Fraction((m - 1) * a.numerator * b.numerator * c.denominator,
                    2 * a.denominator * b.denominator * c.numerator)


def ks_coefficient(m: int, k: int) -> Fraction:
    """(2m-2) * lambda(2k) * lambda(2m-2k) / (pi^2 * lambda(2m-2)), one
    ``Fraction`` normalized once, as ``rs_coefficient``."""
    a, b, c = lambda_even(k), lambda_even(m - k), lambda_even(m - 1)
    return Fraction((2 * m - 2) * a.numerator * b.numerator * c.denominator,
                    a.denominator * b.denominator * c.numerator)


def ks_alpha(m: int) -> Fraction:
    """(2m-2)/(pi^2 lambda(2m-2)) * (2m-1)/2 * lambda(2m), a positive rational:
    the factor multiplying the weight-2m series when the level-2 differential
    recursion is solved for it.  One ``Fraction``, as ``rs_coefficient``."""
    a, c = lambda_even(m), lambda_even(m - 1)
    return Fraction((2 * m - 2) * (2 * m - 1) * a.numerator * c.denominator,
                    2 * a.denominator * c.numerator)
