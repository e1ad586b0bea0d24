"""Divisor-sum functions, the tau function, and lattice-count oracles.

The divisor sums carry the n = 0 boundary conventions that make the
convolution identities hold at every index; ``divisor_sum_zero`` defines
them.  ``divisor_sum_table`` sieves a whole range of divisor sums at once in
integers, and the catalog builds every divisor-sum series from it: the
series keep the conventions, and its Eisenstein series are those series
scaled by the reciprocals of the conventions, so their constant terms come
out as 1.  The per-n functions
``divisors``, ``sigma``, ``sigma_star`` and ``sigma_sharp`` work by trial
division; they are the independent oracles the sieve is tested against, and
JACOBI reads divisor lists from ``divisors``.  A table of values is a
series: ``tau_table`` and ``r_count`` return the catalog's ``QSeries`` of
tau(n) and r_s(n), whose coefficient n is the value at n; no check uses
them.  The enumeration oracles are deliberately independent of all series
code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .qseries import QSeries
from .scalars import bernoulli

__all__ = [
    "divisors",
    "sigma",
    "sigma_star",
    "sigma_sharp",
    "divisor_sum_zero",
    "divisor_sum_table",
    "tau_table",
    "r_count",
    "r_oracle",
    "delta8_oracle",
    "primes_up_to",
]


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError("divisors are defined for n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def sigma(s: int, n: int) -> Fraction:
    """Divisor power sum sigma_s(n) for odd s = 2k-1.

    The boundary value sigma_s(0) = -B_{2k}/(4k) absorbs constant terms in
    the convolution identities.
    """
    if s < 1 or s % 2 == 0:
        raise ValueError("s must be an odd positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        k = (s + 1) // 2
        return -bernoulli(2 * k) / (4 * k)
    return Fraction(sum(d**s for d in divisors(n)))


def sigma_star(s: int, n: int) -> Fraction:
    """Signed divisor sum -sum_{d|n} (-1)^d d^s for odd s = 2k-1.

    Odd divisors count positively, even divisors negatively.  The boundary
    value at n = 0 is the reciprocal of -(1/(1-2^(2k))) * 4k/B_{2k}.
    """
    if s < 1 or s % 2 == 0:
        raise ValueError("s must be an odd positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        k = (s + 1) // 2
        norm = Fraction(-1, 1 - 2 ** (2 * k)) * Fraction(4 * k) / bernoulli(2 * k)
        return 1 / norm
    return Fraction(sum(d**s if d % 2 else -(d**s) for d in divisors(n)))


def sigma_sharp(n: int) -> int:
    """Sum of the odd divisors of n >= 1."""
    return sum(d for d in divisors(n) if d % 2)


# the sign of an even divisor's term in each sieved divisor sum
_EVEN_SIGN = {"sigma": 1, "sigma_star": -1, "sigma_sharp": 0}


def divisor_sum_zero(kind: str, s: int) -> Fraction:
    """The n = 0 convention of a ``divisor_sum_table`` kind: (1 - c 2^s)
    sigma_s(0), with sigma_s(0) = -B_{s+1}/(2s+2) and c = 0, 2, 1 for sigma,
    sigma_star and sigma_sharp, so the dilation identities
    sigma*_s(n) = sigma_s(n) - 2^(s+1) sigma_s(n/2) and
    sigma#_s(n) = sigma_s(n) - 2^s sigma_s(n/2) hold at n = 0 too.  Its
    reciprocal normalizes the Eisenstein series to constant term 1."""
    if kind not in _EVEN_SIGN:
        raise ValueError(f"unknown divisor-sum kind {kind!r}")
    if s < 1 or s % 2 == 0:
        raise ValueError("s must be an odd positive integer")
    return (1 - (1 - _EVEN_SIGN[kind]) * 2**s) * -bernoulli(s + 1) / (2 * s + 2)


def divisor_sum_table(kind: str, s: int, N: int) -> list:
    """The divisor sums f(0), ..., f(N) of one kind, by a sieve over multiples.

    The kinds are "sigma" (sigma_s), "sigma_star" (sigma*_s, even divisors
    negative) and "sigma_sharp" (the odd divisors only, so s = 1 gives
    ``sigma_sharp``), for odd s >= 1.  Each term +-d^s is computed once and
    added to the slots of all multiples of d, about N ln N integer additions
    in all.  Slots 1..N are ints.  Slot 0 holds ``divisor_sum_zero(kind, s)``.
    """
    zero = divisor_sum_zero(kind, s)
    if N < 0:
        raise ValueError("N must be nonnegative")
    even_sign = _EVEN_SIGN[kind]
    table = [0] * (N + 1)
    for d in range(1, N + 1):
        w = d**s if d % 2 else even_sign * d**s
        if w:
            table[d::d] = [x + w for x in table[d::d]]
    table[0] = zero
    return table


def tau_table(N: int) -> QSeries:
    """The weight-12 discriminant cusp form sum tau(n) q^n on 0..N.

    It is ``SeriesCatalog(N).delta()``: the eta-product expansion of
    q prod (1-q^n)^24, cross-checked against the two Eisenstein routes, which
    raises CrossCheckMismatch on any disagreement.
    """
    from . import catalog

    return catalog.SeriesCatalog(N).delta()


def r_count(s: int, N: int) -> QSeries:
    """The representation counts sum r_s(n) q^n on 0..N: theta3^s, the
    catalog's memoized power ``SeriesCatalog(N).power("theta3", s)``."""
    if s < 1:
        raise ValueError("s must be positive")
    from . import catalog

    return catalog.SeriesCatalog(N).power("theta3", s)


@lru_cache(maxsize=None)
def r_oracle(s: int, n: int) -> int:
    """Number of integer s-tuples with m_1^2 + ... + m_s^2 = n.

    Bounded recursive enumeration over the last coordinate; independent of
    the theta-series route it validates.
    """
    if s == 0:
        return 1 if n == 0 else 0
    total = 0
    m = 0
    while m * m <= n:
        ways = r_oracle(s - 1, n - m * m)
        total += ways if m == 0 else 2 * ways
        m += 1
    return total


@lru_cache(maxsize=None)
def _triangular_tuples(slots: int, n: int) -> int:
    if slots == 0:
        return 1 if n == 0 else 0
    total = 0
    k = 0
    while (t := k * (k + 1) // 2) <= n:
        total += _triangular_tuples(slots - 1, n - t)
        k += 1
    return total


def delta8_oracle(n: int) -> int:
    """Ordered 8-tuples of triangular numbers 0, 1, 3, 6, ... summing to n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _triangular_tuples(8, n)


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= n:
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        p += 1
    return [i for i, flag in enumerate(sieve) if flag]
