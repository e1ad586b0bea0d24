"""Truncated formal power series in q over exact rationals.

A ``QSeries`` keeps coefficients c_0..c_N for a fixed truncation order N as
a tuple of integer numerators over one positive common denominator, reduced
so that the denominator and all numerators have no common factor.  Every
operation works on those integers.  ``numerators`` and ``denominator`` give
them read-only, for scans that stay in integers.  ``coeffs``, ``coefficient``
and indexing give the coefficients as ``Fraction`` values, built on each call.

Series multiplication has one kernel, Kronecker substitution (Schoenhage
1982; Harvey, J. Symbolic Comput. 2009): the numerators of each operand are
packed as fixed-width slots of one big integer, the two integers are
multiplied once, and the low slots of the product are read back as signed
coefficients.  Powers use it by repeated squaring and inversion by a Newton
iteration that doubles the precision at each step.

Every binary operation truncates to the smaller order of its operands, so a
result never claims more precision than was computed.  Equality is the
absence of a ``first_difference`` on the common range.  Inputs are ints and
Fractions only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .scalars import exact

__all__ = [
    "QSeries",
    "ZeroConstantTerm",
    "int_mul",
    "qs_det",
    "first_difference",
    "rational_str",
]

Scalar = Union[int, Fraction]


class ZeroConstantTerm(ZeroDivisionError):
    """Raised when inverting a series whose constant term vanishes."""


def rational_str(x: Fraction) -> str:
    """Render an exact rational as "p/q", or just "p" when q = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _pack(a: Sequence[int], size: int) -> int:
    """sum a_i 2^(8 size i), from slots of ``size`` bytes.

    The positive and the negative parts are packed separately, so every slot
    holds a magnitude; the caller guarantees |a_i| < 2^(8 size).
    """
    zero = bytes(size)
    packed = int.from_bytes(
        b"".join(x.to_bytes(size, "little") if x > 0 else zero for x in a), "little"
    )
    if min(a) < 0:
        packed -= int.from_bytes(
            b"".join((-x).to_bytes(size, "little") if x < 0 else zero for x in a),
            "little",
        )
    return packed


def int_mul(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    """Coefficients 0..order of the product of two integer polynomials.

    Kronecker substitution: evaluate both at q = 2^w by packing, multiply
    the two big integers once, and read the low order+1 slots of the product
    back with a signed carry.  The slot width w covers the largest possible
    coefficient of the product plus a sign bit, so no slot overflows.
    """
    square = a is b
    a = a[: order + 1]
    b = a if square else b[: order + 1]
    slots = order + 1
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + slots.bit_length() + 1)
    size = (bits + 7) // 8
    packed = _pack(a, size)
    product = packed * (packed if square else _pack(b, size))
    # the product mod 2^(w slots), whatever its sign, holds the wanted slots
    raw = (product & ((1 << 8 * size * slots) - 1)).to_bytes(size * slots, "little")
    half = 1 << (8 * size - 1)
    full = half << 1
    out = []
    carry = 0
    for i in range(0, size * slots, size):
        c = int.from_bytes(raw[i : i + size], "little") + carry
        carry = c >= half
        out.append(c - full if carry else c)
    return out


def _over_lcm(values: Iterable[Scalar]) -> tuple[tuple[int, ...], int]:
    """Exact values as integer numerators over one positive denominator, the
    lcm of their reduced denominators, which leaves no common factor."""
    # exact raises for anything that is not an int or a Fraction
    values = [c if isinstance(c, (int, Fraction)) else exact(c) for c in values]
    den = lcm(*(c.denominator for c in values))
    return tuple(c.numerator * (den // c.denominator) for c in values), den


def _reduce(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """Divide numerators and denominator by their common factor; no
    numerators get the denominator 1."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple(x // g for x in nums), den // g
    return tuple(nums), den


class QSeries:
    """Power series sum c_n q^n truncated at a fixed order."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Scalar]):
        self._nums, self._den = _over_lcm(coeffs)
        if not self._nums:
            raise ValueError("a series needs at least the constant coefficient")

    @classmethod
    def _make(cls, nums: Sequence[int], den: int = 1) -> "QSeries":
        """The series nums_n / den, reduced."""
        if not nums:
            raise ValueError("a series needs at least the constant coefficient")
        series = object.__new__(cls)
        series._nums, series._den = _reduce(nums, den)
        return series

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls._make((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls._make((1,) + (0,) * order)

    @classmethod
    def from_terms(cls, terms: dict[int, Scalar], order: int) -> "QSeries":
        """Series with the given sparse exponent -> coefficient terms."""
        coeffs: list[Scalar] = [0] * (order + 1)
        for n, c in terms.items():
            if 0 <= n <= order:
                coeffs[n] = c
        return cls(coeffs)

    # -- basic protocol ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced ``Fraction`` values."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._nums)

    @property
    def numerators(self) -> tuple[int, ...]:
        """The integer numerators: c_n = numerators[n] / denominator."""
        return self._nums

    @property
    def denominator(self) -> int:
        """The one positive denominator, prime to the numerators taken
        together; it is 1 exactly when every coefficient is an integer."""
        return self._den

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return Fraction(self._nums[n], self._den)

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficient(n)

    def truncate(self, order: int) -> "QSeries":
        if order >= self.order:
            return self
        return QSeries._make(self._nums[: order + 1], self._den)

    def __eq__(self, other: object) -> bool:
        # comparable only on the common range of the two truncations
        if not isinstance(other, QSeries):
            return NotImplemented
        return first_difference(self, other) is None

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(rational_str(Fraction(x, self._den)) for x in self._nums[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"QSeries(order={self.order}; {shown}{tail})"

    def to_strings(self) -> list[str]:
        """Coefficients as exact-rational strings, the export wire format."""
        return [rational_str(c) for c in self.coeffs]

    # -- ring operations ---------------------------------------------------

    def _common(self, other: "QSeries"):
        """Both numerator tuples on the common range over one denominator."""
        n = min(self.order, other.order) + 1
        a, b = self._nums[:n], other._nums[:n]
        da, db = self._den, other._den
        if da == db:
            return a, b, da
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return [x * fa for x in a], [y * fb for y in b], den

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, den = self._common(other)
        return QSeries._make([x + y for x, y in zip(a, b)], den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b, den = self._common(other)
        return QSeries._make([x - y for x, y in zip(a, b)], den)

    def __neg__(self) -> "QSeries":
        return QSeries._make([-x for x in self._nums], self._den)

    def scale(self, c: Scalar) -> "QSeries":
        c = Fraction(exact(c))
        p = c.numerator
        return QSeries._make([p * x for x in self._nums], c.denominator * self._den)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = min(self.order, other.order)
            return QSeries._make(int_mul(self._nums, other._nums, n),
                                 self._den * other._den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            raise ValueError("negative powers are not defined; invert first")
        result = QSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- the named operators -----------------------------------------------

    def theta(self) -> "QSeries":
        """The operator q d/dq: c_n -> n c_n."""
        return QSeries._make([n * x for n, x in enumerate(self._nums)], self._den)

    def invert(self) -> "QSeries":
        """Multiplicative inverse up to the truncation order.

        Newton iteration g <- g (2 - a g) on the integer numerators a, which
        doubles the number of correct coefficients at each step, starting
        from g = 1/a_0.  The iterate is kept as numerators over one
        denominator.
        """
        a = self._nums
        if a[0] == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        g, g_den = ((1,), a[0]) if a[0] > 0 else ((-1,), -a[0])
        done = 1
        while done < len(a):
            done = min(2 * done, len(a))
            # (2 - a g) over the denominator of g
            err = [-x for x in int_mul(a, g, done - 1)]
            err[0] += 2 * g_den
            g, g_den = _reduce(int_mul(g, err, done - 1), g_den * g_den)
        # 1/(a/den) = den * (1/a)
        return QSeries._make([self._den * x for x in g], g_den)

    def neg_q(self) -> "QSeries":
        """Substitute q -> -q: c_n -> (-1)^n c_n."""
        return QSeries._make([-x if n % 2 else x for n, x in enumerate(self._nums)],
                             self._den)

    def dilate(self, k: int) -> "QSeries":
        """Substitute q -> q^k: c_n moves to exponent k n, truncated at the order."""
        if k < 1:
            raise ValueError("dilation factor must be a positive integer")
        nums = [0] * len(self._nums)
        nums[::k] = self._nums[: self.order // k + 1]
        return QSeries._make(nums, self._den)


def qs_det(matrix: Sequence[Sequence[QSeries]]) -> QSeries:
    """Determinant of a square matrix of series, by cofactor expansion.

    Intended for the small (n <= 3) matrices of the determinant identities;
    the result is truncated to the smallest order among the entries.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a nonempty square matrix")
    if n == 1:
        return matrix[0][0]
    order = min(entry.order for row in matrix for entry in row)
    total = QSeries.zero(order)
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in matrix[1:]]
        term = matrix[0][j] * qs_det(minor)
        total = total - term if j % 2 else total + term
    return total


def first_difference(
    a: QSeries, b: QSeries
) -> Optional[tuple[int, Fraction, Fraction]]:
    """First exponent where two series disagree on their common range.

    Returns (n, a_n, b_n), or None when they agree everywhere compared.
    """
    n = min(a.order, b.order) + 1
    da, db = a._den, b._den
    for i, (x, y) in enumerate(zip(a._nums[:n], b._nums[:n])):
        if x * db != y * da:
            return i, Fraction(x, da), Fraction(y, db)
    return None
