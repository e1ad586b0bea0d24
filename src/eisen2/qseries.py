"""Truncated formal power series in q over exact rationals.

A ``QSeries`` keeps coefficients c_0..c_N for a fixed truncation order N as
a tuple of integer numerators over one positive common denominator, reduced
so that the denominator and all numerators have no common factor.  Every
operation works on those integers.  ``numerators`` and ``denominator`` give
them read-only, for scans that stay in integers.  ``coeffs``, ``coefficient``
and indexing give the coefficients as ``Fraction`` values, built on each call.

Series multiplication has one kernel, two-point Kronecker substitution
(Schoenhage 1982; Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 2009, variant KS2).  With w the
slot width and X = 2^(w/2), each operand's even and odd numerators are packed
as w-bit slots of two big integers, each slot holding its numerator plus half
the slot's range, and the even part plus or minus X times the odd part is the
operand's value at X or at -X.  Two products of these half-length integers
give the product polynomial h at X and at -X; their half sum holds the even
coefficients of h and their difference over 2X the odd ones, each in w-bit
slots.  Both divisions are exact, because the sum has only even and the
difference only odd powers of X, and each slot, offset by half its range, is
read back as one unsigned value minus that half.  ``int_mul`` is the only
code that packs or unpacks integers.  Powers use it by repeated squaring and
inversion by a Newton iteration that doubles the precision at each step.

Linear algebra has one kernel too: ``linear_combination`` puts a weighted
sum of series over one denominator, starts the total from the first term of
nonzero weight, adds each later term in one integer pass and reduces once.  Sums, differences, negation and ``scale`` are its one- and
two-term cases, and a longer sum written as one combination makes no
intermediate series.

Every binary operation truncates to the smaller order of its operands, so a
result never claims more precision than was computed.  Equality is the
absence of a ``first_difference`` on the common range.  Inputs are ints and
Fractions only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence, Union

from .scalars import exact

__all__ = [
    "QSeries",
    "ZeroConstantTerm",
    "int_mul",
    "linear_combination",
    "qs_det",
    "first_difference",
    "rational_str",
]

Scalar = Union[int, Fraction]


class ZeroConstantTerm(ZeroDivisionError):
    """Raised when inverting a series whose constant term vanishes."""


def rational_str(x: Fraction) -> str:
    """Render an exact rational as "p/q", or just "p" when q = 1."""
    return str(Fraction(x))


def _offset(slots: int, size: int) -> int:
    """The half-slot value 2^(8 size - 1) in each of the low ``slots`` slots
    of ``size`` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")


def _pack(a: Sequence[int], size: int) -> int:
    """sum a_i 2^(8 size i), for |a_i| < 2^(8 size - 1).

    Each slot of ``size`` bytes holds a_i plus the half-slot value, which is
    never negative, and the offset of the operand's own length is subtracted
    once from the packed integer.
    """
    half = 1 << (8 * size - 1)
    packed = int.from_bytes(
        b"".join([(x + half).to_bytes(size, "little") for x in a]), "little")
    return packed - _offset(len(a), size)


def _unpack(value: int, slots: int, size: int) -> list[int]:
    """The low ``slots`` coefficients of the polynomial in 2^(8 size) whose
    value is ``value``, each of absolute value below 2^(8 size - 1)."""
    # plus the offset, value mod 2^(w slots), whatever its sign, holds them
    n = size * slots
    raw = ((value + _offset(slots, size)) & ((1 << 8 * n) - 1)).to_bytes(n, "little")
    half = 1 << (8 * size - 1)
    from_bytes = int.from_bytes
    return [from_bytes(raw[i : i + size], "little") - half for i in range(0, n, size)]


def int_mul(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    """Coefficients 0..order of the product h = a b of two integer polynomials.

    Two-point Kronecker substitution (KS2, Harvey 2009).  The slot width w
    covers the largest possible coefficient of h plus a sign bit, and
    X = 2^(w/2).  Each operand is packed as its even part plus X times its
    odd part, both in slots of w bits, which is its value at X; the odd part
    subtracted instead gives its value at -X.  Two products of half-length
    integers give h(X) and h(-X), and in Y = X^2 = 2^w
    (h(X) + h(-X))/2 = sum c_2j Y^j and (h(X) - h(-X))/(2X) = sum c_2j+1 Y^j.
    Both divisions are exact shifts, since the sum has only the even and the
    difference only the odd powers of X.  Each quotient has coefficients of
    h alone, so it is read in w-bit slots by the one offset rule of
    ``_unpack``: with the half-slot value 2^(w-1) added, every slot lies in
    [0, 2^w) and none carries into the next.  An operand may be shorter than
    order+1; ``_pack`` gives each part the offset of its own length.
    """
    square = a is b
    a = a[: order + 1]
    b = a if square else b[: order + 1]
    slots = order + 1
    bits_a = max(max(a), -min(a)).bit_length()
    bits_b = bits_a if square else max(max(b), -min(b)).bit_length()
    bits = bits_a + bits_b + slots.bit_length() + 1
    size = (bits + 7) // 8
    shift = 4 * size
    even, odd = _pack(a[::2], size), _pack(a[1::2], size) << shift
    a_plus, a_minus = even + odd, even - odd
    if square:
        h_plus, h_minus = a_plus * a_plus, a_minus * a_minus
    else:
        even, odd = _pack(b[::2], size), _pack(b[1::2], size) << shift
        h_plus, h_minus = a_plus * (even + odd), a_minus * (even - odd)
    out = [0] * slots
    out[::2] = _unpack((h_plus + h_minus) >> 1, (slots + 1) // 2, size)
    out[1::2] = _unpack((h_plus - h_minus) >> (shift + 1), slots // 2, size)
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
        """Series with the given sparse exponent -> coefficient terms; terms
        past the order are truncated away, and a negative exponent is refused."""
        coeffs: list[Scalar] = [0] * (order + 1)
        for n, c in terms.items():
            if n < 0:
                raise ValueError(f"exponents must be nonnegative, got {n}")
            if n <= order:
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
        """The series to q^order, reduced; the series itself at an order it
        does not exceed.  A negative order is refused."""
        if order < 0:
            raise ValueError(f"truncation order must be nonnegative, got {order}")
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

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return linear_combination((1, self), (1, other))

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return linear_combination((1, self), (-1, other))

    def __neg__(self) -> "QSeries":
        return linear_combination((-1, self))

    def scale(self, c: Scalar) -> "QSeries":
        return linear_combination((c, self))

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

    def hecke(self, p: int, k: int) -> "QSeries":
        """The weight-k Hecke operator T_p at a prime p: c_n -> c_(pn) +
        p^(k-1) c_(n/p), the second term only where p | n, on n = 0..order//p."""
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"the Hecke operator T_p needs a prime p, got {p}")
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"the Hecke operator T_p needs an integer weight k >= 1, "
                             f"got k = {k!r}")
        nums, w = list(self._nums[::p]), p ** (k - 1)
        nums[::p] = [x + w * y for x, y in zip(nums[::p], self._nums)]
        return QSeries._make(nums, self._den)


def linear_combination(*terms: tuple[Scalar, QSeries]) -> QSeries:
    """The series sum w s over the (w, s) pairs, each weight w an int or a
    ``Fraction``, on the common range of the series.

    The terms are put over one denominator, the lcm of the products
    w.denominator s.denominator.  The first term of nonzero weight starts
    the total as its numerators times one integer factor, and each later one
    adds its numerators times its factor in one pass; the sum is reduced
    once.  A term of weight 0 adds nothing but still bounds the range, and
    with every weight 0 the sum is the series 0 on that range.  Sums,
    differences, negation and ``scale`` are its one- and two-term cases.
    """
    n, den, parts = None, 1, []
    for w, s in terms:
        if not isinstance(w, (int, Fraction)):
            exact(w)  # raises: a weight is an int or a Fraction
        if n is None or len(s._nums) < n:
            n = len(s._nums)
        if w:
            d = w.denominator * s._den
            den = lcm(den, d)
            parts.append((w.numerator, d, s._nums))
    if n is None:
        raise ValueError("a linear combination needs at least one term")
    if not parts:
        return QSeries._make([0] * n)
    (p, d, nums), *rest = parts
    f = p * (den // d)
    total = [f * x for x in nums[:n]]
    for p, d, nums in rest:
        f = p * (den // d)
        total = [t + f * x for t, x in zip(total, nums)]
    return QSeries._make(total, den)


def qs_det(matrix: Sequence[Sequence[QSeries]]) -> QSeries:
    """Determinant of a square matrix of series, by cofactor expansion.

    The tests' oracle for the Hankel minors of the determinant identities,
    which ``checks._minor`` builds from the catalog's memoized products; the
    result is truncated to the smallest order among the entries.
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
    nums_a, nums_b = a._nums[:n], b._nums[:n]
    da, db = a._den, b._den
    # over one denominator, equal numerator tuples are equal series
    if da == db and nums_a == nums_b:
        return None
    for i, (x, y) in enumerate(zip(nums_a, nums_b)):
        if x * db != y * da:
            return i, Fraction(x, da), Fraction(y, db)
    return None
