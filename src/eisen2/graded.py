"""Graded polynomial rings in the Eisenstein generators and their Serre derivatives.

Two rings: level 1 in E2, E4, E6 (weights 2, 4, 6) and level 2 in A, B, C
(weights 2, 4, 2) where A, B are the weight-2 and weight-4 level-2 series
and C is their weight-2 quotient partner E6*/E4*.  A ``GradedPoly`` keeps
integer numerators per monomial over one positive common denominator,
reduced, in the format and by the helpers of ``QSeries``; products, sums,
scaling, both Serre derivatives and ``first_difference`` work on those
integers, and ``terms`` gives the coefficients as ``Fraction`` values.
Evaluation is an integer linear combination of the catalog's memoized
monomial series, so it makes no product of its own once they exist.  The
E*_2m tower compares every level lifted to the top weight, times a power of
C, so that all levels share one monomial set.  Modular forms of even weight
2k on the level-2 group decompose over the monomial basis B^j C^(k-2j):
``decompose_modular`` solves for the coordinates by exact fraction-free
elimination and returns them as a ``GradedPoly``, the type ``e_star_poly``
returns.  The module keeps no state: each E*_2m level is memoized in the
catalog it was compared on.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping, Optional, Union

from .catalog import CrossCheckMismatch, SeriesCatalog
from .qseries import QSeries, _over_lcm, _reduce, first_difference, rational_str
from .scalars import exact, ks_alpha, ks_coefficient

__all__ = [
    "LEVEL1",
    "LEVEL2",
    "GradedPoly",
    "RingMismatch",
    "NotHomogeneous",
    "SingularSystem",
    "ResidualMismatch",
    "serre_delta",
    "serre_partial",
    "gp_evaluate",
    "decompose_modular",
    "e_star_order",
    "e_star_poly",
    "check_positivity",
    "positivity_witness",
]

LEVEL1 = "level1"
LEVEL2 = "level2"

_GENERATORS = {LEVEL1: ("E2", "E4", "E6"), LEVEL2: ("A", "B", "C")}
_WEIGHTS = {LEVEL1: (2, 4, 6), LEVEL2: (2, 4, 2)}
# the catalog names of the generator q-expansions
_SERIES_NAMES = {LEVEL1: ("E2", "E4", "E6"), LEVEL2: ("E2star", "E4star", "C")}

Exponents = tuple[int, int, int]
Scalar = Union[int, Fraction]


class RingMismatch(ValueError):
    """Operands live in different generator rings."""


class NotHomogeneous(ValueError):
    """A graded operation was applied to a non-homogeneous polynomial."""


class SingularSystem(ArithmeticError):
    """The basis matrix was not invertible; the basis is proven independent,
    so this signals an implementation bug rather than a math failure."""


class ResidualMismatch(ArithmeticError):
    """A claimed modular form failed verification past the solved window."""

    def __init__(self, exponent: int, lhs: Fraction, rhs: Fraction):
        self.exponent = exponent
        self.values = (lhs, rhs)
        super().__init__(
            f"decomposition residual fails at q^{exponent}: {lhs} != {rhs}"
        )


class GradedPoly:
    """Exact polynomial in three weighted generators.

    Kept as integer numerators per exponent triple over one positive common
    denominator, reduced, with no zero entries, so equal polynomials have
    equal representations.  ``terms`` gives the coefficients as ``Fraction``
    values in a read-only mapping built on each call.
    """

    __slots__ = ("ring", "_nums", "_den")

    def __init__(self, ring: str, terms: Optional[Mapping[Exponents, Scalar]] = None):
        if ring not in _GENERATORS:
            raise ValueError(f"unknown ring {ring!r}")
        terms = dict(terms or {})
        for exps in terms:
            if len(exps) != 3 or not all(isinstance(e, int) for e in exps):
                raise TypeError(f"exponents must be three ints, got {exps!r}")
            if min(exps) < 0:
                raise ValueError(f"exponents must be nonnegative, got {exps!r}")
        nums, self._den = _over_lcm(terms.values())
        self.ring = ring
        self._nums = {tuple(e): x for e, x in zip(terms, nums) if x}

    @classmethod
    def _make(cls, ring: str, nums: dict[Exponents, int], den: int = 1) -> "GradedPoly":
        """The polynomial sum nums[e] x^e / den, zero terms dropped, reduced;
        the exponents are not checked."""
        poly = object.__new__(cls)
        poly.ring = ring
        nums = {e: x for e, x in nums.items() if x}
        values, poly._den = _reduce(tuple(nums.values()), den)
        # most results in the E*_2m tower have no common factor to divide out
        poly._nums = nums if poly._den == den else dict(zip(nums, values))
        return poly

    @classmethod
    def zero(cls, ring: str) -> "GradedPoly":
        return cls(ring)

    @classmethod
    def monomial(cls, ring: str, exps: Exponents, coeff=1) -> "GradedPoly":
        return cls(ring, {tuple(exps): coeff})

    @classmethod
    def generator(cls, ring: str, name: str) -> "GradedPoly":
        idx = _GENERATORS[ring].index(name)
        exps = tuple(1 if i == idx else 0 for i in range(3))
        return cls(ring, {exps: Fraction(1)})

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """The nonzero coefficients as reduced ``Fraction`` values, read-only."""
        den = self._den
        return MappingProxyType({e: Fraction(x, den) for e, x in self._nums.items()})

    def monomial_name(self, exps: Exponents) -> str:
        """The monomial in the ring's generator names, e.g. "A^2*B"; "1" for
        the constant."""
        names = _GENERATORS[self.ring]
        return "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                        for i, e in enumerate(exps) if e) or "1"

    def monomial_weight(self, exps: Exponents) -> int:
        w = _WEIGHTS[self.ring]
        return exps[0] * w[0] + exps[1] * w[1] + exps[2] * w[2]

    def is_zero(self) -> bool:
        return not self._nums

    def weight(self) -> Optional[int]:
        """Common weight of all monomials; None for the zero polynomial."""
        weights = {self.monomial_weight(e) for e in self._nums}
        if not weights:
            return None
        if len(weights) > 1:
            raise NotHomogeneous(f"mixed weights {sorted(weights)}")
        return weights.pop()

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.terms.items())

    def to_records(self) -> list[tuple[int, int, int, str]]:
        """Serialization as sorted (a, b, c, "p/q") records."""
        return [(a, b, c, rational_str(v)) for (a, b, c), v in self.sorted_terms()]

    def first_difference(
        self, other: "GradedPoly"
    ) -> Optional[tuple[int, Exponents, Fraction, Fraction]]:
        """The first differing monomial in the sorted union of both
        polynomials' monomials: its position there, its exponents and both
        coefficients; None when they are equal."""
        self._check_ring(other)
        # numerators cross-multiplied, as first_difference compares series
        da, db = self._den, other._den
        for i, exps in enumerate(sorted(self._nums.keys() | other._nums.keys())):
            x, y = self._nums.get(exps, 0), other._nums.get(exps, 0)
            if x * db != y * da:
                return i, exps, Fraction(x, da), Fraction(y, db)
        return None

    def __eq__(self, other: object) -> bool:
        # the reduced form is unique, so equal values have equal fields
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (self.ring == other.ring and self._den == other._den
                and self._nums == other._nums)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self._nums:
            return f"GradedPoly({self.ring}, 0)"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = f"*{self.monomial_name(exps)}" if any(exps) else ""
            parts.append(f"({rational_str(coeff)}){mono}")
        return f"GradedPoly({self.ring}, {' + '.join(parts)})"

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "GradedPoly") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_ring(other)
        da, db = self._den, other._den
        den = lcm(da, db)
        fa, fb = den // da, den // db
        nums = {e: x * fa for e, x in self._nums.items()}
        for e, y in other._nums.items():
            nums[e] = nums.get(e, 0) + y * fb
        return GradedPoly._make(self.ring, nums, den)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._make(self.ring, {e: -x for e, x in self._nums.items()},
                                self._den)

    def scale(self, c: Scalar) -> "GradedPoly":
        c = Fraction(exact(c))
        p = c.numerator
        return GradedPoly._make(self.ring, {e: p * x for e, x in self._nums.items()},
                                c.denominator * self._den)

    def __mul__(self, other):
        if isinstance(other, GradedPoly):
            self._check_ring(other)
            nums: dict[Exponents, int] = {}
            for (a1, b1, c1), x in self._nums.items():
                for (a2, b2, c2), y in other._nums.items():
                    key = (a1 + a2, b1 + b2, c1 + c2)
                    nums[key] = nums.get(key, 0) + x * y
            return GradedPoly._make(self.ring, nums, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented


# generator images under the weight-raising derivative, as integer numerators
# over one denominator per ring:
#   level 2:  A -> -(A^2+B)/4,   B -> -BC,      C -> -B/2
#   level 1:  E2 -> -(E2^2+E4)/12, E4 -> -E6/3, E6 -> -E4^2/2
_RULES: dict[str, tuple[int, tuple[dict[Exponents, int], ...]]] = {
    LEVEL2: (4, ({(2, 0, 0): -1, (0, 1, 0): -1}, {(0, 1, 1): -4}, {(0, 1, 0): -2})),
    LEVEL1: (12, ({(2, 0, 0): -1, (0, 1, 0): -1}, {(0, 0, 1): -4}, {(0, 2, 0): -6})),
}


def _derive(f: GradedPoly, weight: Optional[int]) -> GradedPoly:
    own = f.weight()  # raises NotHomogeneous on mixed weights
    if weight is not None and own is not None and own != weight:
        raise NotHomogeneous(f"stated weight {weight} but polynomial has weight {own}")
    rule_den, rules = _RULES[f.ring]
    # d(x^e) = sum_i e_i x^(e - unit_i) d(x_i), collected into one dict
    nums: dict[Exponents, int] = {}
    for exps, x in f._nums.items():
        for i, rule in enumerate(rules):
            e = exps[i]
            if e:
                a, b, c = exps
                a, b, c = a - (i == 0), b - (i == 1), c - (i == 2)
                for (ra, rb, rc), y in rule.items():
                    key = (a + ra, b + rb, c + rc)
                    nums[key] = nums.get(key, 0) + e * x * y
    return GradedPoly._make(f.ring, nums, f._den * rule_den)


def serre_delta(f: GradedPoly, weight: Optional[int] = None) -> GradedPoly:
    """Level-2 Serre derivative q f' - (w/4) A f, via the generator rules."""
    if f.ring != LEVEL2:
        raise RingMismatch("serre_delta acts on the level-2 ring")
    return _derive(f, weight)


def serre_partial(f: GradedPoly, weight: Optional[int] = None) -> GradedPoly:
    """Level-1 Serre derivative q f' - (w/12) E2 f, via the generator rules."""
    if f.ring != LEVEL1:
        raise RingMismatch("serre_partial acts on the level-1 ring")
    return _derive(f, weight)


def gp_evaluate(f: GradedPoly, catalog: SeriesCatalog) -> QSeries:
    """Substitute the generator q-expansions and expand exactly.

    Each monomial's series is ``catalog.monomial``, memoized with the
    generator powers, so it is multiplied out once per catalog however many
    polynomials use it.  The result is the integer linear combination of
    those series' numerators, over the polynomial's denominator times their
    common one; it makes no series product of its own.
    """
    names = _SERIES_NAMES[f.ring]
    terms = [(x, catalog.monomial(zip(names, exps))) for exps, x in f._nums.items()]
    den = lcm(*(s.denominator for _, s in terms))
    total = [0] * (catalog.order + 1)
    for x, s in terms:
        x *= den // s.denominator
        total = [t + x * y for t, y in zip(total, s.numerators)]
    return QSeries._make(total, f._den * den)


def modular_dimension(weight: int) -> int:
    """dim of the weight-2k modular forms on the level-2 group: floor(2k/4)+1."""
    if weight < 2 or weight % 2:
        raise ValueError("weight must be a positive even integer")
    return weight // 4 + 1


def _solve_fraction_free(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Bareiss elimination with first-nonzero pivoting, then back substitution.

    Divisions in the Bareiss update are exact; the pivot choice is the first
    row with a nonzero entry, for reproducibility.
    """
    n = len(matrix)
    m = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    prev = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"no pivot in column {col}")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            for c in range(col + 1, n + 1):
                m[r][c] = (m[col][col] * m[r][c] - m[r][col] * m[col][c]) / prev
            m[r][col] = Fraction(0)
        prev = m[col][col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / m[r][r]
    return x


def decompose_modular(
    s: QSeries, weight: int, catalog: Optional[SeriesCatalog] = None
) -> GradedPoly:
    """Write a claimed weight-2k modular form over the monomial basis
    B^j C^(k-2j), as a polynomial in B and C.

    Solves the exact square system on the leading dim-many coefficients and
    then verifies the combination against every remaining computed
    coefficient; a residual failure means the series is not modular of the
    claimed weight (quasi-modular inputs like the weight-2 level series fail
    here by design).  The basis is evaluated on the catalog, which must
    reach the series' order; with none given, a fresh one of that order.
    """
    dim = modular_dimension(weight)
    if s.order < 2 * dim:
        raise ValueError(f"need order >= {2 * dim} to certify a weight-{weight} form")
    if catalog is None:
        catalog = SeriesCatalog(s.order)
    elif catalog.order < s.order:
        raise ValueError(f"a series of order {s.order} needs a catalog of order "
                         f">= {s.order}, got {catalog.order}")
    k = weight // 2
    exponents = [(0, j, k - 2 * j) for j in range(k // 2, -1, -1)]
    basis = [gp_evaluate(GradedPoly.monomial(LEVEL2, e), catalog) for e in exponents]
    matrix = [[b[n] for b in basis] for n in range(dim)]
    rhs = [s[n] for n in range(dim)]
    poly = GradedPoly(LEVEL2, dict(zip(exponents, _solve_fraction_free(matrix, rhs))))
    diff = first_difference(gp_evaluate(poly, catalog), s)
    if diff is not None:
        raise ResidualMismatch(diff[0], diff[2], diff[1])
    return poly


def e_star_order(m: int) -> int:
    """The order 2 dim + 6 at which the weight-2m level is compared."""
    return 2 * modular_dimension(2 * m) + 6


def _solve_level(mm: int, tower: list, catalog: SeriesCatalog, top: int) -> GradedPoly:
    """E*_{2mm} from the levels tower[2..mm-1], compared on the catalog.

    The comparison is lifted to weight 2 top: both sides are multiplied by
    C^(top-mm), which sends each monomial B^j C^(mm-2j) to B^j C^(top-2j),
    so every level of one tower evaluates the same top/2 memoized monomials
    and pays one product, on the right side.  C has constant term 1, so it
    is a unit: the lifted difference is the unlifted one times C^(top-mm),
    with the same first exponent and the same coefficient there.
    """
    if mm == 2:
        return GradedPoly.generator(LEVEL2, "B")  # the weight-4 series is B itself
    acc = GradedPoly.zero(LEVEL2)
    # c_{mm,k} = c_{mm,mm-k}, so the k and mm-k terms are one product
    for k in range(2, mm // 2 + 1):
        pair = 1 if 2 * k == mm else 2
        acc = acc + (tower[k] * tower[mm - k]).scale(pair * ks_coefficient(mm, k))
    acc = acc - serre_delta(tower[mm - 1], 2 * (mm - 1))
    alpha = ks_alpha(mm)
    if alpha <= 0:
        raise ArithmeticError(f"normalizer alpha for weight {2 * mm} not positive")
    poly = acc.scale(1 / alpha)
    name = f"E{2 * mm}star polynomial"
    # series agreement cannot rule out a monomial outside the basis
    # (an A-term, say), so the monomials are checked first
    stray = set(poly._nums) - {(0, j, mm - 2 * j) for j in range(mm // 2 + 1)}
    if stray:
        raise CrossCheckMismatch(
            name, 0, "differential recursion", "monomial basis",
            Fraction(poly._nums[min(stray)], poly._den), Fraction(0),
        )
    shift = top - mm
    series = catalog.level2(mm)
    lifted = GradedPoly._make(
        LEVEL2, {(a, b, c + shift): x for (a, b, c), x in poly._nums.items()}, poly._den
    )
    diff = first_difference(
        gp_evaluate(lifted, catalog),
        series * catalog.power("C", shift) if shift else series,
    )
    if diff is not None:
        n, lhs, rhs = diff
        # the unlifted values: E*_{2mm} at q^n, and it plus the difference
        raise CrossCheckMismatch(
            name, n, "differential recursion", "q-expansion",
            series[n] + (lhs - rhs), series[n],
        )
    return poly


def e_star_poly(m: int, catalog: Optional[SeriesCatalog] = None) -> GradedPoly:
    """The weight-2m level-2 series as a polynomial in B and C.

    Built by solving the level-2 differential recursion for the top term:

        E*_{2m} = (1/alpha_{2m}) [ sum_{k=2}^{m-2} c_{m,k} E*_{2k} E*_{2m-2k}
                                   - delta E*_{2m-2} ]

    with c_{m,k} the rational convolution coefficients and alpha_{2m} the
    positive rational normalizer.  Each new level mm is checked to lie in
    the basis B^j C^(mm-2j) and then, as one series equation, against the
    divisor-sum q-expansion on the catalog's whole range; the basis is
    independent, so that agreement fixes every coordinate.  The equation is
    lifted to weight 2m, both sides times C^(m-mm): every level then
    evaluates monomials B^j C^(m-2j) from one memoized set, and since C is a
    unit a failure has the same exponent and values as the unlifted
    equation's.  Each level, from
    E*_4 = B upward, is memoized as ``E{2m}star_poly`` in the catalog it was
    compared on; with none given, a fresh one of order ``e_star_order(m)``,
    rebuilt on every call.  A caller judging many levels passes one catalog.
    """
    if m < 2:
        raise ValueError("defined for m >= 2")
    need = e_star_order(m)
    if catalog is None:
        catalog = SeriesCatalog(need)
    elif catalog.order < need:
        raise ValueError(f"E{2 * m}star_poly needs order >= {need}, got {catalog.order}")
    tower: list = [None, None]
    for mm in range(2, m + 1):
        key = f"E{2 * mm}star_poly"
        tower.append(catalog._memo(key, lambda: _solve_level(mm, tower, catalog, m)))
    return tower[m]


def positivity_witness(
    poly: GradedPoly, m: int
) -> Optional[tuple[Exponents, Fraction]]:
    """The least monomial of poly that keeps it out of B * Q_+[B, C] at
    weight 2m, with its coefficient; None when every monomial has a strictly
    positive coefficient, B-exponent at least 1, no A-exponent and weight
    exactly 2m."""
    for exps in sorted(poly._nums):
        x = poly._nums[exps]
        if exps[0] or exps[1] < 1 or x <= 0 or poly.monomial_weight(exps) != 2 * m:
            return exps, Fraction(x, poly._den)
    return None


def check_positivity(m: int, catalog: Optional[SeriesCatalog] = None) -> bool:
    """True when the weight-2m polynomial is nonzero and lies in B * Q_+[B, C]
    (``positivity_witness`` finds no monomial outside it).

    The polynomial is ``e_star_poly(m, catalog)``, so it is compared on that
    catalog.  Without one the tower is rebuilt; a caller judging many levels
    passes one catalog.
    """
    poly = e_star_poly(m, catalog)
    return not poly.is_zero() and positivity_witness(poly, m) is None
