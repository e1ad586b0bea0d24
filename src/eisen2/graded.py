"""The graded ring Q[A, B, C] of the level-2 Eisenstein generators and its
Serre derivatives.

A and B are the weight-2 and weight-4 level-2 series and C their weight-2
quotient partner E6*/E4* (weights 2, 4, 2).  Level 1 lies inside the ring:
E2 = 3A - 2C, E4 = 4C^2 - 3B and E6 = 9BC - 8C^3.  The derivation
theta = q d/dq is fixed by its three generator images, the
Ablowitz-Chakravarty-Hahn system HAHN-SYS, the module's one derivation
table.  A Serre derivative theta f - (w/k) G f is the sum of the chain-rule
terms (df/dx_i) theta(x_i) and of -(w/k) G f, with no image tables:
``serre_delta`` with G = A and k = 4, ``serre_partial`` (level 1's) with
G = E2 and k = 12.  A ``GradedPoly`` keeps integer numerators per monomial
over one positive common denominator, reduced, in the format and by the
helpers of ``QSeries``, and ``terms`` gives the coefficients as ``Fraction``
values.  One weighted sum of products, whose integer numerators are put
over the lcm of the terms' denominators and reduced once, combines
polynomials, as ``linear_combination`` combines series: a product is its
one-term case, a sum or a multiple a product with the constant 1, and each
Serre derivative and each tower level one call.  Evaluation is one
``linear_combination`` of the catalog's memoized monomial series, so it
makes no product of its own once they exist.  The E*_2m tower is built by its differential recursion alone (``e_star_poly``),
run in the divisor-sum normalization S*_{2m-1}(0) E*_2m, where the
lambda-ratio weights become binomial coefficients and every denominator a
power of two, and judged by series equations (``e_star_equations``), one
per level, each lifted to the top weight, times a power of C, so that all
levels share one monomial set.  Modular forms of even weight 2k on the
level-2 group decompose over the monomial basis B^j C^(k-2j):
``decompose_modular`` solves for the coordinates by exact fraction-free
elimination and returns them as a ``GradedPoly``, the type ``e_star_poly``
returns.  The module keeps no state: each E*_2m level and its divisor-sum
form are memoized in the catalog they were built on.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Union

from .arith import divisor_sum_zero
from .catalog import SeriesCatalog
from .qseries import (QSeries, _over_lcm, _reduce, first_difference, linear_combination,
                      rational_str)
from .scalars import exact
from .scalars import ks_alpha, ks_coefficient  # noqa: F401  (perfbench's tracer wraps it here)

__all__ = [
    "GradedPoly",
    "NotHomogeneous",
    "SingularSystem",
    "ResidualMismatch",
    "serre_delta",
    "serre_partial",
    "gp_evaluate",
    "decompose_modular",
    "e_star_order",
    "e_star_poly",
    "e_star_equations",
    "check_positivity",
    "positivity_witness",
]

_GENERATORS = ("A", "B", "C")
_WEIGHTS = (2, 4, 2)
# the catalog names of the generator q-expansions
_SERIES_NAMES = ("E2star", "E4star", "C")

Exponents = tuple[int, int, int]
Scalar = Union[int, Fraction]


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
    """Exact polynomial in A, B and C.

    Kept as integer numerators per exponent triple over one positive common
    denominator, reduced, with no zero entries, so equal polynomials have
    equal representations.  ``terms`` gives the coefficients as ``Fraction``
    values in a read-only mapping built on each call.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Optional[Mapping[Exponents, Scalar]] = None):
        terms = dict(terms or {})
        for exps in terms:
            if len(exps) != 3 or not all(isinstance(e, int) for e in exps):
                raise TypeError(f"exponents must be three ints, got {exps!r}")
            if min(exps) < 0:
                raise ValueError(f"exponents must be nonnegative, got {exps!r}")
        nums, self._den = _over_lcm(terms.values())
        self._nums = {tuple(e): x for e, x in zip(terms, nums) if x}

    @classmethod
    def _make(cls, nums: dict[Exponents, int], den: int = 1) -> "GradedPoly":
        """The polynomial sum nums[e] x^e / den, zero terms dropped, reduced;
        the exponents are not checked."""
        poly = object.__new__(cls)
        nums = {e: x for e, x in nums.items() if x}
        values, poly._den = _reduce(tuple(nums.values()), den)
        # most results in the E*_2m tower have no common factor to divide out
        poly._nums = nums if poly._den == den else dict(zip(nums, values))
        return poly

    @classmethod
    def zero(cls) -> "GradedPoly":
        return cls()

    @classmethod
    def monomial(cls, exps: Exponents, coeff=1) -> "GradedPoly":
        return cls({tuple(exps): coeff})

    @classmethod
    def generator(cls, name: str) -> "GradedPoly":
        if name not in _GENERATORS:
            raise ValueError(f"unknown generator {name!r}; the generators are A, B and C")
        idx = _GENERATORS.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(3))
        return cls({exps: Fraction(1)})

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """The nonzero coefficients as reduced ``Fraction`` values, read-only."""
        den = self._den
        return MappingProxyType({e: Fraction(x, den) for e, x in self._nums.items()})

    def monomial_name(self, exps: Exponents) -> str:
        """The monomial in the generator names, e.g. "A^2*B"; "1" for the
        constant."""
        return "*".join(f"{_GENERATORS[i]}^{e}" if e > 1 else _GENERATORS[i]
                        for i, e in enumerate(exps) if e) or "1"

    def monomial_weight(self, exps: Exponents) -> int:
        w = _WEIGHTS
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
        return self._den == other._den and self._nums == other._nums

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self._nums:
            return "GradedPoly(0)"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = f"*{self.monomial_name(exps)}" if any(exps) else ""
            parts.append(f"({rational_str(coeff)}){mono}")
        return f"GradedPoly({' + '.join(parts)})"

    # -- arithmetic ----------------------------------------------------------

    # sums and multiples are products with the constant polynomial 1

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return _sum_of_products([(1, self, _ONE), (1, other, _ONE)])

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return _sum_of_products([(1, self, _ONE), (-1, other, _ONE)])

    def __neg__(self) -> "GradedPoly":
        return _sum_of_products([(-1, self, _ONE)])

    def scale(self, c: Scalar) -> "GradedPoly":
        return _sum_of_products([(Fraction(exact(c)), self, _ONE)])

    def __mul__(self, other):
        if isinstance(other, GradedPoly):
            return _sum_of_products([(1, self, other)])
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented


def _sum_of_products(terms) -> GradedPoly:
    """The polynomial sum of w f g over the (w, f, g) triples, w an int or a
    ``Fraction`` and f, g polynomials.

    The terms are put over one denominator D, the lcm of the products
    d = w.denominator f._den g._den, and each product's integer numerators
    are added with the integer weight w.numerator (D // d) in one pass; the
    sum is reduced once, as ``linear_combination`` sums series.  The E*_2m
    tower's terms have power-of-two denominators, so D stays small.
    """
    terms = [(w, f, g, w.denominator * f._den * g._den) for w, f, g in terms if w]
    den = lcm(*(d for *_, d in terms))
    nums: dict[Exponents, int] = {}
    for w, f, g, d in terms:
        weight = w.numerator * (den // d)
        for (a1, b1, c1), x in f._nums.items():
            wx = weight * x
            for (a2, b2, c2), y in g._nums.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                nums[key] = nums.get(key, 0) + wx * y
    return GradedPoly._make(nums, den)


_ONE = GradedPoly.monomial((0, 0, 0))

# theta = q d/dq on the generators, the system HAHN-SYS
_THETA = (GradedPoly({(2, 0, 0): Fraction(1, 4), (0, 1, 0): Fraction(-1, 4)}),  # (A^2 - B)/4
          GradedPoly({(1, 1, 0): 1, (0, 1, 1): -1}),                            # AB - BC
          GradedPoly({(1, 0, 1): Fraction(1, 2), (0, 1, 0): Fraction(-1, 2)}))  # (AC - B)/2
_A = GradedPoly.generator("A")
_E2 = GradedPoly({(1, 0, 0): 3, (0, 0, 1): -2})


def _partial(f: GradedPoly, i: int) -> GradedPoly:
    """The partial derivative of f in generator i."""
    return GradedPoly._make({e[:i] + (e[i] - 1,) + e[i + 1:]: e[i] * x
                             for e, x in f._nums.items() if e[i]}, f._den)


def _serre_terms(f: GradedPoly, g: GradedPoly, k: int) -> list:
    """The ``_sum_of_products`` terms of theta f - (w/k) g f, w the weight of
    f: theta f is sum_i (df/dx_i) theta(x_i) by the chain rule.  A
    polynomial of mixed weight raises ``NotHomogeneous``."""
    w = f.weight() or 0  # the zero polynomial has no weight, and g 0 = 0
    return [(1, _partial(f, i), theta) for i, theta in enumerate(_THETA)] + [
        (Fraction(-w, k), g, f)]


def serre_delta(f: GradedPoly) -> GradedPoly:
    """Level-2 Serre derivative theta f - (w/4) A f, w the weight of f; a
    polynomial of mixed weight raises ``NotHomogeneous``."""
    return _sum_of_products(_serre_terms(f, _A, 4))


def serre_partial(f: GradedPoly) -> GradedPoly:
    """Level-1 Serre derivative theta f - (w/12) E2 f, E2 = 3A - 2C, w the
    weight of f; a polynomial of mixed weight raises ``NotHomogeneous``."""
    return _sum_of_products(_serre_terms(f, _E2, 12))


def _evaluation_terms(f: GradedPoly, catalog: SeriesCatalog) -> list:
    """The (coefficient, monomial series) pairs whose linear combination is
    f evaluated on the catalog."""
    den = f._den
    return [(Fraction(x, den), catalog.monomial(zip(_SERIES_NAMES, exps)))
            for exps, x in f._nums.items()]


def gp_evaluate(f: GradedPoly, catalog: SeriesCatalog) -> QSeries:
    """Substitute the generator q-expansions and expand exactly.

    Each monomial's series is ``catalog.monomial``, memoized with the
    generator powers, so it is multiplied out once per catalog however many
    polynomials use it.  The result is one ``linear_combination`` of those
    series; it makes no series product of its own.  The zero polynomial is
    the zero series on the catalog's range.
    """
    if f.is_zero():
        return QSeries.zero(catalog.order)
    return linear_combination(*_evaluation_terms(f, catalog))


def modular_dimension(weight: int) -> int:
    """dim of the weight-2k modular forms on the level-2 group: floor(2k/4)+1."""
    if not isinstance(weight, int) or weight < 2 or weight % 2:
        raise ValueError(f"weight must be a positive even integer, got {weight!r}")
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


def decompose_modular(s: QSeries, weight: int, catalog: SeriesCatalog) -> GradedPoly:
    """Write a claimed weight-2k modular form over the monomial basis
    B^j C^(k-2j), as a polynomial in B and C.

    Solves the exact square system on the leading dim-many coefficients and
    then verifies the combination against every remaining computed
    coefficient; a residual failure means the series is not modular of the
    claimed weight (quasi-modular inputs like the weight-2 level series fail
    here by design).  The basis is evaluated on the catalog, which must
    reach the series' order.
    """
    dim = modular_dimension(weight)
    if s.order < 2 * dim:
        raise ValueError(f"need order >= {2 * dim} to certify a weight-{weight} form")
    if catalog.order < s.order:
        raise ValueError(f"a series of order {s.order} needs a catalog of order "
                         f">= {s.order}, got {catalog.order}")
    k = weight // 2
    exponents = [(0, j, k - 2 * j) for j in range(k // 2, -1, -1)]
    basis = [catalog.monomial(zip(_SERIES_NAMES, e)) for e in exponents]
    matrix = [[b[n] for b in basis] for n in range(dim)]
    rhs = [s[n] for n in range(dim)]
    poly = GradedPoly(dict(zip(exponents, _solve_fraction_free(matrix, rhs))))
    diff = first_difference(gp_evaluate(poly, catalog), s)
    if diff is not None:
        raise ResidualMismatch(diff[0], diff[2], diff[1])
    return poly


def e_star_order(m: int) -> int:
    """The least catalog order, 2 dim + 6, on which ``e_star_equations``
    compares the tower up to weight 2m."""
    if not isinstance(m, int):
        raise ValueError(f"the E*_2m tower needs an integer m, got m = {m!r}")
    return 2 * modular_dimension(2 * m) + 6


def _solve_level(mm: int, tower: list) -> GradedPoly:
    """h_mm = S*_{2mm-1}(0) E*_{2mm} from the levels tower[2..mm-1] by the
    differential recursion in the divisor-sum normalization:

        h_2 = S*_3(0) B,
        h_mm = 2 delta h_{mm-1}
               - 2 sum_{k=2}^{mm-2} C(2mm-2, 2k-1) h_k h_{mm-k}.

    The convolution terms, over the symmetric k and mm - k pairs with
    integer weights, and the terms of 2 delta h_{mm-1} are one
    ``_sum_of_products``; every level's denominator is a power of two.
    """
    if mm == 2:
        return GradedPoly.monomial((0, 1, 0), divisor_sum_zero("sigma_star", 3))
    # C(2mm-2, 2k-1) = C(2mm-2, 2(mm-k)-1), so the k and mm-k terms are one product
    return _sum_of_products([
        (-2 * (1 if 2 * k == mm else 2) * comb(2 * mm - 2, 2 * k - 1), tower[k], tower[mm - k])
        for k in range(2, mm // 2 + 1)] + [
        (2 * w, f, g) for w, f, g in _serre_terms(tower[mm - 1], _A, 4)])


def e_star_poly(m: int, catalog: SeriesCatalog) -> GradedPoly:
    """The weight-2m level-2 series as a polynomial in B and C.

    The level-2 differential recursion, solved for its top term, reads

        alpha_{2m} E*_{2m} = sum_{k=2}^{m-2} c_{m,k} E*_{2k} E*_{2m-2k}
                             - delta E*_{2m-2}

    with c_{m,k} = (2m-2) lambda(2k) lambda(2m-2k) / (pi^2 lambda(2m-2)) and
    alpha_{2m} = (2m-2)(2m-1)/2 lambda(2m) / (pi^2 lambda(2m-2)), whose
    denominators are Bernoulli numerators.  It is run instead on the
    polynomials h_m = S*_{2m-1}(0) E*_{2m} of the divisor-sum series
    sum sigma*_{2m-1}(n) q^n, as Ramanujan wrote his equations for the
    unnormalized sums.  With S*_{2k-1}(0) = ``divisor_sum_zero("sigma_star",
    2k-1)``, the identity lambda(2k)/pi^(2k) = (-1)^(k+1) S*_{2k-1}(0)/(2k-1)!
    turns c_{m,k} into C(2m-2, 2k-1) S*_{2m-3}(0) / (S*_{2k-1}(0)
    S*_{2m-2k-1}(0)) and alpha_{2m} into -S*_{2m-1}(0) / (2 S*_{2m-3}(0)),
    so the h_m obey the recursion of ``_solve_level``: integer binomial
    weights, a normalizer -2 and power-of-two denominators.  E*_{2m} is h_m
    over S*_{2m-1}(0).

    Nothing is compared here: the levels are judged by ``e_star_equations``.
    Each h_m is memoized as ``sigma{2m-1}star_poly`` and each E*_{2m} as
    ``E{2m}star_poly`` in the catalog, whatever its order.  A level the
    catalog holds is one lookup; a new one walks the h levels up to it.  m
    must be an int, else ``ValueError``.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"the E*_2m tower is defined for integers m >= 2, got m = {m!r}")

    def build() -> GradedPoly:
        tower: list = [None, None]
        for mm in range(2, m + 1):
            tower.append(catalog._memo(f"sigma{2 * mm - 1}star_poly",
                                       lambda: _solve_level(mm, tower)))
        return tower[m].scale(1 / divisor_sum_zero("sigma_star", 2 * m - 1))

    return catalog._memo(f"E{2 * m}star_poly", build)


def e_star_equations(m: int, catalog: SeriesCatalog) -> Iterator[tuple]:
    """One series equation (lhs, rhs, note) per level 3..m of the tower,
    each level built by ``e_star_poly`` on the catalog only when its
    equation is drawn.

    Level mm is compared on the catalog's whole range, lifted to weight 2m:
    the polynomial times the monomial C^(m-mm) has the monomials
    B^j C^(m-2j), so every level evaluates the same memoized monomials, and
    the series is multiplied by C^(m-mm), one product.  C has constant term
    1, so it is a unit: the lifted difference is the unlifted one times
    C^(m-mm), with the same first exponent and coefficient there.  The
    equation is E*_{2mm} + (lifted polynomial - lifted series) = E*_{2mm},
    so a failure names the unlifted values.  The basis is independent, so
    agreement fixes every coordinate; ``positivity_witness`` also refuses a
    monomial outside it.  E*_4 = h_2/S*_3(0) = B holds by construction, with
    no equation.  A catalog below ``e_star_order(m)`` is refused up front.
    """
    need = e_star_order(m)
    if catalog.order < need:
        raise ValueError(f"E{2 * m}star_poly needs order >= {need}, got {catalog.order}")

    def level(mm: int) -> tuple:
        poly, series, shift = e_star_poly(mm, catalog), catalog.level2(mm), m - mm
        lifted = _sum_of_products([(1, poly, GradedPoly.monomial((0, 0, shift)))])
        top = series * catalog.power("C", shift) if shift else series
        lhs = linear_combination((1, series), (-1, top), *_evaluation_terms(lifted, catalog))
        return (lhs, series,
                f"E{2 * mm}star polynomial: differential recursion against the q-expansion")

    return (level(mm) for mm in range(3, m + 1))


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


def check_positivity(m: int, catalog: SeriesCatalog) -> bool:
    """True when the weight-2m polynomial is nonzero and lies in B * Q_+[B, C]
    (``positivity_witness`` finds no monomial outside it).

    The polynomial is ``e_star_poly(m, catalog)``, a memo hit once the
    catalog holds the level; it judges no series, which is the job of
    ``e_star_equations``.
    """
    poly = e_star_poly(m, catalog)
    return not poly.is_zero() and positivity_witness(poly, m) is None
