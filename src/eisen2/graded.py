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
over one positive common denominator, reduced, by the helpers of
``QSeries``, and ``terms`` gives the coefficients as ``Fraction`` values.
Each monomial A^a B^b C^c is keyed by one int, (a << 2W) | (b << W) | c,
with the fixed field width W = ``_WIDTH``; every exponent stays below its
field's top bit, 2^(W-1).  So a product's key is the sum of its factors'
keys, with no tuple built and no carry from one field into the next, and a
sum that reaches a top bit raises ``ValueError`` instead of wrapping.  The
fields are unsigned with A's the highest, so sorted keys come in the order
of sorted exponent tuples; the public face takes and gives tuples.  One
weighted sum of products, whose integer numerators are put over the lcm of
the terms' denominators and reduced once, combines polynomials, as
``linear_combination`` combines series: a product is its one-term case, a
sum or a multiple a product with the constant 1, and each Serre derivative
and each tower level one call.  Evaluation is one ``catalog.combine`` of
the catalog's memoized monomial series, so it makes no product of its own
once they exist.  The E*_2m tower (``e_star_poly``) is built in the
divisor-sum normalization S*_{2m-1}(0) E*_2m by the recursion of
Weierstrass' p at the half period, with integer binomial weights and no
derivative, so it reads neither theta nor A, and every denominator is a
power of two.  It is judged by series
equations (``e_star_equations``), one per level, each lifted to the top
weight from the level's own terms: their E* coefficients weigh the
top-weight monomials B^j C^(m-2j) that all levels share, so judging builds
no polynomial.  ``check_positivity`` reads a level and the sign of its
normalizer the same way.
Modular forms of even weight 2k on the level-2 group decompose over the
monomial basis B^j C^(k-2j): ``decompose_modular`` solves for the
coordinates by exact fraction-free elimination and returns them as a
``GradedPoly``, the type ``e_star_poly`` returns.  The module keeps no
state: each level is memoized once, as its divisor-sum form h_m, in the
catalog it was built on, and E*_2m is h_m scaled on each call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, lcm
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Union

from .arith import divisor_sum_zero
from .catalog import SeriesCatalog
from .qseries import QSeries, _over_lcm, _reduce, first_difference, rational_str
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

# a monomial's key: its exponents in fields of _WIDTH bits, A's highest, each
# below _LIMIT, so only a sum that overflows a field sets its top bit
_WIDTH = 21
_LIMIT = 1 << (_WIDTH - 1)
_FIELD = (1 << _WIDTH) - 1
_SHIFTS = (2 * _WIDTH, _WIDTH, 0)


def _pack(exps: Exponents) -> int:
    a, b, c = exps
    return (a << 2 * _WIDTH) | (b << _WIDTH) | c


def _unpack(key: int) -> Exponents:
    return key >> 2 * _WIDTH, (key >> _WIDTH) & _FIELD, key & _FIELD


_TOP = _pack((_LIMIT, _LIMIT, _LIMIT))  # the fields' top bits


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

    Kept as integer numerators per monomial over one positive common
    denominator, reduced, with no zero entries, so equal polynomials have
    equal representations.  Each monomial is keyed by its exponents packed
    into one int (``_pack``), so the product kernel adds keys; an exponent
    of 2^(W-1) = ``_LIMIT`` or more is refused here and by the kernel, so no
    sum carries into the next field.  The exponents come and go as (a, b, c)
    tuples: ``terms`` gives the coefficients as ``Fraction`` values in a
    read-only mapping built on each call.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Optional[Mapping[Exponents, Scalar]] = None):
        terms = dict(terms or {})
        for exps in terms:
            if len(exps) != 3 or not all(isinstance(e, int) for e in exps):
                raise TypeError(f"exponents must be three ints, got {exps!r}")
            if min(exps) < 0:
                raise ValueError(f"exponents must be nonnegative, got {exps!r}")
            if max(exps) >= _LIMIT:
                raise ValueError(f"exponents must be below 2^{_WIDTH - 1}, got {exps!r}")
        nums, self._den = _over_lcm(terms.values())
        self._nums = {_pack(e): x for e, x in zip(terms, nums) if x}

    @classmethod
    def _make(cls, nums: dict[int, int], den: int = 1) -> "GradedPoly":
        """The polynomial sum nums[k] x^k / den over packed keys k, zero
        terms dropped, reduced; the keys are not checked."""
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
        return MappingProxyType({_unpack(k): Fraction(x, den) for k, x in self._nums.items()})

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
        weights = {self.monomial_weight(_unpack(k)) for k in self._nums}
        if not weights:
            return None
        if len(weights) > 1:
            raise NotHomogeneous(f"mixed weights {sorted(weights)}")
        return weights.pop()

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        # the keys sort as the exponent tuples do
        den = self._den
        return [(_unpack(k), Fraction(x, den)) for k, x in sorted(self._nums.items())]

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
        for i, key in enumerate(sorted(self._nums.keys() | other._nums.keys())):
            x, y = self._nums.get(key, 0), other._nums.get(key, 0)
            if x * db != y * da:
                return i, _unpack(key), Fraction(x, da), Fraction(y, db)
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
    tower's terms have power-of-two denominators, so D stays small.  A
    product's key is the sum of its factors' packed keys; a sum with an
    exponent of ``_LIMIT`` or more raises ``ValueError``.
    """
    terms = [(w, f, g, w.denominator * f._den * g._den) for w, f, g in terms if w]
    den = lcm(*(d for *_, d in terms))
    nums: dict[int, int] = {}
    for w, f, g, d in terms:
        weight = w.numerator * (den // d)
        for k1, x in f._nums.items():
            wx = weight * x
            for k2, y in g._nums.items():
                key = k1 + k2
                nums[key] = nums.get(key, 0) + wx * y
    for key in nums:
        if key & _TOP:
            raise ValueError(f"a product has the exponents {_unpack(key)!r}; "
                             f"each must be below 2^{_WIDTH - 1}")
    return GradedPoly._make(nums, den)


_ONE = GradedPoly.monomial((0, 0, 0))

# theta = q d/dq on the generators, the system HAHN-SYS
_THETA = (GradedPoly({(2, 0, 0): Fraction(1, 4), (0, 1, 0): Fraction(-1, 4)}),  # (A^2 - B)/4
          GradedPoly({(1, 1, 0): 1, (0, 1, 1): -1}),                            # AB - BC
          GradedPoly({(1, 0, 1): Fraction(1, 2), (0, 1, 0): Fraction(-1, 2)}))  # (AC - B)/2
_A = GradedPoly.generator("A")
_C = GradedPoly.generator("C")
_E2 = GradedPoly({(1, 0, 0): 3, (0, 0, 1): -2})


def _serre(f: GradedPoly, g: GradedPoly, k: int) -> GradedPoly:
    """theta f - (w/k) g f, w the weight of f, with theta f the chain-rule sum
    of (df/dx_i) theta(x_i); a polynomial of mixed weight raises
    ``NotHomogeneous``."""
    w = f.weight() or 0  # the zero polynomial has no weight, and g 0 = 0
    # the partial derivative of f in the generator whose field is at shift s
    partials = (GradedPoly._make({k - (1 << s): e * x for k, x in f._nums.items()
                                  if (e := (k >> s) & _FIELD)}, f._den)
                for s in _SHIFTS)
    return _sum_of_products([(1, df, theta) for df, theta in zip(partials, _THETA)] + [
        (Fraction(-w, k), g, f)])


def serre_delta(f: GradedPoly) -> GradedPoly:
    """Level-2 Serre derivative theta f - (w/4) A f, w the weight of f; a
    polynomial of mixed weight raises ``NotHomogeneous``."""
    return _serre(f, _A, 4)


def serre_partial(f: GradedPoly) -> GradedPoly:
    """Level-1 Serre derivative theta f - (w/12) E2 f, E2 = 3A - 2C, w the
    weight of f; a polynomial of mixed weight raises ``NotHomogeneous``."""
    return _serre(f, _E2, 12)


def _evaluation_terms(f: GradedPoly, catalog: SeriesCatalog) -> list:
    """The (coefficient, monomial series) pairs whose linear combination is
    f evaluated on the catalog."""
    den = f._den
    return [(Fraction(x, den), catalog.monomial(zip(_SERIES_NAMES, _unpack(k))))
            for k, x in f._nums.items()]


def gp_evaluate(f: GradedPoly, catalog: SeriesCatalog) -> QSeries:
    """Substitute the generator q-expansions and expand exactly.

    Each monomial's series is ``catalog.monomial``, memoized with the
    generator powers, so it is multiplied out once per catalog however many
    polynomials use it.  The result is one ``catalog.combine`` of those
    series; it makes no series product of its own.  The zero polynomial is
    the zero series on the catalog's range.
    """
    if f.is_zero():
        return QSeries.zero(catalog.order)
    return catalog.combine(*_evaluation_terms(f, catalog))


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


def _require_level(m) -> None:
    """Refuse an m that names no level of the E*_2m tower: a non-int or
    m < 2."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"the E*_2m tower is defined for integers m >= 2, got m = {m!r}")


def e_star_order(m: int) -> int:
    """The least catalog order, 2 dim + 6, on which ``e_star_equations``
    compares the tower up to weight 2m; m must be an int >= 2."""
    _require_level(m)
    return 2 * modular_dimension(2 * m) + 6


def _solve_level(mm: int, tower: list) -> GradedPoly:
    """h_mm = S*_{2mm-1}(0) E*_{2mm} from the levels tower[2..mm-1] by the
    recursion of Weierstrass' p at the half period:

        h_2 = S*_3(0) B,
        h_mm = -2 C h_{mm-1} - 12 sum_{k=2}^{mm-2} C(2mm-4, 2k-2) h_k h_{mm-k}.

    The C h_{mm-1} term and the convolution, over the symmetric k and mm - k
    pairs with integer weights, are one ``_sum_of_products``; it takes no
    derivative and no A, and every level's denominator is a power of two.
    """
    if mm == 2:
        return GradedPoly.monomial((0, 1, 0), divisor_sum_zero("sigma_star", 3))
    # C(2mm-4, 2k-2) = C(2mm-4, 2(mm-k)-2), so the k and mm-k terms are one product
    return _sum_of_products([(-2, _C, tower[mm - 1])] + [
        (-12 * (1 if 2 * k == mm else 2) * comb(2 * mm - 4, 2 * k - 2), tower[k], tower[mm - k])
        for k in range(2, mm // 2 + 1)])


def _tower(m: int, catalog: SeriesCatalog) -> Iterator[GradedPoly]:
    """The levels h_2, ..., h_m, each memoized in the catalog as
    ``sigma{2mm-1}star_poly`` and built from the levels below only when it
    is drawn."""
    tower: list = [None, None]
    for mm in range(2, m + 1):
        tower.append(catalog._memo(f"sigma{2 * mm - 1}star_poly",
                                   lambda: _solve_level(mm, tower)))
        yield tower[mm]


def _level(m: int, catalog: SeriesCatalog) -> GradedPoly:
    """h_m: one lookup when the catalog holds it, else the walk of
    ``_tower`` up to it.  m must be an int >= 2, else ``ValueError``."""
    _require_level(m)

    def build() -> GradedPoly:
        *_, h = _tower(m, catalog)
        return h

    return catalog._memo(f"sigma{2 * m - 1}star_poly", build)


def e_star_poly(m: int, catalog: SeriesCatalog) -> GradedPoly:
    """The weight-2m level-2 series as a polynomial in B and C.

    Weierstrass' p for the lattice Z + tau Z, expanded at the half period
    1/2, has Taylor coefficients that Lipschitz's formula turns into the
    level-2 series E*_{2k}.  Its equation p'' = 6 p^2 - g2/2 then holds for
    the generating function Q(x) = sum_{m>=2} h_m x^(2m-2)/(2m-2)! of the
    polynomials h_m = S*_{2m-1}(0) E*_{2m}, with S*_{2k-1}(0) =
    ``divisor_sum_zero("sigma_star", 2k-1)``, in the form

        Q'' = h_2 - 2 C Q - 12 Q^2,

    and its coefficients are the recursion of ``_solve_level``: integer
    binomial weights, no derivative, no A and power-of-two denominators (see
    Apostol, Modular Functions and Dirichlet Series in Number Theory, ch. 1).
    E*_{2m} is h_m over S*_{2m-1}(0).  The premise, Weierstrass' equation
    and Lipschitz's formula, is stated and not computed; no report rests on
    it, since ``e_star_equations`` compares every level with its
    q-expansion.

    Nothing is compared here.  Each h_m is memoized as
    ``sigma{2m-1}star_poly`` in the catalog, whatever its order, and E*_{2m}
    is not: each call scales h_m anew.  A level the catalog holds is one
    lookup; a new one walks the h levels up to it.  T49 reads the h levels
    alone and builds an E*_{2m} only to name a positivity witness.  m must
    be an int >= 2, else ``ValueError``.
    """
    return _level(m, catalog).scale(1 / divisor_sum_zero("sigma_star", 2 * m - 1))


def e_star_equations(m: int, catalog: SeriesCatalog) -> Iterator[tuple]:
    """One series equation (lhs, rhs, note) per level 3..m of the tower,
    each level h_mm built (``_tower``) only when its equation is drawn.

    Level mm is compared on the catalog's whole range, lifted to weight 2m
    from h_mm's own terms: x B^j C^(mm-2j) weighs the top-weight monomial
    B^j C^(m-2j) by x / S*_{2mm-1}(0), its E*_{2mm} coefficient, so no
    polynomial is built and every level evaluates the same monomials.  They
    sit in a list indexed by j, each filled from ``catalog.monomial`` on
    first use; a term of any other shape (an A, or the wrong weight) is
    times C^(m-mm) through ``catalog.monomial``.  The series is multiplied
    by C^(m-mm), one product.  C has constant term 1, so it is a unit: the
    lifted difference is the unlifted one times C^(m-mm), with the same
    first exponent and coefficient there.  The equation is
    E*_{2mm} + (lifted polynomial - lifted series) = E*_{2mm}, so a failure
    names the unlifted values.  The basis is independent, so agreement fixes
    every coordinate; ``positivity_witness`` also refuses a monomial outside
    it.  E*_4 = h_2/S*_3(0) = B holds by construction, with no equation.  m
    must be an int >= 2 and the catalog must reach ``e_star_order(m)``, else
    ``ValueError`` on the call.
    """
    need = e_star_order(m)
    if catalog.order < need:
        raise ValueError(f"E{2 * m}star_poly needs order >= {need}, got {catalog.order}")
    top: list = [None] * (m // 2 + 1)  # B^j C^(m-2j), filled on first use
    # B_2m now, one Bernoulli memo extension for every level's S*(0); after
    # ``top``, whose size refuses an m past the index range or past memory at
    # once, where this Bernoulli loop would run on for a long time first
    divisor_sum_zero("sigma_star", 2 * m - 1)

    def level(mm: int, h: GradedPoly) -> tuple:
        series, shift = catalog.level2(mm), m - mm
        lifted = series * catalog.power("C", shift) if shift else series
        s = divisor_sum_zero("sigma_star", 2 * mm - 1)
        p, q = h._den * s.numerator, s.denominator
        terms = []
        for key, x in h._nums.items():
            a, b, c = _unpack(key)
            if a or 2 * b + c != mm:
                mono = catalog.monomial(zip(_SERIES_NAMES, (a, b, c + shift)))
            else:
                mono = top[b]
                if mono is None:
                    mono = top[b] = catalog.monomial(zip(_SERIES_NAMES, (0, b, m - 2 * b)))
            terms.append((Fraction(x * q, p), mono))
        lhs = catalog.combine((1, series), (-1, lifted), *terms)
        return (lhs, series,
                f"E{2 * mm}star polynomial: differential recursion against the q-expansion")

    return (level(mm, h) for mm, h in enumerate(islice(_tower(m, catalog), 1, None), 3))


def _in_cone(key: int, x: int, m: int) -> bool:
    """Whether the term x A^a B^b C^c, packed key, lies in B * Q_+[B, C] at
    weight 2m: x > 0, a = 0, b >= 1 and 4b + 2c = 2m."""
    a, b, c = _unpack(key)
    return x > 0 and not a and b >= 1 and 2 * b + c == m


def positivity_witness(
    poly: GradedPoly, m: int
) -> Optional[tuple[Exponents, Fraction]]:
    """The least monomial of poly that keeps it out of B * Q_+[B, C] at
    weight 2m, with its coefficient; None when every monomial has a strictly
    positive coefficient, B-exponent at least 1, no A-exponent and weight
    exactly 2m."""
    for key in sorted(poly._nums):
        x = poly._nums[key]
        if not _in_cone(key, x, m):
            return _unpack(key), Fraction(x, poly._den)
    return None


def check_positivity(m: int, catalog: SeriesCatalog) -> bool:
    """True when E*_{2m} is nonzero and lies in B * Q_+[B, C]
    (``positivity_witness`` finds no monomial outside it).

    It reads h_m = S*_{2m-1}(0) E*_{2m} (``_level``, a memo hit once the
    catalog holds the level) and the exact sign of S*_{2m-1}(0): E*_{2m}'s
    coefficients are h_m's over that constant, so each is positive when h_m's
    has its sign, and no E*_{2m} is built.  It judges no series, which is
    the job of ``e_star_equations``.
    """
    h = _level(m, catalog)
    sign = 1 if divisor_sum_zero("sigma_star", 2 * m - 1) > 0 else -1
    return not h.is_zero() and all(_in_cone(k, sign * x, m) for k, x in h._nums.items())
