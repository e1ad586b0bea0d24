"""Theorem registry: every identity as an exact, localizing check.

Series identities are certified coefficient-by-coefficient up to the
truncation order.  Convolution identities over n are certified on an
explicit index range (the --nmax flag): each is a series equation between
products of the divisor-sum series sum sigma_s(n) q^n and sum sigma*_s(n) q^n
truncated at q^nmax, so the coefficient of q^n is the identity at index n.
A failing check always reports the first offending exponent or index
together with both exact values.  An equation check is a builder over one
``SeriesCatalog``, the one at the order ``_ranges`` gives its scope, that
builds every side through the catalog's protocol (its class docstring) and
returns its series equations, (lhs, rhs) or (lhs, rhs, note); ``_compare``
compares them with ``first_difference`` and reports the first that fails,
or the lowest failing exponent where a check asks for it.  The order the
report prints is that same range.  The scans test other predicates on the
workspace's catalogs and return their discrepancy themselves.  ``run_all``
runs the checks that read the highest catalog order first, so that a lower
order truncates the series a higher one built.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import arith
from .catalog import SeriesCatalog
from .graded import (
    GradedPoly,
    check_positivity,
    e_star_equations,
    e_star_order,
    e_star_poly,
    gp_evaluate,
    positivity_witness,
    serre_delta,
)
from .qseries import QSeries, first_difference, rational_str
from .qseries import qs_det  # noqa: F401  (perfbench's tracer wraps it here)
from .scalars import ks_coefficient, rs_coefficient

__all__ = [
    "CheckReport",
    "TheoremCheck",
    "UnknownTheoremId",
    "REGISTRY",
    "registry_ids",
    "resolve_ids",
    "run_check",
    "run_all",
]


class UnknownTheoremId(KeyError):
    """The requested id is not in the registry."""


Discrepancy = tuple[int, Fraction, Fraction]


class CheckReport(NamedTuple):
    """Outcome of one registry check.  A named tuple, since ``run_check``
    makes one per check: it is built in less than half the time of a frozen
    dataclass, which sets each field through ``object.__setattr__``."""

    id: str
    order: int
    status: str  # "pass" | "fail"
    first_discrepancy: Optional[Discrepancy]
    elapsed_ms: int
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        disc = None
        if self.first_discrepancy is not None:
            n, lhs, rhs = self.first_discrepancy
            disc = {"n": n, "lhs": rational_str(lhs), "rhs": rational_str(rhs)}
        payload = {
            "id": self.id,
            "order": self.order,
            "status": self.status,
            "first_discrepancy": disc,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.notes:
            payload["notes"] = list(self.notes)
        return payload

    def line(self) -> str:
        """One deterministic human-readable line (no timing)."""
        if self.status == "pass":
            base = f"pass  {self.id}  (order {self.order})"
        else:
            n, lhs, rhs = self.first_discrepancy
            base = (
                f"FAIL  {self.id}  (order {self.order}) at n={n}: "
                f"{rational_str(lhs)} != {rational_str(rhs)}"
            )
        for note in self.notes:
            base += f"\n      note: {note}"
        return base


class Workspace:
    """Shared inputs for the runners: the sizes and one series memo.  A
    catalog at any order is a view of that memo, made on each call, so a
    lower order truncates what a higher one built."""

    def __init__(self, order: int, nmax: int, mmax: int):
        self.order = order
        self.nmax = nmax
        self.mmax = mmax
        self._memo: dict = {}

    def catalog_at(self, order: int) -> SeriesCatalog:
        return SeriesCatalog(order, self._memo)

    @property
    def catalog(self) -> SeriesCatalog:
        return self.catalog_at(self.order)

    @property
    def rcat(self) -> SeriesCatalog:
        return self.catalog_at(self.nmax)

    def sigma_range(self, s: int, upto: int) -> QSeries:
        """No caller in the package; kept only because perfbench's tracer pins it."""
        return self.catalog_at(upto).sigma(s)

    def sigma_star_range(self, s: int, upto: int) -> QSeries:
        """No caller in the package; kept only because perfbench's tracer pins it."""
        return self.catalog_at(upto).sigma_star(s)

    def r_table(self, s: int) -> QSeries:
        """No caller in the package; kept only because perfbench's tracer pins it."""
        return self.rcat.power("theta3", s)

    def tau_range(self, upto: int) -> QSeries:
        """No caller in the package; kept only because perfbench's tracer pins it."""
        return self.catalog_at(upto).delta()


Runner = Callable[[Workspace, list[str]], Optional[Discrepancy]]
Equation = tuple  # (lhs, rhs) or (lhs, rhs, note): two series, equal
Builder = Callable[[SeriesCatalog], Iterable[Equation]]


# a dataclass because perfbench's tracer rewraps runners with dataclasses.replace
@dataclass(frozen=True)
class TheoremCheck:
    id: str
    description: str
    runner: Runner
    scope: str  # "order" | "range" | "tau1000" | "mmax" | "table" | "delta8"
    equations: Optional[Builder] = None  # None for a scan
    # the id's natural order, parsed once here so that sorting by id parses
    # nothing at run time
    sort_key: tuple = ()


_DIGITS = re.compile(r"(\d+)")


def _natural_key(s: str) -> tuple:
    return tuple([int(t) if t.isdigit() else t for t in _DIGITS.split(s)])


REGISTRY: dict[str, TheoremCheck] = {}

_ALIASES = {"DELTA-L2": "DIS"}


def _register(id: str, description: str, scope: str = "order", equations=None):
    def wrap(fn: Runner) -> Runner:
        if id in REGISTRY:
            raise ValueError(f"duplicate registry id {id!r}")
        REGISTRY[id] = TheoremCheck(id, description, fn, scope, equations, _natural_key(id))
        return fn

    return wrap


def _equation_check(id: str, description: str, scope: str = "order",
                    earliest: bool = False):
    # the stored runner compares, so whatever wraps a runner also wraps the compare
    def wrap(build: Builder) -> Builder:
        _register(id, description, scope, build)(
            lambda ws, notes: _compare(build(ws.catalog_at(_ranges(ws)[scope])), notes,
                                       earliest))
        return build

    return wrap


def _compare(equations: Iterable[Equation], notes: list[str],
             earliest: bool = False) -> Optional[Discrepancy]:
    """Compare the equations in order: report the first that fails and append
    its note, reading a generator no further.  With ``earliest``, compare them
    all and report the one failing at the lowest exponent, the earlier on a
    tie."""
    found = None
    for lhs, rhs, *note in equations:
        d = first_difference(lhs, rhs)
        if d and (found is None or d[0] < found[0][0]):
            found = d, note
            if not earliest:
                break
    if found is None:
        return None
    notes.extend(found[1])
    return found[0]


def _first_non_multiple(series: QSeries, m: int) -> Optional[Discrepancy]:
    """The first coefficient of the series outside m Z, as (n, value, 0)."""
    nums, den = series.numerators, series.denominator
    # c_n = nums[n]/den lies in m Z exactly when m den divides nums[n]
    for n, x in enumerate(nums):
        if x % (m * den):
            return (n, Fraction(x, den), Fraction(0))
    return None


# ---------------------------------------------------------------------------
# level-1 differential equations


@_equation_check(
    "RAM-DE",
    "classical system qP'=(P^2-Q)/12, qQ'=(PQ-R)/3, qR'=(PR-Q^2)/2 "
    "for P=E2, Q=E4, R=E6",
)
def _ram_de(cat: SeriesCatalog) -> list[Equation]:
    p, q, r = cat.level1(1), cat.level1(2), cat.level1(3)
    pq = cat.product
    return [
        (p.theta(), cat.combine((Fraction(1, 12), pq("E2", "E2")), (Fraction(-1, 12), q))),
        (q.theta(), cat.combine((Fraction(1, 3), pq("E2", "E4")), (Fraction(-1, 3), r))),
        (r.theta(), cat.combine((Fraction(1, 2), pq("E2", "E6")),
                                (Fraction(-1, 2), pq("E4", "E4")))),
    ]


# ---------------------------------------------------------------------------
# the differential families at both levels


# the displayed forms, {(level, m): {k-tuple: coefficient}}: q E_{2m-2}' is
# also the sum of coefficient * prod_k E_{2k}, in the level's series
_DISPLAYED_FORMS: dict[tuple[int, int], dict[tuple[int, ...], Fraction]] = {
    # the weight-8 equation collapses because E4*E6 equals E10
    (1, 5): {(1, 4): Fraction(2, 3), (5,): Fraction(-2, 3)},
    (2, 2): {(1, 1): Fraction(1, 4), (2,): Fraction(-1, 4)},
    (2, 3): {(1, 2): Fraction(1), (3,): Fraction(-1)},
    (2, 4): {(1, 3): Fraction(3, 2), (2, 2): Fraction(5, 8), (4,): Fraction(-17, 8)},
    (2, 5): {(1, 4): Fraction(2), (2, 3): Fraction(28, 17), (5,): Fraction(-62, 17)},
}

_KS_SPECIALS: dict[int, str] = {
    2: "qA' = (A^2 - B)/4",
    3: "qB' = A B - E6*",
    4: "qE6*' = (12 A E6* + 5 B^2 - 17 E8*)/8",
    5: "qE8*' = (34 A E8* + 28 B E6* - 62 E10*)/17",
}


def _eisenstein_name(level: int, k: int) -> str:
    """The catalog name of E_{2k} at level 1 and of E*_{2k} at level 2."""
    return f"E{2 * k}{'' if level == 1 else 'star'}"


def _de_equations(m: int, level: int) -> Builder:
    """RS-DE(m) at level 1 or KS-DE(m) at level 2: q E_{2m-2}' as the
    weighted convolution of lower series, then as the displayed form.

    Both coefficient functions are symmetric in k <-> m - k, so the k and
    m - k terms are one product of weight 2 (weight 1 at k = m/2).  The sum
    of w_k (E_{2k} E_{2m-2k} - E_{2m}) is one linear combination, in which
    E_{2m} has the one weight -sum w_k.  Every product is the catalog's, so
    the families and the other checks share it."""

    def name(k: int) -> str:
        return _eisenstein_name(level, k)

    def build(cat: SeriesCatalog) -> Iterable[Equation]:
        # the coefficient function and the forms are looked up when the check
        # runs, so a patched module attribute takes effect
        coefficient = rs_coefficient if level == 1 else ks_coefficient
        lhs = cat.by_name(name(m - 1)).theta()
        terms = [((1 if 2 * k == m else 2) * coefficient(m, k),
                  cat.product(name(k), name(m - k))) for k in range(1, m // 2 + 1)]
        top = (-sum(w for w, _ in terms), cat.by_name(name(m)))
        yield lhs, cat.combine(*terms, top)
        form = _DISPLAYED_FORMS.get((level, m))
        if form is not None:
            yield lhs, cat.combine(*((c, cat.product(*map(name, ks))) for ks, c in form.items()))

    return build


for _m in range(2, 13):
    _equation_check(
        f"RS-DE({_m})",
        f"weight-{2 * _m - 2} level-1 differential equation: q E_{2 * _m - 2}' "
        "as a zeta-weighted convolution of lower series",
    )(_de_equations(_m, 1))
    _equation_check(
        f"KS-DE({_m})",
        f"weight-{2 * _m - 2} level-2 differential equation: q E*_{2 * _m - 2}' "
        "as a lambda-weighted convolution of lower series"
        + (f"; includes displayed form {_KS_SPECIALS[_m]}" if _m in _KS_SPECIALS else ""),
    )(_de_equations(_m, 2))


# ---------------------------------------------------------------------------
# level-2 differential equations


@_equation_check("E6STAR-ABC", "C E4* = E6*, and qE6*' = (3ABC - B^2 - 2BC^2)/2")
def _e6star_abc(cat: SeriesCatalog) -> list[Equation]:
    pq = cat.product
    rhs = cat.combine((Fraction(3, 2), pq("E2star", "E4star", "C")),
                      (Fraction(-1, 2), pq("E4star", "E4star")), (-1, pq("E4star", "C", "C")))
    return [
        (pq("C", "E4star"), cat.level2(3), "C E4* = E6* for C = 1 + 24 sum sigma#(n) q^n"),
        (cat.level2(3).theta(), rhs),
    ]


@_equation_check(
    "HAHN-SYS",
    "closed system for (A, C, B): qA'=(A^2-B)/4, qC'=(AC-B)/2, qB'=AB-CB",
)
def _hahn_sys(cat: SeriesCatalog) -> list[Equation]:
    a, b, c = cat.level2(1), cat.level2(2), cat.C()
    pq = cat.product
    return [
        (a.theta(), cat.combine((Fraction(1, 4), pq("E2star", "E2star")), (Fraction(-1, 4), b))),
        (c.theta(), cat.combine((Fraction(1, 2), pq("E2star", "C")), (Fraction(-1, 2), b))),
        (b.theta(), pq("E2star", "E4star") - pq("C", "E4star")),
    ]


# ---------------------------------------------------------------------------
# divisor-sum convolution identities


@_equation_check(
    "SIGMA3-CLASSICAL",
    "sigma_3(n) = (6/5)(n sigma(n) + 2 sum_j sigma(j) sigma(n-j)) on 0..nmax",
    scope="range",
)
def _sigma3_classical(cat: SeriesCatalog) -> list[Equation]:
    s1, s3 = cat.sigma(1), cat.sigma(3)
    return [(s3, cat.combine((Fraction(6, 5), s1.theta()), (Fraction(12, 5), s1 * s1)))]


@_equation_check(
    "T7",
    "sigma_13(n) = (2730/691)(24 sum_j sigma(j) sigma_11(n-j) + n sigma_11(n)) "
    "on 0..nmax",
    scope="range",
)
def _t7(cat: SeriesCatalog) -> list[Equation]:
    s1, s11, s13 = cat.sigma(1), cat.sigma(11), cat.sigma(13)
    rhs = cat.combine((Fraction(24 * 2730, 691), s1 * s11), (Fraction(2730, 691), s11.theta()))
    return [(s13, rhs)]


@_equation_check(
    "T5",
    "sigma*_3(n) = 2n sigma*(n) - 4 sum_j sigma*(j) sigma*(n-j) on 0..nmax",
    scope="range",
)
def _t5(cat: SeriesCatalog) -> list[Equation]:
    s1, s3 = cat.sigma_star(1), cat.sigma_star(3)
    return [(s3, cat.combine((2, s1.theta()), (-4, s1 * s1)))]


# ---------------------------------------------------------------------------
# the discriminant and tau


@_equation_check("L4", "1728 Delta = 3 E6 qE4' - 2 E4 qE6' as series")
def _l4(cat: SeriesCatalog) -> list[Equation]:
    e4, e6 = cat.level1(2), cat.level1(3)
    rhs = cat.combine((3, e6 * e4.theta()), (-2, e4 * e6.theta()))
    return [(cat.delta().scale(1728), rhs)]


@_equation_check(
    "T8",
    "tau(n) = 70 sum_{j+k=n} (2k-3j) sigma_3(j) sigma_5(k) on 0..nmax",
    scope="range",
)
def _t8(cat: SeriesCatalog) -> list[Equation]:
    s3, s5, tau = cat.sigma(3), cat.sigma(5), cat.delta()
    return [(tau, cat.combine((140, s3 * s5.theta()), (-210, s3.theta() * s5)))]


@_register(
    "C1",
    "tau(n) - (n/12)(5 sigma_3(n) + 7 sigma_5(n)) is an integer divisible by 70 "
    "on 0..nmax",
    scope="range",
)
def _c1(ws: Workspace, notes: list[str]) -> Optional[Discrepancy]:
    cat = ws.rcat
    s3, s5, tau = cat.sigma(3), cat.sigma(5), cat.delta()
    diff = cat.combine((1, tau), (Fraction(-5, 12), s3.theta()), (Fraction(-7, 12), s5.theta()))
    return _first_non_multiple(diff, 70)


@_equation_check(
    "T314",
    "tau(n) = 2 sum_{j+k=n} (3j-2k) sigma*_3(j) sigma*_5(k) on 0..nmax",
    scope="range",
)
def _t314(cat: SeriesCatalog) -> list[Equation]:
    s3, s5, tau = cat.sigma_star(3), cat.sigma_star(5), cat.delta()
    return [(tau, cat.combine((6, s3.theta() * s5), (-4, s3 * s5.theta())))]


@_register(
    "C2",
    "tau(n) = (n/4)(3 sigma*_3(n) + sigma*_5(n)) mod 2, and tau(n) odd iff "
    "n(3 sigma*_3(n) + sigma*_5(n)) = 4 mod 8, on 1..nmax",
    scope="range",
)
def _c2(ws: Workspace, notes: list[str]) -> Optional[Discrepancy]:
    cat = ws.rcat
    s3, s5, tau = cat.sigma_star(3), cat.sigma_star(5), cat.delta()
    # the parity clause needs no scan of its own: with c = n(3 sigma*_3(n) +
    # sigma*_5(n)), once tau(n) - c/4 lies in 2Z the integer c/4 has the
    # parity of tau(n), so c = 4 mod 8 exactly when tau(n) is odd (both
    # sides are 0 at n = 0)
    diff = cat.combine((1, tau), (Fraction(-3, 4), s3.theta()), (Fraction(-1, 4), s5.theta()))
    return _first_non_multiple(diff, 2)


# ---------------------------------------------------------------------------
# determinant identities


def _minor(cat: SeriesCatalog, level: int, rows: Sequence[int],
           cols: Sequence[int]) -> QSeries:
    """The minor on the given rows and columns of the Hankel array whose
    (i, j) entry is E_{2(i+j)} at level 1 and E*_{2(i+j)} at level 2.

    Expanded along its first row down to 2x2 minors, each the difference of
    two catalog products, so every pair E_{2i} E_{2j} is the memoized one the
    other checks share; the catalog drops an index-0 entry, the series 1.
    The cofactors of a larger minor have no name, so its outer products are
    plain ones."""
    if len(rows) == 2:
        (r0, r1), (c0, c1) = rows, cols

        def pair(i: int, j: int) -> QSeries:
            return cat.product(_eisenstein_name(level, i), _eisenstein_name(level, j))

        return pair(r0 + c0, r1 + c1) - pair(r0 + c1, r1 + c0)
    return cat.combine(
        *((-1 if j % 2 else 1, cat.by_name(_eisenstein_name(level, rows[0] + col))
           * _minor(cat, level, rows[1:], cols[:j] + cols[j + 1:]))
          for j, col in enumerate(cols)))


@_equation_check(
    "MINORS-L1",
    "minors of the level-1 Hankel array are derivative multiples: "
    "|E0 E2; E2 E4| = -12 qE2', |E0 E2; E4 E6| = -3 qE4', "
    "|E2 E4; E4 E6| = 2 qE6', |E2 E6; E4 E8| = (3/2) qE8'",
)
def _minors_l1(cat: SeriesCatalog) -> list[Equation]:
    e = cat.level1
    return [
        (_minor(cat, 1, (0, 1), (0, 1)), e(1).theta().scale(-12)),
        (_minor(cat, 1, (0, 2), (0, 1)), e(2).theta().scale(-3)),
        (_minor(cat, 1, (1, 2), (0, 1)), e(3).theta().scale(2)),
        (_minor(cat, 1, (1, 2), (0, 2)), e(4).theta().scale(Fraction(3, 2))),
    ]


@_equation_check(
    "GARVAN",
    "3x3 Hankel determinant of E4..E12 equals -(250/691)(1728 Delta)^2",
)
def _garvan(cat: SeriesCatalog) -> list[Equation]:
    det = _minor(cat, 1, (2, 3, 4), (0, 1, 2))
    return [(det, cat.power("delta", 2).scale(1728**2 * Fraction(-250, 691)))]


@_equation_check(
    "DIS",
    "discriminant route agreement: eta product = (E4^3-E6^2)/1728 "
    "= -(E4*^3-E6*^2)/64",
)
def _dis(cat: SeriesCatalog) -> list[Equation]:
    power, delta = cat.power, cat.delta()
    return [
        (delta, cat.combine((Fraction(1, 1728), power("E4", 3)),
                            (Fraction(-1, 1728), power("E6", 2))),
         "eta product against the level-1 route (E4^3-E6^2)/1728"),
        (delta, cat.combine((Fraction(-1, 64), power("E4star", 3)),
                            (Fraction(1, 64), power("E6star", 2))),
         "eta product against the level-2 route -(E4*^3-E6*^2)/64"),
    ]


@_equation_check("L5", "|E0* E4*; E4* E8*| = (512/17) B D as series")
def _l5(cat: SeriesCatalog) -> list[Equation]:
    rhs = cat.product("E4star", "D").scale(Fraction(512, 17))
    return [(_minor(cat, 2, (0, 2), (0, 2)), rhs)]


_DET_L2_CONSTANT = Fraction(-(2**13) * 3**5 * 5**2, 17**3 * 31**2 * 691)


@_equation_check(
    "DET-L2",
    "level-2 determinant identities: |E4* E6*; E6* E8*| = -(576/17) Delta, "
    "|E4* E8*; E6* E10*| = -(11520/527) C Delta, |E6* E8*; E8* E10*| = "
    "(576/8959)(279B - 92C^2) Delta, and the 3x3 Hankel determinant of "
    "E4*..E12* = -(2^13 3^5 5^2 / (17^3 31^2 691))(961B + 3136C^2) B D Delta",
)
def _det_l2(cat: SeriesCatalog) -> list[Equation]:
    e = cat.level2
    b, c2, bd_delta = e(2), cat.power("C", 2), cat.product("E4star", "D", "delta")
    delta = cat.delta()
    return [
        (_minor(cat, 2, (2, 3), (0, 1)), delta.scale(Fraction(-(2**6) * 3**2, 17))),
        (_minor(cat, 2, (2, 3), (0, 2)),
         cat.product("C", "delta").scale(Fraction(-(2**8) * 3**2 * 5, 17 * 31))),
        (_minor(cat, 2, (3, 4), (0, 1)),
         (cat.combine((279, b), (-92, c2)) * delta).scale(Fraction(2**6 * 3**2, 17**2 * 31))),
        (_minor(cat, 2, (2, 3, 4), (0, 1, 2)),
         (cat.combine((961, b), (3136, c2)) * bd_delta).scale(_DET_L2_CONSTANT)),
    ]


# ---------------------------------------------------------------------------
# Serre derivative structure


@_register(
    "P4",
    "generator rules dA = -(A^2+B)/4, dB = -BC, dC = -B/2, verified at the "
    "polynomial level and against the q-expansions",
)
def _p4(ws: Workspace, notes: list[str]) -> Optional[Discrepancy]:
    expected = {
        "A": GradedPoly({(2, 0, 0): Fraction(-1, 4), (0, 1, 0): Fraction(-1, 4)}),
        "B": GradedPoly({(0, 1, 1): Fraction(-1)}),
        "C": GradedPoly({(0, 1, 0): Fraction(-1, 2)}),
    }
    for name, target in expected.items():
        image = serre_delta(GradedPoly.generator(name))
        d = image.first_difference(target)
        if d:
            n, exps, lhs, rhs = d
            notes.append(f"polynomial rule for {name} broken at {image.monomial_name(exps)}"
                         f": {rational_str(lhs)} != {rational_str(rhs)}")
            return (n, lhs, rhs)
    cat = ws.catalog
    # each generator's series name and weight
    gens = {"A": ("E2star", 2), "B": ("E4star", 4), "C": ("C", 2)}
    return _compare(
        ((cat.combine((1, cat.by_name(key).theta()),
                      (Fraction(-weight, 4), cat.product("E2star", key))),
          gp_evaluate(serre_delta(GradedPoly.generator(name)), cat),
          f"series-level rule for {name} broken")
         for name, (key, weight) in gens.items()),
        notes)


@_register(
    "T49",
    "positivity: the weight-2m level-2 series is B times a positive rational "
    "polynomial in B and C, for 2 <= m <= mmax",
    scope="mmax",
)
def _t49(ws: Workspace, notes: list[str]) -> Optional[Discrepancy]:
    if ws.mmax < 2:
        return None
    # every level is compared on the top level's catalog, then judged there
    cat = ws.catalog_at(e_star_order(ws.mmax))
    d = _compare(e_star_equations(ws.mmax, cat), notes)
    if d:
        return d
    for m in range(2, ws.mmax + 1):
        if not check_positivity(m, cat):
            _, coeff = positivity_witness(e_star_poly(m, cat), m)
            return (m, coeff, Fraction(0))
    return None


@_equation_check(
    "DELTA-FAMILY",
    "the weight-4 Serre derivative sends E6*^2/E4*^2, E4*, E8*/E4*, E10*/E6* "
    "and E4 to one common series",
)
def _delta_family(cat: SeriesCatalog) -> list[Equation]:
    def delta4(*names: str) -> QSeries:
        # the weight-4 Serre derivative of the product of the named series
        return cat.product(*names).theta() - cat.product("E2star", *names)

    image = delta4("C", "C")

    def cleared(num: str, den: str) -> tuple[QSeries, QSeries]:
        # image = delta4(N/G) as image G^2 = theta N G - N theta G - A N G
        n, g = cat.by_name(num), cat.by_name(den)
        return (image * cat.power(den, 2),
                cat.combine((1, n.theta() * g), (-1, n * g.theta()),
                            (-1, cat.product("E2star", num, den))))

    return [
        (image, delta4("E4star")),
        cleared("E8star", "E4star"),
        cleared("E10star", "E6star"),
        (image, delta4("E4")),
    ]


# ---------------------------------------------------------------------------
# theta series and representation counts


@_equation_check(
    "THETA-REL",
    "the eighth theta power at -q equals the weight-4 level-2 series, "
    "coefficients 0..nmax",
    scope="range",
)
def _theta_rel(cat: SeriesCatalog) -> list[Equation]:
    return [(cat.power("theta3", 8).neg_q(), cat.level2(2))]


def _square_counts(nmax: int) -> dict[int, list[int]]:
    """r_s(n) for n = 0..nmax and s = 2, 4, 6, 8 by the classical divisor
    formulas, in one integer sieve over the multiples n = d e of each
    d <= nmax, about nmax ln nmax steps with no divisor list:

        r_2(n) = 4 sum chi(d),  r_4(n) = 8 sum_{4 not | d} d,
        r_6(n) = 4 sum chi(d) (4 e^2 - d^2),
        r_8(n) = 16 (-1)^n sum (-1)^d d^3,

    each sum over the divisors d of n, e = n/d and chi = chi_{-4}, which is
    1, -1 at d = 1, 3 mod 4 and 0 at even d.  The constant factors go on
    at the end, and slot 0 holds r_s(0) = 1.
    """
    r2, r4, r6, r8 = ([0] * (nmax + 1) for _ in range(4))
    for d in range(1, nmax + 1):
        multiples = range(d, nmax + 1, d)
        cube = d * d * d
        if d % 2:
            chi = 1 if d % 4 == 1 else -1
            dd = d * d
            for e, n in enumerate(multiples, 1):
                r2[n] += chi
                r4[n] += d
                r6[n] += chi * (4 * e * e - dd)
                r8[n] -= cube
        else:
            if d % 4:
                for n in multiples:
                    r4[n] += d
            for n in multiples:
                r8[n] += cube
    counts = {2: [4 * x for x in r2], 4: [8 * x for x in r4],
              6: [4 * x for x in r6],
              8: [-16 * x if n % 2 else 16 * x for n, x in enumerate(r8)]}
    for r in counts.values():
        r[0] = 1
    return counts


@_equation_check(
    "JACOBI",
    "classical 2, 4, 6, 8-square counts from divisor data on 0..nmax "
    "(two-square case uses divisor counts mod 4)",
    scope="range",
)
def _jacobi(cat: SeriesCatalog) -> Iterable[Equation]:
    for s, counts in _square_counts(cat.order).items():
        yield cat.power("theta3", s), cat.enumerated(counts), f"{s}-square formula"


@_equation_check(
    "T9",
    "sixteen-square count: r_16(n) = (-1)^n (32/17)(256 sum_j sigma*_3(j) "
    "delta_8(n-j-1) - sigma*_7(n)) on 0..nmax",
    scope="range",
)
def _t9(cat: SeriesCatalog) -> list[Equation]:
    r16, s3, s7 = cat.power("theta3", 16), cat.sigma_star(3), cat.sigma_star(7)
    # D = sum delta_8(n-1) q^n: its q^(n+1) coefficient counts the
    # 8-triangular-number representations of n
    d8 = cat.D()
    rhs = cat.combine((Fraction(256 * 32, 17), s3 * d8), (Fraction(-32, 17), s7)).neg_q()
    return [(r16, rhs)]


_DELTA8_N = 51  # DELTA8 compares D on q^0..q^this


def _triangular_counts(order: int) -> list[int]:
    """D's coefficients on q^0..q^order by enumeration: 0, then at q^(n+1)
    the ordered sums of 8 triangular numbers equal to n.  It reads
    ``arith.delta8_oracle`` when called, so a patch of it takes effect."""
    return [0] + [arith.delta8_oracle(n) for n in range(order)]


@_equation_check(
    "DELTA8",
    "D = -(E4* - C^2)/64 against an enumeration: its q^(n+1) coefficient counts "
    f"the ordered sums of 8 triangular numbers equal to n, on q^0..q^{_DELTA8_N}",
    scope="delta8",
)
def _delta8(cat: SeriesCatalog) -> list[Equation]:
    return [(cat.D(), cat.enumerated(_triangular_counts(cat.order)))]


@_equation_check(
    "R24-FACT",
    "24-square count from sigma_11 and tau at n, n/2, n/4 with the "
    "1/691 normalization, on 0..nmax",
    scope="range",
)
def _r24_fact(cat: SeriesCatalog) -> list[Equation]:
    s11, tau = cat.sigma(11), cat.delta()
    rhs = cat.combine((Fraction(16, 691), s11), (Fraction(-32, 691), s11.dilate(2)),
                      (Fraction(65536, 691), s11.dilate(4)),
                      (Fraction(-65536, 691), tau.dilate(2)),
                      (Fraction(-33152, 691), tau.neg_q()))
    return [(cat.power("theta3", 24), rhs)]


def _conv55_conv37(cat: SeriesCatalog) -> tuple[QSeries, QSeries]:
    """The convolution series sigma*_5 sigma*_5 and sigma*_3 sigma*_7,
    memoized in the catalog, so T10, C10 and TABLE2 share them."""
    return cat.product("sigma5star", "sigma5star"), cat.product("sigma3star", "sigma7star")


def _r24_forms(cat: SeriesCatalog, conv55: QSeries, conv37: QSeries,
               tau: QSeries) -> tuple[QSeries, QSeries]:
    """T10's two 24-square forms: (-1)^n 64 (conv55 - tau) and
    (-1)^n (512/17)(conv37 - tau)."""
    return (cat.combine((64, conv55), (-64, tau)).neg_q(),
            cat.combine((Fraction(512, 17), conv37), (Fraction(-512, 17), tau)).neg_q())


@_equation_check(
    "T10",
    "r_24(n) = (-1)^n 64 (sum sigma*_5 sigma*_5 - tau(n)) "
    "= (-1)^n (512/17)(sum sigma*_3 sigma*_7 - tau(n)) on 0..nmax",
    scope="range",
    earliest=True,  # the lower first index wins; on a tie, the sigma*_5^2 form
)
def _t10(cat: SeriesCatalog) -> list[Equation]:
    r24 = cat.power("theta3", 24)
    via55, via37 = _r24_forms(cat, *_conv55_conv37(cat), cat.delta())
    return [(r24, via55), (r24, via37)]


@_register(
    "C10",
    "equivalence on 0..nmax: n odd <=> tau(n) > sum sigma*_5 sigma*_5 "
    "<=> tau(n) > sum sigma*_3 sigma*_7 <=> the two convolutions are ordered; "
    "uses r_24(n) >= r_4(n) > 0",
    scope="range",
)
def _c10(ws: Workspace, notes: list[str]) -> Optional[Discrepancy]:
    cat = ws.rcat
    # the theta powers and tau are integral: denominator 1
    r24 = cat.power("theta3", 24).numerators
    r4 = cat.power("theta3", 4).numerators
    conv55, conv37 = _conv55_conv37(cat)
    c55, d55 = conv55.numerators, conv55.denominator
    c37, d37 = conv37.numerators, conv37.denominator
    tau = cat.delta().numerators
    for n in range(cat.order + 1):
        if not (r24[n] >= r4[n] > 0):
            return (n, Fraction(r24[n]), Fraction(r4[n]))
        flags = (n % 2 == 1, tau[n] * d55 > c55[n], tau[n] * d37 > c37[n],
                 c55[n] * d37 > c37[n] * d55)
        if len(set(flags)) != 1:
            notes.append(f"equivalence flags {flags} diverge")
            # flags[0] against the first flag that differs from it: a boolean,
            # so its negation
            return (n, Fraction(int(flags[0])), Fraction(int(not flags[0])))
    return None


# ---------------------------------------------------------------------------
# tau arithmetic and the reference table


_TAU_PROPS_N = 1000  # TAU-PROPS judges tau(n) for n <= this
_TABLE2_N = 4  # TABLE2's rows run over n = 0..this


@_register(
    "TAU-PROPS",
    "multiplicativity and prime-power recursion of tau, the 691 congruence "
    "with sigma_11, the squared Ramanujan bound at primes, and nonvanishing, "
    f"all for n <= {_TAU_PROPS_N}",
    scope="tau1000",
)
def _tau_props(ws: Workspace, notes: list[str]) -> Optional[Discrepancy]:
    limit = _TAU_PROPS_N
    cat = ws.catalog_at(limit)
    delta = cat.delta()
    tau = delta.numerators  # integral: denominator 1
    # T_p Delta = tau(p) Delta at the primes p <= sqrt(limit) is both
    # multiplicativity and the prime-power recursion on n <= limit: every
    # composite n <= limit has such a factor p, and the relation at q^(n/p)
    # fixes tau(n) from tau at smaller indices
    d = _compare(((delta.hecke(p, 12), delta.truncate(limit // p).scale(tau[p]),
                   f"Hecke relation T_{p} Delta = tau({p}) Delta fails: exponent n "
                   f"stands for tau({p}n) + {p}^11 tau(n/{p}) against tau({p}) tau(n)")
                  for p in arith.primes_up_to(isqrt(limit))), notes)
    if d:
        return d
    s11 = cat.sigma(11)
    # sigma_11(n) = s11[n]/den, and den divides 65520 (from sigma_11(0) =
    # 691/65520), which is prime to 691
    sigma11, den = s11.numerators, s11.denominator
    for n in range(1, limit + 1):
        if (tau[n] * den - sigma11[n]) % 691 != 0:
            notes.append("691 congruence fails")
            return (n, Fraction(tau[n]), Fraction(sigma11[n], den))
    for p in arith.primes_up_to(limit):
        bound = 4 * p**11
        if tau[p] * tau[p] > bound:
            notes.append("squared coefficient bound fails at a prime")
            return (p, Fraction(tau[p] * tau[p]), Fraction(bound))
    # nonvanishing needs no scan once the 691 congruence has passed: tau(n) = 0
    # would make 691 divide sigma_11(n), which holds at no n <= 1000 (the
    # first such n is 1381)
    return None


# the printed rows, each as the series of its cells on n = 0.._TABLE2_N
_TABLE2_PRINTED: dict[str, QSeries] = {
    "sigma3*": QSeries([Fraction(-1, 16), 1, -7, 28, -71]),
    "sigma5*": QSeries([Fraction(1, 8), 1, -31, 244, -1055]),
    "sigma7*": QSeries([Fraction(-17, 32), 1, -127, 2188, -16511]),
    "conv37": QSeries([Fraction(12, 517), Fraction(-19, 32), Fraction(405, 32),
                       Fraction(-2285, 8), Fraction(133589, 32)]),
    "conv55": QSeries([Fraction(1, 64), Fraction(1, 4), Fraction(33, 32), -1,
                       Fraction(37928, 32)]),
    "tau": QSeries([0, 1, -24, 252, -1472]),
}


@_register(
    "TABLE2",
    "reference table of sigma*_3, sigma*_5, sigma*_7, their convolutions and "
    f"tau on n = 0..{_TABLE2_N}; convolution cells are judged by our exact "
    "convolution, confirmed against the independent 24-square route, and any "
    "printed cell that differs is flagged",
    scope="table",
)
def _table2(ws: Workspace, notes: list[str]) -> Optional[Discrepancy]:
    cat = ws.catalog_at(_TABLE2_N)
    conv55, conv37 = _conv55_conv37(cat)
    tau = cat.delta()
    # the two convolution rows are confirmed by the independent lattice
    # route: r_24 from theta powers determines both convolutions given tau,
    # through T10's two forms; r_24 is built at the table's own order, since
    # nmax may be below it.  The lower n wins, on a tie the sigma*_5^2 form.
    r24 = cat.power("theta3", 24)
    d = _compare([(f, r24) for f in _r24_forms(cat, conv55, conv37, tau)], notes, earliest=True)
    if d:
        return d
    # the rows in table order: a sigma* row fails the check, a convolution
    # cell that differs is flagged, and tau is compared last
    printed = _TABLE2_PRINTED
    d = _compare(((cat.sigma_star(s), printed[f"sigma{s}*"])
                  for s in (3, 5, 7)), notes)
    if d:
        return d
    for row, ours in (("conv37", conv37), ("conv55", conv55)):
        for n, x in enumerate((ours - printed[row]).numerators):
            if x:
                notes.append(
                    f"flagged cell ({row}, n={n}): printed "
                    f"{rational_str(printed[row][n])}, computed "
                    f"{rational_str(ours[n])} (computed value confirmed "
                    "by the 24-square route)"
                )
    return _compare([(tau, printed["tau"])], notes)


# ---------------------------------------------------------------------------
# execution


def registry_ids() -> list[str]:
    return sorted(REGISTRY, key=lambda i: REGISTRY[i].sort_key)


def resolve_ids(target: str) -> list[str]:
    """Expand "all", an exact id, an alias, or a family prefix like "KS-DE"."""
    if target == "all":
        return registry_ids()
    if target in _ALIASES:
        return [_ALIASES[target]]
    if target in REGISTRY:
        return [target]
    family = [i for i in registry_ids() if i.startswith(f"{target}(")]
    if family:
        return family
    raise UnknownTheoremId(target)


def _ranges(ws: Workspace) -> dict[str, int]:
    """The order a check of each scope prints, and the order of the catalog
    an equation check's builder runs on."""
    return {
        "order": ws.order,
        "range": ws.nmax,
        "tau1000": _TAU_PROPS_N,
        "mmax": ws.mmax,
        "table": _TABLE2_N,
        "delta8": _DELTA8_N,
    }


def run_check(id: str, workspace: Workspace) -> CheckReport:
    """Execute one registry check, by its canonical id, on the workspace,
    whose order, nmax and mmax set the ranges it compares, and report the
    outcome."""
    check = REGISTRY.get(id)
    if check is None:
        raise UnknownTheoremId(id)
    notes: list[str] = []
    start = time.perf_counter()
    disc = check.runner(workspace, notes)
    elapsed = int((time.perf_counter() - start) * 1000)
    return CheckReport(
        id=check.id,
        order=_ranges(workspace)[check.scope],
        status="pass" if disc is None else "fail",
        first_discrepancy=disc,
        elapsed_ms=elapsed,
        notes=tuple(notes),
    )


def run_all(order: int, nmax: int, mmax: int, ids: list[str]) -> list[CheckReport]:
    """Run the checks on one workspace, those reading the highest catalog
    order first, so each lower order truncates the series a higher one has
    built and the work does not depend on the order of the ids; reports
    come back sorted by id."""
    ws = Workspace(order, nmax, mmax)
    # the order of the catalog each scope reads, once per run: T49 reads its
    # tower's, and none below mmax 2
    top = _ranges(ws)
    top["mmax"] = e_star_order(mmax) if mmax >= 2 else 0
    try:
        scheduled = sorted(ids, key=lambda i: -top[REGISTRY[i].scope])
    except KeyError as exc:
        raise UnknownTheoremId(*exc.args) from None
    reports = [run_check(i, ws) for i in scheduled]
    return sorted(reports, key=lambda r: REGISTRY[r.id].sort_key)
