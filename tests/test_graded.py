import copy
import random
import re
from fractions import Fraction
from math import comb, lcm

import pytest

from eisen2 import arith, checks, graded, scalars
from eisen2.catalog import SeriesCatalog
from eisen2.graded import (
    GradedPoly,
    NotHomogeneous,
    ResidualMismatch,
    SingularSystem,
    _solve_fraction_free,
    check_positivity,
    decompose_modular,
    e_star_equations,
    e_star_order,
    e_star_poly,
    gp_evaluate,
    modular_dimension,
    positivity_witness,
    serre_delta,
    serre_partial,
)
from eisen2.qseries import QSeries, _reduce, linear_combination
from eisen2.scalars import ks_alpha, ks_coefficient, rs_coefficient
from verify_defaults import workspace

LAW_RUNS = 110

# level 1 inside Q[A, B, C]
E2 = GradedPoly({(1, 0, 0): 3, (0, 0, 1): -2})
E4 = GradedPoly({(0, 0, 2): 4, (0, 1, 0): -3})
E6 = GradedPoly({(0, 1, 1): 9, (0, 0, 3): -8})


def numerators(poly):
    """The polynomial's integer numerators by exponent tuple, read through
    ``terms``, and its common denominator."""
    den = poly._den
    return {e: x.numerator * (den // x.denominator) for e, x in poly.terms.items()}, den


def random_homogeneous_terms(rng, weight, weights=graded._WEIGHTS):
    """Random coefficients of a homogeneous polynomial of the given weight in
    three generators of the given weights (may be empty)."""
    terms = {}
    for a in range(0, weight // weights[0] + 1):
        for b in range(0, (weight - a * weights[0]) // weights[1] + 1):
            rest = weight - a * weights[0] - b * weights[1]
            if rest % weights[2] == 0 and rng.random() < 0.5:
                coeff = rng.randint(-9, 9)
                if coeff:
                    terms[(a, b, rest // weights[2])] = Fraction(coeff)
    return terms


def random_homogeneous(rng, weight):
    """Random homogeneous polynomial in A, B, C of the given weight (may be zero)."""
    return GradedPoly(random_homogeneous_terms(rng, weight))


def level1(terms):
    """The polynomial sum c E2^a E4^b E6^c over the terms, in A, B, C."""
    total = GradedPoly.zero()
    for (a, b, c), coeff in terms.items():
        term = GradedPoly.monomial((0, 0, 0), coeff)
        for gen, e in ((E2, a), (E4, b), (E6, c)):
            for _ in range(e):
                term = term * gen
        total = total + term
    return total


def random_level1(rng, weight):
    """Random homogeneous polynomial in E2, E4, E6 of the given weight (may be zero)."""
    return level1(random_homogeneous_terms(rng, weight, (2, 4, 6)))


def test_arithmetic_examples():
    bc2 = GradedPoly.monomial((0, 1, 2))
    assert bc2 + GradedPoly.zero() == bc2
    prod = GradedPoly.monomial((1, 0, 0), 3) * GradedPoly.monomial((0, 0, 1), 2)
    assert prod == GradedPoly({(1, 0, 1): 6})
    assert prod.weight() == 4
    e8 = GradedPoly({(0, 2, 0): 9, (0, 1, 2): 8}).scale(Fraction(1, 17))
    assert e8 == e_star_poly(4, SeriesCatalog(0))


def test_level1_embeds_in_the_level2_ring():
    # the only facts that link the two levels, held on the catalog's series
    cat = SeriesCatalog(120)
    for k, poly in ((1, E2), (2, E4), (3, E6)):
        assert gp_evaluate(poly, cat) == cat.level1(k), 2 * k


def test_serre_delta_examples():
    c2 = GradedPoly.monomial((0, 0, 2))
    assert serre_delta(c2) == GradedPoly({(0, 1, 1): -1})
    c3 = GradedPoly.monomial((0, 0, 3))
    assert serre_delta(c3) == GradedPoly({(0, 1, 2): Fraction(-3, 2)})
    bc = GradedPoly.monomial((0, 1, 1))
    assert serre_delta(bc) == GradedPoly({(0, 2, 0): Fraction(-1, 2), (0, 1, 2): -1})
    d_poly = GradedPoly({(0, 1, 0): Fraction(-1, 64), (0, 0, 2): Fraction(1, 64)})
    assert serre_delta(d_poly).is_zero()


def test_serre_partial_examples():
    # Ramanujan's system, through the embedding
    assert serre_partial(E2) == (E2 * E2 + E4).scale(Fraction(-1, 12))
    assert serre_partial(E4) == E6.scale(Fraction(-1, 3))
    assert serre_partial(E6) == (E4 * E4).scale(Fraction(-1, 2))
    assert serre_partial(E4 * E4 * E4 - E6 * E6).is_zero()
    # and on the generators
    a, b, c = (GradedPoly.generator(name) for name in "ABC")
    assert serre_partial(a) == GradedPoly(
        {(2, 0, 0): Fraction(-1, 4), (0, 1, 0): Fraction(-1, 4), (1, 0, 1): Fraction(1, 3)})
    assert serre_partial(b) == (b * c).scale(Fraction(-1, 3))
    assert serre_partial(c) == GradedPoly({(0, 0, 2): Fraction(1, 3), (0, 1, 0): Fraction(-1, 2)})


def test_not_homogeneous():
    mixed = GradedPoly({(1, 0, 0): 1, (0, 1, 0): 1})
    with pytest.raises(NotHomogeneous):
        serre_delta(mixed)


def test_weight_raising_randomized():
    rng = random.Random(31)
    for _ in range(LAW_RUNS):
        weight = rng.choice(range(2, 21, 2))
        f = random_homogeneous(rng, weight)
        image = serre_delta(f)
        if not image.is_zero():
            assert image.weight() == weight + 2


def test_leibniz_randomized_both_derivatives():
    rng = random.Random(32)
    for _ in range(LAW_RUNS):
        wf = rng.choice(range(2, 13, 2))
        wg = rng.choice(range(2, 13, 2))
        f = random_homogeneous(rng, wf)
        g = random_homogeneous(rng, wg)
        assert serre_delta(f * g) == serre_delta(f) * g + f * serre_delta(g)
        f1, g1 = random_level1(rng, wf), random_level1(rng, wg)
        assert serre_partial(f1 * g1) == serre_partial(f1) * g1 + f1 * serre_partial(g1)


def test_evaluation_is_ring_morphism():
    rng = random.Random(33)
    cat = SeriesCatalog(32)
    for _ in range(LAW_RUNS):
        make = rng.choice((random_homogeneous, random_level1))
        f = make(rng, rng.choice(range(2, 11, 2)))
        g = make(rng, rng.choice(range(2, 11, 2)))
        assert gp_evaluate(f * g, cat) == gp_evaluate(f, cat) * gp_evaluate(g, cat)
        assert gp_evaluate(f + g, cat) == gp_evaluate(f, cat) + gp_evaluate(g, cat)


def test_serre_evaluation_consistency():
    rng = random.Random(34)
    cat = SeriesCatalog(24)
    a = cat.level2(1)
    for _ in range(LAW_RUNS):
        weight = rng.choice(range(2, 15, 2))
        f = random_homogeneous(rng, weight)
        series = gp_evaluate(f, cat)
        expected = series.theta() - (a * series).scale(Fraction(weight, 4))
        assert gp_evaluate(serre_delta(f), cat) == expected


def test_negativity_of_basis_derivatives():
    for k in range(1, 11):
        for j in range(0, k // 2 + 1):
            image = serre_delta(GradedPoly.monomial((0, j, k - 2 * j)))
            assert not image.is_zero()
            for (a, b, c), coeff in image.terms.items():
                assert a == 0
                assert b >= 1
                assert coeff < 0


def test_modular_dimension():
    assert modular_dimension(2) == 1
    assert modular_dimension(4) == 2
    assert modular_dimension(8) == 3
    assert modular_dimension(12) == 4


def test_decompose_examples():
    # the decomposition is a polynomial in B and C; zero coordinates drop out
    cat = SeriesCatalog(24)
    assert decompose_modular(cat.level2(4), 8, cat) == GradedPoly(
        {(0, 2, 0): Fraction(9, 17), (0, 1, 2): Fraction(8, 17)})
    assert decompose_modular(cat.level2(6), 12, cat) == GradedPoly(
        {(0, 3, 0): Fraction(189, 691), (0, 2, 2): Fraction(486, 691),
         (0, 1, 4): Fraction(16, 691)})
    assert decompose_modular(cat.level2(2), 4, cat) == GradedPoly.generator("B")


def test_decompose_kernel_form():
    cat = SeriesCatalog(24)
    d_poly = GradedPoly({(0, 1, 0): Fraction(-1, 64), (0, 0, 2): Fraction(1, 64)})
    assert decompose_modular(gp_evaluate(d_poly, cat), 4, cat) == d_poly
    assert gp_evaluate(d_poly, cat) == cat.D()


def test_decompose_rejects_quasi_modular():
    cat = SeriesCatalog(24)
    with pytest.raises(ResidualMismatch) as info:
        decompose_modular(cat.level2(1), 2, cat)
    assert info.value.exponent == 1
    # the level-1 weight-2 series is quasi-modular as well
    with pytest.raises(ResidualMismatch):
        decompose_modular(cat.level1(1), 2, cat)


def test_decompose_order_precondition():
    cat = SeriesCatalog(3)
    with pytest.raises(ValueError):
        decompose_modular(cat.level2(2), 4, cat)


def test_decompose_refuses_a_catalog_below_the_series_order():
    # the rule e_star_equations keeps: a short catalog raises, naming both orders
    series = SeriesCatalog(24).level2(4)
    with pytest.raises(ValueError, match="order 24.*got 23"):
        decompose_modular(series, 8, SeriesCatalog(23))
    assert decompose_modular(series, 8, SeriesCatalog(30)) == e_star_poly(4, SeriesCatalog(0))


def test_solver_detects_singular_matrix():
    one = Fraction(1)
    with pytest.raises(SingularSystem):
        _solve_fraction_free([[one, one], [one, one]], [one, one])


def test_solver_first_nonzero_pivot():
    zero, one = Fraction(0), Fraction(1)
    x = _solve_fraction_free([[zero, one], [one, zero]], [Fraction(3), Fraction(5)])
    assert x == [Fraction(5), Fraction(3)]


def test_e_star_poly_examples():
    cat = SeriesCatalog(0)
    assert e_star_poly(2, cat) == GradedPoly.monomial((0, 1, 0))
    assert e_star_poly(3, cat) == GradedPoly.monomial((0, 1, 1))
    assert e_star_poly(4, cat) == GradedPoly(
        {(0, 2, 0): Fraction(9, 17), (0, 1, 2): Fraction(8, 17)})
    assert e_star_poly(5, cat) == GradedPoly(
        {(0, 2, 1): Fraction(27, 31), (0, 1, 3): Fraction(4, 31)})
    assert e_star_poly(6, cat) == GradedPoly(
        {
            (0, 3, 0): Fraction(189, 691),
            (0, 2, 2): Fraction(486, 691),
            (0, 1, 4): Fraction(16, 691),
        },
    )
    with pytest.raises(ValueError):
        e_star_poly(1, cat)


def _first_failure(equations):
    notes = []
    return checks._compare(equations, notes), notes


def test_e_star_poly_reports_a_bad_level_at_q0(monkeypatch):
    # the recursion builds the bad level; its equation reports it.  The
    # tower's normalizer S*_9(0) doubled halves E*_10 and leaves its series
    # alone
    real = graded.divisor_sum_zero
    monkeypatch.setattr(graded, "divisor_sum_zero", lambda kind, s: (
        2 * real(kind, s) if (kind, s) == ("sigma_star", 9) else real(kind, s)))
    assert e_star_poly(5, SeriesCatalog(0)).terms[(0, 2, 1)] == Fraction(27, 62)
    cat = SeriesCatalog(e_star_order(6))
    assert _first_failure(e_star_equations(6, cat)) == (
        (0, Fraction(1, 2), Fraction(1)),
        ["E10star polynomial: differential recursion against the q-expansion"])
    # the level past the failing one is never built
    assert "E12star_poly" not in cat._cache


def test_e4_star_is_b_by_construction(monkeypatch):
    # h_2 is S*_3(0) B, so E*_4 = h_2 / S*_3(0) is B whatever that value is
    real = graded.divisor_sum_zero
    monkeypatch.setattr(graded, "divisor_sum_zero", lambda kind, s: (
        3 * real(kind, s) if (kind, s) == ("sigma_star", 3) else real(kind, s)))
    assert e_star_poly(2, SeriesCatalog(0)) == GradedPoly.generator("B")


@pytest.mark.parametrize("m", [2, 4, 7])
def test_e_star_equations_refuse_a_catalog_below_their_order(m):
    # refused on the call, before any equation is drawn; the recursion
    # itself needs no order
    with pytest.raises(ValueError, match=f"needs order >= {e_star_order(m)}"):
        e_star_equations(m, SeriesCatalog(e_star_order(m) - 1))
    assert _first_failure(e_star_equations(m, SeriesCatalog(e_star_order(m)))) == (None, [])
    assert e_star_poly(m, SeriesCatalog(0)) == e_star_poly(m, SeriesCatalog(e_star_order(m)))


def test_e_star_poly_memoizes_each_level_in_its_catalog(monkeypatch):
    cat = SeriesCatalog(e_star_order(8))
    poly = e_star_poly(8, cat)
    built, compared = [], []
    real_level, real_compare = graded._solve_level, checks.first_difference
    monkeypatch.setattr(graded, "_solve_level",
                        lambda mm, tower: built.append(mm) or real_level(mm, tower))
    monkeypatch.setattr(checks, "first_difference",
                        lambda a, b: compared.append(1) or real_compare(a, b))
    assert e_star_poly(8, cat) is poly
    assert check_positivity(5, cat)
    # the equations compare levels 3..8, each drawn from the memo
    assert _first_failure(e_star_equations(8, cat)) == (None, [])
    assert (built, len(compared)) == ([], 6)
    # a new catalog holds no levels, so they are built again
    assert e_star_poly(8, SeriesCatalog(0)) == poly
    assert built == list(range(2, 9))


def test_a_warm_e_star_poly_is_one_lookup(monkeypatch):
    cat = SeriesCatalog(0)
    poly = e_star_poly(40, cat)
    built, keys = [], []
    real_level, real_memo = graded._solve_level, cat._memo
    monkeypatch.setattr(graded, "_solve_level",
                        lambda mm, tower: built.append(mm) or real_level(mm, tower))
    monkeypatch.setattr(cat, "_memo", lambda key, build: keys.append(key) or real_memo(key, build))
    assert e_star_poly(40, cat) is poly
    # positivity reads h_40, one lookup, and builds no E* of its own
    assert check_positivity(40, cat)
    assert (built, keys) == ([], ["E80star_poly", "sigma79star_poly"])
    # a new level above the memoized ones looks up h_41, then walks the
    # divisor-sum levels h_2..h_41 once and solves only h_41
    e_star_poly(41, cat)
    assert built == [41]
    assert keys[2:] == ["E82star_poly", "sigma81star_poly",
                        *(f"sigma{2 * mm - 1}star_poly" for mm in range(2, 42))]


@pytest.mark.parametrize(
    "call, value",
    [(e_star_order, 3.0), (modular_dimension, 6.0),
     (lambda m: e_star_poly(m, SeriesCatalog(0)), 3.0),
     (lambda m: e_star_poly(m, SeriesCatalog(0)), Fraction(3)),
     (lambda m: check_positivity(m, SeriesCatalog(0)), 4.0),
     (lambda m: e_star_equations(m, SeriesCatalog(40)), 4.0)],
    ids=["e_star_order", "modular_dimension", "e_star_poly", "e_star_poly-Fraction",
         "check_positivity", "e_star_equations"],
)
def test_the_tower_refuses_a_non_int(call, value):
    # e_star_order(3.0) was 10.0, a float catalog order, and range raised a
    # bare TypeError on e_star_poly(3.0)
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(value)


@pytest.mark.parametrize(
    "call",
    [e_star_order, lambda m: e_star_poly(m, SeriesCatalog(0)),
     lambda m: check_positivity(m, SeriesCatalog(0)),
     lambda m: e_star_equations(m, SeriesCatalog(40))],
    ids=["e_star_order", "e_star_poly", "check_positivity", "e_star_equations"],
)
@pytest.mark.parametrize("m", [1, 0, -3])
def test_the_tower_refuses_a_level_below_2(call, m):
    # e_star_order(1) was 8 and e_star_equations(1, cat) yielded nothing;
    # e_star_order(0) named a weight 0 the caller never passed
    with pytest.raises(ValueError, match=re.escape(
            f"the E*_2m tower is defined for integers m >= 2, got m = {m}")):
        call(m)


def _lifted_equations_oracle(m, cat):
    """T49's equations as they were built before each level was lifted from
    its own terms: the E* polynomial from ``e_star_poly``, lifted to weight 2m
    by a product with C^(m-mm) through ``_sum_of_products`` and evaluated by
    ``_evaluation_terms``."""
    for mm in range(3, m + 1):
        poly, series, shift = e_star_poly(mm, cat), cat.level2(mm), m - mm
        lifted = graded._sum_of_products([(1, poly, GradedPoly.monomial((0, 0, shift)))])
        top = series * cat.power("C", shift) if shift else series
        lhs = linear_combination((1, series), (-1, top), *graded._evaluation_terms(lifted, cat))
        yield (lhs, series,
               f"E{2 * mm}star polynomial: differential recursion against the q-expansion")


def _exact(equation):
    """An equation's series as (order, numerators, denominator), so equal
    means equal on the whole range; the note as it is."""
    lhs, rhs, note = equation
    return [(s.order, s.numerators, s.denominator) for s in (lhs, rhs)], note


@pytest.mark.parametrize("m", range(3, 41))
def test_e_star_equations_match_the_lifted_polynomial_oracle(m):
    got = e_star_equations(m, SeriesCatalog(e_star_order(m)))
    want = _lifted_equations_oracle(m, SeriesCatalog(e_star_order(m)))
    assert [_exact(eq) for eq in got] == [_exact(eq) for eq in want]


def test_a_cold_e_star_equations_extends_the_bernoulli_memo_once(monkeypatch):
    # each level's S*_{2mm-1}(0) once extended the memo by two indices, 39
    # extensions at m = 40; the top normalizer, asked first, makes them one
    real = scalars._BERNOULLI_LOCK
    extensions = []

    class CountingLock:
        def __enter__(self):
            extensions.append(len(scalars._BERNOULLI))
            return real.__enter__()

        def __exit__(self, *exc):
            return real.__exit__(*exc)

    saved = list(scalars._BERNOULLI)
    monkeypatch.setattr(scalars, "_BERNOULLI_LOCK", CountingLock())
    try:
        del scalars._BERNOULLI[1:]
        equations = list(e_star_equations(40, SeriesCatalog(e_star_order(40))))
        assert len(equations) == 38
        assert extensions == [1] and len(scalars._BERNOULLI) == 81
    finally:
        scalars._BERNOULLI[:] = saved


@pytest.mark.parametrize("mm, exps", [(3, (0, 1, 1)), (8, (0, 2, 4)), (21, (0, 10, 1)),
                                      (40, (0, 1, 38))])
def test_a_sign_flipped_level_fails_t49_with_the_oracle_report(monkeypatch, mm, exps):
    # one coefficient of h_mm negated: T49 fails at that level, with the
    # report the lifted-polynomial construction gives
    real = graded._solve_level

    def flipped(level, tower):
        h = real(level, tower)
        if level != mm:
            return h
        terms = dict(h.terms)
        assert exps in terms
        return GradedPoly({**terms, exps: -terms[exps]})

    monkeypatch.setattr(graded, "_solve_level", flipped)
    report = checks.run_check("T49", workspace(mmax=40))
    notes: list = []
    want = checks._compare(_lifted_equations_oracle(40, SeriesCatalog(e_star_order(40))), notes)
    assert report.status == "fail"
    assert notes == [f"E{2 * mm}star polynomial: differential recursion against the q-expansion"]
    assert (report.first_discrepancy, report.notes) == (want, tuple(notes))


def _oracle_positivity(m, cat):
    poly = e_star_poly(m, cat)
    return not poly.is_zero() and positivity_witness(poly, m) is None


def test_check_positivity_matches_the_e_star_witness():
    cat = SeriesCatalog(0)
    assert [check_positivity(m, cat) for m in range(2, 61)] == [True] * 59
    assert all(_oracle_positivity(m, cat) for m in range(2, 61))


@pytest.mark.parametrize("m", [4, 5, 12, 13])
def test_check_positivity_matches_the_e_star_witness_on_bad_levels(m):
    # h_m put in the catalog with one fault each, E*_2m built from it: every
    # clause of the cone decides on its own, for both signs of S*_{2m-1}(0)
    h = graded._level(m, SeriesCatalog(0))
    nums, den = numerators(h)
    sign = 1 if min(nums.values()) > 0 else -1
    least = min(nums)
    variants = {
        "healthy": nums,
        "negated": {**nums, least: -nums[least]},
        "A": {**nums, (1, 1, m - 3): sign},
        "no B": {**nums, (0, 0, m): sign},
        "weight": {**nums, (0, 1, m): sign},
        "zero": {},
    }
    got = {}
    for name, variant in variants.items():
        cat = SeriesCatalog(0)
        cat._cache[f"sigma{2 * m - 1}star_poly"] = GradedPoly(
            {e: Fraction(x, den) for e, x in variant.items()})
        got[name] = check_positivity(m, cat)
        assert got[name] == _oracle_positivity(m, cat), name
    assert got == {name: name == "healthy" for name in variants}


def test_e_star_equations_compare_on_the_whole_catalog_range(monkeypatch):
    # E8* needs q^0..q^12 on its own, but a catalog of order 40 compares to
    # q^40, so a fault at n = 30 is caught there and nowhere else
    real = arith.divisor_sum_table

    def corrupted(kind, s, N):
        table = real(kind, s, N)
        if (kind, s) == ("sigma_star", 7) and N >= 30:
            table[30] += 1
        return table

    monkeypatch.setattr(arith, "divisor_sum_table", corrupted)
    assert e_star_order(4) < 30
    (n, _, _), notes = _first_failure(e_star_equations(4, SeriesCatalog(40)))
    assert (n, notes) == (30, ["E8star polynomial: differential recursion against "
                               "the q-expansion"])
    assert _first_failure(e_star_equations(4, SeriesCatalog(29))) == (None, [])


def test_graded_keeps_no_state_between_calls():
    # every module name keeps its object, and every table its contents
    before = dict(vars(graded))
    containers = copy.deepcopy({
        k: v for k, v in before.items()
        if k != "__builtins__" and isinstance(v, (dict, list, set, tuple))
    })
    cat = SeriesCatalog(0)
    e_star_poly(8, cat)
    check_positivity(5, cat)
    assert checks.run_check("T49", workspace(mmax=6)).status == "pass"
    after = dict(vars(graded))
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert {k: after[k] for k in containers} == containers


@pytest.mark.parametrize("m", range(3, 21))
def test_e_star_poly_matches_the_basis_decomposition(m):
    # the exact Bareiss decomposition is the oracle for the series check
    cat = SeriesCatalog(e_star_order(m))
    assert decompose_modular(cat.level2(m), 2 * m, cat) == e_star_poly(m, cat)


def test_positivity():
    # one catalog for every level, each built once
    cat = SeriesCatalog(e_star_order(20))
    for m in range(2, 21):
        assert check_positivity(m, cat)


def test_evaluated_e_star_poly_matches_series():
    cat = SeriesCatalog(20)
    for m in (2, 4, 5, 6):
        assert gp_evaluate(e_star_poly(m, cat), cat) == cat.level2(m)


def test_delta_equal_family():
    cat = SeriesCatalog(32)
    a, c = cat.level2(1), cat.C()

    def delta4(s):
        return s.theta() - a * s

    members = [
        c * c,
        cat.level2(2),
        cat.level2(4) * cat.level2(2).invert(),
        cat.level2(5) * cat.level2(3).invert(),
        cat.level1(2),
    ]
    images = [delta4(s) for s in members]
    assert all(img == images[0] for img in images[1:])


def test_cusp_form_bases():
    cat = SeriesCatalog(32)
    d_poly = GradedPoly({(0, 1, 0): Fraction(-1, 64), (0, 0, 2): Fraction(1, 64)})
    b = GradedPoly.generator("B")
    c = GradedPoly.generator("C")
    cusp_polys = {
        "BD": b * d_poly,
        "BCD": b * c * d_poly,
        "B2D": b * b * d_poly,
        "BD2": b * d_poly * d_poly,
    }
    for poly in cusp_polys.values():
        assert gp_evaluate(poly, cat).coeffs[0] == 0
    assert gp_evaluate(cusp_polys["B2D"], cat) == cat.delta()


def test_basis_decomposition_records():
    cat = SeriesCatalog(24)
    dec = decompose_modular(cat.level2(4), 8, cat)
    assert dec.to_records() == [(0, 1, 2, "8/17"), (0, 2, 0, "9/17")]


# ---------------------------------------------------------------------------
# Fraction-dict oracles: the loops GradedPoly and gp_evaluate once ran, kept
# to test the integer representation and the memoized powers


def _clean(terms):
    return {e: Fraction(v) for e, v in terms.items() if v}


def _oracle_add(p, q):
    out = dict(p)
    for e, v in q.items():
        out[e] = out.get(e, Fraction(0)) + v
    return _clean(out)


def _oracle_neg(p):
    return {e: -v for e, v in p.items()}


def _oracle_scale(p, c):
    return _clean({e: Fraction(c) * v for e, v in p.items()})


def _oracle_mul(p, q):
    out = {}
    for (a1, b1, c1), v1 in p.items():
        for (a2, b2, c2), v2 in q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return _clean(out)


# the level-2 Serre images, written out
_ORACLE_IMAGES = (
    {(2, 0, 0): Fraction(-1, 4), (0, 1, 0): Fraction(-1, 4)},
    {(0, 1, 1): Fraction(-1)},
    {(0, 1, 0): Fraction(-1, 2)},
)


def _oracle_derive(p):
    out = {}
    for exps, coeff in p.items():
        for i in range(3):
            e = exps[i]
            if e:
                lowered = list(exps)
                lowered[i] = e - 1
                mono = {tuple(lowered): coeff * e}
                out = _oracle_add(out, _oracle_mul(mono, _ORACLE_IMAGES[i]))
    return out


def _oracle_evaluate(p, cat):
    gens = (cat.level2(1), cat.level2(2), cat.C())
    total = QSeries.zero(cat.order)
    for exps, coeff in sorted(p.items()):
        term = QSeries.one(cat.order)
        for g, e in zip(gens, exps):
            if e:
                term = term * g**e
        total = total + term.scale(coeff)
    return total


def _oracle_gp_evaluate(f, cat):
    # gp_evaluate's per-monomial loop before monomials were memoized
    names = graded._SERIES_NAMES
    nums, den = numerators(f)
    total = QSeries.zero(cat.order)
    for exps, x in nums.items():
        factors = [cat.power(name, e) for name, e in zip(names, exps) if e]
        term = factors[0] if factors else QSeries.one(cat.order)
        for factor in factors[1:]:
            term = term * factor
        total = total + term.scale(x)
    return total.scale(Fraction(1, den))


def _oracle_e_star(mmax):
    polys = {2: {(0, 1, 0): Fraction(1)}}
    for mm in range(3, mmax + 1):
        acc = {}
        for k in range(2, mm - 1):
            acc = _oracle_add(
                acc, _oracle_scale(_oracle_mul(polys[k], polys[mm - k]),
                                   ks_coefficient(mm, k))
            )
        acc = _oracle_add(acc, _oracle_neg(_oracle_derive(polys[mm - 1])))
        polys[mm] = _oracle_scale(acc, 1 / ks_alpha(mm))
    return polys


_DENOMINATORS = (1, 2, 12, 691, 3617, 691 * 3617)


def random_terms(rng, weight=None, max_exp=4):
    """Random exact coefficients, homogeneous when a weight is given."""
    w = graded._WEIGHTS
    terms = {}
    for _ in range(rng.randint(0, 6)):
        if weight is None:
            exps = tuple(rng.randint(0, max_exp) for _ in range(3))
        else:
            a = rng.randint(0, weight // w[0])
            b = rng.randint(0, (weight - a * w[0]) // w[1])
            rest = weight - a * w[0] - b * w[1]
            if rest % w[2]:
                continue
            exps = (a, b, rest // w[2])
        terms[exps] = Fraction(
            rng.choice((-1, 1)) * rng.randint(0, 10**12), rng.choice(_DENOMINATORS)
        )
    return terms


def test_poly_arithmetic_matches_fraction_dict_oracle():
    rng = random.Random(41)
    for _ in range(300):
        p, q = random_terms(rng), random_terms(rng)
        if rng.random() < 0.1:
            q = {}
        fp, fq = GradedPoly(p), GradedPoly(q)
        c = Fraction(rng.randint(-3617, 3617), rng.choice(_DENOMINATORS))
        cases = [
            (fp * fq, _oracle_mul(p, q)),
            (fp + fq, _oracle_add(p, q)),
            (fp - fq, _oracle_add(p, _oracle_neg(q))),
            (-fp, _oracle_neg(_clean(p))),
            (fp.scale(c), _oracle_scale(p, c)),
            (fp * c, _oracle_scale(p, c)),
        ]
        for got, want in cases:
            assert dict(got.terms) == want
            assert got == GradedPoly(want)
            assert got.is_zero() == (not want)
        assert (fp == fq) == (_clean(p) == _clean(q))
        assert fp + fq - fq == fp
        assert fp.scale(691).scale(Fraction(1, 691)) == fp


def test_poly_first_difference_compares_values_over_both_denominators():
    b = GradedPoly.generator("B")
    half, third = b.scale(Fraction(1, 2)), b.scale(Fraction(1, 3))
    assert half.first_difference(b.scale(Fraction(2, 4))) is None
    # equal numerators over different denominators differ
    assert (numerators(half)[0], numerators(third)[0]) == ({(0, 1, 0): 1}, {(0, 1, 0): 1})
    assert half.first_difference(third) == (0, (0, 1, 0), Fraction(1, 2), Fraction(1, 3))
    # the position counts the sorted union of both monomial sets
    c2 = GradedPoly.monomial((0, 0, 2), 5)
    assert (half + c2).first_difference(half) == (0, (0, 0, 2), 5, 0)
    assert (c2 + half).first_difference(c2 + third) == (1, (0, 1, 0), Fraction(1, 2),
                                                        Fraction(1, 3))


def test_poly_is_kept_reduced():
    p = GradedPoly({(0, 1, 0): Fraction(2, 691), (0, 0, 2): Fraction(-4, 691)})
    assert numerators(p)[::-1] == (691, {(0, 1, 0): 2, (0, 0, 2): -4})
    assert p.scale(Fraction(691, 2))._den == 1
    assert (p - p)._den == 1 and (p - p).is_zero()
    assert GradedPoly({(0, 1, 0): 0}) == GradedPoly.zero()
    with pytest.raises(TypeError):
        p.terms[(0, 1, 0)] = Fraction(1)


def test_serre_derivatives_match_fraction_dict_oracle():
    rng = random.Random(42)
    for _ in range(200):
        weight = rng.choice(range(2, 25, 2))
        p = random_terms(rng, weight)
        assert dict(serre_delta(GradedPoly(p)).terms) == _oracle_derive(p)
    for derive in (serre_partial, serre_delta):
        assert derive(GradedPoly.zero()).is_zero()
        assert derive(GradedPoly.monomial((0, 0, 0))).is_zero()


def test_serre_partial_matches_the_series_oracle():
    # theta f - (w/12) E2 f on the q-expansions, with the catalog's own E2
    rng = random.Random(45)
    cat = SeriesCatalog(64)
    e2 = cat.level1(1)
    for _ in range(60):
        weight = rng.choice(range(2, 17, 2))
        f = GradedPoly(random_terms(rng, weight))
        series = gp_evaluate(f, cat)
        expected = series.theta() - (e2 * series).scale(Fraction(weight, 12))
        assert gp_evaluate(serre_partial(f), cat) == expected


def test_gp_evaluate_matches_per_monomial_powers():
    rng = random.Random(43)
    cat = SeriesCatalog(20)
    # the constant polynomial and the zero polynomial
    seven = GradedPoly.monomial((0, 0, 0), Fraction(7, 691))
    assert gp_evaluate(seven, cat) == QSeries.one(20).scale(Fraction(7, 691))
    assert gp_evaluate(GradedPoly.zero(), cat) == QSeries.zero(20)
    # low exponents first, then powers past the highest one cached
    for max_exp in (2, 2, 5, 3, 9):
        for _ in range(10):
            p = random_terms(rng, max_exp=max_exp)
            assert gp_evaluate(GradedPoly(p), cat) == _oracle_evaluate(p, cat)


@pytest.mark.parametrize("m", range(2, 13))
def test_lifted_evaluation_is_the_evaluation_times_a_power_of_c(m):
    # the tower compares E*_2m(B, C) C^s with E*_2m C^s; C is a unit, so that
    # is the unlifted equation, and each side is the unlifted one times C^s
    cat = SeriesCatalog(e_star_order(m + 6))
    poly = e_star_poly(m, cat)
    for s in range(7):
        lifted = poly * GradedPoly.monomial((0, 0, s))
        assert set(lifted.terms) <= {(0, j, m + s - 2 * j) for j in range(m // 2 + 1)}
        got = gp_evaluate(lifted, cat)
        assert got.order == cat.order
        assert got == _oracle_gp_evaluate(poly, cat) * cat.power("C", s)
        assert got == _oracle_gp_evaluate(lifted, cat)


def test_gp_evaluate_keeps_the_generators_denominators():
    # catalog generators are integral, but the combination must not rely on it
    rng = random.Random(44)
    cat = SeriesCatalog(16)
    cat._cache["C"] = cat.C().scale(Fraction(5, 3))
    cat._cache["E4star"] = cat.level2(2).scale(Fraction(1, 691))
    for _ in range(20):
        p = GradedPoly(random_terms(rng, max_exp=3))
        assert gp_evaluate(p, cat) == _oracle_gp_evaluate(p, cat)


def test_gp_evaluate_memoizes_each_monomial_in_the_catalog(monkeypatch):
    cat = SeriesCatalog(24)
    poly = GradedPoly({(1, 2, 3): 5, (0, 1, 4): Fraction(1, 3), (2, 0, 0): -1})
    first = gp_evaluate(poly, cat)
    assert {"C^3*E2star^1*E4star^2", "C^4*E4star^1"} <= set(cat._cache)

    def refuse(self, other):
        raise AssertionError("a memoized monomial was multiplied again")

    monkeypatch.setattr(QSeries, "__mul__", refuse)
    assert gp_evaluate(poly.scale(7), cat) == first.scale(7)


def test_catalog_power_matches_repeated_squaring():
    cat = SeriesCatalog(16)
    c = cat.C()
    assert cat.power("C", 0) == QSeries.one(16)
    assert cat.power("C", 1) is c
    assert cat.power("C", 3) == c**3
    assert cat.power("C", 11) == c**11  # past the cached top
    assert cat.power("C", 7) is cat.power("C", 7)
    assert cat.power("E6", 4) == cat.level1(3) ** 4
    with pytest.raises(ValueError):
        cat.power("C", -1)


def _repeated_product(base: QSeries, e: int) -> QSeries:
    result = QSeries.one(base.order)
    for _ in range(e):
        result = result * base
    return result


@pytest.mark.parametrize("request_order", ["descending", "shuffled"])
def test_catalog_power_in_any_request_order(request_order):
    # which powers are already memoized decides how each one is built
    exps = list(range(1, 26))
    if request_order == "descending":
        exps.reverse()
    else:
        random.Random(8).shuffle(exps)
    for name in ("C", "theta3"):
        cat = SeriesCatalog(20)
        base = cat.by_name(name)
        for e in exps:
            assert cat.power(name, e) == _repeated_product(base, e), (name, e)


def test_ks_coefficient_is_symmetric():
    # e_star_poly takes the k and m-k convolution terms as one product
    for m in range(3, 41):
        for k in range(1, m):
            assert ks_coefficient(m, k) == ks_coefficient(m, m - k)


def test_rs_coefficient_is_symmetric():
    # RS-DE and KS-DE take the k and m-k convolution terms as one product
    for m in range(2, 41):
        for k in range(1, m):
            assert rs_coefficient(m, k) == rs_coefficient(m, m - k)


def test_e_star_poly_matches_the_unpaired_fraction_recursion():
    # the paper's recursion with its lambda-ratio weights, unpaired and in
    # Fraction dicts, against the tower built by the recursion of p, up to
    # the graded-tower benchmark's mmax
    oracle = _oracle_e_star(40)
    cat = SeriesCatalog(0)
    for m in range(2, 41):
        assert dict(e_star_poly(m, cat).terms) == oracle[m]


def test_e_star_poly_matches_the_delta_recursion():
    # the paper's recursion in the divisor-sum normalization, through
    # serre_delta and unpaired, as the tower was once built:
    #     h_m = 2 delta h_{m-1} - 2 sum_{k=2}^{m-2} C(2m-2, 2k-1) h_k h_{m-k},
    # at every level up to m = 80, the deepest ``export E160star_poly`` reaches
    cat = SeriesCatalog(0)
    e_star_poly(80, cat)
    h = {2: GradedPoly.monomial((0, 1, 0), arith.divisor_sum_zero("sigma_star", 3))}
    for m in range(3, 81):
        h[m] = serre_delta(h[m - 1]).scale(2) + graded._sum_of_products(
            [(-2 * comb(2 * m - 2, 2 * k - 1), h[k], h[m - k]) for k in range(2, m - 1)])
    for m in range(2, 81):
        assert cat._cache[f"sigma{2 * m - 1}star_poly"] == h[m], m


def test_sum_of_products_matches_fraction_dict_oracle():
    rng = random.Random(23)
    for _ in range(200):
        triples = []
        for _ in range(rng.randint(0, 5)):
            p = {} if rng.random() < 0.15 else random_terms(rng)
            q = {} if rng.random() < 0.15 else random_terms(rng)
            w = rng.choice((rng.randint(-9, 9),
                            Fraction(rng.randint(-3617, 3617), rng.choice(_DENOMINATORS))))
            triples.append((w, p, q))
        want = {}
        for w, p, q in triples:
            want = _oracle_add(want, _oracle_scale(_oracle_mul(p, q), w))
        got = graded._sum_of_products(
            [(w, GradedPoly(p), GradedPoly(q)) for w, p, q in triples])
        assert dict(got.terms) == want
        # the reduced form is unique, so the fields equal the oracle's
        assert got == GradedPoly(want)
    assert graded._sum_of_products([]) == GradedPoly.zero()


def _tuple_sum_of_products(terms):
    """``_sum_of_products`` as it stood with exponent-tuple keys, on
    (numerators, denominator) pairs: the oracle of the packed keys."""
    terms = [(w, f, g, w.denominator * f[1] * g[1]) for w, f, g in terms if w]
    den = lcm(*(d for *_, d in terms))
    nums = {}
    for w, (f, _), (g, _), d in terms:
        weight = w.numerator * (den // d)
        for (a1, b1, c1), x in f.items():
            wx = weight * x
            for (a2, b2, c2), y in g.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                nums[key] = nums.get(key, 0) + wx * y
    nums = {e: x for e, x in nums.items() if x}
    values, den = _reduce(tuple(nums.values()), den)
    return dict(zip(nums, values)), den


def test_the_tower_matches_the_tuple_keyed_kernel():
    # every level of the recursion of _solve_level, summed by the old kernel
    h2 = numerators(GradedPoly.monomial((0, 1, 0), arith.divisor_sum_zero("sigma_star", 3)))
    tower, c = [None, None, h2], ({(0, 0, 1): 1}, 1)
    for mm in range(3, 121):
        tower.append(_tuple_sum_of_products([(-2, c, tower[mm - 1])] + [
            (-12 * (1 if 2 * k == mm else 2) * comb(2 * mm - 4, 2 * k - 2),
             tower[k], tower[mm - k]) for k in range(2, mm // 2 + 1)]))
    got = [numerators(h) for h in graded._tower(120, SeriesCatalog(0))]
    assert got == tower[2:]


def _oracle_first_difference(p, q):
    p, q = _clean(p), _clean(q)
    for i, exps in enumerate(sorted(p.keys() | q.keys())):
        x, y = p.get(exps, 0), q.get(exps, 0)
        if x != y:
            return i, exps, x, y
    return None


def _oracle_witness(p, m):
    for (a, b, c), x in sorted(_clean(p).items()):
        if not (x > 0 and a == 0 and b >= 1 and 2 * b + c == m):
            return (a, b, c), x
    return None


def test_packed_keys_report_in_the_order_of_the_exponent_tuples():
    # exponents up to the field limit, so every field's high bits take part
    rng = random.Random(47)
    top = graded._LIMIT - 1

    def exponent():
        return rng.choice((0, 1, 2, rng.randint(0, top), top))

    for _ in range(300):
        m = rng.choice((rng.randint(2, 40), rng.randint(2, top)))
        p = {}
        for _ in range(rng.randint(0, 8)):
            b = rng.randint(1, m // 2)
            p[(0, b, m - 2 * b)] = Fraction(rng.randint(1, 9), rng.choice((1, 2, 691)))
        for _ in range(rng.randint(0, 2)):
            p[(exponent(), exponent(), exponent())] = Fraction(rng.randint(-9, 9), 16)
        q = dict(p)
        for exps in rng.sample(sorted(q), min(2, len(q))):
            q[exps] = rng.choice((0, q[exps] / 2, q[exps]))
        q[(exponent(), exponent(), exponent())] = rng.choice((0, 1, Fraction(-1, 3)))
        fp, fq = GradedPoly(p), GradedPoly(q)
        assert fp.sorted_terms() == sorted(_clean(p).items())
        assert list(fp.terms) == list(_clean(p))
        assert fp.first_difference(fq) == _oracle_first_difference(p, q)
        assert fq.first_difference(fp) == _oracle_first_difference(q, p)
        assert positivity_witness(fp, m) == _oracle_witness(p, m)
        assert positivity_witness(fq, m) == _oracle_witness(q, m)


def test_an_exponent_at_the_field_limit_is_refused():
    limit = graded._LIMIT
    assert limit == 2 ** (graded._WIDTH - 1)
    for i in range(3):
        at, below = (tuple(e if j == i else 0 for j in range(3)) for e in (limit, limit - 1))
        with pytest.raises(ValueError, match=re.escape(f"below 2^{graded._WIDTH - 1}")):
            GradedPoly({at: 1})
        with pytest.raises(ValueError):
            GradedPoly.monomial(at, 3)
        assert dict(GradedPoly.monomial(below).terms) == {below: 1}


@pytest.mark.parametrize("field", range(3), ids=["A", "B", "C"])
def test_a_product_at_the_field_limit_raises_and_does_not_carry(field):
    limit = graded._LIMIT

    def mono(e):
        return GradedPoly.monomial(tuple(e if j == field else 1 for j in range(3)))

    # the largest sum fits, and the other fields are 1 + 1
    fits = mono(limit // 2) * mono(limit // 2 - 1)
    assert dict(fits.terms) == {tuple(limit - 1 if j == field else 2 for j in range(3)): 1}
    for e1, e2 in ((limit // 2, limit // 2), (limit - 1, 1), (limit - 1, limit - 1)):
        with pytest.raises(ValueError, match=re.escape(f"below 2^{graded._WIDTH - 1}")):
            mono(e1) * mono(e2)
        with pytest.raises(ValueError):
            mono(e1) * mono(e2) + mono(0)
    # a Serre derivative raises a degree through the same kernel
    if field != 1:
        with pytest.raises(ValueError):
            serre_delta(mono(limit - 1))


def test_tower_sums_keep_their_integers_small(monkeypatch):
    # the divisor-sum levels have power-of-two denominators, so the level-80
    # sum's lcm is at most 2^18; E*_2m with its lambda-ratio weights had 39
    # distinct denominators there, and over their lcm 20,715 bits
    widest = [0]
    real = GradedPoly._make.__func__

    def make(cls, nums, den=1):
        widest[0] = max(widest[0], den.bit_length(),
                        *(abs(x).bit_length() for x in nums.values()))
        return real(cls, nums, den)

    monkeypatch.setattr(GradedPoly, "_make", classmethod(make))
    e_star_poly(80, SeriesCatalog(0))
    assert 0 < widest[0] < 1000


def test_the_divisor_sum_levels_have_power_of_two_denominators():
    cat = SeriesCatalog(0)
    e_star_poly(80, cat)
    for m in range(2, 81):
        h = cat._cache[f"sigma{2 * m - 1}star_poly"]
        assert h._den & (h._den - 1) == 0, m
        assert h == e_star_poly(m, cat).scale(arith.divisor_sum_zero("sigma_star", 2 * m - 1))


def test_the_tower_reads_no_lambda_value(monkeypatch):
    # the binomial recursion needs no c_{m,k}, no alpha and no lambda(2k)
    def refuse(*args):
        raise AssertionError("the tower read a lambda-ratio scalar")

    want = e_star_poly(40, SeriesCatalog(0))
    for module in (graded, scalars):
        monkeypatch.setattr(module, "ks_coefficient", refuse)
        monkeypatch.setattr(module, "ks_alpha", refuse)
    monkeypatch.setattr(scalars, "lambda_even", refuse)
    assert e_star_poly(40, SeriesCatalog(0)) == want


@pytest.mark.parametrize(
    "build",
    [lambda: GradedPoly({(0, 1, 0): 0.1}),
     lambda: GradedPoly.generator("B").scale(0.1),
     lambda: GradedPoly.monomial((0, 1, 0), 0.1)],
    ids=["GradedPoly", "scale", "monomial"],
)
def test_polys_refuse_floats(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "exps, error",
    [((1.5, 0, 0), TypeError), ((Fraction(1), 0, 0), TypeError),
     ((1, 0), TypeError), ((-1, 0, 0), ValueError), ((0, 1, -2), ValueError)],
    ids=["float", "Fraction", "two", "negative-A", "negative-C"],
)
def test_polys_refuse_bad_exponents(exps, error):
    # 1.5 once truncated to A, and A^-1 printed as A with weight -2
    with pytest.raises(error):
        GradedPoly({exps: 1})
    with pytest.raises(error):
        GradedPoly.monomial(exps)


@pytest.mark.parametrize(
    "combine",
    [lambda b: b + 1, lambda b: b - None, lambda b: b + QSeries.one(4)],
    ids=["add-int", "sub-None", "add-series"],
)
def test_sums_refuse_an_operand_that_is_not_a_polynomial(combine):
    # the operand once reached the kernel and raised AttributeError on _den
    with pytest.raises(TypeError):
        combine(GradedPoly.generator("B"))


def test_an_unknown_generator_is_named():
    with pytest.raises(ValueError, match=r"unknown generator 'D'; the generators are A, B and C"):
        GradedPoly.generator("D")


def test_monomials_are_named_in_the_ring_generators():
    a = GradedPoly.generator("A")
    assert a.monomial_name((2, 1, 0)) == "A^2*B"
    assert a.monomial_name((0, 0, 3)) == "C^3"
    assert a.monomial_name((0, 0, 0)) == "1"
    poly = GradedPoly({(2, 0, 0): Fraction(-1, 4), (0, 0, 0): 3})
    assert repr(poly) == "GradedPoly((3) + (-1/4)*A^2)"
    assert repr(GradedPoly.zero()) == "GradedPoly(0)"
