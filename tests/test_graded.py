import copy
import random
from fractions import Fraction

import pytest

from eisen2 import arith, checks, graded
from eisen2.catalog import CrossCheckMismatch, SeriesCatalog
from eisen2.graded import (
    LEVEL1,
    LEVEL2,
    GradedPoly,
    NotHomogeneous,
    ResidualMismatch,
    RingMismatch,
    SingularSystem,
    _solve_fraction_free,
    check_positivity,
    decompose_modular,
    e_star_order,
    e_star_poly,
    gp_evaluate,
    modular_dimension,
    serre_delta,
    serre_partial,
)
from eisen2.qseries import QSeries
from eisen2.scalars import ks_alpha, ks_coefficient, rs_coefficient

LAW_RUNS = 110


def random_homogeneous(rng, ring, weight, allow_first=True):
    """Random homogeneous polynomial of the given weight (may be zero)."""
    from eisen2.graded import _WEIGHTS

    w = _WEIGHTS[ring]
    terms = {}
    for a in range(0, weight // w[0] + 1 if allow_first else 1):
        for b in range(0, (weight - a * w[0]) // w[1] + 1):
            rest = weight - a * w[0] - b * w[1]
            if rest % w[2] == 0:
                c = rest // w[2]
                if rng.random() < 0.5:
                    coeff = rng.randint(-9, 9)
                    if coeff:
                        terms[(a, b, c)] = Fraction(coeff)
    return GradedPoly(ring, terms)


def test_arithmetic_examples():
    bc2 = GradedPoly.monomial(LEVEL2, (0, 1, 2))
    assert bc2 + GradedPoly.zero(LEVEL2) == bc2
    prod = GradedPoly.monomial(LEVEL2, (1, 0, 0), 3) * GradedPoly.monomial(
        LEVEL2, (0, 0, 1), 2
    )
    assert prod == GradedPoly(LEVEL2, {(1, 0, 1): 6})
    assert prod.weight() == 4
    e8 = (
        GradedPoly(LEVEL2, {(0, 2, 0): 9, (0, 1, 2): 8}).scale(Fraction(1, 17))
    )
    assert e8 == e_star_poly(4)


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        GradedPoly.generator(LEVEL1, "E2") + GradedPoly.generator(LEVEL2, "A")
    with pytest.raises(RingMismatch):
        serre_delta(GradedPoly.generator(LEVEL1, "E4"))
    with pytest.raises(RingMismatch):
        serre_partial(GradedPoly.generator(LEVEL2, "B"))


def test_serre_delta_examples():
    c2 = GradedPoly.monomial(LEVEL2, (0, 0, 2))
    assert serre_delta(c2) == GradedPoly(LEVEL2, {(0, 1, 1): -1})
    c3 = GradedPoly.monomial(LEVEL2, (0, 0, 3))
    assert serre_delta(c3) == GradedPoly(LEVEL2, {(0, 1, 2): Fraction(-3, 2)})
    bc = GradedPoly.monomial(LEVEL2, (0, 1, 1))
    assert serre_delta(bc) == GradedPoly(
        LEVEL2, {(0, 2, 0): Fraction(-1, 2), (0, 1, 2): -1}
    )
    d_poly = GradedPoly(LEVEL2, {(0, 1, 0): Fraction(-1, 64), (0, 0, 2): Fraction(1, 64)})
    assert serre_delta(d_poly).is_zero()


def test_serre_partial_examples():
    assert serre_partial(GradedPoly.generator(LEVEL1, "E4")) == GradedPoly(
        LEVEL1, {(0, 0, 1): Fraction(-1, 3)}
    )
    assert serre_partial(GradedPoly.generator(LEVEL1, "E6")) == GradedPoly(
        LEVEL1, {(0, 2, 0): Fraction(-1, 2)}
    )
    assert serre_partial(GradedPoly.generator(LEVEL1, "E2")) == GradedPoly(
        LEVEL1, {(2, 0, 0): Fraction(-1, 12), (0, 1, 0): Fraction(-1, 12)}
    )
    disc = GradedPoly(LEVEL1, {(0, 3, 0): 1, (0, 0, 2): -1})
    assert serre_partial(disc).is_zero()


def test_not_homogeneous():
    mixed = GradedPoly(LEVEL2, {(1, 0, 0): 1, (0, 1, 0): 1})
    with pytest.raises(NotHomogeneous):
        serre_delta(mixed)
    with pytest.raises(NotHomogeneous):
        serre_delta(GradedPoly.generator(LEVEL2, "B"), weight=2)


def test_weight_raising_randomized():
    rng = random.Random(31)
    for _ in range(LAW_RUNS):
        weight = rng.choice(range(2, 21, 2))
        f = random_homogeneous(rng, LEVEL2, weight)
        image = serre_delta(f, weight)
        if not image.is_zero():
            assert image.weight() == weight + 2


def test_leibniz_randomized_both_derivatives():
    rng = random.Random(32)
    for _ in range(LAW_RUNS):
        wf = rng.choice(range(2, 13, 2))
        wg = rng.choice(range(2, 13, 2))
        f = random_homogeneous(rng, LEVEL2, wf)
        g = random_homogeneous(rng, LEVEL2, wg)
        assert serre_delta(f * g) == serre_delta(f) * g + f * serre_delta(g)
        f1 = random_homogeneous(rng, LEVEL1, wf)
        g1 = random_homogeneous(rng, LEVEL1, wg)
        assert serre_partial(f1 * g1) == serre_partial(f1) * g1 + f1 * serre_partial(g1)


def test_evaluation_is_ring_morphism():
    rng = random.Random(33)
    cat = SeriesCatalog(32)
    for _ in range(LAW_RUNS):
        ring = rng.choice((LEVEL1, LEVEL2))
        f = random_homogeneous(rng, ring, rng.choice(range(2, 11, 2)))
        g = random_homogeneous(rng, ring, rng.choice(range(2, 11, 2)))
        assert gp_evaluate(f * g, cat) == gp_evaluate(f, cat) * gp_evaluate(g, cat)
        assert gp_evaluate(f + g, cat) == gp_evaluate(f, cat) + gp_evaluate(g, cat)


def test_serre_evaluation_consistency():
    rng = random.Random(34)
    cat = SeriesCatalog(24)
    a = cat.level2(1)
    for _ in range(LAW_RUNS):
        weight = rng.choice(range(2, 15, 2))
        f = random_homogeneous(rng, LEVEL2, weight)
        series = gp_evaluate(f, cat)
        expected = series.theta() - (a * series).scale(Fraction(weight, 4))
        assert gp_evaluate(serre_delta(f, weight), cat) == expected


def test_negativity_of_basis_derivatives():
    for k in range(1, 11):
        for j in range(0, k // 2 + 1):
            image = serre_delta(GradedPoly.monomial(LEVEL2, (0, j, k - 2 * j)))
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
        LEVEL2, {(0, 2, 0): Fraction(9, 17), (0, 1, 2): Fraction(8, 17)})
    assert decompose_modular(cat.level2(6), 12, cat) == GradedPoly(
        LEVEL2,
        {(0, 3, 0): Fraction(189, 691), (0, 2, 2): Fraction(486, 691),
         (0, 1, 4): Fraction(16, 691)},
    )
    assert decompose_modular(cat.level2(2), 4, cat) == GradedPoly.generator(LEVEL2, "B")


def test_decompose_kernel_form():
    cat = SeriesCatalog(24)
    d_poly = GradedPoly(LEVEL2, {(0, 1, 0): Fraction(-1, 64), (0, 0, 2): Fraction(1, 64)})
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
    # the rule e_star_poly keeps: a short catalog raises, naming both orders
    series = SeriesCatalog(24).level2(4)
    with pytest.raises(ValueError, match="order 24.*got 23"):
        decompose_modular(series, 8, SeriesCatalog(23))
    assert decompose_modular(series, 8, SeriesCatalog(30)) == e_star_poly(4)
    assert decompose_modular(series, 8) == e_star_poly(4)


def test_solver_detects_singular_matrix():
    one = Fraction(1)
    with pytest.raises(SingularSystem):
        _solve_fraction_free([[one, one], [one, one]], [one, one])


def test_solver_first_nonzero_pivot():
    zero, one = Fraction(0), Fraction(1)
    x = _solve_fraction_free([[zero, one], [one, zero]], [Fraction(3), Fraction(5)])
    assert x == [Fraction(5), Fraction(3)]


def test_e_star_poly_examples():
    assert e_star_poly(2) == GradedPoly.monomial(LEVEL2, (0, 1, 0))
    assert e_star_poly(3) == GradedPoly.monomial(LEVEL2, (0, 1, 1))
    assert e_star_poly(4) == GradedPoly(
        LEVEL2, {(0, 2, 0): Fraction(9, 17), (0, 1, 2): Fraction(8, 17)}
    )
    assert e_star_poly(5) == GradedPoly(
        LEVEL2, {(0, 2, 1): Fraction(27, 31), (0, 1, 3): Fraction(4, 31)}
    )
    assert e_star_poly(6) == GradedPoly(
        LEVEL2,
        {
            (0, 3, 0): Fraction(189, 691),
            (0, 2, 2): Fraction(486, 691),
            (0, 1, 4): Fraction(16, 691),
        },
    )
    with pytest.raises(ValueError):
        e_star_poly(1)


def test_e_star_poly_reports_a_bad_level_at_q0(monkeypatch):
    real = graded.ks_alpha
    monkeypatch.setattr(graded, "ks_alpha", lambda m: 2 * real(m) if m == 5 else real(m))
    with pytest.raises(CrossCheckMismatch) as info:
        e_star_poly(6)
    assert info.value.name == "E10star polynomial"
    assert (info.value.exponent, info.value.values) == (0, (Fraction(1, 2), Fraction(1)))


@pytest.mark.parametrize("m", [2, 4, 7])
def test_e_star_poly_refuses_a_catalog_below_its_order(m):
    with pytest.raises(ValueError):
        e_star_poly(m, SeriesCatalog(e_star_order(m) - 1))
    assert e_star_poly(m, SeriesCatalog(e_star_order(m))) == e_star_poly(m)


def test_e_star_poly_memoizes_each_level_in_its_catalog(monkeypatch):
    cat = SeriesCatalog(e_star_order(8))
    poly = e_star_poly(8, cat)
    real = graded.first_difference
    calls = []

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(graded, "first_difference", counted)
    assert e_star_poly(8, cat) is poly
    assert check_positivity(5, cat)
    assert not calls
    # a new catalog holds no levels, so they are compared again
    assert e_star_poly(8) == poly
    assert len(calls) == 6


def test_e_star_poly_compares_on_the_whole_catalog_range(monkeypatch):
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
    with pytest.raises(CrossCheckMismatch) as info:
        e_star_poly(4, SeriesCatalog(40))
    assert (info.value.name, info.value.exponent) == ("E8star polynomial", 30)
    assert e_star_poly(4) == e_star_poly(4, SeriesCatalog(29))


def test_graded_keeps_no_state_between_calls():
    # every module name keeps its object, and every table its contents
    before = dict(vars(graded))
    containers = copy.deepcopy({
        k: v for k, v in before.items()
        if k != "__builtins__" and isinstance(v, (dict, list, set, tuple))
    })
    e_star_poly(8)
    check_positivity(5)
    assert checks.run_check("T49", mmax=6).status == "pass"
    after = dict(vars(graded))
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert {k: after[k] for k in containers} == containers


@pytest.mark.parametrize("m", range(3, 21))
def test_e_star_poly_matches_the_basis_decomposition(m):
    # the exact Bareiss decomposition is the oracle for the series check
    cat = SeriesCatalog(e_star_order(m))
    assert decompose_modular(cat.level2(m), 2 * m, cat) == e_star_poly(m)


def test_positivity():
    # one catalog for every level, each compared to the top level's order
    cat = SeriesCatalog(e_star_order(20))
    for m in range(2, 21):
        assert check_positivity(m, cat)


def test_evaluated_e_star_poly_matches_series():
    cat = SeriesCatalog(20)
    for m in (2, 4, 5, 6):
        assert gp_evaluate(e_star_poly(m), cat) == cat.level2(m)


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
    d_poly = GradedPoly(LEVEL2, {(0, 1, 0): Fraction(-1, 64), (0, 0, 2): Fraction(1, 64)})
    b = GradedPoly.generator(LEVEL2, "B")
    c = GradedPoly.generator(LEVEL2, "C")
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


_ORACLE_RULES = {
    LEVEL2: (
        {(2, 0, 0): Fraction(-1, 4), (0, 1, 0): Fraction(-1, 4)},
        {(0, 1, 1): Fraction(-1)},
        {(0, 1, 0): Fraction(-1, 2)},
    ),
    LEVEL1: (
        {(2, 0, 0): Fraction(-1, 12), (0, 1, 0): Fraction(-1, 12)},
        {(0, 0, 1): Fraction(-1, 3)},
        {(0, 2, 0): Fraction(-1, 2)},
    ),
}


def _oracle_derive(ring, p):
    out = {}
    for exps, coeff in p.items():
        for i in range(3):
            e = exps[i]
            if e:
                lowered = list(exps)
                lowered[i] = e - 1
                mono = {tuple(lowered): coeff * e}
                out = _oracle_add(out, _oracle_mul(mono, _ORACLE_RULES[ring][i]))
    return out


def _oracle_evaluate(ring, p, cat):
    if ring == LEVEL2:
        gens = (cat.level2(1), cat.level2(2), cat.C())
    else:
        gens = (cat.level1(1), cat.level1(2), cat.level1(3))
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
    names = graded._SERIES_NAMES[f.ring]
    total = QSeries.zero(cat.order)
    for exps, x in f._nums.items():
        factors = [cat.power(name, e) for name, e in zip(names, exps) if e]
        term = factors[0] if factors else QSeries.one(cat.order)
        for factor in factors[1:]:
            term = term * factor
        total = total + term.scale(x)
    return total.scale(Fraction(1, f._den))


def _oracle_e_star(mmax):
    polys = {2: {(0, 1, 0): Fraction(1)}}
    for mm in range(3, mmax + 1):
        acc = {}
        for k in range(2, mm - 1):
            acc = _oracle_add(
                acc, _oracle_scale(_oracle_mul(polys[k], polys[mm - k]),
                                   ks_coefficient(mm, k))
            )
        acc = _oracle_add(acc, _oracle_neg(_oracle_derive(LEVEL2, polys[mm - 1])))
        polys[mm] = _oracle_scale(acc, 1 / ks_alpha(mm))
    return polys


_DENOMINATORS = (1, 2, 12, 691, 3617, 691 * 3617)


def random_terms(rng, weight=None, ring=LEVEL2, max_exp=4):
    """Random exact coefficients, homogeneous when a weight is given."""
    from eisen2.graded import _WEIGHTS

    w = _WEIGHTS[ring]
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
        ring = rng.choice((LEVEL1, LEVEL2))
        p, q = random_terms(rng, ring=ring), random_terms(rng, ring=ring)
        if rng.random() < 0.1:
            q = {}
        fp, fq = GradedPoly(ring, p), GradedPoly(ring, q)
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
            assert got == GradedPoly(ring, want)
            assert got.is_zero() == (not want)
        assert (fp == fq) == (_clean(p) == _clean(q))
        assert fp + fq - fq == fp
        assert fp.scale(691).scale(Fraction(1, 691)) == fp


def test_poly_first_difference_compares_values_over_both_denominators():
    b = GradedPoly.generator(LEVEL2, "B")
    half, third = b.scale(Fraction(1, 2)), b.scale(Fraction(1, 3))
    assert half.first_difference(b.scale(Fraction(2, 4))) is None
    # equal numerators over different denominators differ
    assert (half._nums, third._nums) == ({(0, 1, 0): 1}, {(0, 1, 0): 1})
    assert half.first_difference(third) == (0, (0, 1, 0), Fraction(1, 2), Fraction(1, 3))
    # the position counts the sorted union of both monomial sets
    c2 = GradedPoly.monomial(LEVEL2, (0, 0, 2), 5)
    assert (half + c2).first_difference(half) == (0, (0, 0, 2), 5, 0)
    assert (c2 + half).first_difference(c2 + third) == (1, (0, 1, 0), Fraction(1, 2),
                                                        Fraction(1, 3))
    with pytest.raises(RingMismatch):
        half.first_difference(GradedPoly.generator(LEVEL1, "E4"))


def test_poly_is_kept_reduced():
    p = GradedPoly(LEVEL2, {(0, 1, 0): Fraction(2, 691), (0, 0, 2): Fraction(-4, 691)})
    assert (p._den, p._nums) == (691, {(0, 1, 0): 2, (0, 0, 2): -4})
    assert p.scale(Fraction(691, 2))._den == 1
    assert (p - p)._den == 1 and (p - p).is_zero()
    assert GradedPoly(LEVEL2, {(0, 1, 0): 0}) == GradedPoly.zero(LEVEL2)
    with pytest.raises(TypeError):
        p.terms[(0, 1, 0)] = Fraction(1)


def test_serre_derivatives_match_fraction_dict_oracle():
    rng = random.Random(42)
    for _ in range(200):
        ring = rng.choice((LEVEL1, LEVEL2))
        weight = rng.choice(range(2, 25, 2))
        p = random_terms(rng, weight, ring)
        derive = serre_delta if ring == LEVEL2 else serre_partial
        got = derive(GradedPoly(ring, p), weight if p else None)
        assert dict(got.terms) == _oracle_derive(ring, p)
    for ring, derive in ((LEVEL1, serre_partial), (LEVEL2, serre_delta)):
        assert derive(GradedPoly.zero(ring)).is_zero()
        one = GradedPoly.monomial(ring, (0, 0, 0))
        assert derive(one).is_zero()


def test_gp_evaluate_matches_per_monomial_powers():
    rng = random.Random(43)
    for ring in (LEVEL1, LEVEL2):
        cat = SeriesCatalog(20)
        # the constant polynomial and the zero polynomial
        seven = GradedPoly.monomial(ring, (0, 0, 0), Fraction(7, 691))
        assert gp_evaluate(seven, cat) == QSeries.one(20).scale(Fraction(7, 691))
        assert gp_evaluate(GradedPoly.zero(ring), cat) == QSeries.zero(20)
        # low exponents first, then powers past the highest one cached
        for max_exp in (2, 2, 5, 3, 9):
            for _ in range(10):
                p = random_terms(rng, ring=ring, max_exp=max_exp)
                assert gp_evaluate(GradedPoly(ring, p), cat) == _oracle_evaluate(ring, p, cat)


@pytest.mark.parametrize("m", range(2, 13))
def test_lifted_evaluation_is_the_evaluation_times_a_power_of_c(m):
    # the tower compares E*_2m(B, C) C^s with E*_2m C^s; C is a unit, so that
    # is the unlifted equation, and each side is the unlifted one times C^s
    cat = SeriesCatalog(e_star_order(m + 6))
    poly = e_star_poly(m, cat)
    for s in range(7):
        lifted = poly * GradedPoly.monomial(LEVEL2, (0, 0, s))
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
        p = GradedPoly(LEVEL2, random_terms(rng, ring=LEVEL2, max_exp=3))
        assert gp_evaluate(p, cat) == _oracle_gp_evaluate(p, cat)


def test_gp_evaluate_memoizes_each_monomial_in_the_catalog(monkeypatch):
    cat = SeriesCatalog(24)
    poly = GradedPoly(LEVEL2, {(1, 2, 3): 5, (0, 1, 4): Fraction(1, 3), (2, 0, 0): -1})
    first = gp_evaluate(poly, cat)
    assert {"E2star^1*E4star^2*C^3", "E4star^1*C^4"} <= set(cat._cache)

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
    oracle = _oracle_e_star(24)
    for m in range(2, 25):
        assert dict(e_star_poly(m).terms) == oracle[m]


@pytest.mark.parametrize(
    "build",
    [lambda: GradedPoly(LEVEL2, {(0, 1, 0): 0.1}),
     lambda: GradedPoly.generator(LEVEL2, "B").scale(0.1),
     lambda: GradedPoly.monomial(LEVEL2, (0, 1, 0), 0.1)],
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
        GradedPoly(LEVEL2, {exps: 1})
    with pytest.raises(error):
        GradedPoly.monomial(LEVEL2, exps)


def test_monomials_are_named_in_the_ring_generators():
    a = GradedPoly.generator(LEVEL2, "A")
    assert a.monomial_name((2, 1, 0)) == "A^2*B"
    assert a.monomial_name((0, 0, 3)) == "C^3"
    assert a.monomial_name((0, 0, 0)) == "1"
    assert GradedPoly.generator(LEVEL1, "E2").monomial_name((1, 0, 2)) == "E2*E6^2"
    poly = GradedPoly(LEVEL2, {(2, 0, 0): Fraction(-1, 4), (0, 0, 0): 3})
    assert repr(poly) == "GradedPoly(level2, (3) + (-1/4)*A^2)"
