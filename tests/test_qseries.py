import random
from fractions import Fraction

import pytest

from eisen2.catalog import SeriesCatalog
from eisen2.qseries import (
    QSeries,
    ZeroConstantTerm,
    first_difference,
    int_mul,
    qs_det,
    rational_str,
)

LAW_RUNS = 120


def test_numerators_and_denominator_view():
    series = QSeries([Fraction(1, 6), Fraction(-1, 4), 2, 0])
    assert series.denominator == 12
    assert series.numerators == (2, -3, 24, 0)
    assert all(Fraction(x, series.denominator) == c
               for x, c in zip(series.numerators, series.coeffs))
    # an integral series has denominator 1, also after reduction
    assert (series.scale(6) + series.scale(6)).denominator == 1
    with pytest.raises(AttributeError):
        series.numerators = (1,)


def random_series(rng, order=None):
    order = rng.randint(0, 16) if order is None else order
    return QSeries([rng.randint(-9, 9) for _ in range(order + 1)])


def test_add_examples():
    assert QSeries([1, 1]) + QSeries([1, -1]) == QSeries([2, 0])
    assert QSeries([1, 8]) + QSeries.zero(1) == QSeries([1, 8])
    cat = SeriesCatalog(8)
    doubled = cat.level2(1) + cat.level2(1)
    assert doubled.coeffs[:3] == (Fraction(2), Fraction(16), Fraction(-16))


def test_mul_examples():
    assert QSeries([1, 1, 0]) * QSeries([1, -1, 0]) == QSeries([1, 0, -1])
    a = QSeries([1, 8, -8, 32])
    assert a * QSeries.one(3) == a
    cat = SeriesCatalog(4)
    sq = cat.level2(1) * cat.level2(1)
    assert sq.coeffs[1] == 16


def test_theta_examples():
    assert QSeries.one(3).theta() == QSeries.zero(3)
    assert QSeries([1, 8, -8]).theta() == QSeries([0, 8, -16])
    cat = SeriesCatalog(24)
    a, b = cat.level2(1), cat.level2(2)
    assert a.theta() == (a * a - b).scale(Fraction(1, 4))


def test_invert():
    assert QSeries.one(5).invert() == QSeries.one(5)
    geom = QSeries([1, -1] + [0] * 6).invert()
    assert geom == QSeries([1] * 8)
    cat = SeriesCatalog(64)
    b = cat.level2(2)
    assert b * b.invert() == QSeries.one(64)
    with pytest.raises(ZeroConstantTerm):
        QSeries([0, 1]).invert()


def test_neg_q():
    assert QSeries([1, 1]).neg_q() == QSeries([1, -1])
    rng = random.Random(5)
    for _ in range(50):
        a = random_series(rng)
        assert a.neg_q().neg_q() == a
    cat = SeriesCatalog(16)
    assert (cat.theta3() ** 8).neg_q() == cat.level2(2)


def test_dilate():
    a = QSeries([Fraction(1, 2), 3, -5, 7, 11])
    assert a.dilate(1) == a
    assert a.dilate(2).coeffs == QSeries([Fraction(1, 2), 0, 3, 0, -5]).coeffs
    assert a.dilate(3).coeffs == QSeries([Fraction(1, 2), 0, 0, 3, 0]).coeffs
    # past the order only the constant term survives; order 0 is kept
    assert a.dilate(9).coeffs == QSeries([Fraction(1, 2), 0, 0, 0, 0]).coeffs
    assert QSeries([Fraction(-2, 3)]).dilate(4).coeffs == (Fraction(-2, 3),)
    with pytest.raises(ValueError):
        a.dilate(0)
    rng = random.Random(6)
    for _ in range(50):
        b = random_series(rng)
        k = rng.randint(1, 6)
        expected = [0] * (b.order + 1)
        for n in range(0, b.order // k + 1):
            expected[k * n] = b[n]
        assert b.dilate(k).coeffs == tuple(expected)


def test_pow():
    a = QSeries([1, 1, 0])
    assert a**0 == QSeries.one(2)
    assert a**2 == QSeries([1, 2, 1])
    cat = SeriesCatalog(4)
    assert (cat.theta3() ** 4).coeffs[1] == 8


def test_det_examples():
    one = QSeries.one(4)
    assert qs_det([[one]]) == one
    cat = SeriesCatalog(24)
    e4, e6, e8 = cat.level1(2), cat.level1(3), cat.level1(4)
    assert qs_det([[e4, e6], [e6, e8]]) == cat.delta().scale(1728)
    b, bs6, bs8 = cat.level2(2), cat.level2(3), cat.level2(4)
    lhs = qs_det([[b, bs6], [bs6, bs8]])
    assert lhs == cat.delta().scale(Fraction(-(2**6) * 3**2, 17))


def test_det_equal_rows_vanishes():
    rng = random.Random(11)
    for _ in range(30):
        row = [random_series(rng, 8) for _ in range(3)]
        other = [random_series(rng, 8) for _ in range(3)]
        assert qs_det([row, row, other]) == QSeries.zero(8)


def test_truncation_contract():
    a = QSeries([1, 2, 3, 4])
    b = QSeries([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1
    # common-range equality
    assert a == QSeries([1, 2])
    assert a != QSeries([1, 1])
    assert a.truncate(2).order == 2
    assert a.truncate(9) is a


def test_first_difference():
    a = QSeries([1, 2, 3])
    b = QSeries([1, 2, 4, 9])
    assert first_difference(a, b) == (2, Fraction(3), Fraction(4))
    assert first_difference(a, a) is None


def test_serialization():
    assert rational_str(Fraction(3)) == "3"
    assert rational_str(Fraction(-32, 17)) == "-32/17"
    assert QSeries([1, Fraction(1, 2)]).to_strings() == ["1", "1/2"]


def test_ring_laws_randomized():
    rng = random.Random(2024)
    for _ in range(LAW_RUNS):
        order = rng.randint(0, 16)
        a = random_series(rng, order)
        b = random_series(rng, order)
        c = random_series(rng, order)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_theta_leibniz_randomized():
    rng = random.Random(99)
    for _ in range(LAW_RUNS):
        a = random_series(rng)
        b = random_series(rng)
        lhs = (a * b).theta()
        rhs = a.theta() * b + a * b.theta()
        assert lhs == rhs


def test_invert_two_sided_randomized():
    rng = random.Random(7)
    done = 0
    while done < LAW_RUNS:
        a = random_series(rng)
        if a.coeffs[0] == 0:
            continue
        inv = a.invert()
        assert a * inv == QSeries.one(a.order)
        assert inv * a == QSeries.one(a.order)
        done += 1


def test_fraction_coefficients_path():
    # mixed rational coefficients exercise the non-integer multiply path
    a = QSeries([Fraction(1, 2), Fraction(1, 3)])
    b = QSeries([Fraction(2), Fraction(-1, 5)])
    assert a * b == QSeries([Fraction(1), Fraction(2, 3) - Fraction(1, 10)])


# -- differential tests of the Kronecker kernel against schoolbook oracles --

DENOMINATORS = (1, 17, 691, 3617, 17 * 691, 2**5 * 3617)


def schoolbook_mul(a, b):
    """Oracle: the O(n^2) Fraction convolution on the common order."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n - i + 1):
            out[i + j] += a[i] * b[j]
    return out


def triangular_invert(a):
    """Oracle: b_0 = 1/a_0, b_n = -(1/a_0) sum_{j>=1} a_j b_{n-j}."""
    inv0 = 1 / a[0]
    b = [inv0]
    for n in range(1, a.order + 1):
        b.append(-inv0 * sum(a[j] * b[n - j] for j in range(1, n + 1)))
    return b


def wide_series(rng, order, zero_constant=False):
    """Signed numerators up to about 10^30 over mixed denominators."""
    big = 10**30
    coeffs = [Fraction(rng.randint(-big, big), rng.choice(DENOMINATORS))
              for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = Fraction(0)
    for n in rng.sample(range(order + 1), (order + 1) // 3):
        coeffs[n] = Fraction(0)  # some sparsity, as in theta powers
    return QSeries(coeffs)


def test_kernel_matches_schoolbook_randomized():
    rng = random.Random(31)
    for _ in range(60):
        a = wide_series(rng, rng.randint(0, 40), zero_constant=rng.random() < 0.3)
        b = wide_series(rng, rng.randint(0, 40), zero_constant=rng.random() < 0.3)
        assert (a * b).coeffs == tuple(schoolbook_mul(a, b))
        assert (a * a).coeffs == tuple(schoolbook_mul(a, a))


def test_kernel_edge_cases():
    rng = random.Random(8)
    a = wide_series(rng, 12)
    zero = QSeries.zero(12)
    assert a * zero == zero and zero * a == zero
    assert (zero * zero).coeffs == (0,) * 13
    # order 0 and unequal orders truncate to the shorter operand
    c0 = QSeries([Fraction(-7, 691)])
    assert (c0 * a).coeffs == (Fraction(-7, 691) * a[0],)
    short = wide_series(rng, 3)
    assert (a * short).order == 3
    assert (a * short).coeffs == tuple(schoolbook_mul(a, short))
    assert (short * a).coeffs == tuple(schoolbook_mul(a, short))
    # a zero constant term shifts the product
    shifted = QSeries([0, 1] + [0] * 11)
    assert (shifted * a).coeffs == (0,) + a.coeffs[:12]


def test_int_mul_signed_carries():
    # extreme values exercise the sign bit and the carry of every slot
    big = 10**30
    a = [big, -big, big, -1, 0, -big]
    b = [-big, -big, 1, big, -1, big]
    expected = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(6)]
    assert int_mul(a, b, 5) == expected
    assert int_mul(a, a, 5) == [sum(a[i] * a[k - i] for i in range(k + 1))
                                for k in range(6)]
    assert int_mul([0], [0], 0) == [0]
    assert int_mul([3, 1], [5], 1) == [15, 5]


def test_invert_matches_triangular_recursion():
    rng = random.Random(77)
    for order in (0, 1, 2, 5, 16, 33):
        for _ in range(4):
            a = wide_series(rng, order)
            if a[0] == 0:
                a = a + QSeries.one(order).scale(Fraction(5, 17))
            assert a.invert().coeffs == tuple(triangular_invert(a))
    cat = SeriesCatalog(40)
    for k in (2, 4, 6):
        e = cat.level2(k)
        assert e.invert().coeffs == tuple(triangular_invert(e))
    with pytest.raises(ZeroConstantTerm):
        wide_series(rng, 6, zero_constant=True).invert()


def test_fraction_view_and_difference_are_reduced():
    a = QSeries([Fraction(1, 2), Fraction(3, 691), Fraction(2, 4)])
    b = QSeries([Fraction(1, 2), Fraction(6, 17), 7])
    for series in (a, b, a + b, a * b, a - a, a.scale(Fraction(691, 3))):
        for c in series.coeffs:
            assert isinstance(c, Fraction)
            assert c == Fraction(c.numerator, c.denominator)
    assert a.coeffs == (Fraction(1, 2), Fraction(3, 691), Fraction(1, 2))
    assert (a - a).coeffs == (0, 0, 0)
    n, lhs, rhs = first_difference(a, b)
    assert (n, lhs, rhs) == (1, Fraction(3, 691), Fraction(6, 17))
    assert (lhs.denominator, rhs.denominator) == (691, 17)
    # equal values over different denominators compare equal
    assert QSeries([Fraction(1, 2), 1]) == QSeries([Fraction(1, 2), 1, Fraction(1, 3)])
    assert first_difference(QSeries([2, Fraction(4, 6)]), QSeries([2, Fraction(2, 3)])) is None


def test_constructor_and_make_give_equal_reduced_series():
    rng = random.Random(11)
    ints = [rng.randint(-10**30, 10**30) for _ in range(301)]
    for den in (1, 6, 691):
        built = QSeries([Fraction(x, den) for x in ints])
        made = QSeries._make(ints, den)
        assert (built.numerators, built.denominator) == (made.numerators, made.denominator)
        assert built.coeffs == made.coeffs
    # ints are their own numerators over 1, and bools become ints
    assert QSeries(ints).numerators == tuple(ints) and QSeries(ints).denominator == 1
    assert QSeries([True, 0, 2]).numerators == (1, 0, 2)
    assert {type(x) for x in QSeries([True, 0, 2]).numerators} == {int}
    assert QSeries([2, Fraction(4, 2)]).numerators == (2, 2)
    # a common factor of all numerators stays when the denominator is 1
    assert QSeries([2, 4]).numerators == (2, 4)
    sparse = {0: 1, 4: 2, 9: Fraction(2, 3), 40: 5}
    assert QSeries.from_terms(sparse, 30) == QSeries._make(
        [3] + [0] * 3 + [6] + [0] * 4 + [2] + [0] * 21, 3)
    # the catalog builds theta3 with _make over its integer list
    squares = {m * m: 2 for m in range(1, 6)}
    theta3 = SeriesCatalog(30).theta3()
    assert theta3 == QSeries.from_terms({0: 1, **squares}, 30)
    assert theta3.denominator == 1
    with pytest.raises(ValueError):
        QSeries([])


@pytest.mark.parametrize(
    "build",
    [lambda: QSeries([0.1]), lambda: QSeries([1, 2]).scale(0.1),
     lambda: QSeries.from_terms({1: 0.5}, 3)],
    ids=["QSeries", "scale", "from_terms"],
)
def test_series_refuse_floats(build):
    # a float would enter as its binary expansion, not as the decimal it shows
    with pytest.raises(TypeError):
        build()
