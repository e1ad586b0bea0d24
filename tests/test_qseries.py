import random
from fractions import Fraction
from math import gcd

import pytest

from eisen2 import arith
from eisen2.catalog import SeriesCatalog
from eisen2.qseries import (
    QSeries,
    ZeroConstantTerm,
    first_difference,
    int_mul,
    linear_combination,
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


def test_hecke():
    # (T_p f)_n = f_(pn) + p^(k-1) f_(n/p), the second term only where p | n
    a = QSeries([Fraction(1, 6), 3, Fraction(-5, 4), 7, 11, -2, 13])
    assert a.hecke(2, 4).coeffs == (Fraction(3, 2), Fraction(-5, 4), 35, 13)
    assert a.hecke(3, 2).coeffs == (Fraction(2, 3), 7, 13)
    # past the order only q^0 is left, where p | 0
    assert a.hecke(7, 12).coeffs == (Fraction(1 + 7**11, 6),)
    # T_p is defined here at a prime p only: at p = 4, c_(4n) + 4^11 c_(n/4)
    # is not T_4
    for p in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match="needs a prime p"):
            a.hecke(p, 12)
    # p^(k-1) would be a float below k = 1, and a float or Fraction weight
    # would leak into the integer numerators
    for k in (0, -1, 12.0, Fraction(12)):
        with pytest.raises(ValueError, match=r"weight k >= 1, got k = "):
            a.hecke(2, k)
    rng = random.Random(16)
    for _ in range(50):
        b = random_series(rng).scale(Fraction(1, rng.randint(1, 12)))
        p, k = rng.choice((2, 3, 5, 7)), rng.randint(1, 12)
        expected = [b[p * n] + (p ** (k - 1) * b[n // p] if n % p == 0 else 0)
                    for n in range(b.order // p + 1)]
        assert b.hecke(p, k).coeffs == tuple(expected)


def test_hecke_eigenforms():
    # T_p E_2k = sigma_(2k-1)(p) E_2k, and T_p Delta = tau(p) Delta
    cat = SeriesCatalog(200)
    delta = cat.delta()
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 7):
            e = cat.level1(k)
            image = e.hecke(p, 2 * k)
            assert image.order == 200 // p
            assert image == e.scale(arith.sigma(2 * k - 1, p)), (p, k)
        assert delta.hecke(p, 12) == delta.scale(delta[p]), p


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
    assert [rational_str(x) for x in (0, 5, -3, True)] == ["0", "5", "-3", "1"]
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


def schoolbook_int(a, b, order):
    """The integer convolution of a and b at exponents 0..order, either
    operand possibly shorter than order + 1."""
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(order + 1)]


def slot_bits(a, b, order):
    # int_mul's slot-width rule, to place inputs at a byte boundary
    return (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + (order + 1).bit_length() + 1)


@pytest.mark.parametrize("past", [0, 1], ids=["on-byte-boundary", "one-bit-past"])
@pytest.mark.parametrize("order", [0, 1, 2, 6, 7, 15, 31, 64])
def test_int_mul_slot_width_at_a_byte_boundary(order, past):
    # extreme entries +-(2^k - 1) and -2^(k-1), k the bit length, fill the
    # top slot of the product as far as the width rule allows
    rng = random.Random(100 * order + past)
    for target in range(16, 65, 8):
        free = target + past - 1 - (order + 1).bit_length()
        ka, kb = free // 2, free - free // 2
        top_a, top_b = 2**ka - 1, 2**kb - 1
        layouts = [
            ([top_a] * (order + 1), [top_b] * (order + 1)),
            ([-top_a] * (order + 1), [top_b] * (order + 1)),
            ([-top_a] * (order + 1), [-top_b] * (order + 1)),
            ([-(2 ** (ka - 1))] * order + [-top_a], [-(2 ** (kb - 1))] * order + [top_b]),
            ([rng.choice((top_a, -top_a, -(2 ** (ka - 1)))) for _ in range(order)] + [top_a],
             [rng.choice((top_b, -top_b, -(2 ** (kb - 1)))) for _ in range(order)] + [-top_b]),
        ]
        for a, b in layouts:
            assert slot_bits(a, b, order) == target + past
            assert int_mul(a, b, order) == schoolbook_int(a, b, order)
            assert int_mul(b, a, order) == schoolbook_int(a, b, order)


def test_int_mul_all_negative_operands_and_negative_squares():
    for order in (0, 1, 5, 33):
        for k in (1, 7, 8, 63, 64, 200):
            neg = [-(2**k - 1)] * (order + 1)
            low = [-(2**k)] * (order + 1)
            assert int_mul(neg, low, order) == schoolbook_int(neg, low, order)
            mixed = [-(2**k) if i % 3 else -(2**k - 1) for i in range(order + 1)]
            # a is b is the one-pack square
            assert int_mul(neg, neg, order) == schoolbook_int(neg, neg, order)
            assert int_mul(mixed, mixed, order) == schoolbook_int(mixed, mixed, order)
            assert int_mul(mixed, list(mixed), order) == schoolbook_int(mixed, mixed, order)


def test_int_mul_operand_shorter_than_the_order():
    # Newton inversion passes an iterate g shorter than order + 1; its offset
    # is that of its own length (one offset for both gave [15, -123] for
    # int_mul([3, 1], [5], 1), which test_int_mul_signed_carries pins)
    assert int_mul([5], [3, 1], 1) == [15, 5]
    assert int_mul([-3, 1], [-5], 3) == [15, -5, 0, 0]
    assert int_mul([-1], [-1], 4) == [1, 0, 0, 0, 0]
    rng = random.Random(31)
    for _ in range(100):
        order = rng.randint(0, 40)
        bits = rng.randint(1, 120)
        a = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, order + 1))]
        b = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, order + 1))]
        assert int_mul(a, b, order) == schoolbook_int(a, b, order)
        assert int_mul(a, a, order) == schoolbook_int(a, a, order)


def test_int_mul_seeded_sweep():
    # bit lengths 1..300 and orders 0..64, with zeros and short operands mixed in
    rng = random.Random(17)
    for bits in range(1, 301):
        order = rng.randint(0, 64)
        other = rng.randint(1, 300)

        def draw(k, length):
            top = 2**k - 1
            return [rng.choice((0, top, -top, -(2 ** (k - 1)), rng.randint(-top, top)))
                    for _ in range(length)]

        a = draw(bits, order + 1 if bits % 4 else rng.randint(1, order + 1))
        b = draw(other, order + 1 if bits % 5 else rng.randint(1, order + 1))
        assert int_mul(a, b, order) == schoolbook_int(a, b, order)
        if bits % 3 == 0:
            assert int_mul(a, a, order) == schoolbook_int(a, a, order)


def test_first_difference_with_equal_and_unequal_denominators():
    base = [Fraction(1, 6), 2, Fraction(-5, 6), 7, 0, Fraction(11, 3)]
    a = QSeries(base)
    assert first_difference(a, QSeries(base)) is None
    assert first_difference(a, a.truncate(3)) is None
    last = len(base) - 1
    for i in (0, last):
        # equal denominators: the numerator tuples differ at i
        same = list(base)
        same[i] += 1
        b = QSeries(same)
        assert a.denominator == b.denominator == 6
        assert first_difference(a, b) == (i, base[i], base[i] + 1)
        assert first_difference(b, a) == (i, base[i] + 1, base[i])
        # unequal denominators: 6 against 30
        other = list(base)
        other[i] += Fraction(1, 5)
        c = QSeries(other)
        assert c.denominator == 30
        assert first_difference(a, c) == (i, base[i], base[i] + Fraction(1, 5))
    # unequal denominators that agree on the common range
    assert first_difference(a.truncate(2), QSeries(base[:3] + [Fraction(1, 7)])) is None


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
    # exponent 40 above is truncated away; a negative one is refused, by name
    with pytest.raises(ValueError, match="got -1"):
        QSeries.from_terms({-1: 5, 2: 1}, 4)


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


# int_mul evaluates at +X and -X, X = 2^(w/2), and reads the even and the odd
# coefficients of the product from two quotients; these cases sit on its
# seams: one slot or two, a half-slot shift 4 size that is not a whole byte,
# parts of one sign against parts of the other, and short operands


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_int_mul_at_the_smallest_orders(order):
    # order + 1 slots: one even slot alone, then even and odd counts in turn
    rng = random.Random(order)
    values = (0, 1, -1, 2, -2, 127, -128, 255, -256, 2**40 - 1, -(2**40))
    for _ in range(300):
        a = [rng.choice(values) for _ in range(rng.randint(1, order + 1))]
        b = [rng.choice(values) for _ in range(rng.randint(1, order + 1))]
        assert int_mul(a, b, order) == schoolbook_int(a, b, order)
        assert int_mul(a, a, order) == schoolbook_int(a, a, order)
    assert int_mul([7], [-6], order) == [-42] + [0] * order


@pytest.mark.parametrize("size", [1, 3, 5, 7, 9, 17])
def test_int_mul_half_slot_shift_off_a_byte(size):
    # an odd slot size puts the shift 4 size in the middle of a byte
    rng = random.Random(size)
    seen = 0
    for order in range(0, 12):
        for bits in range(8 * size - 7, 8 * size + 1):
            free = bits - 1 - (order + 1).bit_length()
            if free < 2:
                continue
            ka, kb = free // 2, free - free // 2
            top_a, top_b = 2**ka - 1, 2**kb - 1
            a = [rng.choice((top_a, -top_a, -(2 ** (ka - 1)))) for _ in range(order)] + [top_a]
            b = [rng.choice((top_b, -top_b, -(2 ** (kb - 1)))) for _ in range(order)] + [-top_b]
            assert (slot_bits(a, b, order) + 7) // 8 == size  # int_mul's slot bytes
            assert int_mul(a, b, order) == schoolbook_int(a, b, order)
            assert int_mul(a, a, order) == schoolbook_int(a, a, order)
            seen += 1
    assert seen > 0


@pytest.mark.parametrize("order", [1, 2, 5, 8, 33])
def test_int_mul_even_and_odd_parts_of_opposite_signs(order):
    # a(X) and a(-X) are the even part plus and minus X times the odd part;
    # with the parts of opposite signs one of the two nearly cancels
    for k in (1, 4, 8, 31, 64, 100):
        top = 2**k - 1
        alternating = [top if i % 2 == 0 else -top for i in range(order + 1)]
        flipped = [-x for x in alternating]
        low = [-(2**k) if i % 2 else 2**k - 1 for i in range(order + 1)]
        for a, b in ((alternating, alternating), (alternating, flipped),
                     (alternating, low), (low, flipped), (low, low)):
            assert int_mul(a, b, order) == schoolbook_int(a, b, order)
            assert int_mul(b, a, order) == schoolbook_int(a, b, order)
        for a in (alternating, flipped, low):
            # a is a is the square of each evaluation
            assert int_mul(a, a, order) == schoolbook_int(a, a, order)


@pytest.mark.parametrize("order", [4, 5, 12, 13])
def test_int_mul_short_operands_of_odd_and_even_length(order):
    # a shorter operand has its own even and odd slot counts, which may
    # differ from those of the product
    rng = random.Random(order)
    for la in range(1, order + 1):
        for lb in (1, 2, la, order + 1):
            a = [rng.randint(-(2**60), 2**60) for _ in range(la)]
            b = [rng.randint(-(2**9), 2**9) for _ in range(lb)]
            assert int_mul(a, b, order) == schoolbook_int(a, b, order)
            assert int_mul(b, a, order) == schoolbook_int(a, b, order)
            assert int_mul(a, a, order) == schoolbook_int(a, a, order)


@pytest.mark.parametrize("names", [("E10", "E12"), ("E12", "E12"), ("r12", "r12")],
                         ids=["E10*E12", "E12*E12", "theta3^12*theta3^12"])
def test_int_mul_on_catalog_operands_at_order_300(names):
    cat = SeriesCatalog(300)
    a, b = (cat.by_name(name).numerators for name in names)
    if names[0] == names[1]:
        assert int_mul(a, a, 300) == schoolbook_int(a, a, 300)
    assert int_mul(a, b, 300) == schoolbook_int(a, b, 300)


def test_linear_combination_matches_a_fraction_sum():
    rng = random.Random(26)
    weights = (0, 1, -1, 7, -12, Fraction(3, 4), Fraction(-5, 6), Fraction(691, 65520))
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(1, 5)):
            series = QSeries([Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 8, 24)))
                              for _ in range(rng.randint(1, 12))])
            terms.append((rng.choice(weights), series))
        got = linear_combination(*terms)
        n = min(series.order for _, series in terms) + 1
        want = [sum((w * series.coefficient(i) for w, series in terms), Fraction(0))
                for i in range(n)]
        assert got.coeffs == tuple(want)
        # reduced, over a positive denominator
        assert got.denominator > 0
        assert gcd(got.denominator, *got.numerators) == 1
        assert got == QSeries(want)


def test_linear_combination_edge_cases():
    a, b = QSeries([1, Fraction(1, 2), 3]), QSeries([Fraction(1, 3), 1])
    # a zero weight adds nothing but bounds the range
    assert linear_combination((1, a), (0, b)).coeffs == (1, Fraction(1, 2))
    zero = linear_combination((0, a))
    assert zero.numerators == (0, 0, 0) and zero.denominator == 1
    # cancellation reduces to denominator 1
    assert linear_combination((2, a), (-2, a)).denominator == 1
    # the operators are its one- and two-term cases
    assert a + b == linear_combination((1, a), (1, b))
    assert a - b == linear_combination((1, a), (-1, b))
    assert -a == linear_combination((-1, a))
    assert a.scale(Fraction(-2, 3)) == linear_combination((Fraction(-2, 3), a))
    with pytest.raises(ValueError):
        linear_combination()
    with pytest.raises(TypeError):
        linear_combination((0.5, a))
