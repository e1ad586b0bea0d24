from fractions import Fraction
from math import comb

import pytest

from eisen2.scalars import (
    PiScaled,
    bernoulli,
    check_scalar_recursion,
    ks_alpha,
    ks_coefficient,
    lambda_even,
    rs_coefficient,
    zeta_even,
)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(14) == Fraction(7, 6)
    assert bernoulli(3) == 0


def test_bernoulli_odd_vanish_and_even_alternate():
    for n in range(3, 61, 2):
        assert bernoulli(n) == 0
    for k in range(1, 31):
        expected_sign = 1 if k % 2 == 1 else -1
        assert bernoulli(2 * k) * expected_sign > 0


def _oracle_bernoulli(n):
    # the Fraction loop bernoulli ran before it summed numerators in integers
    values = [Fraction(1)]
    for m in range(1, n + 1):
        values.append(-sum(comb(m + 1, j) * values[j] for j in range(m)) / (m + 1))
    return values


def test_bernoulli_matches_the_fraction_recursion():
    # extended from a cleared memo in steps, so the integer sums restart from
    # entries already memoized and the common denominator grows in between
    from eisen2 import scalars

    expected = _oracle_bernoulli(200)
    saved = list(scalars._BERNOULLI)
    try:
        del scalars._BERNOULLI[1:]
        for n in (1, 2, 5, 6, 61, 200):
            assert bernoulli(n) == expected[n]
            assert type(bernoulli(n)) is Fraction
        assert scalars._BERNOULLI == expected
    finally:
        scalars._BERNOULLI[:] = saved


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_zeta_even_values():
    assert zeta_even(0) == PiScaled(Fraction(-1, 2), 0)
    assert zeta_even(1) == PiScaled(Fraction(1, 6), 2)
    assert zeta_even(2) == PiScaled(Fraction(1, 90), 4)
    assert zeta_even(3) == PiScaled(Fraction(1, 945), 6)


def test_lambda_even_values():
    assert lambda_even(0) == PiScaled(Fraction(0), 0)
    assert lambda_even(1) == PiScaled(Fraction(1, 8), 2)
    assert lambda_even(2) == PiScaled(Fraction(1, 96), 4)


def test_even_zeta_and_lambda_are_memoized():
    for k in range(0, 12):
        assert zeta_even(k) is zeta_even(k)
        assert lambda_even(k) is lambda_even(k)
        assert lambda_even(k) == zeta_even(k) * (1 - Fraction(1, 4**k))


def test_zeta_lambda_positive_for_positive_index():
    for k in range(1, 21):
        assert zeta_even(k).coeff > 0
        assert lambda_even(k).coeff > 0
        assert zeta_even(k).pi_power == 2 * k


def test_lambda_to_zeta_ratio():
    for k in range(1, 21):
        assert lambda_even(k).ratio(zeta_even(k)) == 1 - Fraction(1, 4**k)


def test_scalar_recursions():
    for m in range(2, 21):
        assert check_scalar_recursion("zeta", m)
        assert check_scalar_recursion("lambda", m)


def test_recursion_kind_and_bounds():
    with pytest.raises(ValueError):
        check_scalar_recursion("zeta", 1)
    with pytest.raises(ValueError):
        check_scalar_recursion("eta", 3)


def test_pi_scaled_algebra():
    a = PiScaled(Fraction(1, 6), 2)
    b = PiScaled(Fraction(1, 90), 4)
    assert a * b == PiScaled(Fraction(1, 540), 6)
    assert a * 3 == PiScaled(Fraction(1, 2), 2)
    assert (a + a).coeff == Fraction(1, 3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a.ratio(b)
    with pytest.raises(ValueError):
        PiScaled(Fraction(1), 3)
    # zero absorbs any pi power
    assert PiScaled(Fraction(0), 8) == PiScaled(Fraction(0), 0)
    assert PiScaled(Fraction(0), 0) + a == a


def test_differential_coefficients():
    # the three classical weight coefficients: 1/12, 1/3, 1/2
    assert rs_coefficient(2, 1) == Fraction(1, 12)
    assert 2 * rs_coefficient(3, 1) == Fraction(1, 3)
    assert 2 * rs_coefficient(4, 1) == Fraction(1, 2)
    # level-2 convolution coefficients for the displayed cases
    assert ks_coefficient(2, 1) == Fraction(1, 4)
    assert 2 * ks_coefficient(3, 1) == 1
    assert 2 * ks_coefficient(4, 1) == Fraction(12, 8)
    assert ks_coefficient(4, 2) == Fraction(5, 8)
    assert 2 * ks_coefficient(5, 1) == Fraction(34, 17)
    assert 2 * ks_coefficient(5, 2) == Fraction(28, 17)


def test_alpha_values_and_positivity():
    assert ks_alpha(3) == 1
    assert ks_alpha(4) == Fraction(17, 8)
    for m in range(2, 21):
        assert ks_alpha(m) > 0


def test_bernoulli_memo_survives_concurrent_cold_callers():
    # each B_m is built from all before it; threads extending a cleared memo
    # at once must not interleave their entries
    import sys
    import threading

    from eisen2 import scalars

    expected = [bernoulli(n) for n in range(121)]
    saved = list(scalars._BERNOULLI)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            del scalars._BERNOULLI[1:]
            threads = [threading.Thread(target=bernoulli, args=(120,)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert scalars._BERNOULLI[:121] == expected
    finally:
        sys.setswitchinterval(interval)
        scalars._BERNOULLI[:] = saved


@pytest.mark.parametrize(
    "build",
    [lambda: PiScaled(0.5, 2), lambda: PiScaled(Fraction(1), 2) * 0.5,
     lambda: 0.5 * PiScaled(Fraction(1), 2)],
    ids=["PiScaled", "PiScaled*float", "float*PiScaled"],
)
def test_pi_scaled_refuses_floats(build):
    with pytest.raises(TypeError):
        build()


def test_pi_scaled_keeps_ints_exact():
    assert PiScaled(1, 2) == PiScaled(Fraction(1), 2)
    assert type(PiScaled(1, 2).coeff) is Fraction
    assert PiScaled(Fraction(1, 3), 2) * 3 == PiScaled(Fraction(1), 2)
