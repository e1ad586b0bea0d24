import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from eisen2.arith import divisor_sum_zero
from eisen2.scalars import (
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


def test_bernoulli_refuses_an_index_past_the_index_range_at_once(monkeypatch):
    # the memo is extended under its lock, so a lock that refuses to be taken
    # makes a call that would extend it fail at once instead of running
    # until memory runs out
    from eisen2 import scalars

    class Untouchable:
        def __enter__(self):
            raise AssertionError("the Bernoulli memo was extended")

        def __exit__(self, *exc):
            return False

    saved = list(scalars._BERNOULLI)
    monkeypatch.setattr(scalars, "_BERNOULLI_LOCK", Untouchable())
    try:
        for n in (2 * 10**20, sys.maxsize + 1):
            with pytest.raises(OverflowError, match=f"index {n} "):
                bernoulli(n)
            assert len(scalars._BERNOULLI) == len(saved)
        # the largest index is not refused by the guard but extends the memo
        with pytest.raises(AssertionError, match="extended"):
            bernoulli(sys.maxsize)
    finally:
        scalars._BERNOULLI[:] = saved


def test_zeta_even_values():
    # zeta(2k)/pi^(2k): zeta(0) = -1/2, zeta(2) = pi^2/6, zeta(4) = pi^4/90
    assert zeta_even(0) == Fraction(-1, 2)
    assert zeta_even(1) == Fraction(1, 6)
    assert zeta_even(2) == Fraction(1, 90)
    assert zeta_even(3) == Fraction(1, 945)


def test_lambda_even_values():
    assert lambda_even(0) == 0
    assert lambda_even(1) == Fraction(1, 8)
    assert lambda_even(2) == Fraction(1, 96)


def test_lambda_is_zeta_times_one_minus_a_power_of_four():
    # from k = 0, where the ratio of test_lambda_to_zeta_ratio divides by zero
    for k in range(0, 12):
        assert lambda_even(k) == zeta_even(k) * (1 - Fraction(1, 4**k))


def test_zeta_lambda_positive_for_positive_index():
    for k in range(1, 21):
        assert type(zeta_even(k)) is Fraction and zeta_even(k) > 0
        assert type(lambda_even(k)) is Fraction and lambda_even(k) > 0


def test_lambda_to_zeta_ratio():
    for k in range(1, 21):
        assert lambda_even(k) / zeta_even(k) == 1 - Fraction(1, 4**k)


def test_lambda_is_the_divisor_sum_constant_over_a_factorial():
    # lambda(2k)/pi^(2k) = (-1)^(k+1) S*_{2k-1}(0)/(2k-1)!: the identity that
    # turns the E*_2m tower's weights into binomial coefficients
    for k in range(1, 81):
        assert lambda_even(k) / divisor_sum_zero("sigma_star", 2 * k - 1) == Fraction(
            (-1) ** (k + 1), factorial(2 * k - 1)), k


_ORACLE_TOP = 41  # T49 at mmax 40 reads lambda(2k) for k <= 40


def _oracle_even_values(first, shift, top=_ORACLE_TOP):
    """x_k = zeta(2k)/pi^(2k) (first 1/6, shift +1) or lambda(2k)/pi^(2k)
    (first 1/8, shift -1) for k = 1..top from the quadratic recursion
    x_m = 2/(2m + shift) sum_{k=1}^{m-1} x_k x_(m-k) alone, with no Bernoulli
    number; index 0 is unused."""
    x = [None, Fraction(first)]
    for m in range(2, top + 1):
        x.append(Fraction(2, 2 * m + shift) * sum(x[k] * x[m - k] for k in range(1, m)))
    return x


def test_scalars_match_the_recursion_oracle():
    z = _oracle_even_values(Fraction(1, 6), 1)
    lam = _oracle_even_values(Fraction(1, 8), -1)
    for k in range(1, _ORACLE_TOP + 1):
        assert zeta_even(k) == z[k], k
        assert lambda_even(k) == lam[k], k
    for m in range(2, _ORACLE_TOP + 1):
        # the pi powers cancel in each coefficient: 2m above and below
        assert ks_alpha(m) == Fraction((2 * m - 2) * (2 * m - 1), 2) * lam[m] / lam[m - 1], m
        for k in range(1, m):
            assert rs_coefficient(m, k) == (m - 1) * z[k] * z[m - k] / (2 * z[m - 1]), (m, k)
            assert ks_coefficient(m, k) == (2 * m - 2) * lam[k] * lam[m - k] / lam[m - 1], (m, k)


def test_scalar_recursions():
    for m in range(2, 21):
        assert check_scalar_recursion("zeta", m)
        assert check_scalar_recursion("lambda", m)


def test_recursion_kind_and_bounds():
    with pytest.raises(ValueError):
        check_scalar_recursion("zeta", 1)
    with pytest.raises(ValueError):
        check_scalar_recursion("eta", 3)


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


def _old_rs(m, k):
    return Fraction(m - 1, 2) * zeta_even(k) * zeta_even(m - k) / zeta_even(m - 1)


def _old_ks(m, k):
    return (2 * m - 2) * lambda_even(k) * lambda_even(m - k) / lambda_even(m - 1)


def _old_alpha(m):
    return Fraction((2 * m - 2) * (2 * m - 1), 2) * lambda_even(m) / lambda_even(m - 1)


def test_coefficients_match_the_fraction_products():
    # each coefficient is one Fraction of the memoized values' numerators and
    # denominators; the oracle multiplies and divides the Fractions themselves
    for m in range(2, 90):
        assert ks_alpha(m) == _old_alpha(m)
        for k in range(1, m):
            assert rs_coefficient(m, k) == _old_rs(m, k)
            assert ks_coefficient(m, k) == _old_ks(m, k)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the exception's type is the outcome
        return type(exc)


@pytest.mark.parametrize("m", range(-2, 4))
def test_coefficients_fail_as_the_fraction_products_do(m):
    # lambda(0) = 0 divides by zero and a negative index is refused, as before
    assert _outcome(ks_alpha, m) == _outcome(_old_alpha, m)
    for k in range(-2, 5):
        assert _outcome(rs_coefficient, m, k) == _outcome(_old_rs, m, k)
        assert _outcome(ks_coefficient, m, k) == _outcome(_old_ks, m, k)


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
