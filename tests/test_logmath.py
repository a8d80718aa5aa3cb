import math

import mpmath
import pytest

from vecfdp.logmath import LOG_ZERO, DomainError, log_pochhammer, log_sum_exp

from oracles import log_binomial, log_falling_factorial


def test_pochhammer_empty_product():
    assert log_pochhammer(5.0, 0) == 0.0


def test_pochhammer_small_integer():
    assert log_pochhammer(2.0, 3) == pytest.approx(math.log(24.0), abs=1e-12)


def test_pochhammer_long_product_extended_precision_oracle():
    # direct product in 50-digit arithmetic
    with mpmath.workdps(50):
        product = mpmath.mpf(1)
        for i in range(50):
            product *= mpmath.mpf("0.37") + i
        expected = float(mpmath.log(product))
    assert log_pochhammer(0.37, 50) == pytest.approx(expected, rel=1e-10)


def test_pochhammer_domain():
    with pytest.raises(DomainError):
        log_pochhammer(0.0, 3)
    with pytest.raises(DomainError):
        log_pochhammer(-1.0, 3)


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_pochhammer_recurrence(x):
    for n in range(0, 101, 7):
        lhs = log_pochhammer(x, n + 1)
        rhs = log_pochhammer(x, n) + math.log(x + n)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_falling_factorial_values():
    assert log_falling_factorial(5, 3) == pytest.approx(math.log(60.0), abs=1e-12)
    assert log_falling_factorial(2, 3) == LOG_ZERO
    assert log_falling_factorial(7, 0) == 0.0


def test_falling_factorial_matches_pochhammer():
    for m in range(0, 12):
        for r in range(0, m + 1):
            if r == 0:
                continue
            assert log_falling_factorial(m, r) == pytest.approx(
                log_pochhammer(m - r + 1, r), abs=1e-12)


def test_log_sum_exp_basic():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)
    assert log_sum_exp([]) == LOG_ZERO
    assert log_sum_exp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO


def test_log_sum_exp_no_underflow():
    # two copies of 1e-300 must sum to 2e-300, not underflow to zero
    small = math.log(1e-300)
    expected = float(mpmath.log(mpmath.mpf("2e-300")))
    assert log_sum_exp([small, small]) == pytest.approx(expected, rel=1e-12)


def test_log_sum_exp_permutation_invariant():
    terms = [math.log(x) for x in (1e-12, 3.5, 0.07, 42.0, 1e-3)]
    base = log_sum_exp(terms)
    assert log_sum_exp(list(reversed(terms))) == pytest.approx(base, rel=1e-12)
    assert log_sum_exp(sorted(terms)) == pytest.approx(base, rel=1e-12)


def test_log_binomial():
    assert log_binomial(5, 2) == pytest.approx(math.log(10.0), abs=1e-12)
    assert log_binomial(5, 6) == LOG_ZERO
    assert log_binomial(5, -1) == LOG_ZERO
