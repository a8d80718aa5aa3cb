import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecfdp.logmath import (
    LOG_ZERO,
    DomainError,
    log_factorial,
    log_gamma,
    log_pochhammer,
    log_sum_exp,
    log_sum_exp_by,
)
from vecfdp.mprior import OneShiftedPoisson, prior_window

from oracles import log_binomial, log_falling_factorial, poisson_quantile_start


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5),
                          st.one_of(st.floats(-3000.0, 0.0), st.just(LOG_ZERO))),
                min_size=1, max_size=30))
def test_log_sum_exp_by_keeps_groups_far_below_the_peak(cells):
    # groups up to 3000 nats below the peak are summed below their own
    # peak; a group of zeros gives -inf, and so does a group with no cell
    index = np.array([g for g, _ in cells])
    values = np.array([v for _, v in cells])
    got = log_sum_exp_by(index, values, 7)
    for g in range(7):
        want = log_sum_exp([v for i, v in cells if i == g])
        if want == LOG_ZERO:
            assert got[g] == LOG_ZERO
        else:
            assert got[g] == pytest.approx(want, rel=1e-15, abs=1e-12)
    peak = values.max()
    if peak > LOG_ZERO:  # the caller's weights give the same sums
        linear = np.exp(values - peak)
        assert np.array_equal(log_sum_exp_by(index, values, 7, linear), got)


def test_log_binomial():
    assert log_binomial(5, 2) == pytest.approx(math.log(10.0), abs=1e-12)
    assert log_binomial(5, 6) == LOG_ZERO
    assert log_binomial(5, -1) == LOG_ZERO


def _assert_within_oracle(got, args, ref):
    # 1e-14 of max(1, |log Gamma|): absolute near the zeros at 1 and 2
    for value, arg in zip(got.tolist(), args):
        want = ref(arg)
        assert abs(value - want) <= 1e-14 * max(1.0, abs(want)), (arg, value, want)


def test_log_gamma_dense_on_zero_to_fifty_mpmath_oracle():
    # every 0.01 over (0, 50), plus the zeros at 1 and 2, the lift boundary
    # at 16 on both sides, and arguments down to the smallest double
    xs = np.concatenate((np.linspace(0.0, 50.0, 5001)[1:],
                         [1.0, 2.0, 16.0, np.nextafter(16.0, 0.0), np.nextafter(16.0, 17.0),
                          1e-3, 1e-8, 1e-300, 5e-324]))
    with mpmath.workdps(50):
        _assert_within_oracle(log_gamma(xs), xs.tolist(),
                              lambda x: float(mpmath.loggamma(mpmath.mpf(x))))


def test_log_gamma_reals_to_ten_million_mpmath_oracle():
    xs = np.exp(np.linspace(math.log(50.0), math.log(1e7), 2001))
    xs = np.concatenate((xs, xs + 0.5, [1e7]))
    with mpmath.workdps(50):
        _assert_within_oracle(log_gamma(xs), xs.tolist(),
                              lambda x: float(mpmath.loggamma(mpmath.mpf(x))))


def test_log_factorial_integers_to_a_million_mpmath_oracle():
    # every k up to 3000, past the table's end, then log-spaced to 10^6
    ks = np.unique(np.concatenate((np.arange(3001),
                                   np.rint(np.exp(np.linspace(0.0, math.log(1e6), 2001))),
                                   [10**6]))).astype(np.int64)
    with mpmath.workdps(50):
        _assert_within_oracle(log_factorial(ks), ks.tolist(),
                              lambda k: float(mpmath.loggamma(k + 1)))


def test_log_gamma_poles():
    poles = np.array([0.0, -1.0, -2.0, -15.0, -16.0, -17.0, -1e3])
    assert np.all(log_gamma(poles) == math.inf)
    assert np.all(np.isnan(log_gamma(np.array([-0.5, -3.25, -20.5]))))
    assert np.all(log_factorial(np.array([-1, -2, -16, -10**6])) == math.inf)
    # a pole of one entry leaves the others alone
    got = log_gamma(np.array([3.0, 0.0, 20.0]))
    assert got[1] == math.inf and got[0] == pytest.approx(math.log(2.0), abs=1e-15)


def test_poisson_log_pmf_zero_off_the_support():
    got = OneShiftedPoisson(3.0).log_pmf_array(np.array([-5, -1, 0, 1, 2]))
    assert np.all(got[:3] == LOG_ZERO)
    assert got[3] == pytest.approx(-3.0, abs=1e-15)
    assert got[4] == pytest.approx(math.log(3.0) - 3.0, abs=1e-15)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=5e-324, max_value=1e7), min_size=1, max_size=40),
       st.data())
def test_log_gamma_entry_does_not_depend_on_the_array(xs, data):
    # the lift and the series are chosen per entry, never from the array
    arr = np.array(xs)
    whole = log_gamma(arr)
    i = data.draw(st.integers(0, arr.size - 1))
    assert _bits(log_gamma(arr[i:i + 1]))[0] == _bits(whole)[i]
    assert _bits(log_gamma(arr[i]))[()] == _bits(whole)[i]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=2 * 10**6), min_size=1, max_size=40),
       st.data())
def test_log_factorial_entry_does_not_depend_on_the_array(ks, data):
    arr = np.array(ks, dtype=np.int64)
    whole = log_factorial(arr)
    i = data.draw(st.integers(0, arr.size - 1))
    assert _bits(log_factorial(arr[i:i + 1]))[0] == _bits(whole)[i]
    assert _bits(log_factorial(arr[i]))[()] == _bits(whole)[i]


def test_log_gamma_long_and_shaped_arrays_match_entrywise():
    # arrays past one chunk, of any shape, give each entry's own value
    rng = np.random.default_rng(7)
    x = np.concatenate((rng.uniform(0.0, 16.0, 12000), rng.uniform(16.0, 1e6, 12000)))
    k = rng.integers(-2, 2 * 10**6, 24000)
    for f, arr in ((log_gamma, x), (log_gamma, x[:12000]), (log_gamma, x[12000:]),
                   (log_factorial, k), (log_factorial, k + 2 * 10**6)):
        whole = f(arr.reshape(120, -1))
        assert whole.shape == (120, arr.size // 120)
        picks = rng.integers(0, arr.size, 50)
        assert np.array_equal(_bits(whole.reshape(-1)[picks]),
                              _bits([f(arr[i:i + 1])[0] for i in picks]))
    assert log_gamma(np.array([])).shape == (0,)
    assert log_factorial(np.array([], dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("lam", [1e-3, 0.5, 30.0, 34.6, 40.0, 100.0, 1e3, 3e4, 1e5, 1e6])
def test_poisson_head_leaves_at_most_eps_below(lam):
    prior = OneShiftedPoisson(lam)
    eps = 1e-15
    start = prior.head(eps)
    # mass of M below start: P(X <= start - 2) for the count X = M - 1
    with mpmath.workdps(50):
        below = (mpmath.gammainc(start - 1, lam, mpmath.inf, regularized=True)
                 if start >= 2 else mpmath.mpf(0))
    assert below <= eps
    # and the start gives away little: within 2% of the window of the
    # exact eps-quantile's start
    window = prior_window(prior).m.size
    assert poisson_quantile_start(lam, eps) - start <= 0.02 * window
