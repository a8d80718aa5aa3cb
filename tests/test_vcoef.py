import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecfdp.abundance import ants_table
from vecfdp.estimation import fit_all
from vecfdp.logmath import LOG_ZERO, ConvergenceError, DomainError, log_factorial, log_sum_exp
from vecfdp.mprior import OneShiftedPoisson, PointMass, TabulatedPrior
from vecfdp.vcoef import (
    _BATCH_CELLS,
    ModelParams,
    VCoefficients,
    _log_d,
    _v_rows,
    log_v,
    log_v_many,
)

from oracles import log_d_by_group, log_series, log_v_asymptotic, v_series_from_head


def mp_series_oracle(n1, n2, r, gamma1, gamma2, lam, terms=2000, start=None):
    """Direct high-precision summation of the coefficient series."""
    start = max(r, 1) if start is None else start
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        q = mpmath.e ** (-lam) * mpmath.mpf(lam) ** (start - 1) / mpmath.factorial(start - 1)
        for m in range(start, start + terms):
            # the factorials as products: exact in integers, and at 60 digits
            # for the rising ones, several times faster than mpmath.ff and rf
            fall = math.prod(range(m - r + 1, m + 1))
            rise = mpmath.fprod(mpmath.mpf(g * m) + i
                                for g, n in ((gamma1, n1), (gamma2, n2)) for i in range(n))
            total += fall * q / rise
            q *= mpmath.mpf(lam) / m
        return float(mpmath.log(total))


def mp_window_oracle(n1, n2, r, gamma1, gamma2, lam, width=12):
    """The series summed over the prior mode +- width * sqrt(lam) only.

    Tail bound for width 12 and lam >= 1e3: the Poisson mass beyond 12
    standard deviations is below 2 e^{-63} (Chernoff).  For m >= lam / 2
    the remaining factor (m)_{r fall} / prod_j (gamma_j m)_{n_j} exceeds its
    value at the window's edge by at most 2^{n1+n2}; below lam / 2 the
    Poisson mass is below e^{-lam/7}.  So the omitted terms are far below
    1e-10 of the total for lam >= 1e3 and small n1 + n2.
    """
    half = math.ceil(width * math.sqrt(lam))
    mode = 1 + math.floor(lam)
    start = max(r, 1, mode - half)
    return mp_series_oracle(n1, n2, r, gamma1, gamma2, lam,
                            terms=mode + half - start + 1, start=start)


def test_empty_sample_is_total_mass():
    params = ModelParams(1.0, 1.0, OneShiftedPoisson(2.0))
    assert log_v(0, 0, 0, params) == pytest.approx(0.0, abs=1e-12)


def test_first_factorial_moment():
    # sum_m m q_M(m) = 1 + lam for the 1-shifted Poisson
    for lam in (0.5, 1.0, 4.0):
        params = ModelParams(1.0, 1.0, OneShiftedPoisson(lam))
        assert log_v(0, 0, 1, params) == pytest.approx(
            math.log(1.0 + lam), rel=1e-12)


def test_point_mass_single_term():
    params = ModelParams(1.0, 1.0, PointMass(3))
    assert log_v(2, 1, 1, params) == pytest.approx(math.log(3.0 / 36.0), rel=1e-13)
    # integer concentrations give the same series
    assert log_v(2, 1, 1, ModelParams(1, 1, PointMass(3))) == log_v(2, 1, 1, params)


def test_single_group_is_zero_other_size():
    # V^1_1 = sum_m m q(m) / (gamma m) = 1 / gamma: with the other size
    # zero, the other concentration drops out
    prior = OneShiftedPoisson(1.0)
    for gamma2 in (1.0, 3.7):
        assert log_v(1, 0, 1, ModelParams(1.0, gamma2, prior)) == pytest.approx(
            0.0, abs=1e-14)


def test_point_mass_below_r_is_zero():
    assert log_v(3, 0, 3, ModelParams(1.0, 1.0, PointMass(2))) == LOG_ZERO


def test_against_high_cap_oracle():
    expected = mp_series_oracle(4, 0, 2, 0.5, 1.0, 2.0)
    got = log_v(4, 0, 2, ModelParams(0.5, 1.0, OneShiftedPoisson(2.0)))
    assert got == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("n1,n2,r,g1,g2,lam", [
    (3, 2, 2, 0.7, 1.4, 2.0),
    (5, 5, 4, 1.0, 1.0, 0.5),
    (1, 6, 3, 2.5, 0.3, 8.0),
    (3, 2, 2, 0.7, 1.4, 1e5),
    (3, 2, 2, 0.7, 1.4, 1e6),
])
def test_two_group_against_oracle(n1, n2, r, g1, g2, lam):
    params = ModelParams(g1, g2, OneShiftedPoisson(lam))
    # 2000 terms from m = r cannot reach the bulk of a large-rate prior
    oracle = mp_window_oracle if lam >= 1e3 else mp_series_oracle
    assert log_v(n1, n2, r, params) == pytest.approx(
        oracle(n1, n2, r, g1, g2, lam), rel=1e-10)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n1=st.integers(0, 3000), n2=st.integers(0, 3000), extra=st.integers(0, 3),
       g1=st.floats(-4.0, 0.5), g2=st.floats(-4.0, 0.5), lam=st.floats(3.3, 4.7),
       tol=st.sampled_from([1e-12, 1e-8]), data=st.data())
def test_certified_head_is_negligible(n1, n2, extra, g1, g2, lam, tol, data):
    # the head a series skips holds at most tol / 2 of the whole series,
    # checked against the series summed from max(r, 1); gammas from 1e-4
    # to 3 and rates from 2e3 to 5e4, log-uniform.  The totals differ by
    # that head and by the rounding of log terms near lam log lam, as the
    # two sides take their log-gammas from different code
    r = data.draw(st.integers(0, n1 + n2 + extra))
    params = ModelParams(10.0 ** g1, 10.0 ** g2, OneShiftedPoisson(10.0 ** lam))
    total, m, _ = log_v(n1, n2, r, params, tol=tol, series=True)
    whole, whole_m, whole_terms = v_series_from_head(n1, n2, r, params, tol=tol)
    assert m[0] >= max(r, 1)
    head = whole_terms[whole_m < m[0]]
    if head.size:
        assert log_sum_exp(head) <= math.log(0.5 * tol) + whole + 1e-9
    assert total == pytest.approx(whole, rel=1e-11)


def test_large_rate_series_skips_its_head():
    # on ants at gamma = 1 and lam = 1e5 the series from m = r holds
    # 100 007 terms; the posterior's mass lies within a few thousand
    table = ants_table()
    params = ModelParams(1.0, 1.0, OneShiftedPoisson(1e5))
    _, m, _ = log_v(table.n1, table.n2, table.r, params, series=True)
    assert m.size <= 10_000


def test_bimodal_series_keeps_its_head():
    # at gamma = 1 and this rate the posterior of M* on ants has a mode at
    # M* = 3 and another near 2995: no start past r has a small head
    table = ants_table()
    params = ModelParams(1.0, 1.0, OneShiftedPoisson(6815.7155))
    _, m, terms = log_v(table.n1, table.n2, table.r, params, series=True)
    assert m[0] == table.r
    low = m[np.argmax(np.where(m - table.r < 589, terms, LOG_ZERO))] - table.r
    high = m[np.argmax(np.where(m - table.r > 589, terms, LOG_ZERO))] - table.r
    assert low == 3 and abs(high - 2995) <= 5


def test_tabulated_prior_finite_sum():
    prior = TabulatedPrior([0.2, 0.5, 0.3])
    params = ModelParams(1.0, 2.0, prior)
    # V^2_{2,1} = sum_{m>=2} m(m-1) q(m) / [(m)_2 (2m)_1]
    expected = sum(m * (m - 1) * q / ((m * (m + 1)) * (2 * m))
                   for m, q in ((2, 0.5), (3, 0.3)))
    assert math.exp(log_v(2, 1, 2, params)) == pytest.approx(expected, rel=1e-12)


def test_strictly_decreasing_in_sample_sizes():
    params = ModelParams(0.8, 1.3, OneShiftedPoisson(2.0))
    vc = VCoefficients(params)
    for r in (1, 2, 3):
        values = [vc.log_v(n1, 2, r) for n1 in range(r, r + 6)]
        assert all(a > b for a, b in zip(values, values[1:]))
        values = [vc.log_v(3, n2, r) for n2 in range(r, r + 6)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_cache_matches_fresh_evaluation():
    params = ModelParams(0.8, 1.3, OneShiftedPoisson(2.0))
    vc = VCoefficients(params)
    for key in ((2, 3, 2), (4, 4, 1), (0, 0, 0), (5, 1, 4)):
        cached = vc.log_v(*key)
        again = vc.log_v(*key)
        fresh = log_v(*key, params)
        assert cached == again
        assert cached == pytest.approx(fresh, rel=1e-12)


@pytest.mark.parametrize("g1,g2,lam", [(0.5, 0.5, 1.0), (2.0, 0.5, 5.0),
                                       (1.0, 1.0, 1.0)])
def test_recurrence_residual_grid(g1, g2, lam):
    vc = VCoefficients(ModelParams(g1, g2, OneShiftedPoisson(lam)))
    for n1 in range(0, 7):
        for n2 in range(0, 7):
            for r in range(1, 5):
                assert vc.check_recurrence(n1, n2, r) < 1e-8, (n1, n2, r)


def test_recurrence_point_mass_no_truncation():
    vc = VCoefficients(ModelParams(1.2, 0.6, PointMass(6)))
    for n1 in range(0, 5):
        for n2 in range(0, 5):
            for r in range(1, 4):
                assert vc.check_recurrence(n1, n2, r) < 1e-10


def test_recurrence_empty_sample_moment_relation():
    vc = VCoefficients(ModelParams(1.5, 0.7, OneShiftedPoisson(3.0)))
    assert vc.check_recurrence(0, 0, 1) < 1e-10


def test_asymptotic_ratio_approaches_one():
    vc = VCoefficients(ModelParams(1.0, 1.0, OneShiftedPoisson(3.0)))
    gaps = []
    for n in (50, 100, 200, 400):
        exact = vc.log_v(n, n, 3)
        approx = log_v_asymptotic(vc, n, n, 3)
        gaps.append(abs(math.expm1(exact - approx)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_asymptotic_point_mass_leading_term_exact():
    # no prior mass above r: the correction term vanishes and the single
    # series term is the leading term itself
    r = 3
    vc = VCoefficients(ModelParams(1.0, 2.0, PointMass(r)))
    assert log_v_asymptotic(vc, 30, 40, r) == pytest.approx(
        vc.log_v(30, 40, r), rel=1e-12)


def test_asymptotic_small_rate_leading_mass():
    lam = 1e-4
    vc = VCoefficients(ModelParams(1.0, 1.0, OneShiftedPoisson(lam)))
    # with nearly all prior mass on M = 1, V^1_{n,n} ~ q(1)/(n!)^2
    exact = vc.log_v(20, 20, 1)
    lead = log_v_asymptotic(vc, 20, 20, 1)
    assert exact == pytest.approx(lead, rel=1e-6)


def test_cap_doubling_invariance():
    params = ModelParams(0.3, 3.0, OneShiftedPoisson(8.0))
    base = log_v(5, 5, 3, params, max_terms=10**6)
    doubled = log_v(5, 5, 3, params, max_terms=2 * 10**6)
    assert abs(math.expm1(doubled - base)) < 1e-12


def test_convergence_error_on_tiny_cap():
    params = ModelParams(1.0, 1.0, OneShiftedPoisson(50.0))
    with pytest.raises(ConvergenceError):
        log_v(2, 2, 1, params, max_terms=5)


def test_domain_errors():
    params = ModelParams(1.0, 1.0, OneShiftedPoisson(1.0))
    with pytest.raises(DomainError):
        log_v(-1, 0, 0, params)
    with pytest.raises(DomainError):
        log_v(1, 1, -1, params)
    with pytest.raises(DomainError):
        ModelParams(0.0, 1.0, OneShiftedPoisson(1.0))


def assert_many_matches_single(n1, n2, rs, params):
    many = log_v_many(n1, n2, rs, params)
    single = np.array([log_v(n1, n2, int(r), params) for r in rs])
    np.testing.assert_array_equal(np.isneginf(many), np.isneginf(single))
    finite = np.isfinite(single)
    np.testing.assert_allclose(many[finite], single[finite], rtol=0.0, atol=1e-12)


def test_log_v_many_fitted_run():
    # the run a coverage sum at (m1, m2) = (600, 600) reads on the ants table
    table = ants_table()
    params = fit_all(table).params
    rs = table.r + np.arange(1201)
    assert_many_matches_single(table.n1 + 600, table.n2 + 600, rs, params)


def test_log_v_many_large_rate_run():
    # each row sums its head from m = r past the mode, over many batches
    params = ModelParams(1.4, 0.7, OneShiftedPoisson(3e4))
    assert_many_matches_single(940, 2240, 30 + np.arange(20), params)


@pytest.mark.parametrize("prior", [PointMass(6), TabulatedPrior([0.2, 0.0, 0.5, 0.3])])
def test_log_v_many_finite_support(prior):
    # rows from r = 0 up past the support, where V is zero
    params = ModelParams(1.2, 0.6, prior)
    assert_many_matches_single(5, 3, np.arange(0, 9), params)


def test_log_v_many_order_and_cache():
    params = ModelParams(0.8, 1.3, OneShiftedPoisson(2.0))
    rs = np.array([7, 2, 0, 5])
    assert_many_matches_single(4, 3, rs, params)
    vc = VCoefficients(params)
    first = vc.log_v(4, 3, 5)
    got = vc.log_v_many(4, 3, rs)
    assert got[3] == first
    assert vc.log_v(4, 3, 7) == got[0]


def test_log_v_many_convergence_error_on_tiny_cap():
    params = ModelParams(1.0, 1.0, OneShiftedPoisson(50.0))
    with pytest.raises(ConvergenceError):
        log_v_many(2, 2, np.arange(1, 4), params, max_terms=5)


def test_log_d_one_log_gamma_call_equals_one_per_group():
    # each log-gamma value depends on its own argument only, so both groups
    # in one call give the per-group values bit for bit
    m = np.arange(1, 5000, dtype=np.int64)
    for prior in (OneShiftedPoisson(3e3), PointMass(40)):
        for sizes in ([], [(0.7, 12)], [(0.7, 12), (2.5, 300)], [(1.0, 1)]):
            assert np.array_equal(_log_d(m, prior, sizes).view(np.int64),
                                  log_d_by_group(m, prior, sizes).view(np.int64))


def v_rows_by_oracle(n1, n2, rs, params, starts, *, tol=1e-12, max_terms=10**6):
    """The rows of ``_v_rows`` summed by the adaptive oracle kernel from the
    same starts, each V term evaluated on its own index."""
    prior = params.m_prior
    sizes = [(float(g), n) for g, n in ((params.gamma1, n1), (params.gamma2, n2)) if n > 0]

    def log_term(m):
        out = _log_d(m.ravel(), prior, sizes).reshape(m.shape)
        out -= log_factorial(m - rs[:, None])
        return out

    return log_series(log_term, starts, prior.mode() + rs, prior.support_max,
                      tol=tol, max_terms=max_terms)


def assert_rows_match_oracle(n1, n2, rs, params):
    rs = np.asarray(rs, dtype=np.int64)
    total, count, terms, starts = _v_rows(n1, n2, rs, params, tol=1e-12, max_terms=10**6)
    expected = v_rows_by_oracle(n1, n2, rs, params, starts)
    for got, want in zip((total, count, terms), expected):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n1, n2, rs, params)


def test_v_rows_equal_oracle_kernel_on_grids():
    # the points of the mpmath, recurrence, cap-doubling and run tests above
    for n1, n2, r, g1, g2, lam in ((3, 2, 2, 0.7, 1.4, 2.0), (5, 5, 4, 1.0, 1.0, 0.5),
                                   (1, 6, 3, 2.5, 0.3, 8.0), (3, 2, 2, 0.7, 1.4, 1e5),
                                   (3, 2, 2, 0.7, 1.4, 1e6), (4, 0, 2, 0.5, 1.0, 2.0),
                                   (5, 5, 3, 0.3, 3.0, 8.0)):
        assert_rows_match_oracle(n1, n2, [r], ModelParams(g1, g2, OneShiftedPoisson(lam)))
    for g1, g2, lam in ((0.5, 0.5, 1.0), (2.0, 0.5, 5.0), (1.0, 1.0, 1.0)):
        params = ModelParams(g1, g2, OneShiftedPoisson(lam))
        for n1 in range(0, 7):
            for n2 in range(0, 7):
                assert_rows_match_oracle(n1, n2, np.arange(0, 7), params)
    table = ants_table()
    fitted = fit_all(table).params
    assert_rows_match_oracle(table.n1, table.n2, [table.r], fitted)
    assert_rows_match_oracle(table.n1 + 600, table.n2 + 600, table.r + np.arange(1201), fitted)


def test_v_rows_equal_oracle_kernel_on_batches():
    # an in-sample batch on the largest small table, r = 1..K at lam = 25
    assert_rows_match_oracle(50, 46, np.arange(1, 70),
                             ModelParams(0.8, 1.3, OneShiftedPoisson(25.0)))
    # rows from r = 0 up past the support, where V is zero
    for prior in (PointMass(6), TabulatedPrior([0.2, 0.0, 0.5, 0.3])):
        assert_rows_match_oracle(5, 3, np.arange(0, 9), ModelParams(1.2, 0.6, prior))
    # the batches log_v_many sums a long large-rate run in
    params = ModelParams(1.4, 0.7, OneShiftedPoisson(3e4))
    rs = 30 + np.arange(20)
    per = _BATCH_CELLS // (params.m_prior.mode() + 1)
    assert 1 < per < rs.size
    for i in range(0, rs.size, per):
        assert_rows_match_oracle(940, 2240, rs[i:i + per], params)


def test_v_rows_and_oracle_kernel_raise_alike():
    params = ModelParams(1.0, 1.0, OneShiftedPoisson(50.0))
    rs = np.arange(1, 4)
    with pytest.raises(ConvergenceError) as ours:
        _v_rows(2, 2, rs, params, tol=1e-12, max_terms=5)
    with pytest.raises(ConvergenceError) as oracle:
        v_rows_by_oracle(2, 2, rs, params, np.maximum(rs, 1), max_terms=5)
    assert str(ours.value) == str(oracle.value)
