import math

import mpmath
import pytest

from vecfdp.logmath import ConvergenceError
from vecfdp.mprior import OneShiftedPoisson, PointMass, TabulatedPrior, expectation, prior_window

from oracles import prior_window_by_series


@pytest.mark.parametrize("lam", [1e-4, 2.0, 60.0, 3e4, 5e5])
def test_generic_inverse_mean_matches_closed_form(lam):
    # large rates start past the Poisson head and need several tail blocks
    got = expectation(OneShiftedPoisson(lam), lambda m: 1.0 / m)
    assert got == pytest.approx(-math.expm1(-lam) / lam, rel=1e-12)


def test_point_mass_is_one_term():
    assert expectation(PointMass(4), lambda m: 1.0 / m) == pytest.approx(
        0.25, rel=1e-15)


def test_tabulated_prior_finite_sum():
    probs = [0.1, 0.0, 0.6, 0.3]
    expected = sum(p / (1.0 + 0.5 * m) for m, p in enumerate(probs, start=1))
    got = expectation(TabulatedPrior(probs), lambda m: 1.0 / (1.0 + 0.5 * m))
    assert got == pytest.approx(expected, rel=1e-14)


def test_convergence_error_on_tiny_cap():
    with pytest.raises(ConvergenceError):
        expectation(OneShiftedPoisson(50.0), lambda m: 1.0 / m, max_terms=5)


WINDOW_RATES = [1e-3, 0.1, 0.5, 2.0, 17.0, 70.0, 300.0, 1600.0, 3e4, 1e5, 1e6]


@pytest.mark.parametrize("lam", WINDOW_RATES)
def test_poisson_window_leaves_out_at_most_2e_15(lam):
    # both ends in closed form: mass of M below the head, P(X <= head - 2),
    # plus mass past the tail, P(X >= tail), for the count X = M - 1
    window = prior_window(OneShiftedPoisson(lam))
    head, tail = int(window.m[0]), int(window.m[-1])
    assert window.m.tolist() == list(range(head, tail + 1))
    with mpmath.workdps(50):
        below = (mpmath.gammainc(head - 1, lam, mpmath.inf, regularized=True)
                 if head >= 2 else mpmath.mpf(0))
        past = mpmath.gammainc(tail, 0, lam, regularized=True)
    assert below + past <= 2e-15


@pytest.mark.parametrize("lam", WINDOW_RATES)
def test_window_inverse_mean_matches_closed_form(lam):
    window = prior_window(OneShiftedPoisson(lam))
    assert window.q.sum() == pytest.approx(1.0, abs=1e-15)
    got = window.mean(1.0 / window.m)
    assert got == pytest.approx(-math.expm1(-lam) / lam, rel=1e-14 if lam <= 1e5 else 1e-12)


@pytest.mark.parametrize("lam", [0.5, 17.0, 1600.0, 3e4])
def test_window_agrees_with_series_route(lam):
    # the same head; the kernel's adaptive rule leaves about tol sqrt(lam)
    # past its tail
    prior = OneShiftedPoisson(lam)
    window, series = prior_window(prior), prior_window_by_series(prior)
    assert window.m[0] == series.m[0]
    f = lambda m: 1.0 / (1.0 + 0.3 * m)  # noqa: E731
    assert window.mean(f(window.m)) == pytest.approx(series.mean(f(series.m)), rel=1e-11)


def test_finite_support_window_is_its_support():
    probs = [0.1, 0.0, 0.6, 0.3]
    window = prior_window(TabulatedPrior(probs))
    assert window.m.tolist() == [1, 2, 3, 4]
    assert window.q.tolist() == pytest.approx(probs, rel=1e-15)
    point = prior_window(PointMass(7))
    assert point.m.tolist() == [7] and point.q.tolist() == [1.0]
