import math

import pytest

from vecfdp.logmath import ConvergenceError
from vecfdp.mprior import OneShiftedPoisson, PointMass, TabulatedPrior, expectation


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
