import contextlib
import io
import math

import numpy as np
import pytest

from vecfdp import estimation, simulate
from vecfdp.abundance import from_counts
from vecfdp.estimation import (
    MomentRangeError,
    diversity_stats,
    expected_cross_moment,
    expected_simpson_moment,
    fit_all,
    fit_gamma,
    fit_lambda,
)
from vecfdp.logmath import DomainError
from vecfdp.mprior import OneShiftedPoisson, PointMass, prior_window
from vecfdp.vcoef import ModelParams

from oracles import fit_gamma_illinois, fit_lambda_illinois, generative_vecfdp_sample


def table(c1, c2):
    labels = [f"s{i}" for i in range(len(c1))]
    return from_counts(labels, c1, c2)


def test_diversity_single_species():
    stats = diversity_stats(table([5], [7]), "plug_in")
    assert stats.ss1 == stats.ss2 == stats.cp == stats.morisita == 1.0


def test_diversity_two_singletons():
    stats = diversity_stats(table([1, 1], [2, 2]), "plug_in")
    assert stats.ss1 == pytest.approx(0.5)
    unbiased = diversity_stats(table([1, 1], [2, 2]), "unbiased")
    assert unbiased.ss1 == 0.0


def test_diversity_toy_table_hand_values():
    # species counts: a = (2,1), b = (2,0), c = (0,3)
    stats = diversity_stats(table([2, 2, 0], [1, 0, 3]), "plug_in")
    assert stats.ss1 == pytest.approx(0.5)
    assert stats.ss2 == pytest.approx(0.625)
    assert stats.cp == pytest.approx(0.125)
    assert stats.morisita == pytest.approx(2 * 0.125 / 1.125)


def test_diversity_errors():
    with pytest.raises(DomainError):
        diversity_stats(table([1], [1]), "unbiased")
    with pytest.raises(DomainError):
        diversity_stats(table([1, 1], [1, 1]), "wrong")


def test_morisita_identical_counts_is_one():
    stats = diversity_stats(table([4, 3, 2], [4, 3, 2]), "plug_in")
    assert stats.morisita == pytest.approx(1.0, rel=1e-12)


def test_fit_lambda_closed_form_point():
    cp = 1.0 - math.exp(-1.0)
    assert fit_lambda(cp) == pytest.approx(1.0, abs=1e-8)


def test_fit_lambda_near_one_gives_tiny_rate():
    # exact root of (1 - e^-x)/x = 0.9995, computed in 40-digit arithmetic
    assert fit_lambda(0.9995) == pytest.approx(1.000333472285215e-3, rel=1e-8)
    # the rate vanishes as the cross moment approaches one
    rates = [fit_lambda(cp) for cp in (0.999, 0.9999, 0.999999)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 1e-5


def test_fit_lambda_round_trip():
    for lam in (0.01, 0.5, 1.0, 4.0, 12.0, 50.0):
        cp = expected_cross_moment(lam)
        assert fit_lambda(cp) == pytest.approx(lam, rel=1e-8, abs=1e-8)
        assert abs(expected_cross_moment(fit_lambda(cp)) - cp) < 1e-10


def test_fit_lambda_range_errors():
    for bad in (0.0, -0.1, 1.0, 1.5):
        with pytest.raises(MomentRangeError):
            fit_lambda(bad)


def test_fit_gamma_round_trip():
    for lam in (0.5, 2.0, 10.0):
        window = prior_window(OneShiftedPoisson(lam))
        for gamma in (1e-9, 0.05, 0.8, 1.5, 5.0, 20.0):
            ss = expected_simpson_moment(gamma, window)
            back = fit_gamma(ss, window)
            assert back == pytest.approx(gamma, rel=1e-6)
            assert abs(expected_simpson_moment(back, window) - ss) < 1e-10


def test_fit_gamma_on_one_prior_window():
    # the forward map and the fit read the same window, built once
    window = prior_window(OneShiftedPoisson(2.0))
    ss = expected_simpson_moment(1.5, window)
    assert fit_gamma(ss, window) == pytest.approx(1.5, rel=1e-6)


def test_fit_gamma_limits():
    prior = OneShiftedPoisson(2.0)
    window = prior_window(prior)
    # moments near 1 force gamma toward zero
    assert fit_gamma(0.999999, window) < 1e-4
    lower = estimation.expected_inverse_m(prior)
    with pytest.raises(MomentRangeError, match="gamma -> 0"):
        fit_gamma(1.0, window)
    with pytest.raises(MomentRangeError, match="gamma -> infinity"):
        fit_gamma(lower, window)


def test_fit_gamma_point_mass_one_degenerate():
    # (1 + g) E(1/(1 + g)) = 1 for every g: no root below 1
    with pytest.raises(MomentRangeError):
        fit_gamma(0.8, prior_window(PointMass(1)))


def test_fit_all_group_swap_symmetry():
    # swapping the two groups swaps the fitted concentrations exactly
    a = fit_all(table([8, 5, 3, 1, 0], [6, 0, 4, 2, 5]), "plug_in")
    b = fit_all(table([6, 0, 4, 2, 5], [8, 5, 3, 1, 0]), "plug_in")
    assert a.lam == pytest.approx(b.lam, rel=1e-12)
    assert a.params.gamma1 == pytest.approx(b.params.gamma2, rel=1e-9)
    assert a.params.gamma2 == pytest.approx(b.params.gamma1, rel=1e-9)


def test_fit_all_identical_groups_degenerate():
    # an exact copy forces ss_j = cp, i.e. a Morisita index of one, which
    # sits on the gamma -> infinity boundary of the moment system
    with pytest.raises(MomentRangeError):
        fit_all(table([6, 3, 1], [6, 3, 1]), "plug_in")


def test_fit_all_toy_table():
    t = table([8, 5, 3, 1, 0], [6, 0, 4, 2, 5])
    fit = fit_all(t, "plug_in")
    assert fit.lam > 0
    assert fit.params.gamma1 > 0 and fit.params.gamma2 > 0
    assert max(fit.lambda_residual, fit.gamma1_residual,
               fit.gamma2_residual) < 1e-10


def test_fit_all_generative_round_trip():
    params = ModelParams(0.8, 1.6, OneShiftedPoisson(5.0))
    t = generative_vecfdp_sample(params, 20000, 20000, seed=295)
    fit = fit_all(t, "plug_in")
    assert fit.lam == pytest.approx(5.0, rel=0.25)
    assert fit.params.gamma1 == pytest.approx(0.8, rel=0.25)
    assert fit.params.gamma2 == pytest.approx(1.6, rel=0.25)


@pytest.fixture
def count_passes(monkeypatch):
    """Counts the gamma fit's window passes in ``passes[0]``."""
    passes = [0]
    real = estimation._simpson_pass

    def counted(gamma, window):
        passes[0] += 1
        return real(gamma, window)

    monkeypatch.setattr(estimation, "_simpson_pass", counted)
    return passes


def counting(counter):
    """Wraps a moment function of the Illinois oracle to count its calls."""
    def wrap(f):
        def counted(x):
            counter[0] += 1
            return f(x)
        return counted
    return wrap


def test_roots_match_illinois_oracle_on_round_trip_grid():
    # test_acceptance's criterion 9 grid
    for lam in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0):
        cp = expected_cross_moment(lam)
        assert fit_lambda(cp) == pytest.approx(fit_lambda_illinois(cp), rel=1e-12)
    for lam in (0.5, 2.0, 10.0):
        window = prior_window(OneShiftedPoisson(lam))
        for gamma in (0.05, 0.5, 2.0, 20.0):
            ss = expected_simpson_moment(gamma, window)
            assert fit_gamma(ss, window) == pytest.approx(
                fit_gamma_illinois(ss, window), rel=1e-12)


@pytest.mark.parametrize("lam", [1e-3, 0.1, 0.5, 2.0, 17.0, 70.0, 300.0, 1600.0,
                                 3e4, 1e5, 1e6])
def test_gamma_roots_to_rounding_in_fewer_passes_than_illinois(lam, count_passes):
    window = prior_window(OneShiftedPoisson(lam))
    lower = 1.0 - window.mean((window.m - 1.0) / window.m)  # E(1/M)
    for frac in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9):
        ss = lower + frac * (1.0 - lower)
        count_passes[0] = 0
        gamma = fit_gamma(ss, window)
        # h(gamma) = gamma E[(M-1)/(1+gamma M)] against its target 1 - ss
        h = gamma * window.mean((window.m - 1.0) / (1.0 + gamma * window.m))
        assert abs(h - (1.0 - ss)) <= 16 * math.ulp(1.0 - ss), frac
        evals = [0]
        fit_gamma_illinois(ss, window, counting(evals))
        assert count_passes[0] <= evals[0], frac


@pytest.fixture(scope="module")
def harness_tables():
    """The tables the experiment harnesses fit in 40 replicates, with seeds
    drawn as the benchmark's fitted workload draws them at seed 0."""
    tables, real = [], simulate.fit_all

    def capture(table, mode, *, clamp=False):
        tables.append(table)
        return real(table, mode, clamp=clamp)

    rng = np.random.default_rng([0, 2])
    simulate.fit_all = capture
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            for _ in range(20):
                simulate.run_experiment1(simulate.Experiment1Config(
                    replications=1, seed=int(rng.integers(1, 2**31))))
                simulate.run_experiment2(simulate.Experiment2Config(
                    replications=1, seed=int(rng.integers(1, 2**31))))
    finally:
        simulate.fit_all = real
    return tables


def test_harness_fits_match_illinois_in_few_passes(harness_tables, count_passes):
    assert len(harness_tables) == 340
    for table in harness_tables:
        fit = fit_all(table, "plug_in", clamp=True)
        # the moments fit_all solves for, clamped as it clamps them
        stats = fit.stats
        cp = min(max(stats.cp, 1.0 / (table.n1 * table.n2)), 1.0 - 1e-10)
        assert fit.lam == pytest.approx(fit_lambda_illinois(cp), rel=1e-12)
        window = prior_window(fit.params.m_prior)
        lower = estimation.expected_inverse_m(fit.params.m_prior)
        margin = 1e-9 * (1.0 - lower)
        for ss, gamma in ((stats.ss1, fit.params.gamma1), (stats.ss2, fit.params.gamma2)):
            ss = min(max(ss, lower + margin), 1.0 - margin)
            count_passes[0] = 0
            assert fit_gamma(ss, window) == gamma
            assert count_passes[0] <= 6
            assert gamma == pytest.approx(fit_gamma_illinois(ss, window), rel=1e-12)
