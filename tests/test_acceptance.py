"""Acceptance suite: every criterion exercised at its stated tolerance.

Each test prints one summary line (visible with pytest -s or in captured
output on failure) so the suite doubles as a human-readable report.
"""

import json
import math
import time

import pytest

from vecfdp import insample, prediction, simulate, validation
from vecfdp.abundance import ants_csv_path, ants_table
from vecfdp.cli import main as cli_main
from vecfdp.estimation import (
    expected_cross_moment,
    expected_simpson_moment,
    fit_all,
    fit_gamma,
    fit_lambda,
)
from vecfdp.gfc import build_central_table
from vecfdp.logmath import LOG_ZERO
from vecfdp.mprior import OneShiftedPoisson, prior_window
from vecfdp.vcoef import ModelParams, VCoefficients, log_v

from oracles import generative_vecfdp_sample, log_noncentral_gfc, log_v_asymptotic

# one grid with the validate battery
GAMMAS, LAMBDAS, grid_params = validation.GAMMAS, validation.LAMBDAS, validation.grid_params


def test_criterion_01_normalization_suite():
    t0 = time.time()
    result = validation.check_normalization(max_n=6, max_m=3, gammas=GAMMAS,
                                            lams=LAMBDAS)
    elapsed = time.time() - t0
    print(f"criterion 1 normalization: worst deviation {result.measured:.3e} "
          f"(tol 1e-8) for {result.detail}, {elapsed:.0f}s")
    assert result.measured < 1e-8
    assert elapsed < 120.0


def test_criterion_02_bruteforce_equivalence():
    t0 = time.time()
    points = [ModelParams(0.3, 1.0, OneShiftedPoisson(0.5)),
              ModelParams(1.0, 1.0, OneShiftedPoisson(2.0)),
              ModelParams(3.0, 0.3, OneShiftedPoisson(2.0)),
              ModelParams(0.3, 3.0, OneShiftedPoisson(8.0)),
              ModelParams(1.0, 0.3, OneShiftedPoisson(0.5)),
              ModelParams(3.0, 3.0, OneShiftedPoisson(8.0))]
    worst = 0.0
    for params in points:
        vc = VCoefficients(params)
        for n1 in range(1, 4):
            for n2 in range(1, 4):
                oracle = simulate.bruteforce_prior(params, n1, n2)
                exact = insample.prior_joint(vc, n1, n2)
                keys = set(oracle.support()) | set(exact.support())
                worst = max(worst, max(abs(oracle.prob(k) - exact.prob(k))
                                       for k in keys))
    elapsed = time.time() - t0
    print(f"criterion 2 brute force: worst abs gap {worst:.3e} "
          f"(tol 1e-10), {elapsed:.0f}s")
    assert worst < 1e-10
    assert elapsed < 60.0


def test_criterion_03_monte_carlo_equivalence():
    t0 = time.time()
    params = ModelParams(1.2, 0.7, OneShiftedPoisson(2.5))
    vc = VCoefficients(params)
    states = [
        # r1* = 0: every species in group 1 is shared
        prediction.ObservedState(3, 3, 2, 3, 3,
                                 counts1=(2, 1, 0), counts2=(1, 1, 1)),
        prediction.ObservedState(3, 3, 2, 2, 3,
                                 counts1=(2, 1, 0), counts2=(1, 0, 2)),
        prediction.ObservedState(4, 2, 3, 1, 4,
                                 counts1=(2, 1, 1, 0), counts2=(0, 0, 0, 2)),
        prediction.ObservedState(5, 4, 2, 3, 4,
                                 counts1=(3, 2, 0, 0), counts2=(1, 0, 2, 1)),
    ]
    assert states[0].r1_star == 0
    worst = 0.0
    for i, state in enumerate(states):
        draws = simulate.conditional_future_draws(vc, state, 2, 2, 200_000,
                                                  seed=100 + i)
        emp = simulate.empirical_pmf(draws)
        exact = prediction.posterior_joint_new(vc, state, 2, 2)
        worst = max(worst, simulate.tv_distance(emp, exact))
    elapsed = time.time() - t0
    print(f"criterion 3 Monte-Carlo: worst TV {worst:.4f} (tol 0.02), "
          f"{elapsed:.0f}s")
    assert worst < 0.02
    assert elapsed < 180.0


def test_criterion_04_v_coefficient_identities():
    worst_res = 0.0
    for params in grid_params():
        vc = VCoefficients(params)
        for n1 in range(0, 7):
            for n2 in range(0, 7):
                for r in range(1, 5):
                    worst_res = max(worst_res, vc.check_recurrence(n1, n2, r))
    vc = VCoefficients(ModelParams(1.0, 1.0, OneShiftedPoisson(3.0)))
    exact = vc.log_v(400, 400, 3)
    approx = log_v_asymptotic(vc, 400, 400, 3)
    ratio_gap = abs(math.expm1(exact - approx))
    params = ModelParams(0.3, 3.0, OneShiftedPoisson(8.0))
    cap_gap = abs(math.expm1(log_v(5, 5, 3, params, max_terms=2 * 10**6)
                             - log_v(5, 5, 3, params, max_terms=10**6)))
    print(f"criterion 4 V identities: recurrence {worst_res:.3e} (tol 1e-8), "
          f"asymptotic ratio gap {ratio_gap:.3e} (tol 1e-3), "
          f"cap doubling {cap_gap:.3e} (tol 1e-12)")
    assert worst_res < 1e-8
    assert ratio_gap < 1e-3
    assert cap_gap < 1e-12


def test_criterion_05_posterior_mean_identity():
    configs = [(n1, n2, r1, r2, r, g1, g2, lam)
               for (n1, n2, r1, r2, r) in ((5, 5, 3, 2, 3), (3, 3, 2, 2, 4),
                                           (6, 2, 2, 1, 3), (8, 8, 4, 4, 6))
               for (g1, g2, lam) in ((0.3, 1.0, 0.5), (1.0, 1.0, 2.0),
                                     (3.0, 0.3, 8.0))]
    assert len(configs) == 12
    worst = 0.0
    for n1, n2, r1, r2, r, g1, g2, lam in configs:
        vc = VCoefficients(ModelParams(g1, g2, OneShiftedPoisson(lam)))
        state = prediction.ObservedState(n1, n2, r1, r2, r)
        ratio = prediction.posterior_m_mean(vc, state)
        mean = prediction.posterior_m_pmf(vc, state).mean()
        worst = max(worst, abs(mean / ratio - 1.0))
    vc = VCoefficients(ModelParams(1.0, 1.0, OneShiftedPoisson(3.0)))
    means = [prediction.posterior_m_mean(
        vc, prediction.ObservedState(n, n, 3, 3, 4)) for n in (50, 100, 200, 400)]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    print(f"criterion 5 posterior mean: worst rel gap {worst:.3e} "
          f"(tol 1e-8), decreasing over doubling sizes: {decreasing}")
    assert worst < 1e-8
    assert decreasing


def test_criterion_06_one_step_consistency():
    worst = 0.0
    for params in (ModelParams(1.2, 0.7, OneShiftedPoisson(2.5)),
                   ModelParams(0.3, 3.0, OneShiftedPoisson(0.5))):
        vc = VCoefficients(params)
        for state in (prediction.ObservedState(5, 4, 3, 2, 4),
                      prediction.ObservedState(3, 3, 2, 2, 2),
                      prediction.ObservedState(6, 2, 2, 1, 3)):
            pmf = prediction.one_step_shared_pmf(vc, state)
            disc = prediction.one_step_discovery_prob(vc, state)
            cov = prediction.shared_coverage_prob(vc, state, 1, 1)
            worst = max(worst, abs(disc - (1.0 - pmf.prob(0))))
            worst = max(worst, abs(cov - pmf.prob(0)))
            # cell table aggregation: the one-step masses reassemble from
            # the pair cells split by which species is drawn
            g1, g2 = params.gamma1, params.gamma2
            n1, n2, r = state.n1, state.n2, state.r
            log_v_obs = vc.log_v(n1, n2, r)
            lv = {i: math.exp(vc.log_v(n1 + 1, n2 + 1, r + i) - log_v_obs)
                  for i in (0, 1, 2)}
            w1 = g1 * state.r1 + n1
            w2 = g2 * state.r2 + n2
            r1s, r2s = state.r1_star, state.r2_star
            s0 = lv[0] * w1 * w2 + lv[1] * (g1 * w2 + g2 * w1) + lv[2] * g1 * g2
            s1 = lv[0] * (r2s * g1 * w2 + r1s * g2 * w1) \
                + lv[1] * g1 * g2 * (r1s + r2s + 1)
            s2 = lv[0] * g1 * g2 * r1s * r2s
            # cells: old-old splits over shared vs exclusive species,
            # new-old and old-new split over observed-in-group vs not,
            # new-new splits into same species (shared) vs two distinct
            old_old = lv[0] * (g1 * r + n1) * (g2 * r + n2)
            new_old = lv[1] * g1 * (g2 * r + n2)
            old_new = lv[1] * (g1 * r + n1) * g2
            new_new = (lv[1] + lv[2]) * g1 * g2
            worst = max(worst, abs((old_old + new_old + old_new + new_new)
                                   - (s0 + s1 + s2)))
            worst = max(worst, abs(pmf.prob(0) - s0))
            worst = max(worst, abs(pmf.prob(1) - s1))
            worst = max(worst, abs(pmf.prob(2) - s2))
    print(f"criterion 6 one-step consistency: worst gap {worst:.3e} "
          f"(tol 1e-12)")
    assert worst < 1e-12


def test_criterion_07_single_group_reduction():
    worst_norm = 0.0
    for gamma in GAMMAS:
        for lam in LAMBDAS:
            params = ModelParams(gamma, 1.0, OneShiftedPoisson(lam))
            table = build_central_table(gamma, 10)
            for n in range(1, 11):
                total = math.fsum(
                    math.exp(log_v(n, 0, r, params) + table[n, r])
                    for r in range(1, n + 1))
                worst_norm = max(worst_norm, abs(total - 1.0))
    # with no data or future sample in group 2, the two-group laws collapse
    vc = VCoefficients(ModelParams(0.8, 1.7, OneShiftedPoisson(3.0)))
    state = prediction.ObservedState(n1=6, n2=0, r1=3, r2=0, r=3)
    worst_red = 0.0
    for m1 in (1, 3, 5):
        joint = prediction.posterior_joint_new(vc, state, m1, 0)
        marg = prediction.posterior_marginal_global_new(vc, state, m1, 0)
        local = prediction.posterior_local_new(vc, state, m1, 1)
        for k in range(0, m1 + 1):
            worst_red = max(worst_red, abs(joint.prob((k, k, 0)) - local.prob(k)))
            worst_red = max(worst_red, abs(marg.prob(k) - local.prob(k)))
    print(f"criterion 7 single-group reduction: normalization {worst_norm:.3e} "
          f"(tol 1e-10), collapse gap {worst_red:.3e}")
    assert worst_norm < 1e-10
    assert worst_red < 1e-10


def test_criterion_08_gfc_correctness():
    from test_gfc import composition_sum_oracle

    worst = 0.0
    for gamma in (0.3, 1.0, 2.5):
        table = build_central_table(gamma, 8)
        for n in range(1, 9):
            for k in range(1, n + 1):
                expected = composition_sum_oracle(n, k, gamma)
                got = math.exp(table[n, k])
                worst = max(worst, abs(got / expected - 1.0))
    zero_shift = 0.0
    for gamma in (0.5, 2.0):
        table = build_central_table(gamma, 12)
        for n in range(0, 13):
            for k in range(0, n + 1):
                a, b = log_noncentral_gfc(n, k, gamma, 0.0), table[n, k]
                # |C(n, 0)| = 0 for n >= 1: two -inf cells agree, any
                # other non-finite gap fails
                gap = 0.0 if a == b == LOG_ZERO else abs(a - b)
                zero_shift = max(zero_shift, gap if math.isfinite(gap) else math.inf)
    gamma, r, n = 0.9, 4, 17
    rho = gamma * r + n
    exact_10 = math.exp(log_noncentral_gfc(1, 0, gamma, rho))
    exact_11 = math.exp(log_noncentral_gfc(1, 1, gamma, rho))
    print(f"criterion 8 factorial coefficients: composition rel {worst:.3e} "
          f"(tol 1e-10), zero-shift gap {zero_shift:.3e}, one-step values "
          f"({exact_10}, {exact_11})")
    assert worst < 1e-10
    assert zero_shift < 1e-12
    assert exact_10 == pytest.approx(rho, rel=1e-14)
    assert exact_11 == pytest.approx(gamma, rel=1e-14)


def test_criterion_09_estimation_round_trip():
    t0 = time.time()
    worst_lam = 0.0
    for lam in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0):
        cp = expected_cross_moment(lam)
        worst_lam = max(worst_lam, abs(fit_lambda(cp) - lam) / lam)
    worst_gamma = 0.0
    for lam in (0.5, 2.0, 10.0):
        window = prior_window(OneShiftedPoisson(lam))
        for gamma in (0.05, 0.5, 2.0, 20.0):
            ss = expected_simpson_moment(gamma, window)
            worst_gamma = max(worst_gamma,
                              abs(fit_gamma(ss, window) - gamma) / gamma)
    params = ModelParams(0.8, 1.6, OneShiftedPoisson(5.0))
    table = generative_vecfdp_sample(params, 20000, 20000, seed=295)
    fit = fit_all(table, "plug_in")
    rels = (abs(fit.lam - 5.0) / 5.0,
            abs(fit.params.gamma1 - 0.8) / 0.8,
            abs(fit.params.gamma2 - 1.6) / 1.6)
    elapsed = time.time() - t0
    print(f"criterion 9 estimation: lambda round trip {worst_lam:.3e} "
          f"(tol 1e-8), gamma round trip {worst_gamma:.3e} (tol 1e-6), "
          f"generative fit rel errors {tuple(round(x, 3) for x in rels)} "
          f"(tol 0.25), {elapsed:.0f}s")
    assert worst_lam < 1e-8
    assert worst_gamma < 1e-6
    assert max(rels) <= 0.25
    assert elapsed < 120.0


def test_criterion_10_correlation_limits():
    gaps = []
    for lam in LAMBDAS:
        target = -math.expm1(-lam) / lam
        got = insample.correlation(ModelParams(1e-6, 1e-6,
                                               OneShiftedPoisson(lam)))
        gaps.append(abs(got - target))
    small_gap = max(gaps)
    large_gap = max(abs(insample.correlation(
        ModelParams(1e6, 1e6, OneShiftedPoisson(lam))) - 1.0)
        for lam in LAMBDAS)
    values = [insample.correlation(ModelParams(g, g, OneShiftedPoisson(2.0)))
              for g in (0.01, 0.1, 1.0, 10.0, 100.0)]
    monotone = all(a < b for a, b in zip(values, values[1:]))
    print(f"criterion 10 correlation: small-gamma gap {small_gap:.2e} "
          f"(tol 1e-4), large-gamma gap {large_gap:.2e} (tol 1e-3), "
          f"monotone: {monotone}")
    assert small_gap < 1e-4
    assert large_gap < 1e-3
    assert monotone


def test_criterion_11_ants_pipeline(capsys):
    table = ants_table()
    summary = table.summary()
    expected = {"n1": 934, "n2": 2235, "r1": 17, "r2": 23, "r": 30, "t": 10,
                "r1_star": 7, "r2_star": 13}
    assert summary == expected
    code = cli_main(["discover", str(ants_csv_path())])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    disc = report["discovery_prob"]["value"]
    print(f"criterion 11 ants pipeline: summary {summary} reproduced, "
          f"discovery probability {disc:.5f} > 0")
    assert disc > 0.0


def test_criterion_12_scaled_experiment():
    t0 = time.time()
    cfg = simulate.Experiment1Config(alpha1=0.8, alpha2=0.8, m_true=60,
                                     grid=(50, 100, 200), replications=20,
                                     seed=11)
    rows = simulate.run_experiment1(cfg)
    by = {}
    for row in rows:
        by.setdefault(row["n"], {})[row["method"]] = row
    true200 = by[200]["true"]
    prop200 = by[200]["proposed"]["median"]
    inside = true200["q1"] <= prop200 <= true200["q3"]
    chao_gaps = [abs(by[n]["chao_sh"]["median"] - by[n]["true"]["median"])
                 for n in cfg.grid]
    elapsed = time.time() - t0
    print(f"criterion 12 scaled experiment: proposed median {prop200:.4f} in "
          f"true IQR [{true200['q1']:.4f}, {true200['q3']:.4f}]: {inside}; "
          f"ChaoSh gaps {[round(g, 4) for g in chao_gaps]} (tol 0.05), "
          f"{elapsed:.0f}s")
    assert inside
    assert max(chao_gaps) <= 0.05
    assert elapsed < 300.0
