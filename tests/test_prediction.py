import math
import weakref

import numpy as np
import pytest

from vecfdp import prediction as pred
from vecfdp import simulate, validation
from vecfdp.abundance import ants_table, from_counts
from vecfdp.estimation import fit_all
from vecfdp.logmath import LOG_ZERO, DomainError, log_pochhammer
from vecfdp.mprior import OneShiftedPoisson, PointMass
from vecfdp.vcoef import ModelParams, VCoefficients, log_v

from oracles import (
    expected_new_moments_loop,
    expected_new_moments_mp,
    lattice_coverage_prob,
    log_miss_by_factor,
    log_noncentral_gfc,
    log_noncentral_row_stream,
    posterior_joint_new_loop,
    posterior_marginal_global_new_loop,
    v_series_from_head,
    WholeWindowV,
)

PARAMS = ModelParams(1.3, 0.6, OneShiftedPoisson(2.0))

STATE = pred.ObservedState(n1=4, n2=3, r1=2, r2=2, r=3,
                           counts1=(2, 2, 0), counts2=(1, 0, 2))


def posterior_m_mean_asymptotic(vc, state) -> float:
    """Large-sample approximation of E(M* | data):

    (r+1) q_M(r+1)/q_M(r) (g1 r)_{g1} (g2 r)_{g2} n1^{-g1} n2^{-g2}
    """
    r = state.r
    lq_r, lq_r1 = vc.params.m_prior.log_pmf_array(np.array([r, r + 1], dtype=np.int64))
    if lq_r == LOG_ZERO:
        raise DomainError(f"prior mass at r={r} is zero")
    if lq_r1 == LOG_ZERO:
        return 0.0
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    return math.exp(math.log(r + 1.0) + lq_r1 - lq_r
                    + log_pochhammer(g1 * r, g1) + log_pochhammer(g2 * r, g2)
                    - g1 * math.log(state.n1) - g2 * math.log(state.n2))


def local_marginal_gap(vc, state, m1, m2, group=1) -> float:
    """Max absolute gap between the single-group law, which conditions on
    one group's data, and the joint law's marginal, which conditions on
    both."""
    joint = pred.posterior_joint_new(vc, state, m1, m2)
    marg = joint.marginal(1 if group == 1 else 2)
    single = pred.posterior_local_new(vc, state, m1 if group == 1 else m2, group)
    keys = set(marg.support()) | set(single.support())
    return max(abs(marg.prob(k) - single.prob(k)) for k in keys)


@pytest.fixture(scope="module")
def vc():
    return VCoefficients(PARAMS)


def test_state_derived_quantities():
    assert STATE.t == 1
    assert STATE.r1_star == 1
    assert STATE.r2_star == 1


def test_state_validation():
    with pytest.raises(DomainError):
        pred.ObservedState(2, 2, 3, 1, 3)
    with pytest.raises(DomainError):
        pred.ObservedState(2, 2, 1, 1, 3)
    with pytest.raises(DomainError):
        pred.ObservedState(4, 3, 2, 2, 3, counts1=(2, 1, 0), counts2=(1, 0, 2))


def test_posterior_m_normalization_and_mean(vc):
    state = pred.ObservedState(5, 5, 3, 2, 3)
    pmf = pred.posterior_m_pmf(vc, state)
    assert pmf.total_mass() == pytest.approx(1.0, abs=1e-10)
    # the V series' window and terms, as arrays, over their own sum taken
    # in linear space below the largest term
    _, m, terms = log_v(5, 5, 3, vc.params, series=True)
    assert pmf.keys.tolist() == (m - 3).tolist()
    shifted = terms - terms.max()
    assert pmf.log_mass.tolist() == (shifted - math.log(np.exp(shifted).sum())).tolist()
    assert len(pmf.entries) == len(pmf)
    assert pmf.mean() == pytest.approx(pred.posterior_m_mean(vc, state),
                                       rel=1e-8)
    assert pmf.prob(0) > 0.0


def test_posterior_m_point_mass_support():
    vc = VCoefficients(ModelParams(1.0, 1.0, PointMass(5)))
    pmf = pred.posterior_m_pmf(vc, STATE)
    assert pmf.support() == [2]
    assert pmf.prob(2) == pytest.approx(1.0, rel=1e-12)


def test_posterior_m_point_mass_below_r_is_empty():
    vc = VCoefficients(ModelParams(1.0, 1.0, PointMass(2)))
    assert len(pred.posterior_m_pmf(vc, STATE)) == 0


@pytest.mark.parametrize("n1,n2,r1,r2,r", [
    (5, 5, 3, 2, 3), (3, 3, 2, 2, 2), (6, 2, 2, 1, 3), (8, 8, 4, 4, 6),
])
def test_posterior_m_mean_identity_grid(vc, n1, n2, r1, r2, r):
    state = pred.ObservedState(n1, n2, r1, r2, r)
    pmf = pred.posterior_m_pmf(vc, state)
    assert pmf.mean() == pytest.approx(pred.posterior_m_mean(vc, state),
                                       rel=1e-8)


def test_posterior_m_mean_decreases_with_data(vc):
    means = [pred.posterior_m_mean(vc, pred.ObservedState(n, n, 3, 3, 4))
             for n in (10, 20, 40, 80)]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_posterior_m_mean_asymptotic_agreement():
    vc = VCoefficients(ModelParams(1.0, 1.0, OneShiftedPoisson(3.0)))
    ratios = []
    for n in (100, 400, 1600):
        state = pred.ObservedState(n, n, 3, 3, 4)
        exact = pred.posterior_m_mean(vc, state)
        approx = posterior_m_mean_asymptotic(vc, state)
        ratios.append(exact / approx)
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[-1] == pytest.approx(1.0, abs=1e-2)


def test_joint_new_single_observation_hand_case(vc):
    # one extra draw in group 1 only: either an already observed species
    # (the non-central coefficient carries g1 r1 + n1) or a new one
    joint = pred.posterior_joint_new(vc, STATE, 1, 0)
    g1 = PARAMS.gamma1
    rho1 = g1 * STATE.r1 + STATE.n1
    log_v_obs = vc.log_v(4, 3, 3)
    p_old = math.exp(vc.log_v(5, 3, 3) - log_v_obs) * rho1
    assert joint.prob((0, 0, 0)) == pytest.approx(p_old, rel=1e-12)
    # the new observation may hit the one species seen only in group 2
    p_cross = math.exp(vc.log_v(5, 3, 3) - log_v_obs) * g1 * STATE.r2_star
    assert joint.prob((0, 1, 0)) == pytest.approx(p_cross, rel=1e-12)
    p_new = math.exp(vc.log_v(5, 3, 4) - log_v_obs) * g1
    assert joint.prob((1, 1, 0)) == pytest.approx(p_new, rel=1e-12)
    assert joint.total_mass() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m1,m2", [(0, 0), (1, 1), (2, 3), (3, 3)])
def test_joint_new_normalization(vc, m1, m2):
    for state in (STATE, pred.ObservedState(3, 3, 2, 2, 4),
                  pred.ObservedState(5, 2, 3, 1, 3)):
        joint = pred.posterior_joint_new(vc, state, m1, m2)
        assert joint.total_mass() == pytest.approx(1.0, abs=1e-8)


def test_joint_new_monte_carlo_agreement(vc):
    draws = simulate.conditional_future_draws(vc, STATE, 2, 2, 200_000, seed=4)
    emp = simulate.empirical_pmf(draws)
    exact = pred.posterior_joint_new(vc, STATE, 2, 2)
    assert simulate.tv_distance(emp, exact) < 0.02


def test_marginal_global_new_matches_joint(vc):
    for m1, m2 in ((1, 1), (3, 2), (2, 0)):
        joint = pred.posterior_joint_new(vc, STATE, m1, m2)
        marg = pred.posterior_marginal_global_new(vc, STATE, m1, m2)
        agg = joint.marginal(0)
        for k in set(marg.support()) | set(agg.support()):
            assert marg.prob(k) == pytest.approx(agg.prob(k), abs=1e-10)
        assert marg.total_mass() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("prior", [PointMass(5), OneShiftedPoisson(2.0)],
                         ids=["point_mass_5", "poisson_2"])
@pytest.mark.parametrize("state", [STATE, pred.ObservedState(5, 0, 3, 0, 3),
                                   pred.ObservedState(0, 4, 0, 2, 2)],
                         ids=["both", "group2_empty", "group1_empty"])
def test_new_species_laws_match_loops(prior, state):
    # under PointMass(5) the posterior window is the single M* = 5 - r, so
    # the V ratios are -inf for every k past it
    vc = VCoefficients(ModelParams(1.3, 0.6, prior))
    for m1, m2 in ((0, 0), (1, 0), (0, 3), (2, 2), (4, 3)):
        for law, loop in ((pred.posterior_joint_new, posterior_joint_new_loop),
                          (pred.posterior_marginal_global_new,
                           posterior_marginal_global_new_loop)):
            got, want = law(vc, state, m1, m2), loop(vc, state, m1, m2)
            assert list(got.entries) == list(want.entries)
            np.testing.assert_allclose(got.log_mass, want.log_mass, rtol=0.0, atol=1e-12)


def test_marginal_global_new_one_sided_reduction(vc):
    m1 = 4
    marg = pred.posterior_marginal_global_new(vc, STATE, m1, 0)
    g1 = PARAMS.gamma1
    rho = g1 * STATE.r + STATE.n1
    log_v_obs = vc.log_v(4, 3, 3)
    for k in range(0, m1 + 1):
        expected = math.exp(vc.log_v(4 + m1, 3, 3 + k) - log_v_obs
                            + log_noncentral_gfc(m1, k, g1, rho))
        assert marg.prob(k) == pytest.approx(expected, rel=1e-10)


def test_local_new_normalization_and_one_step_value(vc):
    for m in range(0, 7):
        local = pred.posterior_local_new(vc, STATE, m, 1)
        assert local.total_mass() == pytest.approx(1.0, abs=1e-10)
    local = pred.posterior_local_new(vc, STATE, 1, 1)
    expected = math.exp(vc.log_v(STATE.n1 + 1, 0, STATE.r1 + 1)
                        - vc.log_v(STATE.n1, 0, STATE.r1)) * PARAMS.gamma1
    assert local.prob(1) == pytest.approx(expected, rel=1e-12)


def test_local_vs_joint_marginal_gap_reported(vc):
    # the single-group law conditions on less data; the gap is a reported
    # diagnostic, not an identity
    gap = local_marginal_gap(vc, STATE, 2, 2, 1)
    assert 0.0 <= gap <= 1.0
    print(f"single-group vs joint-marginal gap at (2,2): {gap:.4f}")


def test_exchangeable_reduction_collapses_to_single_group():
    vc = VCoefficients(ModelParams(0.8, 1.7, OneShiftedPoisson(3.0)))
    state = pred.ObservedState(n1=5, n2=0, r1=3, r2=0, r=3)
    m1 = 4
    joint = pred.posterior_joint_new(vc, state, m1, 0)
    local = pred.posterior_local_new(vc, state, m1, 1)
    marg = pred.posterior_marginal_global_new(vc, state, m1, 0)
    for k in range(0, m1 + 1):
        assert joint.prob((k, k, 0)) == pytest.approx(local.prob(k), rel=1e-10)
        assert marg.prob(k) == pytest.approx(local.prob(k), rel=1e-10)


def test_coverage_equals_shared_pmf_zero(vc):
    for m1, m2 in ((1, 1), (2, 2), (3, 1), (0, 2)):
        cov = pred.shared_coverage_prob(vc, STATE, m1, m2)
        sp = pred.shared_pmf(vc, STATE, m1, m2)
        assert cov == pytest.approx(sp.prob(0), abs=1e-10)
        assert sp.total_mass() == pytest.approx(1.0, abs=1e-8)


@pytest.fixture(scope="module")
def ants():
    table = ants_table()
    return pred.ObservedState.from_abundance(table), fit_all(table).params


@pytest.mark.parametrize("lam,m1,m2", [
    (None, 0, 0), (None, 0, 5), (None, 5, 0), (None, 3, 4), (None, 50, 50),
    (None, 137, 999), (3e4, 3, 4), (3e4, 50, 50),
])
def test_coverage_matches_lattice_oracle(ants, lam, m1, m2):
    state, params = ants
    if lam is not None:
        params = ModelParams(params.gamma1, params.gamma2, OneShiftedPoisson(lam))
    got = pred.shared_coverage_prob(VCoefficients(params), state, m1, m2)
    g1, g2 = params.gamma1, params.gamma2
    # whole rows, run row by row: the oracle shares no code with the
    # truncated column recurrence that the law runs
    row1 = log_noncentral_row_stream(m1, g1, g1 * state.r1 + state.n1)
    row2 = log_noncentral_row_stream(m2, g2, g2 * state.r2 + state.n2)
    # a fresh cache: every V of the oracle comes from its own scalar series
    want = lattice_coverage_prob(VCoefficients(params), state, m1, m2, row1, row2)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("lam", [None, 1e5])
def test_expected_new_moments_match_loop(ants, lam):
    state, params = ants
    if lam is not None:
        params = ModelParams(1.0, 1.0, OneShiftedPoisson(lam))
    vc = VCoefficients(params)
    got = pred.expected_new(vc, state, 1000, 1000)
    want = expected_new_moments_loop(vc, state, 1000, 1000)
    for x, y in zip(got, want):
        assert x == pytest.approx(y, rel=1e-12)


def test_bimodal_posterior_window_keeps_both_modes(ants):
    # at gamma = 1 and this rate the posterior of M* on ants has two modes
    # of half the mass each, at M* = 3 and near 2995, with a dip of about
    # 218 in log weight between them: a window grown outward from the
    # larger mode would drop half the posterior
    state, _ = ants
    params = ModelParams(1.0, 1.0, OneShiftedPoisson(6815.7155))
    vc, whole = VCoefficients(params), WholeWindowV(params)
    key = (state.n1, state.n2, state.r)
    post, all_post = vc.posterior(*key), whole.posterior(*key)
    m_star, lw = post.window, post.log_w
    all_m, all_lw = all_post.window, all_post.log_w
    low = int(all_m[np.argmax(np.where(all_m < 589, all_lw, LOG_ZERO))])
    high = int(all_m[np.argmax(np.where(all_m > 589, all_lw, LOG_ZERO))])
    assert low == 3 and abs(high - 2995) <= 5
    assert all_lw[all_m == 589][0] < -200
    assert m_star[0] <= low and high <= m_star[-1]
    w = np.exp(lw)
    assert w[m_star < 589].sum() / w.sum() == pytest.approx(0.5, abs=1e-3)
    assert m_star.size < all_m.size
    # an expected count's integrand grows to about m1 + m2 on the cut
    # tail, so futures of one draw per group keep its error near tol
    for m1, m2 in ((0, 0), (1, 0), (1, 1)):
        got, want = pred.expected_new(vc, state, m1, m2), pred.expected_new(whole, state, m1, m2)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    for m1, m2 in ((0, 0), (1, 1), (0, 5), (50, 50), (1000, 1000)):
        assert pred.shared_coverage_prob(vc, state, m1, m2) == pytest.approx(
            pred.shared_coverage_prob(whole, state, m1, m2), rel=0.0, abs=1e-12)
    got = pred.one_step_shared_pmf(vc, state)
    want = pred.one_step_shared_pmf(whole, state)
    for s in (0, 1, 2):
        assert got.prob(s) == pytest.approx(want.prob(s), rel=0.0, abs=1e-12)


def test_posterior_window_short_at_large_rate(ants):
    # at lam = 3e4 the whole series from m = r runs over 3e4 terms, of which
    # a few thousand carry the posterior's mass; the series starts past
    # most of the rest, at a head certified negligible
    state, params = ants
    params = ModelParams(params.gamma1, params.gamma2, OneShiftedPoisson(3e4))
    vc = VCoefficients(params)
    post = vc.posterior(state.n1, state.n2, state.r)
    _, whole_m, _ = v_series_from_head(state.n1, state.n2, state.r, params)
    assert 5 * post.window.size <= whole_m.size
    assert 2 * post.m_star.size <= whole_m.size
    # the window is cut once per key and served from the cache
    assert vc.posterior(state.n1, state.n2, state.r) is post


def test_coverage_one_sided_no_shared_possible():
    vc = VCoefficients(PARAMS)
    state = pred.ObservedState(n1=5, n2=0, r1=3, r2=0, r=3)
    assert pred.shared_coverage_prob(vc, state, 4, 0) == pytest.approx(
        1.0, abs=1e-10)


def test_one_step_pmf_values_and_identities(vc):
    pmf = pred.one_step_shared_pmf(vc, STATE)
    assert pmf.total_mass() == pytest.approx(1.0, abs=1e-10)
    g1, g2 = PARAMS.gamma1, PARAMS.gamma2
    expected_s2 = math.exp(vc.log_v(5, 4, 3) - vc.log_v(4, 3, 3)) \
        * g1 * g2 * STATE.r1_star * STATE.r2_star
    assert pmf.prob(2) == pytest.approx(expected_s2, rel=1e-12)
    assert pred.one_step_discovery_prob(vc, STATE) == pytest.approx(
        1.0 - pmf.prob(0), abs=1e-12)
    assert pred.shared_coverage_prob(vc, STATE, 1, 1) == pytest.approx(
        pmf.prob(0), abs=1e-12)


def test_one_step_pmf_matches_joint_aggregation(vc):
    pmf = pred.one_step_shared_pmf(vc, STATE)
    agg = pred.shared_pmf(vc, STATE, 1, 1)
    for s in (0, 1, 2):
        assert pmf.prob(s) == pytest.approx(agg.prob(s), abs=1e-12)


def test_one_step_all_species_shared(vc):
    state = pred.ObservedState(n1=3, n2=3, r1=2, r2=2, r=2)
    assert state.r1_star == 0 and state.r2_star == 0
    pmf = pred.one_step_shared_pmf(vc, state)
    assert pmf.prob(2) == 0.0
    # a new shared species can still appear as the same brand-new species
    assert pmf.prob(1) > 0.0
    assert pmf.total_mass() == pytest.approx(1.0, abs=1e-10)


def test_shared_pmf_monte_carlo(vc):
    draws = simulate.conditional_future_draws(vc, STATE, 2, 2, 200_000, seed=8)
    emp = simulate.empirical_pmf(draws, columns=(3,))
    exact = pred.shared_pmf(vc, STATE, 2, 2)
    assert simulate.tv_distance(emp, exact) < 0.02


@pytest.mark.parametrize("law", [pred.expected_new, pred.posterior_joint_new,
                                 pred.posterior_marginal_global_new,
                                 pred.shared_coverage_prob])
@pytest.mark.parametrize("m1,m2", [(-3, 2), (2, -1)])
def test_negative_future_sizes_rejected(vc, law, m1, m2):
    with pytest.raises(DomainError):
        law(vc, STATE, m1, m2)


@pytest.mark.parametrize("m1,m2", [(-5, 0), (0, -1)])
def test_every_ratio_law_names_negative_future_sizes(vc, m1, m2):
    # the check sits where the ratios are formed, ahead of any GFC row
    laws = [lambda: pred.posterior_joint_new(vc, STATE, m1, m2),
            lambda: pred.posterior_marginal_global_new(vc, STATE, m1, m2),
            lambda: pred.shared_coverage_prob(vc, STATE, m1, m2),
            lambda: pred.shared_pmf(vc, STATE, m1, m2),
            lambda: pred.posterior_local_new(vc, STATE, min(m1, m2), 1),
            lambda: pred.posterior_local_new(vc, STATE, min(m1, m2), 2)]
    for law in laws:
        with pytest.raises(DomainError, match="future sample sizes must be >= 0"):
            law()


def test_laws_read_one_posterior_entry():
    # every law on a key reads the posterior its evaluator formed first,
    # arrays and all, and cannot write to it
    seen = []

    class Spy(VCoefficients):
        def posterior(self, n1, n2, r):
            seen.append(super().posterior(n1, n2, r))
            return seen[-1]

    vc = Spy(PARAMS)
    pred.posterior_m_pmf(vc, STATE)
    pred.posterior_m_mean(vc, STATE)
    pred.expected_new(vc, STATE, 2, 1)
    pred.shared_coverage_prob(vc, STATE, 2, 1)
    simulate.conditional_future_draws(vc, STATE, 1, 1, 10, seed=0)
    assert len(seen) == 5
    for post in seen[1:]:
        assert post is seen[0]
        assert all(a is b for a, b in zip(post, seen[0]))
    assert not any(a.flags.writeable for a in seen[0])


def test_ratio_run_formed_once_per_key(monkeypatch):
    calls = []
    original = pred._log_v_ratios

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(pred, "_log_v_ratios", counted)
    vc = VCoefficients(PARAMS)
    cov = pred.shared_coverage_prob(vc, STATE, 2, 1)
    shared = pred.shared_pmf(vc, STATE, 2, 1)
    pred.posterior_marginal_global_new(vc, STATE, 2, 1)
    assert calls == [(STATE.n1, STATE.n2, STATE.r, 2, 1)]
    assert cov == pytest.approx(shared.prob(0), abs=1e-12)
    lr = pred._ratios(vc, STATE.n1, STATE.n2, STATE.r, 2, 1)
    assert pred._ratios(vc, STATE.n1, STATE.n2, STATE.r, 2, 1) is lr
    assert not lr.flags.writeable
    pmf = pred.one_step_shared_pmf(vc, STATE)
    pair = pred.predictive_pair_probs(vc, STATE)
    assert calls[1:] == [(STATE.n1, STATE.n2, STATE.r, 1, 1)]
    assert pmf.prob(1) + pmf.prob(2) == pred.one_step_discovery_prob(vc, STATE)
    assert pair.normalizer_ratio == pytest.approx(1.0, abs=1e-12)
    # only the last run is kept: a size formed before it is formed again
    pred.shared_coverage_prob(vc, STATE, 2, 1)
    assert calls[2:] == [(STATE.n1, STATE.n2, STATE.r, 2, 1)]


def test_curve_keeps_no_run_per_point(monkeypatch):
    # a curve forms its ratio runs in one pass over the grid, keeps none of
    # them once it returns, and runs one GFC pass per group
    runs, passes = [], []
    original_runs, original_rows = pred._log_ratio_runs, pred.log_noncentral_rows

    def counted_runs(*args):
        out = original_runs(*args)
        runs.append(weakref.ref(out))
        return out

    def counted_rows(ms, gamma, rho, kmax):
        passes.append(rho)
        return original_rows(ms, gamma, rho, kmax)

    monkeypatch.setattr(pred, "_log_ratio_runs", counted_runs)
    monkeypatch.setattr(pred, "log_noncentral_rows", counted_rows)
    vc = VCoefficients(PARAMS)
    grid = [(m1, m2) for m1 in range(0, 9, 2) for m2 in range(0, 9, 2)]
    pred.extrapolation_curves(vc, STATE, grid)
    assert len(runs) == 1 and runs[0]() is None
    assert getattr(vc, "_last_ratios", None) is None
    g1, g2 = PARAMS.gamma1, PARAMS.gamma2
    assert passes == [g1 * STATE.r1 + STATE.n1, g2 * STATE.r2 + STATE.n2]


def test_check_normalization_shares_each_ratio_run(monkeypatch):
    # the joint and global laws at one (state, m1, m2) share a pass: no
    # evaluator forms the same run twice in a row; each evaluator is kept
    # alive so that a freed one's id is not reused by the next
    calls, evaluators = [], []
    original = pred._log_v_ratios

    def counted(vc, *key):
        calls.append((id(vc), key))
        evaluators.append(vc)
        return original(vc, *key)

    monkeypatch.setattr(pred, "_log_v_ratios", counted)
    result = validation.check_normalization(max_n=2, max_m=1)
    assert result.passed
    assert calls and all(a != b for a, b in zip(calls, calls[1:]))


def test_expected_new_linearity_and_zero_query(vc):
    exp = pred.expected_new(vc, STATE, 3, 2)
    assert exp.s == pytest.approx(exp.k1 + exp.k2 - exp.k, abs=1e-10)
    zero = pred.expected_new(vc, STATE, 0, 0)
    assert zero == (0.0, 0.0, 0.0, 0.0)


def test_expected_new_moment_route_matches_joint(vc):
    # the moment route against the means of the joint law, which small
    # futures used to take, and against its own loop oracle
    for m1, m2 in ((1, 1), (3, 2), (0, 2), (4, 4)):
        a = pred.expected_new(vc, STATE, m1, m2)
        joint = pred.posterior_joint_new(vc, STATE, m1, m2)
        for x, y in zip(a[:3], (joint.mean(1), joint.mean(2), joint.mean(0))):
            assert x == pytest.approx(y, abs=1e-8)
        b = expected_new_moments_loop(vc, STATE, m1, m2)
        for x, y in zip(a, b):
            assert x == pytest.approx(y, abs=1e-8)


def test_expected_new_small_futures_exact_at_large_rate(ants):
    # at lam = 1e3 beta is within 1e-3 of one, so 1 - beta needs log beta
    # with relative accuracy: gammaln differences would leave relative
    # errors of 1e-9 at (3, 4) and 2.4e-10 at (20, 20)
    state, _ = ants
    params = ModelParams(0.5, 2.0, OneShiftedPoisson(1e3))
    vc = VCoefficients(params)
    for m1, m2, rel in ((3, 4, 1e-10), (20, 20, 1e-11)):
        got = pred.expected_new(vc, state, m1, m2)
        want = expected_new_moments_mp(state, params, m1, m2)
        for x, y in zip(got, want):
            assert x == pytest.approx(y, rel=rel)


def test_expected_new_sampler_agreement(vc):
    draws = simulate.conditional_future_draws(vc, STATE, 2, 2, 200_000, seed=15)
    exact = pred.expected_new(vc, STATE, 2, 2)
    means = draws.mean(axis=0)
    errs = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    for got, se, want in zip(means, errs, (exact.k, exact.k1, exact.k2, exact.s)):
        assert abs(got - want) < 3.0 * se + 1e-9


def test_pair_probs_cells(vc):
    pair = pred.predictive_pair_probs(vc, STATE)
    cells = pair.as_dict()
    assert sum(cells.values()) == pytest.approx(1.0, abs=1e-12)
    assert pair.normalizer_ratio == pytest.approx(1.0, abs=1e-10)
    g1, g2 = PARAMS.gamma1, PARAMS.gamma2
    n1, n2, r = STATE.n1, STATE.n2, STATE.r
    log_v_obs = vc.log_v(n1, n2, r)
    lv1 = math.exp(vc.log_v(n1 + 1, n2 + 1, r + 1) - log_v_obs)
    lv2 = math.exp(vc.log_v(n1 + 1, n2 + 1, r + 2) - log_v_obs)
    assert cells["new_new"] == pytest.approx((lv1 + lv2) * g1 * g2, rel=1e-10)


def test_pair_probs_aggregate_to_one_step_terms(vc):
    # the same-species part of the (new, new) cell is exactly the
    # coefficient-one summand of the s = 1 mass
    pmf = pred.one_step_shared_pmf(vc, STATE)
    g1, g2 = PARAMS.gamma1, PARAMS.gamma2
    n1, n2, r = STATE.n1, STATE.n2, STATE.r
    log_v_obs = vc.log_v(n1, n2, r)
    lv0 = math.exp(vc.log_v(n1 + 1, n2 + 1, r) - log_v_obs)
    lv1 = math.exp(vc.log_v(n1 + 1, n2 + 1, r + 1) - log_v_obs)
    w1 = g1 * STATE.r1 + n1
    w2 = g2 * STATE.r2 + n2
    s1 = (lv0 * (STATE.r2_star * g1 * w2 + STATE.r1_star * g2 * w1)
          + lv1 * g1 * g2 * (STATE.r1_star + STATE.r2_star + 1))
    assert pmf.prob(1) == pytest.approx(s1, rel=1e-12)


def test_extrapolation_rows(vc):
    grid = [(0, 0), (1, 1), (2, 2), (4, 4)]
    rows = pred.extrapolation_curves(vc, STATE, grid)
    assert [(row["m1"], row["m2"]) for row in rows] == grid
    assert rows[0]["expected_new_global"] == 0.0
    assert rows[0]["expected_new_shared"] == 0.0
    assert rows[0]["coverage_prob"] == pytest.approx(1.0, abs=1e-12)
    e_k = [row["expected_new_global"] for row in rows]
    cov = [row["coverage_prob"] for row in rows]
    assert all(a <= b + 1e-12 for a, b in zip(e_k, e_k[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(cov, cov[1:]))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_log_miss_equals_factor_loop_bit_for_bit():
    # one (head, len(c)) array per block, summed along its first axis, adds
    # the factors in the loop's order; long c spans several blocks
    rng = np.random.default_rng(7)
    for size in (1, 5, 300, 9000):
        c = np.sort(rng.uniform(0.5, 3e4, size))
        for m in (0, 1, 4, 16, 17, 250):
            for g in (0.7, c - c[0]):
                assert np.array_equal(_bits(pred._log_miss(c, g, m)),
                                      _bits(log_miss_by_factor(c, g, m))), (size, m)


@pytest.mark.parametrize("lam", [1e3, 3e4, 1e5, 1e6])
def test_posterior_m_mass_is_one_at_large_rates(lam):
    vc = VCoefficients(ModelParams(1.0, 1.0, OneShiftedPoisson(lam)))
    pmf = pred.posterior_m_pmf(vc, pred.ObservedState.from_abundance(ants_table()))
    assert abs(pmf.total_mass() - 1.0) <= 1e-14


def test_posterior_m_mass_is_one_on_two_species_table():
    table = from_counts(["a", "b"], [10**6, 1], [1, 10**6])
    vc = VCoefficients(fit_all(table).params)
    pmf = pred.posterior_m_pmf(vc, pred.ObservedState.from_abundance(table))
    assert abs(pmf.total_mass() - 1.0) <= 1e-14
