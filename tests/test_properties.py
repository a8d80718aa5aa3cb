"""Properties of the predictive laws on random small states, drawn by
hypothesis: the moment route against the joint law, coverage against the
shared-species law, the new-species contraction against its loop oracles,
the cut posterior window against the whole series, normalization and
ranges; and of the truncated GFC rows they read."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecfdp import prediction as pred
from vecfdp.gfc import log_noncentral_row
from vecfdp.mprior import OneShiftedPoisson
from vecfdp.vcoef import ModelParams, VCoefficients

from oracles import (
    log_noncentral_row_stream,
    posterior_joint_new_loop,
    posterior_marginal_global_new_loop,
    uncapped_coverage_prob,
    WholeWindowV,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def cases(draw):
    """(vc, state, m1, m2): a valid state with n1, n2 <= 6 (one group may
    be empty), gammas in [0.3, 3], lam in [0.5, 50] and m1 + m2 <= 6."""
    n1 = draw(st.integers(0, 6))
    n2 = draw(st.integers(1 if n1 == 0 else 0, 6))
    r1 = draw(st.integers(1, n1)) if n1 else 0
    r2 = draw(st.integers(1, n2)) if n2 else 0
    r = draw(st.integers(max(r1, r2, 1), r1 + r2))
    gamma = st.floats(0.3, 3.0)
    params = ModelParams(draw(gamma), draw(gamma),
                         OneShiftedPoisson(draw(st.floats(0.5, 50.0))))
    m1 = draw(st.integers(0, 6))
    m2 = draw(st.integers(0, 6 - m1))
    return VCoefficients(params), pred.ObservedState(n1, n2, r1, r2, r), m1, m2


@SETTINGS
@given(cases())
def test_expected_new_is_joint_mean(case):
    vc, state, m1, m2 = case
    exp = pred.expected_new(vc, state, m1, m2)
    joint = pred.posterior_joint_new(vc, state, m1, m2)
    assert exp.k == pytest.approx(joint.mean(0), abs=1e-8)
    assert exp.k1 == pytest.approx(joint.mean(1), abs=1e-8)
    assert exp.k2 == pytest.approx(joint.mean(2), abs=1e-8)
    assert min(exp.k, exp.k1, exp.k2) >= 0.0


@SETTINGS
@given(cases())
def test_coverage_is_shared_mass_at_zero(case):
    vc, state, m1, m2 = case
    cov = pred.shared_coverage_prob(vc, state, m1, m2)
    assert 0.0 <= cov <= 1.0
    # the cap at one hides at most rounding
    assert uncapped_coverage_prob(vc, state, m1, m2) <= 1.0 + 1e-13
    assert cov == pytest.approx(pred.shared_pmf(vc, state, m1, m2).prob(0), abs=1e-10)


@SETTINGS
@given(cases())
def test_laws_normalized(case):
    vc, state, m1, m2 = case
    laws = [pred.posterior_joint_new(vc, state, m1, m2),
            pred.posterior_marginal_global_new(vc, state, m1, m2),
            pred.posterior_local_new(vc, state, m1, 1),
            pred.posterior_local_new(vc, state, m2, 2)]
    for law in laws:
        assert law.total_mass() == pytest.approx(1.0, abs=1e-8)


@SETTINGS
@given(cases())
def test_new_species_laws_match_loops(case):
    vc, state, m1, m2 = case
    for law, loop in ((pred.posterior_joint_new, posterior_joint_new_loop),
                      (pred.posterior_marginal_global_new,
                       posterior_marginal_global_new_loop)):
        got, want = law(vc, state, m1, m2), loop(vc, state, m1, m2)
        assert list(got.entries) == list(want.entries)
        np.testing.assert_allclose(got.log_mass, want.log_mass, rtol=0.0, atol=1e-12)


@SETTINGS
@given(cases())
def test_posterior_cut_within_tol(case):
    vc, state, m1, m2 = case
    tol = vc.tol
    whole = WholeWindowV(vc.params, tol=tol)
    m_star = vc.posterior(state.n1, state.n2, state.r).window
    all_post = whole.posterior(state.n1, state.n2, state.r)
    all_m, all_lw = all_post.window, all_post.log_w
    w = np.exp(all_lw)
    assert w[(all_m < m_star[0]) | (all_m > m_star[-1])].sum() <= tol * w.sum()
    # each law is an expectation over the posterior of a conditional
    # probability, or of a count of at most m1 + m2 new species
    got, want = (pred.expected_new(v, state, m1, m2) for v in (vc, whole))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=2 * tol * max(1, m1 + m2))
    assert pred.shared_coverage_prob(vc, state, m1, m2) == pytest.approx(
        pred.shared_coverage_prob(whole, state, m1, m2), rel=0.0, abs=2 * tol)
    for law in (pred.one_step_shared_pmf,
                lambda v, s: pred.posterior_joint_new(v, s, m1, m2)):
        got, want = law(vc, state), law(whole, state)
        for key in set(got.support()) | set(want.support()):
            assert got.prob(key) == pytest.approx(want.prob(key), rel=0.0, abs=2 * tol)
    got, want = (pred.predictive_pair_probs(v, state).as_dict() for v in (vc, whole))
    for cell, p in got.items():
        assert p == pytest.approx(want[cell], rel=0.0, abs=2 * tol)


@SETTINGS
@given(st.integers(0, 80), st.floats(0.05, 5.0),
       st.one_of(st.just(0.0), st.floats(0.0, 2000.0)), st.integers(0, 90))
def test_truncated_row_is_prefix_of_full_row(m, gamma, rho, kmax):
    row = log_noncentral_row(m, gamma, rho, kmax)
    full = log_noncentral_row(m, gamma, rho)
    assert row.size == min(m, kmax) + 1
    # truncation changes no entry
    np.testing.assert_array_equal(row, full[:row.size])
    np.testing.assert_allclose(row, log_noncentral_row_stream(m, gamma, rho)[:row.size],
                               rtol=0.0, atol=1e-12)
