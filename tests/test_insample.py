import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecfdp import insample, simulate, validation
from vecfdp.logmath import DomainError, log_sum_exp
from vecfdp.mprior import OneShiftedPoisson, PointMass, TabulatedPrior, window_eps
from vecfdp.pmftable import PmfTable
from vecfdp.vcoef import ModelParams, VCoefficients

from oracles import (
    generative_vecfdp_sample,
    prior_joint_global_shared_loop,
    prior_joint_loop,
    prior_marginal_global_loop,
)

PARAMS = ModelParams(1.3, 0.6, OneShiftedPoisson(2.0))

GRID = list(validation.grid_params())


@pytest.fixture(scope="module")
def vc():
    return VCoefficients(PARAMS)


def test_single_pair_hand_table(vc):
    # with one observation per group there are two outcomes: same species
    # (r = 1) or different species (r = 2), each with weight g1 g2 V
    joint = insample.prior_joint(vc, 1, 1)
    g1g2 = PARAMS.gamma1 * PARAMS.gamma2
    p_same = g1g2 * math.exp(vc.log_v(1, 1, 1))
    p_diff = g1g2 * math.exp(vc.log_v(1, 1, 2))
    assert joint.prob((1, 1, 1)) == pytest.approx(p_same, rel=1e-12)
    assert joint.prob((2, 1, 1)) == pytest.approx(p_diff, rel=1e-12)
    assert p_same + p_diff == pytest.approx(1.0, abs=1e-10)
    assert len(joint) == 2


def test_joint_matches_enumeration_oracle():
    for params in (PARAMS, ModelParams(0.5, 2.0, OneShiftedPoisson(0.8))):
        vc = VCoefficients(params)
        for n1, n2 in ((1, 1), (2, 3), (3, 3)):
            oracle = simulate.bruteforce_prior(params, n1, n2)
            joint = insample.prior_joint(vc, n1, n2)
            keys = set(oracle.support()) | set(joint.support())
            for key in keys:
                assert joint.prob(key) == pytest.approx(
                    oracle.prob(key), abs=1e-10), key


def test_joint_support_constraints(vc):
    joint = insample.prior_joint(vc, 4, 3)
    for (r, r1, r2) in joint.support():
        assert r <= r1 + r2
        assert r1 <= min(r, 4) and r2 <= min(r, 3)
        assert r >= max(r1, r2)


@pytest.mark.parametrize("params", GRID[:: 4])
def test_normalization_on_parameter_grid(params):
    vc = VCoefficients(params)
    for n1 in (1, 3, 5):
        for n2 in (2, 4):
            for table in (insample.prior_joint(vc, n1, n2),
                          insample.prior_marginal_global(vc, n1, n2),
                          insample.prior_joint_global_shared(vc, n1, n2),
                          insample.prior_marginal_shared(vc, n1, n2)):
                assert table.total_mass() == pytest.approx(1.0, abs=1e-8)


def test_marginal_global_consistency(vc):
    for n1, n2 in ((2, 2), (3, 2), (4, 2)):
        joint = insample.prior_joint(vc, n1, n2)
        marg = insample.prior_marginal_global(vc, n1, n2)
        from_joint = joint.marginal(0)
        for r in set(marg.support()) | set(from_joint.support()):
            assert marg.prob(r) == pytest.approx(from_joint.prob(r), abs=1e-10)


ORACLE_PARAMS = [
    ModelParams(0.3, 3.0, OneShiftedPoisson(0.5)),
    ModelParams(3.0, 0.3, OneShiftedPoisson(40.0)),
    # V is zero past the support: those cells are absent from both
    ModelParams(0.3, 3.0, PointMass(3)),
    ModelParams(3.0, 0.3, TabulatedPrior([0.1, 0.0, 0.3, 0.2, 0.4])),
]


def assert_same_law(got, want):
    """Identical supports in the same key order, |delta log P| <= 1e-12."""
    assert list(got.entries) == list(want.entries)
    gaps = [abs(lp - want.entries[key]) for key, lp in got.entries.items()]
    assert max(gaps, default=0.0) <= 1e-12


#: the prior mass past the lattice's cut at the default tolerance
EPS = window_eps(1e-12)


def assert_cut_law(got, want, dropped):
    """``got`` is ``want`` less the keys for which ``dropped(key)`` holds:
    the kept keys in the same order, each within |delta log P| <= 1e-12,
    and the dropped keys carry at most the cut's eps of the mass."""
    kept = {key: lp for key, lp in want.entries.items() if not dropped(key)}
    assert_same_law(got, PmfTable(kept))
    assert sum(math.exp(lp) for key, lp in want.entries.items() if dropped(key)) <= EPS


@pytest.mark.parametrize("params", ORACLE_PARAMS)
@pytest.mark.parametrize("n1,n2", [(1, 1), (1, 7), (7, 1), (13, 50), (50, 50)])
def test_laws_match_scalar_loops(params, n1, n2):
    # the laws keep the cells with r <= K, where the uncut loops' cells
    # past K hold at most eps; at lam = 0.5, K < n1 + n2 on the larger tables
    vc, oracle_vc = VCoefficients(params), VCoefficients(params)
    k = insample.lattice_cut(vc, n1 + n2)
    assert_cut_law(insample.prior_joint(vc, n1, n2),
                   prior_joint_loop(oracle_vc, n1, n2), lambda key: key[0] > k)
    assert_cut_law(insample.prior_marginal_global(vc, n1, n2),
                   prior_marginal_global_loop(oracle_vc, n1, n2), lambda r: r > k)
    global_shared = prior_joint_global_shared_loop(oracle_vc, n1, n2)
    assert_cut_law(insample.prior_joint_global_shared(vc, n1, n2), global_shared,
                   lambda key: key[0] > k)
    # the shared law sums the kept (r, t) cells, so it is exact on them and
    # falls short of the uncut law by the (r, t) mass dropped above, at most
    # eps; the keys it leaves out have t > K
    shared = insample.prior_marginal_shared(vc, n1, n2)
    kept = PmfTable({key: lp for key, lp in global_shared.entries.items() if key[0] <= k})
    by_t = kept.marginal(1).entries
    assert_same_law(shared, PmfTable({t: by_t[t] for t in sorted(by_t)}))
    uncut = global_shared.marginal(1)
    assert all(t > k for t in set(uncut.entries) - set(shared.entries))


@pytest.mark.parametrize("n1,n2", [(1, 1), (1, 9), (9, 1), (6, 7), (20, 13)])
def test_lattice_cells_counts_every_cut(n1, n2):
    for k in range(1, n1 + n2 + 1):
        cells = sum(min(r1 + r2, k) - max(r1, r2) + 1
                    for r1 in range(1, min(n1, k) + 1) for r2 in range(1, min(n2, k) + 1))
        assert insample.lattice_cells(n1, n2, k) == cells


@pytest.mark.parametrize("params", ORACLE_PARAMS)
def test_lattice_cells_match_the_built_lattice(params):
    vc = VCoefficients(params)
    for n1, n2 in ((1, 1), (3, 8), (13, 50), (50, 50)):
        lat = insample.lattice(vc, n1, n2)
        assert lat.k == insample.lattice_cut(vc, n1 + n2)
        assert insample.lattice_cells(n1, n2, lat.k) == lat.r.size


def loop_law_by(entries, key_of, k):
    """The loop law's log masses summed by ``key_of(key)`` over its keys
    with r <= k, in ascending order of the new key."""
    by: dict = {}
    for key, lp in entries.items():
        if key[0] <= k:
            by.setdefault(key_of(key), []).append(lp)
    return PmfTable({x: log_sum_exp(by[x]) for x in sorted(by)})


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 30), st.integers(1, 30), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
       st.floats(0.1, 60.0))
def test_cut_lattice_matches_uncut_loop(n1, n2, g1, g2, lam):
    # the cut keeps the loop's cells exactly and drops at most eps; the one
    # linear pass keeps every key of the global and shared laws exact
    params = ModelParams(g1, g2, OneShiftedPoisson(lam))
    vc, oracle_vc = VCoefficients(params), VCoefficients(params)
    k = insample.lattice_cut(vc, n1 + n2)
    loop = prior_joint_loop(oracle_vc, n1, n2)
    assert_cut_law(insample.prior_joint(vc, n1, n2), loop, lambda key: key[0] > k)
    laws = insample.summarize(vc, n1, n2)
    assert_same_law(laws.global_law, loop_law_by(loop.entries, lambda key: key[0], k))
    assert_same_law(laws.shared_law,
                    loop_law_by(loop.entries, lambda key: key[1] + key[2] - key[0], k))


@pytest.mark.parametrize("params", ORACLE_PARAMS + [
    # V^3 = 0 on this support: the cut keeps r = 3, whose cells are zero
    ModelParams(1.3, 0.6, TabulatedPrior([0.5, 0.5, 0.0]))])
def test_summary_is_the_laws_reduced(params):
    vc = VCoefficients(params)
    for n1, n2 in ((1, 1), (2, 2), (7, 5), (13, 50)):
        laws = insample.summarize(vc, n1, n2, top=20)
        joint = insample.prior_joint(vc, n1, n2)
        assert laws.joint_top == joint.top_entries(20)
        assert laws.joint_mass == pytest.approx(joint.total_mass(), abs=1e-14)
        assert_same_law(laws.global_law, insample.prior_marginal_global(vc, n1, n2))
        assert_same_law(laws.shared_law, insample.prior_marginal_shared(vc, n1, n2))
        means = [sum(key[c] * p for key, p in joint.probs().items()) for c in (1, 2, 0)]
        e_k1, e_k2, e_k, e_s = laws.expected
        assert [e_k1, e_k2, e_k] == pytest.approx(means, rel=1e-13)
        assert e_s == e_k1 + e_k2 - e_k


@pytest.mark.parametrize("n1,n2", [(5, 0), (0, 5)])
def test_marginal_global_one_group_empty_matches_loop(n1, n2):
    # the double sum reduces to the single-group law of the nonempty group
    vc = VCoefficients(PARAMS)
    got = insample.prior_marginal_global(vc, n1, n2)
    assert got.total_mass() == pytest.approx(1.0, abs=1e-10)
    assert_same_law(got, prior_marginal_global_loop(VCoefficients(PARAMS), n1, n2))


def test_marginal_global_single_group_reduction():
    # with the second group empty, the global law collapses to the local one
    vc = VCoefficients(PARAMS)
    local = insample.prior_local(vc, 5, 1)
    assert local.total_mass() == pytest.approx(1.0, abs=1e-10)
    reduced = insample.prior_marginal_global(vc, 5, 0)
    for r in range(1, 6):
        assert reduced.prob(r) == pytest.approx(local.prob(r), rel=1e-10)


def test_global_shared_consistency(vc):
    for n1, n2 in ((2, 2), (3, 3), (4, 2)):
        joint = insample.prior_joint(vc, n1, n2)
        gs = insample.prior_joint_global_shared(vc, n1, n2)
        agg: dict = {}
        for (r, r1, r2), p in joint.probs().items():
            key = (r, r1 + r2 - r)
            agg[key] = agg.get(key, 0.0) + p
        for key in set(gs.support()) | set(agg):
            assert gs.prob(key) == pytest.approx(agg.get(key, 0.0), abs=1e-10)


def test_global_shared_hand_value(vc):
    gs = insample.prior_joint_global_shared(vc, 1, 1)
    expected = PARAMS.gamma1 * PARAMS.gamma2 * math.exp(vc.log_v(1, 1, 1))
    assert gs.prob((1, 1)) == pytest.approx(expected, rel=1e-12)


def test_shared_support_bound(vc):
    gs = insample.prior_joint_global_shared(vc, 3, 2)
    for (r, t) in gs.support():
        assert 0 <= t <= min(r, 3, 2)


def test_marginal_shared(vc):
    for n1, n2 in ((3, 2), (4, 4)):
        gs = insample.prior_joint_global_shared(vc, n1, n2)
        sh = insample.prior_marginal_shared(vc, n1, n2)
        assert sh.total_mass() == pytest.approx(1.0, abs=1e-10)
        zero_from_joint = sum(gs.prob((r, 0)) for r in range(1, n1 + n2 + 1))
        assert sh.prob(0) == pytest.approx(zero_from_joint, abs=1e-12)


def test_local_normalization_and_consistency(vc):
    for n in range(1, 11):
        assert insample.prior_local(vc, n, 1).total_mass() == pytest.approx(
            1.0, abs=1e-10)
    assert insample.prior_local(vc, 1, 2).prob(1) == pytest.approx(1.0, abs=1e-12)


def test_local_matches_joint_marginal(vc):
    for n1, n2 in ((3, 2), (2, 4)):
        joint = insample.prior_joint(vc, n1, n2)
        local1 = insample.prior_local(vc, n1, 1)
        from_joint = joint.marginal(1)
        for r1 in set(local1.support()) | set(from_joint.support()):
            assert local1.prob(r1) == pytest.approx(from_joint.prob(r1),
                                                    abs=1e-10)


def test_requires_observations(vc):
    with pytest.raises(DomainError):
        insample.prior_joint(vc, 0, 2)
    with pytest.raises(DomainError):
        insample.prior_local(vc, 0, 1)


def test_correlation_small_gamma_limit():
    lam = 2.0
    params = ModelParams(1e-6, 1e-6, OneShiftedPoisson(lam))
    target = -math.expm1(-lam) / lam
    assert insample.correlation(params) == pytest.approx(target, abs=1e-4)


def test_correlation_large_gamma_limit():
    params = ModelParams(1e6, 1e6, OneShiftedPoisson(2.0))
    assert insample.correlation(params) == pytest.approx(1.0, abs=1e-3)


def test_correlation_point_mass_one():
    for gamma in (0.1, 1.0, 10.0):
        params = ModelParams(gamma, gamma, PointMass(1))
        assert insample.correlation(params) == pytest.approx(1.0, rel=1e-12)


def test_correlation_group_swap_symmetry():
    prior = OneShiftedPoisson(3.0)
    a = insample.correlation(ModelParams(0.4, 2.5, prior))
    b = insample.correlation(ModelParams(2.5, 0.4, prior))
    assert a == pytest.approx(b, rel=1e-12)


def test_correlation_monotone_in_gamma():
    values = [insample.correlation(ModelParams(g, g, OneShiftedPoisson(2.0)))
              for g in (0.01, 0.1, 1.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_expected_counts_linearity(vc):
    e_k1, e_k2, e_k, e_s = insample.expected_in_sample(vc, 3, 4)
    assert e_s == pytest.approx(e_k1 + e_k2 - e_k, abs=1e-10)


def test_expected_single_pair_value(vc):
    # E[K] over the two-entry table: 1 P(r=1) + 2 P(r=2) = 2 - P(r=1)
    _, _, e_k, _ = insample.expected_in_sample(vc, 1, 1)
    p_same = PARAMS.gamma1 * PARAMS.gamma2 * math.exp(vc.log_v(1, 1, 1))
    assert e_k == pytest.approx(2.0 - p_same, abs=1e-10)


def test_expected_matches_generative_sampler(vc):
    n1, n2, n_rep = 3, 2, 20000
    root = np.random.default_rng(42)
    stats = np.zeros((n_rep, 4))
    for i in range(n_rep):
        table = generative_vecfdp_sample(PARAMS, n1, n2,
                                                  int(root.integers(2**63)))
        stats[i] = (table.r1, table.r2, table.r, table.t)
    exact = insample.expected_in_sample(vc, n1, n2)
    means = stats.mean(axis=0)
    errs = stats.std(axis=0, ddof=1) / math.sqrt(n_rep)
    for got, se, want in zip(means, errs, exact):
        assert abs(got - want) < 3.0 * se + 1e-9
