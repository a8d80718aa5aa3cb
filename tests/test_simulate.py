import math

import numpy as np
import pytest

from vecfdp import insample, prediction, simulate
from vecfdp.estimation import fit_all
from vecfdp.logmath import DomainError
from vecfdp.mprior import OneShiftedPoisson, PointMass
from vecfdp.vcoef import ModelParams, VCoefficients

from oracles import (
    draw_sample,
    generative_vecfdp_sample,
    quartile_rows_loop,
    split_rows_loop,
)

PARAMS = ModelParams(1.2, 0.7, OneShiftedPoisson(2.5))


def conditional_future_sample(vc, state, m1, m2, seed):
    """One draw of (k, k1, k2, s); see ``simulate.conditional_future_draws``."""
    return tuple(int(x) for x in
                 simulate.conditional_future_draws(vc, state, m1, m2, 1, seed)[0])


def test_population_proportions_before_shuffle():
    pop = simulate.generate_population(3, 0.5, 0.5, seed=0)
    # geometric decay 0.5, 0.25, 0.125 normalizes to 4/7, 2/7, 1/7
    assert sorted(pop.p1, reverse=True) == pytest.approx([4 / 7, 2 / 7, 1 / 7])
    assert sorted(pop.p2, reverse=True) == pytest.approx([4 / 7, 2 / 7, 1 / 7])
    assert pop.p1.sum() == pytest.approx(1.0, abs=1e-12)


def test_population_single_species():
    pop = simulate.generate_population(1, 0.9, 0.2, seed=1)
    assert pop.p1 == pytest.approx([1.0])
    assert pop.p2 == pytest.approx([1.0])


def test_population_deterministic_and_independent_shuffles():
    a = simulate.generate_population(60, 0.8, 0.8, seed=7)
    b = simulate.generate_population(60, 0.8, 0.8, seed=7)
    assert np.array_equal(a.p1, b.p1) and np.array_equal(a.p2, b.p2)
    # independent per-group permutations: the two vectors differ
    assert not np.array_equal(a.p1, a.p2)


def test_population_domain():
    with pytest.raises(DomainError):
        simulate.generate_population(0, 0.8, 0.8, 1)
    with pytest.raises(DomainError):
        simulate.generate_population(5, 1.0, 0.8, 1)


def test_draw_sample_totals_and_determinism():
    pop = simulate.generate_population(20, 0.8, 0.85, seed=3)
    draw = draw_sample(pop, 40, 60, seed=4)
    assert draw.counts1.sum() == 40
    assert draw.counts2.sum() == 60
    again = draw_sample(pop, 40, 60, seed=4)
    assert np.array_equal(draw.counts1, again.counts1)
    empty = draw_sample(pop, 0, 0, seed=4)
    assert empty.counts1.sum() == 0 and empty.counts2.sum() == 0


def test_draw_sample_expected_counts():
    pop = simulate.generate_population(10, 0.8, 0.8, seed=5)
    n = 100_000
    draw = draw_sample(pop, n, 0, seed=6)
    for m in range(10):
        p = pop.p1[m]
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(draw.counts1[m] - n * p) < 4.0 * sigma + 1e-9


def test_generative_point_mass_single_species():
    params = ModelParams(1.0, 1.0, PointMass(1))
    for seed in range(5):
        table = generative_vecfdp_sample(params, 7, 9, seed)
        assert table.summary() == {"n1": 7, "n2": 9, "r1": 1, "r2": 1,
                                   "r": 1, "t": 1, "r1_star": 0, "r2_star": 0}


def test_generative_matches_exact_single_pair_law():
    vc = VCoefficients(PARAMS)
    exact = insample.prior_joint(vc, 1, 1)
    n_rep = 40_000
    root = np.random.default_rng(12)
    hits = {}
    for _ in range(n_rep):
        t = generative_vecfdp_sample(PARAMS, 1, 1,
                                              int(root.integers(2**63)))
        key = (t.r, t.r1, t.r2)
        hits[key] = hits.get(key, 0) + 1
    tv = 0.5 * sum(abs(hits.get(k, 0) / n_rep - exact.prob(k))
                   for k in set(hits) | set(exact.support()))
    assert tv < 0.02


def test_generative_local_marginal_agreement():
    vc = VCoefficients(PARAMS)
    exact = insample.prior_local(vc, 3, 1)
    n_rep = 40_000
    root = np.random.default_rng(13)
    hits = {}
    for _ in range(n_rep):
        t = generative_vecfdp_sample(PARAMS, 3, 1,
                                              int(root.integers(2**63)))
        hits[t.r1] = hits.get(t.r1, 0) + 1
    tv = 0.5 * sum(abs(hits.get(k, 0) / n_rep - exact.prob(k))
                   for k in set(hits) | set(exact.support()))
    assert tv < 0.02


def test_conditional_zero_future_is_all_zero():
    vc = VCoefficients(PARAMS)
    state = prediction.ObservedState(3, 3, 2, 2, 3,
                                     counts1=(2, 1, 0), counts2=(1, 0, 2))
    assert conditional_future_sample(vc, state, 0, 0, seed=9) == \
        (0, 0, 0, 0)


def test_conditional_draws_deterministic():
    vc = VCoefficients(PARAMS)
    state = prediction.ObservedState(3, 3, 2, 2, 3,
                                     counts1=(2, 1, 0), counts2=(1, 0, 2))
    a = simulate.conditional_future_draws(vc, state, 2, 1, 500, seed=10)
    b = simulate.conditional_future_draws(vc, state, 2, 1, 500, seed=10)
    assert np.array_equal(a, b)


def test_conditional_requires_counts():
    vc = VCoefficients(PARAMS)
    state = prediction.ObservedState(3, 3, 2, 2, 3)
    with pytest.raises(DomainError):
        conditional_future_sample(vc, state, 1, 1, seed=0)


def test_bruteforce_normalization_and_guard():
    oracle = simulate.bruteforce_prior(PARAMS, 3, 3)
    assert oracle.total_mass() == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DomainError):
        simulate.bruteforce_prior(PARAMS, 5, 4)


def test_bruteforce_single_pair_reproduces_hand_table():
    vc = VCoefficients(PARAMS)
    oracle = simulate.bruteforce_prior(PARAMS, 1, 1)
    g1g2 = PARAMS.gamma1 * PARAMS.gamma2
    assert oracle.prob((1, 1, 1)) == pytest.approx(
        g1g2 * math.exp(vc.log_v(1, 1, 1)), rel=1e-10)
    assert oracle.prob((2, 1, 1)) == pytest.approx(
        g1g2 * math.exp(vc.log_v(1, 1, 2)), rel=1e-10)


def test_fit_all_clamped_handles_no_shared_species():
    table = simulate.from_counts(["a", "b"], [3, 0], [0, 4])
    params = fit_all(table, clamp=True).params
    assert params.m_prior.lam > 0
    assert params.gamma1 > 0 and params.gamma2 > 0


def test_clamped_fit_records_a_moved_moment():
    # no shared species: cp = 0 moves to 1/(n1 n2), so lam is about n1 n2
    table = simulate.from_counts(["a", "b"], [3, 0], [0, 4])
    fit = fit_all(table, clamp=True)
    assert fit.moved and fit.lam == pytest.approx(12.0, rel=1e-5)
    assert not fit_all(simulate.from_counts(["a", "b"], [3, 1], [1, 4]), clamp=True).moved
    assert not fit_all(simulate.from_counts(["a", "b"], [3, 1], [1, 4])).moved


def test_experiments_note_moved_fits_on_stderr(capsys):
    # a training sample of two draws per group from 60 species shares none,
    # so each fit at split 0.1 of n = 20 moves cp, and none at 0.5 does
    cfg = simulate.Experiment2Config(n=20, splits=(0.1, 0.5), replications=3, seed=5)
    simulate.run_experiment2(cfg)
    assert capsys.readouterr().err == (
        "note: 3 of 6 fits moved a sample moment into the model's range\n")
    cfg = simulate.Experiment1Config(grid=(30, 60), replications=2, seed=17)
    simulate.run_experiment1(cfg)
    assert capsys.readouterr().err == ""


def test_experiment1_deterministic_and_shaped():
    cfg = simulate.Experiment1Config(grid=(30, 60), replications=3, seed=17)
    rows = simulate.run_experiment1(cfg)
    assert len(rows) == 2 * 4
    assert rows == simulate.run_experiment1(cfg)
    methods = {row["method"] for row in rows}
    assert methods == {"proposed", "yue", "chao_sh", "true"}
    for row in rows:
        assert row["q1"] <= row["median"] <= row["q3"]


def test_experiment2_deterministic_and_shaped():
    cfg = simulate.Experiment2Config(n=60, splits=(0.4, 0.8), replications=3,
                                     seed=18)
    rows = simulate.run_experiment2(cfg)
    assert [row["split"] for row in rows] == [0.4, 0.8]
    assert rows == simulate.run_experiment2(cfg)
    for row in rows:
        assert row["predicted_q1"] <= row["predicted_median"] <= row["predicted_q3"]


def test_experiment2_prediction_gap_shrinks_at_full_split():
    cfg = simulate.Experiment2Config(n=120, splits=(0.2, 0.95),
                                     replications=6, seed=19)
    rows = simulate.run_experiment2(cfg)
    gaps = {row["split"]: abs(row["predicted_median"] - row["true_median"])
            for row in rows}
    assert gaps[0.95] <= gaps[0.2] + 0.5


def _tables(reps: int, seed: int):
    """Experiment-shaped tables of ``reps`` values per cell: continuous
    draws, heavy ties (a few integers), and one cell of a single value."""
    rng = np.random.default_rng(seed)
    cells = [rng.normal(size=reps).tolist(),
             rng.integers(0, 3, size=reps).astype(float).tolist(),
             [0.25] * reps,
             (rng.random(reps) * 1e-3).tolist()]
    per_n = {n: {m: cells[(i + j) % 4] for j, m in
                 enumerate(("proposed", "yue", "chao_sh", "true"))}
             for i, n in enumerate((50, 100, 150))}
    per_split = {pct: {"predicted": cells[i % 4], "true": cells[(i + 1) % 4],
                       "error": cells[(i + 2) % 4]}
                 for i, pct in enumerate((0.1, 0.5, 0.9))}
    return per_n, per_split


@pytest.mark.parametrize("reps", [1, 2, 3, 4, 139, 140])
def test_quartile_rows_match_loop_exactly(reps):
    # odd and even counts, ties, and the replication counts 1 and 140 of
    # the benchmark's replicates and the experiments' defaults
    per_n, per_split = _tables(reps, seed=reps)
    want = [row for n, estimates in per_n.items()
            for row in quartile_rows_loop("s", n, estimates)]
    assert simulate._quartile_rows("s", per_n) == want
    assert simulate._split_rows("s", per_split) == split_rows_loop("s", per_split)
