"""Synthetic data generation, Monte-Carlo samplers, a brute-force
enumeration oracle for the in-sample law, and the two experiment harnesses
that benchmark the one-step discovery estimators and the m-step shared
species predictions.

Every sampler is deterministic under its seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .abundance import from_counts
from .baselines import (
    chao_shared_estimator,
    frequency_counts,
    true_discovery_prob,
    yue_estimator,
)
from .estimation import fit_all
from .logmath import DomainError, log_pochhammer, log_sum_exp
from .pmftable import PmfTable
from .prediction import (
    ObservedState,
    expected_new,
    one_step_discovery_prob,
)
from .vcoef import ModelParams, VCoefficients

BRUTE_FORCE_MAX_N = 8


@dataclass(frozen=True)
class SyntheticPopulation:
    """Two fixed discrete populations over a common species list.

    Proportions decay geometrically, p_{j,m} proportional to alpha_j^m, and
    are then shuffled by an independent random permutation per group so that
    the abundant species of one area need not be abundant in the other.
    """

    m_true: int
    p1: np.ndarray
    p2: np.ndarray
    seed: int


def generate_population(m_true: int, alpha1: float, alpha2: float,
                        seed: int) -> SyntheticPopulation:
    if m_true < 1:
        raise DomainError("need at least one species")
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise DomainError("decay rates must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, m_true + 1, dtype=float)
    out = []
    for alpha in (alpha1, alpha2):
        p = alpha ** ranks
        p /= p.sum()
        out.append(p[rng.permutation(m_true)])
    return SyntheticPopulation(m_true=m_true, p1=out[0], p2=out[1], seed=seed)


def _state_counts(state: ObservedState) -> tuple[np.ndarray, np.ndarray]:
    if state.counts1 is None or state.counts2 is None:
        raise DomainError("conditional sampling needs per-species counts")
    return (np.asarray(state.counts1, dtype=np.int64),
            np.asarray(state.counts2, dtype=np.int64))


def conditional_future_draws(vc: VCoefficients, state: ObservedState,
                             m1: int, m2: int, n_draws: int,
                             seed: int) -> np.ndarray:
    """Monte-Carlo draws of (k, k1, k2, s) for a future (m1, m2) sample.

    Construction: draw the unseen species count from its posterior, then
    per-group weights from the conjugate Dirichlet update (concentration
    gamma_j + n_{j,l} on observed species, gamma_j on unseen ones), then
    multinomial future counts.  Returns an array of shape (n_draws, 4).
    """
    obs1, obs2 = _state_counts(state)
    rng = np.random.default_rng(seed)
    post = vc.posterior(state.n1, state.n2, state.r)
    m_stars = rng.choice(post.m_star, size=n_draws, p=np.exp(post.log_pmf))
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    r = state.r
    out = np.empty((n_draws, 4), dtype=np.int64)
    row = 0
    for m_star in np.unique(m_stars):
        batch = int(np.sum(m_stars == m_star))
        total = r + int(m_star)
        alpha1 = np.concatenate([g1 + obs1, np.full(int(m_star), g1)])
        alpha2 = np.concatenate([g2 + obs2, np.full(int(m_star), g2)])
        w1 = rng.dirichlet(alpha1, size=batch)
        w2 = rng.dirichlet(alpha2, size=batch)
        fut1 = rng.multinomial(m1, w1) if m1 > 0 else np.zeros(
            (batch, total), dtype=np.int64)
        fut2 = rng.multinomial(m2, w2) if m2 > 0 else np.zeros(
            (batch, total), dtype=np.int64)
        new1 = fut1 > 0
        new1[:, :r] &= obs1 == 0
        new2 = fut2 > 0
        new2[:, :r] &= obs2 == 0
        k1 = new1.sum(axis=1)
        k2 = new2.sum(axis=1)
        k = ((fut1[:, r:] + fut2[:, r:]) > 0).sum(axis=1)
        out[row:row + batch, 0] = k
        out[row:row + batch, 1] = k1
        out[row:row + batch, 2] = k2
        out[row:row + batch, 3] = k1 + k2 - k
        row += batch
    return out


def empirical_pmf(draws: np.ndarray, columns=(0, 1, 2)) -> PmfTable:
    """Empirical distribution of selected draw columns as a log-space pmf."""
    keys, counts = np.unique(draws[:, list(columns)], axis=0, return_counts=True)
    n = draws.shape[0]
    entries = {}
    for key, count in zip(keys, counts):
        tup = tuple(int(x) for x in key)
        entries[tup if len(tup) > 1 else tup[0]] = math.log(count / n)
    return PmfTable(entries)


def tv_distance(p: PmfTable, q: PmfTable) -> float:
    keys = set(p.support()) | set(q.support())
    return 0.5 * sum(abs(p.prob(key) - q.prob(key)) for key in keys)


def _compositions(n: int, k: int):
    """All k-tuples of nonnegative integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def bruteforce_prior(params: ModelParams, n1: int, n2: int, *,
                     tol: float = 1e-12, max_terms: int = 10**6) -> PmfTable:
    """Exhaustive-enumeration oracle for the joint in-sample law.

    Sums the partition law directly: for each r and each pair of count
    vectors over r species (nonnegative, groupwise sums n_j, no species
    empty in both groups), weight by 1/r! times the multinomial assignment
    counts times the partition probability V^r prod (gamma_j)_{n_{j,l}},
    then bin by (r, r1, r2).  Exponential cost; guarded to n1 + n2 <= 8.
    """
    if n1 + n2 > BRUTE_FORCE_MAX_N:
        raise DomainError(
            f"enumeration oracle guarded to n1+n2 <= {BRUTE_FORCE_MAX_N}")
    if n1 < 1 or n2 < 1:
        raise DomainError("both groups need at least one observation")
    vc = VCoefficients(params, tol=tol, max_terms=max_terms)
    g1, g2 = params.gamma1, params.gamma2
    lgamma_fact = [math.lgamma(i + 1) for i in range(n1 + n2 + 1)]
    acc: dict[tuple[int, int, int], list[float]] = {}
    for r in range(1, n1 + n2 + 1):
        log_r_fact = math.lgamma(r + 1)
        comps2 = list(_compositions(n2, r))
        for v1 in _compositions(n1, r):
            log_mult1 = lgamma_fact[n1] - sum(lgamma_fact[c] for c in v1)
            log_eppf1 = sum(log_pochhammer(g1, c) for c in v1 if c > 0)
            r1 = sum(1 for c in v1 if c > 0)
            for v2 in comps2:
                if any(a == 0 and b == 0 for a, b in zip(v1, v2)):
                    continue
                log_mult2 = lgamma_fact[n2] - sum(lgamma_fact[c] for c in v2)
                log_eppf2 = sum(log_pochhammer(g2, c) for c in v2 if c > 0)
                r2 = sum(1 for c in v2 if c > 0)
                lp = (-log_r_fact + log_mult1 + log_mult2
                      + vc.log_v(n1, n2, r) + log_eppf1 + log_eppf2)
                acc.setdefault((r, r1, r2), []).append(lp)
    return PmfTable({key: log_sum_exp(terms) for key, terms in acc.items()})


@dataclass(frozen=True)
class Experiment1Config:
    """One-step shared-species discovery benchmark over growing samples."""

    alpha1: float = 0.8
    alpha2: float = 0.8
    m_true: int = 60
    grid: tuple[int, ...] = (50, 100, 150, 200, 250, 300, 350, 400)
    replications: int = 140
    seed: int = 11
    mode: str = "plug_in"


def _quartiles(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(median, first quartile, third quartile) along the last axis of
    ``values``, from one sort of a whole experiment's table.

    The arithmetic is numpy's, so the results equal ``np.median`` and
    ``np.quantile`` bit for bit; those import ``numpy.ma``, about 1 MB of
    memory per process.  A quartile interpolates linearly at the virtual
    index (n - 1) q, from the nearer end (numpy's ``_lerp``), and an
    even-sized median is the mean of the middle two.
    """
    arr = np.sort(np.asarray(values, dtype=float), axis=-1)
    n = arr.shape[-1]
    out = []
    for q in (0.25, 0.75):
        index = n * q + (1.0 - q) - 1.0  # numpy's form of (n - 1) q
        lo = math.floor(index)
        a, b, t = arr[..., lo], arr[..., min(lo + 1, n - 1)], index - lo
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    mid = arr[..., n // 2]
    median = mid if n % 2 else (arr[..., n // 2 - 1] + mid) / 2.0
    return median, out[0], out[1]


def _quartile_rows(scenario: str, per_n: dict[int, dict[str, list[float]]]):
    """Experiment 1's rows: per (n, method) medians and quartiles."""
    methods = list(next(iter(per_n.values())))
    med, q1, q3 = _quartiles([[per_n[n][m] for m in methods] for n in per_n])
    return [{"scenario": scenario, "n": n, "method": method,
             "median": float(med[i, j]), "q1": float(q1[i, j]), "q3": float(q3[i, j])}
            for i, n in enumerate(per_n) for j, method in enumerate(methods)]


def _split_rows(scenario: str, per_split: dict[float, dict[str, list[float]]]):
    """Experiment 2's rows: per-split medians and quartiles of the
    prediction, the median target and the median signed error."""
    med, q1, q3 = _quartiles([[data["predicted"], data["true"], data["error"]]
                              for data in per_split.values()])
    return [{"scenario": scenario, "split": pct,
             "predicted_median": float(med[i, 0]), "predicted_q1": float(q1[i, 0]),
             "predicted_q3": float(q3[i, 0]), "true_median": float(med[i, 1]),
             "error_median": float(med[i, 2])}
            for i, pct in enumerate(per_split)]


def _note_moved(moved: int, fits: int) -> None:
    """One stderr line when any of a run's clamped fits moved a moment."""
    if moved:
        print(f"note: {moved} of {fits} fits moved a sample moment into the "
              "model's range", file=sys.stderr)


def run_experiment1(config: Experiment1Config) -> list[dict]:
    """Compare the model's one-step shared discovery probability against the
    Good-Turing-type baselines and the exact population value.

    Each replicate draws one iid observation sequence per group from a
    shuffled geometric-decay population; prefixes of the sequences give the
    nested samples over the size grid.  Emits per-(n, method) medians and
    quartiles.
    """
    scenario = f"alpha1={config.alpha1},alpha2={config.alpha2}"
    n_max = max(config.grid)
    root = np.random.default_rng(config.seed)
    per_n: dict[int, dict[str, list[float]]] = {
        n: {"proposed": [], "yue": [], "chao_sh": [], "true": []}
        for n in config.grid
    }
    moved = 0  # fits that moved a sample moment
    for _ in range(config.replications):
        pop_seed, draw_seed = root.integers(2**63, size=2)
        pop = generate_population(config.m_true, config.alpha1, config.alpha2,
                                  int(pop_seed))
        rng = np.random.default_rng(int(draw_seed))
        seq1 = rng.choice(pop.m_true, size=n_max, p=pop.p1)
        seq2 = rng.choice(pop.m_true, size=n_max, p=pop.p2)
        for n in config.grid:
            c1 = np.bincount(seq1[:n], minlength=pop.m_true).astype(np.int64)
            c2 = np.bincount(seq2[:n], minlength=pop.m_true).astype(np.int64)
            table = from_counts([f"sp{i:04d}" for i in range(pop.m_true)],
                                c1, c2, drop_empty=True)
            counts = frequency_counts(table)
            per_n[n]["yue"].append(yue_estimator(counts, n, n).value)
            per_n[n]["chao_sh"].append(chao_shared_estimator(counts, n, n).value)
            per_n[n]["true"].append(true_discovery_prob(pop.p1, pop.p2, c1, c2))
            fit = fit_all(table, config.mode, clamp=True)
            moved += fit.moved
            vc = VCoefficients(fit.params)
            state = ObservedState.from_abundance(table)
            per_n[n]["proposed"].append(one_step_discovery_prob(vc, state))
    _note_moved(moved, config.replications * len(config.grid))
    return _quartile_rows(scenario, per_n)


@dataclass(frozen=True)
class Experiment2Config:
    """Predicting the shared species count of a held-out test set."""

    alpha1: float = 0.8
    alpha2: float = 0.8
    m_true: int = 60
    n: int = 400
    splits: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    replications: int = 140
    seed: int = 20240802
    mode: str = "plug_in"


def run_experiment2(config: Experiment2Config) -> list[dict]:
    """Fit on a training fraction, predict the new shared species in the
    held-out remainder, and compare S_obs + E[S_new] against the shared
    species count of the full dataset.

    Emits per-split medians and quartiles of the prediction and of the
    target, plus the median signed error.
    """
    scenario = f"alpha1={config.alpha1},alpha2={config.alpha2}"
    root = np.random.default_rng(config.seed)
    per_split: dict[float, dict[str, list[float]]] = {
        pct: {"predicted": [], "true": [], "error": []} for pct in config.splits
    }
    moved = 0  # fits that moved a sample moment
    for _ in range(config.replications):
        pop_seed, draw_seed = root.integers(2**63, size=2)
        pop = generate_population(config.m_true, config.alpha1, config.alpha2,
                                  int(pop_seed))
        rng = np.random.default_rng(int(draw_seed))
        seq1 = rng.choice(pop.m_true, size=config.n, p=pop.p1)
        seq2 = rng.choice(pop.m_true, size=config.n, p=pop.p2)
        full1 = np.bincount(seq1, minlength=pop.m_true)
        full2 = np.bincount(seq2, minlength=pop.m_true)
        s_true = int(np.count_nonzero((full1 > 0) & (full2 > 0)))
        for pct in config.splits:
            train = int(round(pct * config.n))
            train = min(max(train, 1), config.n)
            c1 = np.bincount(seq1[:train], minlength=pop.m_true).astype(np.int64)
            c2 = np.bincount(seq2[:train], minlength=pop.m_true).astype(np.int64)
            table = from_counts([f"sp{i:04d}" for i in range(pop.m_true)],
                                c1, c2, drop_empty=True)
            s_obs = table.t
            fit = fit_all(table, config.mode, clamp=True)
            moved += fit.moved
            vc = VCoefficients(fit.params)
            state = ObservedState.from_abundance(table)
            m_future = config.n - train
            est = expected_new(vc, state, m_future, m_future)
            predicted = s_obs + est.s
            per_split[pct]["predicted"].append(predicted)
            per_split[pct]["true"].append(float(s_true))
            per_split[pct]["error"].append(predicted - s_true)
    _note_moved(moved, config.replications * len(config.splits))
    return _split_rows(scenario, per_split)
