"""Out-of-sample prediction: posterior of the unseen species count, joint
and marginal laws of new distinct/shared species in a future sample of
sizes (m1, m2), discovery and coverage probabilities, and extrapolation
curves.

All distributions condition on an observed state (n1, n2, r1, r2, r) and
feed on two ingredients: V-coefficient ratios and non-central generalized
factorial coefficients |C(m, k; -gamma_j, -(gamma_j r_j + n_j))|, streamed
as whole rows in O(m) memory.  The coverage probability reads a run of V
coefficients from one batched evaluation and sums its lattice on numpy
blocks, so it scales to futures of 10^4 per group; the moment route of the
expected counts works on the posterior's support as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import gammaln

from .gfc import log_noncentral_row
from .logmath import (
    LOG_ZERO,
    DomainError,
    log_add,
    log_binomial,
    log_factorial,
    log_sum_exp,
)
from .pmftable import PmfTable, shared_marginal
from .vcoef import VCoefficients, v_series

#: cells of the coverage lattice summed per numpy block
_LATTICE_BLOCK = 1 << 16


@dataclass(frozen=True)
class ObservedState:
    """Summary of an observed two-group sample.

    ``counts1``/``counts2`` are optional per-species abundances over the r
    global species (zeros where a species is missing from a group); they are
    required only by the conditional Monte-Carlo sampler.
    """

    n1: int
    n2: int
    r1: int
    r2: int
    r: int
    counts1: tuple[int, ...] | None = None
    counts2: tuple[int, ...] | None = None

    def __post_init__(self):
        for n, rj in ((self.n1, self.r1), (self.n2, self.r2)):
            ok = (1 <= rj <= n) if n >= 1 else (rj == 0)
            if not ok:
                raise DomainError(f"need 1 <= r_j <= n_j (0 if empty), got {self}")
        if not (max(self.r1, self.r2, 1) <= self.r <= self.r1 + self.r2):
            raise DomainError(f"r={self.r} incompatible with r1, r2")
        for j, counts, n, rj in ((1, self.counts1, self.n1, self.r1),
                                 (2, self.counts2, self.n2, self.r2)):
            if counts is None:
                continue
            if len(counts) != self.r:
                raise DomainError(f"counts{j} must list all {self.r} species")
            if sum(counts) != n or sum(1 for c in counts if c > 0) != rj:
                raise DomainError(f"counts{j} inconsistent with n{j}, r{j}")

    @property
    def t(self) -> int:
        return self.r1 + self.r2 - self.r

    @property
    def r1_star(self) -> int:
        return self.r - self.r2

    @property
    def r2_star(self) -> int:
        return self.r - self.r1

    @classmethod
    def from_abundance(cls, table) -> "ObservedState":
        return cls(n1=table.n1, n2=table.n2, r1=table.r1, r2=table.r2,
                   r=table.r, counts1=tuple(int(c) for c in table.counts1),
                   counts2=tuple(int(c) for c in table.counts2))


class ExpectedNew(NamedTuple):
    k1: float
    k2: float
    k: float
    s: float


def _rho(state: ObservedState, gamma: float, group: int) -> float:
    if group == 1:
        return gamma * state.r1 + state.n1
    return gamma * state.r2 + state.n2


def posterior_m_pmf(vc: VCoefficients, state: ObservedState) -> PmfTable:
    """Posterior pmf of the number of species never observed so far.

    q*(m*) = (m*+r)_{r fall} q_M(m*+r) / [ V^r_{n1,n2}
             prod_j (gamma_j (m*+r))_{n_j} ],   m* = 0, 1, 2, ...

    The masses are the terms of the V^r_{n1,n2} series divided by their own
    total, so the support is the window that series summed and the pmf is
    normalized by construction.  Note q*(0) > 0: the sample may already
    have exhausted the species pool.
    """
    log_norm, m, terms = v_series(state.n1, state.n2, state.r, vc.params,
                                  tol=vc.tol, max_terms=vc.max_terms)
    return PmfTable.from_arrays(m - state.r, terms - log_norm)


def posterior_m_mean(vc: VCoefficients, state: ObservedState) -> float:
    """E(M* | data) = V^{r+1}_{n1,n2} / V^r_{n1,n2}."""
    return math.exp(vc.log_v(state.n1, state.n2, state.r + 1)
                    - vc.log_v(state.n1, state.n2, state.r))


def _log_inner_sum(k: int, k1: int, k2: int, r1_star: int, r2_star: int) -> float:
    """Combinatorial inner double sum of the joint predictive law.

    sum over s* (new shared among the k new species) and k1* (new species
    exclusive to group 1) of  k1! k2! / (s*! k1*! k2*!)
    binom(r1*, s12) binom(r2*, s21), with k2* = k - s* - k1*,
    s12 = k2 + k1* - k, s21 = k1 - k1* - s*; index combinations driving any
    auxiliary count negative contribute nothing.
    """
    terms = []
    base = log_factorial(k1) + log_factorial(k2)
    for s_star in range(0, k + 1):
        for k1_star in range(0, k - s_star + 1):
            k2_star = k - s_star - k1_star
            s12 = k2 + k1_star - k
            s21 = k1 - k1_star - s_star
            if s12 < 0 or s21 < 0 or s12 > r1_star or s21 > r2_star:
                continue
            terms.append(base
                         - log_factorial(s_star) - log_factorial(k1_star)
                         - log_factorial(k2_star)
                         + log_binomial(r1_star, s12)
                         + log_binomial(r2_star, s21))
    return log_sum_exp(terms)


def posterior_joint_new(vc: VCoefficients, state: ObservedState,
                        m1: int, m2: int) -> PmfTable:
    """Joint pmf of (new global k, new local k1, new local k2) in a future
    sample of sizes (m1, m2), given the observed state."""
    if m1 < 0 or m2 < 0:
        raise DomainError("future sample sizes must be >= 0")
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    row1 = log_noncentral_row(m1, g1, _rho(state, g1, 1))
    row2 = log_noncentral_row(m2, g2, _rho(state, g2, 2))
    log_v_obs = vc.log_v(state.n1, state.n2, state.r)
    n1m, n2m = state.n1 + m1, state.n2 + m2
    entries = {}
    for k1 in range(0, m1 + 1):
        for k2 in range(0, m2 + 1):
            base = row1[k1] + row2[k2]
            if base == LOG_ZERO:
                continue
            for k in range(0, k1 + k2 + 1):
                inner = _log_inner_sum(k, k1, k2, state.r1_star, state.r2_star)
                if inner == LOG_ZERO:
                    continue
                lp = (vc.log_v(n1m, n2m, state.r + k) - log_v_obs
                      + base + inner)
                entries[(k, k1, k2)] = lp
    return PmfTable(entries)


def posterior_marginal_global_new(vc: VCoefficients, state: ObservedState,
                                  m1: int, m2: int) -> PmfTable:
    """Pmf of the number of new global distinct species k in (m1, m2).

    P(k) = (V^{r+k}_{n1+m1,n2+m2} / V^r_{n1,n2}) *
           sum_{k1*, k2* >= 0, k1*+k2* <= k}
           (k1*+s*)! (k2*+s*)! / (k1*! k2*! s*!)
           prod_j |C(m_j, k_j*+s*; -g_j, -(g_j r + n_j))|,  s* = k-k1*-k2*.

    The non-central shift here is gamma_j * r + n_j (global r): the marginal
    never needs to know which of the r species each group has seen.
    """
    if m1 < 0 or m2 < 0:
        raise DomainError("future sample sizes must be >= 0")
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    rho1 = g1 * state.r + state.n1
    rho2 = g2 * state.r + state.n2
    row1 = log_noncentral_row(m1, g1, rho1)
    row2 = log_noncentral_row(m2, g2, rho2)
    log_v_obs = vc.log_v(state.n1, state.n2, state.r)
    n1m, n2m = state.n1 + m1, state.n2 + m2
    lf = gammaln(np.arange(m1 + m2 + 2, dtype=float))  # lf[i] = log (i-1)!
    entries = {}
    for k in range(0, m1 + m2 + 1):
        # term(k1*, k2*) with s* = k - k1* - k2* >= 0; group j gains
        # i_j = k - k_{j'}* species, so the grid separates into a row
        # factor in k1*, a column factor in k2*, and the s*! coupling.
        a = np.arange(k + 1)
        right = np.where(k - a <= m1, row1[np.minimum(k - a, m1)] + lf[k - a + 1], LOG_ZERO)
        down = np.where(k - a <= m2, row2[np.minimum(k - a, m2)] + lf[k - a + 1], LOG_ZERO)
        s_grid = k - a[:, None] - a[None, :]
        with np.errstate(invalid="ignore"):
            grid = ((down - lf[a + 1])[:, None] + (right - lf[a + 1])[None, :]
                    - np.where(s_grid >= 0, lf[np.maximum(s_grid, 0) + 1], np.inf))
        grid[s_grid < 0] = LOG_ZERO
        lse = log_sum_exp(grid.ravel())
        if lse > LOG_ZERO:
            entries[k] = vc.log_v(n1m, n2m, state.r + k) - log_v_obs + lse
    return PmfTable(entries)


def posterior_local_new(vc: VCoefficients, state: ObservedState, m: int,
                        group: int = 1) -> PmfTable:
    """Single-group pmf of the new local distinct species count.

    P(k_j) = (V^{r_j+k_j}_{n_j+m_j} / V^{r_j}_{n_j})
             |C(m_j, k_j; -g_j, -(g_j r_j + n_j))|

    with single-group V coefficients: this conditions on group j's own data
    only, so it need not match the joint law's marginal when the other
    group has data.
    """
    if m < 0:
        raise DomainError("future sample size must be >= 0")
    gamma = vc.params.gamma(group)
    n_j = state.n1 if group == 1 else state.n2
    r_j = state.r1 if group == 1 else state.r2
    row = log_noncentral_row(m, gamma, gamma * r_j + n_j)
    log_v_obs = vc.log_v_single(n_j, r_j, group)
    entries = {
        k: vc.log_v_single(n_j + m, r_j + k, group) - log_v_obs + row[k]
        for k in range(0, m + 1)
    }
    return PmfTable(entries)


def shared_coverage_prob(vc: VCoefficients, state: ObservedState,
                         m1: int, m2: int) -> float:
    """Probability that (m1, m2) further observations reveal no new shared
    species:

    P(S = 0) = sum_{k1, k2} (V^{r+k1+k2}_{n1+m1,n2+m2} / V^r_{n1,n2})
               prod_j |C(m_j, k_j; -g_j, -(g_j r_j + n_j))|

    The V coefficients depend on the lattice cell only through its
    anti-diagonal k1 + k2, so they come from one batched evaluation over
    r .. r + m1 + m2.  The lattice is then summed in log space on blocks of
    about ``_LATTICE_BLOCK`` cells: O(m1 m2) time, O(m1 + m2) memory.
    """
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    row1 = log_noncentral_row(m1, g1, _rho(state, g1, 1))
    row2 = log_noncentral_row(m2, g2, _rho(state, g2, 2))
    lv = vc.log_v_many(state.n1 + m1, state.n2 + m2,
                       state.r + np.arange(m1 + m2 + 1))
    log_v_obs = vc.log_v(state.n1, state.n2, state.r)
    k2 = np.arange(m2 + 1)
    step = max(1, _LATTICE_BLOCK // (m2 + 1))
    parts = []
    for lo in range(0, m1 + 1, step):
        k1 = np.arange(lo, min(lo + step, m1 + 1))[:, None]
        parts.append(log_sum_exp(row1[k1] + row2 + lv[k1 + k2]))
    return math.exp(log_sum_exp(parts) - log_v_obs)


def one_step_shared_pmf(vc: VCoefficients, state: ObservedState) -> PmfTable:
    """Exact pmf of the number of new shared species when one further
    observation is taken in each group (s in {0, 1, 2}).

    With w_j = gamma_j r_j + n_j and V' ratios at (n1+1, n2+1):

    P(0) = V'^r w1 w2 + V'^{r+1} [g1 w2 + g2 w1] + V'^{r+2} g1 g2
    P(1) = V'^r [r2* g1 w2 + r1* g2 w1] + V'^{r+1} g1 g2 (r1* + r2* + 1)
    P(2) = V'^r g1 g2 r1* r2*

    The g1 g2 V'^{r+1} summand in P(1) with coefficient 1 is the event that
    both new observations reveal the same brand-new species; it is required
    for the three masses to sum to one and matches the aggregation of the
    joint predictive law.
    """
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    n1, n2, r = state.n1, state.n2, state.r
    w1 = g1 * state.r1 + n1
    w2 = g2 * state.r2 + n2
    r1s, r2s = state.r1_star, state.r2_star
    log_v_obs = vc.log_v(n1, n2, r)
    lv = {i: vc.log_v(n1 + 1, n2 + 1, r + i) for i in (0, 1, 2)}

    def bundle(pairs):
        terms = [lv[i] + math.log(c) for i, c in pairs if c > 0.0]
        return log_sum_exp(terms) - log_v_obs

    entries = {
        0: bundle([(0, w1 * w2), (1, g1 * w2 + g2 * w1), (2, g1 * g2)]),
        1: bundle([(0, r2s * g1 * w2 + r1s * g2 * w1),
                   (1, g1 * g2 * (r1s + r2s + 1))]),
        2: bundle([(0, g1 * g2 * r1s * r2s)]),
    }
    return PmfTable(entries)


def one_step_discovery_prob(vc: VCoefficients, state: ObservedState) -> float:
    """Probability of discovering at least one new shared species in the
    next pair of observations; complements the s = 0 coverage mass."""
    return 1.0 - one_step_shared_pmf(vc, state).prob(0)


def shared_pmf(vc: VCoefficients, state: ObservedState,
               m1: int, m2: int) -> PmfTable:
    """Pmf of the number of new shared species in (m1, m2), aggregated from
    the joint law along s = k1 + k2 - k."""
    return shared_marginal(posterior_joint_new(vc, state, m1, m2))


def expected_new(vc: VCoefficients, state: ObservedState,
                 m1: int, m2: int) -> ExpectedNew:
    """Expected numbers of new (k1, k2, k, s) species in (m1, m2).

    For m1 + m2 <= 12 the means of the joint law are summed; beyond that
    its O(m^5) cost is too high, and the moment route conditions on the
    unseen-species count and sums per-species appearance probabilities over
    the posterior's support, at any future size.  The switch is also about
    precision: at large rates the moment route loses digits in its
    ``gammaln`` differences (on the ants table at lam = 1e3, m = (3, 4),
    relative error 1e-9 against 3e-12 for the joint route).  Either way
    s = k1 + k2 - k holds by construction, and both routes condition on
    both groups' data.
    """
    if m1 + m2 > 12:
        return _expected_new_moments(vc, state, m1, m2)
    joint = posterior_joint_new(vc, state, m1, m2)
    e_k = joint.mean(0)
    e_k1 = joint.mean(1)
    e_k2 = joint.mean(2)
    return ExpectedNew(k1=e_k1, k2=e_k2, k=e_k, s=e_k1 + e_k2 - e_k)


def _expected_new_moments(vc: VCoefficients, state: ObservedState,
                          m1: int, m2: int) -> ExpectedNew:
    """Exact expectations via the posterior representation.

    Given the unseen-species count, every species with a zero count in
    group j has group-j proportion Beta(g_j, C_j - g_j) with
    C_j = g_j (r + m*) + n_j, so it stays unseen through m_j further draws
    with probability beta_j = (C_j - g_j)_{m_j} / (C_j)_{m_j}.  Expected
    counts follow by summing these appearance probabilities over the
    group-exclusive species and the unseen pool (a brand-new species is
    shared exactly when it appears in both futures: the proportions are
    independent across groups given the pool size).  All sums run over the
    posterior's support as arrays.
    """
    pmf = posterior_m_pmf(vc, state)
    m_star = pmf.keys.astype(float)
    q = np.exp(pmf.log_mass)

    def miss(gamma, n, m):
        if m == 0:
            return 1.0
        c = gamma * (state.r + m_star) + n
        # C_j - g_j = 0 (an empty group, r = 1, m* = 0) gives gammaln = inf
        # and beta_j = 0: the one species' proportion is fixed at one
        return np.exp((gammaln(c - gamma + m) - gammaln(c - gamma))
                      - (gammaln(c + m) - gammaln(c)))

    miss1, miss2 = miss(vc.params.gamma1, state.n1, m1), miss(vc.params.gamma2, state.n2, m2)
    e_k1 = float(np.sum(q * (state.r2_star + m_star) * (1.0 - miss1)))
    e_k2 = float(np.sum(q * (state.r1_star + m_star) * (1.0 - miss2)))
    e_k = float(np.sum(q * m_star * (1.0 - miss1 * miss2)))
    return ExpectedNew(k1=e_k1, k2=e_k2, k=e_k, s=e_k1 + e_k2 - e_k)


@dataclass(frozen=True)
class PairProbs:
    """Normalized probabilities for the next pair of observations, one per
    group, classified as (old, new) x (old, new).

    ``normalizer_ratio`` is the unnormalized cell total divided by
    V^r_{n1,n2}; it should be 1 up to series truncation, and is surfaced
    as a diagnostic of that identity rather than assumed.
    """

    old_old: float
    new_old: float
    old_new: float
    new_new: float
    normalizer_ratio: float

    def as_dict(self) -> dict:
        return {"old_old": self.old_old, "new_old": self.new_old,
                "old_new": self.old_new, "new_new": self.new_new}


def predictive_pair_probs(vc: VCoefficients, state: ObservedState) -> PairProbs:
    """Cell weights for the next pair of observations.

    q_j^old = n_j + g_j r (every global species contributes g_j even where
    its count in group j is zero) and q_j^new = g_j:

        (old, old) -> V'^r     q1old q2old
        (new, old) -> V'^{r+1} q1new q2old
        (old, new) -> V'^{r+1} q1old q2new
        (new, new) -> (V'^{r+1} + V'^{r+2}) q1new q2new

    with V' at (n1+1, n2+1), normalized by the cells' total.
    """
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    n1, n2, r = state.n1, state.n2, state.r
    q1_old, q2_old = n1 + g1 * r, n2 + g2 * r
    lv = {i: vc.log_v(n1 + 1, n2 + 1, r + i) for i in (0, 1, 2)}
    cells = {
        "old_old": lv[0] + math.log(q1_old * q2_old),
        "new_old": lv[1] + math.log(g1 * q2_old),
        "old_new": lv[1] + math.log(q1_old * g2),
        "new_new": log_add(lv[1], lv[2]) + math.log(g1 * g2),
    }
    log_total = log_sum_exp(cells.values())
    ratio = math.exp(log_total - vc.log_v(n1, n2, r))
    probs = {name: math.exp(lp - log_total) for name, lp in cells.items()}
    return PairProbs(normalizer_ratio=ratio, **probs)


def extrapolation_curves(vc: VCoefficients, state: ObservedState,
                         grid: Sequence[tuple[int, int]]) -> list[dict]:
    """Expected new species and shared-species coverage over a grid of
    future sample sizes; rows are emitted in grid order."""
    rows = []
    for m1, m2 in grid:
        exp = expected_new(vc, state, m1, m2)
        rows.append({
            "m1": m1,
            "m2": m2,
            "expected_new_global": exp.k,
            "expected_new_shared": exp.s,
            "coverage_prob": shared_coverage_prob(vc, state, m1, m2),
        })
    return rows
