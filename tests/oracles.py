"""Reference implementations kept as test oracles.

Each is a slower, independent route to a quantity the package computes
another way: non-central GFC values by the binomial convolution over a
central table, the coverage probability by a Python loop over every lattice
cell with one cached V lookup per cell, and the moment route of the expected
new-species counts by a loop over the posterior support.
"""

from __future__ import annotations

import math

from scipy.special import logsumexp

from vecfdp.gfc import central_table
from vecfdp.logmath import LOG_ZERO, DomainError, log_binomial, log_pochhammer, log_sum_exp
from vecfdp.prediction import ExpectedNew, ObservedState, posterior_m_pmf
from vecfdp.vcoef import VCoefficients


def _log_rising(rho: float, n: int) -> float:
    # (rho)_0 = 1 for every rho, including rho = 0; (0)_n = 0 for n >= 1.
    if n == 0:
        return 0.0
    if rho == 0.0:
        return LOG_ZERO
    return log_pochhammer(rho, n)


def log_noncentral_gfc(m: int, k: int, gamma: float, rho: float) -> float:
    """log |C(m, k; -gamma, -rho)| via the binomial convolution; rho >= 0.

    |C(m, k; -gamma, -rho)| = sum_{j=k..m} binom(m, j) (rho)_{m-j} |C(j, k; -gamma)|
    """
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")
    if k < 0 or k > m:
        raise DomainError(f"need 0 <= k <= m, got m={m}, k={k}")
    table = central_table(gamma, m)
    terms = [
        log_binomial(m, j) + _log_rising(rho, m - j) + table.log_central(j, k)
        for j in range(k, m + 1)
    ]
    return float(logsumexp(terms)) if terms else LOG_ZERO


def lattice_coverage_prob(vc: VCoefficients, state: ObservedState,
                          m1: int, m2: int, row1, row2) -> float:
    """P(S = 0) summed cell by cell over the (m1 + 1) x (m2 + 1) lattice,
    from the given non-central rows and per-cell ``vc.log_v`` lookups."""
    log_v_obs = vc.log_v(state.n1, state.n2, state.r)
    n1m, n2m = state.n1 + m1, state.n2 + m2
    terms = [
        vc.log_v(n1m, n2m, state.r + k1 + k2) + row1[k1] + row2[k2]
        for k1 in range(0, m1 + 1)
        for k2 in range(0, m2 + 1)
        if row1[k1] > LOG_ZERO and row2[k2] > LOG_ZERO
    ]
    return math.exp(log_sum_exp(terms) - log_v_obs)


def expected_new_moments_loop(vc: VCoefficients, state: ObservedState,
                              m1: int, m2: int) -> ExpectedNew:
    """The moment route of ``expected_new``, one posterior entry at a time."""
    pmf = posterior_m_pmf(vc, state)
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    e_k1 = e_k2 = e_k = 0.0
    for m_star, lp in pmf.entries.items():
        q = math.exp(lp)
        c1 = g1 * (state.r + m_star) + state.n1
        c2 = g2 * (state.r + m_star) + state.n2
        miss1 = math.exp(log_pochhammer(c1 - g1, m1) - log_pochhammer(c1, m1)) \
            if m1 > 0 else 1.0
        miss2 = math.exp(log_pochhammer(c2 - g2, m2) - log_pochhammer(c2, m2)) \
            if m2 > 0 else 1.0
        e_k1 += q * (state.r2_star + m_star) * (1.0 - miss1)
        e_k2 += q * (state.r1_star + m_star) * (1.0 - miss2)
        e_k += q * m_star * (1.0 - miss1 * miss2)
    return ExpectedNew(k1=e_k1, k2=e_k2, k=e_k, s=e_k1 + e_k2 - e_k)
