"""Exact prior-predictive distributions of distinct and shared species
counts for a two-group sample, plus the correlation between the two random
probability measures.

Notation for a sample of sizes (n1, n2): r_j local distinct species in
group j, r global distinct species, t = r1 + r2 - r shared species, and
r1* = r - r2, r2* = r - r1 group-exclusive species.

The joint law P(r, r1, r2) is evaluated as one numpy lattice over the cells
(r1, r2, t), from one batched run of V coefficients, the central GFC rows
and one log-factorial array.  The global, (global, shared) and shared laws
are reductions of that joint: its r-marginal, and scatter log-sum-exp sums
along t.  A caller that needs several laws builds the joint once and reduces
it with ``PmfTable.marginal``, ``PmfTable.mean`` and
``pmftable.shared_marginal``.
"""

from __future__ import annotations

import math

import numpy as np

from .gfc import log_noncentral_row
from .logmath import DomainError, log_factorial, log_sum_exp_by
from .mprior import prior_window
from .pmftable import PmfTable, shared_marginal
from .vcoef import ModelParams, VCoefficients


def prior_joint(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """Joint pmf of (global r, local r1, local r2).

    P(r, r1, r2) = V^r_{n1,n2} * r1! r2! / (r1*! r2*! t!)
                   * |C(n1, r1; -g1)| |C(n2, r2; -g2)|

    over the support 1 <= r_j <= min(r, n_j), max(r1, r2) <= r <= r1 + r2.
    Evaluated at once on the lattice of cells (r1, r2, t), t = r1 + r2 - r,
    0 <= t <= min(r1, r2), from one batch of V coefficients; entries are
    ordered by r1, then r2, then ascending r.
    """
    if n1 < 1 or n2 < 1:
        raise DomainError("both groups need at least one observation")
    r1 = np.repeat(np.arange(1, n1 + 1), n2)
    r2 = np.tile(np.arange(1, n2 + 1), n1)
    top = np.minimum(r1, r2)
    count = top + 1
    # t runs from top down to 0 in each (r1, r2) run of cells
    t = np.repeat(top + np.cumsum(count) - count, count) - np.arange(count.sum())
    r1, r2 = np.repeat(r1, count), np.repeat(r2, count)
    r = r1 + r2 - t
    lf = log_factorial(np.arange(max(n1, n2) + 1))  # lf[i] = log i!
    lc1 = log_noncentral_row(n1, vc.params.gamma1, 0.0) + lf[: n1 + 1]
    lc2 = log_noncentral_row(n2, vc.params.gamma2, 0.0) + lf[: n2 + 1]
    lv = vc.log_v_many(n1, n2, np.arange(1, n1 + n2 + 1))
    log_p = lv[r - 1] + lc1[r1] + lc2[r2] - lf[r1 - t] - lf[r2 - t] - lf[t]
    return PmfTable.from_arrays(np.stack([r, r1, r2], axis=1), log_p)


def prior_marginal_global(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """Pmf of the global number of distinct species r in (n1, n2) samples:
    the r-marginal of the joint.  With one group empty the law is the
    single-group law V^r_n |C(n, r)|.
    """
    if n1 + n2 < 1 or min(n1, n2) < 0:
        raise DomainError("need at least one observation overall")
    if min(n1, n2) == 0:
        return prior_local(vc, n1 + n2, 1 if n2 == 0 else 2)
    return prior_joint(vc, n1, n2).marginal(0)


def prior_joint_global_shared(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """Joint pmf of (global distinct r, shared t), keyed in ascending (r, t):
    the joint law summed along t = r1 + r2 - r.

    P(r, t) = V^r_{n1,n2} sum_{k1*=0}^{r-t} binom(r-k1*, t) (t+k1*)!/k1*!
              |C(n1, t+k1*; -g1)| |C(n2, r-k1*; -g2)|
    """
    joint = prior_joint(vc, n1, n2)
    r, r1, r2 = joint.keys.T
    width = min(n1, n2) + 1
    size = (n1 + n2) * width
    r_key, t_key = np.divmod(np.arange(size), width)
    return PmfTable.from_arrays(
        np.stack([r_key + 1, t_key], axis=1),
        log_sum_exp_by((r - 1) * width + r1 + r2 - r, joint.log_mass, size))


def prior_marginal_shared(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """Pmf of the number of shared species t, including t = 0."""
    return shared_marginal(prior_joint(vc, n1, n2))


def prior_local(vc: VCoefficients, n: int, group: int = 1) -> PmfTable:
    """Single-group pmf of the local number of distinct species.

    P(K = r) = V^r_n |C(n, r; -gamma_j)| with the single-group V.
    """
    if n < 1:
        raise DomainError("need at least one observation")
    gamma = vc.params.gamma(group)
    rs = np.arange(1, n + 1)
    lv = vc.log_v_many(n, 0, rs) if group == 1 else vc.log_v_many(0, n, rs)
    return PmfTable.from_arrays(rs, lv + log_noncentral_row(n, gamma, 0.0)[1:])


def correlation(params: ModelParams, *, tol: float = 1e-12,
                max_terms: int = 10**6) -> float:
    """Correlation between the two random measures on any fixed set.

    cor = E(1/M) / { sqrt((1+g1)(1+g2)) *
                     sqrt(E(1/(1+g1 M)) E(1/(1+g2 M))) }

    Tends to E(1/M) as the concentrations vanish and to 1 as they diverge.
    """
    window = prior_window(params.m_prior, tol=tol, max_terms=max_terms)
    g1, g2, m = params.gamma1, params.gamma2, window.m
    e1, e2 = (window.mean(1.0 / (1.0 + g * m)) for g in (g1, g2))
    return window.mean(1.0 / m) / math.sqrt((1.0 + g1) * (1.0 + g2) * e1 * e2)


def expected_in_sample(vc: VCoefficients, n1: int, n2: int):
    """(E[K1], E[K2], E[K], E[S]) from the joint distribution."""
    joint = prior_joint(vc, n1, n2)
    e_k = joint.mean(0)
    e_k1 = joint.mean(1)
    e_k2 = joint.mean(2)
    return e_k1, e_k2, e_k, e_k1 + e_k2 - e_k
