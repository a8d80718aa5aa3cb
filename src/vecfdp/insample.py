"""Exact prior-predictive distributions of distinct and shared species
counts for a two-group sample, plus the correlation between the two random
probability measures.

Notation for a sample of sizes (n1, n2): r_j local distinct species in
group j, r global distinct species, t = r1 + r2 - r shared species, and
r1* = r - r2, r2* = r - r1 group-exclusive species.

The joint law P(r, r1, r2) is evaluated as one numpy lattice over the cells
(r1, r2, t) (:func:`lattice`), from one batched run of V coefficients, the
central GFC rows and one log-factorial array.  The lattice is cut at
r <= K = min(n1 + n2, prior.tail(eps)), with the eps of the prior's window
(:func:`vecfdp.mprior.window_eps`): the global count never exceeds the
pool, R <= M, so the cells past K carry at most eps of the mass.  They are
never formed: the central rows stop at column K and V at r = K, so a
sample of any size costs O(K^3) cells at most (:func:`lattice_cells`
counts them beforehand).  Every in-sample law reads this one lattice: the
joint keeps its cells; the global, (global, shared) and shared laws sum
them by key with ``log_sum_exp_by``; the single-group law is cut at the
same K.  :func:`summarize` reduces the lattice in one linear pass for a
report: the means, the global and shared laws, and the joint's most
probable cells.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .gfc import log_noncentral_row
from .logmath import LOG_ZERO, DomainError, log_factorial, log_sum_exp_by
from .mprior import prior_window, window_eps
from .pmftable import PmfTable, top_indices
from .vcoef import ModelParams, VCoefficients


class Lattice(NamedTuple):
    """The cells of the joint law with r <= k, ordered by r1, then r2, then
    ascending r: their counts (int32 arrays) and log masses."""

    r: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    t: np.ndarray
    log_p: np.ndarray
    k: int

    @property
    def t_max(self) -> int:
        """The largest shared count, min(r1, r2) of the last cell."""
        return int(min(self.r1[-1], self.r2[-1]))


def lattice_cut(vc: VCoefficients, n: int) -> int:
    """K, the largest global count the laws of n observations keep:
    min(n, prior.tail(eps)) at the evaluator's tolerance.  P(R > K) <= P(M > K)
    <= eps; a finite-support prior ends at its last support point."""
    return min(n, vc.params.m_prior.tail(window_eps(vc.tol)))


def lattice_cells(n1: int, n2: int, k: int) -> int:
    """Cells of the lattice of (n1, n2) cut at k, counted without forming
    it: each r1 <= min(n1, k) and r2 <= b = min(n2, k) hold the cells
    r = max(r1, r2)..min(r1 + r2, k), summed over r2 in closed form."""
    b = min(n2, k)
    r1 = np.arange(1, min(n1, k) + 1)
    sum_low = np.minimum(k - r1, b)  # r2 with r1 + r2 <= k
    below = np.minimum(r1, b)  # r2 <= r1
    tops = sum_low * r1 + sum_low * (sum_low + 1) // 2 + (b - sum_low) * k
    bottoms = below * r1 + (b * (b + 1) - below * (below + 1)) // 2
    return int(np.add.reduce(tops - bottoms + b))


def lattice(vc: VCoefficients, n1: int, n2: int) -> Lattice:
    """The cells of P(r, r1, r2) with r <= K = :func:`lattice_cut`:

    P(r, r1, r2) = V^r_{n1,n2} * r1! r2! / (r1*! r2*! t!)
                   * |C(n1, r1; -g1)| |C(n2, r2; -g2)|

    over 1 <= r_j <= min(r, n_j), max(r1, r2) <= r <= min(r1 + r2, K).  V
    for r = 1..K is one ``log_v_many`` batch and the central rows stop at
    column K; a kept cell is the cell of the whole lattice.
    """
    if n1 < 1 or n2 < 1:
        raise DomainError("both groups need at least one observation")
    k = lattice_cut(vc, n1 + n2)
    a, b = min(n1, k), min(n2, k)
    # int32 counts halve the memory of the four count arrays
    r1 = np.repeat(np.arange(1, a + 1, dtype=np.int32), b)
    r2 = np.tile(np.arange(1, b + 1, dtype=np.int32), a)
    low = np.maximum(r1, r2)
    count = np.minimum(r1 + r2, k) - low + 1
    # r runs up from max(r1, r2) in each (r1, r2) run of cells
    r = np.arange(count.sum(), dtype=np.int32)
    r += np.repeat(low + count - np.cumsum(count, dtype=np.int32), count)
    r1, r2 = np.repeat(r1, count), np.repeat(r2, count)
    t = r1 + r2
    t -= r
    lf = log_factorial(np.arange(max(a, b) + 1))  # lf[i] = log i!
    lc1 = log_noncentral_row(n1, vc.params.gamma1, 0.0, kmax=k) + lf[: a + 1]
    lc2 = log_noncentral_row(n2, vc.params.gamma2, 0.0, kmax=k) + lf[: b + 1]
    lv = np.concatenate(([LOG_ZERO], vc.log_v_many(n1, n2, np.arange(1, k + 1))))
    # log of V^r lc1 lc2 / (r2*! r1*! t!), the terms added in this order at
    # any cut, so a kept cell rounds as the whole lattice's does
    log_p = lv[r]
    log_p += lc1[r1]
    log_p += lc2[r2]
    log_p -= lf[r - r2]
    log_p -= lf[r - r1]
    log_p -= lf[t]
    return Lattice(r, r1, r2, t, log_p, k)


def _global(lat: Lattice, linear=None) -> PmfTable:
    """The law of r = 1..K: the lattice summed by r."""
    # key 0 holds no cell: its -inf entry is dropped
    return PmfTable.from_arrays(np.arange(lat.k + 1),
                                log_sum_exp_by(lat.r, lat.log_p, lat.k + 1, linear))


def _shared(lat: Lattice, linear=None) -> PmfTable:
    """The law of t = 0..min(r1, r2): the lattice summed by t."""
    width = lat.t_max + 1
    return PmfTable.from_arrays(np.arange(width),
                                log_sum_exp_by(lat.t, lat.log_p, width, linear))


def prior_joint(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """Joint pmf of (global r, local r1, local r2) on the cut lattice
    (:func:`lattice`), keyed (r, r1, r2) in the lattice's order."""
    lat = lattice(vc, n1, n2)
    return PmfTable.from_arrays(np.stack([lat.r, lat.r1, lat.r2], axis=1), lat.log_p)


def prior_marginal_global(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """Pmf of the global number of distinct species r in (n1, n2) samples,
    r = 1..K: the r-marginal of the joint.  With one group empty the law is
    the single-group law V^r_n |C(n, r)|.
    """
    if n1 + n2 < 1 or min(n1, n2) < 0:
        raise DomainError("need at least one observation overall")
    if min(n1, n2) == 0:
        return prior_local(vc, n1 + n2, 1 if n2 == 0 else 2)
    return _global(lattice(vc, n1, n2))


def prior_joint_global_shared(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """Joint pmf of (global distinct r, shared t), keyed in ascending (r, t),
    r <= K: the joint law summed along t = r1 + r2 - r.

    P(r, t) = V^r_{n1,n2} sum_{k1*=0}^{r-t} binom(r-k1*, t) (t+k1*)!/k1*!
              |C(n1, t+k1*; -g1)| |C(n2, r-k1*; -g2)|
    """
    lat = lattice(vc, n1, n2)
    width = lat.t_max + 1
    size = lat.k * width
    r_key, t_key = np.divmod(np.arange(size), width)
    return PmfTable.from_arrays(
        np.stack([r_key + 1, t_key], axis=1),
        log_sum_exp_by((lat.r - 1) * width + lat.t, lat.log_p, size))


def prior_marginal_shared(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """Pmf of the number of shared species t, including t = 0, from the
    cells with r <= K: each entry is at most eps below the uncut law's."""
    return _shared(lattice(vc, n1, n2))


def prior_local(vc: VCoefficients, n: int, group: int = 1) -> PmfTable:
    """Single-group pmf of the local number of distinct species.

    P(K = r) = V^r_n |C(n, r; -gamma_j)| with the single-group V, for
    r = 1..min(n, K) (see :func:`lattice_cut`).
    """
    if n < 1:
        raise DomainError("need at least one observation")
    gamma = vc.params.gamma(group)
    k = lattice_cut(vc, n)
    rs = np.arange(1, k + 1)
    lv = vc.log_v_many(n, 0, rs) if group == 1 else vc.log_v_many(0, n, rs)
    return PmfTable.from_arrays(rs, lv + log_noncentral_row(n, gamma, 0.0, kmax=k)[1:])


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


class Summary(NamedTuple):
    """The in-sample laws of one (n1, n2) from :func:`summarize`."""

    #: (E[K1], E[K2], E[K], E[S])
    expected: tuple
    #: total mass of the joint law
    joint_mass: float
    #: the joint's most probable cells as ((r, r1, r2), prob), most probable first
    joint_top: list
    global_law: PmfTable
    shared_law: PmfTable


def summarize(vc: VCoefficients, n1: int, n2: int, top: int = 20) -> Summary:
    """The lattice of (n1, n2) reduced in one linear pass: one exp below its
    peak; the means as dot products; the global and shared laws by
    ``np.bincount`` on those weights; the ``top`` most probable cells by
    one partition of the log masses."""
    lat = lattice(vc, n1, n2)
    peak = float(lat.log_p.max())
    linear = np.exp(lat.log_p - peak)
    scale = math.exp(peak)
    e_k, e_k1, e_k2 = (float(np.add.reduce(x * linear)) * scale
                       for x in (lat.r, lat.r1, lat.r2))
    ranked = top_indices(lat.log_p, top)
    cells = zip(lat.r[ranked].tolist(), lat.r1[ranked].tolist(), lat.r2[ranked].tolist(),
                lat.log_p[ranked].tolist())
    return Summary((e_k1, e_k2, e_k, e_k1 + e_k2 - e_k),
                   float(np.add.reduce(linear)) * scale,
                   [((r, r1, r2), math.exp(lp)) for r, r1, r2, lp in cells if lp > LOG_ZERO],
                   _global(lat, linear), _shared(lat, linear))


def expected_in_sample(vc: VCoefficients, n1: int, n2: int):
    """(E[K1], E[K2], E[K], E[S]) from the joint distribution."""
    return summarize(vc, n1, n2).expected
