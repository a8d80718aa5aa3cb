"""Reference implementations kept as test oracles.

Each is a slower, independent route to a quantity the package computes
another way: non-central GFC values by the binomial convolution over a
central table, whole non-central rows by the recurrence run row by row
(the package runs it column by column, and the laws below read these
rows), the coverage probability by a Python loop over every
lattice cell with one cached V lookup per cell, the V-ratio run of one
future size with its own falling factorials and tilt, the extrapolation
curves by one call of the point laws per grid point, the moment route of the
expected new-species counts by a loop over the posterior support in scalar
arithmetic and by the same sum in mpmath arithmetic, and the in-sample
laws by scalar loops: the joint cell by cell, the global law by the double
sum over the missing-species counts and the (global, shared) law by the
sum over the group-exclusive count.  The joint predictive law of new
species runs cell by cell with a double loop per cell, and its global
marginal one k at a time.  The posterior of M* is also kept whole, with
no cut at either end (:class:`WholeWindowV` runs every law on it); the
central GFC table is filled row by row; the GFC recurrence is also run
by its former column kernel, which hands each column to an ``emit``
callback, with the row, many-size and table emitters that read it; and the
experiments' quartile rows
come from numpy calls one cell at a time.  The adaptive series kernel
:func:`log_series` sums any log-space series by the stopping rule of
``vcoef._v_rows``, from terms a callback supplies: on the V terms it
checks ``_v_rows`` bit for bit, it sums a V series from m = max(r, 1),
head included, and it sums the prior's window by that stopping rule.  The
start of the Poisson prior's window is also taken from scipy's Poisson
quantile.  The moment fit is also solved by regula falsi with the Illinois
rule.  The scalar log factorials and binomials these loops use, the
large-sample expansion of V, and the tests' data makers (a table written
as CSV, multinomial draws from a synthetic population, forward samples of
the model) live here too: nothing in the package calls them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
from scipy.special import gammaln, logsumexp, pdtr, pdtrik

from vecfdp.abundance import EXPECTED_HEADER, AbundanceTable, from_counts
from vecfdp.estimation import expected_cross_moment
from vecfdp.gfc import _BLOCK, build_central_table, log_noncentral_row
from vecfdp.logmath import (
    _DIRECT,
    _STIRLING,
    LOG_ZERO,
    ConvergenceError,
    DomainError,
    _stirling_gap,
    log_factorial as log_factorial_array,
    log_gamma,
    log_pochhammer,
    log_sum_exp,
)
from vecfdp.mprior import (
    OneShiftedPoisson,
    PointMass,
    PriorWindow,
    TabulatedPrior,
)
from vecfdp.pmftable import PmfTable
from vecfdp.prediction import (
    _LATTICE_BLOCK,
    ExpectedNew,
    ObservedState,
    _log_miss as log_miss_array,
    _log_sum_rows,
    _log_v_ratios,
    expected_new,
    shared_coverage_prob,
)
from vecfdp.simulate import SyntheticPopulation
from vecfdp.vcoef import _SHIFT_FLOOR, _TAIL_BLOCK, _TAIL_RUN, ModelParams, VCoefficients, log_v


def log_falling_factorial(m: float, r: int) -> float:
    """log of (m)_{r falling} = m (m-1) ... (m-r+1); -inf whenever r > m."""
    if r < 0:
        raise DomainError(f"log_falling_factorial requires r >= 0, got r={r}")
    if r == 0:
        return 0.0
    if m < r:
        return LOG_ZERO
    if isinstance(m, int) or float(m).is_integer():
        m = int(m)
        return log_factorial(m) - log_factorial(m - r)
    return float(gammaln(m + 1) - gammaln(m - r + 1))


_LOG_FACT = gammaln(np.arange(512, dtype=float) + 1.0)


def log_factorial(n: int) -> float:
    global _LOG_FACT
    if n >= _LOG_FACT.size:
        _LOG_FACT = gammaln(np.arange(max(2 * _LOG_FACT.size, n + 1),
                                      dtype=float) + 1.0)
    return float(_LOG_FACT[n])


def poisson_quantile_start(lam: float, eps: float) -> int:
    """1 + the eps-quantile of the Poisson(lam) count M - 1 of the
    1-shifted Poisson prior, from scipy's Poisson cdf and its inverse:
    the start before which the prior leaves less than eps."""
    k = max(math.ceil(pdtrik(eps, lam)) - 1, 0)
    if pdtr(k, lam) < eps:
        k += 1
    return 1 + k


def log_binomial(n: int, k: int) -> float:
    """log of the binomial coefficient; -inf outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return LOG_ZERO
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


def log_v_asymptotic(vc: VCoefficients, n1: int, n2: int, r: int) -> float:
    """Two-term large-sample expansion of log V^r_{n1,n2}.

    leading = r! q_M(r) / [(g1 r)_{n1} (g2 r)_{n2}]; the correction
    multiplies it by 1 + (r+1) (g1 r)_{g1} (g2 r)_{g2}
    n1^{-g1} n2^{-g2} q_M(r+1)/q_M(r).
    """
    if n1 < 1 or n2 < 1:
        raise DomainError("asymptotic form needs n1, n2 >= 1")
    lq_r, lq_r1 = vc.params.m_prior.log_pmf_array(np.array([r, r + 1], dtype=np.int64))
    if lq_r == LOG_ZERO:
        raise DomainError(f"prior mass at r={r} is zero")
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    leading = (log_falling_factorial(r, r) + lq_r
               - log_pochhammer(g1 * r, n1) - log_pochhammer(g2 * r, n2))
    if lq_r1 == LOG_ZERO:
        return leading
    log_corr = (math.log(r + 1.0) + lq_r1 - lq_r
                + log_pochhammer(g1 * r, g1) + log_pochhammer(g2 * r, g2)
                - g1 * math.log(n1) - g2 * math.log(n2))
    return leading + math.log1p(math.exp(log_corr))


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
    table = build_central_table(gamma, m)
    terms = [
        log_binomial(m, j) + _log_rising(rho, m - j) + table[j, k]
        for j in range(k, m + 1)
    ]
    return float(logsumexp(terms)) if terms else LOG_ZERO


def log_noncentral_row_stream(m: int, gamma: float, rho: float) -> np.ndarray:
    """log |C(m, k; -gamma, -rho)| for all k = 0..m, by the recurrence row
    by row: one row n at a time in a single buffer of m + 1 entries, a log
    and a logaddexp per step over the row prefix, O(m^2) time."""
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    row = np.full(m + 1, LOG_ZERO)
    row[0] = 0.0
    log_gamma = math.log(gamma)
    gamma_k = gamma * np.arange(m + 1, dtype=float)
    with np.errstate(divide="ignore"):
        for n in range(m):
            # row[n + 1] is still -inf, so both terms read safely
            scaled = np.log(gamma_k[: n + 2] + (rho + n)) + row[: n + 2]
            scaled[1:] = np.logaddexp(log_gamma + row[: n + 1], scaled[1:])
            row[: n + 2] = scaled
    return row


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


def uncapped_coverage_prob(vc: VCoefficients, state: ObservedState,
                           m1: int, m2: int) -> float:
    """The coverage lattice's sum before ``shared_coverage_prob`` caps it
    at one: every cell at once, from the same rows and V ratios."""
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    row1 = log_noncentral_row_stream(m1, g1, g1 * state.r1 + state.n1)
    row2 = log_noncentral_row_stream(m2, g2, g2 * state.r2 + state.n2)
    lr = _log_v_ratios(vc, state.n1, state.n2, state.r, m1, m2)
    k1, k2 = np.ogrid[:m1 + 1, :m2 + 1]
    return math.exp(log_sum_exp((row1[k1] + row2[k2] + lr[k1 + k2]).ravel()))


def log_v_ratios_by_point(vc: VCoefficients, n1: int, n2: int, r: int,
                          m1: int, m2: int) -> np.ndarray:
    """``prediction._log_v_ratios`` for one future size on its own: the
    tilt and log (M*)_{k fall} formed for this size alone, the (k, M*)
    matrix reduced on blocks of k."""
    post = vc.posterior(n1, n2, r)
    m_star, lw = post.window, post.log_w
    tilted = lw.copy()
    for g, n, m in ((vc.params.gamma1, n1, m1), (vc.params.gamma2, n2, m2)):
        if m:
            c = g * (r + m_star) + n
            tilted += log_miss_array(c, c - c[0], m) - math.fsum(np.log(c[0] + np.arange(m)))
    top = min(m1 + m2, int(m_star[-1]))
    out = np.full(m1 + m2 + 1, LOG_ZERO)
    step = max(1, _LATTICE_BLOCK // m_star.size)
    fall = np.zeros(m_star.size)
    with np.errstate(divide="ignore"):
        log_den = _log_sum_rows(lw)
        for lo in range(0, top + 1, step):
            k = np.arange(lo, min(lo + step, top + 1))[:, None]
            cells = np.log(np.maximum(m_star - k + 1.0, 0.0))
            if lo == 0:
                cells[0] = 0.0
            cells[0] += fall
            np.cumsum(cells, axis=0, out=cells)
            fall = cells[-1].copy()
            cells += tilted
            out[lo:lo + k.size] = _log_sum_rows(cells) - log_den
    return out


def extrapolation_curves_by_point(vc: VCoefficients, state: ObservedState,
                                  grid) -> list[dict]:
    """``prediction.extrapolation_curves`` by one call of the point laws
    per grid point."""
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


def _log_miss(c: float, g: float, m: int) -> float:
    """log [(c - g)_m / (c)_m] in scalar arithmetic, as
    ``prediction._log_miss`` takes it: log1p terms for the first
    ``_DIRECT`` factors, then the difference of two Stirling forms."""
    head = min(m, _DIRECT)
    out = 0.0
    for i in range(head):
        if g == c + i:
            return LOG_ZERO
        out += math.log1p(-g / (c + i))
    if m > head:
        x, a = c + head, m - head
        y = x - g
        gap = sum(cj * (((y + a) ** (1 - 2 * j) - y ** (1 - 2 * j))
                        - ((x + a) ** (1 - 2 * j) - x ** (1 - 2 * j)))
                  for j, cj in enumerate(_STIRLING, start=1))
        out += ((x - 0.5) * math.log1p(g * a / (y * (x + a))) - g * math.log1p(a / y)
                + a * math.log1p(-g / (x + a)) + gap)
    return out


def log_miss_by_factor(c: np.ndarray, g, m: int) -> np.ndarray:
    """``prediction._log_miss`` with its head factors added to the result
    one array at a time, in a Python loop."""
    head = min(m, _DIRECT)
    out = np.zeros(np.shape(c))
    with np.errstate(divide="ignore"):
        for i in range(head):
            out += np.log1p(-g / (c + i))
    if m > head:
        x, a = c + head, m - head
        y = x - g
        out += ((x - 0.5) * np.log1p(g * a / (y * (x + a))) - g * np.log1p(a / y)
                + a * np.log1p(-g / (x + a)) + _stirling_gap(y, a) - _stirling_gap(x, a))
    return out


def log_d_by_group(m: np.ndarray, prior, sizes) -> np.ndarray:
    """``vcoef._log_d`` with one log-gamma call per group."""
    d = log_factorial_array(m)
    d += prior.log_pmf_array(m)
    for g, n in sizes:
        lg = log_gamma(np.concatenate((g * m, g * m + n)))
        d += lg[:m.size]
        d -= lg[m.size:]
    return d


def expected_new_moments_loop(vc: VCoefficients, state: ObservedState,
                              m1: int, m2: int) -> ExpectedNew:
    """The moment route of ``expected_new``, one posterior entry at a time:
    the same weights (the terms of the V series, shifted by their peak and
    normalized in linear space) and the same appearance probabilities,
    -expm1 of a log miss probability."""
    _, ms, terms = log_v(state.n1, state.n2, state.r, vc.params,
                         tol=vc.tol, max_terms=vc.max_terms, series=True)
    peak = float(terms.max())
    weights = [(int(m) - state.r, math.exp(t - peak))
               for m, t in zip(ms.tolist(), terms.tolist())]
    total = math.fsum(w for _, w in weights)
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    e_k1 = e_k2 = e_k = 0.0
    for m_star, w in weights:
        if w == 0.0:
            continue
        q = w / total
        miss1 = _log_miss(g1 * (state.r + m_star) + state.n1, g1, m1)
        miss2 = _log_miss(g2 * (state.r + m_star) + state.n2, g2, m2)
        e_k1 += q * (state.r2_star + m_star) * -math.expm1(miss1)
        e_k2 += q * (state.r1_star + m_star) * -math.expm1(miss2)
        e_k += q * m_star * -math.expm1(miss1 + miss2)
    return ExpectedNew(k1=e_k1, k2=e_k2, k=e_k, s=e_k1 + e_k2 - e_k)


def expected_new_moments_mp(state: ObservedState, params, m1: int, m2: int,
                            dps: int = 30) -> ExpectedNew:
    """The moment sum of the expected new-species counts in ``dps``-digit
    arithmetic, for a one-shifted Poisson prior of rate lam.

    The posterior weight of m* unseen species is
    (m*+r)!/m*! q_M(m*+r) / prod_j (g_j (m*+r))_{n_j}, summed from m* = 0
    until 40 standard deviations of the prior past its mean.
    """
    with mpmath.workdps(dps):
        g1, g2 = mpmath.mpf(params.gamma1), mpmath.mpf(params.gamma2)
        lam = mpmath.mpf(params.m_prior.lam)
        top = int(params.m_prior.lam + 40.0 * math.sqrt(params.m_prior.lam) + 200)
        log_w, miss1, miss2 = [], [], []
        for m_star in range(top):
            m = m_star + state.r
            log_w.append(mpmath.loggamma(m + 1) - mpmath.loggamma(m_star + 1)
                         - lam + (m - 1) * mpmath.log(lam) - mpmath.loggamma(m)
                         - mpmath.log(mpmath.rf(g1 * m, state.n1))
                         - mpmath.log(mpmath.rf(g2 * m, state.n2)))
            c1, c2 = g1 * m + state.n1, g2 * m + state.n2
            miss1.append(mpmath.rf(c1 - g1, m1) / mpmath.rf(c1, m1))
            miss2.append(mpmath.rf(c2 - g2, m2) / mpmath.rf(c2, m2))
        peak = max(log_w)
        w = [mpmath.exp(x - peak) for x in log_w]
        total = mpmath.fsum(w)
        if w[-1] > total * mpmath.mpf(10) ** (-dps):
            raise DomainError("posterior mass left past the summed window")
        e_k1 = mpmath.fsum(wi * (state.r2_star + i) * (1 - a)
                           for i, (wi, a) in enumerate(zip(w, miss1))) / total
        e_k2 = mpmath.fsum(wi * (state.r1_star + i) * (1 - b)
                           for i, (wi, b) in enumerate(zip(w, miss2))) / total
        e_k = mpmath.fsum(wi * i * (1 - a * b)
                          for i, (wi, a, b) in enumerate(zip(w, miss1, miss2))) / total
        return ExpectedNew(k1=float(e_k1), k2=float(e_k2), k=float(e_k),
                           s=float(e_k1 + e_k2 - e_k))


def simpson_moment_mp(gamma, lam, dps: int = 30):
    """The Simpson moment (1 + gamma) E(1/(1 + gamma M)) under the
    one-shifted Poisson prior of rate lam, as an mpmath number in
    ``dps``-digit arithmetic.

    The pmf runs by its ratio q(m+1)/q(m) = lam/m over lam +- 15 standard
    deviations, widened by 100 (from m = 1 for a small rate); the mass
    outside is below 1e-40.
    """
    with mpmath.workdps(dps):
        g, rate = mpmath.mpf(gamma), mpmath.mpf(lam)
        spread = 15.0 * math.sqrt(lam) + 100
        lo, hi = max(1, int(lam - spread)), int(lam + spread)
        q = mpmath.exp(-rate + (lo - 1) * mpmath.log(rate) - mpmath.loggamma(lo))
        total = mpmath.mpf(0)
        for m in range(lo, hi + 1):
            total += q / (1 + g * m)
            q *= rate / m
        return (1 + g) * total


def log_series(log_term, start, guard, cap: int | None, *,
               tol: float, max_terms: int):
    """Sum exp(log_term(m)) over m = start, start + 1, ... in log space, for
    a batch of series at once.

    ``start`` and ``guard`` hold one entry per series (a row); an int is a
    batch of one.  ``log_term`` maps a 2-D int64 array of indices, one row
    per series, to their log terms (-inf for a zero term); it is evaluated
    on blocks of doubling size, at the same offsets from ``start`` in every
    row.  A row stops at the first m past its guard that ends a run of
    ``_TAIL_RUN`` terms, each at most ``tol`` times the row's partial sum up
    to and including it.  A finite ``cap`` (the last support point) is
    summed exactly instead.  A row that needs more than ``max_terms`` terms
    raises ``ConvergenceError``.

    Returns (log totals, counts, log terms): row i summed the first
    counts[i] columns of its log terms, at m = start[i], start[i] + 1, ...
    """
    start = np.asarray(start, dtype=np.int64).reshape(-1)
    guard = np.asarray(guard, dtype=np.int64).reshape(-1, 1)
    if cap is None:
        limit = np.full(start.size, max_terms)
    else:
        limit = np.clip(np.minimum(cap + 1 - start, max_terms), 0, None)
    stop = int(limit.max(initial=0))
    log_tol = math.log(tol)
    total = np.full(start.size, LOG_ZERO)  # every row's partial sum so far
    result, count = [LOG_ZERO] * start.size, limit.tolist()
    live = set(np.flatnonzero(limit).tolist())  # rows still summing
    blocks = []
    low_run = np.zeros((start.size, _TAIL_RUN), dtype=bool)  # flags of the last terms
    lo, tail = 0, _TAIL_BLOCK
    size = max(int((guard[:, 0] - start).max(initial=-1)) + 1, 0) + tail
    while lo < stop and live:
        off = np.arange(lo, min(lo + size, stop))
        m = start[:, None] + off
        term = log_term(m)
        if cap is not None:
            term = np.where(off < limit[:, None], term, LOG_ZERO)
        # partial sums in linear space below a per-row shift: their rounding
        # error is relative to the sum, not to the size of its log.  The
        # floor keeps the shift finite on a row whose terms are all zero.
        shift = np.maximum(total, np.maximum.reduce(term, axis=1, initial=_SHIFT_FLOOR))
        shift = shift[:, None]
        partial = term - shift  # one buffer, updated in place
        with np.errstate(divide="ignore"):
            np.exp(partial, out=partial)
            np.cumsum(partial, axis=1, out=partial)
            partial += np.exp(total[:, None] - shift)
            np.log(partial, out=partial)
        partial += shift
        if cap is None:
            low = (m > guard) & (partial > LOG_ZERO) & (term <= log_tol + partial)
            low = np.concatenate((low_run, low), axis=1)
            low_run = low[:, -_TAIL_RUN:]
            # ended[:, i]: the term at column i closes a run of _TAIL_RUN lows
            ended = low[:, _TAIL_RUN:].copy()
            for k in range(1, _TAIL_RUN):
                ended &= low[:, _TAIL_RUN - k:low.shape[1] - k]
            closed, last = ended.any(axis=1), ended.argmax(axis=1)
        else:
            closed, last = limit <= lo + off.size, limit - lo - 1
        for i in np.flatnonzero(closed).tolist():
            if i in live:
                live.discard(i)
                result[i] = float(partial[i, last[i]])
                count[i] = lo + int(last[i]) + 1
        total = partial[:, -1]
        blocks.append(term)
        lo += off.size
        size = tail = 2 * tail
    short = sorted(live) if cap is None else np.flatnonzero(start + limit <= cap).tolist()
    if short:
        raise ConvergenceError(
            f"series from m = {int(start[short[0]])} needs more than {max_terms} terms")
    terms = np.concatenate(blocks, axis=1) if blocks else np.zeros((start.size, 0))
    return np.array(result), np.array(count), terms


def prior_window_by_series(prior, *, tol: float = 1e-12,
                           max_terms: int = 10**6) -> PriorWindow:
    """The prior's window summed by :func:`log_series` from the prior's
    head, guarded by its mode and stopped by the kernel's adaptive rule
    (about tol * sqrt(lam) of the mass left past it at a Poisson rate lam),
    normalized by the log total."""
    start = prior.head(min(tol * 1e-3, 1e-15))
    log_total, count, log_q = log_series(prior.log_pmf_array, start, prior.mode(),
                                         prior.support_max, tol=tol, max_terms=max_terms)
    m = start + np.arange(count[0], dtype=np.int64)
    return PriorWindow(m, np.exp(log_q[0, :m.size] - log_total[0]))


#: relative rounding of a window sum, with room: the Illinois search
#: resolves no root more finely
ILLINOIS_ROUNDING = 16 * np.finfo(float).eps


def solve_increasing_illinois(f, lo: float, hi: float) -> float:
    """Root of the increasing f inside (lo, hi), where f(lo) < 0 < f(hi):
    regula falsi on log x, halving the f of an end kept twice in a row
    (Illinois), so both ends close in.  Raises ValueError when rounding put
    the root outside."""
    a, b, fa, fb = math.log(lo), math.log(hi), f(lo), f(hi)
    if not fa < 0.0 < fb:
        raise ValueError(f"no sign change on [{lo:.6g}, {hi:.6g}]")
    moved = 0  # -1 or 1 when the last step moved a or b
    while b - a > ILLINOIS_ROUNDING * (1.0 + abs(a) + abs(b)):
        x = a - fa * (b - a) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = f(math.exp(x))
        if fx == 0.0:
            return math.exp(x)
        if fx < 0.0:
            a, fa, fb, moved = x, fx, fb * (0.5 if moved < 0 else 1.0), -1
        else:
            b, fb, fa, moved = x, fx, fa * (0.5 if moved > 0 else 1.0), 1
    return math.exp(0.5 * (a + b))


def fit_lambda_illinois(cp: float, wrap=None) -> float:
    """fit_lambda's root by the Illinois search on its bracket
    [1 - cp, 2/cp]; ``wrap``, if given, wraps the moment function."""
    def moment(lam):
        return cp - expected_cross_moment(lam)

    return solve_increasing_illinois(wrap(moment) if wrap else moment, 1.0 - cp, 2.0 / cp)


def fit_gamma_illinois(ss: float, window: PriorWindow, wrap=None) -> float:
    """fit_gamma's root by the Illinois search on its bracket
    [(1-ss) / (2 E[M-1]), (1+rho)/(1-rho)], rho = (1-ss)/(1-E(1/M));
    ``wrap``, if given, wraps the moment function."""
    excess, top = 1.0 - ss, window.mean((window.m - 1.0) / window.m)
    rho = excess / top

    def moment(g):  # h(g) = g E[(M-1)/(1+g M)], less its target
        return g * window.mean((window.m - 1.0) / (1.0 + g * window.m)) - excess

    return solve_increasing_illinois(wrap(moment) if wrap else moment,
                                     0.5 * excess / window.mean(window.m - 1.0),
                                     (1.0 + rho) / (1.0 - rho))


def prior_joint_loop(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """P(r, r1, r2) = V^r_{n1,n2} r1! r2! / (r1*! r2*! t!)
    |C(n1, r1; -g1)| |C(n2, r2; -g2)|, one cell at a time."""
    if n1 < 1 or n2 < 1:
        raise DomainError("both groups need at least one observation")
    t1 = build_central_table(vc.params.gamma1, n1)
    t2 = build_central_table(vc.params.gamma2, n2)
    entries = {}
    for r1 in range(1, n1 + 1):
        lc1 = t1[n1, r1]
        for r2 in range(1, n2 + 1):
            lc2 = t2[n2, r2]
            base = lc1 + lc2 + log_factorial(r1) + log_factorial(r2)
            for r in range(max(r1, r2), r1 + r2 + 1):
                t = r1 + r2 - r
                entries[(r, r1, r2)] = (vc.log_v(n1, n2, r) + base
                                        - log_factorial(r - r2) - log_factorial(r - r1)
                                        - log_factorial(t))
    return PmfTable(entries)


def prior_marginal_global_loop(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """P(r) by the double sum over the missing-species counts z_j = r - r_j:

    P(r) = V^r_{n1,n2} sum_{z1, z2} (r-z1)! (r-z2)! / (z1! z2! (r-z1-z2)!)
           |C(n1, r-z1; -g1)| |C(n2, r-z2; -g2)|

    z1 runs up to r, so an empty group contributes |C(0, 0)| = 1.
    """
    if n1 + n2 < 1 or min(n1, n2) < 0:
        raise DomainError("need at least one observation overall")
    t1 = build_central_table(vc.params.gamma1, n1)
    t2 = build_central_table(vc.params.gamma2, n2)
    entries = {}
    for r in range(1, n1 + n2 + 1):
        terms = []
        for z1 in range(0, r + 1):
            if r - z1 > n1:
                continue
            lc1 = t1[n1, r - z1]
            for z2 in range(0, r - z1 + 1):
                if r - z2 > n2:
                    continue
                terms.append(log_factorial(r - z1) - log_factorial(z2)
                             - log_factorial(r - z1 - z2)
                             + log_factorial(r - z2) - log_factorial(z1)
                             + lc1 + t2[n2, r - z2])
        if terms:
            entries[r] = vc.log_v(n1, n2, r) + log_sum_exp(terms)
    return PmfTable(entries)


def prior_joint_global_shared_loop(vc: VCoefficients, n1: int, n2: int) -> PmfTable:
    """P(r, t) = V^r_{n1,n2} sum_{k1*=0}^{r-t} binom(r-k1*, t) (t+k1*)!/k1*!
    |C(n1, t+k1*; -g1)| |C(n2, r-k1*; -g2)|, one (r, t) at a time."""
    if n1 < 1 or n2 < 1:
        raise DomainError("both groups need at least one observation")
    t1 = build_central_table(vc.params.gamma1, n1)
    t2 = build_central_table(vc.params.gamma2, n2)
    entries = {}
    for r in range(1, n1 + n2 + 1):
        for t in range(0, min(r, n1, n2) + 1):
            terms = []
            for k1s in range(0, r - t + 1):
                r1 = t + k1s
                r2 = r - k1s
                if r1 > n1 or r2 > n2 or r2 < 1:
                    continue
                terms.append(log_binomial(r - k1s, t)
                             + log_factorial(r1) - log_factorial(k1s)
                             + t1[n1, r1] + t2[n2, r2])
            if terms:
                entries[(r, t)] = vc.log_v(n1, n2, r) + log_sum_exp(terms)
    return PmfTable(entries)


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


def posterior_joint_new_loop(vc: VCoefficients, state: ObservedState,
                             m1: int, m2: int) -> PmfTable:
    """``posterior_joint_new`` one (k1, k2, k) cell at a time, each cell's
    inner sum by the double loop over (s*, k1*)."""
    if m1 < 0 or m2 < 0:
        raise DomainError("future sample sizes must be >= 0")
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    row1 = log_noncentral_row_stream(m1, g1, g1 * state.r1 + state.n1)
    row2 = log_noncentral_row_stream(m2, g2, g2 * state.r2 + state.n2)
    lr = _log_v_ratios(vc, state.n1, state.n2, state.r, m1, m2)
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
                entries[(k, k1, k2)] = lr[k] + base + inner
    return PmfTable(entries)


def posterior_marginal_global_new_loop(vc: VCoefficients, state: ObservedState,
                                       m1: int, m2: int) -> PmfTable:
    """``posterior_marginal_global_new`` one k at a time, each on its own
    numpy grid over (k1*, k2*):

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
    row1 = log_noncentral_row_stream(m1, g1, g1 * state.r + state.n1)
    row2 = log_noncentral_row_stream(m2, g2, g2 * state.r + state.n2)
    lr = _log_v_ratios(vc, state.n1, state.n2, state.r, m1, m2)
    lf = gammaln(np.arange(m1 + m2 + 2, dtype=float))  # lf[i] = log (i-1)!
    entries = {}
    for k in np.flatnonzero(lr > LOG_ZERO).tolist():
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
            entries[k] = lr[k] + lse
    return PmfTable(entries)


def v_series_from_head(n1: int, n2: int, r: int, params, *, tol: float = 1e-12,
                       max_terms: int = 10**6):
    """The series of V^r_{n1,n2} summed from m = max(r, 1), head and all, by
    the adaptive series kernel on scipy log-gamma terms: (log total, m,
    log terms).  The package starts a large-rate series later, where a
    bound shows the head negligible."""
    prior, first = params.m_prior, max(r, 1)

    def log_term(m):
        out = gammaln(m + 1.0) - gammaln(m - r + 1.0) + prior.log_pmf_array(m)
        for g, n in ((params.gamma1, n1), (params.gamma2, n2)):
            out -= gammaln(g * m + n) - gammaln(g * m)
        return out

    total, count, terms = log_series(log_term, first, prior.mode() + r, prior.support_max,
                                     tol=tol, max_terms=max_terms)
    n = int(count[0])
    return float(total[0]), first + np.arange(n), terms[0, :n]


class WholeWindowV(VCoefficients):
    """V coefficients whose posterior window is the whole series: every law
    run on one reads every nonzero term, none cut away."""

    def posterior(self, n1: int, n2: int, r: int):
        post = super().posterior(n1, n2, r)
        _, m, terms = log_v(n1, n2, r, self.params, tol=self.tol,
                            max_terms=self.max_terms, series=True)
        keep = terms > LOG_ZERO
        log_w = terms[keep] - terms.max()
        q = np.exp(log_w)
        return post._replace(window=(m[keep] - r).astype(float), log_w=log_w, q=q / q.sum())


def central_table_by_rows(gamma: float, max_n: int) -> np.ndarray:
    """The central GFC table filled one row n at a time from
    ``log_noncentral_row(n, gamma, 0.0)``."""
    table = np.full((max_n + 1, max_n + 1), LOG_ZERO)
    for n in range(max_n + 1):
        table[n, : n + 1] = log_noncentral_row(n, gamma, 0.0)
    return table


def log_columns_by_emit(m: int, gamma: float, rho: float, top: int, emit) -> None:
    """Solve the recurrence column by column for k = 0..top and hand each
    column to ``emit(k, col)``, col[i] = log d(k + i, k) for n = k..m.

    With gamma^k factored out, d(n, k) = |C(n, k)| / gamma^k satisfies
    d(n+1, k) = d(n, k-1) + a_n d(n, k), a_n = gamma k + rho + n, from
    d(k, k) = 1.  So column k is a weighted prefix sum of column k - 1:

        log d(n, k) = P_k(n) + LSE_{i=k-1..n-1} ( log d(i, k-1) - P_k(i+1) ),
        P_k(n) = sum_{j=k..n-1} log a_j,

    one ``logaddexp.accumulate`` over n = k..m, starting from column 0,
    log (rho)_n.  The sums P_k are formed for blocks of columns at once,
    about ``_BLOCK`` cells each.  Every step is a prefix scan, so a column's
    entries up to n do not depend on m.  Memory is O(m) beyond what
    ``emit`` keeps.
    """
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")
    j = np.arange(m, dtype=float)
    col = np.zeros(m + 1)
    step = max(1, _BLOCK // max(m, 1))
    with np.errstate(divide="ignore"):
        np.add.accumulate(np.log(j + rho), out=col[1:])
        emit(0, col)
        for lo in range(1, top + 1, step):
            k = np.arange(lo, min(lo + step, top + 1))
            # log_p[i, n - k_i] = P_{k_i}(n): the factors with j < k_i are zeroed
            log_p = j[lo - 1:] + (gamma * k + rho)[:, None]
            np.log(log_p, out=log_p)
            log_p[j[lo - 1:] < k[:, None]] = 0.0
            np.add.accumulate(log_p, axis=1, out=log_p)
            for i in range(k.size):
                p = log_p[i, i:]
                col = col[:-1] - p
                np.logaddexp.accumulate(col, out=col)
                col += p
                emit(lo + i, col)


def log_noncentral_row_by_emit(m: int, gamma: float, rho: float,
                               kmax: int | None = None) -> np.ndarray:
    """log |C(m, k; -gamma, -rho)| for k = 0..top, top = min(m, kmax); rho >= 0.

    Entry k is the last entry, n = m, of column k of
    :func:`log_columns_by_emit`, times gamma^k.  Columns past ``kmax`` are
    never formed: the row's first top + 1 entries are those of the full
    row, in O(m top) time and O(m) memory.  With rho = 0 this is the
    central row: |C(m, 0)| = 0 for m >= 1.  This is
    :func:`log_noncentral_rows_by_emit` at one m.
    """
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    top = m if kmax is None else min(m, kmax)
    if top < 0:
        raise DomainError(f"kmax must be >= 0, got {kmax}")
    row = np.empty(top + 1)

    def emit(k, col):
        row[k] = col[-1]

    log_columns_by_emit(m, gamma, rho, top, emit)
    row[1:] += np.arange(1, top + 1) * math.log(gamma)
    return row


def log_noncentral_rows_by_emit(ms, gamma: float, rho: float, kmax: int) -> np.ndarray:
    """log |C(m, k; -gamma, -rho)| for k = 0..min(m, kmax), for each m of the
    ascending sizes ``ms``, from one pass of :func:`log_columns_by_emit` up
    to the largest: a (len(ms), top + 1) array, top = min(max(ms), kmax),
    whose row i is -inf past min(ms[i], kmax).  One m is
    :func:`log_noncentral_row_by_emit`.

    Column k's entry at n = m sits max(ms) - m from the column's end for
    every k, so each column hands over one gather.  Every column step is a
    prefix scan, so each row is bit-identical to
    ``log_noncentral_row_by_emit(m, gamma, rho, kmax)``.
    """
    if len(ms) == 1:
        return log_noncentral_row_by_emit(ms[0], gamma, rho, kmax)[None]
    ms = np.asarray(ms, dtype=np.intp)
    if ms.size == 0 or ms[0] < 0:
        raise DomainError(f"need sizes m >= 0, got {ms.tolist()}")
    if kmax < 0:
        raise DomainError(f"kmax must be >= 0, got {kmax}")
    last = int(ms[-1])
    top = min(last, kmax)
    rows = np.full((ms.size, top + 1), LOG_ZERO)
    back = ms - (last + 1)  # col[back[i]] is column k's entry at n = ms[i]
    first = np.searchsorted(ms, np.arange(top + 1)).tolist()  # rows with m >= k

    def emit(k, col):
        rows[first[k]:, k] = col[back[first[k]:]]

    log_columns_by_emit(last, gamma, rho, top, emit)
    rows[:, 1:] += np.arange(1, top + 1) * math.log(gamma)
    return rows


def central_table_by_emit(gamma: float, max_n: int) -> np.ndarray:
    """Table of log |C(n, k; -gamma)|, indexed [n, k] for 0 <= n, k <= max_n;
    -inf above the diagonal and at k = 0 < n.

    One pass of :func:`log_columns_by_emit` for row max_n fills it: column k
    holds the entries at every n = k..max_n, so the table costs O(max_n^2), and
    row n equals ``log_noncentral_row_by_emit(n, gamma, 0.0)`` bit for bit.
    """
    if max_n < 0:
        raise DomainError(f"max_n must be >= 0, got {max_n}")
    table = np.full((max_n + 1, max_n + 1), LOG_ZERO)

    def emit(k, col):
        table[k:, k] = col

    log_columns_by_emit(max_n, gamma, 0.0, max_n, emit)
    table[:, 1:] += np.arange(1, max_n + 1) * math.log(gamma)
    return table


def quartile_rows_loop(scenario: str, n: int, estimates: dict[str, list[float]]):
    """Experiment 1's rows at one n, three numpy calls per method."""
    rows = []
    for method, values in estimates.items():
        arr = np.asarray(values, dtype=float)
        rows.append({
            "scenario": scenario, "n": n, "method": method,
            "median": float(np.median(arr)),
            "q1": float(np.quantile(arr, 0.25)),
            "q3": float(np.quantile(arr, 0.75)),
        })
    return rows


def split_rows_loop(scenario: str, per_split: dict[float, dict[str, list[float]]]):
    """Experiment 2's rows, five numpy calls per split."""
    rows = []
    for pct, data in per_split.items():
        pred_arr = np.asarray(data["predicted"])
        true_arr = np.asarray(data["true"])
        err_arr = np.asarray(data["error"])
        rows.append({
            "scenario": scenario, "split": pct,
            "predicted_median": float(np.median(pred_arr)),
            "predicted_q1": float(np.quantile(pred_arr, 0.25)),
            "predicted_q3": float(np.quantile(pred_arr, 0.75)),
            "true_median": float(np.median(true_arr)),
            "error_median": float(np.median(err_arr)),
        })
    return rows


def write_csv(table: AbundanceTable, path) -> None:
    """Write a table in the format :func:`vecfdp.abundance.ingest` reads."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(EXPECTED_HEADER)
        for label, c1, c2 in zip(table.labels, table.counts1, table.counts2):
            writer.writerow([label, int(c1), int(c2)])


@dataclass(frozen=True)
class SampleDraw:
    """Raw per-species sample counts aligned with the population arrays."""

    counts1: np.ndarray
    counts2: np.ndarray

    def table(self) -> AbundanceTable:
        m = self.counts1.size
        labels = [f"sp{i:04d}" for i in range(m)]
        return from_counts(labels, self.counts1, self.counts2, drop_empty=True)


def draw_sample(population: SyntheticPopulation, n1: int, n2: int,
                seed: int) -> SampleDraw:
    """Multinomial samples of sizes (n1, n2) from the two populations."""
    rng = np.random.default_rng(seed)
    c1 = rng.multinomial(n1, population.p1) if n1 > 0 else np.zeros(
        population.m_true, dtype=np.int64)
    c2 = rng.multinomial(n2, population.p2) if n2 > 0 else np.zeros(
        population.m_true, dtype=np.int64)
    return SampleDraw(counts1=c1.astype(np.int64), counts2=c2.astype(np.int64))


def _draw_species_count(prior, rng) -> int:
    if isinstance(prior, OneShiftedPoisson):
        return 1 + int(rng.poisson(prior.lam))
    if isinstance(prior, PointMass):
        return prior.m0
    if isinstance(prior, TabulatedPrior):
        return 1 + int(rng.choice(prior.probs.size, p=prior.probs))
    raise DomainError(f"cannot sample from prior of type {type(prior).__name__}")


def generative_vecfdp_sample(params: ModelParams, n1: int, n2: int,
                             seed: int) -> AbundanceTable:
    """Forward sample: species count from its prior, one symmetric-Dirichlet
    weight vector per group over the shared species, then multinomial
    counts.  Species identity is the shared atom index."""
    rng = np.random.default_rng(seed)
    m = _draw_species_count(params.m_prior, rng)
    w1 = rng.dirichlet(np.full(m, params.gamma1))
    w2 = rng.dirichlet(np.full(m, params.gamma2))
    c1 = rng.multinomial(n1, w1) if n1 > 0 else np.zeros(m, dtype=np.int64)
    c2 = rng.multinomial(n2, w2) if n2 > 0 else np.zeros(m, dtype=np.int64)
    labels = [f"sp{i:04d}" for i in range(m)]
    return from_counts(labels, c1, c2, drop_empty=True)
