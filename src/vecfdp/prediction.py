"""Out-of-sample prediction: posterior of the unseen species count, joint
and marginal laws of new distinct/shared species in a future sample of
sizes (m1, m2), discovery and coverage probabilities, and extrapolation
curves.

All distributions condition on an observed state (n1, n2, r1, r2, r) and
feed on two ingredients: V-coefficient ratios and non-central generalized
factorial coefficients |C(m, k; -gamma_j, -(gamma_j r_j + n_j))|.  Every
ratio V^{r+k}_{n1+m1,n2+m2} / V^r_{n1,n2} is an expectation over the
posterior of the unseen species count M*, from one helper,
:func:`_log_ratio_runs`: no law subtracts two logs of V, which reach 10^7 at
sample sizes of 10^6.  The evaluator forms the posterior once per key
(:meth:`VCoefficients.posterior`) and keeps its last run of ratios, so
laws called in turn on one future size share that size's ratios.
The posterior is read on a window: the V series cut at both ends to all
but tol of its mass, which moves a probability by at most tol.  The ratios
vanish past the window's largest M*, K (4 on the ants table at its fitted
parameters), so each law asks for its rows only up to the k it reads, and
a row costs O(m K) time, not O(m^2).

The expected counts and the coverage are laws of a grid of future sizes:
each piece depends on part of a point only, so it is formed once per
distinct m1 or m2 (the probabilities of missing a species, the ratios'
tilts, one pass of GFC rows per group) or once per grid (the falling
factorials of M*), and a point combines them.  :func:`expected_new` and
:func:`shared_coverage_prob` are the one-point grids; a curve is one pass.

The joint law of new species (k, k1, k2) and its global marginal k are one
log-space contraction, :func:`_log_new_species`:

    out[k, i, j] = lr[k] + LSE_{a,b} ( x1[i, a] + x2[j, b]
                                       - log (k-a)! - log (k-b)! - log (a+b-k)! )

where lr[k] is the V ratio at r + k, and a and b count the brand-new
species that reach group 1's and group 2's future (a + b - k reach both).
The two laws differ only in their rows x1 and x2.  The coverage lattice is
summed on numpy blocks; the expected counts sum appearance probabilities
over the posterior as arrays, at any future size.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .gfc import log_noncentral_row, log_noncentral_rows
from .logmath import _DIRECT, LOG_ZERO, DomainError, _stirling_gap, log_factorial, log_sum_exp
from .pmftable import PmfTable, shared_marginal
from .vcoef import VCoefficients

#: cells per block of the coverage corners and of the (points, k, M*) ratio cubes
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


def posterior_m_pmf(vc: VCoefficients, state: ObservedState) -> PmfTable:
    """Posterior pmf of the number of species never observed so far.

    q*(m*) = (m*+r)_{r fall} q_M(m*+r) / [ V^r_{n1,n2}
             prod_j (gamma_j (m*+r))_{n_j} ],   m* = 0, 1, 2, ...

    The masses are those of :meth:`VCoefficients.posterior`: the terms of
    the V^r_{n1,n2} series over their own sum, so the support is the window
    that series summed, from its certified start (see :mod:`vecfdp.vcoef`),
    and the pmf is normalized by construction.  Note q*(0) > 0: the sample
    may already have exhausted the species pool.  A V of zero gives an
    empty table.
    """
    if vc.log_v(state.n1, state.n2, state.r) == LOG_ZERO:  # no mass to report
        return PmfTable({})
    post = vc.posterior(state.n1, state.n2, state.r)
    return PmfTable.from_arrays(post.m_star, post.log_pmf)


def _log_miss(c: np.ndarray, g: float, m: int) -> np.ndarray:
    """log [(c - g)_m / (c)_m] for arrays c >= g, with relative accuracy
    even within 10^-13 of zero: log1p terms for the first ``_DIRECT``
    factors, then the difference of two Stirling forms taken analytically,
    three log1p terms of the result's size.  c = g gives -inf."""
    head = min(m, _DIRECT)
    out = np.zeros(np.shape(c))
    if head:
        # the head factors as one (head, len(c)) array per block of about
        # _LATTICE_BLOCK cells (memory O(len(c))), summed along its first
        # axis: row after row, in the order a loop over the factors adds them
        i = np.arange(head, dtype=float)[:, None]
        step = max(1, _LATTICE_BLOCK // head)
        with np.errstate(divide="ignore"):
            for lo in range(0, out.size, step):
                block = slice(lo, lo + step)
                x = c[block] + i
                np.divide(g if np.ndim(g) == 0 else g[block], x, out=x)
                np.negative(x, out=x)
                np.log1p(x, out=x)
                np.add.reduce(x, axis=0, out=out[block])
    if m > head:
        x, a = c + head, m - head
        y = x - g
        out += ((x - 0.5) * np.log1p(g * a / (y * (x + a))) - g * np.log1p(a / y)
                + a * np.log1p(-g / (x + a)) + _stirling_gap(y, a) - _stirling_gap(x, a))
    return out


def _log_sum_rows(x: np.ndarray) -> np.ndarray:
    """log sum exp along the last axis; -inf where all its entries are, a
    log of zero whose warning the callers silence once for all their
    blocks."""
    peak = np.maximum.reduce(x, axis=-1, keepdims=True)
    peak[peak == LOG_ZERO] = 0.0
    return peak[..., 0] + np.log(np.add.reduce(np.exp(x - peak), axis=-1))


def _distinct(sizes: Sequence[int]) -> tuple[list[int], np.ndarray | slice]:
    """The ascending distinct values of ``sizes``, and where each entry
    sits among them: an index array, or the whole slice when the sizes are
    those values already (as at one point)."""
    values = list(sizes) if len(sizes) == 1 else sorted(set(sizes))
    if values == list(sizes):
        return values, slice(None)
    where = {m: i for i, m in enumerate(values)}
    return values, np.array([where[m] for m in sizes], dtype=np.intp)


def _log_tilts(c: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Row i: -log (C)_m at m = sizes[i] over C = c, as log [(c_0)_m / (c)_m]
    (relative to the first C, with relative accuracy) less log (c_0)_m;
    never a log-gamma difference, which is off by 2e-9 at C = 10^6."""
    out = np.zeros((len(sizes), c.size))
    for i, m in enumerate(sizes):
        if m:
            np.subtract(_log_miss(c, c - c[0], m), math.fsum(np.log(c[0] + np.arange(m))),
                        out=out[i])
    return out


def _log_ratio_runs(vc: VCoefficients, n1: int, n2: int, r: int,
                    m1s: Sequence[int], m2s: Sequence[int], width: int) -> np.ndarray:
    """log [V^{r+k}_{n1+m1,n2+m2} / V^r_{n1,n2}] for k = 0..width-1 at each
    future size (m1s[i], m2s[i]), row i, as expectations over the posterior
    of the unseen count M* (the V series read as mixtures over the pool
    size, Gnedin & Pitman 2006):

        E[(M*)_{k fall} / prod_j (g_j (r + M*) + n_j)_{m_j} | n1, n2, r]

    over the window of :meth:`VCoefficients.posterior`.  No two logs of V
    (up to 10^7 in size) are subtracted.  Each ratio is the weighted sum
    over the weights' own sum, taken the same way, so k = 0 at m1 = m2 = 0
    gives exactly 0.  Past a point's top = min(m1 + m2, K), K the window's
    largest M*, the entries are -inf; the width must exceed every top.  An
    entry's error is absolute, bounded by the posterior mass left out of
    the window: the series' own truncation, plus at most tol from the cut
    at its two ends.  A law that weighs these entries into a probability
    therefore moves by at most about tol.  At k near m1 + m2, where
    (M*)_{k fall} weighs the upper tail most, a tiny entry can lose much of
    its relative accuracy.

    The points come in descending order of m1 + m2.  The tilt
    -log prod_j (C_j)_{m_j} is formed once per distinct m_j, and
    log (M*)_{k fall} once, up to the first point's top, on blocks of k;
    each block meets the leading points whose runs reach it, a few at a
    time, in (points, k, M*) cubes of about ``_LATTICE_BLOCK`` cells.  Every
    entry is bit-identical to the same point's run formed alone.
    """
    post = vc.posterior(n1, n2, r)
    m_star, lw = post.window, post.log_w
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    sizes1, at1 = _distinct(m1s)
    sizes2, at2 = _distinct(m2s)
    tilted = lw[None].repeat(len(m1s), axis=0)
    for g, n, sizes, at in ((g1, n1, sizes1, at1), (g2, n2, sizes2, at2)):
        if sizes[-1]:  # a group with a future tilts the weights
            tilted += _log_tilts(g * (r + m_star) + n, sizes)[at]
    last = int(m_star[-1])
    tops = [min(m1 + m2, last) for m1, m2 in zip(m1s, m2s)]
    out = np.full((len(tops), width), LOG_ZERO)
    step = max(1, _LATTICE_BLOCK // m_star.size)
    fall = np.zeros(m_star.size)  # log (M*)_{k fall} at the row before a block
    with np.errstate(divide="ignore"):
        log_den = _log_sum_rows(lw)
        for lo in range(0, tops[0] + 1, step):
            k = np.arange(lo, min(lo + step, tops[0] + 1))[:, None]
            cells = np.log(np.maximum(m_star - k + 1.0, 0.0))  # log (M* - k + 1)
            if lo == 0:
                cells[0] = 0.0  # (M*)_{0 fall} = 1
            cells[0] += fall
            np.add.accumulate(cells, axis=0, out=cells)  # row k: log (M*)_{k fall}
            fall = cells[-1].copy()
            count = bisect.bisect_right(tops, -lo, key=operator.neg)  # runs reaching lo
            chunk = max(1, _LATTICE_BLOCK // cells.size)
            for first in range(0, count, chunk):
                block = slice(first, min(first + chunk, count))
                out[block, lo:lo + k.size] = _log_sum_rows(cells + tilted[block, None]) - log_den
    short = bisect.bisect_right(tops, -tops[0], key=operator.neg)
    if short < len(tops):  # the shorter runs end inside a block: clear past their ends
        out[short:][np.arange(width) > np.array(tops[short:])[:, None]] = LOG_ZERO
    return out


def _log_v_ratios(vc: VCoefficients, n1: int, n2: int, r: int,
                  m1: int, m2: int) -> np.ndarray:
    """The run of :func:`_log_ratio_runs` at one future size, k = 0..m1+m2;
    the laws read it through :func:`_ratios`."""
    return _log_ratio_runs(vc, n1, n2, r, (m1,), (m2,), m1 + m2 + 1)[0]


def _ratios(vc: VCoefficients, n1: int, n2: int, r: int, m1: int, m2: int) -> np.ndarray:
    """The run of :func:`_log_v_ratios`, read-only.  The evaluator keeps
    the last run formed, so laws called in turn on one future size share
    it; a curve forms its runs in one pass over its grid and keeps none."""
    if m1 < 0 or m2 < 0:
        raise DomainError("future sample sizes must be >= 0")
    key = (n1, n2, r, m1, m2)
    last = getattr(vc, "_last_ratios", None)
    if last is not None and last[0] == key:
        return last[1]
    lr = _log_v_ratios(vc, *key)
    lr.flags.writeable = False
    vc._last_ratios = (key, lr)
    return lr


def posterior_m_mean(vc: VCoefficients, state: ObservedState) -> float:
    """E(M* | data) = V^{r+1}_{n1,n2} / V^r_{n1,n2}, the mean over the
    window of :meth:`VCoefficients.posterior`."""
    post = vc.posterior(state.n1, state.n2, state.r)
    return float(np.add.reduce(post.q * post.window))


def _last_finite(lr: np.ndarray) -> int:
    """The largest k with a nonzero V ratio: the ratios from
    :func:`_log_v_ratios` are finite up to the window's largest M* and -inf
    past it, so no row entry beyond this k is ever read."""
    return int(np.count_nonzero(lr > LOG_ZERO)) - 1


def _log_new_species(lr: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """The new-species contraction shared by the joint and global laws:

        out[k, i, j] = lr[k] + LSE_{a,b} ( x1[i, a] + x2[j, b]
                                           - log (k-a)! - log (k-b)! - log (a+b-k)! )

    for k up to the last finite ``lr``, where a and b count the brand-new
    species that reach group 1's and group 2's future (a + b - k of them
    reach both).  Terms with a negative factorial argument are zero.  The
    sum runs over b, then over a, on blocks of k of about
    ``_LATTICE_BLOCK`` cells; a block reads only a, b up to its largest k.
    """
    top = _last_finite(lr)
    (ni, na), (nj, nb) = x1.shape, x2.shape
    na, nb = min(na, top + 1), min(nb, top + 1)
    inv = -log_factorial(np.arange(-top, 2 * top + 1))  # inv[top + n] = -log n!
    out = np.empty((top + 1, ni, nj))
    step = max(1, _LATTICE_BLOCK // (na * nj * max(nb, ni)))
    with np.errstate(divide="ignore"):
        for lo in range(0, top + 1, step):
            k = np.arange(lo, min(lo + step, top + 1))
            a = np.arange(min(na, k[-1] + 1))
            b = np.arange(min(nb, k[-1] + 1))
            kc = k[:, None, None]
            # y[k, a, j] = LSE_b ( x2[j, b] - log (k-b)! - log (a+b-k)! )
            y = _log_sum_rows((x2[:, b] + inv[top + kc - b])[:, None]
                              + inv[top + a[:, None] + b - kc][:, :, None])
            out[k] = lr[k, None, None] + _log_sum_rows(
                (x1[:, a] + inv[top + kc - a])[:, :, None] + y.transpose(0, 2, 1)[:, None])
    return out


def _local_rows(row: np.ndarray, r_other: int) -> np.ndarray:
    """x[k, a] = row[k] + log k! + log binom(r_other, k - a): of k new local
    species, a are brand new and k - a were seen only in the other group."""
    k = np.arange(row.size)
    d = k[:, None] - k
    return ((row + log_factorial(k))[:, None] + log_factorial(r_other)
            - log_factorial(d) - log_factorial(r_other - d))


def posterior_joint_new(vc: VCoefficients, state: ObservedState,
                        m1: int, m2: int) -> PmfTable:
    """Joint pmf of (new global k, new local k1, new local k2) in a future
    sample of sizes (m1, m2), given the observed state, keyed in the order
    k1, then k2, then ascending k:

        P(k, k1, k2) = (V^{r+k}_{n1+m1,n2+m2} / V^r_{n1,n2}) k1! k2!
                       prod_j |C(m_j, k_j; -g_j, -(g_j r_j + n_j))|
                       sum_{a,b} binom(r2*, k1-a) binom(r1*, k2-b)
                                 / ((k-a)! (k-b)! (a+b-k)!)

    Of group 1's k1 new local species, a are brand new and k1 - a were seen
    only in group 2 (likewise b of k2); a + b - k brand-new species reach
    both futures.  This is :func:`_log_new_species` with the rows
    x1[k1, a] = log|C(m1, k1; ...)| + log k1! + log binom(r2*, k1-a) and x2.
    """
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    lr = _ratios(vc, state.n1, state.n2, state.r, m1, m2)
    top = _last_finite(lr)
    # k_j = a + (k_j - a) with a <= k <= top brand-new species and
    # k_j - a <= r_other* seen only in the other group
    x1 = _local_rows(log_noncentral_row(m1, g1, g1 * state.r1 + state.n1,
                                        kmax=top + state.r2_star), state.r2_star)
    x2 = _local_rows(log_noncentral_row(m2, g2, g2 * state.r2 + state.n2,
                                        kmax=top + state.r1_star), state.r1_star)
    law = _log_new_species(lr, x1, x2).transpose(1, 2, 0)  # [k1, k2, k]
    k1, k2, k = np.indices(law.shape)
    return PmfTable.from_arrays(np.stack([k, k1, k2], axis=-1).reshape(-1, 3), law.ravel())


def posterior_marginal_global_new(vc: VCoefficients, state: ObservedState,
                                  m1: int, m2: int) -> PmfTable:
    """Pmf of the number of new global distinct species k in (m1, m2).

    P(k) = (V^{r+k}_{n1+m1,n2+m2} / V^r_{n1,n2}) sum_{a,b} a! b!
           / ((k-a)! (k-b)! (a+b-k)!) prod_j |C(m_j, a_j; -g_j, -(g_j r + n_j))|

    with (a_1, a_2) = (a, b): group 1's future gains a species it has not
    seen, group 2's future b, and a + b - k of them are common to both.
    This is :func:`_log_new_species` with single rows
    x1[0, a] = log|C(m1, a; ...)| + log a! and x2 alike.  The non-central
    shift here is gamma_j * r + n_j (global r): the marginal never needs to
    know which of the r species each group has seen.
    """
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    lr = _ratios(vc, state.n1, state.n2, state.r, m1, m2)
    top = _last_finite(lr)
    x1, x2 = (row + log_factorial(np.arange(row.size)) for row in (
        log_noncentral_row(m1, g1, g1 * state.r + state.n1, kmax=top),
        log_noncentral_row(m2, g2, g2 * state.r + state.n2, kmax=top)))
    law = _log_new_species(lr, x1[None], x2[None])[:, 0, 0]
    return PmfTable.from_arrays(np.arange(law.size), law)


def posterior_local_new(vc: VCoefficients, state: ObservedState, m: int,
                        group: int = 1) -> PmfTable:
    """Single-group pmf of the new local distinct species count.

    P(k_j) = (V^{r_j+k_j}_{n_j+m_j} / V^{r_j}_{n_j})
             |C(m_j, k_j; -g_j, -(g_j r_j + n_j))|

    with single-group V coefficients: this conditions on group j's own data
    only, so it need not match the joint law's marginal when the other
    group has data.
    """
    gamma = vc.params.gamma(group)
    n_j = state.n1 if group == 1 else state.n2
    r_j = state.r1 if group == 1 else state.r2
    sizes = (n_j, 0, r_j, m, 0) if group == 1 else (0, n_j, r_j, 0, m)
    lr = _ratios(vc, *sizes)
    row = log_noncentral_row(m, gamma, gamma * r_j + n_j, kmax=_last_finite(lr))
    return PmfTable.from_arrays(np.arange(row.size), lr[: row.size] + row)


def coverage_cells(vc: VCoefficients, state: ObservedState,
                   m1s: Sequence[int], m2s: Sequence[int]) -> int:
    """The cells :func:`shared_coverage_prob` forms over a grid of future
    sizes (m1s[i], m2s[i]), in closed form from the posterior window alone,
    before any of them is formed: per point, its ratio run, (top + 1) x W
    with top = min(m1 + m2, K) and W, K the window's size and largest M*,
    its (a + 1) x (b + 1) corner, a = min(m1, top), b = min(m2, top), and
    its run as a curve holds it, min(max m1, T) + min(max m2, T) + 1
    entries, T the largest top; per group, its pass of GFC rows,
    (max m_j + 1) x (max a_j + 1)."""
    post = vc.posterior(state.n1, state.n2, state.r)
    w, last = post.window.size, int(post.window[-1])
    cells = a_max = b_max = top_max = 0
    for m1, m2 in zip(m1s, m2s):
        top = min(m1 + m2, last)
        a, b = min(m1, top), min(m2, top)
        cells += (top + 1) * w + (a + 1) * (b + 1)
        a_max, b_max, top_max = max(a_max, a), max(b_max, b), max(top_max, top)
    m1_max, m2_max = max(m1s), max(m2s)
    held = min(m1_max, top_max) + min(m2_max, top_max) + 1
    return cells + len(m1s) * held + (m1_max + 1) * (a_max + 1) + (m2_max + 1) * (b_max + 1)


def _log_sum_exp_each(x: np.ndarray) -> list[float]:
    """:func:`log_sum_exp` of each row of a 2-d array, bit for bit: the
    same max shift, numpy sum and scalar log per row."""
    hi = np.maximum.reduce(x, axis=1)
    total = np.add.reduce(np.exp(x - hi[:, None]), axis=1)
    return [h if h == LOG_ZERO else h + math.log(t)
            for h, t in zip(hi.tolist(), total.tolist())]


def _coverage(vc: VCoefficients, state: ObservedState, m1s: Sequence[int],
              m2s: Sequence[int], runs: np.ndarray) -> list[float]:
    """P(S = 0) at each future size (m1s[i], m2s[i]) from its ratio run
    runs[i], which must reach k = a + b (see :func:`coverage_cells`).

    Each group's rows come from one pass of :func:`log_noncentral_rows`, up
    to the largest m_j and the largest column a point reads.  A point's
    lattice corner is summed as :func:`shared_coverage_prob` says: on
    blocks of rows k1 of about ``_LATTICE_BLOCK`` cells, each block's
    log-sum-exp taken over its cells in order, then over the blocks.  The
    points that share a corner's shape share its blocks, a few points at a
    time; every sum runs over the same cells in the same order as at one
    point, so each probability is bit-identical to the one-point call's.
    """
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    finite = np.add.reduce(runs > LOG_ZERO, axis=1).tolist()  # top + 1, see _last_finite
    shapes: dict[tuple[int, int], list[int]] = {}  # the points of each corner (a, b)
    a_max = b_max = 0
    for i, (m1, m2, n) in enumerate(zip(m1s, m2s, finite)):
        a, b = min(m1, n - 1), min(m2, n - 1)
        shapes.setdefault((a, b), []).append(i)
        a_max, b_max = max(a_max, a), max(b_max, b)
    sizes1, at1 = _distinct(m1s)
    sizes2, at2 = _distinct(m2s)
    x1 = log_noncentral_rows(sizes1, g1, g1 * state.r1 + state.n1, a_max)[at1]
    x2 = log_noncentral_rows(sizes2, g2, g2 * state.r2 + state.n2, b_max)[at2]
    out = [0.0] * len(finite)
    with np.errstate(invalid="ignore"):
        for (ai, bi), group in shapes.items():
            k2 = np.arange(bi + 1)
            step = max(1, _LATTICE_BLOCK // k2.size)
            chunk = max(1, _LATTICE_BLOCK // (min(step, ai + 1) * k2.size))
            for first in range(0, len(group), chunk):
                points = group[first:first + chunk]
                at = (slice(points[0], points[-1] + 1) if points[-1] - points[0] < len(points)
                      else np.array(points))  # a run of points is read as a slice
                lr, y = runs[at], x2[at, None, :bi + 1]
                parts = []
                for lo in range(0, ai + 1, step):
                    k1 = np.arange(lo, min(lo + step, ai + 1))[:, None]
                    cells = (x1[at, lo:lo + k1.size, None] + y) + lr[:, k1 + k2]
                    parts.append(_log_sum_exp_each(cells.reshape(len(points), -1)))
                # one block's sum is already the total: log_sum_exp([x]) is x
                totals = parts[0] if len(parts) == 1 else _log_sum_exp_each(np.array(parts).T)
                for i, total in zip(points, totals):
                    out[i] = min(1.0, math.exp(total))
    return out


def shared_coverage_prob(vc: VCoefficients, state: ObservedState,
                         m1: int, m2: int) -> float:
    """Probability that (m1, m2) further observations reveal no new shared
    species:

    P(S = 0) = sum_{k1, k2} (V^{r+k1+k2}_{n1+m1,n2+m2} / V^r_{n1,n2})
               prod_j |C(m_j, k_j; -g_j, -(g_j r_j + n_j))|

    The V ratios depend on the cell only through k1 + k2 and vanish past
    the posterior window's largest M*, K (4 on the ants table at its
    fitted parameters).  So the ratios come first, and each row runs its
    recurrence only up to column K.  The lattice's (K + 1) x (K + 1) corner
    is summed in log space, on blocks of about ``_LATTICE_BLOCK`` cells; its
    cells past k1 + k2 = K add zero.  That is O((m1 + m2) K + K^2) time and
    O(m1 + m2) memory.  Where no new shared species can appear the sum is
    exactly one, and rounding can lift it a few dozen ulps above; it is
    capped at one.

    This is the one-point grid of :func:`_coverage`, on the ratio run of
    :func:`_ratios`, which the other laws at (m1, m2) share; a curve takes
    its runs from one pass over the grid and gets the same numbers.  The
    cells it forms are :func:`coverage_cells` at the one point.
    """
    lr = _ratios(vc, state.n1, state.n2, state.r, m1, m2)
    return _coverage(vc, state, (m1,), (m2,), lr[None])[0]


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
    w1, w2 = g1 * state.r1 + state.n1, g2 * state.r2 + state.n2
    r1s, r2s = state.r1_star, state.r2_star
    lr = _ratios(vc, state.n1, state.n2, state.r, 1, 1)

    def bundle(pairs):
        return log_sum_exp([lr[i] + math.log(c) for i, c in pairs if c > 0.0])

    entries = {
        0: bundle([(0, w1 * w2), (1, g1 * w2 + g2 * w1), (2, g1 * g2)]),
        1: bundle([(0, r2s * g1 * w2 + r1s * g2 * w1),
                   (1, g1 * g2 * (r1s + r2s + 1))]),
        2: bundle([(0, g1 * g2 * r1s * r2s)]),
    }
    return PmfTable(entries)


def one_step_discovery_prob(vc: VCoefficients, state: ObservedState) -> float:
    """Probability of discovering at least one new shared species in the
    next pair of observations: P(1) + P(2), as 1 - P(0) can go negative."""
    pmf = one_step_shared_pmf(vc, state)
    return pmf.prob(1) + pmf.prob(2)


def shared_pmf(vc: VCoefficients, state: ObservedState,
               m1: int, m2: int) -> PmfTable:
    """Pmf of the number of new shared species in (m1, m2), aggregated from
    the joint law along s = k1 + k2 - k."""
    return shared_marginal(posterior_joint_new(vc, state, m1, m2))


def _expected_new_grid(vc: VCoefficients, state: ObservedState, m1s: Sequence[int],
                       m2s: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E[k1], E[k2] and E[k] of :func:`expected_new` at each future size
    (m1s[i], m2s[i]), as arrays: the probabilities of missing a species are
    formed once per distinct m1 and m2, E[k1] per m1, E[k2] per m2 and E[k]
    per point."""
    if min(m1s) < 0 or min(m2s) < 0:
        raise DomainError("future sample sizes must be >= 0")
    post = vc.posterior(state.n1, state.n2, state.r)
    m_star, q = post.window, post.q
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    sizes1, at1 = _distinct(m1s)
    sizes2, at2 = _distinct(m2s)
    c1, c2 = g1 * (state.r + m_star) + state.n1, g2 * (state.r + m_star) + state.n2
    miss1 = np.array([_log_miss(c1, g1, m) for m in sizes1])
    miss2 = np.array([_log_miss(c2, g2, m) for m in sizes2])
    e_k1 = np.add.reduce(q * (state.r2_star + m_star) * -np.expm1(miss1), axis=1)[at1]
    e_k2 = np.add.reduce(q * (state.r1_star + m_star) * -np.expm1(miss2), axis=1)[at2]
    e_k = np.add.reduce(q * m_star * -np.expm1(miss1[at1] + miss2[at2]), axis=1)
    return e_k1, e_k2, e_k


def expected_new(vc: VCoefficients, state: ObservedState,
                 m1: int, m2: int) -> ExpectedNew:
    """Expected numbers of new (k1, k2, k, s) species in (m1, m2), at any
    future size, conditioning on both groups' data.

    Given the unseen count M*, every species with a zero count in group j
    has group-j proportion Beta(g_j, C_j - g_j) with
    C_j = g_j (r + M*) + n_j, so it stays unseen through m_j further draws
    with probability beta_j = (C_j - g_j)_{m_j} / (C_j)_{m_j}.  The counts
    sum the appearance probabilities 1 - beta_j = -expm1(log beta_j) over
    the group-exclusive species and the unseen pool (a brand-new species is
    shared when it appears in both futures: the proportions are independent
    given the pool size), as arrays over the posterior's window.
    s = k1 + k2 - k holds by construction.  This is the one-point grid of
    :func:`_expected_new_grid`.
    """
    e_k1, e_k2, e_k = _expected_new_grid(vc, state, (m1,), (m2,))
    k1, k2, k = e_k1.item(), e_k2.item(), e_k.item()
    return ExpectedNew(k1=k1, k2=k2, k=k, s=k1 + k2 - k)


@dataclass(frozen=True)
class PairProbs:
    """Normalized probabilities for the next pair of observations, one per
    group, classified as (old, new) x (old, new).

    ``normalizer_ratio`` is the unnormalized cell total divided by
    V^r_{n1,n2}: 1 by construction, since the cells' integrands over the
    posterior of M* sum to one for every M*; it checks rounding only.
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

    with V' ratios at (n1+1, n2+1), normalized by the cells' total.
    """
    g1, g2 = vc.params.gamma1, vc.params.gamma2
    n1, n2, r = state.n1, state.n2, state.r
    q1_old, q2_old = n1 + g1 * r, n2 + g2 * r
    lr = _ratios(vc, n1, n2, r, 1, 1)
    cells = {
        "old_old": lr[0] + math.log(q1_old * q2_old),
        "new_old": lr[1] + math.log(g1 * q2_old),
        "old_new": lr[1] + math.log(q1_old * g2),
        "new_new": float(np.logaddexp(lr[1], lr[2])) + math.log(g1 * g2),
    }
    log_total = log_sum_exp(cells.values())
    probs = {name: math.exp(lp - log_total) for name, lp in cells.items()}
    return PairProbs(normalizer_ratio=math.exp(log_total), **probs)


def extrapolation_curves(vc: VCoefficients, state: ObservedState,
                         grid: Sequence[tuple[int, int]]) -> list[dict]:
    """Expected new species and shared-species coverage over a grid of
    future sample sizes; rows are emitted in grid order.  The grid is one
    pass of :func:`_expected_new_grid` and of :func:`_coverage`, on ratio
    runs from one :func:`_log_ratio_runs` pass, each run only as long as
    its point's corner reads; every number equals the point laws'.  The
    work is :func:`coverage_cells` of the grid."""
    if not grid:
        return []
    m1s, m2s = [m1 for m1, _ in grid], [m2 for _, m2 in grid]
    e_k1, e_k2, e_k = _expected_new_grid(vc, state, m1s, m2s)
    order = sorted(range(len(grid)), key=lambda i: m1s[i] + m2s[i], reverse=True)
    by1, by2 = [m1s[i] for i in order], [m2s[i] for i in order]
    top = min(by1[0] + by2[0], int(vc.posterior(state.n1, state.n2, state.r).window[-1]))
    width = min(max(m1s), top) + min(max(m2s), top) + 1  # past every a + b and top
    runs = _log_ratio_runs(vc, state.n1, state.n2, state.r, by1, by2, width)
    cov = [0.0] * len(grid)
    for i, c in zip(order, _coverage(vc, state, by1, by2, runs)):
        cov[i] = c
    return [{"m1": m1, "m2": m2, "expected_new_global": k, "expected_new_shared": s,
             "coverage_prob": c}
            for m1, m2, k, s, c in zip(m1s, m2s, e_k.tolist(), (e_k1 + e_k2 - e_k).tolist(), cov)]
