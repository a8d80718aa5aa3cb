"""The normalizing V coefficients of the two-group species sampling model.

``V(n1, n2, r)`` weights partitions with ``r`` global species blocks given
group sample sizes ``n1`` and ``n2``:

    V^r_{n1,n2} = sum_{m >= max(r,1)} (m)_{r fall} q_M(m)
                  / [ (gamma1*m)_{n1} (gamma2*m)_{n2} ]

The series converges for every pmf q_M.  This module owns its truncation
rule: :func:`_v_rows` sums a batch of such series on numpy blocks and stops
each by an adaptive rule past a guard, validated by cap-doubling
invariance, a recurrence identity, a large-sample asymptotic expansion and
mpmath oracles.  At a large prior rate the series starts past a head that a
bound shows to hold at most tol / 2 of it (:func:`_series_start`).
:func:`log_v` sums one coefficient, or hands back its whole series;
:func:`log_v_many` sums a run of r at fixed sizes in batches of rows, with
the same stopping rule and the same values.
:class:`VCoefficients` keeps one entry per key: log V and its
:class:`Posterior`, formed from the key's series at its first lookup.  Its
runs of r are :func:`log_v_many` batches and leave no entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .logmath import LOG_ZERO, ConvergenceError, DomainError, log_factorial, log_gamma, log_sum_exp
from .mprior import MPrior

DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 10**6
#: consecutive sub-tolerance terms that end a series past its guard
_TAIL_RUN = 5
#: terms past the last guard in the first block; later blocks double.  The
#: first block reaches the guards at once, since no row can stop before
_TAIL_BLOCK = 64
#: below any log term; shifts a row whose terms so far are all zero
_SHIFT_FLOOR = -1e300
#: terms in the first block of one batch of :func:`log_v_many`
_BATCH_CELLS = 1 << 18
#: shortest head worth certifying: below it, summing the head costs less
#: than the certificate
_HEAD_MIN = 2048
#: grid points that place a candidate start, and the nats past log(2 / tol)
#: the candidate lies below the grid's largest term
_GRID = 256
_MARGIN = 32.0
#: width ratio of consecutive pieces of the head bound
_GROWTH = 1.05
#: a log term this far below the peak adds nothing to a sum of at least 1;
#: exp is tens of times slower near the least normal double, e^-708.4
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class ModelParams:
    """Group concentrations (gamma1, gamma2) plus the prior on M."""

    gamma1: float
    gamma2: float
    m_prior: MPrior

    def __post_init__(self):
        if not (0.0 < self.gamma1 < math.inf and 0.0 < self.gamma2 < math.inf):
            raise DomainError(f"concentrations must be positive and finite, "
                              f"got ({self.gamma1}, {self.gamma2})")

    def gamma(self, group: int) -> float:
        if group == 1:
            return self.gamma1
        if group == 2:
            return self.gamma2
        raise DomainError(f"group must be 1 or 2, got {group}")


def _log_d(m: np.ndarray, prior: MPrior, sizes) -> np.ndarray:
    """D(m) = log m! + log q_M(m) - sum_j log (gamma_j m)_{n_j} on a 1-D
    int array: the part of a V series' log term that every r shares."""
    d = log_factorial(m)
    d += prior.log_pmf_array(m)
    if sizes:
        # log Gamma at g m and at g m + n of both groups in one call, whose
        # fixed cost is that of hundreds of entries
        lg = log_gamma(np.concatenate([g * m + x for g, n in sizes for x in (0, n)]))
        for pair in lg.reshape(-1, 2, m.size):
            d += pair[0]
            d -= pair[1]
    return d


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct entries of a sorted array (np.unique imports numpy.ma,
    about 1 MB of memory per process)."""
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _series_start(r: int, prior: MPrior, sizes, tol: float) -> int:
    """Where the series of V^r starts: m = max(r, 1), or a later a whose
    head [max(r, 1), a) is certified to hold at most tol / 2 of the series.

    The candidate a is one grid step left of the first point within
    log(2 / tol) + ``_MARGIN`` nats of the largest log term on a grid that
    is geometric in the distance below the guard (the prior's mode plus r).
    It is kept only if a bound U(a) on the head's mass is at most tol / 2
    times that largest term, which lies past a and so bounds the series
    summed from a from below; otherwise the series starts at max(r, 1).
    U(a) sums, over pieces [lo, hi) of the head, each piece's bound
    (hi - 1)_{r fall} / prod_j (gamma_j lo)_{n_j} * Q([lo, hi)): both
    factors of the term are monotone in m, so this holds whatever the
    term's shape, a second mode included.  Q is the prior's own bound
    (:meth:`vecfdp.mprior.MPrior.log_mass_bound`); a prior without one,
    or a head shorter than ``_HEAD_MIN``, is summed from max(r, 1).  The
    pieces are 0.1% of a wide at a and widen by ``_GROWTH`` per piece
    below it, where the terms are smaller still.
    """
    first = max(r, 1)
    guard = prior.mode() + r
    if guard - first < _HEAD_MIN:
        return first
    grid = _distinct(guard - np.rint(np.expm1(
        np.linspace(math.log1p(guard - first), 0.0, _GRID))).astype(np.int64))
    log_t = _log_d(grid, prior, sizes)
    log_t -= log_factorial(grid - r)
    peak = float(log_t.max())
    i = int(np.argmax(log_t >= peak - math.log(2.0 / tol) - _MARGIN))
    a = int(grid[i - 1]) if i else first
    if a - first < _HEAD_MIN:
        return first
    # piece k ends w0 (GROWTH^k - 1) / (GROWTH - 1) below a
    w0 = max(1, a // 1000)
    pieces = math.ceil(math.log1p((a - first) * (_GROWTH - 1.0) / w0) / math.log(_GROWTH)) + 1
    ends = a - np.minimum(np.rint(w0 * np.expm1(np.arange(pieces, -1, -1) * math.log(_GROWTH))
                                  / (_GROWTH - 1.0)).astype(np.int64), a - first)
    ends = _distinct(ends)  # first, ..., a
    lo, hi = ends[:-1], ends[1:]
    log_mass = prior.log_mass_bound(lo, hi)
    if log_mass is None:
        return first
    # one call per primitive, as each costs tens of microseconds
    fall = log_factorial(np.concatenate((hi - 1, hi - 1 - r))).reshape(2, -1)
    log_b = log_mass + fall[0] - fall[1]
    if sizes:
        lg = log_gamma(np.concatenate([g * lo + x for g, n in sizes for x in (n, 0)]))
        lg = lg.reshape(-1, 2, lo.size)
        log_b -= (lg[:, 0] - lg[:, 1]).sum(axis=0)
    # one nat covers the rounding of log terms of size up to 10^7
    return a if log_sum_exp(log_b) <= math.log(0.5 * tol) + peak - 1.0 else first


def _v_rows(n1: int, n2: int, rs: np.ndarray, params: ModelParams, *,
            tol: float, max_terms: int):
    """The series of V^r_{n1,n2} for every r in ``rs`` (ascending), summed
    as one batch: (log totals, counts, log terms) and each row's first m.
    Row i summed the first counts[i] columns of its log terms, at
    m = starts[i], starts[i] + 1, ...

    Each row starts where :func:`_series_start` puts it, so a row of a
    batch is the series :func:`log_v` sums for its key.  The log term at m
    is D(m) - log (m - r)! (see :func:`_log_d`).  Terms are evaluated on
    blocks at the same offsets from every row's start: the first block
    reaches the last guard (the prior's mode plus r) and ``_TAIL_BLOCK``
    terms past it, and later blocks double.  A block evaluates D once over
    the span of its indices and gathers it, so a run of consecutive r costs
    about one log-gamma call per group and per index, not one per cell.

    A row stops at the first m past its guard that ends a run of
    ``_TAIL_RUN`` terms, each at most ``tol`` times the row's partial sum
    up to and including it.  A finite support is summed exactly, to its
    last point.  A row that needs more than ``max_terms`` terms raises
    ``ConvergenceError``.
    """
    if n1 < 0 or n2 < 0:
        raise DomainError(f"sample sizes must be >= 0, got ({n1}, {n2})")
    if rs.size and rs.min() < 0:
        raise DomainError(f"r must be >= 0, got r={int(rs.min())}")
    # r > n1 + n2 never arises in a partition law but the series is still
    # convergent; the recurrence identity evaluates such coefficients.
    prior, cap = params.m_prior, params.m_prior.support_max
    sizes = [(float(g), n) for g, n in ((params.gamma1, n1), (params.gamma2, n2)) if n > 0]
    # a finite support is summed exactly
    if cap is None and prior.mode() >= _HEAD_MIN:
        starts = np.array([_series_start(r, prior, sizes, tol) for r in rs.tolist()],
                          dtype=np.int64)
    else:
        starts = np.maximum(rs, 1)
    lift = starts - rs  # m - r at each row's first index
    # Python's min and max: on the usual single row, far cheaper than numpy's
    first, lifted = starts.tolist(), lift.tolist()
    low, high, lift_low, lift_high = min(first), max(first), min(lifted), max(lifted)
    # each row's first column in a block's spans of D and of log (m - r)!
    at_d, at_fact = (starts - low)[:, None], (lift - lift_low)[:, None]
    guard = prior.mode() + rs - starts  # offset of each row's guard
    if cap is None:
        limit = np.full(rs.size, max_terms)
    else:
        limit = np.clip(np.minimum(cap + 1 - starts, max_terms), 0, None)
    stop = int(limit.max(initial=0))
    log_tol = math.log(tol)
    carry = np.full(rs.size, LOG_ZERO)  # every row's partial sum so far
    total, count = np.full(rs.size, LOG_ZERO), limit.copy()
    live = limit > 0  # rows still summing
    blocks = []
    low_run = np.zeros((rs.size, _TAIL_RUN), dtype=bool)  # flags of the last terms
    lo, tail = 0, _TAIL_BLOCK
    size = max(int(guard.max(initial=-1)) + 1, 0) + tail
    while lo < stop and live.any():
        width = min(size, stop - lo)
        cols = np.arange(width)
        d = _log_d(np.arange(low + lo, high + lo + width), prior, sizes)
        term = d[at_d + cols]
        term -= log_factorial(np.arange(lift_low + lo, lift_high + lo + width))[at_fact + cols]
        if cap is not None:
            term = np.where(cols < (limit - lo)[:, None], term, LOG_ZERO)
        # partial sums in linear space below a per-row shift: their rounding
        # error is relative to the sum, not to the size of its log.  The
        # floor keeps the shift finite on a row whose terms are all zero.
        shift = np.maximum(carry, np.maximum.reduce(term, axis=1, initial=_SHIFT_FLOOR))[:, None]
        partial = term - shift  # one buffer, updated in place
        with np.errstate(divide="ignore"):
            np.exp(partial, out=partial)
            np.cumsum(partial, axis=1, out=partial)
            partial += np.exp(carry[:, None] - shift)
            np.log(partial, out=partial)
        partial += shift
        if cap is None:
            flags = (cols > (guard - lo)[:, None]) & (partial > LOG_ZERO)
            flags &= term <= log_tol + partial
            flags = np.concatenate((low_run, flags), axis=1)
            low_run = flags[:, -_TAIL_RUN:]
            # ended[:, i]: the term at column i closes a run of _TAIL_RUN lows
            ended = flags[:, _TAIL_RUN:].copy()
            for k in range(1, _TAIL_RUN):
                ended &= flags[:, _TAIL_RUN - k:flags.shape[1] - k]
            closed, last = ended.any(axis=1), ended.argmax(axis=1)
        else:
            closed, last = limit <= lo + width, limit - lo - 1
        done = (closed & live).nonzero()[0]
        total[done] = partial[done, last[done]]
        count[done] = lo + last[done] + 1
        live[done] = False
        carry = partial[:, -1]
        blocks.append(term)
        lo += width
        size = tail = 2 * tail
    short = (live if cap is None else starts + limit <= cap).nonzero()[0]
    if short.size:
        raise ConvergenceError(
            f"series from m = {int(starts[short[0]])} needs more than {max_terms} terms")
    terms = np.concatenate(blocks, axis=1) if blocks else np.zeros((rs.size, 0))
    return total, count, terms, starts


def log_v(n1: int, n2: int, r: int, params: ModelParams, *,
          tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS,
          series: bool = False):
    """log V^r_{n1,n2}; with ``series``, the series as summed: (log total,
    m, log terms).

    Summed by :func:`_v_rows` from m = max(r, 1), or from the later start
    :func:`_series_start` certifies, with the prior's mode plus r as guard:
    the general term decays monotonically only past the bulk of q_M's mass.
    Finite-support priors are summed exactly.
    """
    total, count, terms, starts = _v_rows(n1, n2, np.array([r], dtype=np.int64), params,
                                          tol=tol, max_terms=max_terms)
    if not series:
        return float(total[0])
    n = int(count[0])
    return float(total[0]), int(starts[0]) + np.arange(n), terms[0, :n]


def log_v_many(n1: int, n2: int, rs, params: ModelParams, *,
               tol: float = DEFAULT_TOL,
               max_terms: int = DEFAULT_MAX_TERMS) -> np.ndarray:
    """log V^r_{n1,n2} for every r in ``rs`` (best a run of consecutive r),
    each series stopped as :func:`log_v` stops it.

    Rows are summed in batches whose first blocks hold about
    ``_BATCH_CELLS`` terms, so memory stays bounded for any run length.
    """
    rs = np.asarray(rs, dtype=np.int64).ravel()
    order = np.argsort(rs, kind="stable")
    per = max(1, _BATCH_CELLS // (params.m_prior.mode() + 1))
    out = np.empty(rs.size)
    for i in range(0, rs.size, per):
        rows = order[i:i + per]
        out[rows] = _v_rows(n1, n2, rs[rows], params, tol=tol, max_terms=max_terms)[0]
    return out


class Posterior(NamedTuple):
    """The posterior of the unseen count M* = m - r given (n1, n2, r), as
    :meth:`VCoefficients.log_v` forms it: M* over the whole V series and
    its log masses, then on the window cut to all but tol of the mass, M*
    as floats, the log weights (terms less the series' peak) and the
    weights over their sum.  Every array is read-only."""

    m_star: np.ndarray
    log_pmf: np.ndarray
    window: np.ndarray
    log_w: np.ndarray
    q: np.ndarray


class VCoefficients:
    """Memoizing evaluator of log V for one fixed parameter triple.

    One cache, keyed (n1, n2, r), holds (log V, :class:`Posterior`) for
    each key looked up, both formed from the key's series in one step on
    its first lookup; the posterior is None when V is zero.  A run of r
    from :meth:`log_v_many` is summed in batches and not cached.  A
    single-group coefficient is the key with the other size zero.
    Insertion is idempotent, so concurrent recomputation of a key is
    harmless.
    """

    def __init__(self, params: ModelParams, *, tol: float = DEFAULT_TOL,
                 max_terms: int = DEFAULT_MAX_TERMS):
        self.params = params
        self.tol = tol
        self.max_terms = max_terms
        self._cache: dict[tuple[int, int, int], tuple[float, Posterior | None]] = {}

    def log_v(self, n1: int, n2: int, r: int) -> float:
        """log V^r_{n1,n2}; a first lookup sums the key's series and forms
        its :class:`Posterior` in one pass over it.

        The log masses are the terms less the series' peak, less the log of
        their sum taken in linear space (log V, up to 10^7 in size, would
        carry its rounding into every mass).  The window drops entries from
        each end while the mass they carry stays at most tol / 2 of that
        sum: it leaves out at most ``tol`` on top of the series' own
        truncation, and keeps every mode of a multimodal posterior.  Each
        exp argument is floored at ``_EXP_FLOOR``.
        """
        entry = self._cache.get((n1, n2, r))
        if entry is None:
            total, m, terms = log_v(n1, n2, r, self.params, tol=self.tol,
                                    max_terms=self.max_terms, series=True)
            post = None
            if total != LOG_ZERO:
                shifted = terms - terms.max()
                w = np.exp(np.maximum(shifted, _EXP_FLOOR))
                head = np.cumsum(w)
                cut = 0.5 * self.tol * head[-1]
                lo = int(np.searchsorted(head, cut, side="right"))
                hi = w.size - int(np.searchsorted(np.cumsum(w[::-1]), cut, side="right"))
                q = w[lo:hi]
                post = Posterior(m - r, shifted - math.log(np.add.reduce(w)),
                                 (m[lo:hi] - r).astype(float), shifted[lo:hi], q / q.sum())
                for array in post:
                    array.flags.writeable = False
            self._cache[n1, n2, r] = entry = (total, post)
        return entry[0]

    def posterior(self, n1: int, n2: int, r: int) -> Posterior:
        """The :class:`Posterior` of M* given (n1, n2, r), kept in the key's
        entry (see :meth:`log_v`).  A V of zero raises."""
        if self.log_v(n1, n2, r) == LOG_ZERO:
            raise DomainError(f"V^{r}_({n1},{n2}) is zero under this prior")
        return self._cache[n1, n2, r][1]

    def log_v_many(self, n1: int, n2: int, rs) -> np.ndarray:
        """log V^r_{n1,n2} for every r in ``rs``: one :func:`log_v_many`
        batch, which leaves no cache entry."""
        return log_v_many(n1, n2, rs, self.params, tol=self.tol, max_terms=self.max_terms)

    def check_recurrence(self, n1: int, n2: int, r: int) -> float:
        """Relative residual of the one-step-in-each-group recurrence.

        V^r_{n1,n2} = g1 g2 { r^2 V^r' + (2r+1) V^{r+1}' + V^{r+2}' }
                      + n1 V^r_{n1+1,n2} + n2 V^r_{n1,n2+1} - n1 n2 V^r'

        with V' evaluated at (n1+1, n2+1).  Returns |LHS - RHS| / LHS.
        """
        if r < 1:
            raise DomainError(f"recurrence needs r >= 1, got r={r}")
        g1, g2 = self.params.gamma1, self.params.gamma2
        log_lhs = self.log_v(n1, n2, r)
        if log_lhs == LOG_ZERO:
            raise DomainError(f"V({n1},{n2},{r}) is zero; residual undefined")
        pieces = [
            (g1 * g2 * r * r, self.log_v(n1 + 1, n2 + 1, r)),
            (g1 * g2 * (2 * r + 1), self.log_v(n1 + 1, n2 + 1, r + 1)),
            (g1 * g2, self.log_v(n1 + 1, n2 + 1, r + 2)),
            (float(n1), self.log_v(n1 + 1, n2, r)),
            (float(n2), self.log_v(n1, n2 + 1, r)),
            (-float(n1) * n2, self.log_v(n1 + 1, n2 + 1, r)),
        ]
        rhs_over_lhs = sum(c * math.exp(lv - log_lhs) for c, lv in pieces if c != 0.0)
        return abs(1.0 - rhs_over_lhs)
