"""Generalized factorial coefficients |C(n, k; -gamma)| and their non-central
extension |C(n, k; -gamma, -rho)|, in log space.

Only the absolute values with negative parameters are needed: these are the
connection coefficients that appear in every species-count distribution of
the model.  With the sign (-1)^n factored out, the non-central coefficients
satisfy the triangular recurrence (Charalambides 2005, *Combinatorial
Methods in Discrete Distributions*)

    |C(n+1, k; -gamma, -rho)| = gamma * |C(n, k-1)| + (gamma*k + rho + n) * |C(n, k)|

whose terms are all nonnegative for rho >= 0 (rho = gamma*r + n for observed
counts), so there is no cancellation.  The central coefficients are the
rho = 0 case.  ``log_noncentral_rows`` is the only code that runs this
recurrence.  It runs it column by column: column k over n = k..m is a
first-order linear recurrence in n fed by column k - 1, so one numpy pass
solves it, and one pass to the largest of a set of sizes m keeps the row of
each.  Rows that stop at column K cost O(m K) time, and O(m) memory for the
pass plus K + 1 entries per row kept.  ``log_noncentral_row`` is its
one-size call and ``build_central_table`` its call at every size 0..n with
rho = 0.  The in-sample laws read the central row n, the predictive laws
non-central rows m up to the posterior window's largest unseen count, one
pass per group for a whole grid of future sizes.
"""

from __future__ import annotations

import math

import numpy as np

from .logmath import LOG_ZERO, DomainError

#: cells of the block of log factors a_j formed at once: columns times m
_BLOCK = 1 << 14


def log_noncentral_rows(ms, gamma: float, rho: float, kmax: int) -> np.ndarray:
    """log |C(m, k; -gamma, -rho)| for k = 0..min(m, kmax), for each m of the
    ascending sizes ``ms``: a (len(ms), top + 1) array, top = min(max(ms),
    kmax), whose row i is -inf past min(ms[i], kmax); rho >= 0.

    With gamma^k factored out, d(n, k) = |C(n, k)| / gamma^k satisfies
    d(n+1, k) = d(n, k-1) + a_n d(n, k), a_n = gamma k + rho + n, from
    d(k, k) = 1.  So column k over n = k..max(ms) is a weighted prefix sum
    of column k - 1:

        log d(n, k) = P_k(n) + LSE_{i=k-1..n-1} ( log d(i, k-1) - P_k(i+1) ),
        P_k(n) = sum_{j=k..n-1} log a_j,

    one ``logaddexp.accumulate``, starting from column 0, log (rho)_n.  The
    sums P_k are formed for blocks of columns at once, about ``_BLOCK``
    cells each.  Columns past ``kmax`` are never formed.  Column k's entry
    at n = m sits max(ms) - m from its end: the largest size reads the
    last entry, the smaller sizes that reach column k are gathered.  Every
    step is a prefix scan, so a column's entries up to n do not depend on
    how far it runs: each row is bit-identical whichever sizes share its
    pass.  With rho = 0 these are the central rows: |C(m, 0)| = 0 for
    m >= 1.
    """
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")
    ms = list(ms)
    if not ms or ms[0] < 0:
        raise DomainError(f"need sizes m >= 0, got {ms}")
    if kmax < 0:
        raise DomainError(f"kmax must be >= 0, got {kmax}")
    m, last = ms[-1], len(ms) - 1  # the largest size and its row
    top = min(m, kmax)
    rows = np.empty((last + 1, top + 1))
    row = rows[last]  # every column reaches the largest size
    first = 0  # the first row whose size reaches the column
    j = np.arange(m, dtype=float)
    col = np.zeros(m + 1)
    step = max(1, _BLOCK // max(m, 1))
    with np.errstate(divide="ignore"):
        np.add.accumulate(np.log(j + rho), out=col[1:])
        row[0] = col[-1]
        if last:  # the smaller sizes' rows are -inf past their size
            back = np.array(ms[:last]) - (m + 1)  # col[back[i]] is the entry at n = ms[i]
            rows[:last] = LOG_ZERO
            rows[:last, 0] = col[back]
        for lo in range(1, top + 1, step):
            k = np.arange(lo, min(lo + step, top + 1))
            # log_p[i, n - k_i] = P_{k_i}(n): the factors with j < k_i are zeroed
            log_p = j[lo - 1:] + (gamma * k + rho)[:, None]
            np.log(log_p, out=log_p)
            log_p[j[lo - 1:] < k[:, None]] = 0.0
            np.add.accumulate(log_p, axis=1, out=log_p)
            for i, c in enumerate(k.tolist()):
                p = log_p[i, i:]
                col = col[:-1] - p
                np.logaddexp.accumulate(col, out=col)
                col += p
                row[c] = col[-1]
                while ms[first] < c:
                    first += 1
                if first < last:
                    rows[first:last, c] = col[back[first:]]
    rows[:, 1:] += np.arange(1, top + 1) * math.log(gamma)
    return rows


def log_noncentral_row(m: int, gamma: float, rho: float,
                       kmax: int | None = None) -> np.ndarray:
    """log |C(m, k; -gamma, -rho)| for k = 0..min(m, kmax): the one-size
    call of :func:`log_noncentral_rows`, the whole row when kmax is None."""
    return log_noncentral_rows((m,), gamma, rho, m if kmax is None else kmax)[0]


def build_central_table(gamma: float, max_n: int) -> np.ndarray:
    """Table of log |C(n, k; -gamma)|, indexed [n, k] for 0 <= n, k <= max_n;
    -inf above the diagonal and at k = 0 < n: the central rows of every
    size 0..max_n from one pass of :func:`log_noncentral_rows`, in
    O(max_n^2)."""
    return log_noncentral_rows(range(max_n + 1), gamma, 0.0, max_n)
