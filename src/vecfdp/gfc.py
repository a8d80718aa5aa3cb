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
rho = 0 case.  ``_log_columns`` runs this recurrence column by column:
column k over n = k..m is a first-order linear recurrence in n fed by
column k - 1, so one numpy pass solves it.  It is the only code that runs
the recurrence.  ``log_noncentral_rows`` keeps, of each column, the entries
at a set of sizes m: one pass to the largest m gives every row, each one
bit-identical to its own ``log_noncentral_row``, the one-m case.  Rows
that stop at column K cost O(m K) time, and O(m) memory for the pass plus
K + 1 entries per row kept.
``build_central_table`` keeps whole columns, so every row up to m comes
from one pass.  The in-sample laws read the central row n, the predictive
laws non-central rows m up to the posterior window's largest unseen count,
one pass per group for a whole grid of future sizes.
"""

from __future__ import annotations

import math

import numpy as np

from .logmath import LOG_ZERO, DomainError

#: cells of the block of log factors a_j formed at once: columns times m
_BLOCK = 1 << 14


def _log_columns(m: int, gamma: float, rho: float, top: int, emit) -> None:
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


def log_noncentral_row(m: int, gamma: float, rho: float,
                       kmax: int | None = None) -> np.ndarray:
    """log |C(m, k; -gamma, -rho)| for k = 0..top, top = min(m, kmax); rho >= 0.

    Entry k is the last entry, n = m, of column k of :func:`_log_columns`,
    times gamma^k.  Columns past ``kmax`` are never formed: the row's first
    top + 1 entries are those of the full row, in O(m top) time and O(m)
    memory.  With rho = 0 this is the central row: |C(m, 0)| = 0 for m >= 1.
    This is :func:`log_noncentral_rows` at one m.
    """
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    top = m if kmax is None else min(m, kmax)
    if top < 0:
        raise DomainError(f"kmax must be >= 0, got {kmax}")
    row = np.empty(top + 1)

    def emit(k, col):
        row[k] = col[-1]

    _log_columns(m, gamma, rho, top, emit)
    row[1:] += np.arange(1, top + 1) * math.log(gamma)
    return row


def log_noncentral_rows(ms, gamma: float, rho: float, kmax: int) -> np.ndarray:
    """log |C(m, k; -gamma, -rho)| for k = 0..min(m, kmax), for each m of the
    ascending sizes ``ms``, from one pass of :func:`_log_columns` up to the
    largest: a (len(ms), top + 1) array, top = min(max(ms), kmax), whose row
    i is -inf past min(ms[i], kmax).  One m is :func:`log_noncentral_row`.

    Column k's entry at n = m sits max(ms) - m from the column's end for
    every k, so each column hands over one gather.  Every column step is a
    prefix scan, so each row is bit-identical to
    ``log_noncentral_row(m, gamma, rho, kmax)``.
    """
    if len(ms) == 1:
        return log_noncentral_row(ms[0], gamma, rho, kmax)[None]
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

    _log_columns(last, gamma, rho, top, emit)
    rows[:, 1:] += np.arange(1, top + 1) * math.log(gamma)
    return rows


def build_central_table(gamma: float, max_n: int) -> np.ndarray:
    """Table of log |C(n, k; -gamma)|, indexed [n, k] for 0 <= n, k <= max_n;
    -inf above the diagonal and at k = 0 < n.

    One pass of :func:`_log_columns` for row max_n fills it: column k holds
    the entries at every n = k..max_n, so the table costs O(max_n^2), and
    row n equals ``log_noncentral_row(n, gamma, 0.0)`` bit for bit.
    """
    if max_n < 0:
        raise DomainError(f"max_n must be >= 0, got {max_n}")
    table = np.full((max_n + 1, max_n + 1), LOG_ZERO)

    def emit(k, col):
        table[k:, k] = col

    _log_columns(max_n, gamma, 0.0, max_n, emit)
    table[:, 1:] += np.arange(1, max_n + 1) * math.log(gamma)
    return table
