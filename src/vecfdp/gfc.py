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
rho = 0 case.  ``log_noncentral_row`` streams one row of this recurrence in
O(m) memory; it is the only code that runs it.  The in-sample laws read the
central row n, the predictive laws a non-central row m.
"""

from __future__ import annotations

import math

import numpy as np

from .logmath import LOG_ZERO, DomainError


def log_noncentral_row(m: int, gamma: float, rho: float) -> np.ndarray:
    """log |C(m, k; -gamma, -rho)| for all k = 0..m at once; rho >= 0.

    Streams the all-positive recurrence from |C(0, 0)| = 1, one row n at a
    time in a single buffer of m + 1 entries, so memory is O(m).  With
    rho = 0 this is the central row: |C(m, 0)| = 0 for m >= 1.
    """
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")
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


def build_central_table(gamma: float, max_n: int) -> np.ndarray:
    """Table of log |C(n, k; -gamma)|, indexed [n, k] for 0 <= n, k <= max_n;
    -inf above the diagonal and at k = 0 < n.  Row n is the central row
    ``log_noncentral_row(n, gamma, 0.0)``, which also rejects gamma <= 0.
    """
    if max_n < 0:
        raise DomainError(f"max_n must be >= 0, got {max_n}")
    table = np.full((max_n + 1, max_n + 1), LOG_ZERO)
    for n in range(max_n + 1):
        table[n, : n + 1] = log_noncentral_row(n, gamma, 0.0)
    return table
