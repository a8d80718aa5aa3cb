"""Generalized factorial coefficients |C(n, k; -gamma)| and their non-central
extension |C(n, k; -gamma, -rho)|, in log space.

Only the absolute values with negative parameters are needed: these are the
connection coefficients that appear in every species-count distribution of
the model.  With the sign (-1)^n factored out, the triangular recurrence

    |C(n+1, k)| = gamma * |C(n, k-1)| + (gamma*k + n) * |C(n, k)|

has all-positive terms, so there is no cancellation.  Non-central values are
obtained from the central ones through the binomial convolution

    |C(m, k; -gamma, -rho)| = sum_{j=k..m} binom(m, j) (rho)_{m-j} |C(j, k; -gamma)|

whose summands are again all nonnegative (rho >= 0 throughout this package,
since rho = gamma*r + n for observed counts).
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import gammaln, logsumexp

from .logmath import LOG_ZERO, DomainError, log_binomial, log_pochhammer


class GfcTable:
    """Triangular table of log |C(n, k; -gamma)| for 0 <= k <= n <= max_n.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("gamma", "max_n", "log_c")

    def __init__(self, gamma: float, max_n: int, log_c: np.ndarray):
        self.gamma = gamma
        self.max_n = max_n
        self.log_c = log_c
        self.log_c.setflags(write=False)

    def log_central(self, n: int, k: int) -> float:
        """log |C(n, k; -gamma)|; -inf for k > n and for k = 0 < n."""
        if n < 0 or k < 0:
            raise DomainError(f"need n, k >= 0, got n={n}, k={k}")
        if n > self.max_n:
            raise DomainError(f"table built for max_n={self.max_n}, asked n={n}")
        if k > n:
            return LOG_ZERO
        return float(self.log_c[n, k])


def build_central_table(gamma: float, max_n: int) -> GfcTable:
    """Fill the triangular table by the all-positive recurrence.

    Boundary conditions: |C(0,0)| = 1, |C(n,0)| = 0 for n >= 1, and
    |C(n,k)| = 0 for k > n.
    """
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if max_n < 0:
        raise DomainError(f"max_n must be >= 0, got {max_n}")
    size = max_n + 1
    table = np.full((size, size), LOG_ZERO)
    table[0, 0] = 0.0
    log_gamma = np.log(gamma)
    for n in range(max_n):
        row = table[n]
        ks = np.arange(1, n + 2)
        # row[k] is already -inf for k > n, so both terms read safely.
        shifted = log_gamma + row[ks - 1]
        scaled = np.log(gamma * ks + n) + row[ks]
        table[n + 1, ks] = np.logaddexp(shifted, scaled)
    return GfcTable(gamma, max_n, table)


_TABLE_LOCK = threading.Lock()
_TABLES: dict[float, GfcTable] = {}


def central_table(gamma: float, max_n: int) -> GfcTable:
    """Memoized per-gamma table, grown on demand.

    Tables are immutable; under the lock a larger table atomically replaces
    the smaller one, so concurrent readers never observe partial builds.
    """
    gamma = float(gamma)
    with _TABLE_LOCK:
        table = _TABLES.get(gamma)
        if table is None or table.max_n < max_n:
            table = build_central_table(gamma, max(max_n, 16))
            _TABLES[gamma] = table
    return table


def _log_rising(rho: float, n: int) -> float:
    # (rho)_0 = 1 for every rho, including rho = 0; (0)_n = 0 for n >= 1.
    if n == 0:
        return 0.0
    if rho == 0.0:
        return LOG_ZERO
    return log_pochhammer(rho, n)


def log_noncentral_gfc(m: int, k: int, gamma: float, rho: float,
                       table: GfcTable | None = None) -> float:
    """log |C(m, k; -gamma, -rho)| via the binomial convolution; rho >= 0."""
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")
    if k < 0 or k > m:
        raise DomainError(f"need 0 <= k <= m, got m={m}, k={k}")
    if table is None:
        table = central_table(gamma, m)
    elif table.max_n < m:
        raise DomainError(f"table max_n={table.max_n} too small for m={m}")
    terms = [
        log_binomial(m, j) + _log_rising(rho, m - j) + table.log_central(j, k)
        for j in range(k, m + 1)
    ]
    return float(logsumexp(terms)) if terms else LOG_ZERO


def log_noncentral_row(m: int, gamma: float, rho: float) -> np.ndarray:
    """log |C(m, k; -gamma, -rho)| for all k = 0..m at once.

    Vectorized over the convolution index; used by the prediction pmfs,
    which need whole rows.
    """
    if rho < 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")
    table = central_table(gamma, m)
    js = np.arange(m + 1)
    weight = gammaln(m + 1) - gammaln(js + 1) - gammaln(m - js + 1)
    weight = weight + np.array([_log_rising(rho, m - int(j)) for j in js])
    # row k: logsumexp over j of weight[j] + log_c[j, k]
    block = weight[:, None] + table.log_c[: m + 1, : m + 1]
    with np.errstate(invalid="ignore"):
        out = logsumexp(block, axis=0)
    return np.where(np.isnan(out), LOG_ZERO, out)
