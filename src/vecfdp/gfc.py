"""Generalized factorial coefficients |C(n, k; -gamma)| and their non-central
extension |C(n, k; -gamma, -rho)|, in log space.

Only the absolute values with negative parameters are needed: these are the
connection coefficients that appear in every species-count distribution of
the model.  With the sign (-1)^n factored out, the triangular recurrence

    |C(n+1, k)| = gamma * |C(n, k-1)| + (gamma*k + n) * |C(n, k)|

has all-positive terms, so there is no cancellation.  The non-central
coefficients satisfy the same recurrence with n shifted by rho
(Charalambides 2005, *Combinatorial Methods in Discrete Distributions*):

    |C(n+1, k; -gamma, -rho)| = gamma * |C(n, k-1)| + (gamma*k + rho + n) * |C(n, k)|

again with nonnegative terms (rho >= 0 throughout this package, since
rho = gamma*r + n for observed counts).  Central tables serve the in-sample
laws; the predictive laws stream one non-central row in O(m) memory.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from .logmath import LOG_ZERO, DomainError


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
#: tables kept; the least recently used one is dropped past this count
_MAX_TABLES = 16
_TABLES: OrderedDict[float, GfcTable] = OrderedDict()


def central_table(gamma: float, max_n: int) -> GfcTable:
    """Memoized per-gamma table, grown on demand.

    Tables are immutable; under the lock a larger table atomically replaces
    the smaller one, so concurrent readers never observe partial builds.
    The cache keeps the ``_MAX_TABLES`` most recently used gammas.
    """
    gamma = float(gamma)
    with _TABLE_LOCK:
        table = _TABLES.get(gamma)
        if table is None or table.max_n < max_n:
            table = build_central_table(gamma, max(max_n, 16))
            _TABLES[gamma] = table
        _TABLES.move_to_end(gamma)
        while len(_TABLES) > _MAX_TABLES:
            _TABLES.popitem(last=False)
    return table


def log_noncentral_row(m: int, gamma: float, rho: float) -> np.ndarray:
    """log |C(m, k; -gamma, -rho)| for all k = 0..m at once; rho >= 0.

    Streams the all-positive recurrence from |C(0, 0)| = 1, one row n at a
    time in a single buffer of m + 1 entries, so memory is O(m).
    """
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
