"""Log-space primitives shared by every series and product in the package.

All probabilities and coefficient magnitudes are carried as plain floats in
natural-log scale; the value zero is represented by ``-inf``.  Log-gamma is
the single primitive, so arguments need not be integers.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
from scipy.special import gammaln

LOG_ZERO = float("-inf")


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A truncated series failed to reach its tolerance within the term cap."""


def log_pochhammer(x: float, n: float) -> float:
    """log of the rising factorial (x)_n = Gamma(x+n)/Gamma(x).

    ``x`` must be positive; ``n`` is a nonnegative real (integer orders are
    the common case, real orders are needed for asymptotic expansions).
    """
    if x <= 0.0:
        raise DomainError(f"log_pochhammer requires x > 0, got x={x}")
    if n < 0:
        raise DomainError(f"log_pochhammer requires n >= 0, got n={n}")
    if n == 0:
        return 0.0
    return float(gammaln(x + n) - gammaln(x))


def log_sum_exp(terms: Iterable[float]) -> float:
    """log of a sum of exponentials via max shift; empty input gives -inf."""
    arr = np.asarray(list(terms) if not isinstance(terms, np.ndarray) else terms,
                     dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    hi = float(np.max(arr))
    if hi == LOG_ZERO:
        return LOG_ZERO
    if math.isinf(hi):  # +inf input: propagate
        return hi
    return hi + math.log(float(np.sum(np.exp(arr - hi))))


def log_sum_exp_by(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Scatter log-sum-exp: entry g is the log of the sum of exp(values[i])
    over the i with index[i] = g, for g in 0..size-1.

    Each group is shifted by its own maximum, so a group far below the
    others keeps its mass; a group with no finite value gives -inf.
    """
    peak = np.full(size, LOG_ZERO)
    np.maximum.at(peak, index, values)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    total = np.bincount(index, weights=np.exp(values - shift[index]), minlength=size)
    with np.errstate(divide="ignore"):
        return shift + np.log(total)
