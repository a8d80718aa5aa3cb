"""Log-space primitives shared by every series and product in the package.

All probabilities and coefficient magnitudes are carried as plain floats in
natural-log scale; the value zero is represented by ``-inf``.  Log-gamma is
the single primitive, in two forms on numpy arrays: :func:`log_factorial`
for integer arguments and :func:`log_gamma` for real ones.  Both sum the
Stirling series of log Gamma (Abramowitz & Stegun 6.1.40) at large
arguments; below ``_TABLE`` the first reads a table, and below
``_DIRECT`` the second lifts its argument by ``_DIRECT`` factors.  Each
value is a function of its own argument only, not of the rest of the
array.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

LOG_ZERO = float("-inf")
#: factors of a rising factorial or of log Gamma's lift taken one by one;
#: past them the arguments are at least this large, where the Stirling
#: series below reaches double precision
_DIRECT = 16
#: B_{2j} / (2j (2j - 1)), j = 1..6: the Stirling series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
#: i (16 - i), i = 1..7: the lift's factors (y + i)(y + 16 - i) are
#: y (y + 16) + i (16 - i)
_LIFT_PAIRS = np.array([i * (_DIRECT - i) for i in range(1, _DIRECT // 2)], dtype=float)
#: log k! for k < _TABLE at index k + 1; +inf (the pole of Gamma(k + 1) at
#: k < 0) at index 0, and a slot at the end for every k >= _TABLE
_TABLE = 1024
#: entries per pass of log-gamma's elementwise kernels
_CHUNK = 1 << 13
#: the smallest normal float: a weight below it has lost precision
_TINY = np.finfo(float).tiny
#: a group whose sum below the peak reaches this loses at most 2^-1022 per
#: underflowed weight: under 2^-90 of the sum for up to 2^32 weights
_GROUP_FLOOR = 2.0 ** -900
_LOG_FACTORIAL = np.array([math.inf] + [math.lgamma(k + 1.0) for k in range(_TABLE)]
                          + [math.nan])


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A truncated series failed to reach its tolerance within the term cap."""


def _stirling_series(z, terms: int = len(_STIRLING)):
    """sum_j c_j z^(1 - 2j) over the first ``terms`` of ``_STIRLING``: the
    series part of log Gamma(z), by Horner's rule in 1 / z^2."""
    w = 1.0 / (z * z)
    s = _STIRLING[terms - 1] * w
    for c in _STIRLING[terms - 2:0:-1]:
        s += c
        s *= w
    s += _STIRLING[0]
    s /= z
    return s


def _stirling_gap(z, a):
    """The series part of log Gamma(z + a) - log Gamma(z), z >= ``_DIRECT``."""
    return _stirling_series(z + a) - _stirling_series(z)


def _by_chunks(f, x: np.ndarray, *args) -> np.ndarray:
    """f(x, *args) for an elementwise f, on chunks of ``_CHUNK`` entries:
    the buffers f needs stay small, so the result is the only one of the
    size of x."""
    if x.size <= _CHUNK:
        return f(x, *args)
    flat, out = x.reshape(-1), np.empty(x.shape)
    for i in range(0, flat.size, _CHUNK):
        out.reshape(-1)[i:i + _CHUNK] = f(flat[i:i + _CHUNK], *args)
    return out


def _log_gamma_stirling(z: np.ndarray, terms: int) -> np.ndarray:
    """log Gamma(z) for z >= ``_DIRECT`` by its Stirling series."""
    s = _stirling_series(z, terms)
    out = np.log(z)
    out *= z - 0.5
    out -= z
    out += _HALF_LOG_2PI
    out += s
    return out


def log_factorial(k) -> np.ndarray:
    """log k! for an int array k, +inf where k < 0: the table below
    ``_TABLE``, a two-term Stirling series of log Gamma(k + 1) above it,
    whose first left-out term is below 1e-18."""
    k = np.asarray(k)
    big = k >= _TABLE
    n_big = np.count_nonzero(big)
    if n_big == k.size:
        return _by_chunks(_log_gamma_stirling, k + 1.0, 2)
    out = np.asarray(_LOG_FACTORIAL.take(k + 1, mode="clip"))
    if n_big:
        out[big] = _by_chunks(_log_gamma_stirling, k[big] + 1.0, 2)
    return out


def _log_gamma_lifted(y: np.ndarray) -> np.ndarray:
    """log Gamma(y) for y < ``_DIRECT`` as log Gamma(z) - log y - log p,
    with z = y + _DIRECT and p = (y + 1) ... (y + _DIRECT - 1).

    The large parts of log Gamma(z) and log p, each near 30 where the
    result is near 0, are divided before one log is taken:
    log [z^(z - 1/2) e^(-z) / p], so their rounding stays relative to the
    result.  The factors of p are paired as s + i (16 - i), s = y z, about
    the middle one, y + 8; the rounding of z itself is put back as e log z,
    e = y + 16 - z.
    """
    z = y + _DIRECT
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.multiply.reduce(np.add.outer(_LIFT_PAIRS, y * z), axis=0)
        p *= y + _DIRECT // 2
        q = np.power(z, z - 0.5)
        q *= np.exp(-z)
        q /= p
        out = np.log(q)
        out -= np.log(y)
        out += (y - (z - _DIRECT)) * np.log(z)
        out += _stirling_series(z, 5)
    out += _HALF_LOG_2PI
    if np.minimum.reduce(y, axis=None) <= 0.0:
        neg = y <= 0.0
        out[neg] = np.where(y[neg] == np.floor(y[neg]), math.inf, math.nan)
    return out


def log_gamma(x) -> np.ndarray:
    """log Gamma(x) for a float array x > 0; +inf at the poles x = 0, -1,
    -2, ... and NaN at the other negative x, which the package never asks
    for.

    An x of at least ``_DIRECT`` gets a five-term Stirling series, whose
    first left-out term is below 2e-16; a smaller x is lifted by
    ``_DIRECT`` factors (:func:`_log_gamma_lifted`).  Within 2e-15 of
    mpmath, relative to max(1, |log Gamma(x)|), on (0, 10^7].
    """
    x = np.asarray(x, dtype=float)
    low = x < _DIRECT
    n_low = np.count_nonzero(low)
    if n_low == 0:
        return _by_chunks(_log_gamma_stirling, x, 5)
    if n_low == x.size:
        return _by_chunks(_log_gamma_lifted, x)
    # the series over the whole array, then the lifted entries on top: no
    # copy of the rest
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _by_chunks(_log_gamma_stirling, x, 5)
    out[low] = _by_chunks(_log_gamma_lifted, x[low])
    return out


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
    return math.lgamma(x + n) - math.lgamma(x)


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


def log_sum_exp_by(index: np.ndarray, values: np.ndarray, size: int,
                   linear: np.ndarray | None = None) -> np.ndarray:
    """Scatter log-sum-exp: entry g is the log of the sum of exp(values[i])
    over the i with index[i] = g, for g in 0..size-1; a group with no finite
    value gives -inf.

    One ``np.bincount`` sums the weights exp(values - peak), peak the
    largest value; a caller that holds these weights passes them as
    ``linear``.  A weight below the normal range has lost precision, so
    when one is, each group whose sum falls below ``_GROUP_FLOOR`` is summed
    again below the peak of its own values, until none is left: a group far
    below the others keeps its mass.
    """
    out = np.full(size, LOG_ZERO)
    while index.size:
        peak = values.max()
        if peak == LOG_ZERO:  # the groups left are all zero
            break
        if linear is None:
            linear = np.exp(values - peak)
        total = np.bincount(index, weights=linear, minlength=size)
        exact = linear.min() >= _TINY  # no weight underflowed
        done = total > 0.0 if exact else total >= _GROUP_FLOOR
        out[done] = np.log(total[done]) + peak
        if exact:
            break
        rest = ~done[index]
        index, values, linear = index[rest], values[rest], None
    return out
