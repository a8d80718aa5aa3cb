"""Priors on the total number of species M (a positive integer), and the
one truncated series over M that every exact law of the package sums.

The model is agnostic to this distribution: every downstream quantity only
needs the pmf ``q_M`` on arrays of m.  Three variants are provided: the
1-shifted Poisson used by default, a point mass (useful for exact finite
checks), and an arbitrary tabulated pmf.  :func:`log_series` sums the V
coefficients, the posterior of the unseen species count and the prior
expectations.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, pdtr, pdtrik

from .logmath import LOG_ZERO, ConvergenceError, DomainError

#: consecutive sub-tolerance terms required before a tail is declared dead
TAIL_RUN = 5
#: terms past the guard in the first block; later blocks double.  The first
#: block reaches the guard at once, since the stopping rule cannot fire before
_TAIL_BLOCK = 32


def log_series(log_term, start: int, guard: int, cap: int | None, *,
               tol: float, max_terms: int):
    """Sum exp(log_term(m)) over m = start, start + 1, ... in log space.

    ``log_term`` maps an int64 array of indices to their log terms (-inf for
    a zero term); it is evaluated on blocks of doubling size.  The sum stops
    at the first m past ``guard`` that ends a run of ``TAIL_RUN`` terms, each
    at most ``tol`` times the partial sum up to and including it.  A finite
    ``cap`` (the last support point) is summed exactly instead.  Needing
    more than ``max_terms`` terms raises ``ConvergenceError``.

    Returns (log total, m, log terms) over the summed indices.
    """
    stop = start + max_terms if cap is None else min(cap + 1, start + max_terms)
    log_tol = math.log(tol)
    total, done = LOG_ZERO, False
    ms, terms = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    low_run = np.zeros(TAIL_RUN, dtype=bool)  # flags of the last terms
    lo, tail = start, _TAIL_BLOCK
    size = max(guard - start + 1, 0) + tail
    while lo < stop and not done:
        m = np.arange(lo, min(lo + size, stop), dtype=np.int64)
        term = log_term(m)
        # partial sums in linear space below a shift: their rounding error is
        # relative to the sum, not to the size of its log
        shift = max(total, float(term.max()))
        if shift == LOG_ZERO:
            partial = term
        else:
            with np.errstate(divide="ignore"):
                partial = shift + np.log(math.exp(total - shift)
                                         + np.cumsum(np.exp(term - shift)))
        end = m.size
        if cap is None:
            low = (m > guard) & (partial > LOG_ZERO) & (term <= log_tol + partial)
            low = np.concatenate((low_run, low))
            count = np.cumsum(low)
            ended = np.flatnonzero(count[TAIL_RUN:] - count[:-TAIL_RUN] == TAIL_RUN)
            if ended.size:
                end, done = int(ended[0]) + 1, True
            low_run = low[-TAIL_RUN:]
        ms.append(m[:end])
        terms.append(term[:end])
        total = float(partial[end - 1])
        lo += m.size
        size = tail = 2 * tail
    if not done and (cap is None or lo <= cap):
        raise ConvergenceError(
            f"series from m = {start} needs more than {max_terms} terms")
    return total, np.concatenate(ms), np.concatenate(terms)


class MPrior(ABC):
    """Distribution of the species count M over {1, 2, ...}."""

    @abstractmethod
    def log_pmf_array(self, m: np.ndarray) -> np.ndarray:
        """log q_M(m) for an int array m; -inf off the support."""

    @abstractmethod
    def mode(self) -> int:
        """A point at or beyond the bulk of the mass; guards series stopping."""

    def log_pmf(self, m: int) -> float:
        return float(self.log_pmf_array(np.array([m], dtype=np.int64))[0])

    def head(self, eps: float) -> int:
        """A start m for expectations of functions bounded by 1: the prior
        mass below it is at most eps."""
        return 1

    #: largest support point, or None when the support is unbounded
    support_max: int | None = None


@dataclass(frozen=True)
class OneShiftedPoisson(MPrior):
    """q_M(m) = e^{-lam} lam^{m-1} / (m-1)! for m >= 1."""

    lam: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise DomainError(f"rate must be positive, got {self.lam}")

    def log_pmf_array(self, m: np.ndarray) -> np.ndarray:
        # gammaln has its poles at m <= 0, where the result is then -inf
        return -self.lam + (m - 1) * math.log(self.lam) - gammaln(m)

    def mode(self) -> int:
        return 1 + int(math.floor(self.lam))

    def mean(self) -> float:
        return 1.0 + self.lam

    def head(self, eps: float) -> int:
        # the eps-quantile of the Poisson(lam) count M - 1, computed as
        # scipy.stats.poisson.ppf does
        k = max(math.ceil(pdtrik(eps, self.lam)) - 1, 0)
        if pdtr(k, self.lam) < eps:
            k += 1
        return 1 + k


@dataclass(frozen=True)
class PointMass(MPrior):
    """All mass on a single species count m0 >= 1."""

    m0: int

    def __post_init__(self):
        if self.m0 < 1:
            raise DomainError(f"point mass must sit on m >= 1, got {self.m0}")
        object.__setattr__(self, "support_max", self.m0)

    def log_pmf_array(self, m: np.ndarray) -> np.ndarray:
        return np.where(m == self.m0, 0.0, LOG_ZERO)

    def mode(self) -> int:
        return self.m0


class TabulatedPrior(MPrior):
    """Finite-support pmf given as probabilities for m = 1, 2, ..., len(probs)."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probs must be a nonempty 1-D sequence")
        if np.any(probs < 0.0):
            raise DomainError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities must sum to 1, got {total!r}")
        with np.errstate(divide="ignore"):
            # index 0 stands for every m off the support
            self._log_probs = np.concatenate(([LOG_ZERO], np.log(probs)))
        self.probs = probs
        self.support_max = int(probs.size)

    def log_pmf_array(self, m: np.ndarray) -> np.ndarray:
        inside = (m >= 1) & (m <= self.support_max)
        return self._log_probs[np.where(inside, m, 0)]

    def mode(self) -> int:
        return 1 + int(np.argmax(self.probs))


def expectation(prior: MPrior, f, *, tol: float = 1e-12,
                max_terms: int = 10**6) -> float:
    """E[f(M)] for a nonnegative f bounded by 1, by truncated summation.

    ``f`` maps an int array of m to an array of values.  The series starts
    at the prior's ``head``, past the negligible head of a large-rate prior,
    and stops by the rule of :func:`log_series` with the prior's mode as
    guard.
    """
    def log_term(m):
        with np.errstate(divide="ignore"):
            return prior.log_pmf_array(m) + np.log(f(m))

    log_total, _, _ = log_series(log_term, prior.head(min(tol * 1e-3, 1e-15)),
                                 prior.mode(), prior.support_max,
                                 tol=tol, max_terms=max_terms)
    return math.exp(log_total)


def expected_inverse_m(prior: MPrior, **kwargs) -> float:
    """E(1/M); closed form (1 - e^{-lam})/lam under the 1-shifted Poisson."""
    if isinstance(prior, OneShiftedPoisson):
        lam = prior.lam
        return -math.expm1(-lam) / lam
    return expectation(prior, lambda m: 1.0 / m, **kwargs)


def expected_inv_one_plus_gamma_m(prior: MPrior, gamma: float, **kwargs) -> float:
    """E(1/(1 + gamma*M)) by truncated series."""
    if gamma < 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    return expectation(prior, lambda m: 1.0 / (1.0 + gamma * m), **kwargs)
