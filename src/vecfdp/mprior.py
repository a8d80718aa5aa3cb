"""Priors on the total number of species M (a positive integer), and the
windows their expectations are taken over.

The model is agnostic to this distribution: every downstream quantity only
needs the pmf ``q_M`` on arrays of m.  Three variants are provided: the
1-shifted Poisson used by default, a point mass (useful for exact finite
checks), and an arbitrary tabulated pmf.  Every prior expectation is a dot
product over the prior's window, whose two ends are taken in closed form
(:func:`prior_window`).  The V series, which sums over the same pmf, keeps
its truncation rule in :mod:`vecfdp.vcoef`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .logmath import LOG_ZERO, ConvergenceError, DomainError, log_factorial


class MPrior(ABC):
    """Distribution of the species count M over {1, 2, ...}."""

    @abstractmethod
    def log_pmf_array(self, m: np.ndarray) -> np.ndarray:
        """log q_M(m) for an int array m; -inf off the support."""

    @abstractmethod
    def mode(self) -> int:
        """A point at or beyond the bulk of the mass; guards series stopping."""

    def head(self, eps: float) -> int:
        """A start m for expectations of functions bounded by 1: the prior
        mass below it is at most eps."""
        return 1

    def tail(self, eps: float) -> int:
        """An end m for expectations of functions bounded by 1: the prior
        mass past it is at most eps.  A finite support ends at its last
        point; a prior with unbounded support overrides this."""
        return self.support_max

    def log_mass_bound(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
        """log of an upper bound on the prior mass of each piece [lo, hi)
        (int arrays, lo < hi), or None for a prior that offers none."""
        return None

    #: largest support point, or None when the support is unbounded
    support_max: int | None = None


@dataclass(frozen=True)
class OneShiftedPoisson(MPrior):
    """q_M(m) = e^{-lam} lam^{m-1} / (m-1)! for m >= 1."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise DomainError(f"rate must be positive and finite, got {self.lam}")

    def log_pmf_array(self, m: np.ndarray) -> np.ndarray:
        # log (m - 1)! is +inf at m <= 0, where the result is then -inf
        k = m - 1
        out = k * math.log(self.lam)
        out -= self.lam
        out -= log_factorial(k)
        return out

    def mode(self) -> int:
        return 1 + int(math.floor(self.lam))

    def log_mass_bound(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # unimodal: q rises to the mode and falls past it, so no point of a
        # piece carries more than the piece's point nearest the mode
        return np.log(hi - lo) + self.log_pmf_array(np.clip(self.mode(), lo, hi - 1))

    def _log_tail_bound(self, j: float, lower: bool) -> float:
        """log of the geometric bound on P(X <= j) (``lower``) or P(X >= j)
        for the count X = M - 1: P(X = j) / (1 - j / lam) below lam, and
        P(X = j) / (1 - lam / (j + 1)) above it, as the terms fall by
        ratios of at most j / lam below j and lam / (j + 1) past it."""
        lam = self.lam
        ratio = j / lam if lower else lam / (j + 1.0)
        return j * math.log(lam) - lam - math.lgamma(j + 1.0) - math.log1p(-ratio)

    def _crossing(self, log_eps: float, lower: bool) -> float:
        """Where the bound of :meth:`_log_tail_bound` crosses eps: Newton's
        method on its log from the Gaussian point, with the slope's
        digamma(a + 1) ~ log(a + 1/2); a step goes at most halfway to lam
        (or lam - 1), where the bound's pole lies."""
        lam, side = self.lam, -1.0 if lower else 1.0
        pole = lam if lower else lam - 1.0
        a = max(lam + side * math.sqrt(-2.0 * lam * log_eps), 0.0)
        for _ in range(100):
            pole_slope = 1.0 / (lam - a) if lower else -lam / ((a + 1.0) * (a + 1.0 - lam))
            slope = math.log(lam) - math.log(a + 0.5) + pole_slope
            step = (log_eps - self._log_tail_bound(a, lower)) / slope
            a = min(a + step, 0.5 * (a + pole)) if lower else max(a + step, 0.5 * (a + pole))
            if abs(step) < 1e-3:
                break
        return a

    def head(self, eps: float) -> int:
        # 2 + j, j the largest integer below lam with P(X <= j) bounded by
        # eps (see _log_tail_bound), so the mass of M below the start is at
        # most eps.  The bound rises with j; j is settled by stepping from
        # the crossing.
        lam, log_eps = self.lam, math.log(eps)
        if -lam > log_eps:  # P(X = 0) = e^{-lam} is already above eps
            return 1
        j = min(max(math.floor(self._crossing(log_eps, True)), 0), math.ceil(lam) - 1)
        while j > 0 and self._log_tail_bound(j, True) > log_eps:
            j -= 1
        while j + 1 < lam and self._log_tail_bound(j + 1, True) <= log_eps:
            j += 1
        return 2 + j

    def tail(self, eps: float) -> int:
        # j, the least integer past lam - 1 with P(X >= j) bounded by eps,
        # so the mass of M past the end, P(M >= j + 1), is at most eps.
        # The bound falls with j; j is settled by stepping from the
        # crossing.
        log_eps = math.log(eps)
        least = math.floor(self.lam)  # the least j with j + 1 > lam
        j = max(math.ceil(self._crossing(log_eps, False)), least)
        while self._log_tail_bound(j, False) > log_eps:
            j += 1
        while j > least and self._log_tail_bound(j - 1, False) <= log_eps:
            j -= 1
        return j


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

    def head(self, eps: float) -> int:
        return self.m0


class TabulatedPrior(MPrior):
    """Finite-support pmf given as probabilities for m = 1, 2, ..., len(probs)."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probs must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(probs) & (probs >= 0.0)):
            raise DomainError("probabilities must be finite and nonnegative")
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


@dataclass(frozen=True, eq=False)
class PriorWindow:
    """The prior pmf ``q`` at the consecutive points ``m`` (int64) that its
    expectations sum over: from the prior's head to its tail, each end
    leaving out at most eps = min(tol / 1000, 1e-15) of the mass.  ``q`` is
    normalized to total one."""

    m: np.ndarray
    q: np.ndarray

    def mean(self, values) -> float:
        """E[f(M)] from the values f(m) on the window."""
        # a pairwise sum, not a BLAS dot, whose threads stall on a busy host;
        # np.add.reduce is np.sum without its Python wrapper
        return float(np.add.reduce(self.q * values))


def window_eps(tol: float) -> float:
    """The prior mass each end of a window at series tolerance ``tol``
    leaves out: min(tol / 1000, 1e-15)."""
    return min(tol * 1e-3, 1e-15)


def prior_window(prior: MPrior, *, tol: float = 1e-12,
                 max_terms: int = 10**6) -> PriorWindow:
    """The :class:`PriorWindow` of ``prior`` at series tolerance ``tol``:
    one pmf evaluation over [head, tail], normalized in linear space below
    its largest term.  A window of more than ``max_terms`` points raises
    ``ConvergenceError``."""
    eps = window_eps(tol)
    start, end = prior.head(eps), prior.tail(eps)
    if end - start >= max_terms:
        raise ConvergenceError(
            f"prior window from m = {start} to {end} needs more than {max_terms} terms")
    m = np.arange(start, end + 1, dtype=np.int64)
    q = prior.log_pmf_array(m)
    q -= q.max()
    np.exp(q, out=q)
    q /= np.add.reduce(q)
    return PriorWindow(m, q)


def expectation(prior: MPrior, f, *, tol: float = 1e-12,
                max_terms: int = 10**6) -> float:
    """E[f(M)] for a nonnegative f bounded by 1 (``f`` maps an int array of
    m to values), as a dot product over the prior's window."""
    window = prior_window(prior, tol=tol, max_terms=max_terms)
    return window.mean(f(window.m))


def expected_inverse_m(prior: MPrior) -> float:
    """E(1/M); closed form (1 - e^{-lam})/lam under the 1-shifted Poisson."""
    if isinstance(prior, OneShiftedPoisson):
        return -math.expm1(-prior.lam) / prior.lam
    return expectation(prior, lambda m: 1.0 / m)
