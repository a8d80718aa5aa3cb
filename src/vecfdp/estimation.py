"""Diversity indices from observed abundances and the two-step,
diversity-based method-of-moments fit of the model parameters.

Step one estimates the sums of squared proportions (Simpson indices) per
group and the cross-product sum from the data.  Step two inverts the
closed-form prior moments

    E(sum_m w_{1,m} w_{2,m})  = E(1/M)                      -> lambda
    E(sum_m w_{j,m}^2)        = (1+g_j) E(1/(1+g_j M))      -> gamma_j

The first equation involves only lambda; given lambda the two gamma
conditions decouple.  Each is one safeguarded Newton search on the log of
the parameter, from a start below the root and between brackets that follow
from bounds on the moment map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logmath import DomainError
from .mprior import (
    OneShiftedPoisson,
    PriorWindow,
    expected_inverse_m,
    prior_window,
)
from .vcoef import ModelParams


#: units of rounding of a window sum, with room: a moment within this many
#: ulp of its target is solved, no root is resolved more finely in relative
#: terms, and an ss whose rho (fit_gamma) is this close to 1 has none
_ULPS = 16
_ROUNDING = _ULPS * np.finfo(float).eps


class MomentRangeError(ValueError):
    """A sample moment falls outside the range attainable by the model."""


@dataclass(frozen=True)
class DiversityStats:
    """Per-group Simpson estimates, the cross-product sum, and Morisita."""

    ss1: float
    ss2: float
    cp: float
    mode: str

    @property
    def morisita(self) -> float:
        return 2.0 * self.cp / (self.ss1 + self.ss2)


def diversity_stats(table, mode: str = "plug_in") -> DiversityStats:
    """Estimate ss_j = sum of squared proportions and cp = cross products.

    ``plug_in`` uses the raw relative frequencies; ``unbiased`` replaces the
    within-group squares by n_l (n_l - 1) / (n (n - 1)), which is unbiased
    for the squared-proportion sum under multinomial sampling (cp is left
    as the plug-in cross product: it is already unbiased across independent
    groups).
    """
    c1 = np.asarray(table.counts1, dtype=float)
    c2 = np.asarray(table.counts2, dtype=float)
    n1, n2 = c1.sum(), c2.sum()
    if n1 < 1 or n2 < 1:
        raise DomainError("each group needs at least one observation")
    if mode == "plug_in":
        ss1 = float(np.sum((c1 / n1) ** 2))
        ss2 = float(np.sum((c2 / n2) ** 2))
    elif mode == "unbiased":
        if n1 < 2 or n2 < 2:
            raise DomainError("unbiased mode needs n_j >= 2")
        ss1 = float(np.sum(c1 * (c1 - 1.0)) / (n1 * (n1 - 1.0)))
        ss2 = float(np.sum(c2 * (c2 - 1.0)) / (n2 * (n2 - 1.0)))
    else:
        raise DomainError(f"unknown estimator mode {mode!r}")
    cp = float(np.sum((c1 / n1) * (c2 / n2)))
    return DiversityStats(ss1=ss1, ss2=ss2, cp=cp, mode=mode)


def _solve_increasing(f, lo: float, start: float, hi: float, target: float,
                      what: str) -> float:
    """Root of f(x) = F(x) - target, F increasing, inside (lo, hi), where
    F(lo) < target < F(hi) unless rounding put the root out of reach.

    Newton's method on log x from ``start``, safeguarded as rtsafe
    (Numerical Recipes, section 9.4): ``f(x)`` returns f and its slope
    df / dlog x, each point evaluated replaces the bracket end on its side,
    and a step that would leave the bracket, or that is not half the step
    before the last, bisects instead.  The ends themselves are never evaluated.
    Stops once |f| is within ``_ULPS`` ulp of the target, or a Newton step
    is below ``_ROUNDING``; a bracket that closes on an end no evaluated
    point replaced means rounding put the root there.
    """
    a, b = math.log(lo), math.log(hi)
    x = math.log(start) if lo < start < hi else 0.5 * (a + b)
    slack, closed = _ULPS * math.ulp(target), [False, False]  # ends replaced
    older = last = b - a  # the steps before the last and the last
    while True:
        fx, slope = f(math.exp(x))
        if abs(fx) <= slack:
            return math.exp(x)
        if fx < 0.0:
            a, closed[0] = x, True
        else:
            b, closed[1] = x, True
        if b - a <= _ROUNDING * (1.0 + abs(a) + abs(b)):
            if not all(closed):
                raise MomentRangeError(
                    f"rounding puts the root for {what} outside [{lo:.6g}, {hi:.6g}]")
            return math.exp(0.5 * (a + b))
        step = fx / slope if slope > 0.0 else math.inf
        newton = a < x - step < b and abs(2.0 * step) <= abs(older)
        if not newton:
            step = x - 0.5 * (a + b)
        older, last = last, step
        x -= step
        if newton and abs(step) <= _ROUNDING * (1.0 + abs(x)):
            return math.exp(x)


def expected_cross_moment(lam: float) -> float:
    """Forward map lambda -> E(1/M) = (1 - e^{-lam}) / lam."""
    return expected_inverse_m(OneShiftedPoisson(lam))


def _simpson_pass(gamma: float, window: PriorWindow) -> tuple[float, float]:
    """h(gamma) = 1 - (1 + gamma) E(1/(1 + gamma M)) = gamma E[(M-1)/(1+gamma M)]
    and its slope dh / dlog gamma = gamma E[(M-1)/(1+gamma M)^2], from one
    pass over the window."""
    den = 1.0 + gamma * window.m
    u = (window.m - 1.0) / den
    h = gamma * window.mean(u)
    u /= den
    return h, gamma * window.mean(u)


def expected_simpson_moment(gamma: float, window: PriorWindow) -> float:
    """Forward map gamma -> (1 + gamma) E(1 / (1 + gamma M)) over the
    prior's window."""
    return 1.0 - _simpson_pass(gamma, window)[0]


def fit_lambda(cp: float) -> float:
    """Invert E(1/M) = cp for the species-count rate lambda.  The map
    (1 - e^{-lam})/lam falls from 1 to 0 with slope e^{-lam} - E(1/M) in
    log lam.  As 1/(1 + lam), 1 - lam/2 <= E(1/M) <= 1/lam, the root lies in
    [max(2(1 - cp), 1/cp - 1), 1/cp], and Newton's method starts at the
    lower end; the bracket is [1 - cp, 2/cp], as a tight end can be the root
    itself in floating point (lambda = 1/cp at small cp)."""
    if not (0.0 < cp < 1.0):
        raise MomentRangeError(
            f"cross-product moment must lie in (0, 1), got {cp}; a value at or "
            "above 1 has no positive-rate solution")

    def f(lam):
        moment = expected_cross_moment(lam)
        return cp - moment, moment - math.exp(-lam)

    return _solve_increasing(f, 1.0 - cp, max(2.0 * (1.0 - cp), 1.0 / cp - 1.0),
                             2.0 / cp, cp, f"cp = {cp}")


def fit_gamma(ss: float, window: PriorWindow) -> float:
    """Invert (1 + gamma) E(1/(1 + gamma M)) = ss for gamma > 0 over the
    prior's :class:`PriorWindow`.

    The moment decreases from 1 (gamma -> 0) to E(1/M) (gamma -> infinity).
    It is solved as h(gamma) = gamma E[(M-1)/(1+gamma M)] = 1 - ss, which
    does not cancel near ss = 1.  As gamma/(1+gamma) (1 - E(1/M)) <= h(gamma)
    <= gamma E[M-1], the root is in [(1-ss)/E[M-1], rho/(1-rho)],
    rho = (1-ss)/(1-E(1/M)); the bracket halves the lower end and takes
    (1+rho)/2 for rho at the upper one.  Newton's method starts at the
    root for a point mass at mu = E[M], gamma0 = (1-ss) / ((mu-1) - (1-ss) mu):
    (M-1)/(1+gamma M) is concave in M, so by Jensen's inequality h(gamma0)
    <= 1 - ss and gamma0 lies at or below the root.
    """
    if ss >= 1.0:
        raise MomentRangeError(
            f"Simpson moment {ss} >= 1, the gamma -> 0 limit; no root")
    excess, top = 1.0 - ss, window.mean((window.m - 1.0) / window.m)  # top = 1 - E(1/M)
    if excess >= top * (1.0 - _ROUNDING):
        raise MomentRangeError(
            f"Simpson moment {ss} is not above E(1/M) = {1.0 - top:.6g} by more "
            "than rounding, the gamma -> infinity limit; no root")
    rho, below = excess / top, window.mean(window.m - 1.0)  # below = E[M] - 1
    den = below - excess * (below + 1.0)  # positive but for rounding

    def f(g):
        h, slope = _simpson_pass(g, window)
        return h - excess, slope

    return _solve_increasing(f, 0.5 * excess / below,
                             excess / den if den > 0.0 else math.inf,
                             (1.0 + rho) / (1.0 - rho), excess, f"ss = {ss}")


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    stats: DiversityStats
    lambda_residual: float
    gamma1_residual: float
    gamma2_residual: float
    #: whether ``fit_all(..., clamp=True)`` moved cp or either ss
    moved: bool

    @property
    def lam(self) -> float:
        return self.params.m_prior.lam


def fit_all(table, mode: str = "plug_in", *, clamp: bool = False) -> FitResult:
    """Two-step fit: lambda from the cross products, then each gamma from
    its group's Simpson moment, over one window of the fitted prior.

    ``clamp`` moves the moments into the ranges the model attains, so the
    experiment harnesses get an estimate for every sample: cp into
    [1/(n1 n2), 1 - 1e-10] (1/(n1 n2): the least cp with a shared species),
    each ss to 1e-9 of the width of (E(1/M), 1) inside it; the result's
    ``moved`` says whether any moment moved.  Residuals are those of the
    moments solved for.
    """
    stats = diversity_stats(table, mode)
    cp, targets = stats.cp, [stats.ss1, stats.ss2]
    if clamp:
        cp = min(max(cp, 1.0 / (table.n1 * table.n2)), 1.0 - 1e-10)
    prior = OneShiftedPoisson(fit_lambda(cp))
    if clamp:
        lower = expected_inverse_m(prior)
        margin = 1e-9 * (1.0 - lower)
        targets = [min(max(ss, lower + margin), 1.0 - margin) for ss in targets]
    window = prior_window(prior)
    gammas = [fit_gamma(ss, window) for ss in targets]
    residuals = [abs(_simpson_pass(g, window)[0] - (1.0 - ss))
                 for g, ss in zip(gammas, targets)]
    moved = (cp, *targets) != (stats.cp, stats.ss1, stats.ss2)
    return FitResult(ModelParams(*gammas, m_prior=prior), stats,
                     abs(expected_cross_moment(prior.lam) - cp), *residuals, moved)
