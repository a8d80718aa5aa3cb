"""Self-contained numerical validation suite: normalization grids,
enumeration-oracle equivalence, V-coefficient identities, one-step
consistency, and Monte-Carlo agreement.

Each check reports the measured quantity next to its tolerance so failures
are diagnosable from the report alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import insample, prediction, simulate
from .gfc import build_central_table
from .mprior import OneShiftedPoisson
from .vcoef import ModelParams, VCoefficients, log_v


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured,
                "threshold": self.threshold, "passed": self.passed,
                "detail": self.detail}


def _result(name: str, measured: float, threshold: float,
            detail: str = "") -> CheckResult:
    return CheckResult(name=name, measured=measured, threshold=threshold,
                       passed=measured <= threshold, detail=detail)


#: the default parameter grid: concentrations, then prior rates
GAMMAS, LAMBDAS = (0.3, 1.0, 3.0), (0.5, 2.0, 8.0)
#: the grid's corners, for the costlier checks
CORNER_GAMMAS, CORNER_LAMBDAS = (GAMMAS[0], GAMMAS[-1]), (LAMBDAS[0], LAMBDAS[-1])


def grid_params(gammas=GAMMAS, lams=LAMBDAS):
    for g1 in gammas:
        for g2 in gammas:
            for lam in lams:
                yield ModelParams(g1, g2, OneShiftedPoisson(lam))


def _default_state(n1: int, n2: int, shared: bool) -> prediction.ObservedState:
    """A deterministic observed state for posterior checks: either maximal
    sharing or disjoint species sets, at roughly half saturation."""
    r1 = max(1, n1 // 2)
    r2 = max(1, n2 // 2)
    r = max(r1, r2) if shared else r1 + r2
    return prediction.ObservedState(n1=n1, n2=n2, r1=r1, r2=r2, r=r)


def check_normalization(max_n: int = 4, max_m: int = 2, *,
                        gammas=CORNER_GAMMAS, lams=CORNER_LAMBDAS,
                        tol: float = 1e-8) -> CheckResult:
    """All pmfs sum to one across a parameter/size grid."""
    worst = 0.0
    where = ""
    for params in grid_params(gammas, lams):
        vc = VCoefficients(params)
        for n1 in range(1, max_n + 1):
            for n2 in range(1, max_n + 1):
                tables = {
                    "joint": insample.prior_joint(vc, n1, n2),
                    "global": insample.prior_marginal_global(vc, n1, n2),
                    "global_shared": insample.prior_joint_global_shared(vc, n1, n2),
                    "shared": insample.prior_marginal_shared(vc, n1, n2),
                    "local": insample.prior_local(vc, n1, 1),
                    "local2": insample.prior_local(vc, n2, 2),
                }
                for shared in (True, False):
                    state = _default_state(n1, n2, shared)
                    tables["posterior_m"] = prediction.posterior_m_pmf(vc, state)
                    tables["one_step"] = prediction.one_step_shared_pmf(vc, state)
                    for m1 in range(0, max_m + 1):
                        for m2 in range(0, max_m + 1):
                            tables[f"joint_new_{m1}{m2}"] = \
                                prediction.posterior_joint_new(vc, state, m1, m2)
                            tables[f"global_new_{m1}{m2}"] = \
                                prediction.posterior_marginal_global_new(
                                    vc, state, m1, m2)
                    tables["local_new"] = prediction.posterior_local_new(
                        vc, state, max_m, 1)
                    for name, table in tables.items():
                        gap = abs(table.total_mass() - 1.0)
                        if gap > worst:
                            worst = gap
                            where = f"{name} at n=({n1},{n2}), params={params}"
    return _result("pmf_normalization", worst, tol, where)


def check_bruteforce(params_points=None, tol: float = 1e-10) -> CheckResult:
    """Exact joint in-sample law equals the exhaustive enumeration oracle."""
    if params_points is None:
        params_points = [ModelParams(0.7, 1.4, OneShiftedPoisson(2.0)),
                         ModelParams(2.0, 0.5, OneShiftedPoisson(0.8))]
    worst = 0.0
    where = ""
    for params in params_points:
        vc = VCoefficients(params)
        for n1, n2 in ((1, 1), (2, 2), (3, 2)):
            oracle = simulate.bruteforce_prior(params, n1, n2)
            exact = insample.prior_joint(vc, n1, n2)
            keys = set(oracle.support()) | set(exact.support())
            gap = max(abs(oracle.prob(k) - exact.prob(k)) for k in keys)
            if gap > worst:
                worst = gap
                where = f"n=({n1},{n2}), params={params}"
    return _result("bruteforce_equivalence", worst, tol, where)


def check_recurrence(tol: float = 1e-8) -> CheckResult:
    """Residual of the V-coefficient recurrence identity across a grid."""
    worst = 0.0
    where = ""
    for params in grid_params(gammas=(0.5, 2.0), lams=(1.0, 5.0)):
        vc = VCoefficients(params)
        for n1 in range(0, 4):
            for n2 in range(0, 4):
                for r in range(1, 4):
                    if n1 + n2 > 0 and r > n1 + n2:
                        continue
                    res = vc.check_recurrence(n1, n2, r)
                    if res > worst:
                        worst = res
                        where = f"(n1={n1}, n2={n2}, r={r}), params={params}"
    return _result("v_recurrence_residual", worst, tol, where)


def check_cap_doubling(tol: float = 1e-12) -> CheckResult:
    """Doubling the series term cap leaves V unchanged to relative tol."""
    worst = 0.0
    for params in grid_params(CORNER_GAMMAS, CORNER_LAMBDAS):
        for (n1, n2, r) in ((5, 5, 3), (2, 6, 4), (6, 1, 2)):
            base = log_v(n1, n2, r, params, max_terms=10**6)
            doubled = log_v(n1, n2, r, params, max_terms=2 * 10**6)
            worst = max(worst, abs(math.expm1(doubled - base)))
    return _result("v_cap_doubling", worst, tol)


def check_single_group_normalization(max_n: int = 10,
                                     tol: float = 1e-10) -> CheckResult:
    """sum_r V^r_n |C(n, r; -gamma)| = 1 for the single-group reduction."""
    worst = 0.0
    for gamma in GAMMAS:
        for lam in LAMBDAS:
            params = ModelParams(gamma, 1.0, OneShiftedPoisson(lam))
            table = build_central_table(gamma, max_n)
            for n in range(1, max_n + 1):
                total = math.fsum(
                    math.exp(log_v(n, 0, r, params) + table[n, r])
                    for r in range(1, n + 1))
                worst = max(worst, abs(total - 1.0))
    return _result("single_group_normalization", worst, tol)


def check_one_step_identities(tol: float = 1e-12) -> CheckResult:
    """Discovery probability, coverage at (1, 1), and the pair-cell table
    all describe the same one-step law."""
    worst = 0.0
    params = ModelParams(1.2, 0.7, OneShiftedPoisson(2.5))
    vc = VCoefficients(params)
    for state in (prediction.ObservedState(5, 4, 3, 2, 4),
                  prediction.ObservedState(3, 3, 2, 2, 2),
                  prediction.ObservedState(6, 2, 2, 1, 3)):
        pmf = prediction.one_step_shared_pmf(vc, state)
        disc = prediction.one_step_discovery_prob(vc, state)
        cov = prediction.shared_coverage_prob(vc, state, 1, 1)
        worst = max(worst, abs(disc - (1.0 - pmf.prob(0))))
        worst = max(worst, abs(cov - pmf.prob(0)))
        pair = prediction.predictive_pair_probs(vc, state)
        worst = max(worst, abs(pair.normalizer_ratio - 1.0))
        # the same-new-species slice of the (new, new) cell is the
        # coefficient-1 part of the s = 1 mass
        g1, g2 = params.gamma1, params.gamma2
        log_v_obs = vc.log_v(state.n1, state.n2, state.r)
        lv1 = vc.log_v(state.n1 + 1, state.n2 + 1, state.r + 1)
        same_new = math.exp(lv1 - log_v_obs) * g1 * g2
        s1_brand_new = same_new * 1.0
        s1_rest = math.exp(vc.log_v(state.n1 + 1, state.n2 + 1, state.r)
                           - log_v_obs) * (
            state.r2_star * g1 * (g2 * state.r2 + state.n2)
            + state.r1_star * g2 * (g1 * state.r1 + state.n1))
        s1_cross = same_new * (state.r1_star + state.r2_star)
        worst = max(worst, abs(pmf.prob(1) - (s1_rest + s1_cross + s1_brand_new)))
    return _result("one_step_identities", worst, tol)


def check_monte_carlo(n_draws: int = 50_000, tol: float = 0.03,
                      seed: int = 321) -> CheckResult:
    """Conditional sampler total-variation agreement with the joint law."""
    params = ModelParams(1.2, 0.7, OneShiftedPoisson(2.5))
    vc = VCoefficients(params)
    state = prediction.ObservedState(n1=3, n2=3, r1=2, r2=2, r=3,
                                     counts1=(2, 1, 0), counts2=(1, 0, 2))
    draws = simulate.conditional_future_draws(vc, state, 2, 2, n_draws, seed)
    emp = simulate.empirical_pmf(draws)
    exact = prediction.posterior_joint_new(vc, state, 2, 2)
    tv = simulate.tv_distance(emp, exact)
    return _result("monte_carlo_tv", tv, tol, f"{n_draws} draws")


def run_all(*, fast: bool = True) -> list[CheckResult]:
    """The validation battery; ``fast`` trims grid sizes for CLI use."""
    return [
        check_normalization(max_n=3 if fast else 4, max_m=2),
        check_bruteforce(),
        check_recurrence(),
        check_cap_doubling(),
        check_single_group_normalization(),
        check_one_step_identities(),
        check_monte_carlo(n_draws=50_000 if fast else 200_000),
    ]
