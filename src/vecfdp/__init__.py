"""Shared-species analysis for abundance data collected in two areas.

The model places a common, finite but random species pool behind both
areas: given the pool size M, each area gets its own symmetric-Dirichlet
proportions over the shared species.  Everything downstream is exact:
in-sample laws of distinct/shared species counts, posterior prediction of
unseen species in future samples of any sizes, discovery and coverage
probabilities, and a diversity-based moment fit of the parameters.
"""

__version__ = "0.1.0"

from .abundance import AbundanceTable, ants_csv_path, ants_table, from_counts, ingest
from .estimation import DiversityStats, diversity_stats, fit_all, fit_gamma, fit_lambda
from .insample import (
    correlation,
    expected_in_sample,
    prior_joint,
    prior_joint_global_shared,
    prior_local,
    prior_marginal_global,
    prior_marginal_shared,
)
from .mprior import MPrior, OneShiftedPoisson, PointMass, TabulatedPrior
from .pmftable import PmfTable
from .prediction import (
    ExpectedNew,
    ObservedState,
    expected_new,
    extrapolation_curves,
    one_step_discovery_prob,
    one_step_shared_pmf,
    posterior_joint_new,
    posterior_local_new,
    posterior_m_mean,
    posterior_m_pmf,
    posterior_marginal_global_new,
    predictive_pair_probs,
    shared_coverage_prob,
    shared_pmf,
)
from .vcoef import ModelParams, VCoefficients, log_v

__all__ = [
    "AbundanceTable",
    "DiversityStats",
    "ExpectedNew",
    "MPrior",
    "ModelParams",
    "ObservedState",
    "OneShiftedPoisson",
    "PmfTable",
    "PointMass",
    "TabulatedPrior",
    "VCoefficients",
    "ants_csv_path",
    "ants_table",
    "correlation",
    "diversity_stats",
    "expected_in_sample",
    "expected_new",
    "extrapolation_curves",
    "fit_all",
    "fit_gamma",
    "fit_lambda",
    "from_counts",
    "ingest",
    "log_v",
    "one_step_discovery_prob",
    "one_step_shared_pmf",
    "posterior_joint_new",
    "posterior_local_new",
    "posterior_m_mean",
    "posterior_m_pmf",
    "posterior_marginal_global_new",
    "predictive_pair_probs",
    "prior_joint",
    "prior_joint_global_shared",
    "prior_local",
    "prior_marginal_global",
    "prior_marginal_shared",
    "shared_coverage_prob",
    "shared_pmf",
]
