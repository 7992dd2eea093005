"""Bayesian estimation and predictive density estimation for the binomial
distribution with a restricted probability parameter, plus numerical
dominance certification of truncated versus untruncated beta priors.

The package root exports the descriptors, the two tables, the typed
numerical errors and the top-level entry points; everything else is
reached through its module.
"""

from .binom import BinomialSetup, PriorSpec
from .dominance import (
    BoundUndefinedError,
    dominance_threshold_n1,
    exhaustive_dominance_check,
)
from .estimators import EstimateTable, posterior_mean
from .incbeta import BracketOverflowError, SingularBoundError
from .poisson import PoissonConfig, limit_convergence_report
from .predictive import PredictiveTable, bayes_predictive
from .risk import connection_sum, point_risk, predictive_kl_risk

__all__ = [
    "BinomialSetup",
    "BracketOverflowError",
    "BoundUndefinedError",
    "EstimateTable",
    "PoissonConfig",
    "PredictiveTable",
    "PriorSpec",
    "SingularBoundError",
    "bayes_predictive",
    "connection_sum",
    "dominance_threshold_n1",
    "exhaustive_dominance_check",
    "limit_convergence_report",
    "point_risk",
    "posterior_mean",
    "predictive_kl_risk",
]
