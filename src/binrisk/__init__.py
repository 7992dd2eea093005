"""Bayesian estimation and predictive density estimation for the binomial
distribution with a restricted probability parameter, plus numerical
dominance certification of truncated versus untruncated beta priors.

The package root exports the descriptors, the two tables, the typed
numerical errors and the top-level entry points; everything else is
reached through its module. Importing the root loads no submodule: a
name imports its home module on first use (PEP 562).
"""

from importlib import import_module

_HOMES = {
    "BinomialSetup": "binom",
    "BracketOverflowError": "incbeta",
    "BoundUndefinedError": "dominance",
    "EstimateTable": "estimators",
    "PoissonConfig": "poisson",
    "PredictiveTable": "predictive",
    "PriorSpec": "binom",
    "RiskCurves": "dominance",
    "SingularBoundError": "incbeta",
    "bayes_predictive": "predictive",
    "connection_sum": "risk",
    "dominance_threshold_n1": "dominance",
    "exhaustive_dominance_check": "dominance",
    "limit_convergence_report": "poisson",
    "point_risk": "risk",
    "posterior_mean": "estimators",
    "predictive_kl_risk": "risk",
    "risk_curves": "dominance",
}
__all__ = list(_HOMES)


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
