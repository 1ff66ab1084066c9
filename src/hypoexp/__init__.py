"""Hypoexponential distributions and the exponential characterization verifier."""

import importlib

from .core import (
    BINOMIAL_CAP,
    DEFAULT_SEED,
    DISTINCTNESS_TOL,
    HypoexpDistribution,
    RateVector,
    ScaleVector,
    WeightVector,
    binomial_weights,
    complete_homogeneous,
    lagrange_weights,
    validate_rates,
    validate_scales,
    weights_from_scales,
)
from .series import Series, product_of_scaled
from .characterize import (
    DEFAULT_ORDER,
    DEFAULT_TOL,
    ExponentialVerdict,
    Lemma2Report,
    ResidualReport,
    StructuralCoefficients,
    c_coefficients,
    d_coefficients,
    forward_solve_theorem1,
    forward_solve_theorem2,
    is_exponential_series,
    lemma2_check,
    residual_h,
    residual_q,
)
from . import errors

#: Loaded on first access (PEP 562): only the oracles import numpy at import time.
_ORACLE_NAMES = {"GridDensity", "TestReport", "convolve_numeric",
                 "exponentiality_test", "ks_critical", "ks_distance"}


def __getattr__(name):
    if name == "oracles" or name in _ORACLE_NAMES:
        oracles = importlib.import_module(".oracles", __name__)
        return oracles if name == "oracles" else getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BINOMIAL_CAP",
    "DEFAULT_ORDER",
    "DEFAULT_SEED",
    "DEFAULT_TOL",
    "DISTINCTNESS_TOL",
    "ExponentialVerdict",
    "GridDensity",
    "HypoexpDistribution",
    "Lemma2Report",
    "RateVector",
    "ResidualReport",
    "ScaleVector",
    "Series",
    "StructuralCoefficients",
    "TestReport",
    "WeightVector",
    "binomial_weights",
    "c_coefficients",
    "complete_homogeneous",
    "convolve_numeric",
    "d_coefficients",
    "errors",
    "exponentiality_test",
    "forward_solve_theorem1",
    "forward_solve_theorem2",
    "is_exponential_series",
    "ks_critical",
    "ks_distance",
    "lagrange_weights",
    "lemma2_check",
    "product_of_scaled",
    "residual_h",
    "residual_q",
    "validate_rates",
    "validate_scales",
    "weights_from_scales",
]
