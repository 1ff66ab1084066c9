"""Hypoexponential distributions and the exponential characterization verifier."""

import importlib

from .core import (
    BINOMIAL_CAP,
    DEFAULT_ORDER,
    DEFAULT_SEED,
    DEFAULT_TOL,
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
from . import errors

#: Modules loaded on first access (PEP 562), with the names they export:
#: ``import hypoexp`` runs only ``core`` and ``errors``, and only the oracles
#: import numpy at import time.
_LAZY = {
    "series": ("Series", "product_of_scaled"),
    "characterize": (
        "ExponentialVerdict", "Lemma2Report", "ResidualReport", "StructuralCoefficients",
        "c_coefficients", "d_coefficients", "forward_solve_theorem1",
        "forward_solve_theorem2", "is_exponential_series", "lemma2_check",
        "residual_h", "residual_q",
    ),
    "oracles": (
        "GridDensity", "TestReport", "convolve_numeric", "exponentiality_test",
        "ks_critical", "ks_distance",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


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
