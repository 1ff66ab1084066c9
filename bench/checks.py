"""Checks of the program's outputs.  Each raises CheckError on a wrong output
and otherwise returns the output's correct digits (or None).

The tolerances below are the ones the README states.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from harness import CheckError, digits_from_error, require

#: pdf, cdf and survival against the 50-digit reference, where the true cdf >= BULK_CDF.
REL_TOL = 5e-7
BULK_CDF = 1e-3
#: cdf and survival against the reference where the true cdf < BULK_CDF (left
#: tail).  Absolute: 1 - survival cancels there (F1), and at n = 32 some seeds
#: are off by 2e-12.
TAIL_ABS_TOL = 1e-9
#: |cdf + survival - 1| along a grid.
SUM_TOL = 1e-12
#: Largest decrease of the cdf between neighbouring grid points.
MONOTONE_TOL = 1e-9
#: |F(quantile(p)) - p| with F the 50-digit cdf.
QUANTILE_TOL = 1e-10
#: KS level of the sample checks and CLT width (in standard errors) of sample means.
KS_ALPHA = 1e-8
MEAN_Z = 6.0
#: Coefficients of a solved series that must vanish: |a_k| <= SERIES_TOL * max(1, a_1^k).
SERIES_TOL = 1e-9
#: c_k, d_k against the exact fractions (relative); c_1 against 0 (relative to sum mu).
STRUCTURAL_TOL = 1e-8
#: c_1 = 0 and d_1 = 1 on seeded scales, as a share of the magnitudes summed
#: (sum |w_j| mu_j^(k-1) and so on): the rounding a signed sum of that size allows.
#: At n = 32 the weights reach 1e7 and d_1 misses 1 by 7e-8 (seed 14).
ROUNDING_TOL = 1e-12
#: fitted_lambda against 1 / mean, with the mean summed exactly.
LAMBDA_TOL = 1e-12
#: Convolution oracle: sup distance <= CONV_C * step^2, mass within CONV_MASS_TOL of the cdf.
CONV_C = 2.0
CONV_MASS_TOL = 1e-6
#: Probability that the null-rejection bound is exceeded by a test of nominal size.
NULL_BOUND_LEVEL = 1e-6


def _rel(value: float, ref: float) -> float:
    if ref == 0.0:
        return abs(value)
    return abs(value - ref) / abs(ref)


def ks_critical(alpha: float, count: int) -> float:
    """Asymptotic Kolmogorov critical value sqrt(-ln(alpha/2)/2)/sqrt(count)."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(count)


def ks_statistic(draws: np.ndarray, cdf) -> float:
    """Sup distance between the empirical cdf of ``draws`` and ``cdf``."""
    x = np.sort(draws)
    f = cdf(x)
    n = len(x)
    upper = np.arange(1, n + 1) / n
    return float(max(np.max(upper - f), np.max(f - (upper - 1.0 / n))))


def against_reference(kind: str, values: Sequence[float], refs: Sequence[tuple]) -> float:
    """pdf, cdf or survival values against reference rows (pdf, sf, cdf).

    Relative tolerance where the true cdf is at least BULK_CDF.  In the left
    tail below it, cdf and survival are held to TAIL_ABS_TOL absolute and the
    pdf is not compared; relative accuracy there is counted by the fixed F1
    cases.  Returns the digits of the bulk points.
    """
    column = {"pdf": 0, "survival": 1, "cdf": 2}[kind]
    worst = 0.0
    for value, row in zip(values, refs):
        ref = row[column]
        if row[2] >= BULK_CDF:
            err = _rel(float(value), ref)
            require(err <= REL_TOL, f"{kind} {value!r} vs reference {ref!r}: relative error {err:.2e}")
            worst = max(worst, err)
        elif kind != "pdf":
            err = abs(float(value) - ref)
            require(err <= TAIL_ABS_TOL, f"left-tail {kind} {value!r} vs reference {ref!r}")
    return digits_from_error(worst)


def relative(what: str, value: float, ref: float) -> float:
    """One value against its reference at REL_TOL, wherever it lies."""
    err = _rel(float(value), ref)
    require(err <= REL_TOL, f"{what} = {value!r} vs reference {ref!r}: relative error {err:.2e}")
    return digits_from_error(err)


def grid_properties(pdf: np.ndarray, cdf: np.ndarray, survival: np.ndarray) -> None:
    """pdf >= 0, cdf + survival = 1 and a cdf that does not decrease along the grid."""
    require(bool(np.all(np.isfinite(pdf))) and bool(np.all(np.isfinite(cdf))), "non-finite values")
    require(bool(np.all(pdf >= 0.0)), f"pdf < 0 at {int(np.argmin(pdf))}")
    gap = float(np.max(np.abs(cdf + survival - 1.0)))
    require(gap <= SUM_TOL, f"cdf + survival differs from 1 by {gap:.2e}")
    drop = float(np.min(np.diff(cdf))) if len(cdf) > 1 else 0.0
    require(drop >= -MONOTONE_TOL, f"cdf decreases by {-drop:.2e} along the grid")


def quantiles(ps: Sequence[float], qs: Sequence[float], ref) -> float:
    """F(q) within QUANTILE_TOL of p under the 50-digit cdf, q increasing in p.

    Returns the digits of q itself: |F(q) - p| / (f(q) q).
    """
    require(len(ps) == len(qs), "quantile count differs")
    require(all(b > a for a, b in zip(qs, qs[1:])), "quantiles do not increase with p")
    worst = 0.0
    for p, q in zip(ps, qs):
        pdf, _, cdf = ref.all(q)
        miss = abs(cdf - p)
        require(miss <= QUANTILE_TOL, f"F(quantile({p})) = {cdf!r}, off by {miss:.2e}")
        worst = max(worst, miss / (pdf * q))
    return digits_from_error(worst)


def sample(draws: np.ndarray, count: int, ref, mean: float, variance: float) -> None:
    """KS distance below its critical value at KS_ALPHA; mean within MEAN_Z standard errors."""
    require(len(draws) == count and bool(np.all(draws > 0.0)), "wrong draw count or non-positive draws")
    ks = ks_statistic(draws, ref.cdf_array)
    crit = ks_critical(KS_ALPHA, count)
    require(ks <= crit, f"KS distance {ks:.4g} above critical value {crit:.4g}")
    err = abs(float(np.mean(draws)) - mean)
    bound = MEAN_Z * math.sqrt(variance / count)
    require(err <= bound, f"sample mean off by {err:.4g} > {bound:.4g}")


def solved_series(series: Sequence[float], a1: float, is_exponential: bool) -> float:
    """A solved series must be (1, a1, 0, ...) and flagged exponential."""
    require(series[0] == 1.0, f"a_0 = {series[0]!r}")
    errs = [_rel(series[1], a1)]
    for k, c in enumerate(series[2:], start=2):
        errs.append(abs(c) / max(1.0, a1**k))
    worst = max(errs)
    require(worst <= SERIES_TOL, f"series is not (1, a1, 0, ...): worst coefficient error {worst:.2e}")
    require(is_exponential is True, "is_exponential is not true")
    return digits_from_error(worst)


def residual_verdict(payload: dict, code: int, compatible: bool, first_k: Optional[int]) -> Optional[float]:
    """Verdict, first violating order and exit code of a residual check.

    For a compatible candidate returns the digits of the largest residual
    (the equations have unit-size targets).
    """
    if compatible:
        require(payload["verdict"] == "exponential-compatible", f"verdict {payload['verdict']!r}")
        require(code == 0, f"exit code {code} for a compatible candidate")
        return digits_from_error(max(abs(r) for r in payload["residuals"]))
    require(payload["verdict"] == "incompatible", f"verdict {payload['verdict']!r}")
    require(payload["first_violation_k"] == first_k,
            f"first violation at k={payload['first_violation_k']}, expected {first_k}")
    require(code == 2, f"exit code {code} for an incompatible candidate")
    return None


def structural_signs(kind: str, values: Sequence[float], first_tol: float) -> None:
    """c_1 = 0 or d_1 = 1 within ``first_tol``; c_k < 0 or d_k > 0 for k >= 2."""
    if kind == "c":
        require(abs(values[0]) <= first_tol, f"c_1 = {values[0]!r} is not 0")
        require(all(v < 0.0 for v in values[1:]), "some c_k >= 0")
    else:
        require(abs(values[0] - 1.0) <= first_tol, f"d_1 = {values[0]!r} is not 1")
        require(all(v > 0.0 for v in values[1:]), "some d_k <= 0")


def structural_exact(kind: str, values: Sequence[float], exact: Sequence, sum_mu: float) -> float:
    """c_k or d_k against exact fractions (c_1 against 0 relative to sum mu), plus the signs."""
    require(len(values) == len(exact), f"{len(values)} coefficients, expected {len(exact)}")
    structural_signs(kind, values, STRUCTURAL_TOL * (sum_mu if kind == "c" else 1.0))
    worst = abs(values[0]) / sum_mu if kind == "c" else 0.0
    for v, e in zip(values, exact):
        if e != 0:
            worst = max(worst, _rel(v, float(e)))
    require(worst <= STRUCTURAL_TOL, f"{kind}_k off the exact values by {worst:.2e}")
    return digits_from_error(worst)


def fitted_lambda(report: dict, inverse_mean: float) -> float:
    """fitted_lambda = 1 / mean; ``inverse_mean`` comes from an exact sum (math.fsum)."""
    err = _rel(report["fitted_lambda"], inverse_mean)
    require(err <= LAMBDA_TOL, f"fitted_lambda {report['fitted_lambda']!r} vs 1/mean {inverse_mean!r}")
    return digits_from_error(err)


def exponentiality_report(report: dict, count: int, inverse_mean: float, n: int,
                          must_reject: bool) -> float:
    """Counts, verdict consistency, fitted lambda, and rejection where required."""
    require(report["n_observations"] == count, "n_observations differs from the data size")
    require(report["n_tuples"] == count // n, "n_tuples differs from N // n")
    rejected = report["statistic"] > report["threshold"]
    require((report["verdict"] == "reject") == rejected, "verdict contradicts statistic and threshold")
    if must_reject:
        require(report["verdict"] == "reject", "alternative data not rejected")
    return fitted_lambda(report, inverse_mean)


def null_rejection_bound(trials: int, alpha: float, level: float = NULL_BOUND_LEVEL) -> int:
    """Smallest b with P(Binomial(trials, alpha) > b) <= level."""
    tail = 1.0
    for b in range(trials + 1):
        tail -= math.comb(trials, b) * alpha**b * (1 - alpha) ** (trials - b)
        if tail <= level:
            return b
    return trials


def null_rejections(verdicts: Sequence[str], alpha: float) -> None:
    rejected = sum(v == "reject" for v in verdicts)
    bound = null_rejection_bound(len(verdicts), alpha)
    require(rejected <= bound, f"{rejected} of {len(verdicts)} null data sets rejected (bound {bound})")


def convolution(grid: np.ndarray, values: np.ndarray, step: float, integral: float, ref) -> float:
    """Sup distance to the density within CONV_C step^2; mass matches the cdf.

    Returns the digits of the sup distance relative to the peak density.
    """
    exact = ref.pdf_array(grid)
    sup = float(np.max(np.abs(values - exact)))
    require(sup <= CONV_C * step**2, f"sup distance {sup:.3e} above {CONV_C} * step^2")
    mass = ref.cdf(float(grid[-1]))
    require(abs(integral - mass) <= CONV_MASS_TOL, f"mass {integral!r} vs cdf {mass!r}")
    return digits_from_error(sup / float(np.max(exact)))
