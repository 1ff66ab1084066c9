"""Mechanized verification of the exponential characterization equations.

Given distinct positive scales mu_1 > ... > mu_n with signed weights w_j, a
candidate reciprocal-transform series psi(t) = sum a_k t^k solves the
product/mixture identity iff

    sum_j w_j * prod_{i != j} psi(mu_i t)  ==  1            (density form)
    sum_j (w_j / mu_j) * prod_{i != j} psi(mu_i t)  ==  -t  (survival form)

as formal series.  The weights reach C(32, 16) ~ 6e8 on harmonic scales at
n = 32 and cancel, and they are not needed: with P(t) = prod_i psi(mu_i t) and
b = 1/psi, each leave-one-out product is P(t) b(mu_j t), and
sum_j w_j mu_j^k = h_k(mu), the complete homogeneous symmetric polynomial (a
divided difference of x^(n-1+k) over the nodes mu; de Boor, "Divided
differences", Surv. Approx. Theory 1, 2005).  So the two equations read

    P(t) * sum_k b_k h_k(mu) t^k  ==  1                     (density form)
    P(t) * sum_{k>=1} b_k h_{k-1}(mu) t^k  ==  -t           (survival form)

with one product chain and no signed sums.  This module computes the
per-order residuals of both equations, the structural coefficients
c_k = p_k - h_k and d_k = h_{k-1} (p_k = sum_i mu_i^k) that make each order's
equation linear in the highest unknown, and forward-solves those recursions
to exhibit the unique (exponential) solution at truncation order.  -c_k is
the sum of the mixed monomials of degree k, those in two or more distinct
scales, all positive: it is summed in the same pass as h_k, with no
subtraction, so no sign needs checking.  One walk serves residuals and
solves alike: it grows P and b one order at a time and either reports each
order's residual or solves that order for a_k.

Reading residuals: the order-k residual is judged against tol times the
largest term of that order.  When a_1 * max(mu) > 1 those terms grow like
(a_1 * max(mu))^k and cancel, so even an exact 1 + a_1 t shows residuals of
about 1e-16 * (a_1 * max(mu))^k; compare a residual with its order's term
scale, not with 1.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .core import (
    DEFAULT_ORDER,
    DEFAULT_TOL,
    RateVector,
    ScaleVector,
    _Record,
    check_tol,
    complete_homogeneous_table,
    lagrange_weights,
    report_dict,
)
from .errors import NotNormalizedError, ZeroDivisorError
from .series import ScaledProducts, Series, append_reciprocal

VERDICT_COMPATIBLE = "exponential-compatible"
VERDICT_INCOMPATIBLE = "incompatible"
VERDICT_DEGENERATE = "degenerate"


class ResidualReport(_Record):
    """Per-order residuals of a characterization equation.

    ``residuals[k]`` is the order-k residual, k = 0..order.  The verdict is
    incompatible exactly when some residual exceeds the scaled tolerance, in
    which case ``first_violation_k`` records the smallest offending order.
    """

    order: int
    residuals: tuple[float, ...]
    tolerance: float
    verdict: str
    first_violation_k: Optional[int] = None
    fitted_lambda: Optional[float] = None

    @property
    def compatible(self) -> bool:
        return self.verdict != VERDICT_INCOMPATIBLE

    def to_dict(self) -> dict:
        out = report_dict(self)
        if self.fitted_lambda is None:
            del out["fitted_lambda"]
        return out


class StructuralCoefficients(_Record):
    """Order-indexed linear coefficients of the forward recursions.

    ``kind`` is "c" (density-form equation: c_1 = 0, c_k < 0 for k >= 2) or
    "d" (survival-form equation: d_1 = 1, d_k > 0 for k >= 2).
    ``values[k-1]`` holds the coefficient at order k; ``term_scales[k-1]``
    records the scale it is judged against (h_k for c, h_{k-1} itself for
    d), the natural reference for "numerically zero" decisions (the
    coefficients themselves decay geometrically when all scales are below
    one).
    """

    kind: str
    values: tuple[float, ...]
    term_scales: tuple[float, ...]

    def at(self, k: int) -> float:
        if not 1 <= k <= len(self.values):
            raise IndexError(f"order {k} outside 1..{len(self.values)}")
        return self.values[k - 1]

    def scale_at(self, k: int) -> float:
        return self.term_scales[k - 1]


class Lemma2Report(_Record):
    """Residuals of the three weight identities plus the moment identity.

    ``power_sum_residuals[k-1]`` is sum_j w_j lambda_j^k for k = 1..n-1 (should
    vanish).  ``reciprocal_gaps[k-1]`` is sum_j w_j / lambda_j^k minus
    sum_j 1 / lambda_j^k for k = 1..order (zero at k=1, strictly positive
    after).  ``symmetric_residuals`` compares sum_j w_j / lambda_j^k against
    the complete homogeneous symmetric polynomial of the reciprocal rates.
    """

    order: int
    weight_sum_residual: float
    power_sum_residuals: tuple[float, ...]
    reciprocal_gaps: tuple[float, ...]
    symmetric_residuals: tuple[float, ...]
    tolerance: float
    passed: bool

    to_dict = report_dict


class ExponentialVerdict(_Record):
    """Outcome of testing whether a series is 1 + t/lambda."""

    is_exponential: bool
    fitted_lambda: Optional[float]
    degenerate: bool

    to_dict = report_dict


def _scaled_ok(value: float, scale: float, tol: float) -> bool:
    return abs(value) <= tol * max(1.0, scale)


def _beyond(quantity: str) -> OverflowError:
    return OverflowError(f"{quantity} is beyond the float range")


def _tail_scale(a1: float, k: int) -> float:
    """|a_1|^k, the scale of order k in the exponential-series tail test."""
    try:
        return abs(a1) ** k
    except OverflowError:
        raise _beyond(f"tail scale |a_1|^{k} of a_1 = {a1!r}") from None


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"truncation order {order!r} must be at least 1")


def _terms(
    make: Callable[[], list[float]], name: str, k: int
) -> tuple[list[float], float]:
    """``make()``'s terms and their largest magnitude.

    Raises OverflowError naming ``name``^k when a term leaves the float
    range: a power beyond it raises in ``**``, one that underflows to 0.0
    raises ZeroDivisionError in a reciprocal, and a subnormal one gives inf.
    """
    try:
        terms = make()
    except (OverflowError, ZeroDivisionError):
        terms = [math.inf]
    scale = max(abs(t) for t in terms)
    if scale == math.inf:
        raise _beyond(f"Lemma 2 term {name}^{k}")
    return terms, scale


def _sums(scales: tuple[float, ...], order: int) -> tuple[list[float], list[float]]:
    """h_0..h_order of the scales and the mixed sums m_0..m_order, in one pass.

    m_k = h_k - p_k sums the degree-k monomials in two or more distinct
    scales, so c_k = -m_k, here without a subtraction: scale x adds
    x^j * h_(k-j), j = 1..k-1, held in r.  h is updated as in
    ``complete_homogeneous_table`` and equals that table bit for bit.
    """
    h = [1.0] + [0.0] * order
    m = [0.0] * (order + 1)
    for x in scales:
        r = 0.0
        for k in range(1, order + 1):
            m[k] += x * r
            r = h[k] + x * r
            h[k] += x * h[k - 1]
    return h, m


def _check_finite(h: list[float]) -> None:
    """Raise OverflowError naming the first infinite h_k (every later one is
    infinite too, and m_k < h_k)."""
    if h[-1] == math.inf:
        raise _beyond(f"complete homogeneous sum h_{h.index(math.inf)} of the scales")


def c_coefficients(mu: ScaleVector, order: int) -> StructuralCoefficients:
    """c_k = p_k - h_k(mu) = -(sum of the mixed monomials of degree k), k = 1..order.

    Every mixed monomial is positive, so c_k is summed from them without
    cancellation: c_1 is +0.0, and c_k < 0 for k >= 2 unless the mixed sum
    underflows to 0.0.  The term scale of c_k is h_k.
    """
    _check_order(order)
    h, m = _sums(mu.scales, order)
    _check_finite(h)
    return StructuralCoefficients("c", tuple(0.0 - v for v in m[1:]), tuple(h[1:]))


def d_coefficients(mu: ScaleVector, order: int) -> StructuralCoefficients:
    """d_k = h_{k-1}(mu) = sum_j w_j mu_j^(k-1) for k = 1..order.

    d_1 = h_0 = 1 and d_k > 0 hold by construction.
    """
    _check_order(order)
    h = complete_homogeneous_table(mu.scales, order - 1)
    _check_finite(h)
    return StructuralCoefficients("d", tuple(h), tuple(h))


def lemma2_check(
    rates: RateVector, order: int = 12, tol: float = DEFAULT_TOL
) -> Lemma2Report:
    """Verify the weight-sum, power-sum, and reciprocal-power identities.

    The reciprocal-power gaps are formally guaranteed only up to k = n-1, but
    hold at every order; the sweep reports all k <= order.
    """
    _check_order(order)
    check_tol(tol)
    weights = lagrange_weights(rates)
    lam = rates.rates
    w = weights.weights
    n = rates.n

    ws_residual = math.fsum(w) - 1.0
    passed = _scaled_ok(ws_residual, max(abs(v) for v in w), tol)

    power_residuals = []
    for k in range(1, n):
        terms, scale = _terms(
            lambda: [wj * lj**k for wj, lj in zip(w, lam)], "w_j * lambda_j", k
        )
        r = math.fsum(terms)
        power_residuals.append(r)
        passed &= _scaled_ok(r, scale, tol)

    gaps = []
    symmetric_residuals = []
    h = complete_homogeneous_table([1.0 / lj for lj in lam], order)
    for k in range(1, order + 1):
        # w_1 >= 1 at the smallest rate, so 1 / lambda_j^k is finite when these are.
        terms, scale = _terms(
            lambda: [wj / lj**k for wj, lj in zip(w, lam)], "w_j / lambda_j", k
        )
        weighted = math.fsum(terms)
        plain = math.fsum(1.0 / lj**k for lj in lam)
        gap = weighted - plain
        gaps.append(gap)
        if k == 1:
            passed &= _scaled_ok(gap, scale, tol)
        else:
            passed &= gap > 0.0
        sym = weighted - h[k]
        symmetric_residuals.append(sym)
        passed &= _scaled_ok(sym, max(scale, abs(h[k])), tol)

    return Lemma2Report(
        order=order,
        weight_sum_residual=ws_residual,
        power_sum_residuals=tuple(power_residuals),
        reciprocal_gaps=tuple(gaps),
        symmetric_residuals=tuple(symmetric_residuals),
        tolerance=tol,
        passed=passed,
    )


def _normalize(psi: Series) -> Series:
    a0 = psi.coefficients[0]
    if a0 == 1.0:
        return psi
    try:
        return Series(tuple(c * (1.0 / a0) for c in psi.coefficients))
    except (ZeroDivisionError, ValueError):
        raise NotNormalizedError(
            f"constant term {a0!r} cannot be normalized to 1"
        ) from None


def _orders(
    mu: ScaleVector, coeffs: list[float], survival: bool, solve: bool = False
) -> tuple[list[float], list[float]]:
    """Order by order, the coefficient of P(t) * sum_k b_k g_k t^k minus the target.

    P = prod_i psi(mu_i t) and b = 1/psi, psi = sum_k coeffs[k] t^k, grow one
    order per step; g_k is h_k(mu) (density form) or h_{k-1}(mu), g_0 = 0
    (survival form).  Without ``solve``: each order's residual and largest
    term.  With it, a_k from the first free order up is unknown and 0 in
    ``coeffs``: order k reads value - L_k * a_k = 0, value being its residual
    at a_k = 0 (a_k enters P_k as p_k a_k and b_k as -a_k).  Survival form:
    L_k = d_k, free from order 1.  Density form: L_k = -c_k = m_k, free from
    order 2.  Solved, a_k replaces its 0, order k is grown again with it, and the
    lists stay empty.  Raises OverflowError naming the order where P, b, the
    residual or a solved a_k leaves the float range.
    """
    target = {1: -1.0} if survival else {0: 1.0}  # the right-hand side, -t or 1
    last = len(coeffs) - 1
    h, mixed = _sums(mu.scales, last - 1 if survival else last)
    moments = [0.0] + h if survival else h
    if solve:
        _check_finite(h)
    chain = ScaledProducts(mu.scales)
    product = chain.product
    recip: list[float] = []
    residuals, scales = [], []
    try:
        for k in range(last + 1):
            chain.grow(coeffs[k])
            append_reciprocal(coeffs, recip)
            if solve and k < (1 if survival else 2):
                continue
            terms = [product[i] * recip[k - i] * moments[k - i] for i in range(k + 1)]
            value = math.fsum(terms) - target.get(k, 0.0)
            if solve:
                lk, scale = (h[k - 1], h[k - 1]) if survival else (mixed[k], h[k])
                if lk <= 1e-13 * scale:
                    name = f"d_{k} = {lk!r}" if survival else f"c_{k} = {0.0 - lk!r}"
                    raise ZeroDivisorError(f"{name} is numerically zero")
                value /= lk
            if not math.isfinite(value):
                raise OverflowError
            if not solve:
                residuals.append(value)
                scales.append(max(abs(t) for t in terms))
                continue
            coeffs[k] = value
            if k < last:
                chain.undo()
                recip.pop()
                chain.grow(value)
                append_reciprocal(coeffs, recip)
    except (OverflowError, ValueError):
        form = "survival" if survival else "density"
        raise _beyond(f"order {k} of the {form}-form equation") from None
    return residuals, scales


def _residual(
    psi: Series, mu: ScaleVector, survival: bool, tol: float
) -> ResidualReport:
    check_tol(tol)
    psi = _normalize(psi)
    residuals, scales = _orders(mu, list(psi.coefficients), survival)
    violation = None
    fitted = None
    for k, (r, s) in enumerate(zip(residuals, scales)):
        if not _scaled_ok(r, s, tol):
            violation = k
            break
    if violation is not None:
        verdict = VERDICT_INCOMPATIBLE
    elif all(abs(c) <= tol for c in psi.coefficients[1:]):
        verdict = VERDICT_DEGENERATE
    else:
        verdict = VERDICT_COMPATIBLE
        a1 = psi.coefficients[1]
        fitted = 1.0 / a1 if a1 > 0.0 else None
    return ResidualReport(
        order=psi.order,
        residuals=tuple(residuals),
        tolerance=tol,
        verdict=verdict,
        first_violation_k=violation,
        fitted_lambda=fitted,
    )


def residual_h(
    psi: Series, mu: ScaleVector, tol: float = DEFAULT_TOL
) -> ResidualReport:
    """Residuals of the density-form equation sum_j w_j prod_{i!=j} psi(mu_i t) = 1.

    Computed weight-free as P(t) * sum_k b_k h_k(mu) t^k - 1 (module
    docstring).  psi is normalized to unit constant term first.  Residual
    order 0 is the weight-sum defect; orders >= 1 must vanish for a solution.
    """
    return _residual(psi, mu, survival=False, tol=tol)


def residual_q(
    psi: Series, mu: ScaleVector, tol: float = DEFAULT_TOL
) -> ResidualReport:
    """Residuals of the survival-form equation sum_j (w_j/mu_j) prod psi(mu_i t) = -t.

    Computed weight-free as P(t) * sum_{k>=1} b_k h_{k-1}(mu) t^k (module
    docstring).  The order-k residual is the series coefficient minus the
    target -[k == 1].
    """
    return _residual(psi, mu, survival=True, tol=tol)


def forward_solve_theorem1(
    mu: ScaleVector,
    a1: float,
    order: int = DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
) -> Series:
    """Solve the density-form equation order by order, starting from a_1.

    Each order k >= 2 is linear in a_k with coefficient c_k:  the remainder
    is evaluated by series arithmetic with a_k set to zero, and a_k is then
    isolated by division.  For the exponential candidate the solved a_k all
    vanish; a near-zero divisor c_k signals numeric breakdown.
    """
    _check_order(order)
    check_tol(tol)
    if not 0.0 < a1 < math.inf:
        raise ValueError(f"a1={a1!r} must be positive (positive-mean candidate)")
    coeffs = [1.0, float(a1)] + [0.0] * (order - 1)
    _orders(mu, coeffs, False, solve=True)
    return Series(tuple(coeffs))


def forward_solve_theorem2(
    mu: ScaleVector,
    order: int = DEFAULT_ORDER,
    tol: float = DEFAULT_TOL,
) -> Series:
    """Solve the survival-form equation order by order; a_1 is forced to 1/d_1.

    Returns the solved series, which must come out as (1, 1, 0, ..., 0).
    """
    _check_order(order)
    check_tol(tol)
    coeffs = [1.0] + [0.0] * order
    _orders(mu, coeffs, True, solve=True)
    return Series(tuple(coeffs))


def is_exponential_series(
    psi: Series, tol: float = DEFAULT_TOL
) -> ExponentialVerdict:
    """Decide whether psi is 1 + t/lambda for some lambda > 0.

    True iff every coefficient of order >= 2 is below the scaled tolerance
    and the linear coefficient is positive; the all-zero tail with a_1 = 0
    is labeled degenerate (the zero random variable), not exponential.
    """
    check_tol(tol)
    psi = _normalize(psi)
    a1 = psi.coefficients[1] if psi.order >= 1 else 0.0
    tail_ok = all(
        abs(c) <= tol * max(1.0, _tail_scale(a1, k))
        for k, c in enumerate(psi.coefficients[2:], start=2)
    )
    if tail_ok and abs(a1) <= tol:
        return ExponentialVerdict(False, None, degenerate=True)
    if tail_ok and a1 > 0.0:
        return ExponentialVerdict(True, 1.0 / a1, degenerate=False)
    return ExponentialVerdict(False, None, degenerate=False)
