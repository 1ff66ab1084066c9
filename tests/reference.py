"""Reference oracles used only by the tests.

Multi-index enumeration gives product coefficients independently of the
Cauchy-product recursion in ``hypoexp.series``, and ``mc_weighted_sum`` draws
weighted sums of independent components for the sampling checks.
``solve_by_rebuild`` and ``residual_by_rebuild`` are the characterization
equations computed the direct way, in the signed-weight form with every
leave-one-out product rebuilt from scratch by ``Series`` multiplication at
every order; the weight-free form in ``hypoexp.characterize`` must give the
same verdicts and the same solved coefficients to rounding.
``structural_by_fractions`` gives c_k and d_k exactly from their weight-form
definitions for rational scales.
``convolve_direct`` is the trapezoid convolution oracle by direct
``np.convolve``, O(m^2) per stage; the FFT product in
``hypoexp.oracles.convolve_numeric`` must match it to rounding.
``mixture_direct`` (``mixtures_direct`` for several coefficient lists at
once) and ``sample_direct`` are the one-shot array formulas of
``HypoexpDistribution``, with every temporary the size of the whole input;
the blocked kernels, which skip the exponentials that underflow, must match
them bit for bit.
``ks_distance_direct`` and ``exponentiality_statistic_direct`` are the KS
statistic and the tuple test's statistic by the earlier formula, with every
temporary the length of the sample; ``hypoexp.oracles`` must match them bit
for bit.
``quantile_capped`` is ``HypoexpDistribution.quantile`` with a 200-doubling
cap and a 500-halving cap; wherever it returns a value the bisection without
caps must return the same float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from hypoexp import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    GridDensity,
    HypoexpDistribution,
    ResidualReport,
    ScaleVector,
    Series,
    c_coefficients,
    d_coefficients,
    weights_from_scales,
)
from hypoexp.characterize import (
    VERDICT_COMPATIBLE,
    VERDICT_DEGENERATE,
    VERDICT_INCOMPATIBLE,
)
from hypoexp.errors import (
    HypoexpError,
    NonConvergenceError,
    ZeroDivisorError,
)

#: Hard cap on the number of multi-indices an enumeration may produce.
COMPOSITION_BUDGET = 10**7


class BudgetExceededError(HypoexpError):
    """Composition enumeration would exceed the hard budget cap."""


class StructureViolationError(HypoexpError):
    """An all-ones block of ``solve_by_rebuild`` does not cancel."""


def composition_count(k: int, m: int) -> int:
    """Number of m-tuples of nonnegative integers summing to k (stars and bars)."""
    return math.comb(k + m - 1, m - 1)


def enumerate_compositions(k: int, m: int) -> Iterator[tuple[int, ...]]:
    """All m-tuples of nonnegative integers with entry sum k, lexicographically.

    Raises BudgetExceededError up front when the count C(k+m-1, m-1) exceeds
    the hard budget.
    """
    if k < 0 or m < 1:
        raise ValueError(f"need k >= 0 and m >= 1, got k={k}, m={m}")
    count = composition_count(k, m)
    if count > COMPOSITION_BUDGET:
        raise BudgetExceededError(
            f"{count} compositions of {k} into {m} parts exceeds budget"
            f" {COMPOSITION_BUDGET}"
        )
    return _compositions(k, m)


def _compositions(k: int, m: int) -> Iterator[tuple[int, ...]]:
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, m - 1):
            yield (first,) + rest


def leibniz_coefficient(
    u: Series, mu: ScaleVector | Sequence[float], k: int
) -> float:
    """Coefficient k of prod_i u(mu_i t) by direct multi-index summation.

    Evaluates sum over |alpha| = k of prod_i mu_i^alpha_i * a_{alpha_i}.
    Exponential in k; exists as a test oracle for ``product_of_scaled``.
    """
    scales = mu.scales if isinstance(mu, ScaleVector) else tuple(mu)
    if k > u.order:
        raise ValueError(f"k={k} exceeds truncation order {u.order}")
    a = u.coefficients
    terms = []
    for alpha in enumerate_compositions(k, len(scales)):
        prod = 1.0
        for m, ai in zip(scales, alpha):
            prod *= m**ai * a[ai]
        terms.append(prod)
    return math.fsum(terms)


def mc_weighted_sum(
    component_sampler: Callable[[int, np.random.Generator], np.ndarray],
    mu: ScaleVector,
    count: int,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    """Draws of sum_j mu_j X_j with independent per-component streams.

    Component streams are spawned from the master seed, so results are
    deterministic and independent of any parallel evaluation order.
    """
    if count < 1:
        raise ValueError(f"count={count} must be >= 1")
    streams = np.random.SeedSequence(seed).spawn(mu.n)
    total = np.zeros(count)
    for m, stream in zip(mu.scales, streams):
        total += m * np.asarray(
            component_sampler(count, np.random.default_rng(stream))
        )
    return total


def _scaled_ok(value: float, scale: float, tol: float) -> bool:
    return abs(value) <= tol * max(1.0, scale)


def _product_by_chain(u: Series, scales: Sequence[float]) -> Series:
    """prod_i u(mu_i t) as successive Series products, in scale order."""
    scaled = [Series(tuple(c * m**k for k, c in enumerate(u.coefficients))) for m in scales]
    out = scaled[0]
    for factor in scaled[1:]:
        out = out * factor
    return out


def _leave_one_out_sum(
    psi: Series, mu: ScaleVector, mix: Sequence[float]
) -> tuple[list[float], list[float]]:
    """sum_j mix[j] * prod_{i != j} psi(mu_i t) per order, with its largest term."""
    s = mu.scales
    products = [_product_by_chain(psi, s[:j] + s[j + 1 :]) for j in range(mu.n)]
    values = []
    scales = []
    for k in range(psi.order + 1):
        terms = [c * p[k] for c, p in zip(mix, products)]
        values.append(math.fsum(terms))
        scales.append(max(abs(t) for t in terms))
    return values, scales


def _mixture(mu: ScaleVector, survival: bool) -> list[float]:
    weights = weights_from_scales(mu).weights
    if survival:
        return [w / m for w, m in zip(weights, mu.scales)]
    return list(weights)


def _target(k: int, survival: bool) -> float:
    if survival:
        return -1.0 if k == 1 else 0.0
    return 1.0 if k == 0 else 0.0


def _unit_block_cancels(mu: ScaleVector, a1: float, k: int, tol: float) -> None:
    """Order k's all-ones block, e_k of each leave-one-out set recomputed to order k."""
    if not 2 <= k <= mu.n - 1:
        return
    terms = []
    for j, w in enumerate(weights_from_scales(mu).weights):
        e = [1.0] + [0.0] * k
        for v in mu.scales[:j] + mu.scales[j + 1 :]:
            for d in range(k, 0, -1):
                e[d] += v * e[d - 1]
        terms.append(w * a1**k * e[k])
    total = math.fsum(terms)
    if not _scaled_ok(total, max(abs(t) for t in terms), max(tol, 1e-11)):
        raise StructureViolationError(f"order-{k} all-ones block sums to {total!r}")


def solve_by_rebuild(
    mu: ScaleVector, order: int, a1: float | None = None, tol: float = DEFAULT_TOL
) -> tuple[float, ...]:
    """Forward solve of theorem 1 (a1 given) or theorem 2 (a1 None).

    Order k rebuilds every prod_{i != j} psi(mu_i t) of the partial series
    a_0..a_k with a_k = 0, reads the remainder at order k and divides by
    -c_k (theorem 1) or d_k (theorem 2).
    """
    survival = a1 is None
    if survival:
        divisors, sign = d_coefficients(mu, order), 1.0
        coeffs = [1.0] + [0.0] * order
    else:
        divisors, sign = c_coefficients(mu, order), -1.0
        coeffs = [1.0, float(a1)] + [0.0] * (order - 1)
    mix = _mixture(mu, survival)
    for k in range(1 if survival else 2, order + 1):
        values, _ = _leave_one_out_sum(Series(tuple(coeffs[: k + 1])), mu, mix)
        if abs(divisors.at(k)) <= 1e-13 * divisors.scale_at(k):
            raise ZeroDivisorError(f"{divisors.kind}_{k} is numerically zero")
        coeffs[k] = (values[k] - _target(k, survival)) / (sign * divisors.at(k))
        if not survival:
            _unit_block_cancels(mu, a1, k, tol)
    return tuple(coeffs)


def _normalized(psi: Series) -> Series:
    a0 = psi.coefficients[0]
    return psi if a0 == 1.0 else Series(tuple(c * (1.0 / a0) for c in psi.coefficients))


def residual_terms_by_rebuild(
    psi: Series, mu: ScaleVector, survival: bool
) -> tuple[list[float], list[float]]:
    """Per-order residuals of psi, normalized, and the largest term of each order."""
    values, scales = _leave_one_out_sum(_normalized(psi), mu, _mixture(mu, survival))
    return [v - _target(k, survival) for k, v in enumerate(values)], scales


def residual_by_rebuild(
    psi: Series, mu: ScaleVector, survival: bool, tol: float = DEFAULT_TOL
) -> ResidualReport:
    """Residual report of the survival-form (q) or density-form (h) equation."""
    residuals, scales = residual_terms_by_rebuild(psi, mu, survival)
    psi = _normalized(psi)
    violation = next(
        (
            k
            for k, (r, s) in enumerate(zip(residuals, scales))
            if not _scaled_ok(r, s, tol)
        ),
        None,
    )
    fitted = None
    if violation is not None:
        verdict = VERDICT_INCOMPATIBLE
    elif all(abs(c) <= tol for c in psi.coefficients[1:]):
        verdict = VERDICT_DEGENERATE
    else:
        verdict = VERDICT_COMPATIBLE
        a1 = psi.coefficients[1]
        fitted = 1.0 / a1 if a1 > 0.0 else None
    return ResidualReport(psi.order, tuple(residuals), tol, verdict, violation, fitted)


def convolve_direct(rates: Sequence[float], step: float, t_max: float) -> GridDensity:
    """``convolve_numeric``'s grid and stages by direct convolution, no mass check."""
    lam = tuple(float(r) for r in rates)
    m = int(round(t_max / step)) + 1
    grid = np.arange(m) * step
    values = lam[0] * np.exp(-lam[0] * grid)
    for rate in lam[1:]:
        g = rate * np.exp(-rate * grid)
        full = np.convolve(values, g)[:m]
        # trapezoid endpoint correction of the convolution integral
        full -= 0.5 * (values[0] * g + values * g[0])
        values = step * full
    values = np.maximum(values, 0.0)
    return GridDensity(grid=grid, values=values, step=step)


def mixture_direct(
    x: np.ndarray, rates: Sequence[float], coeffs: Sequence[float]
) -> np.ndarray:
    """sum_j coeffs_j * exp(-rates_j * x) at every entry of x, flat, in one
    shot: the terms added one rate at a time, j = 0..n-1."""
    return mixtures_direct(x, rates, coeffs)[0]


def mixtures_direct(
    x: np.ndarray, rates: Sequence[float], *coeffs: Sequence[float]
) -> list[np.ndarray]:
    """``mixture_direct`` for each coefficient list in ``coeffs``, with each
    exp(-rates_j * x) computed once for all of them."""
    x = np.asarray(x, dtype=float).ravel()
    outs = [np.zeros(x.size) for _ in coeffs]
    for j, lam in enumerate(rates):
        e = np.exp(-lam * x)
        for out, c in zip(outs, coeffs):
            out += c[j] * e
    return outs


def sample_direct(rates: Sequence[float], count: int, seed: int) -> np.ndarray:
    """``count`` sums of -log(U)/rate_i from one (count, n) uniform draw,
    contracted in one shot against -1/rate_i."""
    rng = np.random.default_rng(seed)
    lam = np.asarray(rates)
    u = 1.0 - rng.random((count, len(lam)))  # maps [0,1) onto (0,1]
    return np.einsum("ij,j->i", np.log(u), np.reciprocal(-lam))


def ks_distance_direct(samples, cdf: Callable) -> float:
    """KS statistic of the flat samples: max(steps - f, f - (steps - 1/n))."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = len(x)
    f = np.asarray(cdf(x), dtype=float)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))


def exponentiality_statistic_direct(data, mu: ScaleVector, seed: int) -> float:
    """``exponentiality_test``'s statistic: the shuffled consecutive n-tuples'
    weighted sums against the law with rates (1/mean)/mu_j."""
    x = np.asarray(data, dtype=float).ravel()
    n = mu.n
    shuffled = np.random.default_rng(seed).permutation(x)
    sums = shuffled[: len(x) // n * n].reshape(-1, n) @ np.asarray(mu.scales)
    fitted = 1.0 / float(np.mean(x))
    dist = HypoexpDistribution.from_rates([fitted / m for m in mu.scales])
    return ks_distance_direct(sums, dist.cdf)


def quantile_capped(dist: HypoexpDistribution, p: float) -> float:
    """Inverse cdf by bisection with a doubling cap and a halving cap."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p!r} must lie in (0, 1)")
    upper = dist.mean()
    doublings = 0
    while dist.cdf(upper) <= p:
        upper *= 2.0
        doublings += 1
        if doublings > 200:
            raise NonConvergenceError(f"no bracket found for p={p!r}")
    lower = 0.0
    for _ in range(500):
        mid = 0.5 * (lower + upper)
        c = dist.cdf(mid)
        if abs(c - p) <= 1e-13:
            return mid
        if c < p:
            lower = mid
        else:
            upper = mid
    raise NonConvergenceError(
        f"bisection did not converge for p={p!r} after 500 iterations"
    )


def structural_by_fractions(
    scales: Sequence[Fraction], order: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Exact c_1..c_order and d_1..d_order of rational scales, by the weights.

    w_j = prod_{i != j} mu_j / (mu_j - mu_i), c_k = sum_i mu_i^k - sum_j w_j mu_j^k
    and d_k = sum_j w_j mu_j^(k-1), all in ``Fraction`` arithmetic.
    """
    weights = []
    for j, mj in enumerate(scales):
        w = Fraction(1)
        for i, mi in enumerate(scales):
            if i != j:
                w *= mj / (mj - mi)
        weights.append(w)
    c = [
        sum(m**k for m in scales) - sum(w * m**k for w, m in zip(weights, scales))
        for k in range(1, order + 1)
    ]
    d = [
        sum(w * m ** (k - 1) for w, m in zip(weights, scales))
        for k in range(1, order + 1)
    ]
    return c, d
