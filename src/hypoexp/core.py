"""Hypoexponential distribution with pairwise distinct rates.

The distribution of a sum of independent exponentials Exp(lambda_1), ...,
Exp(lambda_n) with distinct rates has density

    g(x) = sum_j w_j * lambda_j * exp(-lambda_j * x),

where the signed mixture weights w_j = prod_{i != j} lambda_i / (lambda_i -
lambda_j) sum to one and alternate in sign when the rates are sorted.  The
alternating sum can cancel catastrophically; nothing here prevents that.
Each weight is accurate to a few ulps, and ``WeightVector`` also reports its
sign and log-magnitude, which stay right where the weight itself underflows.

``pdf`` and ``survival`` (``cdf`` = 1 - ``survival``) keep one contract for a
float and an ndarray.  A float is summed by ``math.fsum``, an ndarray by BLAS
in row blocks of about ``_BLOCK_ENTRIES`` float64 entries, bit for bit the
one-shot formula, so float and array results may differ in the last bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .errors import (
    BinomialCapError,
    NegativeDensityError,
    NonConvergenceError,
    NonPositiveRateError,
    NotDistinctError,
    TooFewRatesError,
    WeightOverflowError,
)

if TYPE_CHECKING:
    import numpy as np

#: Default relative gap below which two rates are treated as tied.
DISTINCTNESS_TOL = 1e-9

#: Largest n for which binomial weights are produced as exact integers.
BINOMIAL_CAP = 60

#: Default seed of sampling and the exponentiality test, echoed in reports.
DEFAULT_SEED = 20130915

_LN2 = math.log(2.0)

#: A signed sum below -_CANCELLATION_CLAMP times its largest term raises.
_CANCELLATION_CLAMP = 1e-12

#: Quantile bisection stops once |cdf(x) - p| is at most this.
_QUANTILE_TOL = 1e-13

#: Array kernels work in row blocks of about this many float64 entries.
_BLOCK_ENTRIES = 1 << 16

#: exp(t) is exactly 0.0 for every t at or below this bound.
_EXP_UNDERFLOW = -745.2

#: Up to this many columns a block's exponentials are copied from their
#: transposed scratch a column at a time; above it, by one transposed copy,
#: whose loop pays per row.  CPU time per block, column copies vs transposed
#: copy (2-vCPU Intel Xeon VM, numpy 2.4): 70 vs 163 us at n = 4, 76 vs 95
#: at n = 6, even at n = 7, 132 vs 97 at n = 8 and 162 vs 76 at n = 16.
_COLUMN_LOOP_MAX = 6


def _block_rows(n: int) -> int:
    """Rows per block for n columns: a power of two, at least 1024.

    A power of two keeps every block boundary on BLAS ``gemv``'s row
    grouping, so blocked products equal one-shot products bit for bit.
    """
    return max(1024, 1 << ((_BLOCK_ENTRIES // n).bit_length() - 1))


@dataclass(frozen=True)
class RateVector:
    """Validated, ascending-sorted vector of distinct positive rates."""

    rates: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class ScaleVector:
    """Strictly decreasing positive scales mu_1 > mu_2 > ... > mu_n.

    Scales are the reciprocal-rate parametrization: taking lambda_j = 1/mu_j
    maps a ScaleVector onto an ascending RateVector.
    """

    scales: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.scales)

    def to_rates(self) -> RateVector:
        """Rates lambda_j = 1 / mu_j, ascending (mu descending)."""
        return RateVector(tuple(1.0 / m for m in self.scales))


@dataclass(frozen=True)
class WeightVector:
    """Signed mixture weights with sign and log-magnitude carried separately.

    ``exact`` marks weights produced from exact integer arithmetic
    (binomial special case).
    """

    weights: tuple[float, ...]
    signs: tuple[int, ...]
    log_magnitudes: tuple[float, ...]
    exact: bool = False

    @property
    def n(self) -> int:
        return len(self.weights)


def report_dict(report) -> dict:
    """A dataclass report's fields in declaration order, tuples as lists."""
    return {
        f.name: list(v) if isinstance(v := getattr(report, f.name), tuple) else v
        for f in fields(report)
    }


def check_tol(tol: float) -> None:
    """ValueError naming ``tol`` unless it is non-negative (NaN included)."""
    if not tol >= 0.0:
        raise ValueError(f"tol={tol!r} must be non-negative")


def _validate(
    raw: Sequence[float], tol: float, noun: str, descending: bool
) -> tuple[float, ...]:
    """Positive, finite, pairwise distinct values, sorted.

    Equal values are rejected at any ``tol``, also at ``tol=0``.
    """
    check_tol(tol)
    values = [float(v) for v in raw]
    if len(values) < 2:
        raise TooFewRatesError(f"need at least 2 {noun}s, got {len(values)}")
    for v in values:
        if not math.isfinite(v) or v <= 0.0:
            raise NonPositiveRateError(f"{noun} {v!r} is not a positive real")
    ordered = sorted(values, reverse=descending)
    for a, b in zip(ordered, ordered[1:]):
        if abs(b - a) / max(a, b) < tol:
            raise NotDistinctError(
                f"{noun}s {a!r} and {b!r} closer than relative tolerance {tol!r}"
            )
        if a == b:
            raise NotDistinctError(f"{noun}s {a!r} and {b!r} are equal")
    return tuple(ordered)


def validate_rates(
    raw: Sequence[float], tol: float = DISTINCTNESS_TOL
) -> RateVector:
    """Validate raw rates: positive, finite, pairwise distinct; sort ascending.

    Raises TooFewRatesError, NonPositiveRateError, or NotDistinctError, and
    ValueError for a negative or NaN ``tol``.
    """
    return RateVector(_validate(raw, tol, "rate", descending=False))


def validate_scales(
    raw: Sequence[float], tol: float = DISTINCTNESS_TOL
) -> ScaleVector:
    """Validate raw scales and sort them strictly descending."""
    return ScaleVector(_validate(raw, tol, "scale", descending=True))


def lagrange_weights(rates: RateVector) -> WeightVector:
    """Signed mixture weights w_j = prod_{i != j} lambda_i / (lambda_i - lambda_j).

    The product runs over the factors' ``math.frexp`` mantissas with the
    binary exponents summed apart, so no partial product overflows or
    underflows, and each weight takes about three roundings per factor.
    ``log_magnitudes`` holds log|w_j| even where w_j underflows to 0.0; a
    weight beyond the float range raises WeightOverflowError.
    """
    lam = rates.rates
    mants, exps = zip(*map(math.frexp, lam))
    total = sum(exps)
    signs: list[int] = []
    log_mags: list[float] = []
    weights: list[float] = []
    for j, lj in enumerate(lam):
        mant, exp = 1.0, total - exps[j]
        for li, mi in zip(lam[:j] + lam[j + 1:], mants[:j] + mants[j + 1:]):
            md, ed = math.frexp(li - lj)
            mant, e = math.frexp(mant * mi / md)
            exp += e - ed
        log_mag = math.log(abs(mant)) + exp * _LN2
        if exp > sys.float_info.max_exp:
            raise WeightOverflowError(
                f"weight {j} has log-magnitude {log_mag:.1f}, beyond float range"
                " (rates are too close to tied)"
            )
        signs.append(1 if mant > 0.0 else -1)
        log_mags.append(log_mag)
        weights.append(math.ldexp(mant, exp))
    return WeightVector(tuple(weights), tuple(signs), tuple(log_mags))


def weights_from_scales(mu: ScaleVector) -> WeightVector:
    """Weights in the scale parametrization, w_j = prod_{i != j} mu_j / (mu_j - mu_i).

    Identical to ``lagrange_weights`` applied to rates 1/mu_j; with mu sorted
    descending the induced rates are already ascending.
    """
    return lagrange_weights(mu.to_rates())


def binomial_weights(n: int) -> WeightVector:
    """Exact weights C(n, j) * (-1)^(j-1) of the harmonic-scale case mu_j = 1/j."""
    if n < 2:
        raise TooFewRatesError(f"need n >= 2, got {n}")
    if n > BINOMIAL_CAP:
        raise BinomialCapError(
            f"n={n} exceeds the exact-integer cap {BINOMIAL_CAP}"
        )
    weights = []
    signs = []
    log_mags = []
    for j in range(1, n + 1):
        w = math.comb(n, j) * (-1) ** (j - 1)
        weights.append(float(w))
        signs.append(1 if w > 0 else -1)
        log_mags.append(math.log(abs(w)))
    return WeightVector(tuple(weights), tuple(signs), tuple(log_mags), exact=True)


@dataclass(frozen=True)
class HypoexpDistribution:
    """Sum of independent exponentials with distinct rates.

    Immutable; weights are computed once from the rates at construction.
    """

    rates: RateVector
    weights: WeightVector

    @classmethod
    def from_rates(cls, rates: RateVector | Sequence[float]) -> "HypoexpDistribution":
        rv = rates if isinstance(rates, RateVector) else validate_rates(rates)
        return cls(rv, lagrange_weights(rv))

    @property
    def n(self) -> int:
        return self.rates.n

    # -- pointwise evaluation -------------------------------------------------

    @cached_property
    def _pdf_coeffs(self) -> tuple[float, ...]:
        """w_j * lambda_j, the pdf's mixture coefficients."""
        return tuple(w * lam for w, lam in zip(self.weights.weights, self.rates.rates))

    @cached_property
    def _neg_rates(self) -> tuple[float, ...]:
        """-lambda_j: (-lambda) * x == -(lambda * x) exactly."""
        return tuple(-lam for lam in self.rates.rates)

    def pdf(self, x):
        """Density at x >= 0; accepts a float or an ndarray."""
        return self._mixture(x, self._pdf_coeffs, math.inf, "pdf")

    def survival(self, x):
        """P(S > x); accepts a float or an ndarray."""
        return self._mixture(x, self.weights.weights, 1.0, "survival")

    def cdf(self, x):
        """P(S <= x) = 1 - survival(x); accepts a float or an ndarray."""
        return 1.0 - self.survival(x)

    def _mixture(self, x, coeffs: Sequence[float], upper: float, name: str):
        """sum_j coeffs_j * exp(-lambda_j * x) clipped into [0, upper], for x >= 0.

        NaN gives NaN, an ndarray a flat array.  A sum below
        -``_CANCELLATION_CLAMP`` times its largest term raises NegativeDensityError.
        """
        np = sys.modules.get("numpy")  # no ndarray exists before numpy is imported
        if np is not None and isinstance(x, np.ndarray):
            if np.any(x < 0.0):
                raise ValueError(f"x={float(x[x < 0.0][0])!r} outside support [0, inf)")
            return np.clip(self._mixture_many(x, np.asarray(coeffs), name), 0.0, upper)
        x = float(x)
        if x < 0.0:
            raise ValueError(f"x={x!r} outside support [0, inf)")
        terms = [c * math.exp(nl * x) for c, nl in zip(coeffs, self._neg_rates)]
        value = math.fsum(terms)
        if value < 0.0:  # only then can the clamp fire
            clamp = _CANCELLATION_CLAMP * max(map(abs, terms))
            if value < -clamp:
                raise _cancelled(name, x, value, clamp)
            return 0.0
        return upper if value > upper else value  # NaN stays NaN

    def _mixture_many(self, x: np.ndarray, coeffs: np.ndarray, name: str) -> np.ndarray:
        """sum_j coeffs_j * exp(-lambda_j * x) at every entry of x, 1-D, in float64.

        Works through x in row blocks of ``_block_rows(n)`` points, so memory
        grows with the block, not with x, and the result equals the one-shot
        ``np.exp(-np.outer(x, lambda)) @ coeffs`` bit for bit, as one BLAS
        thread computes it (a threaded ``gemv`` of a large one-shot product
        splits its rows at a point set by the thread count).  Each block
        fills the (rows, n) matrix of exponentials and runs ``gemv`` on all
        of it; exponents at or below ``_EXP_UNDERFLOW`` skip ``exp`` and
        enter as exactly 0.0, but NaN lanes still reach it.

        In a block of ascending points (``_exp_ascending``) the skip goes
        by column.  x * -lambda_j falls as x grows, and the rates ascend, so
        -lambda descends and the exponents at the block's first point fall
        from column to column: the columns dead there are dead on every row
        and form a suffix, which is never multiplied.  Any other block,
        NaN included, prunes nothing and takes a masked ``exp`` (``_exp_any``).
        """
        import numpy as np
        x = np.asarray(x, dtype=float).ravel()  # the underflow bound is float64's
        rows = _block_rows(self.n)
        out = np.empty(x.size)
        size = min(x.size, rows + 1) * self.n
        exps, scratch = np.empty(size), np.empty(size)
        start = 0
        while start < x.size:
            # a lone last row would go through BLAS dot, not gemv, and round apart
            stop = start + rows if x.size - start > rows + 1 else x.size
            xb = x[start:stop]
            e = exps[:xb.size * self.n].reshape(xb.size, self.n)
            # NaN fails every comparison, so a block holding one is not ascending
            if xb[0] <= xb[-1] and np.all(xb[:-1] <= xb[1:]):
                _exp_ascending(xb, self._neg_rates, e, scratch)
            else:
                e = _exp_any(xb, self._neg_rates, e, scratch)
            values = np.dot(e, coeffs, out=out[start:stop])
            if np.fmin.reduce(values) < 0.0:  # only then the clamp; fmin skips NaN
                neg = np.flatnonzero(values < 0.0)
                clamp = _CANCELLATION_CLAMP * np.abs(e[neg] * coeffs).max(axis=1)
                bad = values[neg] < -clamp
                if bad.any():
                    i = bad.argmax()
                    raise _cancelled(name, x[start + neg[i]], values[neg[i]], clamp[i])
            start = stop
        return out

    # -- transforms and moments ----------------------------------------------

    def laplace(self, t: float, form: str = "product") -> float:
        """Laplace transform E[exp(-t S)] at t >= 0.

        ``product`` evaluates prod_i lambda_i / (lambda_i + t); ``mixture``
        evaluates sum_j w_j lambda_j / (lambda_j + t).  The two agree as an
        algebraic identity (partial fractions).
        """
        t = float(t)
        if t < 0.0:
            raise ValueError(f"t={t!r} must be nonnegative")
        if form == "product":
            value = 1.0
            for lam in self.rates.rates:
                value *= lam / (lam + t)
            return value
        if form == "mixture":
            return math.fsum(
                w * lam / (lam + t)
                for w, lam in zip(self.weights.weights, self.rates.rates)
            )
        raise ValueError(f"unknown form {form!r}")

    def moment(self, k: int) -> float:
        """Raw moment E[S^k] = k! * h_k(1/lambda_1, ..., 1/lambda_n).

        h_k is the complete homogeneous symmetric polynomial, evaluated by
        the O(n*k) prefix recurrence rather than multi-index enumeration.
        """
        if k < 1:
            raise ValueError(f"moment order k={k} must be >= 1")
        hk = complete_homogeneous(
            [1.0 / lam for lam in self.rates.rates], k
        )
        try:
            value = math.factorial(k) * hk
        except OverflowError:  # k! alone is beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise OverflowError(f"moment of order {k} is beyond the float range")
        return value

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        return self.moment(2) - self.moment(1) ** 2

    # -- inverse cdf and sampling --------------------------------------------

    def quantile(self, p: float) -> float:
        """Inverse cdf by bisection to |cdf(x) - p| <= 1e-13, or below 0.5 to a
        bracket 1e-16 wide; NonConvergenceError if the bracket collapses first."""
        p = float(p)
        if not 0.0 < p < 1.0:
            raise ValueError(f"p={p!r} must lie in (0, 1)")
        upper = self.mean()
        while self.cdf(upper) <= p:  # stops at inf, where cdf is 1, if not before
            upper *= 2.0
        lower = 0.0
        while True:
            mid = 0.5 * (lower + upper)
            if not lower < mid < upper:
                raise NonConvergenceError(
                    f"bisection for p={p!r} stopped at [{lower!r}, {upper!r}]:"
                    f" cdf there misses p by more than {_QUANTILE_TOL!r}"
                )
            c = self.cdf(mid)
            if abs(c - p) <= _QUANTILE_TOL:
                return mid
            if c < p:
                lower = mid
            else:
                upper = mid
            if upper - lower <= 1e-16:  # 1e-16 exceeds one ulp only below 0.5
                return 0.5 * (lower + upper)

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw ``count`` values of the sum by inverse transform, deterministically.

        Each component is -log(U)/lambda_i with U uniform on (0, 1].  Draws
        are made in row blocks of ``_block_rows(n)``, which consume the
        generator's stream in the same order as one (count, n) draw, so the
        values equal the one-shot formula bit for bit.
        """
        if count < 1:
            raise ValueError(f"count={count} must be >= 1")
        import numpy as np
        rng = np.random.default_rng(seed)
        rows = _block_rows(self.n)
        # one flat division per block: broadcasting a row of n would loop per row
        neg_lam = np.tile(self._neg_rates, min(rows, count))
        out = np.empty(count)
        for start in range(0, count, rows):
            u = rng.random((min(rows, count - start), self.n))
            np.subtract(1.0, u, out=u)  # maps [0,1) onto (0,1]
            flat = np.log(u, out=u).reshape(-1)
            np.divide(flat, neg_lam[:flat.size], out=flat)  # == -log(u)/lambda exactly
            u.sum(axis=1, out=out[start:start + rows])
        return out


def _exp_ascending(xb: np.ndarray, neg_lam: Sequence[float], e: np.ndarray,
                   scratch: np.ndarray) -> None:
    """Fill e[i, j] = exp(xb[i] * neg_lam[j]) for ascending xb without NaN.

    The exponents fall down each column, so a column at or below
    ``_EXP_UNDERFLOW`` at xb[0] is dead on every row; only the suffix of
    such columns is dropped, so any order of the rates stays exact.  In
    every other column the dead rows form a suffix.  The live prefix of each
    live column is multiplied and exponentiated in a transposed scratch,
    where columns are contiguous, then copied into e; the rest of e is 0.0.
    """
    import numpy as np
    m, n = e.shape
    lo, hi = float(xb[0]), float(xb[-1])
    live = n  # columns not dead at xb[0]: drop the dead suffix
    while live and lo * neg_lam[live - 1] <= _EXP_UNDERFLOW:
        live -= 1
    full = 0  # columns alive at xb[-1], hence on every row
    while full < live and hi * neg_lam[full] > _EXP_UNDERFLOW:
        full += 1
    t = scratch[:n * m].reshape(n, m)
    for j in range(live):
        np.multiply(xb, neg_lam[j], out=t[j])
    np.exp(t[:full], out=t[:full])
    for j in range(full, live):
        cut = np.count_nonzero(t[j] > _EXP_UNDERFLOW)
        np.exp(t[j, :cut], out=t[j, :cut])
        t[j, cut:] = 0.0
    t[live:] = 0.0
    if n <= _COLUMN_LOOP_MAX:
        for j in range(n):
            e[:, j] = t[j]
    else:
        e[...] = t.T


def _exp_any(xb: np.ndarray, neg_lam: Sequence[float], arg: np.ndarray,
             scratch: np.ndarray) -> np.ndarray:
    """exp(xb[i] * neg_lam[j]) for any xb, in arg or in scratch.

    The product is taken whole, in arg; ``exp`` runs there in place, or,
    if a lane is at or below ``_EXP_UNDERFLOW``, masked into zeroed scratch.
    """
    import numpy as np
    np.multiply.outer(xb, neg_lam, out=arg)
    if arg.min() > _EXP_UNDERFLOW:
        return np.exp(arg, out=arg)
    e = scratch[:arg.size].reshape(arg.shape)
    e.fill(0.0)
    return np.exp(arg, out=e, where=~(arg <= _EXP_UNDERFLOW))


def _cancelled(name: str, x: float, value: float, clamp: float) -> NegativeDensityError:
    return NegativeDensityError(  # str, not repr: np.float64 reads like float
        f"{name}({x}) = {value} below the cancellation clamp -{clamp}"
    )


def complete_homogeneous_table(xs: Sequence[float], k: int) -> list[float]:
    """Complete homogeneous symmetric polynomials h_0..h_k(xs), prefix recurrence.

    h_d over the first j variables satisfies
    h_d(x_1..x_j) = h_d(x_1..x_{j-1}) + x_j * h_{d-1}(x_1..x_j), costing O(n*k)
    for the whole table.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    h = [1.0] + [0.0] * k
    for x in xs:
        for d in range(1, k + 1):
            h[d] += x * h[d - 1]
    return h


def complete_homogeneous(xs: Sequence[float], k: int) -> float:
    """h_k(xs), the last entry of ``complete_homogeneous_table(xs, k)``."""
    return complete_homogeneous_table(xs, k)[k]
