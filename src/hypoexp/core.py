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
float and an ndarray.  A float is summed by ``math.fsum``, an ndarray one
rate at a time in order, in blocks of ``_BLOCK_ENTRIES`` points, so float
and array results may differ in the last bits.
"""

from __future__ import annotations

import math
import operator
import sys
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

#: Default truncation order for solvers and residual sweeps.
DEFAULT_ORDER = 16

#: Default scaled tolerance of residual verdicts, the Lemma 2 sweep and the
#: exponential-series test.
DEFAULT_TOL = 1e-10

_LN2 = math.log(2.0)

#: A signed sum below -_CANCELLATION_CLAMP times its largest term raises.
_CANCELLATION_CLAMP = 1e-12

#: Quantile bisection stops once |cdf(x) - p| is at most this.
_QUANTILE_TOL = 1e-13

#: Array kernels work in blocks of this many points (``_mixture_many``) or
#: of about this many float64 entries (``sample``).
_BLOCK_ENTRIES = 1 << 16

#: exp(t) is exactly 0.0 for every t at or below this bound.
_EXP_UNDERFLOW = -745.2


def _block_rows(n: int) -> int:
    """Rows of n draws per ``sample`` block: about ``_BLOCK_ENTRIES``
    entries, and at least 1024 rows."""
    return max(1024, _BLOCK_ENTRIES // n)


class _Record:
    """Immutable record of the fields its class annotates, in that order.

    A field given a value in the class body is optional, with that default.
    Records are equal only to records of the same class with equal fields,
    and hash, print and pickle by their fields.  Values are kept in the
    instance ``__dict__``, so ``functools.cached_property`` works and its
    cache leaves equality, hash and repr alone.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, from positional, keyword and default values."""
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(
                f"{name}() takes {len(self._fields)} arguments but {len(args)} were given"
            )
        values = list(args)
        for field in self._fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected argument {next(iter(kwargs))!r}")
        return values

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RateVector(_Record):
    """Ascending distinct positive rates, as ``validate_rates`` returns them."""

    rates: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.rates)


class ScaleVector(_Record):
    """Strictly decreasing positive scales mu_1 > mu_2 > ... > mu_n, as
    ``validate_scales`` returns them.

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


class WeightVector(_Record):
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


def report_dict(report: _Record) -> dict:
    """A record's fields in declaration order, tuples as lists."""
    return {
        f: list(v) if isinstance(v := getattr(report, f), tuple) else v
        for f in report._fields
    }


def _integer(name: str, value) -> int:
    """value as an int (numpy integers too), else ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} must be an integer") from None


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


class HypoexpDistribution(_Record):
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
        """w_j * lambda_j, the pdf's mixture coefficients.

        Raises OverflowError naming the rate where one is beyond the float
        range, which finite weights do not rule out (rates near 1e308).
        """
        rates = self.rates.rates
        coeffs = tuple(w * lam for w, lam in zip(self.weights.weights, rates))
        for c, lam in zip(coeffs, rates):
            if math.isinf(c):
                raise OverflowError(
                    f"pdf coefficient w_j * lambda_j at rate {lam!r} is beyond the float range"
                )
        return coeffs

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
        """P(S <= x) = 1 - survival(x); accepts a float or an ndarray.

        An ndarray's 1 - survival is formed in survival's own fresh buffer.
        """
        s = self.survival(x)
        if isinstance(s, float):
            return 1.0 - s
        return sys.modules["numpy"].subtract(1.0, s, out=s)

    def _mixture(self, x, coeffs: Sequence[float], upper: float, name: str):
        """sum_j coeffs_j * exp(-lambda_j * x) clipped into [0, upper], for x >= 0.

        NaN gives NaN, an ndarray a fresh flat array.  A sum below
        -``_CANCELLATION_CLAMP`` times its largest term raises NegativeDensityError.
        """
        np = sys.modules.get("numpy")  # no ndarray exists before numpy is imported
        if np is not None and isinstance(x, np.ndarray):
            # fmin skips NaN, and has no identity for an empty array
            if x.size and np.fmin.reduce(x, axis=None) < 0.0:
                raise ValueError(f"x={float(x[x < 0.0][0])!r} outside support [0, inf)")
            out = self._mixture_many(x, coeffs, name)
            return np.clip(out, 0.0, upper, out=out)
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

    def _mixture_many(self, x: np.ndarray, coeffs: Sequence[float], name: str) -> np.ndarray:
        """sum_j coeffs_j * exp(-lambda_j * x) at every entry of x, 1-D, in float64.

        Works through x in blocks of ``_BLOCK_ENTRIES`` points, so memory
        grows with the block, not with x.  Each block adds its terms one rate
        at a time, out += coeffs_j * exp(x * -lambda_j) for j = 0..n-1, so
        every point runs the same operations wherever the blocks split, and
        the result equals that sum over all of x in one shot, bit for bit.
        A term whose exponent is at or below ``_EXP_UNDERFLOW`` is exactly
        0.0 and is left out.

        On an ascending block x * -lambda_j falls along the block: a rate
        dead at the block's first point is skipped, and every other rate
        stops at one search just past its last live point.  Any other block,
        NaN included, takes a masked ``exp``.
        """
        import numpy as np
        x = np.asarray(x, dtype=float).ravel()  # the underflow bound is float64's
        out = np.zeros(x.size)
        buf = np.empty(min(x.size, _BLOCK_ENTRIES))
        for start in range(0, x.size, _BLOCK_ENTRIES):
            xs, ys = x[start:start + _BLOCK_ENTRIES], out[start:start + _BLOCK_ENTRIES]
            lo, hi = float(xs[0]), float(xs[-1])
            # NaN fails every comparison, so a block holding one is not sorted
            ordered = lo <= hi and (xs[:-1] <= xs[1:]).all()
            for c, nl in zip(coeffs, self._neg_rates):
                if not ordered:
                    t = np.multiply(xs, nl, out=buf[:xs.size])
                    np.exp(t, out=t, where=t > _EXP_UNDERFLOW)
                    np.maximum(t, 0.0, out=t)  # masked lanes still hold exponents < 0
                elif lo * nl <= _EXP_UNDERFLOW:
                    continue  # dead on the whole block
                else:
                    # a live point lies below _EXP_UNDERFLOW / nl * (1 + 3u); the
                    # few dead points the search takes in add exp(t) == 0.0
                    cut = xs.searchsorted(_EXP_UNDERFLOW / nl * (1.0 + 1e-15), "right")
                    t = np.multiply(xs[:cut], nl, out=buf[:cut])
                    np.exp(t, out=t)
                t *= c
                ys[:t.size] += t
            if np.fmin.reduce(ys) < 0.0:  # only then the clamp; fmin skips NaN
                neg = np.flatnonzero(ys < 0.0)
                xn, largest = xs[neg], np.zeros(neg.size)
                for c, nl in zip(coeffs, self._neg_rates):
                    np.maximum(largest, np.abs(np.exp(xn * nl) * c), out=largest)
                clamp = _CANCELLATION_CLAMP * largest
                bad = ys[neg] < -clamp
                if bad.any():
                    i = bad.argmax()
                    raise _cancelled(name, xn[i], ys[neg[i]], clamp[i])
        return out

    # -- transforms and moments ----------------------------------------------

    def laplace(self, t: float, form: str = "product") -> float:
        """Laplace transform E[exp(-t S)] at t >= 0.

        ``product`` evaluates prod_i lambda_i / (lambda_i + t); ``mixture``
        evaluates sum_j w_j lambda_j / (lambda_j + t) over the pdf's
        coefficients, so an infinite w_j lambda_j raises the pdf's
        OverflowError.  The two agree as an algebraic identity (partial
        fractions).
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
                c / (lam + t) for c, lam in zip(self._pdf_coeffs, self.rates.rates)
            )
        raise ValueError(f"unknown form {form!r}")

    def moment(self, k: int) -> float:
        """Raw moment E[S^k] = k! * h_k(1/lambda_1, ..., 1/lambda_n).

        h_k is the complete homogeneous symmetric polynomial, evaluated by
        the O(n*k) prefix recurrence rather than multi-index enumeration.
        """
        k = _integer("moment order k", k)
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
        """Var S = sum_j (1/lambda_j)^2, one fsum of positive terms, so nothing
        cancels; beyond the float range, moment(2)'s OverflowError."""
        try:
            value = math.fsum(s * s for s in [1.0 / lam for lam in self.rates.rates])
        except OverflowError:  # a partial sum left the float range
            value = math.inf
        if value == math.inf:  # and so did E[S^2] = Var S + mean^2
            raise OverflowError("moment of order 2 is beyond the float range")
        return value

    # -- inverse cdf and sampling --------------------------------------------

    def quantile(self, p: float) -> float:
        """Bisection from [0, mean] to |cdf(x) - p| <= 1e-13, else NonConvergenceError
        once the bracket cannot be halved; rates times 2^e give x times 2^-e exactly."""
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

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw ``count`` values of the sum by inverse transform, deterministically.

        Each component is -log(U)/lambda_i with U uniform on (0, 1].  Draws
        are made in row blocks of ``_block_rows(n)``, which consume the
        generator's stream in the same order as one (count, n) draw.  Each
        block's sums are one contraction, ``np.einsum("ij,j->i", log(U),
        -1/lambda)``, which calls no BLAS, so the values equal that
        contraction over the one-shot (count, n) draw bit for bit.  A draw
        beyond the float range raises OverflowError.
        """
        count = _integer("count", count)
        if count < 1:
            raise ValueError(f"count={count} must be >= 1")
        import numpy as np
        rng = np.random.default_rng(seed)
        rows = _block_rows(self.n)
        neg_scales = np.reciprocal(self._neg_rates)  # -1/lambda_j
        out = np.empty(count)
        for start in range(0, count, rows):
            u = rng.random((min(rows, count - start), self.n))
            np.subtract(1.0, u, out=u)  # maps [0,1) onto (0,1]
            np.einsum("ij,j->i", np.log(u, out=u), neg_scales, out=out[start:start + rows])
        if not out.max() < math.inf:  # NaN too: 0 * inf where 1/lambda_j overflows
            raise OverflowError("a draw of the sample is beyond the float range")
        return out


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
