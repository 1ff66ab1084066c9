"""Independent numerical oracles: convolution quadrature and KS.

Everything here validates the analytic machinery without reusing it: the
density is rebuilt by iterated trapezoid convolution of the component
exponential densities, each stage a zero-padded real FFT product in
O(m log m) for m grid points, and sampling distributions are checked with
the Kolmogorov-Smirnov sup distance.  A data-facing exponentiality test
applies the characterization: if weighted tuples of i.i.d. draws follow the
matching hypoexponential law, the parent distribution is consistent with
exponential.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    _BLOCK_ENTRIES,
    DEFAULT_SEED,
    HypoexpDistribution,
    RateVector,
    ScaleVector,
    _integer,
    _Record,
    report_dict,
    validate_rates,
)
from .errors import (
    GridTooCoarseError,
    InsufficientDataError,
    NonPositiveObservationError,
)

#: Asymptotic KS critical constants c(alpha); threshold is c / sqrt(N).
KS_CONSTANTS = {0.05: 1.36, 0.01: 1.63}

#: Largest trapezoid mass defect ``convolve_numeric`` accepts on its grid.
_INTEGRAL_TOL = 1e-6

#: Most grid points ``convolve_numeric`` allocates.  A run at the cap peaks
#: at about 150 MB resident (FFT pads of 2m points); twice the cap reaches
#: 270 MB with eight rates.
MAX_GRID_POINTS = 1 << 20


class GridDensity(_Record):
    """Density values tabulated on a uniform grid starting at 0."""

    grid: np.ndarray
    values: np.ndarray
    step: float

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.step))

    def sup_distance_to(self, density: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.max(np.abs(self.values - density(self.grid))))


class TestReport(_Record):
    """Outcome of the tuple-based exponentiality test."""

    statistic: float
    threshold: float
    alpha: float
    n_observations: int
    n_tuples: int
    fitted_lambda: float
    seed: int
    verdict: str  # "reject" | "consistent"

    @property
    def rejected(self) -> bool:
        return self.verdict == "reject"

    to_dict = report_dict


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha!r} must lie strictly between 0 and 1")


def ks_critical(alpha: float, n: int) -> float:
    """Asymptotic KS critical value c(alpha)/sqrt(n); requires 0 < alpha < 1
    and an integer n >= 1, else ValueError."""
    _check_alpha(alpha)
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    c = KS_CONSTANTS.get(alpha)
    if c is None:
        c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c / math.sqrt(n)


def ks_distance(samples: Sequence[float], cdf: Callable) -> float:
    """One-sample KS statistic: sup deviation of the empirical cdf.

    N-D samples count as the flat sequence of their entries and a scalar as
    one sample.  The samples are sorted into a copy, so the caller's array
    is never written to.  ValueError when there is no sample, when a sample
    is NaN or when the cdf returns NaN; +inf samples are valid.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size == 0:
        raise ValueError("need at least one sample")
    return _ks_sorted(x, cdf)


def _ks_sorted(x: np.ndarray, cdf: Callable) -> float:
    """``ks_distance`` of an ascending non-empty 1-D x, which is only read.

    max(steps - f, f - (steps - 1/n)) over steps k/n, taken over blocks of
    ``_BLOCK_ENTRIES`` points, so no temporary grows with x; maxima are
    exact, so blocks do not change the result.  In a block D+ is
    -min(f - steps), equal to max(steps - f) because a - b == -(b - a) in
    IEEE arithmetic, and steps is then lowered by 1/n in place for D-.
    f may be x itself, as for an identity cdf.
    """
    if np.isnan(x[-1]):  # the sort puts NaN last
        raise ValueError("samples hold NaN")
    n = x.size
    f = np.broadcast_to(np.asarray(cdf(x), dtype=float), x.shape)
    extremes = []
    for start in range(0, n, _BLOCK_ENTRIES):
        fs = f[start:start + _BLOCK_ENTRIES]
        steps = np.arange(start + 1.0, start + fs.size + 1.0)  # exact below 2**53
        steps /= n
        diff = fs - steps
        extremes.append(-diff.min())
        steps -= 1.0 / n
        extremes.append(np.subtract(fs, steps, out=diff).max())
    # a NaN in f makes its block's extremes, and so their maximum, NaN
    distance = float(np.max(extremes))
    if math.isnan(distance):
        raise ValueError("cdf returned NaN")
    return distance


def convolve_numeric(
    rates: RateVector | Sequence[float],
    step: float = 1e-3,
    t_max: Optional[float] = None,
) -> GridDensity:
    """n-fold density by iterated trapezoid convolution of exponential densities.

    Independent of the signed-weight formula.  Each stage convolves on the
    m-point grid by a real FFT zero-padded to the first power of two at least
    2m - 1, so the circular product equals the linear one: O(m log m) per
    stage.  ``step`` and ``t_max`` must be finite and positive, with a finite
    ratio t_max/step, and give at least two and at most ``MAX_GRID_POINTS``
    grid points, else ValueError.  The default t_max of slow rates can
    exceed the cap at the default step: rates (1e-3, 2e-3) need about
    2.4e7 points at step 1e-3.
    The grid must be fine enough that the trapezoid mass matches the analytic
    cdf at the right endpoint to 1e-6; otherwise GridTooCoarseError is raised.
    """
    if isinstance(rates, RateVector):
        lam = rates.rates
    else:
        values = tuple(float(r) for r in rates)
        # single-rate case: no convolution, and no distinctness to enforce
        lam = values if len(values) == 1 else validate_rates(values).rates
    if len(lam) == 1:
        right_mass = lambda x: 1.0 - math.exp(-lam[0] * x)  # noqa: E731
        if t_max is None:
            t_max = -math.log(1e-10) / lam[0]
    else:
        dist = HypoexpDistribution.from_rates(RateVector(lam))
        right_mass = dist.cdf
        if t_max is None:
            t_max = dist.quantile(1.0 - 1e-10)
    for name, value in (("step", step), ("t_max", t_max)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name}={value!r} must be finite and positive")
    if not math.isfinite(t_max / step):
        raise ValueError(
            f"step={step!r} is too small for t_max={t_max!r}: t_max/step is not finite"
        )
    m = int(round(t_max / step)) + 1
    if m < 2:
        raise ValueError(
            f"t_max={t_max!r} at step={step!r} gives {m} grid point; need at least 2"
        )
    if m > MAX_GRID_POINTS:
        raise ValueError(
            f"step={step!r} is too small for t_max={t_max!r}: m={m} grid points"
            f" exceed the cap {MAX_GRID_POINTS}"
        )
    grid = np.arange(m) * step
    size = 1 << (2 * m - 2).bit_length()
    values = lam[0] * np.exp(-lam[0] * grid)
    for rate in lam[1:]:
        g = rate * np.exp(-rate * grid)
        full = np.fft.irfft(np.fft.rfft(values, size) * np.fft.rfft(g, size), size)[:m]
        # trapezoid endpoint correction of the convolution integral
        full -= 0.5 * (values[0] * g + values * g[0])
        values = step * full
    values = np.maximum(values, 0.0)

    gd = GridDensity(grid=grid, values=values, step=step)
    mass_defect = abs(gd.integral() - right_mass(float(grid[-1])))
    if mass_defect > _INTEGRAL_TOL:
        raise GridTooCoarseError(
            f"trapezoid mass off by {mass_defect:.3e} (> {_INTEGRAL_TOL:.1e});"
            " refine the grid step"
        )
    return gd


def exponentiality_test(
    data: Sequence[float],
    mu: ScaleVector,
    alpha: float = 0.01,
    seed: int = DEFAULT_SEED,
) -> TestReport:
    """Tuple-based test of exponentiality built on the characterization.

    Fits lambda by 1/mean, shuffles, partitions the data into consecutive
    n-tuples, forms the weighted sums, and KS-compares them against the
    hypoexponential law with rates lambda/mu_j.  Rejection indicates
    non-exponential data; non-rejection is merely consistent with it.
    N-D data count as the flat sequence of their entries.
    """
    _check_alpha(alpha)
    x = np.asarray(data, dtype=float).ravel()
    n = mu.n
    # NaN fails both comparisons
    if x.size and not (x.min() > 0.0 and x.max() < math.inf):
        raise NonPositiveObservationError(
            "data must consist of finite positive reals"
        )
    if len(x) < 50 * n:
        raise InsufficientDataError(
            f"need at least {50 * n} observations for tuples of {n}, got {len(x)}"
        )
    fitted = 1.0 / float(np.mean(x))

    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(x)
    n_tuples = len(x) // n
    tuples = shuffled[: n_tuples * n].reshape(n_tuples, n)
    sums = tuples @ np.asarray(mu.scales)
    del shuffled, tuples
    sums.sort()

    dist = HypoexpDistribution.from_rates(
        [fitted / m for m in mu.scales]
    )
    statistic = _ks_sorted(sums, dist.cdf)
    threshold = ks_critical(alpha, n_tuples)
    return TestReport(
        statistic=statistic,
        threshold=threshold,
        alpha=alpha,
        n_observations=len(x),
        n_tuples=n_tuples,
        fitted_lambda=fitted,
        seed=seed,
        verdict="reject" if statistic > threshold else "consistent",
    )
