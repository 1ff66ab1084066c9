"""Exception hierarchy for the hypoexp package."""


class HypoexpError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveRateError(HypoexpError):
    """A rate (or scale) is zero, negative, or not a finite number."""


class NotDistinctError(HypoexpError):
    """Two rates fall within the distinctness tolerance of each other."""


class TooFewRatesError(HypoexpError):
    """Fewer than two rates were supplied."""


class WeightOverflowError(HypoexpError):
    """A weight's log-magnitude exceeds the representable float range."""


class BinomialCapError(HypoexpError):
    """Requested binomial weights beyond the exact-integer cap."""


class NegativeDensityError(HypoexpError):
    """Density came out more negative than the cancellation clamp allows."""


class NonConvergenceError(HypoexpError):
    """Quantile bisection stalled before cdf came within tolerance of p."""


class ZeroConstantTermError(HypoexpError):
    """Series reciprocal requested for a series with zero constant term."""


class ZeroDivisorError(HypoexpError):
    """A forward-solve step hit a (near-)zero structural coefficient."""


class NotNormalizedError(HypoexpError):
    """Candidate series cannot be normalized to unit constant term."""


class GridTooCoarseError(HypoexpError):
    """Numerical convolution grid failed its self-consistency check."""


class InsufficientDataError(HypoexpError):
    """Too few observations for the requested tuple size."""


class NonPositiveObservationError(HypoexpError):
    """Data for the exponentiality test contains values <= 0."""
