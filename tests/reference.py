"""Reference oracles used only by the tests.

Multi-index enumeration gives product coefficients independently of the
Cauchy-product recursion in ``hypoexp.series``, and ``mc_weighted_sum`` draws
weighted sums of independent components for the sampling checks.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from hypoexp import DEFAULT_SEED, ScaleVector, Series
from hypoexp.errors import HypoexpError

#: Hard cap on the number of multi-indices an enumeration may produce.
COMPOSITION_BUDGET = 10**7


class BudgetExceededError(HypoexpError):
    """Composition enumeration would exceed the hard budget cap."""


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
