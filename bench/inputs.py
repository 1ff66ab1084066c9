"""Seeded input generators.  The same seed gives the same inputs."""

from __future__ import annotations

import numpy as np

#: Smallest adjacent relative gap of generated rates, as in tests/conftest.py.
MIN_RELATIVE_GAP = 0.05


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Independent stream for one input family of one run."""
    return np.random.default_rng([seed, *tags])


def random_rates(rng: np.random.Generator, n: int, low: float = 1e-3, high: float = 1e3) -> list[float]:
    """Log-uniform rates in [low, high] with adjacent relative gaps >= 5%."""
    while True:
        rates = np.sort(np.exp(rng.uniform(np.log(low), np.log(high), n)))
        gaps = (rates[1:] - rates[:-1]) / rates[1:]
        if np.all(gaps >= MIN_RELATIVE_GAP):
            return [float(r) for r in rates]


def random_scales(rng: np.random.Generator, n: int, spread: float = 1e3) -> list[float]:
    """Scales 1/rate for rates log-uniform in [1, spread], gaps >= 5%."""
    return [1.0 / r for r in random_rates(rng, n, low=1.0, high=spread)]


def harmonic_scales(n: int) -> list[float]:
    """mu_j = 1/j, j = 1..n: the scales with exact binomial weights."""
    return [1.0 / j for j in range(1, n + 1)]
