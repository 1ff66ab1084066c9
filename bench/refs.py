"""References computed apart from the program, at run time.

* ``HypoexpRef``: the hypoexponential law in 50-digit mpmath arithmetic;
* ``harmonic_structural``: c_k and d_k on harmonic scales mu_j = 1/j as exact
  fractions, with the exact weights C(n, j) (-1)^(j-1) from ``math.comb``;
* ``exact_moments``: mean, variance and raw moments of the law as exact
  rationals of the float rates (sum 1/lambda, sum 1/lambda^2, k! h_k);
* ``harmonic_weights``: the integers C(n, j) (-1)^(j-1), also the reference
  for ``weights --binomial``.

Nothing is stored, so nothing needs regenerating.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

MP_DIGITS = 50


class HypoexpRef:
    """Density, survival and cdf of a sum of exponentials, in 50 digits."""

    def __init__(self, rates: Sequence[float]):
        with mpmath.workdps(MP_DIGITS):
            lam = [mpmath.mpf(float(r)) for r in rates]
            weights = []
            for j, lj in enumerate(lam):
                w = mpmath.mpf(1)
                for i, li in enumerate(lam):
                    if i != j:
                        w *= li / (li - lj)
                weights.append(w)
        self.lam = lam
        self.weights = weights
        self._lam_float = np.array([float(v) for v in lam])
        self._w_float = np.array([float(v) for v in weights])

    def _sums(self, x: float):
        with mpmath.workdps(MP_DIGITS):
            xm = mpmath.mpf(float(x))
            pdf = mpmath.mpf(0)
            sf = mpmath.mpf(0)
            for w, lam in zip(self.weights, self.lam):
                term = w * mpmath.exp(-lam * xm)
                sf += term
                pdf += term * lam
            return pdf, sf

    def pdf(self, x: float) -> float:
        return float(self._sums(x)[0])

    def cdf(self, x: float) -> float:
        with mpmath.workdps(MP_DIGITS):
            return float(1 - self._sums(x)[1])

    def all(self, x: float) -> tuple[float, float, float]:
        """(pdf, survival, cdf) at x."""
        with mpmath.workdps(MP_DIGITS):
            pdf, sf = self._sums(x)
            return float(pdf), float(sf), float(1 - sf)

    def weights_float(self) -> list[float]:
        return [float(w) for w in self.weights]

    def laplace(self, t: float) -> float:
        with mpmath.workdps(MP_DIGITS):
            value = mpmath.mpf(1)
            for lam in self.lam:
                value *= lam / (lam + mpmath.mpf(float(t)))
            return float(value)

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        """Float cdf from the 50-digit weights, for KS distances over many points.

        Accurate to about 1e-12 on the sets it is used for, far below any KS
        critical value the benchmark applies.
        """
        return 1.0 - np.exp(-np.outer(x, self._lam_float)) @ self._w_float

    def pdf_array(self, x: np.ndarray) -> np.ndarray:
        """Float density from the 50-digit weights (sets with small weights only)."""
        return np.exp(-np.outer(x, self._lam_float)) @ (self._w_float * self._lam_float)


def exact_moments(rates: Sequence[float], k: int) -> tuple[float, float, float]:
    """(E[S^k], mean, variance) as exact rationals of the float rates, rounded once."""
    inv = [1 / Fraction(float(r)) for r in rates]
    h = [Fraction(1)] + [Fraction(0)] * k
    for x in inv:
        for d in range(1, k + 1):
            h[d] += x * h[d - 1]
    mean = sum(inv)
    variance = sum(v * v for v in inv)
    return float(math.factorial(k) * h[k]), float(mean), float(variance)


def harmonic_weights(n: int) -> list[int]:
    """Exact weights of the harmonic scales mu_j = 1/j: C(n, j) (-1)^(j-1)."""
    return [math.comb(n, j) * (-1) ** (j - 1) for j in range(1, n + 1)]


def harmonic_structural(n: int, order: int) -> tuple[list[Fraction], list[Fraction]]:
    """Exact c_1..c_order and d_1..d_order for mu_j = 1/j, j = 1..n."""
    mu = [Fraction(1, j) for j in range(1, n + 1)]
    w = harmonic_weights(n)
    c, d = [], []
    for k in range(1, order + 1):
        c.append(sum(m**k for m in mu) - sum(wj * m**k for wj, m in zip(w, mu)))
        d.append(sum(wj * m ** (k - 1) for wj, m in zip(w, mu)))
    return c, d
