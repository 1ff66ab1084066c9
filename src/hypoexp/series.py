"""Truncated formal power series and scaled-product coefficient machinery.

A Series holds coefficients a_0..a_K of a power series truncated at order K.
Products of argument-scaled copies of one series, prod_i u(mu_i t), are the
workhorse of the characterization equations; their coefficients are computed
by repeated Cauchy product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import ScaleVector
from .errors import ZeroConstantTermError


@dataclass(frozen=True)
class Series:
    """Coefficients a_0..a_K of a truncated formal power series."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> float:
        return self.coefficients[k]

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[float]) -> "Series":
        return cls(tuple(float(c) for c in coeffs))

    @classmethod
    def one(cls, order: int) -> "Series":
        """Multiplicative identity 1 + 0t + ... truncated at ``order``."""
        return cls((1.0,) + (0.0,) * order)

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return Series(self.coefficients + (0.0,) * (order - self.order))
        return Series(self.coefficients[: order + 1])

    def __mul__(self, other: "Series") -> "Series":
        """Cauchy product at the common truncation order."""
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )
        u, v = self.coefficients, other.coefficients
        out = tuple(
            math.fsum(u[i] * v[k - i] for i in range(k + 1))
            for k in range(self.order + 1)
        )
        return Series(out)

    def reciprocal(self) -> "Series":
        """Series b with (self * b) = 1 at truncation order; needs a_0 != 0."""
        a = self.coefficients
        if a[0] == 0.0:
            raise ZeroConstantTermError("reciprocal needs a nonzero constant term")
        b = [1.0 / a[0]] + [0.0] * self.order
        for k in range(1, self.order + 1):
            b[k] = -math.fsum(a[i] * b[k - i] for i in range(1, k + 1)) / a[0]
        return Series(tuple(b))

    def scale_arg(self, mu: float) -> "Series":
        """Argument substitution t -> mu*t: coefficient k becomes a_k * mu^k."""
        if mu <= 0.0:
            raise ValueError(f"scale mu={mu!r} must be positive")
        return Series(
            tuple(c * mu**k for k, c in enumerate(self.coefficients))
        )

    def scale_values(self, factor: float) -> "Series":
        """Multiply every coefficient by a constant."""
        return Series(tuple(c * factor for c in self.coefficients))


def product_of_scaled(u: Series, mu: ScaleVector | Sequence[float]) -> Series:
    """Coefficients of prod_i u(mu_i t) by iterated Cauchy product."""
    scales = mu.scales if isinstance(mu, ScaleVector) else tuple(mu)
    if not scales:
        raise ValueError("need at least one scale")
    out = u.scale_arg(scales[0])
    for m in scales[1:]:
        out = out * u.scale_arg(m)
    return out

