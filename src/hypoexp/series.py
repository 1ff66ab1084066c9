"""Truncated formal power series and scaled-product coefficient machinery.

A Series holds coefficients a_0..a_K of a power series truncated at order K.
The product of argument-scaled copies of one series, P(t) = prod_i u(mu_i t),
is the workhorse of the characterization equations: each leave-one-out
product prod_{i != j} u(mu_i t) is P(t) / u(mu_j t), so one product and the
reciprocal of u carry both equations.  ScaledProducts computes P as a chain
of Cauchy products grown one order at a time, n - 1 Cauchy coefficients per
order and O(n K^2) in all to order K.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .core import ScaleVector, _Record
from .errors import ZeroConstantTermError


class Series(_Record):
    """Coefficients a_0..a_K of a truncated formal power series."""

    coefficients: tuple[float, ...]

    def __init__(self, coefficients: tuple[float, ...]):
        if not coefficients:
            raise ValueError("a series needs at least the constant coefficient")
        for k, c in enumerate(coefficients):
            if not math.isfinite(c):
                raise ValueError(f"series coefficient a_{k} = {c!r} is not finite")
        super().__init__(coefficients)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> float:
        return self.coefficients[k]

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[float]) -> "Series":
        return cls(tuple(float(c) for c in coeffs))

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
        b: list[float] = []
        for _ in a:
            append_reciprocal(a, b)
        return Series(tuple(b))


def append_reciprocal(a: Sequence[float], b: list[float]) -> None:
    """Append b_k, k = len(b), of b = 1/a; reads a_0..a_k and needs a_0 != 0."""
    k = len(b)
    if k == 0:
        b.append(1.0 / a[0])
    else:
        b.append(-math.fsum(a[i] * b[k - i] for i in range(1, k + 1)) / a[0])


class ScaledProducts:
    """prod_i u(scales[i] t) for a series u given one coefficient at a time.

    The factors u(mu t) are multiplied in the order of ``scales``, one chain
    of Cauchy products with each coefficient one math.fsum, and ``product``
    holds the coefficients of the whole product grown so far.  Coefficient k
    depends only on a_0..a_k, so ``grow`` appends one order to every stage
    and ``undo`` drops it again; K orders cost O(n K^2).
    """

    def __init__(self, scales: Sequence[float]):
        if not scales:
            raise ValueError("need at least one scale")
        for m in scales:
            if m <= 0.0:
                raise ValueError(f"scale mu={m!r} must be positive")
        self._scales = tuple(scales)
        self._factors: list[list[float]] = [[] for _ in self._scales]
        # _partials[s] = the product of factors 0..s+1
        self._partials: list[list[float]] = [[] for _ in self._scales[1:]]
        self.product = (self._partials or self._factors)[-1]

    def grow(self, a: float) -> None:
        """Append the next coefficient a of u to every factor and partial product."""
        k = len(self._factors[0])
        for m, factor in zip(self._scales, self._factors):
            factor.append(a * m**k)
        left = self._factors[0]
        for right, out in zip(self._factors[1:], self._partials):
            out.append(math.fsum(map(mul, left, reversed(right))))
            left = out

    def undo(self) -> None:
        """Drop the last order grown."""
        for coefficients in self._factors + self._partials:
            coefficients.pop()


def product_of_scaled(u: Series, mu: ScaleVector | Sequence[float]) -> Series:
    """Coefficients of prod_i u(mu_i t) by iterated Cauchy product."""
    scales = mu.scales if isinstance(mu, ScaleVector) else tuple(mu)
    chain = ScaledProducts(scales)
    for a in u.coefficients:
        chain.grow(a)
    return Series(tuple(chain.product))
