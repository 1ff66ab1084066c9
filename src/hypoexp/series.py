"""Truncated formal power series and scaled-product coefficient machinery.

A Series holds coefficients a_0..a_K of a power series truncated at order K.
Products of argument-scaled copies of one series, prod_i u(mu_i t), are the
workhorse of the characterization equations.  ScaledProducts computes them
as chained Cauchy products grown one order at a time: chains that start with
the same scales share those stages, so the n leave-one-out products
prod_{i != j} u(mu_i t) cost about n^2/2 Cauchy coefficients per order and
O(n^2 K^2) in all to order K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

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


class ScaledProducts:
    """Chained products of argument-scaled copies of one series, order by order.

    ``chains[c]`` lists indices into ``scales``; ``products[c]`` holds the
    coefficients of prod_{i in chains[c]} u(scales[i] t) for every order grown
    so far.  Each chain multiplies its factors u(mu t) in the order listed,
    each coefficient one math.fsum of a Cauchy sum, and chains with a common
    leading run of indices share its stages.  Coefficient k of a product
    depends only on a_0..a_k, so ``grow`` appends one order at a time and
    ``undo`` drops the last one again.
    """

    def __init__(self, scales: Sequence[float], chains: Iterable[Sequence[int]]):
        for m in scales:
            if m <= 0.0:
                raise ValueError(f"scale mu={m!r} must be positive")
        self._scales = tuple(scales)
        self._factors = [[] for _ in self._scales]
        # (left, right, out): out[k] = sum_i left[i] * right[k - i]
        self._stages: list[tuple[list[float], list[float], list[float]]] = []
        shared: dict[tuple[int, ...], list[float]] = {}
        self.products: list[list[float]] = []
        for chain in chains:
            if not chain:
                raise ValueError("need at least one scale")
            product = self._factors[chain[0]]
            for end in range(2, len(chain) + 1):
                prefix = tuple(chain[:end])
                if prefix not in shared:
                    out: list[float] = []
                    self._stages.append((product, self._factors[chain[end - 1]], out))
                    shared[prefix] = out
                product = shared[prefix]
            self.products.append(product)

    def grow(self, a: float) -> None:
        """Append the next coefficient a of u to every factor and product."""
        k = len(self._factors[0])
        for m, factor in zip(self._scales, self._factors):
            factor.append(a * m**k)
        for left, right, out in self._stages:
            out.append(math.fsum(map(mul, left, reversed(right))))

    def undo(self) -> None:
        """Drop the last order grown."""
        for factor in self._factors:
            factor.pop()
        for _, _, out in self._stages:
            out.pop()


def product_of_scaled(u: Series, mu: ScaleVector | Sequence[float]) -> Series:
    """Coefficients of prod_i u(mu_i t) by iterated Cauchy product."""
    scales = mu.scales if isinstance(mu, ScaleVector) else tuple(mu)
    chain = ScaledProducts(scales, [range(len(scales))])
    for a in u.coefficients:
        chain.grow(a)
    return Series(tuple(chain.products[0]))
