import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypoexp import Series, product_of_scaled
from hypoexp.errors import ZeroConstantTermError
from hypoexp.series import ScaledProducts

from reference import (
    BudgetExceededError,
    composition_count,
    enumerate_compositions,
    leibniz_coefficient,
)


coefficient_lists = st.lists(
    st.floats(-3.0, 3.0), min_size=3, max_size=9
).map(lambda c: [1.0] + c[1:])  # keep a_0 = 1 so reciprocals exist


def cross_term_scale(u: Series, v: Series) -> float:
    """Magnitude of the cancelling cross terms u_i * v_j of u * v."""
    return max(1.0, max(abs(c) for c in u.coefficients)) * max(
        1.0, max(abs(c) for c in v.coefficients)
    )


def exact_reciprocal(u: Series) -> list[Fraction]:
    """Reciprocal of u's float coefficients in exact rational arithmetic."""
    a = [Fraction(c) for c in u.coefficients]
    b = [1 / a[0]]
    for k in range(1, len(a)):
        b.append(-sum(a[i] * b[k - i] for i in range(1, k + 1)) / a[0])
    return b


class TestMul:
    def test_difference_of_squares(self):
        u = Series.from_coefficients([1.0, 1.0, 0.0])
        v = Series.from_coefficients([1.0, -1.0, 0.0])
        assert (u * v).coefficients == (1.0, 0.0, -1.0)

    def test_identity(self):
        u = Series.from_coefficients([2.0, -1.5, 0.25, 3.0])
        one = Series.from_coefficients([1.0] + [0.0] * u.order)
        assert (u * one).coefficients == u.coefficients

    def test_binomial_cube(self):
        u = Series.from_coefficients([1.0, 1.0, 0.0, 0.0])
        assert (u * u * u).coefficients == (1.0, 3.0, 3.0, 1.0)

    def test_order_mismatch(self):
        u = Series.from_coefficients([1.0, 0.0, 0.0])
        v = Series.from_coefficients([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            u * v

    @given(coefficient_lists, coefficient_lists)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        k = max(len(a), len(b)) - 1
        u = Series.from_coefficients((a + [0.0] * k)[: k + 1])
        v = Series.from_coefficients((b + [0.0] * k)[: k + 1])
        for x, y in zip((u * v).coefficients, (v * u).coefficients):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(x), abs(y))

    @given(coefficient_lists, coefficient_lists, coefficient_lists)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        k = max(len(a), len(b), len(c)) - 1
        u = Series.from_coefficients((a + [0.0] * k)[: k + 1])
        v = Series.from_coefficients((b + [0.0] * k)[: k + 1])
        w = Series.from_coefficients((c + [0.0] * k)[: k + 1])
        left = ((u * v) * w).coefficients
        right = (u * (v * w)).coefficients
        for x, y in zip(left, right):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


class TestReciprocal:
    def test_geometric(self):
        # 1/(1+t) has alternating coefficients; its reciprocal is 1 + t
        u = Series.from_coefficients([(-1.0) ** k for k in range(8)])
        inv = u.reciprocal()
        assert inv.coefficients[:2] == (1.0, 1.0)
        assert all(c == 0.0 for c in inv.coefficients[2:])

    def test_exponential_transform(self):
        lam = 2.5
        phi = Series.from_coefficients(
            [(-1.0) ** k / lam**k for k in range(10)]
        )
        psi = phi.reciprocal()
        assert psi[0] == pytest.approx(1.0)
        assert psi[1] == pytest.approx(1.0 / lam, rel=1e-14)
        assert all(abs(c) < 1e-14 for c in psi.coefficients[2:])

    @given(coefficient_lists)
    @settings(max_examples=80, deadline=None)
    def test_round_trip_is_identity(self, coeffs):
        u = Series.from_coefficients(coeffs)
        inv = u.reciprocal()
        product = u * inv
        # the cancelling cross terms u_i * inv_j set the attainable accuracy
        scale = cross_term_scale(u, inv)
        assert product[0] == pytest.approx(1.0, abs=1e-13 * scale)
        for c in product.coefficients[1:]:
            assert abs(c) <= 1e-13 * scale

    @given(coefficient_lists)
    @example([1.0, 3.0, -3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.4745473038596284])
    @settings(max_examples=80, deadline=None)
    def test_involution(self, coeffs):
        # The intermediate reciprocal is rounded, and the second reciprocal
        # amplifies that rounding (the example's intermediate reaches 3.5e4),
        # so no fixed bound holds between u and its double reciprocal.  Each
        # step is instead held to the exact reciprocal of its own input.
        u = Series.from_coefficients(coeffs)
        inv = u.reciprocal()
        back = inv.reciprocal()
        for series, result in ((u, inv), (inv, back)):
            scale = cross_term_scale(series, result)
            for x, y in zip(result.coefficients, exact_reciprocal(series)):
                assert abs(Fraction(x) - y) <= 1e-13 * scale

    def test_zero_constant_term(self):
        with pytest.raises(ZeroConstantTermError):
            Series.from_coefficients([0.0, 1.0]).reciprocal()


class TestEmptyInput:
    def test_series_needs_a_coefficient(self):
        with pytest.raises(ValueError, match="^a series needs at least the constant coefficient$"):
            Series(())

    def test_products_need_a_scale(self):
        with pytest.raises(ValueError, match="^need at least one scale$"):
            ScaledProducts([])


class TestNonFiniteCoefficient:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_rejected_naming_order(self, k, value):
        coeffs = [1.0, 0.5, 0.25, 0.125]
        coeffs[k] = value
        with pytest.raises(ValueError, match=f"a_{k} = {value!r} is not finite"):
            Series.from_coefficients(coeffs)


class TestProductOfScaled:
    def test_linear_factors(self):
        u = Series.from_coefficients([1.0, 1.0, 0.0, 0.0])
        got = product_of_scaled(u, [1.0, 0.5]).coefficients
        assert got == pytest.approx((1.0, 1.5, 0.5, 0.0), abs=1e-15)

    def test_degenerate_scales_give_powers(self):
        u = Series.from_coefficients([1.0, 0.5, -0.25, 2.0])
        got = product_of_scaled(u, [1.0, 1.0, 1.0]).coefficients
        assert got == pytest.approx((u * u * u).coefficients, rel=1e-14)

    def test_constant_term(self):
        u = Series.from_coefficients([2.0, 1.0, 1.0])
        assert product_of_scaled(u, [0.7, 0.4, 0.2])[0] == pytest.approx(8.0)

    @pytest.mark.parametrize("scale", [0.0, -0.5])
    def test_non_positive_scale_rejected(self, scale):
        u = Series.from_coefficients([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=rf"^scale mu={scale!r} must be positive$"):
            product_of_scaled(u, [1.0, scale])


def composition_class(alpha):
    """Classify a multi-index by the structure used in the order-k recursions."""
    k = sum(alpha)
    if k in alpha:
        return "single-max"
    if all(a <= 1 for a in alpha):
        return "all-ones"
    return "mixed"


class TestCompositions:
    def test_k3_m4(self):
        got = list(enumerate_compositions(3, 4))
        assert len(got) == composition_count(3, 4) == 20
        assert (3, 0, 0, 0) in got
        assert (1, 1, 1, 0) in got
        assert (1, 2, 0, 0) in got

    def test_k0(self):
        assert list(enumerate_compositions(0, 3)) == [(0, 0, 0)]

    def test_lexicographic(self):
        got = list(enumerate_compositions(4, 3))
        assert got == sorted(got)
        assert len(got) == len(set(got)) == composition_count(4, 3)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_compositions(30, 10)

    @pytest.mark.parametrize("k,m", [(1, 3), (2, 4), (3, 4), (4, 4), (6, 3)])
    def test_partition_into_structural_classes(self, k, m):
        classes = {"single-max": 0, "all-ones": 0, "mixed": 0}
        for alpha in enumerate_compositions(k, m):
            classes[composition_class(alpha)] += 1
        assert classes["single-max"] == m
        assert classes["all-ones"] == (math.comb(m, k) if k >= 2 else 0)
        assert sum(classes.values()) == composition_count(k, m)


class TestLeibnizOracle:
    def test_constant_term(self):
        u = Series.from_coefficients([3.0, 1.0, 1.0])
        assert leibniz_coefficient(u, [0.5, 0.25], 0) == pytest.approx(9.0)

    def test_two_scales_first_order(self):
        u = Series.from_coefficients([1.0, 1.0, 0.0])
        assert leibniz_coefficient(u, [1.0, 0.5], 1) == pytest.approx(1.5)

    def test_matches_cauchy_product(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            scales = np.sort(rng.uniform(0.1, 2.0, n))[::-1]
            coeffs = rng.uniform(-2.0, 2.0, 9)
            coeffs[0] = 1.0
            u = Series.from_coefficients(coeffs)
            prod = product_of_scaled(u, list(scales))
            for k in range(9):
                expected = prod[k]
                got = leibniz_coefficient(u, list(scales), k)
                assert got == pytest.approx(
                    expected, rel=1e-12, abs=1e-12 * max(1.0, abs(expected))
                )

    def test_order_overflow(self):
        with pytest.raises(ValueError):
            leibniz_coefficient(Series.from_coefficients([1.0, 0.0, 0.0]), [1.0, 0.5], 3)
