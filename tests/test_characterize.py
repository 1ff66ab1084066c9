import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypoexp import (
    ExponentialVerdict,
    Lemma2Report,
    ResidualReport,
    Series,
    c_coefficients,
    complete_homogeneous,
    d_coefficients,
    forward_solve_theorem1,
    forward_solve_theorem2,
    is_exponential_series,
    lemma2_check,
    product_of_scaled,
    residual_h,
    residual_q,
    validate_rates,
    validate_scales,
    weights_from_scales,
)
from hypoexp import oracles
from hypoexp.core import complete_homogeneous_table
from hypoexp.characterize import (
    DEFAULT_TOL,
    VERDICT_COMPATIBLE,
    VERDICT_DEGENERATE,
    VERDICT_INCOMPATIBLE,
    _normalize,
    _orders,
)
from hypoexp.errors import HypoexpError, NotNormalizedError, ZeroDivisorError

from conftest import random_scales
from reference import (
    enumerate_compositions,
    residual_by_rebuild,
    residual_terms_by_rebuild,
    solve_by_rebuild,
    structural_by_fractions,
)

MU2 = validate_scales([1.0, 0.5])


def exponential_series(lam: float, order: int) -> Series:
    return Series.from_coefficients([1.0, 1.0 / lam] + [0.0] * (order - 1))


class TestStructuralCoefficients:
    def test_c_first_order_vanishes(self):
        assert c_coefficients(MU2, 1).at(1) == pytest.approx(0.0, abs=1e-15)

    def test_c_second_order(self):
        assert c_coefficients(MU2, 2).at(2) == pytest.approx(-0.5, rel=1e-14)

    def test_d_first_order_is_one(self):
        assert d_coefficients(MU2, 1).at(1) == pytest.approx(1.0, rel=1e-15)

    def test_d_second_order(self):
        assert d_coefficients(MU2, 2).at(2) == pytest.approx(1.5, rel=1e-14)

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_order_outside_range_rejected(self, k):
        for coeffs in (c_coefficients(MU2, 2), d_coefficients(MU2, 2)):
            with pytest.raises(IndexError, match=rf"^order {k} outside 1\.\.2$"):
                coeffs.at(k)

    def test_c_signs_random_sweep(self):
        rng = np.random.default_rng(23)
        for n in range(2, 7):
            for _ in range(5):
                mu = validate_scales(random_scales(rng, n))
                values = c_coefficients(mu, 12).values
                assert abs(values[0]) <= 1e-10 * max(m for m in mu.scales)
                assert all(c < 0.0 for c in values[1:])

    def test_d_signs_random_sweep(self):
        rng = np.random.default_rng(29)
        for n in range(2, 7):
            for _ in range(5):
                mu = validate_scales(random_scales(rng, n))
                values = d_coefficients(mu, 12).values
                assert values[0] == pytest.approx(1.0, rel=1e-10)
                assert all(d > 0.0 for d in values[1:])


def spread_sweep():
    """200 scale sets, n = 2..12, log-uniform over e^-25..e^3."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        yield validate_scales(list(np.exp(rng.uniform(-25.0, 3.0, n))))


class TestMixedSums:
    """-c_k, the sum of the mixed monomials of degree k, summed without cancellation."""

    def test_c_matches_fractions_on_spread_sweep(self):
        order = 16
        for mu in spread_sweep():
            c = c_coefficients(mu, order).values
            # exact h_k and p_k over a common power-of-two denominator D
            ratios = [x.as_integer_ratio() for x in mu.scales]
            den = max(d for _, d in ratios)
            ints = [num * (den // d) for num, d in ratios]
            h = [1] + [0] * order
            for x in ints:
                for k in range(1, order + 1):
                    h[k] += x * h[k - 1]
            for k in range(2, order + 1):
                exact = Fraction(sum(x**k for x in ints) - h[k], den**k)
                assert abs(Fraction(c[k - 1]) - exact) <= 1e-14 * abs(exact), (mu, k)

    def test_c_first_order_is_positive_zero(self):
        for mu in [MU2, *spread_sweep()]:
            c1 = c_coefficients(mu, 3).at(1)
            assert c1 == 0.0 and math.copysign(1.0, c1) == 1.0

    @pytest.mark.parametrize("e", range(13, 18))
    def test_tiny_second_scale(self, e):
        """c_2 = -x for scales (1, x); the solve stops on the zero divisor."""
        x = float(f"1e-{e}")
        mu = validate_scales([1.0, x])
        assert c_coefficients(mu, 4).at(2) == -x
        with pytest.raises(ZeroDivisorError, match=f"^c_2 = {-x!r} is numerically zero$"):
            forward_solve_theorem1(mu, 1.0, 4)

    def test_d_is_complete_homogeneous_table(self):
        for mu in spread_sweep():
            assert d_coefficients(mu, 16).values == tuple(
                complete_homogeneous_table(mu.scales, 15)
            )


class TestLemma2Check:
    def test_two_rates_first_gap_zero(self):
        report = lemma2_check(validate_rates([1.0, 2.0]), order=4)
        # weighted reciprocal sum 2/1 - 1/2 = 3/2 equals 1 + 1/2
        assert report.reciprocal_gaps[0] == pytest.approx(0.0, abs=1e-15)

    def test_two_rates_second_gap(self):
        report = lemma2_check(validate_rates([1.0, 2.0]), order=4)
        # 7/4 versus 5/4: the gap is the cross term 1/(rate1*rate2)
        assert report.reciprocal_gaps[1] == pytest.approx(0.5, rel=1e-13)

    def test_three_rates_against_enumeration(self):
        rates = [1.0, 2.0, 3.0]
        report = lemma2_check(validate_rates(rates), order=3)
        for k in (1, 2, 3):
            brute = math.fsum(
                math.prod(1.0 / r**a for r, a in zip(rates, alpha))
                for alpha in enumerate_compositions(k, 3)
            )
            recurrence = complete_homogeneous([1.0 / r for r in rates], k)
            assert recurrence == pytest.approx(brute, rel=1e-13)
            assert abs(report.symmetric_residuals[k - 1]) <= 1e-12

    def test_passes_on_random_rates(self):
        rng = np.random.default_rng(31)
        for n in (2, 4, 6):
            rates = validate_rates(
                [1.0 / s for s in random_scales(rng, n, spread=100.0)]
            )
            assert lemma2_check(rates, order=12).passed


class TestResidualH:
    @pytest.mark.parametrize("lam", [0.25, 1.0, 7.5])
    def test_exponential_series_passes(self, lam):
        rng = np.random.default_rng(37)
        for n in (2, 3, 5):
            mu = validate_scales(random_scales(rng, n, spread=50.0))
            report = residual_h(exponential_series(lam, 12), mu, tol=1e-11)
            assert report.verdict == VERDICT_COMPATIBLE
            assert report.first_violation_k is None
            assert report.fitted_lambda == pytest.approx(lam, rel=1e-12)

    def test_squared_candidate_fails_at_two(self):
        # (1+t)^2 plugged into the weighted product combination for scales
        # (1, 1/2) gives 2*psi(t/2) - psi(t) = 1 - t^2/2: residual -1/2 at k=2
        psi = Series.from_coefficients([1.0, 2.0, 1.0] + [0.0] * 9)
        report = residual_h(psi, MU2)
        assert report.verdict == VERDICT_INCOMPATIBLE
        assert report.first_violation_k == 2
        assert report.residuals[2] == pytest.approx(-0.5, rel=1e-13)

    def test_degenerate_constant_one(self):
        psi = Series.from_coefficients([1.0] + [0.0] * 10)
        report = residual_h(psi, MU2)
        assert report.verdict == VERDICT_DEGENERATE
        assert all(r == pytest.approx(0.0, abs=1e-14) for r in report.residuals)

    def test_normalizes_constant_term(self):
        psi = Series.from_coefficients([4.0, 2.0] + [0.0] * 8)
        report = residual_h(psi, MU2)
        assert report.verdict == VERDICT_COMPATIBLE
        assert report.fitted_lambda == pytest.approx(2.0, rel=1e-13)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(NotNormalizedError):
            residual_h(Series.from_coefficients([0.0, 1.0, 0.0]), MU2)

    @pytest.mark.parametrize("coeffs", [[5e-324, 1.0], [1e-300, 1e10, 0.0]])
    def test_constant_term_too_small_to_divide_by(self, coeffs):
        # 1 / a_0 or a_k / a_0 leaves the float range
        with pytest.raises(NotNormalizedError, match="cannot be normalized"):
            residual_h(Series.from_coefficients(coeffs), MU2)


class TestResidualQ:
    def test_unit_exponential_passes(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            mu = validate_scales(random_scales(rng, n, spread=20.0))
            report = residual_q(exponential_series(1.0, 12), mu, tol=1e-11)
            assert report.verdict == VERDICT_COMPATIBLE

    def test_wrong_rate_fails_at_one(self):
        report = residual_q(
            Series.from_coefficients([1.0, 2.0] + [0.0] * 8), MU2
        )
        assert report.verdict == VERDICT_INCOMPATIBLE
        assert report.first_violation_k == 1
        # first-order coefficient is -2 against the target -1
        assert report.residuals[1] == pytest.approx(-1.0, rel=1e-13)

    def test_constant_coefficient_vanishes(self):
        report = residual_q(exponential_series(1.0, 8), MU2)
        assert report.residuals[0] == pytest.approx(0.0, abs=1e-14)


def erlang_reciprocal(shape: int, order: int) -> Series:
    """Reciprocal transform (1+t)^shape of a unit-rate shape-k gamma."""
    coeffs = [float(math.comb(shape, k)) if k <= shape else 0.0 for k in range(order + 1)]
    return Series.from_coefficients(coeffs)


def uniform_reciprocal(order: int) -> Series:
    """Reciprocal transform of Uniform(0,1): invert sum (-t)^k / (k+1)!."""
    phi = Series.from_coefficients(
        [(-1.0) ** k / math.factorial(k + 1) for k in range(order + 1)]
    )
    return phi.reciprocal()


class TestDetection:
    @pytest.mark.parametrize("shape", [2, 3])
    def test_flags_gamma_candidates(self, shape):
        report = residual_h(erlang_reciprocal(shape, 12), MU2)
        assert report.verdict == VERDICT_INCOMPATIBLE
        assert report.first_violation_k <= 4

    def test_flags_uniform(self):
        report = residual_h(uniform_reciprocal(12), MU2)
        assert report.verdict == VERDICT_INCOMPATIBLE
        assert report.first_violation_k <= 4


class TestForwardSolvers:
    def test_theorem1_two_scales(self):
        solved = forward_solve_theorem1(MU2, 1.0)
        assert solved.coefficients[:2] == (1.0, 1.0)
        assert all(abs(c) < 1e-10 for c in solved.coefficients[2:])

    def test_theorem1_three_scales_other_rate(self):
        mu = validate_scales([1.0, 0.5, 1.0 / 3.0])
        solved = forward_solve_theorem1(mu, 1.0 / 3.0)
        assert solved[1] == pytest.approx(1.0 / 3.0)
        assert all(abs(c) < 1e-10 for c in solved.coefficients[2:])

    def test_theorem1_round_trip(self):
        solved = forward_solve_theorem1(MU2, 0.7)
        report = residual_h(solved, MU2)
        assert report.verdict == VERDICT_COMPATIBLE
        assert all(abs(r) < 1e-10 for r in report.residuals)

    def test_theorem1_random_draws(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            mu = validate_scales(random_scales(rng, n, spread=100.0))
            a1 = float(rng.uniform(0.1, 5.0))
            solved = forward_solve_theorem1(mu, a1)
            for k, c in enumerate(solved.coefficients[2:], start=2):
                assert abs(c) < 1e-10 * max(1.0, a1**k)

    def test_theorem1_rejects_nonpositive_a1(self):
        with pytest.raises(ValueError):
            forward_solve_theorem1(MU2, -1.0)

    @pytest.mark.parametrize("a1", [math.nan, math.inf])
    def test_theorem1_rejects_non_finite_a1(self, a1):
        with pytest.raises(ValueError, match=r"must be positive \(positive-mean"):
            forward_solve_theorem1(MU2, a1, order=3)

    def test_theorem2_two_scales(self):
        solved = forward_solve_theorem2(MU2)
        assert solved.coefficients[:2] == (1.0, 1.0)
        assert all(abs(c) < 1e-10 for c in solved.coefficients[2:])

    def test_theorem2_four_scales(self):
        mu = validate_scales([1.0, 0.5, 1.0 / 3.0, 0.25])
        solved = forward_solve_theorem2(mu)
        assert solved[1] == pytest.approx(1.0, abs=1e-12)
        assert all(abs(c) < 1e-10 for c in solved.coefficients[2:])

    def test_theorem2_round_trip(self):
        solved = forward_solve_theorem2(MU2)
        report = residual_q(solved, MU2)
        assert all(abs(r) < 1e-10 for r in report.residuals)

    def test_theorem2_random_draws(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            mu = validate_scales(random_scales(rng, n, spread=50.0))
            solved = forward_solve_theorem2(mu)
            assert solved[1] == pytest.approx(1.0, abs=1e-10)
            assert all(abs(c) < 1e-10 for c in solved.coefficients[2:])


class TestUnitBlockCancellation:
    """Explicit enumeration of the all-ones multi-index block of each order.

    With unit constant term, that block's weighted sum collapses through the
    vanishing first reciprocal power sum, so it contributes nothing to the
    order-k equation.
    """

    def test_enumerated_block_cancels(self):
        rng = np.random.default_rng(53)
        for n in (3, 4):
            mu = validate_scales(random_scales(rng, n, spread=10.0))
            weights = weights_from_scales(mu).weights
            a1 = float(rng.uniform(0.2, 3.0))
            for k in range(2, min(n, 7)):
                terms = []
                for j, w in enumerate(weights):
                    others = [m for i, m in enumerate(mu.scales) if i != j]
                    for alpha in enumerate_compositions(k, n - 1):
                        if any(a > 1 for a in alpha):
                            continue
                        prod = w
                        for m, a in zip(others, alpha):
                            prod *= (m * a1) ** a
                        terms.append(prod)
                total = math.fsum(terms)
                assert abs(total) <= 1e-11 * max(1.0, max(abs(t) for t in terms))


def _descending(top_and_gaps) -> list[float]:
    top, gaps = top_and_gaps
    scales = [top]
    for g in gaps:
        scales.append(scales[-1] / (1.0 + g))
    return scales


#: 2..10 descending scales, adjacent relative gaps of at least 1/21.
scale_sets = st.tuples(
    st.floats(0.1, 10.0), st.lists(st.floats(0.05, 1.0), min_size=1, max_size=9)
).map(_descending)

_constant_terms = st.sampled_from([1.0, 0.9241091008139, -2.5]) | st.floats(0.1, 10.0)

#: Orders 0..10 with constant terms away from 1 and zeros of both signs, or
#: a constant multiple of an exponential candidate 1 + a_1 t.
candidate_series = st.integers(0, 10).flatmap(
    lambda order: st.tuples(
        _constant_terms,
        st.lists(
            st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0),
            min_size=order, max_size=order,
        ),
    ).map(lambda head_tail: [head_tail[0]] + head_tail[1])
) | st.tuples(_constant_terms, st.floats(0.1, 10.0), st.integers(1, 10)).map(
    lambda t: [t[0], t[0] * t[1]] + [0.0] * (t[2] - 1)
)


def _outcome(thunk):
    """The result, or the name of the error type raised."""
    try:
        return thunk()
    except (HypoexpError, ValueError) as exc:
        return type(exc).__name__


def _assert_same_verdict(psi: Series, mu, survival: bool) -> None:
    """Same verdict, first violation and error type as the weight-form rebuild.

    The two forms judge order k against their own largest term, so a residual
    that lies between the two scaled tolerances flags in one form only; at the
    first order where the two disagree, both residuals must lie in that band.
    """
    fn = residual_q if survival else residual_h
    got = _outcome(lambda: fn(psi, mu))
    want = _outcome(lambda: residual_by_rebuild(psi, mu, survival))
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    if got.first_violation_k == want.first_violation_k:
        assert got.verdict == want.verdict
        return
    k = min(v for v in (got.first_violation_k, want.first_violation_k) if v is not None)
    residuals, scales = _orders(mu, list(_normalize(psi).coefficients), survival)
    rebuilt, rebuilt_scales = residual_terms_by_rebuild(psi, mu, survival)
    low, high = sorted(DEFAULT_TOL * max(1.0, s[k]) for s in (scales, rebuilt_scales))
    rounding = 1e-13 * max(1.0, scales[k], rebuilt_scales[k])
    for r in (residuals[k], rebuilt[k]):
        assert low - rounding <= abs(r) <= high + rounding


class TestIncrementalProducts:
    """Solves and residuals agree with the weight-form rebuild of the products.

    The weight-free form rounds differently, so the verdicts, first
    violations and error types must be identical (up to the tolerance band
    of ``_assert_same_verdict``) and the solved coefficients equal within
    1e-9 * max(1, a_1^k).
    """

    @given(scale_sets, candidate_series, st.floats(0.01, 10.0))
    @example([1.0, 0.5, 0.25, 0.125], [0.9241091008139, 0.5, 0.0, -0.0, 1.5], 1.0)
    @example([2.0, 1.0], [1.0, 1.0, 1e-10], 1.0)
    @settings(max_examples=60, deadline=None)
    def test_matches_rebuilt_products(self, scales, coeffs, a1):
        mu = validate_scales(scales)
        psi = Series.from_coefficients(coeffs)
        for survival in (False, True):
            _assert_same_verdict(psi, mu, survival)
        order = psi.order
        if order < 1:
            with pytest.raises(ValueError):
                forward_solve_theorem1(mu, a1, order=order)
            with pytest.raises(ValueError):
                forward_solve_theorem2(mu, order=order)
            return
        for solved, rebuilt in (
            (lambda: forward_solve_theorem1(mu, a1, order=order).coefficients,
             lambda: solve_by_rebuild(mu, order, a1)),
            (lambda: forward_solve_theorem2(mu, order=order).coefficients,
             lambda: solve_by_rebuild(mu, order)),
        ):
            got, want = _outcome(solved), _outcome(rebuilt)
            if isinstance(got, str) or isinstance(want, str):
                assert got == want
                continue
            slope = abs(want[1])
            for k, (g, w) in enumerate(zip(got, want)):
                assert abs(g - w) <= 1e-9 * max(1.0, slope**k)


def harmonic(n: int):
    """mu_j = 1/j, j = 1..n: weights (-1)^(j-1) C(n, j), up to C(48, 24) ~ 3e13."""
    return validate_scales([1.0 / j for j in range(1, n + 1)])


class TestWeightFreeForm:
    """Harmonic scales up to n = 48, where the signed weights cancel badly."""

    @pytest.mark.parametrize("n", [8, 16, 32, 48])
    def test_structural_coefficients_match_fractions(self, n):
        order = 32
        exact_c, exact_d = structural_by_fractions(
            [Fraction(1, j) for j in range(1, n + 1)], order
        )
        mu = harmonic(n)
        c = c_coefficients(mu, order).values
        d = d_coefficients(mu, order).values
        for k in range(1, order + 1):
            # c_1 = 0 exactly: measure it against p_1 = sum mu_i instead
            power_sum = sum(Fraction(1, j**k) for j in range(1, n + 1))
            assert abs(c[k - 1] - exact_c[k - 1]) <= 1e-12 * max(
                abs(exact_c[k - 1]), power_sum
            )
            assert abs(d[k - 1] - exact_d[k - 1]) <= 1e-12 * exact_d[k - 1]

    @pytest.mark.parametrize("n", [8, 16, 32, 48])
    def test_solved_tails(self, n):
        mu = harmonic(n)
        for a1 in (0.25, 1.0, 2.5):
            solved = forward_solve_theorem1(mu, a1, order=32)
            assert solved[1] == a1
            for k, c in enumerate(solved.coefficients[2:], start=2):
                assert abs(c) <= 1e-12 * max(1.0, a1**k)
        solved = forward_solve_theorem2(mu, order=32)
        assert solved[1] == pytest.approx(1.0, abs=1e-12)
        assert all(abs(c) <= 1e-12 for c in solved.coefficients[2:])

    @pytest.mark.parametrize("order", [16, 32])
    def test_detection_at_32(self, order):
        mu = harmonic(32)
        square = Series.from_coefficients([1.0, 2.0, 1.0] + [0.0] * (order - 2))
        assert residual_q(square, mu).first_violation_k == 1
        assert residual_h(square, mu).first_violation_k == 2
        cubic = Series.from_coefficients([1.0, 1.0, 0.0, 0.01] + [0.0] * (order - 3))
        assert residual_q(cubic, mu).first_violation_k == 3
        assert residual_h(cubic, mu).first_violation_k == 3
        exact = exponential_series(1.0, order)
        for fn in (residual_h, residual_q):
            assert fn(exact, mu).verdict == VERDICT_COMPATIBLE


def _batch_residuals(psi: Series, mu, survival: bool) -> list[float]:
    """fsum(P_i * b_(k-i) * m_(k-i)) - target with P and b = 1/psi built whole."""
    order = psi.order
    product = product_of_scaled(psi, mu).coefficients
    recip = psi.reciprocal().coefficients
    h = complete_homogeneous_table(mu.scales, order)
    moments = [0.0] + h[:order] if survival else h  # h_(k-1) or h_k
    target = {1: -1.0} if survival else {0: 1.0}
    return [
        math.fsum(product[i] * recip[k - i] * moments[k - i] for i in range(k + 1))
        - target.get(k, 0.0)
        for k in range(order + 1)
    ]


@pytest.mark.parametrize("order", [1, 16, 32])
@pytest.mark.parametrize("n", [2, 8, 32])
@pytest.mark.parametrize("kind", ["harmonic", "seeded"])
def test_residuals_match_batch_products_bit_for_bit(kind, n, order):
    """The order-by-order walk rounds exactly like the whole-series products."""
    rng = np.random.default_rng(100 * n + order)
    mu = harmonic(n) if kind == "harmonic" else validate_scales(random_scales(rng, n))
    candidates = [
        exponential_series(1.0, order),
        Series.from_coefficients([1.0] + list(rng.uniform(-0.5, 0.5, order))),
    ]
    for psi in candidates:
        for fn, survival in ((residual_h, False), (residual_q, True)):
            got = fn(psi, mu, tol=0.0).residuals
            want = _batch_residuals(psi, mu, survival)
            assert [r.hex() for r in got] == [r.hex() for r in want]


class TestBeyondFloatRange:
    """A value that leaves the float range raises OverflowError naming its place."""

    @pytest.mark.parametrize(
        "call, quantity",
        [
            (lambda: residual_h(Series.from_coefficients([1.0, 1e200, 0.0]),
                                validate_scales([1e-100, 1e-250])),
             "order 2 of the density-form equation"),
            (lambda: forward_solve_theorem1(
                validate_scales([6.199893838051578e-82, 4.7653027140450045e-84,
                                 1.8104184999703722e-185]),
                1.55464378412941e106, order=3),
             "order 3 of the density-form equation"),
            (lambda: d_coefficients(validate_scales([1e200, 1e100]), 3),
             "complete homogeneous sum h_2 of the scales"),
            (lambda: c_coefficients(validate_scales([0.9e154, 0.8e154]), 2),
             "complete homogeneous sum h_2 of the scales"),
            (lambda: forward_solve_theorem2(validate_scales([1e200, 1e100]), order=3),
             "complete homogeneous sum h_2 of the scales"),
            (lambda: residual_q(Series.from_coefficients([1.0, 1.0, 0.0, 0.0]),
                                validate_scales([1e200, 1e100])),
             "order 2 of the survival-form equation"),
            (lambda: residual_h(Series.from_coefficients([1.0, 1e200, 0.0, 0.0]), MU2),
             "order 2 of the density-form equation"),
            (lambda: forward_solve_theorem1(MU2, 1e200, order=4),
             "order 2 of the density-form equation"),
        ],
        ids=["residual_h-reciprocal", "theorem1-solved-a3", "d-h2", "c-h2", "theorem2-d",
             "residual_q-chain", "residual_h-large-a1", "theorem1-large-a1"],
    )
    def test_names_quantity(self, call, quantity):
        message = f"^{re.escape(quantity)} is beyond the float range$"
        with pytest.raises(OverflowError, match=message):
            call()


class TestNegativeTolerance:
    @pytest.mark.parametrize(
        "call",
        [
            lambda tol: lemma2_check(validate_rates([1.0, 2.0]), 4, tol),
            lambda tol: residual_h(exponential_series(1.0, 4), MU2, tol),
            lambda tol: residual_q(exponential_series(1.0, 4), MU2, tol),
            lambda tol: forward_solve_theorem1(MU2, 1.0, 4, tol),
            lambda tol: forward_solve_theorem2(MU2, 4, tol),
            lambda tol: is_exponential_series(exponential_series(1.0, 4), tol),
        ],
        ids=["lemma2", "residual_h", "residual_q", "theorem1",
             "theorem2", "is_exponential"],
    )
    def test_rejected(self, call):
        with pytest.raises(ValueError, match="tol=-1e-12"):
            call(-1e-12)
        call(0.0)


class TestIsExponentialSeries:
    def test_positive_case(self):
        verdict = is_exponential_series(
            Series.from_coefficients([1.0, 0.25, 0.0, 0.0])
        )
        assert verdict.is_exponential
        assert verdict.fitted_lambda == pytest.approx(4.0)

    def test_quadratic_tail(self):
        verdict = is_exponential_series(
            Series.from_coefficients([1.0, 1.0, 0.5, 0.0])
        )
        assert not verdict.is_exponential

    def test_negative_slope(self):
        verdict = is_exponential_series(
            Series.from_coefficients([1.0, -1.0, 0.0, 0.0])
        )
        assert not verdict.is_exponential
        assert not verdict.degenerate

    def test_degenerate(self):
        verdict = is_exponential_series(Series.from_coefficients([1.0] + [0.0] * 6))
        assert not verdict.is_exponential
        assert verdict.degenerate

    def test_infinite_slope_rejected(self):
        with pytest.raises(ValueError, match="a_1 = inf is not finite"):
            is_exponential_series(Series.from_coefficients([1.0, math.inf, 0.0]))

    @pytest.mark.parametrize("a1", [1e200, -1e200], ids=["positive", "negative"])
    def test_tail_scale_overflow_named(self, a1):
        # |a_1|^2 leaves the float range at the first order of the tail test
        message = (f"^tail scale \\|a_1\\|\\^2 of a_1 = {re.escape(repr(a1))}"
                   " is beyond the float range$")
        with pytest.raises(OverflowError, match=message):
            is_exponential_series(Series.from_coefficients([1.0, a1, 0.0, 0.0]))


class TestConsistencyWithDistribution:
    def test_residual_and_laplace_identity_agree(self):
        # the series residual check and the pointwise transform identity are
        # two views of the same equation; both must pass for the exponential
        from hypoexp import HypoexpDistribution

        rng = np.random.default_rng(59)
        for lam in (0.5, 1.0, 4.0):
            mu = validate_scales(random_scales(rng, 3, spread=10.0))
            report = residual_h(exponential_series(lam, 12), mu)
            assert report.verdict == VERDICT_COMPATIBLE
            dist = HypoexpDistribution.from_rates([lam / m for m in mu.scales])
            for t in rng.uniform(0.0, 5.0 * lam, 20):
                assert dist.laplace(float(t), "mixture") == pytest.approx(
                    dist.laplace(float(t), "product"), rel=1e-10
                )


def test_report_dicts_keep_their_layout():
    # key order and list-typed sequences as the CLI prints them
    residual = ResidualReport(2, (0.0, 1e-17, -2e-17), 1e-10, VERDICT_COMPATIBLE, None, 4.0)
    assert list(residual.to_dict().items()) == [
        ("order", 2), ("residuals", [0.0, 1e-17, -2e-17]), ("tolerance", 1e-10),
        ("verdict", VERDICT_COMPATIBLE), ("first_violation_k", None), ("fitted_lambda", 4.0),
    ]
    violated = ResidualReport(1, (0.0, 0.5), 1e-10, VERDICT_INCOMPATIBLE, 1)
    assert list(violated.to_dict().items()) == [
        ("order", 1), ("residuals", [0.0, 0.5]), ("tolerance", 1e-10),
        ("verdict", VERDICT_INCOMPATIBLE), ("first_violation_k", 1),
    ]
    lemma2 = Lemma2Report(2, 1e-16, (2e-16,), (0.0, 0.25), (1e-17, -1e-17), 1e-10, True)
    assert list(lemma2.to_dict().items()) == [
        ("order", 2), ("weight_sum_residual", 1e-16), ("power_sum_residuals", [2e-16]),
        ("reciprocal_gaps", [0.0, 0.25]), ("symmetric_residuals", [1e-17, -1e-17]),
        ("tolerance", 1e-10), ("passed", True),
    ]
    verdict = ExponentialVerdict(True, 2.0, False)
    assert list(verdict.to_dict().items()) == [
        ("is_exponential", True), ("fitted_lambda", 2.0), ("degenerate", False),
    ]
    test = oracles.TestReport(0.01, 0.02, 0.01, 100, 50, 1.5, 7, "consistent")
    assert list(test.to_dict().items()) == [
        ("statistic", 0.01), ("threshold", 0.02), ("alpha", 0.01), ("n_observations", 100),
        ("n_tuples", 50), ("fitted_lambda", 1.5), ("seed", 7), ("verdict", "consistent"),
    ]
