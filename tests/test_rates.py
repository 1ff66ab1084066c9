import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hypoexp import (
    HypoexpDistribution,
    binomial_weights,
    ks_critical,
    ks_distance,
    lagrange_weights,
    validate_rates,
    validate_scales,
    weights_from_scales,
)
from hypoexp.errors import (
    BinomialCapError,
    NonPositiveRateError,
    NotDistinctError,
    TooFewRatesError,
    WeightOverflowError,
)

from conftest import MIN_RELATIVE_GAP, random_rates
from reference import enumerate_compositions


@st.composite
def rate_lists(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    exponents = draw(
        st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n, unique=True)
    )
    rates = sorted(10.0**e for e in exponents)
    assume(
        all((b - a) / b >= MIN_RELATIVE_GAP for a, b in zip(rates, rates[1:]))
    )
    return rates


class TestValidation:
    def test_valid_pair(self):
        rv = validate_rates([1.0, 2.0], tol=1e-9)
        assert rv.rates == (1.0, 2.0)

    def test_near_tie_rejected(self):
        with pytest.raises(NotDistinctError):
            validate_rates([2.0, 2.0 + 1e-15], tol=1e-9)

    def test_negative_rate_rejected(self):
        with pytest.raises(NonPositiveRateError):
            validate_rates([1.0, -3.0])

    def test_too_few(self):
        with pytest.raises(TooFewRatesError):
            validate_rates([1.0])

    def test_sorting_and_round_trip(self):
        rv = validate_rates([3.0, 1.0, 2.0])
        assert rv.rates == (1.0, 2.0, 3.0)
        assert rv.original_order() == (3.0, 1.0, 2.0)

    def test_scales_sorted_descending(self):
        sv = validate_scales([0.5, 1.0, 0.25])
        assert sv.scales == (1.0, 0.5, 0.25)
        assert sv.to_rates().rates == (1.0, 2.0, 4.0)


class TestWeights:
    def test_two_rates(self):
        w = lagrange_weights(validate_rates([1.0, 2.0]))
        assert w.weights == (2.0, -1.0)

    def test_three_rates_binomial_case(self):
        w = lagrange_weights(validate_rates([1.0, 2.0, 3.0]))
        assert w.weights == pytest.approx((3.0, -3.0, 1.0), rel=1e-12)

    def test_from_scales_two(self):
        w = weights_from_scales(validate_scales([1.0, 0.5]))
        assert w.weights == (2.0, -1.0)

    def test_from_scales_three(self):
        w = weights_from_scales(validate_scales([1.0, 0.5, 1.0 / 3.0]))
        assert w.weights == pytest.approx((3.0, -3.0, 1.0), rel=1e-12)

    def test_scales_equal_reciprocal_rates(self):
        w1 = weights_from_scales(validate_scales([3.0, 1.0]))
        w2 = lagrange_weights(validate_rates([1.0 / 3.0, 1.0]))
        assert w1.weights == pytest.approx(w2.weights, rel=1e-14)

    @given(rate_lists())
    @settings(max_examples=100, deadline=None)
    def test_weight_sum_is_one(self, rates):
        w = lagrange_weights(validate_rates(rates)).weights
        assert abs(math.fsum(w) - 1.0) <= 1e-10 * max(abs(v) for v in w)

    @given(rate_lists())
    @settings(max_examples=100, deadline=None)
    def test_power_sums_vanish(self, rates):
        rv = validate_rates(rates)
        w = lagrange_weights(rv).weights
        for k in range(1, rv.n):
            terms = [wj * lj**k for wj, lj in zip(w, rv.rates)]
            assert abs(math.fsum(terms)) <= 1e-10 * max(abs(t) for t in terms)

    @given(rate_lists())
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_power_sums_dominate(self, rates):
        rv = validate_rates(rates)
        w = lagrange_weights(rv).weights
        for k in range(1, rv.n):
            terms = [wj / lj**k for wj, lj in zip(w, rv.rates)]
            weighted = math.fsum(terms)
            plain = math.fsum(1.0 / lj**k for lj in rv.rates)
            tol = 1e-10 * max(abs(t) for t in terms)
            if k == 1:
                assert abs(weighted - plain) <= tol
            else:
                assert weighted >= plain - tol

    @given(rate_lists())
    @settings(max_examples=50, deadline=None)
    def test_signs_alternate(self, rates):
        w = lagrange_weights(validate_rates(rates))
        signs = w.signs
        assert all(a * b == -1 for a, b in zip(signs, signs[1:]))
        rebuilt = [s * math.exp(lm) for s, lm in zip(signs, w.log_magnitudes)]
        assert rebuilt == pytest.approx(list(w.weights), rel=1e-12)

    def test_overflow_on_near_tied_cluster(self):
        rates = [1.0 + 4e-9 * i for i in range(50)]
        with pytest.raises(WeightOverflowError):
            lagrange_weights(validate_rates(rates))


class TestBinomialWeights:
    def test_n2(self):
        assert binomial_weights(2).weights == (2.0, -1.0)

    def test_n3(self):
        assert binomial_weights(3).weights == (3.0, -3.0, 1.0)

    def test_n5(self):
        assert binomial_weights(5).weights == (5.0, -10.0, 10.0, -5.0, 1.0)

    def test_exactness_flag(self):
        assert binomial_weights(4).exact

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_harmonic_scales(self, n):
        exact = binomial_weights(n).weights
        computed = weights_from_scales(
            validate_scales([1.0 / j for j in range(1, n + 1)])
        ).weights
        assert computed == pytest.approx(exact, rel=1e-12)

    def test_cap(self):
        with pytest.raises(BinomialCapError):
            binomial_weights(61)

    def test_n_too_small(self):
        with pytest.raises(TooFewRatesError):
            binomial_weights(1)


@pytest.fixture(scope="module")
def dist12():
    return HypoexpDistribution.from_rates([1.0, 2.0])


class TestPdfCdf:
    def test_pdf_log2(self, dist12):
        # closed form 2 exp(-x) - 2 exp(-2x) at x = log 2
        assert dist12.pdf(math.log(2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_pdf_at_zero_vanishes(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5):
            dist = HypoexpDistribution.from_rates(random_rates(rng, n))
            scale = max(
                abs(w * lam)
                for w, lam in zip(dist.weights.weights, dist.rates.rates)
            )
            assert dist.pdf(0.0) <= 1e-12 * scale

    def test_pdf_integrates_to_one(self, dist12):
        total, _ = quad(dist12.pdf, 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_pdf_negative_x_rejected(self, dist12):
        with pytest.raises(ValueError):
            dist12.pdf(-0.1)

    def test_array_negative_x_rejected(self):
        dist = HypoexpDistribution.from_rates([1.0, 2.0, 3.0, 4.0, 5.0])
        for xs in (np.array([-1.0]), np.array([0.0, 2.0, -1e-300])):
            for fn in (dist.pdf, dist.cdf, dist.survival):
                with pytest.raises(ValueError):
                    fn(xs)

    def test_survival_log2(self, dist12):
        assert dist12.survival(math.log(2.0)) == pytest.approx(0.75, rel=1e-14)

    def test_survival_at_zero(self, dist12):
        assert dist12.survival(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_cdf_limits(self, dist12):
        assert dist12.cdf(0.0) == 0.0
        assert dist12.cdf(100.0) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_plus_survival(self, dist12):
        for x in (0.0, 0.3, 1.7, 9.0):
            assert dist12.cdf(x) + dist12.survival(x) == 1.0

    def test_cdf_monotone(self, dist12):
        xs = np.linspace(0.0, 15.0, 400)
        values = [dist12.cdf(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_vectorized_matches_scalar(self, dist12):
        xs = np.array([0.0, 0.5, 1.0, 4.0])
        assert dist12.pdf(xs) == pytest.approx([dist12.pdf(float(x)) for x in xs])
        assert dist12.cdf(xs) == pytest.approx([dist12.cdf(float(x)) for x in xs])


class TestLaplace:
    def test_at_zero(self, dist12):
        assert dist12.laplace(0.0, "product") == 1.0
        assert dist12.laplace(0.0, "mixture") == pytest.approx(1.0, abs=1e-15)

    def test_at_one(self, dist12):
        assert dist12.laplace(1.0, "product") == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert dist12.laplace(1.0, "mixture") == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_product_equals_mixture(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            dist = HypoexpDistribution.from_rates(random_rates(rng, n))
            max_rate = max(dist.rates.rates)
            for t in rng.uniform(0.0, 100.0 * max_rate, 20):
                p = dist.laplace(float(t), "product")
                m = dist.laplace(float(t), "mixture")
                assert m == pytest.approx(p, rel=1e-10)

    def test_unknown_form(self, dist12):
        with pytest.raises(ValueError):
            dist12.laplace(1.0, "other")


def moment_bruteforce(rates, k):
    """Multi-index enumeration of E[S^k]; exponential in k, test oracle only."""
    terms = []
    for alpha in enumerate_compositions(k, len(rates)):
        value = 1.0
        for lam, a in zip(rates, alpha):
            value /= lam**a
        terms.append(value)
    return math.factorial(k) * math.fsum(terms)


class TestMoments:
    def test_mean(self, dist12):
        assert dist12.moment(1) == pytest.approx(1.5, rel=1e-14)

    def test_second_moment(self, dist12):
        assert dist12.moment(2) == pytest.approx(3.5, rel=1e-14)

    def test_variance(self, dist12):
        assert dist12.variance() == pytest.approx(1.25, rel=1e-13)

    def test_third_moment_against_enumeration(self, dist12):
        assert dist12.moment(3) == pytest.approx(
            moment_bruteforce([1.0, 2.0], 3), rel=1e-12
        )

    def test_recurrence_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            rates = random_rates(rng, n)
            dist = HypoexpDistribution.from_rates(rates)
            for k in range(1, 7):
                assert dist.moment(k) == pytest.approx(
                    moment_bruteforce(rates, k), rel=1e-12
                )

    def test_invalid_order(self, dist12):
        with pytest.raises(ValueError):
            dist12.moment(0)


class TestQuantile:
    def test_round_trip(self, dist12):
        p = dist12.cdf(1.0)
        assert dist12.quantile(p) == pytest.approx(1.0, abs=1e-10)

    def test_median(self, dist12):
        x = dist12.quantile(0.5)
        assert dist12.cdf(x) == pytest.approx(0.5, abs=1e-12)

    def test_small_p_near_zero(self, dist12):
        assert dist12.quantile(1e-9) < 1e-3

    def test_out_of_range(self, dist12):
        with pytest.raises(ValueError):
            dist12.quantile(0.0)
        with pytest.raises(ValueError):
            dist12.quantile(1.0)


class TestSampling:
    def test_deterministic(self, dist12):
        a = dist12.sample(1000, seed=42)
        b = dist12.sample(1000, seed=42)
        assert np.array_equal(a, b)

    def test_mean_within_standard_errors(self, dist12):
        draws = dist12.sample(10**5, seed=1)
        se = math.sqrt(dist12.variance() / len(draws))
        assert abs(draws.mean() - dist12.mean()) <= 4.0 * se

    def test_ks_against_cdf(self, dist12):
        n = 10**6
        draws = dist12.sample(n, seed=2)
        assert ks_distance(draws, dist12.cdf) < ks_critical(0.01, n)

    def test_bad_count(self, dist12):
        with pytest.raises(ValueError):
            dist12.sample(0, seed=0)
