import itertools
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hypoexp.core import (
    RateVector,
    _BLOCK_ENTRIES,
    _CANCELLATION_CLAMP,
    _EXP_UNDERFLOW,
    _block_rows,
    complete_homogeneous_table,
)
from hypoexp.errors import (
    BinomialCapError,
    NegativeDensityError,
    NonConvergenceError,
    NonPositiveRateError,
    NotDistinctError,
    TooFewRatesError,
    WeightOverflowError,
)

from conftest import MIN_RELATIVE_GAP, random_rates
from reference import (
    enumerate_compositions,
    mixture_direct,
    mixtures_direct,
    quantile_capped,
    sample_direct,
)


#: Smallest step of log10(rate) between adjacent ``rate_lists`` rates: a
#: relative gap of MIN_RELATIVE_GAP, with a margin for rounding.
LOG_GAP = -math.log10(1.0 - MIN_RELATIVE_GAP) + 1e-9


@st.composite
def rate_lists(draw, max_n=8):
    """2..max_n ascending rates in [1e-3, 1e3], adjacent relative gaps of at
    least MIN_RELATIVE_GAP.

    Drawn without filtering: n sorted offsets in [0, 6 - (n - 1) * LOG_GAP],
    the i-th raised by i * LOG_GAP, are the rates' log10 above -3.
    """
    n = draw(st.integers(2, max_n))
    room = 6.0 - (n - 1) * LOG_GAP - 1e-9
    offsets = sorted(draw(st.lists(st.floats(0.0, room), min_size=n, max_size=n)))
    return [10.0 ** (-3.0 + u + i * LOG_GAP) for i, u in enumerate(offsets)]


class TestValidation:
    def test_valid_pair(self):
        rv = validate_rates([1.0, 2.0], tol=1e-9)
        assert rv.rates == (1.0, 2.0)

    def test_near_tie_rejected(self):
        with pytest.raises(NotDistinctError):
            validate_rates([2.0, 2.0 + 1e-15], tol=1e-9)

    @pytest.mark.parametrize("validate", [validate_rates, validate_scales])
    @pytest.mark.parametrize("tol", [0.0, 1e-300])
    def test_exact_tie_rejected_at_any_tol(self, validate, tol):
        with pytest.raises(NotDistinctError, match=r"s 1\.0 and 1\.0 "):
            validate([1.0, 1.0, 2.0], tol=tol)

    @pytest.mark.parametrize("validate", [validate_rates, validate_scales])
    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_tol_rejected(self, validate, tol):
        with pytest.raises(ValueError, match=rf"^tol={tol!r} must be non-negative$"):
            validate([1.0, 2.0], tol=tol)

    def test_distinct_values_accepted_at_zero_tol(self):
        assert validate_rates([2.0, math.nextafter(2.0, 3.0)], tol=0.0).n == 2
        assert validate_scales([1.0, 0.5, 0.25], tol=0.0).scales == (1.0, 0.5, 0.25)

    def test_negative_rate_rejected(self):
        with pytest.raises(NonPositiveRateError):
            validate_rates([1.0, -3.0])

    def test_too_few(self):
        with pytest.raises(TooFewRatesError):
            validate_rates([1.0])

    def test_sorting_and_round_trip(self):
        rv = validate_rates([3.0, 1.0, 2.0])
        assert rv.rates == (1.0, 2.0, 3.0)

    def test_scales_sorted_descending(self):
        sv = validate_scales([0.5, 1.0, 0.25])
        assert sv.scales == (1.0, 0.5, 0.25)
        assert sv.to_rates().rates == (1.0, 2.0, 4.0)


def mp_weights(rates) -> list:
    """w_j = prod_{i != j} lambda_i / (lambda_i - lambda_j) at 60 digits."""
    with mpmath.workdps(60):
        lam = [mpmath.mpf(r) for r in rates]
        return [
            mpmath.fprod(li / (li - lj) for i, li in enumerate(lam) if i != j)
            for j, lj in enumerate(lam)
        ]


#: Rates on which each weight is a product of factors of mixed size.
WEIGHT_CASES = {
    "harmonic-32": [float(k) for k in range(1, 33)],
    "seeded-32": random_rates(np.random.default_rng(32), 32, low=1e-3, high=1e3),
    "cluster-1.0001": [1.0001**k for k in range(6)],
}


class TestWeights:
    @pytest.mark.parametrize("rates", WEIGHT_CASES.values(), ids=WEIGHT_CASES.keys())
    def test_matches_mpmath(self, rates):
        w = lagrange_weights(validate_rates(rates))
        with mpmath.workdps(60):
            for got, exact in zip(w.weights, mp_weights(rates)):
                assert abs((got - exact) / exact) <= 2e-15

    def test_log_magnitude_of_underflowed_weight(self):
        rates = [1e-200, 1e-150, 1.0]
        w = lagrange_weights(validate_rates(rates))
        assert w.weights[2] == 0.0 and w.signs[2] == 1
        with mpmath.workdps(60):
            exact = float(mpmath.log(abs(mp_weights(rates)[2])))
        assert exact == pytest.approx(-805.9, abs=0.05)
        assert w.log_magnitudes[2] == pytest.approx(exact, rel=1e-15)

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
        total = mpmath.quad(dist12.pdf, [0, mpmath.inf])
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

    @pytest.mark.parametrize("form", ["product", "mixture"])
    def test_negative_argument_rejected(self, dist12, form):
        with pytest.raises(ValueError, match=r"^t=-0\.5 must be nonnegative$"):
            dist12.laplace(-0.5, form)


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

    def test_negative_table_order_rejected(self):
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            complete_homogeneous_table([1.0, 0.5], -1)

    def test_invalid_order(self, dist12):
        with pytest.raises(ValueError):
            dist12.moment(0)

    def test_non_integer_order_rejected(self, dist12):
        with pytest.raises(ValueError, match=r"k=2\.5 must be an integer"):
            dist12.moment(2.5)
        assert dist12.moment(np.int64(3)) == dist12.moment(3)


#: Probabilities of the benchmark's quantile grid, and 1 - 1e-10, the default
#: upper end of ``convolve_numeric``'s grid.
QUANTILE_PS = (
    1e-6, 1e-4, 1e-2, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-10,
)
#: Probabilities at which rates 1.05**k, k = 0..15, stalled the bisection; with
#: the weights accurate to a few ulps the first three still do, 0.9 converges.
F2_PS = (0.01, 0.1, 0.5, 0.9)


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

    @given(
        rate_lists(max_n=16),
        st.one_of(
            st.sampled_from(QUANTILE_PS),
            st.floats(1e-12, 1.0 - 1e-12),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_capped_bisection(self, rates, p):
        dist = HypoexpDistribution.from_rates(rates)
        try:
            expected = quantile_capped(dist, p)
        except NonConvergenceError:
            return
        assert dist.quantile(p).hex() == expected.hex()

    @pytest.mark.parametrize("scale", (100.0, 1000.0))
    @pytest.mark.parametrize("p", F2_PS + (1 - 1e-10,))
    def test_width_stop_below_half(self, scale, p):
        # F2's rates scaled up: the quantiles lie below 0.5, where the bracket
        # reaches 1e-16 before it collapses and the bisection returns there
        dist = HypoexpDistribution.from_rates([scale * 1.05**k for k in range(16)])
        assert dist.quantile(p).hex() == quantile_capped(dist, p).hex()

    @pytest.mark.parametrize("p", F2_PS[:3])
    def test_stalled_bisection_stops_early(self, monkeypatch, p):
        # rates 1.05**k: the cdf misses p by more than 1e-13 where the bracket
        # collapses, about 55 halvings from [0, mean], and the bisection stops there
        dist = HypoexpDistribution.from_rates([1.05**k for k in range(16)])
        calls = []
        cdf = HypoexpDistribution.cdf

        def counted(self, x):
            calls.append(x)
            return cdf(self, x)

        monkeypatch.setattr(HypoexpDistribution, "cdf", counted)
        with pytest.raises(NonConvergenceError):
            dist.quantile(p)
        assert len(calls) <= 70


    def test_converges_to_mpmath_root(self):
        # p = 0.9, the last of F2_PS: there the cdf misses the mpmath cdf by
        # less than the 1e-13 stop, so the bisection converges
        rates = [1.05**k for k in range(16)]
        x = HypoexpDistribution.from_rates(rates).quantile(0.9)
        with mpmath.workdps(60):
            pairs = list(zip(mp_weights(rates), rates))
            root = mpmath.findroot(
                lambda t: 1 - mpmath.fsum(w * mpmath.exp(-lam * t) for w, lam in pairs) - 0.9, x
            )
            assert abs((x - root) / root) <= 1e-12


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

    def test_non_integer_count_rejected(self, dist12):
        with pytest.raises(ValueError, match=r"count=2\.5 must be an integer"):
            dist12.sample(2.5, seed=1)
        assert np.array_equal(dist12.sample(np.int64(3), seed=1), dist12.sample(3, seed=1))


#: Rate counts of the bit-identity tests.
BLOCK_NS = (2, 3, 5, 8, 16, 24, 32, 48, 64)


def _spread_rates(rng, n):
    """n rates from about 1e-3 to 1e3, one per log-uniform stratum with
    jitter, so the adjacent gaps stay above 10% even at n = 64."""
    edges = np.linspace(math.log(1e-3), math.log(1e3), n)
    jitter = rng.uniform(-0.25, 0.25, n) * (edges[1] - edges[0])
    return [float(r) for r in np.exp(edges + jitter)]


def _block_grids(rates, size, rng):
    """Grids of ``size`` points: the benchmark's grid (mean + 8 sd) sorted and
    shuffled, one whose fastest-rate exponents cross the subnormal band
    [-745.2, -708.4], and one where every exponent is below -800; then the
    benchmark's grid descending, and sorted with its last quarter +inf."""
    mean = math.fsum(1.0 / r for r in rates)
    sd = math.sqrt(math.fsum(1.0 / r**2 for r in rates))
    grid = np.linspace(0.0, mean + 8.0 * sd, size)
    ending_inf = grid.copy()
    ending_inf[size - size // 4:] = np.inf
    return {
        "sorted": grid,
        "unsorted": rng.permutation(grid),
        "subnormal": np.linspace(700.0, 760.0, size) / rates[-1],
        "underflow": np.linspace(800.0, 1e4, size) / rates[0],
        "descending": grid[::-1].copy(),
        "ending_inf": ending_inf,
    }


def _gapped_grid(rates):
    """Three blocks and five points, ascending but for a NaN in the first
    block.  The first block starts at 0, where no column underflows; from
    the second block on every exponent is below -800, so every column does;
    the third block turns +inf halfway."""
    block = _BLOCK_ENTRIES
    mean = math.fsum(1.0 / r for r in rates)
    sd = math.sqrt(math.fsum(1.0 / r**2 for r in rates))
    x = np.concatenate([
        np.linspace(0.0, mean + 8.0 * sd, block),
        np.linspace(800.0, 1e4, 2 * block + 5) / rates[0],
    ])
    x[block // 2] = np.nan
    x[5 * block // 2:] = np.inf
    return x


@pytest.fixture(scope="module", params=BLOCK_NS)
def one_shot_cases(request):
    """(dist, x, one-shot pdf mixture, one-shot survival mixture) per case id,
    for n = ``request.param`` rates; pytest holds one n at a time."""
    n, block = request.param, _BLOCK_ENTRIES
    rng = np.random.default_rng([9, n])
    dist = HypoexpDistribution.from_rates(_spread_rates(rng, n))
    rates = np.asarray(dist.rates.rates)
    xs = {}
    for size in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        for kind, x in _block_grids(rates, size, rng).items():
            xs[f"m{size}-{kind}"] = x
    xs["2d"] = _block_grids(rates, 3 * block + 6, rng)["sorted"].reshape(3, -1)
    xs["0d"] = np.array(rates.sum())
    xs["gapped"] = _gapped_grid(rates)  # NaN: compared apart
    sf = np.asarray(dist.weights.weights)
    pdf = sf * rates
    return {
        cid: (dist, x, *mixtures_direct(x, rates, pdf, sf)) for cid, x in xs.items()
    }


class TestBlockedKernels:
    """Array evaluation and sampling in blocks equal the one-shot formulas."""

    def test_array_evaluation_matches_one_shot(self, one_shot_cases):
        for cid, (dist, x, pdf, sf) in one_shot_cases.items():
            if cid == "gapped":
                continue
            assert pdf.shape == sf.shape == (x.size,), cid
            assert np.array_equal(dist.pdf(x), np.maximum(pdf, 0.0)), cid
            survival = np.clip(sf, 0.0, 1.0)
            assert np.array_equal(dist.survival(x), survival), cid
            assert np.array_equal(dist.cdf(x), 1.0 - survival), cid

    def test_gapped_grid_matches_one_shot(self, one_shot_cases):
        dist, x, pdf, sf = one_shot_cases["gapped"]
        block, slowest = _BLOCK_ENTRIES, dist.rates.rates[0]
        assert x.size >= 3 * block and x[0] == 0.0
        assert np.isnan(x[:block]).any() and not np.isnan(x[block:]).any()
        assert x[block] * -slowest <= _EXP_UNDERFLOW  # every column dead from here
        assert np.isinf(x[2 * block:3 * block]).any()
        assert np.array_equal(dist.pdf(x), np.maximum(pdf, 0.0), equal_nan=True)
        survival = np.clip(sf, 0.0, 1.0)
        assert np.array_equal(dist.survival(x), survival, equal_nan=True)
        assert np.array_equal(dist.cdf(x), 1.0 - survival, equal_nan=True)

    def test_rates_in_any_order(self):
        """A rate dead on a whole sorted block leaves the later rates alone,
        whatever order the rates come in."""
        rates = RateVector((800.0, 1.0))  # the constructor does not sort
        dist = HypoexpDistribution(rates, lagrange_weights(rates))
        x = np.linspace(1.0, 5.0, 1000)  # 800 * x is past the underflow bound
        coeffs = np.asarray(dist.weights.weights)
        survival = dist.survival(x)
        assert survival[0] > 0.3
        assert np.array_equal(survival, np.clip(mixture_direct(x, rates.rates, coeffs), 0.0, 1.0))
        assert survival[0] == pytest.approx(dist.survival(1.0), rel=1e-14)

    def test_other_dtypes_evaluate_in_float64(self):
        dist = HypoexpDistribution.from_rates([1.0, 2.0, 5.0])
        x = np.linspace(0.0, 300.0, 5000)
        for dtype in (np.float32, np.int64, np.longdouble):
            xx = x.astype(dtype)
            for fn in (dist.pdf, dist.survival, dist.cdf):
                values = fn(xx)
                assert values.dtype == np.float64
                assert np.array_equal(values, fn(xx.astype(np.float64))), dtype

    @pytest.mark.parametrize("n", BLOCK_NS)
    def test_sample_matches_one_shot(self, n):
        rates = _spread_rates(np.random.default_rng(n), n)
        dist = HypoexpDistribution.from_rates(rates)
        block = _block_rows(n)
        for count in (1, 2, block - 1, block, block + 1, 2 * block, 10**5):
            draws = dist.sample(count, seed=count)
            expected = sample_direct(dist.rates.rates, count, count)
            assert np.array_equal(draws, expected), count

    @pytest.mark.parametrize("n", BLOCK_NS)
    def test_sample_keeps_the_stream(self, n):
        """The same uniforms feed the same components as the divide-and-sum
        formula: the two differ only by rounding.  Each sum of n positive
        terms is off from the exact one by at most (n - 1) eps/2 relative,
        and the two terms -log(u)/lambda and log(u) * (-1/lambda) by at
        most 3 eps/2, so the two draws differ by less than (n + 1) eps
        relative."""
        rates = _spread_rates(np.random.default_rng(n), n)
        dist = HypoexpDistribution.from_rates(rates)
        lam = np.asarray(dist.rates.rates)
        count = 2 * _block_rows(n) + 1
        u = 1.0 - np.random.default_rng(n).random((count, n))
        divided = (-np.log(u) / lam).sum(axis=1)
        draws = dist.sample(count, seed=n)
        bound = (n + 1) * np.finfo(float).eps * divided
        assert (np.abs(draws - divided) <= bound).all()

    def test_block_rows(self):
        # at least 1024 rows, else the most that fit in the entry budget
        for n in BLOCK_NS + (90, 1000):
            rows = _block_rows(n)
            assert rows >= 1024, n
            assert rows * n <= max(_BLOCK_ENTRIES, 1024 * n), n
            assert rows == 1024 or (rows + 1) * n > _BLOCK_ENTRIES, n


class TestNonFiniteArguments:
    """Array and scalar evaluation agree on NaN (NaN out) and on +inf."""

    @pytest.mark.parametrize("n", [2, 32])
    def test_nan_and_inf(self, n):
        rates = _spread_rates(np.random.default_rng(n), n)
        dist = HypoexpDistribution.from_rates(rates)
        # NaN next to points whose exponentials underflow and points that do not
        x = np.array([np.nan, np.inf, 0.5, 1e9, np.nan])
        for values in (dist.pdf(x), dist.survival(x), dist.cdf(x)):
            assert np.isnan(values[[0, 4]]).all()
            assert not np.isnan(values[1:4]).any()
        assert dist.pdf(x)[1] == 0.0 and dist.pdf(x)[3] == 0.0
        assert dist.survival(x)[1] == 0.0
        assert dist.cdf(x)[1] == 1.0
        for fn in (dist.pdf, dist.survival, dist.cdf):
            assert math.isnan(fn(math.nan))
            assert np.isnan(fn(np.array([np.nan]))).all()
            assert np.isnan(fn(np.full((2, 3000), np.nan))).all()
        assert dist.pdf(math.inf) == 0.0
        assert dist.survival(math.inf) == 0.0
        assert dist.cdf(math.inf) == 1.0

    def test_minus_inf_rejected(self, dist12):
        for fn in (dist12.pdf, dist12.survival, dist12.cdf):
            with pytest.raises(ValueError):
                fn(-math.inf)
            with pytest.raises(ValueError):
                fn(np.array([1.0, -np.inf]))


class TestBeyondFloatRange:
    """A result beyond the float range raises OverflowError, never inf or NaN."""

    #: w_j * lambda_j overflows here, the weights 2.43 and -1.43 do not.
    HUGE_RATES = [1e308, 1.7e308]
    POINTS = [0.0, 1e-309, 1e-308]

    @pytest.mark.parametrize("array", [False, True])
    def test_pdf_coefficient_overflow_named(self, array):
        dist = HypoexpDistribution.from_rates(self.HUGE_RATES)
        x = np.array(self.POINTS) if array else self.POINTS[2]
        message = r"^pdf coefficient w_j \* lambda_j at rate 1e\+308 is beyond the float range$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any numpy warning
            with pytest.raises(OverflowError, match=message):
                dist.pdf(x)

    def test_survival_and_cdf_stay_finite(self):
        dist = HypoexpDistribution.from_rates(self.HUGE_RATES)
        for fn in (dist.survival, dist.cdf):
            values = fn(np.array(self.POINTS))
            assert np.isfinite(values).all()
            assert [v.hex() for v in values] == [fn(x).hex() for x in self.POINTS]

    def test_sample_overflow_raises(self):
        dist = HypoexpDistribution.from_rates([1e-308, 1.5e-308])
        with pytest.raises(OverflowError, match="^a draw of the sample is beyond the float range$"):
            dist.sample(50, 1)

    @pytest.mark.parametrize("t", [0.0, 1.0, 1e300])
    def test_laplace_mixture_overflow_named(self, t):
        dist = HypoexpDistribution.from_rates(self.HUGE_RATES)
        message = r"^pdf coefficient w_j \* lambda_j at rate 1e\+308 is beyond the float range$"
        with pytest.raises(OverflowError, match=message):
            dist.laplace(t, "mixture")
        assert 0.0 < dist.laplace(t, "product") <= 1.0

    @pytest.mark.parametrize("rates", [[1.0, 2.0, 5.0], [1.0001**k for k in range(6)],
                                       [0.3, 7.0, 11.0, 1e3], [1e-300, 3e-300]])
    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0, 1e5, 1e300])
    def test_laplace_mixture_keeps_weight_formula(self, rates, t):
        dist = HypoexpDistribution.from_rates(rates)
        plain = math.fsum(
            w * lam / (lam + t) for w, lam in zip(dist.weights.weights, dist.rates.rates)
        )
        assert dist.laplace(t, "mixture").hex() == plain.hex()


@st.composite
def spaced_rates(draw, max_n=32):
    """2..max_n ascending rates from 1e-3 up, adjacent gaps above 6%."""
    n = draw(st.integers(2, max_n))
    start = draw(st.floats(-3.0, 1.0))
    steps = draw(st.lists(st.floats(0.03, 0.25), min_size=n - 1, max_size=n - 1))
    return [10.0**e for e in itertools.accumulate(steps, initial=start)]


class TestScalarFloats:
    """Scalar evaluation keeps the floats of the plain formula."""

    @given(spaced_rates(), st.one_of(st.just(0.0), st.floats(0.0, 1e4)))
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_formula(self, rates, multiple):
        dist = HypoexpDistribution.from_rates(rates)
        x = multiple * dist.mean()
        expected = {}
        for name, upper in (("pdf", math.inf), ("survival", 1.0)):
            # the coefficients rebuilt from the weights on every call
            terms = [
                (w * lam if name == "pdf" else w) * math.exp(-lam * x)
                for w, lam in zip(dist.weights.weights, dist.rates.rates)
            ]
            value = math.fsum(terms)
            cancelled = value < -_CANCELLATION_CLAMP * max(abs(t) for t in terms)
            expected[name] = None if cancelled else min(max(value, 0.0), upper)
        survival = expected["survival"]
        expected["cdf"] = None if survival is None else 1.0 - survival
        for name, want in expected.items():
            fn = getattr(dist, name)
            if want is None:
                with pytest.raises(NegativeDensityError):
                    fn(x)
            else:
                assert fn(x).hex() == want.hex(), name

    def test_cached_coefficients_leave_identity_alone(self):
        dist = HypoexpDistribution.from_rates([1.0, 2.0, 5.0])
        fresh = HypoexpDistribution.from_rates([1.0, 2.0, 5.0])
        before = (repr(dist), hash(dist))
        dist.pdf(0.5)
        dist.survival(np.array([0.5, 1.0]))
        assert (repr(dist), hash(dist)) == before
        assert dist == fresh and fresh == dist
        back = pickle.loads(pickle.dumps(dist))
        assert back == fresh and hash(back) == hash(fresh) and repr(back) == repr(fresh)
        assert back.pdf(0.5).hex() == fresh.pdf(0.5).hex()
        assert back.survival(1.0).hex() == fresh.survival(1.0).hex()


#: Rates 1.0001**k, k = 0..5: their signed mixtures sum to about -1e-305 from
#: x = 729.5 to 740, far below the clamp -1e-12 * max|term|.
CANCELLING_RATES = [1.0001**k for k in range(6)]


class TestEvaluationContract:
    """Float and array evaluation raise on the same cancelled sums."""

    @pytest.mark.parametrize("x", [729.5, 731.0, 735.0, 740.0])
    def test_cancelled_sum_raises(self, x):
        dist = HypoexpDistribution.from_rates(CANCELLING_RATES)
        for fn in (dist.pdf, dist.survival, dist.cdf):
            for arg in (x, np.array([x]), np.array([1.0, np.nan, x, 2.0])):
                with pytest.raises(NegativeDensityError):
                    fn(arg)

    def test_past_the_cancellation_evaluates(self):
        dist = HypoexpDistribution.from_rates(CANCELLING_RATES)
        for fn in (dist.pdf, dist.survival, dist.cdf):
            value = fn(744.0)
            assert 0.0 <= value <= 1.0
            assert fn(np.array([744.0]))[0] == pytest.approx(value, rel=1e-6)

    def test_random_rates_gives_up(self):
        # 20 rates in [1, 2] cannot keep adjacent gaps of 5%
        with pytest.raises(RuntimeError, match=r"n=20 rates in \[1.0, 2.0\]"):
            random_rates(np.random.default_rng(0), 20, low=1.0, high=2.0)
