import math
import tracemalloc

import numpy as np
import pytest

from hypoexp import (
    HypoexpDistribution,
    convolve_numeric,
    exponentiality_test,
    ks_critical,
    ks_distance,
    validate_scales,
)
from hypoexp import oracles
from hypoexp.errors import (
    GridTooCoarseError,
    InsufficientDataError,
    NonPositiveObservationError,
)

from reference import convolve_direct, mc_weighted_sum

MU2 = validate_scales([1.0, 0.5])


class TestConvolveNumeric:
    def test_single_rate_reproduces_exponential(self):
        gd = convolve_numeric([2.0], step=1e-3)
        assert gd.sup_distance_to(lambda x: 2.0 * np.exp(-2.0 * x)) < 1e-8

    def test_two_rates(self):
        gd = convolve_numeric([1.0, 2.0], step=1e-3, t_max=20.0)
        dist = HypoexpDistribution.from_rates([1.0, 2.0])
        assert gd.sup_distance_to(dist.pdf) < 1e-5

    def test_three_rates(self):
        gd = convolve_numeric([1.0, 2.0, 3.0], step=1e-3)
        dist = HypoexpDistribution.from_rates([1.0, 2.0, 3.0])
        assert gd.sup_distance_to(dist.pdf) < 1e-4

    def test_mass_close_to_one(self):
        gd = convolve_numeric([1.0, 2.0], step=1e-3)
        assert gd.integral() == pytest.approx(1.0, abs=1e-6)

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridTooCoarseError):
            convolve_numeric([1.0, 2.0], step=0.5, t_max=20.0)

    @pytest.mark.parametrize(
        "rates, step, t_max",
        [
            # the benchmark's cases, at the default t_max
            ((1.0, 2.0), 1e-3, None),
            ((1.0, 2.0, 3.0), 1e-3, None),
            ((1.0, 2.0, 3.0, 4.0), 6e-4, None),
            # rates spread over a factor 40 on a short grid of odd length m
            ((0.5, 3.0, 7.0, 20.0), 1e-4, 1.0),
            # odd and even m
            ((1.0, 2.0, 3.0), 1e-3, 0.5),
            ((1.0, 2.0, 3.0), 1e-3, 0.501),
            # the smallest grids: m = 2 and m = 3
            ((1.0, 2.0), 1e-3, 1e-3),
            ((1.0, 2.0, 3.0), 1e-3, 2e-3),
        ],
        ids=["r12", "r123", "r1234", "spread", "odd-m", "even-m", "m2", "m3"],
    )
    def test_matches_direct_convolution(self, rates, step, t_max):
        gd = convolve_numeric(list(rates), step=step, t_max=t_max)
        if t_max is None:
            t_max = HypoexpDistribution.from_rates(list(rates)).quantile(1.0 - 1e-10)
        direct = convolve_direct(rates, step, t_max)
        assert np.array_equal(gd.grid, direct.grid)
        peak = np.max(direct.values)
        assert np.max(np.abs(gd.values - direct.values)) <= 1e-14 * peak

    @pytest.mark.parametrize(
        "step, t_max, name",
        [
            (0.0, 1.0, "step"),
            (-1e-3, 1.0, "step"),
            (float("nan"), 1.0, "step"),
            (float("inf"), 1.0, "step"),
            (1e-3, 0.0, "t_max"),
            (1e-3, -1.0, "t_max"),
            (1e-3, float("nan"), "t_max"),
            (1e-3, float("inf"), "t_max"),
            # one grid point: t_max below half a step
            (1e-3, 4e-4, "t_max"),
            # t_max/step overflows to infinity
            (1e-320, 1.0, "step"),
        ],
    )
    def test_grid_out_of_range_rejected(self, step, t_max, name):
        with pytest.raises(ValueError, match=f"{name}="):
            convolve_numeric([1.0, 2.0], step=step, t_max=t_max)

    @pytest.mark.parametrize(
        "rates, step, t_max",
        [
            ((1.0, 2.0), 1e-7, None),
            ((1.0, 2.0), 1e-6, 2.0),
            # slow rates: the default t_max is about 2.4e4
            ((1e-3, 2e-3), 1e-3, None),
        ],
    )
    def test_grid_above_cap_rejected(self, rates, step, t_max):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"step=.* t_max=.* m=\d+ grid points"):
                convolve_numeric(list(rates), step=step, t_max=t_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # nothing of the grid's size was allocated

    def test_grid_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(oracles, "MAX_GRID_POINTS", 1001)
        assert convolve_numeric([1.0, 2.0], step=1e-3, t_max=1.0).grid.size == 1001
        with pytest.raises(ValueError, match="m=1002 "):
            convolve_numeric([1.0, 2.0], step=1e-3, t_max=1.001)


class TestKsDistance:
    def test_single_sample_at_median(self):
        dist = HypoexpDistribution.from_rates([1.0, 2.0])
        assert ks_distance([dist.quantile(0.5)], dist.cdf) == pytest.approx(0.5)

    def test_null_distribution(self):
        dist = HypoexpDistribution.from_rates([1.0, 2.0])
        n = 10**5
        draws = dist.sample(n, seed=5)
        assert ks_distance(draws, dist.cdf) < ks_critical(0.01, n)

    def test_separated_exponentials(self):
        rng = np.random.default_rng(9)
        draws = rng.exponential(1.0, 10**3)
        # analytic sup distance between Exp(1) and Exp(2) cdfs is 1/4
        stat = ks_distance(draws, lambda x: 1.0 - np.exp(-2.0 * x))
        assert stat > 0.2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], lambda x: x)

    def test_nan_rejected(self):
        dist = HypoexpDistribution.from_rates([1.0, 2.0])
        with pytest.raises(ValueError, match="samples hold NaN"):
            ks_distance([0.5, math.nan, 1.0], dist.cdf)
        with pytest.raises(ValueError, match="cdf returned NaN"):
            ks_distance([0.5, 1.0], lambda x: np.where(x > 0.7, np.nan, 0.5))

    def test_infinite_sample_valid(self):
        dist = HypoexpDistribution.from_rates([1.0, 2.0])
        # the empirical cdf steps to 1/2 at 1 and to 1 at +inf, where cdf = 1
        stat = ks_distance([1.0, math.inf], dist.cdf)
        assert stat == max(dist.cdf(1.0), 0.5)

    def test_critical_values(self):
        assert ks_critical(0.05, 100) == pytest.approx(0.136)
        assert ks_critical(0.01, 100) == pytest.approx(0.163)
        # outside the table: asymptotic formula, close to the 1% constant
        assert ks_critical(0.01 + 1e-12, 100) == pytest.approx(0.163, rel=0.01)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 3.0, -0.05, float("nan")])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha="):
            ks_critical(alpha, 100)

    @pytest.mark.parametrize("n", [0, -3, 2.5, "100", None])
    def test_bad_sample_size_rejected(self, n):
        with pytest.raises(ValueError, match="^n="):
            ks_critical(0.05, n)

    def test_integer_sample_sizes(self):
        assert ks_critical(0.05, 1) == 1.36
        assert ks_critical(0.05, np.int64(100)) == ks_critical(0.05, 100)


def exp_sampler(rate):
    def sampler(count, rng):
        return rng.exponential(1.0 / rate, count)

    return sampler


class TestMcWeightedSum:
    def test_deterministic(self):
        a = mc_weighted_sum(exp_sampler(1.0), MU2, 1000, seed=3)
        b = mc_weighted_sum(exp_sampler(1.0), MU2, 1000, seed=3)
        assert np.array_equal(a, b)

    def test_single_draw_is_weighted_sum(self):
        draw = mc_weighted_sum(exp_sampler(1.0), MU2, 1, seed=8)
        streams = np.random.SeedSequence(8).spawn(2)
        expected = sum(
            m * float(np.random.default_rng(s).exponential(1.0, 1)[0])
            for m, s in zip(MU2.scales, streams)
        )
        assert draw[0] == pytest.approx(expected, rel=1e-14)

    def test_matches_hypoexponential(self):
        n = 10**6
        draws = mc_weighted_sum(exp_sampler(1.0), MU2, n, seed=13)
        dist = HypoexpDistribution.from_rates([1.0, 2.0])
        assert ks_distance(draws, dist.cdf) < ks_critical(0.01, n)

    def test_mixture_density_identity_on_histogram(self):
        # the signed mixture of scaled component densities reproduces the
        # empirical law of the weighted sum
        n = 10**6
        draws = mc_weighted_sum(exp_sampler(1.0), MU2, n, seed=21)
        edges = np.linspace(0.0, 8.0, 81)
        width = edges[1] - edges[0]
        counts, _ = np.histogram(draws, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        mixture = 2.0 * np.exp(-centers) - 2.0 * np.exp(-2.0 * centers)
        se = np.sqrt(np.maximum(mixture, 1e-12) / (n * width))
        assert np.max(np.abs(counts - mixture)) < 5.0 * np.max(se)


class TestExponentialityTest:
    def test_null_not_rejected(self):
        rng = np.random.default_rng(100)
        data = rng.exponential(1.0 / 3.0, 10**5)
        report = exponentiality_test(data, MU2, alpha=0.01, seed=0)
        assert not report.rejected
        assert report.fitted_lambda == pytest.approx(3.0, rel=0.05)

    def test_gamma_rejected(self):
        rng = np.random.default_rng(101)
        data = rng.exponential(1.0, 10**5) + rng.exponential(1.0, 10**5)
        report = exponentiality_test(data, MU2, alpha=0.01, seed=0)
        assert report.rejected

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(102)
        data = rng.exponential(1.0, 10**4)
        a = exponentiality_test(data, MU2, seed=7)
        b = exponentiality_test(data, MU2, seed=7)
        assert a.statistic == b.statistic

    def test_nd_data_count_as_flat_entries(self):
        data = np.random.default_rng(104).exponential(1.0, (300, 2))
        report = exponentiality_test(data, MU2, seed=3)
        assert report.n_observations == 600 and report.n_tuples == 300
        assert report == exponentiality_test(data.ravel(), MU2, seed=3)

    def test_nonpositive_data_rejected(self):
        with pytest.raises(NonPositiveObservationError):
            exponentiality_test([1.0, 0.0] + [1.0] * 200, MU2)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            exponentiality_test([1.0] * 20, MU2)

    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha="):
            exponentiality_test([1.0] * 200, MU2, alpha=alpha)

    def test_report_serializes(self):
        rng = np.random.default_rng(103)
        data = rng.exponential(2.0, 10**4)
        report = exponentiality_test(data, MU2, seed=1)
        payload = report.to_dict()
        assert payload["verdict"] in ("reject", "consistent")
        assert payload["n_tuples"] == 5000


class TestSamplingAgreementSweep:
    def test_ks_across_ten_seeds(self):
        # binomially consistent with the 1% level: allow at most one failure
        n = 10**6
        dist = HypoexpDistribution.from_rates([1.0, 2.0])
        failures = 0
        for seed in range(10):
            draws = mc_weighted_sum(exp_sampler(1.0), MU2, n, seed=seed)
            if ks_distance(draws, dist.cdf) >= ks_critical(0.01, n):
                failures += 1
        assert failures <= 1
