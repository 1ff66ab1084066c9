"""Acceptance gate: one test per criterion, each printing a pass line."""

import math
import time

import numpy as np
import pytest

from hypoexp import (
    HypoexpDistribution,
    Series,
    binomial_weights,
    convolve_numeric,
    exponentiality_test,
    forward_solve_theorem1,
    forward_solve_theorem2,
    ks_critical,
    ks_distance,
    lagrange_weights,
    product_of_scaled,
    residual_h,
    residual_q,
    validate_rates,
    validate_scales,
    weights_from_scales,
)

from conftest import random_rates, random_scales
from reference import leibniz_coefficient

MU2 = validate_scales([1.0, 0.5])


def report(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_criterion_1_weight_identities():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 9))
        rv = validate_rates(random_rates(rng, n))
        w = lagrange_weights(rv).weights
        assert abs(math.fsum(w) - 1.0) <= 1e-10 * max(abs(v) for v in w)
        for k in range(1, n):
            terms = [wj * lj**k for wj, lj in zip(w, rv.rates)]
            assert abs(math.fsum(terms)) <= 1e-10 * max(abs(t) for t in terms)
        for k in range(1, n):
            terms = [wj / lj**k for wj, lj in zip(w, rv.rates)]
            gap = math.fsum(terms) - math.fsum(1.0 / lj**k for lj in rv.rates)
            if k == 1:
                assert abs(gap) <= 1e-10 * max(abs(t) for t in terms)
            else:
                assert gap > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"1 weight identities, 200 random rate sets in {elapsed:.3f}s")


def test_criterion_2_binomial_special_case():
    for n in range(2, 11):
        exact = binomial_weights(n).weights
        computed = weights_from_scales(
            validate_scales([1.0 / j for j in range(1, n + 1)])
        ).weights
        for a, b in zip(computed, exact):
            assert a == pytest.approx(b, rel=1e-12)
    report("2 binomial special case up to n=10")


def test_criterion_3_two_rate_worked_identities():
    rv = validate_rates([1.0, 2.0])
    w = lagrange_weights(rv).weights
    assert w == (2.0, -1.0)
    weighted_1 = math.fsum(wj / lj for wj, lj in zip(w, rv.rates))
    weighted_2 = math.fsum(wj / lj**2 for wj, lj in zip(w, rv.rates))
    assert weighted_1 == pytest.approx(1.5, rel=1e-15)
    assert weighted_2 == pytest.approx(1.75, rel=1e-15)
    assert weighted_2 == pytest.approx(1.25 + 0.5, rel=1e-15)
    report("3 worked identities at rates (1, 2)")


def test_criterion_4_laplace_identity():
    rng = np.random.default_rng(1004)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        dist = HypoexpDistribution.from_rates(random_rates(rng, n))
        for t in rng.uniform(0.0, 10.0 * max(dist.rates.rates), 20):
            product = dist.laplace(float(t), "product")
            mixture = dist.laplace(float(t), "mixture")
            assert mixture == pytest.approx(product, rel=1e-10)
    report("4 Laplace product/mixture identity, 50 distributions x 20 points")


def test_criterion_5_scaled_product_oracle():
    rng = np.random.default_rng(1005)
    start = time.perf_counter()
    for _ in range(25):
        n = int(rng.integers(2, 5))
        scales = list(np.sort(rng.uniform(0.05, 3.0, n))[::-1])
        coeffs = rng.uniform(-2.0, 2.0, 9)
        coeffs[0] = 1.0
        u = Series.from_coefficients(coeffs)
        prod = product_of_scaled(u, scales)
        for k in range(9):
            expected = prod[k]
            got = leibniz_coefficient(u, scales, k)
            assert got == pytest.approx(
                expected, rel=1e-12, abs=1e-12 * max(1.0, abs(expected))
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"5 multi-index oracle equivalence in {elapsed:.2f}s")


def test_criterion_6_density_oracle():
    start = time.perf_counter()
    gd2 = convolve_numeric([1.0, 2.0], step=1e-3, t_max=20.0)
    sup2 = gd2.sup_distance_to(HypoexpDistribution.from_rates([1.0, 2.0]).pdf)
    assert sup2 < 1e-5
    gd3 = convolve_numeric([1.0, 2.0, 3.0], step=1e-3)
    sup3 = gd3.sup_distance_to(HypoexpDistribution.from_rates([1.0, 2.0, 3.0]).pdf)
    assert sup3 < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"6 convolution oracle: sup {sup2:.2e} (n=2), {sup3:.2e} (n=3)")


def test_criterion_7_uniqueness_at_truncation():
    rng = np.random.default_rng(1007)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        mu = validate_scales(random_scales(rng, n, spread=100.0))
        a1 = float(rng.uniform(0.1, 5.0))
        solved = forward_solve_theorem1(mu, a1, order=16)
        for k, c in enumerate(solved.coefficients[2:], start=2):
            assert abs(c) < 1e-10 * max(1.0, a1**k)
        back = residual_h(solved, mu)
        assert back.verdict == "exponential-compatible"
    for _ in range(20):
        n = int(rng.integers(2, 6))
        mu = validate_scales(random_scales(rng, n, spread=50.0))
        solved = forward_solve_theorem2(mu, order=16)
        assert solved[1] == pytest.approx(1.0, abs=1e-10)
        assert all(abs(c) < 1e-10 for c in solved.coefficients[2:])
    report("7 forward solvers recover the exponential series")


def test_criterion_8_detection():
    for shape in (2, 3):
        coeffs = [float(math.comb(shape, k)) if k <= shape else 0.0 for k in range(13)]
        verdict = residual_h(Series.from_coefficients(coeffs), MU2)
        assert verdict.verdict == "incompatible"
        assert verdict.first_violation_k <= 4
    wrong_rate = residual_q(Series.from_coefficients([1.0, 2.0] + [0.0] * 8), MU2)
    assert wrong_rate.verdict == "incompatible"
    assert wrong_rate.first_violation_k == 1
    report("8 non-exponential candidates detected at low order")


def test_criterion_9_statistical_closure():
    start = time.perf_counter()
    n_draws = 10**5
    null_rejections = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = rng.exponential(1.0 / 3.0, n_draws)
        if exponentiality_test(data, MU2, alpha=0.01, seed=seed).rejected:
            null_rejections += 1
    assert null_rejections <= 1
    power_rejections = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        data = rng.exponential(1.0 / 3.0, n_draws) + rng.exponential(
            1.0 / 3.0, n_draws
        )
        if exponentiality_test(data, MU2, alpha=0.01, seed=seed).rejected:
            power_rejections += 1
    assert power_rejections >= 9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        f"9 statistical closure: {null_rejections}/10 null, "
        f"{power_rejections}/10 alternative rejections in {elapsed:.1f}s"
    )


def test_criterion_10_sampling_moments():
    dist = HypoexpDistribution.from_rates([1.0, 2.0])
    n = 10**6
    draws = dist.sample(n, seed=1010)
    mean = draws.mean()
    variance = draws.var()
    se_mean = math.sqrt(dist.variance() / n)
    # asymptotic standard error of the sample variance from sample moments
    centered = draws - mean
    se_var = math.sqrt((np.mean(centered**4) - variance**2) / n)
    assert abs(mean - 1.5) <= 4.0 * se_mean
    assert abs(variance - 1.25) <= 4.0 * se_var
    assert dist.moment(2) - dist.moment(1) ** 2 == pytest.approx(1.25, rel=1e-13)
    report(f"10 sampler moments: mean {mean:.5f}, variance {variance:.5f}")


def test_sampler_ks_at_one_percent():
    dist = HypoexpDistribution.from_rates([1.0, 2.0])
    n = 10**6
    draws = dist.sample(n, seed=77)
    assert ks_distance(draws, dist.cdf) < ks_critical(0.01, n)
    report("supplementary: 1e6-draw KS below the 1% critical value")
