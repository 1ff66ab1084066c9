"""Each check of the benchmark rejects a deliberately wrong output.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import refs
from harness import CheckError, Recorder

RATES = [1.0, 2.0, 3.0]


@pytest.fixture(scope="module")
def ref():
    return refs.HypoexpRef(RATES)


def _rows(ref, xs):
    return [ref.all(x) for x in xs]


def test_pdf_perturbed_by_1e6_relative_is_rejected(ref):
    xs = [0.5, 1.0, 2.0]
    rows = _rows(ref, xs)
    good = [row[0] for row in rows]
    assert checks.against_reference("pdf", good, rows) > 14
    bad = list(good)
    bad[1] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.against_reference("pdf", bad, rows)


def test_left_tail_cdf_off_is_rejected(ref):
    rows = _rows(ref, [1e-3])
    assert rows[0][2] < checks.BULK_CDF
    with pytest.raises(CheckError):
        checks.against_reference("cdf", [rows[0][2] + 1e-8], rows)


def test_single_value_off_is_rejected(ref):
    with pytest.raises(CheckError):
        checks.relative("cdf(1e-4)", 1.8e-15, ref.cdf(1e-4))


def test_grid_properties_reject_each_defect(ref):
    grid = np.linspace(0.0, 6.0, 200)
    sf = np.array([ref.all(x)[1] for x in grid])
    cdf = 1.0 - sf
    pdf = np.array([ref.pdf(x) for x in grid])
    checks.grid_properties(pdf, cdf, sf)
    with pytest.raises(CheckError):
        checks.grid_properties(np.where(grid == grid[5], -1e-3, pdf), cdf, sf)
    with pytest.raises(CheckError):
        checks.grid_properties(pdf, cdf + 1e-9, sf)
    decreasing = cdf.copy()
    decreasing[100] = decreasing[99] - 1e-6
    with pytest.raises(CheckError):
        checks.grid_properties(pdf, decreasing, 1.0 - decreasing)


def test_quantile_off_is_rejected(ref):
    ps = [0.1, 0.5]
    qs = [_bisect(ref, p) for p in ps]
    assert checks.quantiles(ps, qs, ref) > 8
    with pytest.raises(CheckError):
        checks.quantiles(ps, [qs[0], qs[1] * (1 + 1e-6)], ref)


def _bisect(ref, p):
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ref.cdf(mid) < p else (lo, mid)
    return 0.5 * (lo + hi)


def test_ks_check_rejects_shifted_draws(ref):
    count = 20_000
    rng = np.random.default_rng(7)
    draws = (rng.exponential(size=(count, 3)) / np.array(RATES)).sum(axis=1)
    mean = sum(1 / r for r in RATES)
    variance = sum(1 / r**2 for r in RATES)
    checks.sample(draws, count, ref, mean, variance)
    with pytest.raises(CheckError):
        checks.sample(draws + 0.05 * mean, count, ref, mean, variance)


def test_sample_mean_off_is_rejected(ref):
    count = 20_000
    rng = np.random.default_rng(8)
    draws = (rng.exponential(size=(count, 3)) / np.array(RATES)).sum(axis=1)
    mean = sum(1 / r for r in RATES)
    with pytest.raises(CheckError):
        checks.sample(draws, count, ref, mean * 1.02, 1e-6)


def test_solved_series_with_nonzero_a2_is_rejected():
    series = [1.0, 1.0] + [0.0] * 8
    assert checks.solved_series(series, 1.0, True) == 16.0
    bad = list(series)
    bad[2] = 1e-6
    with pytest.raises(CheckError):
        checks.solved_series(bad, 1.0, True)
    with pytest.raises(CheckError):
        checks.solved_series(series, 1.0, False)


def test_residual_verdicts_and_exit_codes():
    compatible = {"verdict": "exponential-compatible", "residuals": [0.0, 1e-15], "first_violation_k": None}
    incompatible = {"verdict": "incompatible", "residuals": [0.0, 0.0, 0.5], "first_violation_k": 2}
    checks.residual_verdict(compatible, 0, True, None)
    checks.residual_verdict(incompatible, 2, False, 2)
    with pytest.raises(CheckError):
        checks.residual_verdict(incompatible, 0, False, 2)  # swapped exit code
    with pytest.raises(CheckError):
        checks.residual_verdict(incompatible, 2, False, 1)  # wrong first order
    with pytest.raises(CheckError):
        checks.residual_verdict(compatible, 0, False, 2)  # verdict flipped


def test_structural_coefficients_against_fractions():
    c, d = refs.harmonic_structural(5, 8)
    c_float = [float(v) for v in c]
    d_float = [float(v) for v in d]
    scale = sum(1 / j for j in range(1, 6))
    checks.structural_exact("c", c_float, c, scale)
    checks.structural_exact("d", d_float, d, scale)
    bad = list(c_float)
    bad[3] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.structural_exact("c", bad, c, scale)
    flipped = list(d_float)
    flipped[2] = -flipped[2]
    with pytest.raises(CheckError):
        checks.structural_exact("d", flipped, d, scale)
    with pytest.raises(CheckError):
        checks.structural_exact("d", d_float[:-1], d, scale)


def test_structural_signs_reject_wrong_first_coefficient_and_signs():
    checks.structural_signs("d", [1.0 + 1e-9, 0.5], 1e-8)
    with pytest.raises(CheckError):
        checks.structural_signs("d", [1.0 + 1e-7, 0.5], 1e-8)
    with pytest.raises(CheckError):
        checks.structural_signs("c", [0.0, 0.1], 1e-8)


def test_harmonic_reference_matches_binomial_weights():
    assert refs.harmonic_weights(4) == [4, -6, 4, -1]
    c, d = refs.harmonic_structural(2, 2)
    # mu = (1, 1/2), w = (2, -1): c_2 = 1 + 1/4 - (2 - 1/4) = -1/2, d_1 = 1, d_2 = 2 - 1/2.
    assert c[0] == 0 and c[1] == -0.5 and d[0] == 1 and d[1] == 1.5


def _report(data, n, verdict="consistent", statistic=0.01, threshold=0.02):
    return {"n_observations": len(data), "n_tuples": len(data) // n, "statistic": statistic,
            "threshold": threshold, "verdict": verdict, "fitted_lambda": len(data) / math.fsum(data)}


def test_exponentiality_report_rejects_flipped_verdict_and_wrong_lambda():
    data = np.random.default_rng(3).exponential(size=1000)
    inverse_mean = len(data) / math.fsum(data)
    checks.exponentiality_report(_report(data, 2), len(data), inverse_mean, 2, False)
    with pytest.raises(CheckError):
        checks.exponentiality_report(_report(data, 2, verdict="reject"), len(data), inverse_mean, 2, False)
    with pytest.raises(CheckError):
        checks.exponentiality_report(_report(data, 2), len(data), inverse_mean, 2, True)
    wrong = _report(data, 2)
    wrong["fitted_lambda"] *= 1 + 1e-9
    with pytest.raises(CheckError):
        checks.exponentiality_report(wrong, len(data), inverse_mean, 2, False)


def test_null_rejections_bound():
    assert checks.null_rejection_bound(9, 0.01) == 4
    checks.null_rejections(["consistent"] * 8 + ["reject"], 0.01)
    with pytest.raises(CheckError):
        checks.null_rejections(["reject"] * 9, 0.01)


def test_convolution_check_rejects_coarse_values_and_wrong_mass():
    conv_ref = refs.HypoexpRef([1.0, 2.0])
    step = 1e-3
    grid = np.arange(0, 20001) * step
    exact = conv_ref.pdf_array(grid)
    mass = conv_ref.cdf(float(grid[-1]))
    assert checks.convolution(grid, exact, step, mass, conv_ref) == 16.0
    with pytest.raises(CheckError):
        checks.convolution(grid, exact + 3 * step**2, step, mass, conv_ref)
    with pytest.raises(CheckError):
        checks.convolution(grid, exact, step, mass + 1e-5, conv_ref)


def test_recorder_counts_known_faults_without_clearing_correct():
    rec = Recorder()

    def wrong(_):
        raise CheckError("wrong")

    rec.op("fine", lambda: 1, lambda _: 12.0, panel=True)
    rec.op("known", lambda: 1, wrong, fault="F1", panel=True)
    assert (rec.attempted, rec.failed, rec.correct) == (2, 1, True)
    assert rec.panel_digits == [12.0]
    rec.op("raises", lambda: 1 / 0, lambda _: None)
    assert (rec.attempted, rec.failed, rec.correct) == (3, 2, False)


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == layers.metric_units()
    assert spec["paths"] == ["bench"]
