"""Per-layer metrics of a traced run.

Times are seconds per round of the timed loop (``setup.*`` excepted, which
are seconds of the one set-up), counts are per call of the operation they
name.  Every workload reports every metric; one that its workload does not
exercise reads 0, which is the prediction for it.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from wl_characterize import ORDERS, SIZES
from wl_cli import SUBCOMMANDS
from wl_oracles import CONVOLUTIONS, SIZES_N, label_n

#: Inclusive time of one traced name, per round.
SPAN_TIMES = {
    "core.pdf_array_s": "core.pdf_array",
    "core.cdf_array_s": "core.cdf_array",
    "core.survival_array_s": "core.survival_array",
    "core.pdf_scalar_s": "core.pdf_scalar",
    "core.cdf_scalar_s": "core.cdf_scalar",
    "core.survival_scalar_s": "core.survival_scalar",
    "core.quantile_s": "core.quantile",
    "core.sample_s": "core.sample",
    "core.validate_s": "core.validate",
    "core.lagrange_weights_s": "core.lagrange_weights",
    "series.mul_s": "series.mul",
    "series.reciprocal_s": "series.reciprocal",
    "characterize.c_coefficients_s": "characterize.c_coefficients",
    "characterize.d_coefficients_s": "characterize.d_coefficients",
    "characterize.lemma2_check_s": "characterize.lemma2_check",
    "oracles.ks_distance_s": "oracles.ks_distance",
}

#: Figures measured by the workloads themselves (not from spans).
WORKLOAD_FIGURES = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "core.eval_points_per_s": "points/s",
    "core.scalar_evals_per_s": "calls/s",
    "core.quantiles_per_s": "calls/s",
    "core.samples_per_s": "draws/s",
    "characterize.solve_grid_s": "s",
    "characterize.residual_grid_s": "s",
    "oracles.test_obs_per_s": "obs/s",
    "oracles.convolve_s": "s",
    "oracles.convolve_points": "count",
    "cli.call_ms": "ms",
    "cli.call_p90_ms": "ms",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
}

#: Span name -> metric key built from the parts of its operation's label.
SPLIT_KEYS = {
    "characterize.forward_solve": lambda p: f"characterize.forward_solve.{p[1]}.{p[2]}.{p[3]}_s",
    "characterize.residual": lambda p: f"characterize.residual.{p[1]}.{p[2]}.{p[3]}_s",
    "oracles.exponentiality_test": lambda p: f"oracles.exponentiality_test.{p[1]}_s",
    "oracles.convolve_numeric": lambda p: f"oracles.convolve_numeric.{p[1]}_s",
    "cli.main": lambda p: f"cli.main.{p[0]}_s",
}

COUNTS = ("core.quantile_evals", "core.weights_calls", "series.mul_calls")
LAYERS = ("core", "series", "characterize", "oracles", "cli")


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in a fixed order."""
    units: dict[str, str] = {}
    units.update({name: "s" for name in ("setup.validate_s", "setup.lagrange_weights_s")})
    units.update({name: "s" for name in SPAN_TIMES})
    units.update({name: "count" for name in COUNTS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    for theorem in (1, 2):
        for n in SIZES:
            for K in ORDERS:
                units[f"characterize.forward_solve.t{theorem}.n{n}.K{K}_s"] = "s"
    for eq in ("h", "q"):
        for n in SIZES:
            for K in ORDERS:
                units[f"characterize.residual.{eq}.n{n}.K{K}_s"] = "s"
    for count in SIZES_N:
        units[f"oracles.exponentiality_test.{label_n(count)}_s"] = "s"
    for case, _, _ in CONVOLUTIONS:
        units[f"oracles.convolve_numeric.{case}_s"] = "s"
    for sub in SUBCOMMANDS:
        units[f"cli.main.{sub}_s"] = "s"
    units.update(WORKLOAD_FIGURES)
    return units


def per_layer_metrics(tracer, rec, figures: dict) -> dict:
    """All per-layer metrics of a finished traced run."""
    rounds = rec.rounds
    nid, dur, parent, op, self_time = tracer.arrays()
    names = np.array(tracer.names + ["<none>"])
    span_name = names[nid]
    in_op = op >= 0
    labels = np.array(tracer.op_labels + [""])[np.where(in_op, op, len(tracer.op_labels))]

    values: dict[str, float] = defaultdict(float)
    for metric, name in SPAN_TIMES.items():
        values[metric] = float(dur[in_op & (span_name == name)].sum()) / rounds
    for metric, name in (("setup.validate_s", "core.validate"),
                         ("setup.lagrange_weights_s", "core.lagrange_weights")):
        values[metric] = float(dur[~in_op & (span_name == name)].sum())
    for layer in LAYERS:
        mask = in_op & np.char.startswith(span_name, layer + ".")
        values[f"{layer}.self_s"] = float(self_time[mask].sum()) / rounds

    # Counts per call: evaluations inside each quantile; weights and products per solve.
    quantiles = in_op & (span_name == "core.quantile")
    has_parent = parent >= 0
    parent_name = np.where(has_parent, span_name[np.where(has_parent, parent, 0)], "")
    evals = in_op & (parent_name == "core.quantile") & (
        np.char.startswith(span_name, "core.cdf") | np.char.startswith(span_name, "core.pdf"))
    values["core.quantile_evals"] = _ratio(evals.sum(), quantiles.sum())
    solve_ops = {i for i, label in enumerate(tracer.op_labels) if label.startswith("solve.")}
    in_solve = np.isin(op, list(solve_ops)) if solve_ops else np.zeros(len(op), bool)
    weights = in_solve & np.isin(span_name, ["core.lagrange_weights", "core.weights_from_scales"]) & ~np.isin(
        parent_name, ["core.lagrange_weights", "core.weights_from_scales"])
    values["core.weights_calls"] = _ratio(weights.sum(), len(solve_ops))
    values["series.mul_calls"] = _ratio((in_solve & (span_name == "series.mul")).sum(), len(solve_ops))

    # Times split by the operation they ran under (its label names the case).
    units = metric_units()
    split = np.nonzero(in_op & np.isin(span_name, list(SPLIT_KEYS)))[0]
    for i in split:
        key = SPLIT_KEYS[span_name[i]](labels[i].split(".") + ["", "", ""])
        if key in units:
            values[key] += float(dur[i]) / rounds

    values.update(figures)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}


def _ratio(count, calls) -> float:
    return float(count) / float(calls) if calls else 0.0
