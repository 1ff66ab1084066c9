"""`distribution` workload: HypoexpDistribution evaluation, quantiles and sampling.

Nearly all of its time is in ``core`` evaluation; it never touches
``series`` or ``characterize``.  It carries the fixed F1 and F2 cases.
"""

from __future__ import annotations

import math

import numpy as np

import checks
from inputs import random_rates, rng_for

SIZES = (3, 8, 16, 32)
GRID_POINTS = 100_000
REF_POINTS = 48
SCALAR_POINTS = 400
P_GRID = (1e-6, 1e-4, 1e-2, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6)
#: Seeded quantiles stop at n = 16: at n = 32 about 1 seed in 100 hits F2
#: (p = 1e-6, 1e-4 or 0.01), a failure that depends on the seed.  The fixed
#: panel set keeps n = 32.
SEEDED_QUANTILE_SIZES = (3, 8, 16)
SAMPLE_COUNT = 100_000

#: The accuracy panel: rate sets drawn once from this fixed seed, so that
#: accuracy_digits compares the same outputs in every run.
PANEL_SEED = 20130915
PANEL_GRID = 2_000
PANEL_REF_POINTS = 16

#: F1: the signed mixture cancels.  Close rates (1+g)^k, k = 0..5, evaluated at
#: multiples of the mean; the 1e-3-gap set and the left tail of rates 1..5.
CLOSE_GAPS = (1e-2, 1e-3, 1e-4)
CLOSE_MEAN_MULTIPLES = (0.25, 0.5, 1.0, 2.0, 3.0)
F1_CLOSE_RATES = [1.0, 1.001, 1.002, 1.003, 1.004, 1.005]
F1_CLOSE_POINTS = (0.5, 3.0)
F1_TAIL_RATES = [1.0, 2.0, 3.0, 4.0, 5.0]
F1_TAIL_POINT = 1e-4
#: F2: quantile bisection cannot meet its width stop above 0.5.
F2_RATES = [1.05**k for k in range(16)]
F2_PS = (0.01, 0.1, 0.5, 0.9)


class RateSet:
    """One rate set with its distribution, grids and (later) references."""

    def __init__(self, hx, rates, rng, grid_points, ref_points):
        self.rates = rates
        self.dist = hx.HypoexpDistribution.from_rates(rates)
        self.mean = math.fsum(1.0 / r for r in rates)
        self.variance = math.fsum(1.0 / r**2 for r in rates)
        self.grid = np.linspace(0.0, self.mean + 8.0 * math.sqrt(self.variance), grid_points)
        self.ref_idx = np.sort(rng.choice(grid_points, ref_points, replace=False))
        extra = rng.choice(grid_points, SCALAR_POINTS - ref_points, replace=False)
        self.scalar_idx = np.union1d(self.ref_idx, extra)
        self.scalar_is_ref = np.isin(self.scalar_idx, self.ref_idx)
        self.scalar_x = [float(v) for v in self.grid[self.scalar_idx]]
        self.ref = None
        self.rows = None

    def build_references(self, refs):
        self.ref = refs.HypoexpRef(self.rates)
        self.rows = [self.ref.all(float(x)) for x in self.grid[self.ref_idx]]


def setup(hx, seed: int) -> dict:
    seeded = [
        RateSet(hx, random_rates(rng_for(seed, 1, n), n), rng_for(seed, 2, n), GRID_POINTS, REF_POINTS)
        for n in SIZES
    ]
    panel = [
        RateSet(hx, random_rates(rng_for(PANEL_SEED, 1, n), n), rng_for(PANEL_SEED, 2, n),
                PANEL_GRID, PANEL_REF_POINTS)
        for n in SIZES
    ]
    close = []
    for g in CLOSE_GAPS:
        rates = [(1.0 + g) ** k for k in range(6)]
        mean = math.fsum(1.0 / r for r in rates)
        close.append((g, rates, hx.HypoexpDistribution.from_rates(rates),
                      np.array([m * mean for m in CLOSE_MEAN_MULTIPLES])))
    return {
        "seed": seed,
        "seeded": seeded,
        "panel": panel,
        "close": close,
        "f1_close": hx.HypoexpDistribution.from_rates(F1_CLOSE_RATES),
        "f1_tail": hx.HypoexpDistribution.from_rates(F1_TAIL_RATES),
        "f2": hx.HypoexpDistribution.from_rates(F2_RATES),
    }


def references(state: dict, refs) -> None:
    for rs in state["seeded"] + state["panel"]:
        rs.build_references(refs)
    state["close_refs"] = [[refs.HypoexpRef(rates).all(float(x)) for x in xs]
                           for _, rates, _, xs in state["close"]]
    state["f1_close_ref"] = refs.HypoexpRef(F1_CLOSE_RATES)
    state["f1_tail_ref"] = refs.HypoexpRef(F1_TAIL_RATES)
    state["f2_ref"] = refs.HypoexpRef(F2_RATES)


def _evaluate(rec, tag: str, rs: RateSet, panel: bool, seed: int) -> None:
    d, grid, rows = rs.dist, rs.grid, rs.rows
    idx = rs.ref_idx
    points = len(grid)
    pdf = rec.op(f"pdf_array.{tag}", lambda: d.pdf(grid),
                 lambda v: checks.against_reference("pdf", v[idx], rows),
                 panel=panel, group="eval", work=points)
    sf = rec.op(f"survival_array.{tag}", lambda: d.survival(grid),
                lambda v: checks.against_reference("survival", v[idx], rows),
                panel=panel, group="eval", work=points)

    def check_cdf(v):
        if pdf is not None and sf is not None:
            checks.grid_properties(pdf, v, sf)
        return checks.against_reference("cdf", v[idx], rows)

    rec.op(f"cdf_array.{tag}", lambda: d.cdf(grid), check_cdf, panel=panel, group="eval", work=points)

    xs = rs.scalar_x
    mask = rs.scalar_is_ref

    def check_scalar(kind):
        def check(values):
            checks.require(min(values) >= 0.0, f"scalar {kind} < 0")
            if kind == "cdf":
                checks.require(all(b >= a - checks.MONOTONE_TOL for a, b in zip(values, values[1:])),
                               "scalar cdf decreases")
            picked = [v for v, m in zip(values, mask) if m]
            return checks.against_reference(kind, picked, rows)
        return check

    rec.op(f"pdf_scalar.{tag}", lambda: [d.pdf(x) for x in xs], check_scalar("pdf"),
           panel=panel, group="scalar", work=len(xs))
    rec.op(f"cdf_scalar.{tag}", lambda: [d.cdf(x) for x in xs], check_scalar("cdf"),
           panel=panel, group="scalar", work=len(xs))
    if panel or d.n in SEEDED_QUANTILE_SIZES:
        rec.op(f"quantile.{tag}", lambda: [d.quantile(p) for p in P_GRID],
               lambda qs: checks.quantiles(P_GRID, qs, rs.ref),
               panel=panel, group="quantile", work=len(P_GRID))
    rec.op(f"sample.{tag}", lambda: d.sample(SAMPLE_COUNT, seed),
           lambda v: checks.sample(v, SAMPLE_COUNT, rs.ref, rs.mean, rs.variance),
           panel=panel, group="sample", work=SAMPLE_COUNT)


def run_round(state: dict, rec) -> None:
    seed = state["seed"]
    for rs in state["seeded"]:
        _evaluate(rec, f"n{rs.dist.n}", rs, panel=False, seed=seed)
    for rs in state["panel"]:
        _evaluate(rec, f"panel.n{rs.dist.n}", rs, panel=True, seed=PANEL_SEED)

    # F1: cancellation in the signed mixture on close rates and in the left tail.
    for (g, _, d, xs), rows in zip(state["close"], state["close_refs"]):
        for kind, fn in (("pdf", d.pdf), ("cdf", d.cdf)):
            col = {"pdf": 0, "cdf": 2}[kind]
            rec.op(f"f1.close{g:g}.{kind}", lambda fn=fn: fn(xs),
                   lambda v, col=col, kind=kind: min(
                       checks.relative(f"{kind}({x:g})", y, row[col]) for x, y, row in zip(xs, v, rows)),
                   fault="F1")
    d, ref = state["f1_close"], state["f1_close_ref"]
    for x in F1_CLOSE_POINTS:
        rec.op(f"f1.close.pdf({x:g})", lambda x=x: d.pdf(x),
               lambda v, x=x: checks.relative(f"pdf({x:g})", v, ref.pdf(x)), fault="F1")
    d, ref = state["f1_tail"], state["f1_tail_ref"]
    x = F1_TAIL_POINT
    rec.op("f1.tail.cdf_scalar", lambda: d.cdf(x),
           lambda v: checks.relative(f"cdf({x:g})", v, ref.cdf(x)), fault="F1")
    rec.op("f1.tail.cdf_array", lambda: d.cdf(np.array([x])),
           lambda v: checks.relative(f"cdf([{x:g}])", v[0], ref.cdf(x)), fault="F1")

    # F2: the quantile bisection's width stop is below one ulp for upper >= 0.5.
    d, ref = state["f2"], state["f2_ref"]
    for p in F2_PS:
        rec.op(f"f2.quantile({p:g})", lambda p=p: d.quantile(p),
               lambda q, p=p: checks.quantiles([p], [q], ref), fault="F2")


def rates_metrics(state: dict, rec) -> dict:
    """Work-per-second figures of this workload, read by the traced run."""
    return {
        "core.eval_points_per_s": rec.group_rate("eval"),
        "core.scalar_evals_per_s": rec.group_rate("scalar"),
        "core.quantiles_per_s": rec.group_rate("quantile"),
        "core.samples_per_s": rec.group_rate("sample"),
    }
