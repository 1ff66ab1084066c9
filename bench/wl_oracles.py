"""`oracles` workload: the tuple exponentiality test and the convolution oracle.

Here ``core``'s array cdf runs on large sorted data rather than on grids; the
time goes to sorting, the KS distance and the direct O(m^2) ``np.convolve``.
"""

from __future__ import annotations

import math

import numpy as np

import checks
from inputs import harmonic_scales, rng_for

SIZES_N = (10_000, 100_000, 1_000_000)
TUPLE_SIZES = (2, 4, 8)
ALPHA = 0.01
#: Alternatives: Weibull with shape 1.5 and gamma with shape 2, both at the
#: null's scale.
WEIBULL_SHAPE = 1.5
GAMMA_SHAPE = 2.0
#: Fixed convolution cases: rates and a step the oracle's own mass check accepts.
CONVOLUTIONS = (
    ("r12", (1.0, 2.0), 1e-3),
    ("r123", (1.0, 2.0, 3.0), 1e-3),
    ("r1234", (1.0, 2.0, 3.0, 4.0), 6e-4),
)


def label_n(count: int) -> str:
    """Short label of a data size: 10000 -> N1e4."""
    return f"N1e{len(str(count)) - 1}"


def setup(hx, seed: int) -> dict:
    data = {}
    for count in SIZES_N:
        rng = rng_for(seed, 4, count)
        scale = float(np.exp(rng.uniform(-1.0, 1.0)))
        data[count] = {
            "exp": rng.exponential(scale, count),
            "weibull": scale * rng.weibull(WEIBULL_SHAPE, count),
            "gamma": rng.gamma(GAMMA_SHAPE, scale, count),
        }
    mus = {n: hx.validate_scales(harmonic_scales(n)) for n in TUPLE_SIZES}
    return {"hx": hx, "seed": seed, "data": data, "mus": mus}


def references(state: dict, refs) -> None:
    state["conv_refs"] = {name: refs.HypoexpRef(rates) for name, rates, _ in CONVOLUTIONS}
    state["inverse_mean"] = {(count, kind): len(x) / math.fsum(x)
                             for count, sets in state["data"].items() for kind, x in sets.items()}


def run_round(state: dict, rec) -> None:
    hx, seed = state["hx"], state["seed"]
    largest = max(SIZES_N)
    null_verdicts = []
    for count in SIZES_N:
        for kind, x in state["data"][count].items():
            for n in TUPLE_SIZES:
                mu = state["mus"][n]
                must_reject = kind != "exp" and count == largest
                report = rec.op(
                    f"test.{label_n(count)}.{kind}.n{n}",
                    lambda x=x, mu=mu: hx.oracles.exponentiality_test(x, mu, alpha=ALPHA, seed=seed).to_dict(),
                    lambda r, inv=state["inverse_mean"][count, kind], n=n, m=must_reject, c=count:
                        checks.exponentiality_report(r, c, inv, n, m),
                    panel=True, group="test", work=count)
                if kind == "exp" and report is not None:
                    null_verdicts.append(report["verdict"])
    try:
        checks.null_rejections(null_verdicts, ALPHA)
    except checks.CheckError as exc:
        rec.flag(f"null rejections: {exc}")

    points = 0
    for name, rates, step in CONVOLUTIONS:
        ref = state["conv_refs"][name]
        gd = rec.op(
            f"convolve.{name}",
            lambda rates=rates, step=step: hx.oracles.convolve_numeric(list(rates), step=step),
            lambda out, ref=ref, step=step: checks.convolution(out.grid, out.values, step, out.integral(), ref),
            panel=True, group="convolve", work=1)
        points += 0 if gd is None else len(gd.grid)
    state["convolve_points"] = points


def rates_metrics(state: dict, rec) -> dict:
    return {
        "oracles.test_obs_per_s": rec.group_rate("test"),
        "oracles.convolve_s": rec.group_seconds_per_round("convolve"),
        "oracles.convolve_points": state["convolve_points"],
    }
