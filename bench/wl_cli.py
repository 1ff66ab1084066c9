"""`cli` workload: fresh ``python -m hypoexp.cli`` processes, one at a time.

A fixed mix covers all 14 subcommands on small inputs, so interpreter
start-up and import dominate each call.  This is the only workload where
import time moves an end-to-end metric.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from harness import DIGITS_CAP, digits_from_error, require
from inputs import harmonic_scales, random_rates, rng_for

SUBCOMMANDS = ("weights", "pdf", "cdf", "sf", "quantile", "moments", "sample", "laplace",
               "verify-lemma2", "coeffs", "residual", "solve", "oracle-convolve", "test-exponential")
CALL_TIMEOUT_S = 120
SAMPLE_COUNT = 2_000
TEST_COUNT = 5_000
BINOMIAL_N = 6
MOMENT_K = 3
ORDER = 8
SOLVE_ORDER = 12
HARMONIC_N = 5
CONVOLVE_RATES = [1.0, 2.0]
CONVOLVE_STEP = 2e-3
TEST_SCALES = [1.0, 0.5]
#: Relative tolerance of outputs that are sums of a few well-conditioned terms.
EXACT_TOL = 1e-12
#: Calls on fixed inputs; their digits make up accuracy_digits.  The calls on
#: seeded rates and data are checked the same way but left out of it, so that
#: the figure does not move with the seed.
PANEL = ("weights.binomial", "coeffs.c", "coeffs.d", "residual.exp", "solve")
#: Repeats of the interpreter and import probes of the traced run.
PROBE_REPEATS = 3


def _env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], stdin: str | None, env: dict) -> tuple[int, str]:
    """One fresh ``python -m hypoexp.cli`` process; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "hypoexp.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=env, timeout=CALL_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _rel_all(values, refs, tol: float, what: str) -> float:
    require(len(values) == len(refs), f"{what}: {len(values)} values, expected {len(refs)}")
    worst = 0.0
    for v, r in zip(values, refs):
        err = abs(v - r) / abs(r)
        require(err <= tol, f"{what}: {v!r} vs reference {r!r}")
        worst = max(worst, err)
    return digits_from_error(worst)


def setup(hx, seed: int) -> dict:
    rng = rng_for(seed, 5)
    rates = list(hx.validate_rates(random_rates(rng, 3, low=0.5, high=5.0)).rates)
    mean = math.fsum(1.0 / r for r in rates)
    xs = [m * mean for m in (0.25, 0.5, 1.0, 2.0, 4.0)]
    harmonic = list(hx.validate_scales(harmonic_scales(HARMONIC_N)).scales)
    test_data = rng_for(seed, 6).weibull(1.5, TEST_COUNT) * float(np.exp(rng.uniform(-1.0, 1.0)))
    return {
        "hx": hx, "seed": seed, "rates": rates, "xs": xs, "ps": [0.01, 0.5, 0.99], "ts": [0.5, 2.0],
        "harmonic": harmonic, "test_data": test_data,
        "test_text": "\n".join(repr(float(v)) for v in test_data) + "\n",
        "env": _env(),
    }


def references(state: dict, refs) -> None:
    ref = refs.HypoexpRef(state["rates"])
    state["ref"] = ref
    state["rows"] = [ref.all(x) for x in state["xs"]]
    state["moments"] = refs.exact_moments(state["rates"], MOMENT_K)
    state["exact_cd"] = refs.harmonic_structural(HARMONIC_N, ORDER)
    state["binomial"] = refs.harmonic_weights(BINOMIAL_N)
    state["conv_ref"] = refs.HypoexpRef(CONVOLVE_RATES)
    state["test_inverse_mean"] = len(state["test_data"]) / math.fsum(state["test_data"])
    state["calls"] = calls(state)


def calls(state: dict) -> list[tuple]:
    """(label, argv, stdin, expected exit code, check of the parsed payload)."""
    R = json.dumps(state["rates"])
    H = json.dumps(state["harmonic"])
    ref, rows = state["ref"], state["rows"]
    exp_psi = json.dumps([1.0, 1.0] + [0.0] * (ORDER - 1))
    sq_psi = json.dumps([1.0, 2.0, 1.0] + [0.0] * (ORDER - 2))
    moment, mean, variance = state["moments"]
    sum_h = sum(state["harmonic"])

    def weights(p):
        ref_w = ref.weights_float()
        require(p["signs"] == [1 if w > 0 else -1 for w in ref_w] and p["exact"] is False, "signs or exact flag")
        return _rel_all(p["weights"], ref_w, EXACT_TOL, "weights")

    def binomial(p):
        require(p["weights"] == [float(w) for w in state["binomial"]], "binomial weights differ from math.comb")
        require(p["exact"] is True, "binomial weights not flagged exact")
        return DIGITS_CAP

    def evaluate(kind):
        return lambda p: checks.against_reference(kind, p["values"], rows)

    def moments(p):
        require(p["k"] == MOMENT_K, "moment order echoed wrongly")
        return _rel_all([p["moment"], p["mean"], p["variance"]], [moment, mean, variance], EXACT_TOL, "moments")

    def sample(p):
        checks.sample(np.array(p["samples"]), SAMPLE_COUNT, ref, mean, variance)

    def laplace(p):
        exact = [ref.laplace(t) for t in state["ts"]]
        return min(_rel_all(p["product"], exact, EXACT_TOL, "laplace product"),
                   _rel_all(p["mixture"], exact, EXACT_TOL, "laplace mixture"))

    def lemma2(p):
        require(p["passed"] is True, "lemma 2 sweep did not pass")

    def coeffs(which):
        exact = state["exact_cd"][0 if which == "c" else 1]
        return lambda p: checks.structural_exact(which, p["values"], exact, sum_h)

    def residual(compatible, first_k, code):
        return lambda p: checks.residual_verdict(p, code, compatible, first_k)

    def solve(p):
        return checks.solved_series(p["series"], 1.0, p["is_exponential"])

    def convolve(p):
        t_max = p["config"]["t_max"]
        require(p["n_points"] == round(t_max / CONVOLVE_STEP) + 1, "n_points differs from the grid")
        require(p["sup_distance"] <= checks.CONV_C * CONVOLVE_STEP**2, "sup distance above C * step^2")
        mass = state["conv_ref"].cdf(t_max)
        require(abs(p["integral"] - mass) <= checks.CONV_MASS_TOL, f"mass {p['integral']!r} vs cdf {mass!r}")

    def test(p):
        return checks.exponentiality_report(p, TEST_COUNT, state["test_inverse_mean"], len(TEST_SCALES), True)

    def invalid(p):
        require(p is None, "output printed for invalid input")

    xs, ps, ts = json.dumps(state["xs"]), json.dumps(state["ps"]), json.dumps(state["ts"])
    return [
        ("weights.rates", ["weights", "--rates", R], None, 0, weights),
        ("weights.binomial", ["weights", "--binomial", str(BINOMIAL_N)], None, 0, binomial),
        ("pdf", ["pdf", "--rates", R, "--x", xs], None, 0, evaluate("pdf")),
        ("cdf", ["cdf", "--rates", R, "--x", xs], None, 0, evaluate("cdf")),
        ("sf", ["sf", "--rates", R, "--x", xs], None, 0, evaluate("survival")),
        ("quantile", ["quantile", "--rates", R, "--p", ps], None, 0,
         lambda p: checks.quantiles(state["ps"], p["values"], ref)),
        ("moments", ["moments", "--rates", R, "--k", str(MOMENT_K)], None, 0, moments),
        ("sample", ["sample", "--rates", R, "--n", str(SAMPLE_COUNT), "--seed", str(state["seed"])],
         None, 0, sample),
        ("laplace", ["laplace", "--rates", R, "--t", ts], None, 0, laplace),
        ("verify-lemma2", ["verify-lemma2", "--rates", R, "--K", str(ORDER)], None, 0, lemma2),
        ("coeffs.c", ["coeffs", "--which", "c", "--scales", H, "--K", str(ORDER)], None, 0, coeffs("c")),
        ("coeffs.d", ["coeffs", "--which", "d", "--scales", H, "--K", str(ORDER)], None, 0, coeffs("d")),
        ("residual.exp", ["residual", "--which", "h", "--scales", H, "--psi", exp_psi], None, 0,
         residual(True, None, 0)),
        ("residual.sq", ["residual", "--which", "h", "--scales", H, "--psi", sq_psi], None, 2,
         residual(False, 2, 2)),
        ("solve", ["solve", "--theorem", "1", "--scales", H, "--K", str(SOLVE_ORDER)], None, 0, solve),
        ("oracle-convolve", ["oracle-convolve", "--rates", json.dumps(CONVOLVE_RATES),
                             "--step", repr(CONVOLVE_STEP)], None, 0, convolve),
        ("test-exponential", ["test-exponential", "--data", "-", "--scales", json.dumps(TEST_SCALES)],
         state["test_text"], 2, test),
        ("invalid", ["pdf", "--rates", "[1, 1]", "--x", "[1]"], None, 1, invalid),
    ]


def _check_call(expected: int, check):
    def verify(out):
        code, stdout = out
        require(code == expected, f"exit code {code}, expected {expected}")
        return check(json.loads(stdout) if stdout.strip() else None)
    return verify


def _in_process(hx, tracer, label: str, argv: list[str], stdin: str | None) -> None:
    """The same call through ``hypoexp.cli.main`` in this process, for main_s."""
    handle = tracer.open_op(label)
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            hx.cli.main(argv)
    finally:
        sys.stdin = saved
        tracer.close_op(handle)


def run_round(state: dict, rec) -> None:
    env = state["env"]
    for label, argv, stdin, expected, check in state["calls"]:
        rec.op(label, lambda argv=argv, stdin=stdin: run_cli(argv, stdin, env),
               _check_call(expected, check), panel=label in PANEL, group="call", work=1)
        if rec.tracer is not None:
            _in_process(state["hx"], rec.tracer, f"{argv[0]}.in_process", argv, stdin)


def _probe(code: str, env: dict) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=CALL_TIMEOUT_S,
                       capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def trace_extras(state: dict) -> dict:
    """Interpreter start-up and import of hypoexp.cli, each timed as a fresh process."""
    interpreter = _probe("pass", state["env"])
    imported = _probe("import hypoexp.cli", state["env"])
    return {"cli.interpreter_s": interpreter, "cli.import_s": imported - interpreter}


def rates_metrics(state: dict, rec) -> dict:
    calls_ms = [1e3 * d for d in rec.durations]
    return {
        "cli.call_ms": statistics.median(calls_ms),
        "cli.call_p90_ms": float(np.percentile(calls_ms, 90)),
    }


def peak_rss_kb() -> float:
    """Largest resident set of any finished child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
