"""Command-line surface with deterministic, machine-readable output.

Every subcommand is a thin adapter over one library call.  Output goes
through ``json.dumps``, which prints each float as its shortest round-trip
repr, so values reparse bit for bit; ``--format table`` prints one
``key = <JSON value>`` line per field.  All defaults (truncation order,
tolerance, seed) are echoed in the output.  A result that overflows or is
not a finite float exits 1 with nothing on stdout.

``main(argv)`` may be called any number of times in one process: the parser
is built on the first call and reused by every later one, so ``import
hypoexp.cli`` builds nothing and a repeated call pays only for its own work.
Of the package, the import loads only ``core`` and ``errors``; a subcommand
imports ``series``, ``characterize`` or ``oracles`` in the branch that runs
it, so a fresh ``pdf`` process never compiles them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

from .core import (
    DEFAULT_ORDER,
    DEFAULT_SEED,
    DEFAULT_TOL,
    HypoexpDistribution,
    binomial_weights,
    lagrange_weights,
    report_dict,
    validate_rates,
    validate_scales,
    weights_from_scales,
)
from .errors import HypoexpError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECT = 2


def _format(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, allow_nan=False)
    return "\n".join(
        f"{key} = {json.dumps(v, allow_nan=False)}" for key, v in payload.items()
    )


def _read_reals(source: str, option: str) -> list[float]:
    """Inline JSON array, a single-column CSV/text path, or '-' for stdin.

    Raises ValueError naming ``option`` on malformed JSON, on an entry that
    is not a number (JSON null, true/false, a string, a list; a CSV line
    that does not parse), on a JSON integer beyond the float range and on a
    NaN or infinite entry.
    """
    text = source.strip()
    if text.startswith("["):
        try:
            entries = json.loads(text)
        except ValueError as exc:  # malformed JSON, or an integer of over 4300 digits
            raise ValueError(f"--{option}: {exc}") from None
        for v in entries:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"--{option}: entry {v!r} is not a real number")
    else:
        if text == "-":
            raw = sys.stdin.read()
        else:
            with open(text) as fh:
                raw = fh.read()
        entries = [v for v in (ln.split(",")[0].strip() for ln in raw.splitlines()) if v]
    out = []
    for v in entries:
        try:
            x = float(v)
        except ValueError:
            raise ValueError(f"--{option}: entry {v!r} is not a real number") from None
        except OverflowError:
            raise ValueError(f"--{option}: integer entry beyond the float range") from None
        if not math.isfinite(x):
            raise ValueError(f"--{option}: non-finite value {x!r}")
        out.append(x)
    return out


def _finite_float(text: str) -> float:
    """argparse type of the float options: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value {value!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: negative seeds are usage errors."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"negative value {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_USAGE; argparse's own 2 means EXIT_REJECT here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypoexp",
        description=(
            "Hypoexponential distribution toolkit and exponential "
            "characterization verifier. Defaults: K=%d, tol=%g, seed=%d."
            % (DEFAULT_ORDER, DEFAULT_TOL, DEFAULT_SEED)
        ),
    )
    parser.add_argument(
        "--format", choices=("json", "table"), default="json",
        help="output format (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "weights", help="signed mixture weights from rates, scales, or n"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rates", help="JSON array or CSV path of rates")
    group.add_argument("--scales", help="JSON array or CSV path of scales")
    group.add_argument("--binomial", type=int, help="harmonic-scale case for given n")

    for name in ("pdf", "cdf", "sf"):
        p = sub.add_parser(name, help=f"evaluate the {name} at one or more points")
        p.add_argument("--rates", required=True)
        p.add_argument("--x", required=True, help="JSON array of points")

    p = sub.add_parser("quantile", help="invert the cdf at one or more probabilities")
    p.add_argument("--rates", required=True)
    p.add_argument("--p", required=True, help="JSON array of probabilities")

    p = sub.add_parser("moments", help="raw moment of order k, mean, and variance")
    p.add_argument("--rates", required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("sample", help="deterministic draws from the distribution")
    p.add_argument("--rates", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)

    p = sub.add_parser("laplace", help="Laplace transform in product and mixture form")
    p.add_argument("--rates", required=True)
    p.add_argument("--t", required=True, help="JSON array of transform arguments")

    p = sub.add_parser(
        "verify-lemma2", help="check the weight identities at every order"
    )
    p.add_argument("--rates", required=True)
    p.add_argument("--K", type=int, default=12)
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL)

    p = sub.add_parser(
        "coeffs", help="structural coefficients of the forward recursions"
    )
    p.add_argument("--which", choices=("c", "d"), required=True)
    p.add_argument("--scales", required=True)
    p.add_argument("--K", type=int, default=DEFAULT_ORDER)

    p = sub.add_parser(
        "residual", help="residuals of a candidate series in either equation"
    )
    p.add_argument("--which", choices=("h", "q"), required=True)
    p.add_argument("--psi", required=True, help="JSON array of series coefficients")
    p.add_argument("--scales", required=True)
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL)

    p = sub.add_parser("solve", help="forward-solve the coefficient recursion")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--scales", required=True)
    p.add_argument("--a1", type=_finite_float, default=1.0)
    p.add_argument("--K", type=int, default=DEFAULT_ORDER)
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL)

    p = sub.add_parser(
        "oracle-convolve", help="compare the analytic density to convolution quadrature"
    )
    p.add_argument("--rates", required=True)
    p.add_argument("--step", type=_finite_float, default=1e-3)
    p.add_argument("--tmax", type=_finite_float, default=None)

    p = sub.add_parser(
        "test-exponential", help="tuple-based exponentiality test on data"
    )
    p.add_argument("--data", required=True, help="path, '-' for stdin, or JSON array")
    p.add_argument("--scales", required=True)
    p.add_argument("--alpha", type=_finite_float, default=0.01)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)

    return parser


def _run(args) -> tuple[dict, int]:
    cmd = args.command

    if cmd == "weights":
        if args.binomial is not None:
            wv = binomial_weights(args.binomial)
        elif args.rates is not None:
            wv = lagrange_weights(validate_rates(_read_reals(args.rates, "rates")))
        else:
            mu = validate_scales(_read_reals(args.scales, "scales"))
            wv = weights_from_scales(mu)
        return report_dict(wv), EXIT_OK

    if cmd in ("pdf", "cdf", "sf"):
        dist = HypoexpDistribution.from_rates(_read_reals(args.rates, "rates"))
        xs = _read_reals(args.x, "x")
        fn = {"pdf": dist.pdf, "cdf": dist.cdf, "sf": dist.survival}[cmd]
        return {"x": xs, "values": [fn(x) for x in xs]}, EXIT_OK

    if cmd == "quantile":
        dist = HypoexpDistribution.from_rates(_read_reals(args.rates, "rates"))
        ps = _read_reals(args.p, "p")
        return {"p": ps, "values": [dist.quantile(p) for p in ps]}, EXIT_OK

    if cmd == "moments":
        dist = HypoexpDistribution.from_rates(_read_reals(args.rates, "rates"))
        return {
            "k": args.k,
            "moment": dist.moment(args.k),
            "mean": dist.mean(),
            "variance": dist.variance(),
        }, EXIT_OK

    if cmd == "sample":
        dist = HypoexpDistribution.from_rates(_read_reals(args.rates, "rates"))
        draws = dist.sample(args.n, args.seed)
        return {
            "config": {"seed": args.seed, "n": args.n},
            "samples": [float(v) for v in draws],
        }, EXIT_OK

    if cmd == "laplace":
        dist = HypoexpDistribution.from_rates(_read_reals(args.rates, "rates"))
        ts = _read_reals(args.t, "t")
        return {
            "t": ts,
            "product": [dist.laplace(t, "product") for t in ts],
            "mixture": [dist.laplace(t, "mixture") for t in ts],
        }, EXIT_OK

    if cmd == "verify-lemma2":
        from .characterize import lemma2_check
        report = lemma2_check(
            validate_rates(_read_reals(args.rates, "rates")), order=args.K, tol=args.tol
        )
        payload = {"config": {"K": args.K, "tol": args.tol}}
        payload.update(report.to_dict())
        return payload, EXIT_OK if report.passed else EXIT_REJECT

    if cmd == "coeffs":
        from .characterize import c_coefficients, d_coefficients
        mu = validate_scales(_read_reals(args.scales, "scales"))
        fn = c_coefficients if args.which == "c" else d_coefficients
        coeffs = fn(mu, args.K)
        return {
            "config": {"K": args.K},
            "which": coeffs.kind,
            "values": list(coeffs.values),
        }, EXIT_OK

    if cmd == "residual":
        from .characterize import residual_h, residual_q
        from .series import Series
        mu = validate_scales(_read_reals(args.scales, "scales"))
        psi = Series.from_coefficients(_read_reals(args.psi, "psi"))
        fn = residual_h if args.which == "h" else residual_q
        report = fn(psi, mu, tol=args.tol)
        payload = {"config": {"tol": args.tol}, "which": args.which}
        payload.update(report.to_dict())
        code = EXIT_OK if report.compatible else EXIT_REJECT
        return payload, code

    if cmd == "solve":
        from .characterize import (
            forward_solve_theorem1, forward_solve_theorem2, is_exponential_series,
        )
        mu = validate_scales(_read_reals(args.scales, "scales"))
        if args.theorem == 1:
            solved = forward_solve_theorem1(mu, args.a1, order=args.K, tol=args.tol)
        else:
            solved = forward_solve_theorem2(mu, order=args.K, tol=args.tol)
        verdict = is_exponential_series(solved, tol=max(args.tol, 1e-9))
        payload = {
            "config": {"K": args.K, "tol": args.tol, "theorem": args.theorem},
            "series": list(solved.coefficients),
        }
        payload.update(verdict.to_dict())
        return payload, EXIT_OK

    if cmd == "oracle-convolve":
        from .oracles import convolve_numeric
        rv = validate_rates(_read_reals(args.rates, "rates"))
        gd = convolve_numeric(rv, step=args.step, t_max=args.tmax)
        dist = HypoexpDistribution.from_rates(rv)
        return {
            "config": {"step": args.step, "t_max": float(gd.grid[-1])},
            "n_points": len(gd.grid),
            "integral": gd.integral(),
            "sup_distance": gd.sup_distance_to(dist.pdf),
        }, EXIT_OK

    if cmd == "test-exponential":
        from .oracles import exponentiality_test
        mu = validate_scales(_read_reals(args.scales, "scales"))
        data = _read_reals(args.data, "data")
        report = exponentiality_test(data, mu, alpha=args.alpha, seed=args.seed)
        payload = {"config": {"alpha": args.alpha, "seed": args.seed}}
        payload.update(report.to_dict())
        return payload, EXIT_REJECT if report.rejected else EXIT_OK

    raise AssertionError(f"unhandled command {cmd!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        payload, code = _run(args)
        text = _format(payload, args.format)
    except (HypoexpError, ArithmeticError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
