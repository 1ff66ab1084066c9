import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypoexp import (
    DEFAULT_ORDER,
    DEFAULT_SEED,
    DEFAULT_TOL,
    HypoexpDistribution,
    lagrange_weights,
    validate_rates,
)
from hypoexp.cli import _parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestWeightsCommand:
    def test_from_scales(self, capsys):
        code, payload = run_json(capsys, "weights", "--scales", "[1, 0.5]")
        assert code == 0
        assert payload["weights"] == [2.0, -1.0]

    def test_from_rates(self, capsys):
        code, payload = run_json(capsys, "weights", "--rates", "[1, 2, 3]")
        assert code == 0
        assert payload["weights"] == pytest.approx([3.0, -3.0, 1.0])

    def test_binomial(self, capsys):
        code, payload = run_json(capsys, "weights", "--binomial", "5")
        assert code == 0
        assert payload["weights"] == [5.0, -10.0, 10.0, -5.0, 1.0]
        assert payload["exact"] is True

    def test_csv_input(self, capsys, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("1.0\n2.0\n")
        code, payload = run_json(capsys, "weights", "--rates", str(path))
        assert code == 0
        assert payload["weights"] == [2.0, -1.0]

    def test_invalid_rates_exit_one(self, capsys):
        code, out, err = run(capsys, "weights", "--rates", "[1, -2]")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestEvaluationCommands:
    def test_pdf_round_trips_library(self, capsys):
        code, payload = run_json(
            capsys, "pdf", "--rates", "[1, 2]", "--x", "[0.5, 1.0]"
        )
        dist = HypoexpDistribution.from_rates([1.0, 2.0])
        assert code == 0
        assert payload["values"] == [dist.pdf(0.5), dist.pdf(1.0)]

    def test_cdf_sf_complement(self, capsys):
        _, cdf = run_json(capsys, "cdf", "--rates", "[1, 2]", "--x", "[1.5]")
        _, sf = run_json(capsys, "sf", "--rates", "[1, 2]", "--x", "[1.5]")
        assert cdf["values"][0] + sf["values"][0] == 1.0

    def test_quantile(self, capsys):
        code, payload = run_json(
            capsys, "quantile", "--rates", "[1, 2]", "--p", "[0.5]"
        )
        dist = HypoexpDistribution.from_rates([1.0, 2.0])
        assert code == 0
        assert dist.cdf(payload["values"][0]) == pytest.approx(0.5, abs=1e-12)

    def test_moments(self, capsys):
        code, payload = run_json(capsys, "moments", "--rates", "[1, 2]", "--k", "2")
        assert code == 0
        assert payload["moment"] == 3.5
        assert payload["mean"] == 1.5
        assert payload["variance"] == 1.25

    def test_laplace(self, capsys):
        code, payload = run_json(capsys, "laplace", "--rates", "[1, 2]", "--t", "[1]")
        assert code == 0
        assert payload["product"][0] == pytest.approx(1.0 / 3.0)
        assert payload["mixture"][0] == pytest.approx(1.0 / 3.0)

    def test_sample_identical_bytes(self, capsys):
        _, out1, _ = run(capsys, "sample", "--rates", "[1, 2]", "--n", "50")
        _, out2, _ = run(capsys, "sample", "--rates", "[1, 2]", "--n", "50")
        assert out1 == out2

    def test_sample_matches_library(self, capsys):
        code, payload = run_json(
            capsys, "sample", "--rates", "[1, 2]", "--n", "10", "--seed", "4"
        )
        expected = HypoexpDistribution.from_rates([1.0, 2.0]).sample(10, seed=4)
        assert code == 0
        assert payload["samples"] == list(expected)


class TestCharacterizationCommands:
    def test_verify_lemma2(self, capsys):
        code, payload = run_json(capsys, "verify-lemma2", "--rates", "[1, 2, 3]")
        assert code == 0
        assert payload["passed"] is True

    def test_coeffs_c(self, capsys):
        code, payload = run_json(
            capsys, "coeffs", "--which", "c", "--scales", "[1, 0.5]", "--K", "2"
        )
        assert code == 0
        assert payload["values"] == pytest.approx([0.0, -0.5])

    def test_coeffs_d(self, capsys):
        code, payload = run_json(
            capsys, "coeffs", "--which", "d", "--scales", "[1, 0.5]", "--K", "2"
        )
        assert code == 0
        assert payload["values"] == pytest.approx([1.0, 1.5])

    def test_coeffs_config_echoes_order_only(self, capsys):
        code, payload = run_json(
            capsys, "coeffs", "--which", "d", "--scales", "[1, 0.5]", "--K", "3"
        )
        assert code == 0
        assert payload["config"] == {"K": 3}

    def test_residual_incompatible_exit_two(self, capsys):
        code, payload = run_json(
            capsys,
            "residual", "--which", "h",
            "--psi", "[1, 1, 1]",
            "--scales", "[1, 0.5]",
        )
        assert code == 2
        assert payload["verdict"] == "incompatible"

    def test_residual_compatible(self, capsys):
        code, payload = run_json(
            capsys,
            "residual", "--which", "q",
            "--psi", "[1, 1, 0, 0, 0, 0]",
            "--scales", "[1, 0.5]",
        )
        assert code == 0
        assert payload["verdict"] == "exponential-compatible"

    def test_solve_theorem2(self, capsys):
        code, payload = run_json(
            capsys,
            "solve", "--theorem", "2",
            "--scales", "[1, 0.5, 0.3333333333333333]",
            "--K", "12",
        )
        assert code == 0
        assert payload["series"][0] == 1.0
        assert payload["series"][1] == pytest.approx(1.0, abs=1e-11)
        assert all(abs(c) < 1e-10 for c in payload["series"][2:])
        assert payload["is_exponential"] is True

    def test_solve_theorem1_custom_slope(self, capsys):
        code, payload = run_json(
            capsys,
            "solve", "--theorem", "1", "--scales", "[1, 0.5]", "--a1", "0.25",
        )
        assert code == 0
        assert payload["series"][1] == 0.25
        assert payload["fitted_lambda"] == pytest.approx(4.0)


class TestOracleCommands:
    def test_oracle_convolve(self, capsys):
        code, payload = run_json(
            capsys,
            "oracle-convolve", "--rates", "[1, 2]", "--step", "0.002",
            "--tmax", "20",
        )
        assert code == 0
        assert payload["sup_distance"] < 1e-5
        assert payload["integral"] == pytest.approx(1.0, abs=1e-6)

    def test_exponential_data_consistent(self, capsys, tmp_path):
        rng = np.random.default_rng(200)
        path = tmp_path / "data.txt"
        np.savetxt(path, rng.exponential(0.5, 2000))
        code, payload = run_json(
            capsys,
            "test-exponential", "--data", str(path), "--scales", "[1, 0.5]",
        )
        assert code == 0
        assert payload["verdict"] == "consistent"

    def test_gamma_data_rejected_exit_two(self, capsys, tmp_path):
        rng = np.random.default_rng(201)
        path = tmp_path / "data.txt"
        np.savetxt(path, rng.gamma(2.0, 1.0, 20000))
        code, payload = run_json(
            capsys,
            "test-exponential", "--data", str(path), "--scales", "[1, 0.5]",
        )
        assert code == 2
        assert payload["verdict"] == "reject"

    def test_stdin_data(self, capsys, monkeypatch):
        rng = np.random.default_rng(202)
        text = "\n".join(str(v) for v in rng.exponential(1.0, 500))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, payload = run_json(
            capsys,
            "test-exponential", "--data", "-", "--scales", "[1, 0.5]",
        )
        assert code in (0, 2)
        assert payload["n_observations"] == 500


class TestOutputFormat:
    def test_table_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "table", "weights", "--scales", "[1, 0.5]"
        )
        assert code == 0
        assert "weights = [2.0, -1.0]" in out

    def test_seventeen_digit_round_trip(self, capsys):
        _, payload = run_json(
            capsys, "pdf", "--rates", "[1, 2]", "--x", "[0.7853981633974483]"
        )
        dist = HypoexpDistribution.from_rates([1.0, 2.0])
        assert payload["values"][0] == dist.pdf(0.7853981633974483)

    def test_weights_json_exact(self, capsys):
        _, out, _ = run(capsys, "weights", "--rates", "[1, 2]")
        parsed = json.loads(out)
        exact = lagrange_weights(validate_rates([1.0, 2.0]))
        assert parsed["weights"] == list(exact.weights)


class TestUsageErrors:
    def test_missing_argument_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--rates", "[1, 2]"])
        assert exc.value.code == 1
        assert "--k" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hypoexp")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--theorem", "1", "--scales", "[1, 0.5]", "--K", "0"],
            ["solve", "--theorem", "1", "--scales", "[1, 0.5]", "--K", "-3"],
            ["solve", "--theorem", "2", "--scales", "[1, 0.5]", "--K", "0"],
            ["coeffs", "--which", "c", "--scales", "[1, 0.5]", "--K", "-2"],
            ["coeffs", "--which", "d", "--scales", "[1, 0.5]", "--K", "0"],
            ["verify-lemma2", "--rates", "[1, 2]", "--K", "-1"],
        ],
    )
    def test_order_below_one_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "must be at least 1" in err


class TestOutOfRangeOption:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["oracle-convolve", "--rates", "[1, 2]", "--step", "0"], "step"),
            (["oracle-convolve", "--rates", "[1, 2]", "--step=-0.001"], "step"),
            (["oracle-convolve", "--rates", "[1, 2]", "--tmax=-1"], "t_max"),
            (["oracle-convolve", "--rates", "[1, 2]", "--tmax", "0"], "t_max"),
            (["test-exponential", "--data", "[1, 2]", "--scales", "[1, 0.5]",
              "--alpha", "0"], "alpha"),
            (["test-exponential", "--data", "[1, 2]", "--scales", "[1, 0.5]",
              "--alpha", "1.5"], "alpha"),
            (["test-exponential", "--data", "[1, 2]", "--scales", "[1, 0.5]",
              "--alpha", "3"], "alpha"),
            (["residual", "--which", "h", "--scales", "[1, 0.5]",
              "--psi", "[1, 1, 0]", "--tol=-1"], "tol"),
            (["solve", "--theorem", "2", "--scales", "[1, 0.5]", "--tol=-1"], "tol"),
            (["residual", "--which", "q", "--scales", "[1, 0.5]",
              "--psi", "[1, 1, 0]", "--tol=-1"], "tol"),
            (["verify-lemma2", "--rates", "[1, 2]", "--tol=-1"], "tol"),
            (["oracle-convolve", "--rates", "[1, 2]", "--step", "1e-320"], "step"),
            (["oracle-convolve", "--rates", "[1, 2]", "--step", "1e-7"], "step"),
        ],
    )
    def test_exits_one_naming_option(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {name}=")
        assert "Traceback" not in err


class TestUnrepresentableResult:
    """Overflow, division by zero and non-finite results exit 1 with empty stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--rates", "[1, 2]", "--k", "200"],
            ["moments", "--rates", "[1e-200, 2e-200]", "--k", "1"],
            ["coeffs", "--which", "c", "--scales", "[1e200, 1e100]", "--K", "3"],
            ["solve", "--theorem", "2", "--scales", "[1e200, 1e100]", "--K", "3"],
            ["verify-lemma2", "--rates", "[1e-200, 1e-100]", "--K", "3"],
            ["moments", "--rates", "[1e-3, 2e-3]", "--k", "120"],
            ["coeffs", "--which", "d", "--scales", "[1e200, 1e100]", "--K", "3"],
        ],
    )
    def test_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestArithmeticErrorNamed:
    """An overflow names the quantity and its order; exit 1, nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["moments", "--rates", "[1e-200, 2e-200]", "--k", "1"],
             "moment of order 2 is beyond the float range"),
            (["coeffs", "--which", "c", "--scales", "[1e200, 1e100]", "--K", "3"],
             "complete homogeneous sum h_2 of the scales is beyond the float range"),
            (["verify-lemma2", "--rates", "[1e-200, 1e-100]", "--K", "3"],
             "Lemma 2 term w_j / lambda_j^2 is beyond the float range"),
            (["moments", "--rates", "[1, 2]", "--k", "200"],
             "moment of order 200 is beyond the float range"),
            (["pdf", "--rates", "[1e308, 1.7e308]", "--x", "[1e-308]"],
             "pdf coefficient w_j * lambda_j at rate 1e+308 is beyond the float range"),
            (["sample", "--rates", "[1e-308, 1.5e-308]", "--n", "50", "--seed", "1"],
             "a draw of the sample is beyond the float range"),
            (["laplace", "--rates", "[1e308, 1.7e308]", "--t", "[1e300]"],
             "pdf coefficient w_j * lambda_j at rate 1e+308 is beyond the float range"),
        ],
    )
    def test_message_names_quantity(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


class TestCharacterizationOverflowNamed:
    """Overflow in the characterization equations names the equation and order."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--theorem", "2", "--scales", "[1e200, 1e100]", "--K", "3"],
             "complete homogeneous sum h_2 of the scales is beyond the float range"),
            (["residual", "--which", "q", "--scales", "[1e200, 1e100]",
              "--psi", "[1, 1, 0, 0]"],
             "order 2 of the survival-form equation is beyond the float range"),
            (["residual", "--which", "h", "--scales", "[1, 0.5]",
              "--psi", "[1, 1e200, 0, 0]"],
             "order 2 of the density-form equation is beyond the float range"),
            (["solve", "--theorem", "1", "--scales", "[1, 0.5]", "--a1", "1e200",
              "--K", "4"],
             "order 2 of the density-form equation is beyond the float range"),
            (["coeffs", "--which", "d", "--scales", "[1e200, 1e100]", "--K", "3"],
             "complete homogeneous sum h_2 of the scales is beyond the float range"),
            (["coeffs", "--which", "c", "--scales", "[0.9e154, 0.8e154]", "--K", "2"],
             "complete homogeneous sum h_2 of the scales is beyond the float range"),
        ],
    )
    def test_message_names_equation_and_order(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["pdf", "--rates", "[1, 2]", "--x", "[NaN]"], "--x"),
            (["cdf", "--rates", "[1, Infinity]", "--x", "[1]"], "--rates"),
            (["residual", "--which", "h", "--scales", "[1, 0.5]",
              "--psi", "[1, 0, NaN, 0]"], "--psi"),
            (["solve", "--theorem", "2", "--scales", "[1, -Infinity]"], "--scales"),
        ],
    )
    def test_inline_json_rejected(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {option}: non-finite value")

    def test_csv_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("1.0\ninf\n")
        code, out, err = run(capsys, "weights", "--rates", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: --rates: non-finite value inf")

    def test_stdin_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0.5\nnan\n1.5\n"))
        code, out, err = run(
            capsys, "test-exponential", "--data", "-", "--scales", "[1, 0.5]"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --data: non-finite value nan")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["solve", "--theorem", "1", "--scales", "[1, 0.5]", "--a1", "inf"], "--a1"),
            (["solve", "--theorem", "1", "--scales", "[1, 0.5]", "--a1", "nan"], "--a1"),
            (["residual", "--which", "h", "--scales", "[1, 0.5]",
              "--psi", "[1, 1, 0]", "--tol", "nan"], "--tol"),
            (["verify-lemma2", "--rates", "[1, 2]", "--tol=-inf"], "--tol"),
            (["test-exponential", "--data", "[1, 2]", "--scales", "[1, 0.5]",
              "--alpha", "nan"], "--alpha"),
            (["oracle-convolve", "--rates", "[1, 2]", "--tmax", "inf"], "--tmax"),
            (["oracle-convolve", "--rates", "[1, 2]", "--step", "nan"], "--step"),
        ],
    )
    def test_float_option_rejected(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert f"argument {option}: non-finite value" in captured.err


class TestNonNumericEntry:
    """JSON entries that are not numbers exit 1 naming the option, no traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pdf", "--rates", "[1, null]", "--x", "[1]"], "--rates: entry None"),
            (["pdf", "--rates", "[1, 2]", "--x", "[[1]]"], "--x: entry [1]"),
            (["pdf", "--rates", "[1, 2]", "--x", "[true]"], "--x: entry True"),
            (["quantile", "--rates", "[1, 2]", "--p", "[false]"], "--p: entry False"),
            (["weights", "--scales", '[1, "0.5"]'], "--scales: entry '0.5'"),
            (["test-exponential", "--data", "[1, {}]", "--scales", "[1, 0.5]"],
             "--data: entry {}"),
        ],
    )
    def test_exits_one_naming_option(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message} is not a real number\n"

    def test_csv_line_not_a_number(self, capsys, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("1.0\nabc, 2\n")
        assert run(capsys, "weights", "--rates", str(path)) == (
            1, "", "error: --rates: entry 'abc' is not a real number\n"
        )

    def test_stdin_line_not_a_number(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0.5\n1..5\n"))
        assert run(capsys, "pdf", "--rates", "[1, 2]", "--x", "-") == (
            1, "", "error: --x: entry '1..5' is not a real number\n"
        )

    def test_json_integer_beyond_float_range(self, capsys):
        big = "1" + "0" * 400
        assert run(capsys, "weights", "--rates", f"[1, {big}]") == (
            1, "", "error: --rates: integer entry beyond the float range\n"
        )

    @pytest.mark.parametrize("rates", ["[1, 2", "[1, 1" + "0" * 5000 + "]"])
    def test_unparsable_json_names_option(self, capsys, rates):
        code, out, err = run(capsys, "weights", "--rates", rates)
        assert (code, out) == (1, "")
        assert err.startswith("error: --rates: ")


class TestUnparsableOption:
    """Option text that is not a number, or an option a subcommand lacks, is a
    usage error: exit 1, nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--theorem", "2", "--scales", "[1, 0.5]", "--tol", "abc"],
             "argument --tol: invalid float value: 'abc'"),
            (["sample", "--rates", "[1, 2]", "--n", "3", "--seed", "abc"],
             "argument --seed: invalid int value: 'abc'"),
            (["coeffs", "--which", "c", "--scales", "[1, 0.5]", "--tol", "1e-6"],
             "unrecognized arguments: --tol 1e-6"),
        ],
    )
    def test_usage_error_naming_option(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert captured.err.endswith(f": error: {message}\n")


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--rates", "[1, 2]", "--n", "3", "--seed", "-1"],
            ["test-exponential", "--data", "[1, 2]", "--scales", "[1, 0.5]", "--seed=-5"],
        ],
    )
    def test_usage_error_naming_seed(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert "argument --seed: negative value" in captured.err

    def test_zero_seed_draws(self, capsys):
        code, out, _ = run(capsys, "sample", "--rates", "[1, 2]", "--n", "3", "--seed", "0")
        assert code == 0
        expected = HypoexpDistribution.from_rates([1.0, 2.0]).sample(3, seed=0)
        assert json.loads(out)["samples"] == list(expected)


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(*args, stdin=None):
    """Run a new interpreter with hypoexp from this checkout on its path."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )


class TestFreshProcess:
    """Start-up as a user sees it: each subcommand loads only the modules it
    runs, numpy only where arrays are used, and nothing loads ``dataclasses``."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["solve", "--theorem", "2", "--scales", "[1, 0.5]", "--K", "8"], 0),
            (["residual", "--which", "h", "--scales", "[1, 0.5]",
              "--psi", "[1, 2, 2, 0]"], 2),
            (["coeffs", "--which", "d", "--scales", "[1, 0.5, 0.25]"], 0),
            (["pdf", "--rates", "[1, 2]", "--x", "[0.5, 1.0]"], 0),
            (["quantile", "--rates", "[1, 2]", "--p", "[0.01, 0.5]"], 0),
            (["weights", "--rates", "[1, 1]"], 1),
        ],
    )
    def test_scalar_subcommands_import_no_numpy(self, capsys, argv, expected):
        proc = fresh("-X", "importtime", "-m", "hypoexp.cli", *argv)
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "hypoexp.core" in imported
        assert not [m for m in imported if m.split(".")[0] == "numpy"]
        assert "dataclasses" not in imported
        runs_characterize = argv[0] in ("solve", "residual", "coeffs")
        assert ("hypoexp.characterize" in imported) == runs_characterize
        assert ("hypoexp.series" in imported) == runs_characterize
        assert proc.returncode == expected
        assert proc.stdout == run(capsys, *argv)[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--rates", "[1, 2]", "--n", "20", "--seed", "3"],
            ["oracle-convolve", "--rates", "[1, 2]", "--step", "0.002", "--tmax", "20"],
            ["test-exponential", "--data", "-", "--scales", "[1, 0.5]"],
        ],
    )
    def test_array_subcommands_same_output(self, capsys, monkeypatch, argv):
        draws = np.random.default_rng(203).exponential(1.0, 300).tolist()
        data = "\n".join(repr(v) for v in draws)
        proc = fresh("-m", "hypoexp.cli", *argv, stdin=data)
        monkeypatch.setattr("sys.stdin", io.StringIO(data))
        code, out, _ = run(capsys, *argv)
        assert proc.returncode == code == 0
        assert proc.stdout == out
        json.loads(out)

    @pytest.mark.parametrize(
        "lookup", ["hypoexp.oracles.exponentiality_test", "hypoexp.exponentiality_test"]
    )
    def test_oracles_resolve_after_bare_import(self, lookup):
        proc = fresh("-c", f"import hypoexp; print({lookup}.__module__)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "hypoexp.oracles\n"

    def test_star_import_binds_all(self):
        code = (
            "from hypoexp import *\n"
            "import hypoexp\n"
            "print([n for n in hypoexp.__all__ if n not in globals()])\n"
            "print(hasattr(hypoexp, 'no_such_name'))\n"
        )
        proc = fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\nFalse\n"

    def test_every_public_name_resolves_by_getattr(self):
        code = (
            "import sys\n"
            "import hypoexp\n"
            "loaded = sorted(m for m in ('hypoexp.series', 'hypoexp.characterize',"
            " 'hypoexp.oracles', 'numpy', 'dataclasses') if m in sys.modules)\n"
            "print(loaded)\n"
            "print([n for n in hypoexp.__all__ if getattr(hypoexp, n, None) is None])\n"
            "from hypoexp import *\n"
            "print([n for n in hypoexp.__all__ if globals()[n] is not getattr(hypoexp, n)])\n"
            "print(hypoexp.DEFAULT_ORDER, hypoexp.DEFAULT_TOL,"
            " hypoexp.characterize.DEFAULT_ORDER, hypoexp.characterize.DEFAULT_TOL)\n"
        )
        proc = fresh("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n[]\n[]\n16 1e-10 16 1e-10\n"

    def test_array_evaluation_when_numpy_imported_later(self):
        code = (
            "import sys\n"
            "import hypoexp\n"
            "assert 'numpy' not in sys.modules\n"
            "import numpy as np\n"
            "d = hypoexp.HypoexpDistribution.from_rates([1.0, 2.0, 4.0])\n"
            "x = np.array([0.25, 1.0, 3.0])\n"
            "for f in (d.pdf, d.cdf):\n"
            "    y = f(x)\n"
            "    assert isinstance(y, np.ndarray)\n"
            "    assert np.allclose(y, [f(v) for v in x.tolist()], rtol=1e-13, atol=0)\n"
        )
        proc = fresh("-c", code)
        assert proc.returncode == 0, proc.stderr


def _in_process(capsys, argv):
    """``main(argv)`` as (exit code, stdout, stderr), usage exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """Repeated in-process calls share one parser and behave like fresh processes."""

    SEQUENCE = [
        (["sample", "--rates", "[1, 2]", "--n", "4", "--seed", "3"], 0),
        (["sample", "--rates", "[1, 2]", "--n", "4"], 0),
        (["--format", "table", "coeffs", "--which", "c", "--scales", "[1, 0.5]",
          "--K", "3"], 0),
        (["coeffs", "--which", "c", "--scales", "[1, 0.5]", "--K", "3"], 0),
        (["solve", "--theorem", "2", "--scales", "[1, 0.5]", "--K", "8",
          "--tol", "1e-6"], 0),
        (["solve", "--theorem", "2", "--scales", "[1, 0.5]"], 0),
        (["moments", "--rates", "[1, 2]"], 1),
        (["--help"], 0),
    ]

    def test_parser_built_once(self, capsys):
        run(capsys, "coeffs", "--which", "d", "--scales", "[1, 0.5]")
        run(capsys, "weights", "--binomial", "3")
        assert _parser() is _parser()

    def test_import_builds_no_parser(self):
        proc = fresh("-c", "import hypoexp.cli as c; print(c._parser.cache_info().currsize)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_sequence_matches_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        results = [_in_process(capsys, argv) for argv, _ in self.SEQUENCE]
        for (argv, expected), (code, out, err) in zip(self.SEQUENCE, results):
            proc = fresh("-m", "hypoexp.cli", *argv)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
            assert code == expected, argv
        assert json.loads(results[1][1])["config"]["seed"] == DEFAULT_SEED
        assert "which = \"c\"" in results[2][1]
        assert json.loads(results[3][1])["which"] == "c"
        assert json.loads(results[4][1])["config"] == {"K": 8, "tol": 1e-6, "theorem": 2}
        assert json.loads(results[5][1])["config"] == {
            "K": DEFAULT_ORDER, "tol": DEFAULT_TOL, "theorem": 2}
        assert results[6][2].startswith("usage: hypoexp moments")
        assert results[7][1].startswith("usage: hypoexp")

    def test_usage_error_writes_to_current_stderr(self, capsys):
        assert run(capsys, "weights", "--binomial", "3")[0] == 0
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["moments", "--rates", "[1, 2]"])
        assert exc.value.code == 1
        assert err.getvalue().startswith("usage: hypoexp moments")
        assert "the following arguments are required: --k" in err.getvalue()
        assert capsys.readouterr().err == ""


def readme_examples() -> list[tuple[list[str], int]]:
    """Each ``hypoexp ...`` line of the README's CLI block with its exit code.

    A line's exit code is 0 unless its comment says ``exit N``.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("hypoexp "):
            code = re.search(r"#.*\bexit (\d)", line)
            argv = shlex.split(line, comments=True)[1:]
            examples.append((argv, int(code.group(1)) if code else 0))
    return examples


def test_readme_examples(capsys, tmp_path, monkeypatch):
    examples = readme_examples()
    assert len(examples) >= 12
    rng = np.random.default_rng(20130915)
    np.savetxt(tmp_path / "observations.csv", rng.exponential(2.0, 2000))
    monkeypatch.chdir(tmp_path)
    for argv, expected in examples:
        code, out, err = run(capsys, *argv)
        assert code == expected, (argv, err)
        json.loads(out)
