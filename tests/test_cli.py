from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import LAM16
from modeq import exactalg, spectra
from modeq.cli import (_CSV_RUN_ROWS, _fmt, _parse_orders, _parse_range, _region_columns,
                       _regions_json, _write_csv, build_parser, main)
from modeq.derivation import derive_log
from modeq.exactalg import LP_ONE, LambdaPoly
from modeq.schemes import catalog_scheme, parse_scheme
from modeq.spectra import RegionReport
from oracles import REGION_KEYS, region_report_json_dict, sweep_region_samples

HEAT = ["--catalog", "heat_centered"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sweep_report_digests(tmp_path, name: str, lambda_range: str, orders) -> tuple:
    """sha256 of the regions JSON and CSV that the writers make of the
    theta-grid sweep of catalog scheme ``name`` at the np.linspace lambdas
    of ``lambda_range``."""
    lo, hi, count = _parse_range(lambda_range)
    lams = np.linspace(float(lo), float(hi), int(count))
    report = sweep_region_samples(catalog_scheme(name), lams, orders)
    columns = _region_columns(report)
    _write_csv(tmp_path / "sweep.csv", columns)
    return (hashlib.sha256(_regions_json(report, columns).encode("utf-8")).hexdigest(),
            hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest())


class TestModeqCommand:
    def test_table_to_stdout(self, capsys):
        code, out, _ = run(capsys, "modeq", *HEAT, "-N", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["scheme"] == "heat_centered"
        by_p = {t["p"]: t["coeff"] for t in payload["terms"]}
        assert by_p[4] == "(1-6*lambda)/12"

    def test_verify_engines_agree(self, capsys):
        code, _, _ = run(capsys, "modeq", "--catalog", "upwind_euler", "-N", "4", "--verify")
        assert code == 0

    def test_scheme_from_file(self, tmp_path, capsys):
        f = tmp_path / "shift.scheme"
        f.write_text(
            "scheme shifted_transport\nq = 1\npde A[1] = 2\n"
            "stencil B[-1] = 2\nstencil B[0] = -2\n"
        )
        code, out, _ = run(capsys, "modeq", "--file", str(f), "-N", "3", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "shifted_transport_modeq.json").read_text())
        by_p = {t["p"]: t["coeff"] for t in payload["terms"]}
        assert by_p[1] == "-2"
        assert payload["consistency"]["ok"] is True

    def test_inconsistent_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.scheme"
        bad.write_text("scheme broken\nq = 1\npde A[1] = 1\nstencil B[0] = 1\n")
        code, _, err = run(capsys, "modeq", "--file", str(bad))
        assert code == 1
        assert "sum to zero" in err

    def test_parse_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "syntax.scheme"
        bad.write_text("scheme x\nq = one\n")
        code, _, err = run(capsys, "modeq", "--file", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_zero_denominator_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "zero.scheme"
        bad.write_text("scheme z\nq = 1\npde A[1] = 1\nstencil B[0] = 1/0\n")
        code, _, err = run(capsys, "modeq", "--file", str(bad))
        assert code == 1
        assert "line 4, column 16" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "weight_line, column",
        [("stencil B[100000] = -1", 11), (f"stencil B[1] = -{'9' * 5000}", 17)],
        ids=["wide-offset", "5000-digits"],
    )
    def test_unbounded_input_exits_1_at_once(self, tmp_path, capsys, weight_line, column):
        bad = tmp_path / "wide.scheme"
        bad.write_text(f"scheme w\nq = 1\npde A[1] = 1\nstencil B[0] = 1\n{weight_line}\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "radius", "--file", str(bad), "--lambdas", "1/4", "-N", "16")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert f"line 5, column {column}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["modeq", "-N", "3"], "scheme huge: c_2 of the N = 3 modified equation"),
            # S = 1 at lambda = 0, so the scan fails at its second sample
            (["regions", "--lambda-range", "0:1:3"],
             "scheme huge: symbol coefficient a_0 at lambda = 0.5 "),
            (["figures", "--lambdas", "1/2", "-N", "2"],
             "scheme huge: symbol coefficient a_0 at lambda = 1/2 "),
            (["radius", "--lambdas", "1/2", "-N", "16"],
             "scheme huge: symbol coefficient a_0 at lambda = 1/2 "),
        ],
        ids=["modeq", "regions", "figures", "radius"],
    )
    def test_numbers_beyond_float_and_text_exit_1(self, tmp_path, capsys, argv, message):
        # 4000-digit weights parse, but neither fit a float nor render as text
        nines = "9" * 4000
        f = tmp_path / "huge.scheme"
        f.write_text(f"scheme huge\nq = 1\npde A[1] = {nines}\n"
                     f"stencil B[0] = {nines}\nstencil B[1] = -{nines}\n")
        code, _, err = run(capsys, *argv, "--file", str(f), "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code, _, err = run(capsys, "modeq", "-N", "4")
        assert code == 1 and "scheme source" in err
        f = tmp_path / "a.scheme"
        f.write_text("scheme a\nq = 1\npde A[1] = 1\nstencil B[0] = 0\nstencil B[1] = 0\n")
        code, _, err = run(capsys, "modeq", "--file", str(f), "--catalog", "heat_centered")
        assert code == 1 and "exactly one" in err

    def test_radius_rounds_the_symbol_before_deriving(self, tmp_path, capsys):
        # the default root-test order would spend seconds in exact arithmetic
        # on these weights before any float conversion failed
        nines = "9" * 4000
        f = tmp_path / "huge.scheme"
        f.write_text(f"scheme huge\nq = 1\npde A[1] = {nines}\n"
                     f"stencil B[0] = {nines}\nstencil B[1] = -{nines}\n")
        start = time.perf_counter()
        code, _, err = run(capsys, "radius", "--file", str(f), "--lambdas", "1/2")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert err.startswith("error: scheme huge: symbol coefficient a_0 ")
        assert err.count("\n") == 1

    def test_order_cap(self, capsys):
        code, _, err = run(capsys, "modeq", *HEAT, "-N", "65")
        assert code == 1
        assert "series order 65 exceeds the cap MAX_ORDER = 64" in err

    # c_3 is past q = 2, where consistency_report checks nothing; c_1 is the
    # first order
    @pytest.mark.parametrize("p", [3, 1], ids=["c3", "c1"])
    def test_engine_mismatch_exits_2(self, capsys, monkeypatch, p):
        import modeq.cli as cli
        from modeq.derivation import derive_log as real_derive_log

        def skewed(scheme, order):
            modeq = real_derive_log(scheme, order)
            coeffs = list(modeq.coeffs)
            coeffs[p - 1] = coeffs[p - 1] + LP_ONE
            return type(modeq)(scheme_name=modeq.scheme_name, q=modeq.q, coeffs=tuple(coeffs))

        monkeypatch.setattr(cli, "derive_log", skewed)
        code, out, err = run(capsys, "modeq", *HEAT, "-N", "4", "--verify")
        assert code == 2 and out == ""
        assert err.startswith("cross-check failure: scheme heat_centered, N = 4: ")
        assert err.rstrip().endswith(f"first at theta-order {p}")

    def test_verify_bounded_on_high_lambda_powers(self, tmp_path, capsys):
        # weights up to lambda^16 give c_p of degree ~16p; the exp round trip
        # costs O(N^2) products at the order cap
        f = tmp_path / "lam16.scheme"
        f.write_text(LAM16)
        code, verified, _ = run(capsys, "modeq", "--file", str(f), "-N", "64", "--verify")
        assert code == 0
        code, plain, _ = run(capsys, "modeq", "--file", str(f), "-N", "64")
        assert code == 0
        assert verified == plain


class TestCommandLineErrors:
    # each subcommand accepts only the flags it reads
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["modeq", *HEAT, "-N", "4", "--grid", "256"], "--grid"),
            (["regions", *HEAT, "--lambda-range", "0:0.6:5", "--lambdas", "1/2"], "--lambdas"),
            (["radius", *HEAT, "--lambdas", "1/2", "-N", "8", "--grid", "16384"], "--grid"),
            (["figures", *HEAT, "--lambdas", "1/2", "-N", "2", "--lambda-range", "0:1:5"],
             "--lambda-range"),
            (["certify", *HEAT, "--lambdas", "1/5", "-N", "4", "--lambda-range", "0:1:5"],
             "--lambda-range"),
            (["symmetry", "--lambdas", "1/4", "--catalog", "upwind_euler"], "--catalog"),
            (["symmetry", "--lambdas", "1/4", "--grid", "256"], "--grid"),
            # the theta grid is the library's default, not a flag
            (["regions", *HEAT, "--lambda-range", "0:1:601", "--grid", "100000000"], "--grid"),
            (["figures", *HEAT, "--lambdas", "1/4", "-N", "2", "--grid", "64"], "--grid"),
            (["certify", *HEAT, "--lambdas", "1/5", "--grid", "65537"], "--grid"),
        ],
        ids=["modeq", "regions", "radius", "figures", "certify", "symmetry", "symmetry-grid",
             "regions-grid", "figures-grid", "certify-grid"],
    )
    def test_unread_flag_exits_1(self, capsys, tmp_path, argv, flag):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and flag in err
        assert out == "" and not any(tmp_path.iterdir())

    def test_bad_flag_value_exits_1(self, capsys):
        code, _, err = run(capsys, "figures", *HEAT, "--lambdas", "1/2", "-N", "2",
                           "--steps", "x")
        assert code == 1
        assert err.startswith("error: ") and "--steps" in err

    def test_grid_below_four_points_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "figures", *HEAT, "--lambdas", "1/4", "-N", "2",
                           "--gridsize", "3", "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and "at least 4 points" in err

    @pytest.mark.parametrize("argv", [["modeq", *HEAT],
                                      ["figures", *HEAT, "--lambdas", "1/4", "-N", "2"]])
    def test_out_naming_a_file_exits_1(self, tmp_path, capsys, argv):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        code, out, err = run(capsys, *argv, "--out", str(taken))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(taken) in err
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["modeq", *HEAT, "-N", "x"], "-N expects a comma-separated integer list, got 'x'"),
            (["modeq", *HEAT, "-N", ","], "-N list is empty"),
            (["modeq", *HEAT, "-N", "0"], "series order must be >= 1, got 0"),
            (["modeq", *HEAT, "-N", "1"],
             "scheme heat_centered: modified equation order 1 is below the PDE order 2"),
            (["figures", *HEAT, "--lambdas", "1/4"], "-N is required for this subcommand"),
            (["radius", *HEAT, "--lambdas", "1/0", "-N", "16"], "bad lambda value '1/0'"),
            (["radius", *HEAT, "--lambdas", ",", "-N", "16"], "--lambdas list is empty"),
            (["regions", *HEAT, "--lambda-range", "0:1"],
             "--lambda-range expects LO:HI:COUNT, got '0:1'"),
            (["modeq", "--file", "MISSING"], "cannot read"),
        ],
        ids=["N-not-integer", "N-empty", "N-zero", "N-below-pde-order", "N-missing",
             "lambda-zero-denominator", "lambdas-empty", "range-two-fields", "file-missing"],
    )
    def test_input_error_exits_1_without_output(self, capsys, tmp_path, argv, message):
        argv = [str(tmp_path / "missing.scheme") if a == "MISSING" else a for a in argv]
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert out == "" and not out_dir.exists()

    # sizes above the caps: refused before any scan, step or file, so the
    # first three (once a traceback, an out-of-memory kill and an endless
    # loop) fail at once
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["regions", *HEAT, "--lambda-range", "0:1:1000000000000", "-N", "2"],
             "--lambda-range COUNT 1000000000000 is above the cap MAX_LAMBDA_SAMPLES = 10000"),
            (["figures", *HEAT, "--lambdas", "1/4", "-N", "2", "--steps",
              "100000000000000000000", "--gridsize", "4"],
             "argument --steps: 100000000000000000000 is above the cap MAX_STEPS = 10000"),
            (["regions", *HEAT, "--lambda-range", "0:1:10001"],
             "--lambda-range COUNT 10001 is above the cap MAX_LAMBDA_SAMPLES = 10000"),
            (["figures", *HEAT, "--lambdas", "1/4", "-N", "2", "--steps", "10001"],
             "argument --steps: 10001 is above the cap MAX_STEPS = 10000"),
            (["figures", *HEAT, "--lambdas", "1/4", "-N", "2", "--gridsize", "1025"],
             "argument --gridsize: 1025 is above the cap MAX_GRIDSIZE = 1024"),
        ],
        ids=["count-huge", "steps-huge", "count", "steps", "gridsize"],
    )
    def test_size_above_its_cap_exits_1_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                        argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")
        monkeypatch.setattr("modeq.cli.derive_log", refuse)
        monkeypatch.setattr("modeq.spectra.region_scan", refuse)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert out == "" and not out_dir.exists()

    def test_caps_admit_their_own_values(self):
        args = build_parser().parse_args(["figures", *HEAT, "--lambdas", "1/4", "-N", "2",
                                          "--steps", "10000", "--gridsize", "1024"])
        assert (args.steps, args.gridsize) == (10000, 1024)
        assert _parse_range("0:1:10000") == (0.0, 1.0, 10000)

    # the '=' keeps argparse from reading -1/4 as an option
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["radius", *HEAT, "--lambdas", "0", "-N", "16"], "lambda must be positive, got 0"),
            (["certify", *HEAT, "--lambdas", "0"], "lambda must be positive, got 0"),
            (["figures", *HEAT, "--lambdas=-1/4", "-N", "2"],
             "lambda must be nonnegative, got -1/4"),
        ],
        ids=["radius", "certify", "figures"],
    )
    def test_lambda_domain_error_names_scheme_and_value(self, capsys, tmp_path, argv, message):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 1
        assert err == f"error: scheme heat_centered: {message}\n"
        assert out == "" and not out_dir.exists()

    # the numeric layers' input errors name the scheme, as the lambda errors do
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["regions", *HEAT, "--lambda-range", "0.5:0.1:5"],
             "need 0 <= lo < hi, got (0.5, 0.1)"),
            (["regions", *HEAT, "--lambda-range", "0:1:1"], "need at least two lambda samples"),
            (["figures", *HEAT, "--lambdas", "1/4", "-N", "2", "--steps", "-1"],
             "steps must be >= 0"),
            (["figures", *HEAT, "--lambdas", "1/4", "-N", "2", "--gridsize", "3"],
             "the grid needs at least 4 points, got gridsize = 3"),
        ],
        ids=["regions-range", "regions-count", "figures-steps", "figures-gridsize"],
    )
    def test_layer_input_error_names_scheme(self, capsys, tmp_path, argv, message):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 1
        assert err == f"error: scheme heat_centered: {message}\n"
        assert out == "" and not out_dir.exists()

    # a derivation that cannot run shows that lambda is refused before it;
    # radius and certify read float(lambda), so they refuse one below the
    # smallest normal double too, and print a lambda of many digits to 17
    # significant digits (1e-5000 has more digits than str() writes)
    @pytest.mark.parametrize("argv, message", [
        (["radius", *HEAT, "--lambdas", "1/2,0", "-N", "64"], "lambda must be positive, got 0"),
        (["certify", *HEAT, "--lambdas", "1/5,-1/4", "-N", "16"],
         "lambda must be positive, got -1/4"),
        (["radius", *HEAT, "--lambdas", "1/2,1e-310", "-N", "64"],
         "lambda = 1e-310 lies below the smallest normal double 2.2250738585072014e-308"),
        (["radius", *HEAT, "--lambdas", "1e-400", "-N", "16"],
         "lambda = 1e-400 lies below the smallest normal double 2.2250738585072014e-308"),
        (["certify", *HEAT, "--lambdas", "1/5,1e-310", "-N", "2"],
         "lambda = 1e-310 lies below the smallest normal double 2.2250738585072014e-308"),
        (["certify", *HEAT, "--lambdas", "1e-400", "-N", "2"],
         "lambda = 1e-400 lies below the smallest normal double 2.2250738585072014e-308"),
        (["figures", *HEAT, "--lambdas=1/4,-1/4", "-N", "64"],
         "lambda must be nonnegative, got -1/4"),
        (["radius", *HEAT, "--lambdas", "1e-5000", "-N", "16"],
         "lambda = 1e-5000 lies below the smallest normal double 2.2250738585072014e-308"),
    ], ids=["radius", "certify", "radius-subnormal", "radius-below-double", "certify-subnormal",
            "certify-below-double", "figures", "radius-many-digits"])
    def test_lambda_domain_refused_before_deriving(self, capsys, monkeypatch, tmp_path, argv,
                                                   message):
        def derive_log(*_):
            raise AssertionError("derived before lambda was checked")

        monkeypatch.setattr("modeq.cli.derive_log", derive_log)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 1
        assert err == f"error: scheme heat_centered: {message}\n"
        assert out == "" and not out_dir.exists()

    # every subcommand reads float(lambda), so a lambda beyond the float
    # range is refused as it is parsed (it once ended in an OverflowError
    # traceback, or printed lambda as a 401-digit integer)
    @pytest.mark.parametrize("argv", [
        ["figures", *HEAT, "--lambdas", "1/4,1e400", "-N", "2"],
        ["certify", *HEAT, "--lambdas", "1e400", "-N", "2"],
        ["radius", *HEAT, "--lambdas", "1e400", "-N", "16"],
        ["symmetry", "--lambdas=-1e400"],
    ], ids=["figures", "certify", "radius", "symmetry"])
    def test_lambda_beyond_the_float_range_refused_before_deriving(self, capsys, monkeypatch,
                                                                   tmp_path, argv):
        def derive_log(*_):
            raise AssertionError("derived before lambda was checked")

        monkeypatch.setattr("modeq.cli.derive_log", derive_log)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        value = argv[argv.index("--lambdas") + 1] if "--lambdas" in argv else "-1e400"
        assert code == 1
        assert err == f"error: lambda value {value.split(',')[-1]!r} is beyond the float range\n"
        assert out == "" and not out_dir.exists()

    # a lambda inside the float range whose symbol is not prints in short
    # form, and is refused before the derivation by every subcommand that
    # reads the symbol at given lambdas
    def test_symbol_beyond_the_float_range_prints_lambda_short(self, capsys, monkeypatch,
                                                               tmp_path):
        def derive_log(*_):
            raise AssertionError("derived before the symbol was checked")

        monkeypatch.setattr("modeq.cli.derive_log", derive_log)
        for argv in (["radius", "-N", "16"], ["figures", "-N", "64"], ["certify", "-N", "16"]):
            code, out, err = run(capsys, *argv, *HEAT, "--lambdas", "1/4,1e308",
                                 "--out", str(tmp_path / "out"))
            assert code == 1 and out == "", argv
            assert err == ("error: scheme heat_centered: symbol coefficient a_0 at "
                           "lambda = 1e+308 is beyond the float range\n"), argv
            assert not (tmp_path / "out").exists()

    # the size flags too, on the stencil whose derivation costs most
    @pytest.mark.parametrize("argv, message", [
        (["figures", "--lambdas", "1/4", "-N", "64", "--steps", "-1"], "steps must be >= 0"),
        (["figures", "--lambdas", "1/4", "-N", "64", "--gridsize", "3"],
         "the grid needs at least 4 points, got gridsize = 3"),
    ], ids=["figures-steps", "figures-gridsize"])
    def test_size_flags_refused_before_deriving(self, capsys, monkeypatch, tmp_path, argv,
                                                message):
        def derive_log(*_):
            raise AssertionError("derived before the size flags were checked")

        monkeypatch.setattr("modeq.cli.derive_log", derive_log)
        f = tmp_path / "lam16.scheme"
        f.write_text(LAM16)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--file", str(f), "--out", str(out_dir))
        assert code == 1
        assert err == f"error: scheme lam16: {message}\n"
        assert out == "" and not out_dir.exists()

    # a stencil as wide as the evolution grid, which a step would refuse
    def test_wide_stencil_refused_before_deriving(self, capsys, monkeypatch, tmp_path):
        def derive_log(*_):
            raise AssertionError("derived before the stencil width was checked")

        monkeypatch.setattr("modeq.cli.derive_log", derive_log)
        f = tmp_path / "wide.scheme"
        f.write_text("scheme wide\nq = 1\npde A[1] = 1\nstencil B[-2] = 1\nstencil B[2] = -1\n")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "figures", "--file", str(f), "--lambdas", "1/4", "-N", "2",
                             "--gridsize", "4", "--out", str(out_dir))
        assert code == 1
        assert err == "error: scheme wide: stencil width 4 does not fit a grid of 4 points\n"
        assert out == "" and not out_dir.exists()

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, err = run(capsys, "stability", *HEAT)
        assert code == 1
        assert err.startswith("error: ") and "stability" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--help"])
        assert exc.value.code == 0
        assert "--lambdas" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["modeq", *HEAT], ["radius", *HEAT, "--lambdas", "1/4"], ["symmetry", "--lambdas", "1/4"]],
        ids=["modeq", "radius", "symmetry"],
    )
    def test_single_order_subcommands_reject_lists(self, capsys, argv):
        command = argv[0]
        code, _, err = run(capsys, *argv, "-N", "16,24")
        assert code == 1
        assert f"the {command} subcommand takes a single -N value" in err


class TestRegionsCommand:
    def test_boundaries_and_files(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "regions",
            *HEAT,
            "--lambda-range",
            "0:0.6:61",
            "-N",
            "4",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert "R_s boundary: 0.5" in out
        assert "Omega_c boundary: 0.23999999999999999" in out
        report = json.loads((tmp_path / "heat_centered_regions.json").read_text())
        assert report["Rs_boundary"] == 0.5
        csv_text = (tmp_path / "heat_centered_regions.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == "lambda,max_abs_S,max_abs_one_minus_S,theta_m,in_Rs,in_Omega_c,trunc_stable_N4"
        assert len(csv_text.splitlines()) == 62

    # at the caps c_p(lambda) is rounded in fixed point; the files must be
    # those of rounding each exact value once
    def test_caps_write_the_bytes_of_exact_rounding(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "lam16.scheme"
        f.write_text(LAM16)
        ziv, kernel = exactalg._ziv, spectra.float_rows
        runs = {}
        for name, rounding in (("fast", kernel),
                               ("exact", lambda polys, lams: ([float(p(x)) for p in polys]
                                                              for x in lams))):
            values, settled = [], []
            monkeypatch.setattr(spectra, "float_rows", lambda polys, lams: (
                values.extend(row) or row for row in rounding(polys, lams)))
            monkeypatch.setattr(exactalg, "_ziv", lambda *args: settled.append(ziv(*args))
                                or settled[-1])
            out = tmp_path / name
            code, _, _ = run(capsys, "regions", "--file", str(f), "--lambda-range", "0.1:1.3:3",
                             "-N", "2,8,64", "--out", str(out))
            assert code == 0
            runs[name] = (values, len(values) - sum(v is not None for v in settled),
                          [(p.name, p.read_bytes()) for p in sorted(out.iterdir())])
        (fast, fast_exact, fast_files), (exact, _, exact_files) = runs["fast"], runs["exact"]
        assert fast_files == exact_files
        assert [v.hex() for v in fast] == [v.hex() for v in exact]
        # the fixed-point path, not the exact one, rounded most of the c_p
        assert len(fast) > 90 and fast_exact < len(fast) // 2

    # a scan names the first value beyond the float range: the first lambda
    # in order, and at that lambda an a_p before any c_p
    def test_scan_names_the_first_c_p_beyond_the_float_range(self, capsys, tmp_path):
        code, out, err = run(capsys, "regions", "--catalog", "lax_wendroff", "--lambda-range",
                             "0:240000:3", "-N", "64", "--out", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == ("error: scheme lax_wendroff: c_64 at lambda = 120000.0 is beyond the "
                       "float range\n")
        assert not (tmp_path / "out").exists()

    def test_scan_names_a_p_before_c_p_at_one_lambda(self, capsys, tmp_path):
        f = tmp_path / "lam16.scheme"
        f.write_text(LAM16)
        # c_2 too first leaves the float range at 1e20
        c_2 = derive_log(parse_scheme(LAM16), 2).coeff(2)
        next(LambdaPoly.float_rows((c_2,), (0.0,)))
        with pytest.raises(OverflowError):
            next(LambdaPoly.float_rows((c_2,), (1e20,)))
        code, out, err = run(capsys, "regions", "--file", str(f), "--lambda-range", "0:1e20:2",
                             "-N", "2", "--out", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == ("error: scheme lam16: symbol coefficient a_-1 at lambda = 1e+20 is "
                       "beyond the float range\n")

    def test_missing_range_exits_1(self, capsys):
        code, _, err = run(capsys, "regions", *HEAT)
        assert code == 1 and "--lambda-range" in err

    def test_empty_range_exits_1(self, capsys):
        code, _, err = run(capsys, "regions", *HEAT, "--lambda-range", "0:0:5")
        assert code == 1

    # the theta grid is not a flag: a request for another grid is refused
    def test_grid_below_64_points_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "regions", *HEAT, "--lambda-range", "0:0.6:5",
                           "--grid", "32", "--out", str(tmp_path))
        assert code == 1
        assert err == "error: modeq: unrecognized arguments: --grid 32\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("lambda_range", ["0:inf:3", "nan:1:3", "0:nan:3", "-inf:1:3"])
    def test_non_finite_range_exits_1(self, capsys, tmp_path, lambda_range):
        code, out, err = run(capsys, "regions", *HEAT, f"--lambda-range={lambda_range}",
                             "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err == f"error: --lambda-range LO and HI must be finite, got {lambda_range!r}\n"
        assert not any(tmp_path.iterdir())


class TestRadiusCommand:
    def test_heat_estimates(self, capsys):
        code, out, _ = run(
            capsys, "radius", *HEAT, "--lambdas", "1/2", "-N", "16"
        )
        assert code == 0
        payload = json.loads(out)
        entry = payload["estimates"][0]
        assert entry["zero_search"]["value"] == pytest.approx(1.5707963267948966)
        assert entry["closed_form"]["value"] == pytest.approx(1.5707963267948966)
        assert entry["root_test"]["method"] == "root_test"

    def test_root_test_order_below_16_names_scheme_and_order(self, capsys):
        code, out, err = run(capsys, "radius", *HEAT, "--lambdas", "1/2", "-N", "8")
        assert code == 1
        assert out == ""
        assert err == ("error: scheme heat_centered: the root test needs a modified equation "
                       "of order >= 16, got N = 8\n")

    # a derivation that cannot run shows that the order is refused before it
    def test_root_test_order_below_16_refused_before_deriving(self, capsys, monkeypatch):
        def derive_log(*_):
            raise AssertionError("derived before the order was checked")

        monkeypatch.setattr("modeq.cli.derive_log", derive_log)
        code, out, err = run(capsys, "radius", *HEAT, "--lambdas", "1/2,1/4", "-N", "15")
        assert code == 1
        assert err == ("error: scheme heat_centered: the root test needs a modified equation "
                       "of order >= 16, got N = 15\n")
        assert out == ""

    def test_infinite_radius_serializes_as_string(self, capsys):
        code, out, _ = run(
            capsys, "radius", "--catalog", "upwind_euler", "--lambdas", "1", "-N", "16"
        )
        assert code == 0
        entry = json.loads(out)["estimates"][0]
        assert entry["zero_search"]["value"] == "inf"
        assert entry["root_test"]["value"] == "inf"
        assert entry["closed_form"] is None

    def test_closed_form_keyed_on_stencil_not_name(self, tmp_path, capsys):
        # an upwind stencil under the heat scheme's name gets no closed form
        f = tmp_path / "misnamed.scheme"
        f.write_text(
            "scheme heat_centered\nq = 1\npde A[1] = 1\n"
            "stencil B[-1] = 1\nstencil B[0] = -1\n"
        )
        code, out, _ = run(capsys, "radius", "--file", str(f), "--lambdas", "1/2", "-N", "16")
        assert code == 0
        entry = json.loads(out)["estimates"][0]
        assert entry["closed_form"] is None
        assert entry["zero_search"]["value"] == pytest.approx(3.141592653589793)

    def test_closed_form_for_heat_stencil_under_other_name(self, tmp_path, capsys):
        f = tmp_path / "diffusion.scheme"
        f.write_text(
            "scheme diffusion\nq = 2\npde A[2] = -1\n"
            "stencil B[-1] = 1\nstencil B[0] = -2\nstencil B[1] = 1\n"
        )
        code, out, _ = run(capsys, "radius", "--file", str(f), "--lambdas", "1/2,1/8", "-N", "16")
        assert code == 0
        for entry in json.loads(out)["estimates"]:
            closed = entry["closed_form"]
            assert closed is not None and closed["method"] == "closed_form"
            assert closed["value"] == pytest.approx(entry["zero_search"]["value"], abs=1e-10)


    def test_zero_search_error_exits_2(self, capsys, monkeypatch):
        from modeq.radius import ZeroSearchError

        def fail(scheme, lam):
            raise ZeroSearchError(f"forced at lambda = {lam}")

        monkeypatch.setattr("modeq.radius.radius_zero_search", fail)
        code, out, err = run(capsys, "radius", *HEAT, "--lambdas", "1/4", "-N", "16")
        assert code == 2
        assert out == ""
        assert err == "cross-check failure: forced at lambda = 1/4\n"


class TestFiguresCommand:
    def test_emits_expected_files(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "figures",
            *HEAT,
            "--lambdas",
            "0.5,0.25",
            "-N",
            "2,8",
            "--gridsize",
            "16",
            "--steps",
            "10",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "heat_centered_evolve_lambda0.25.csv",
            "heat_centered_evolve_lambda0.5.csv",
            "heat_centered_lambda0.25.csv",
            "heat_centered_lambda0.5.csv",
        ]
        curve = (tmp_path / "heat_centered_lambda0.5.csv").read_text().splitlines()
        assert curve[0] == "theta,abs_S,abs_S_N2,abs_S_N8"
        evolve = (tmp_path / "heat_centered_evolve_lambda0.5.csv").read_text().splitlines()
        assert evolve[0] == "mode,theta,measured,predicted_S,predicted_SN,gap_S,gap_SN"

    def test_missing_lambdas_exits_1(self, capsys):
        code, _, err = run(capsys, "figures", *HEAT, "-N", "2")
        assert code == 1 and "--lambdas" in err

    # 1/3 and 0.3333334 both format as 0.333333, so one file would replace the other
    def test_lambdas_sharing_a_file_tag_exit_1_without_files(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        code, out, err = run(capsys, "figures", *HEAT, "--lambdas", "1/3,0.3333334",
                             "-N", "2", "--out", str(out_dir))
        assert code == 1
        assert out == "" and not out_dir.exists()
        assert err == ("error: --lambdas 1/3 and 1666667/5000000 would both write "
                       "heat_centered_lambda0.333333.csv\n")

    def test_repeated_lambda_accepted(self, tmp_path, capsys):
        code, out, _ = run(capsys, "figures", *HEAT, "--lambdas", "1/4,0.25", "-N", "2",
                           "--gridsize", "16", "--out", str(tmp_path))
        assert code == 0
        assert out.count("wrote ") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "heat_centered_evolve_lambda0.25.csv", "heat_centered_lambda0.25.csv"]

    # every table is computed before the output directory is made
    @pytest.mark.parametrize("flag, value", [("--steps", "-1"), ("--gridsize", "3"),
                                             ("--gridsize", "0"), ("--gridsize", "-5")])
    def test_failed_table_exits_1_without_files(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "figs"
        code, out, err = run(capsys, "figures", *HEAT, "--lambdas", "1/4", "-N", "2",
                             flag, value, "--out", str(out_dir))
        assert code == 1
        assert out == "" and err.startswith("error: ")
        assert not out_dir.exists()


class TestCertifyCommand:
    def test_inside_contraction_region(self, capsys):
        code, out, _ = run(
            capsys, "certify", *HEAT, "--lambdas", "1/5", "-N", "4"
        )
        assert code == 0
        cert = json.loads(out)["certificates"][0]
        assert cert["C"] == 0.0
        assert cert["bound"] >= 1.0

    def test_refusal_exits_1(self, capsys):
        code, _, err = run(capsys, "certify", *HEAT, "--lambdas", "0.6", "-N", "4")
        assert code == 1
        assert "contraction region" in err

    def test_refusal_names_the_scheme(self, capsys):
        code, out, err = run(capsys, "certify", *HEAT, "--lambdas", "1/5,3/5", "-N", "4")
        assert (code, out) == (1, "")
        assert err == ("error: scheme heat_centered: lambda = 0.6 lies outside the "
                       "contraction region; the truncation bound does not apply\n")

    def test_refusal_raised_inside_exits_1(self, capsys, monkeypatch):
        from modeq.spectra import CertificateRefusal

        def refuse(*args, **kwargs):
            raise CertificateRefusal("forced refusal")

        monkeypatch.setattr("modeq.spectra.truncation_certificate", refuse)
        code, out, err = run(capsys, "certify", *HEAT, "--lambdas", "1/5", "-N", "4")
        assert code == 1
        assert out == ""
        assert err == "error: forced refusal\n"

    # the orders are written sorted and each once, as regions and figures read them
    def test_orders_sorted_without_repeats(self, capsys):
        code, out, _ = run(capsys, "certify", *HEAT, "--lambdas", "1/5", "-N", "4,2,4")
        assert code == 0
        assert [c["N"] for c in json.loads(out)["certificates"]] == [2, 4]
        assert out == run(capsys, "certify", *HEAT, "--lambdas", "1/5", "-N", "2,4")[1]

    # the reference order is 4N, so N = 16 is the largest under the cap 64
    def test_order_above_16_names_the_flag_and_reference(self, capsys):
        code, out, err = run(capsys, "certify", *HEAT, "--lambdas", "1/5", "-N", "2,17")
        assert code == 1
        assert out == ""
        assert err == ("error: certify -N 17 needs the reference order 4N = 68, above the "
                       "cap MAX_ORDER = 64; -N is at most 16\n")

    # M and T enter the bound; inf and nan would write non-JSON Infinity or
    # NaN, and a negative value a meaningless bound
    @pytest.mark.parametrize("flag", ["--support-M", "--horizon-T"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "-1", "x"])
    def test_non_finite_or_negative_exits_1(self, capsys, flag, value):
        code, out, err = run(capsys, "certify", *HEAT, "--lambdas", "1/5", f"{flag}={value}")
        assert code == 1 and out == ""
        assert err == (f"error: modeq certify: argument {flag}: expects a finite number "
                       f">= 0, got {value!r}\n")

    def test_zero_support_and_horizon_accepted(self, capsys):
        code, out, _ = run(capsys, "certify", *HEAT, "--lambdas", "1/5",
                           "--support-M", "0", "--horizon-T", "0")
        assert code == 0
        cert = json.loads(out)["certificates"][0]
        assert (cert["M"], cert["T"], cert["bound"]) == (0.0, 0.0, 1.0)


class TestSharedConstants:
    """The parser and the catalog schemes are built once per process, and
    no request leaves state behind for the next one."""

    SYMMETRY = ("symmetry", "--lambdas", "1/10,1/4,2/5", "-N", "12")
    SYMMETRY_DIGEST = "aa43fd8b55d81e67bf0a6c9660355bb5f09a35aee80f492058578a0072e59bd2"

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        run(capsys, "modeq", *HEAT, "-N", "2")
        added = []
        real = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            added.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        code, _, _ = run(capsys, "modeq", *HEAT, "-N", "2")
        assert code == 0 and added == []
        assert build_parser() is build_parser()

    def test_certify_default_m_after_explicit_m(self, capsys):
        argv = ("certify", *HEAT, "--lambdas", "1/5", "-N", "2")
        for extra, m in ((("--support-M", "1"), 1.0), ((), math.pi)):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            assert json.loads(out)["certificates"][0]["M"] == m

    # a refused --grid leaves the next request the library's grid
    def test_regions_default_grid_after_explicit_grid(self, capsys, tmp_path):
        argv = ("regions", *HEAT, "--lambda-range", "0:1:3", "--out", str(tmp_path))
        for extra, code in ((("--grid", "64"), 1), ((), 0)):
            assert run(capsys, *argv, *extra)[0] == code
        report = json.loads((tmp_path / "heat_centered_regions.json").read_text())
        assert report["grid"] == 4096

    # failures inside argparse (unknown flag, bad flag value, missing
    # subcommand) and in a subcommand after parsing
    @pytest.mark.parametrize("bad", [
        ("symmetry", "--lambdas", "1/4", "--bogus"),
        ("certify", *HEAT, "--lambdas", "1/4", "--support-M", "-1"),
        (),
        ("symmetry", "--lambdas", "1/4", "-N", "2,3"),
        ("symmetry", "-N", "12"),
    ], ids=["unknown-flag", "bad-value", "no-command", "two-orders", "no-lambdas"])
    def test_failed_request_then_golden_bytes(self, capsys, bad):
        code, out, err = run(capsys, *bad)
        assert code == 1 and out == "" and err.startswith("error: ")
        code, out, _ = run(capsys, *self.SYMMETRY)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.SYMMETRY_DIGEST


class TestSymmetryCommand:
    def test_identity_holds(self, capsys):
        code, out, _ = run(
            capsys, "symmetry", "--lambdas", "1/4,0.1", "-N", "8"
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert all(r["ok"] for r in reports)

    def test_domain_violation_exits_1(self, capsys):
        code, _, _ = run(capsys, "symmetry", "--lambdas", "0.9")
        assert code == 1

    def test_identity_violation_exits_2(self, capsys, monkeypatch):
        import modeq.cli
        from modeq.derivation import upwind_symmetry_check as real_check

        calls = []

        def broken(modeq):
            calls.append(modeq.order)
            return {**real_check(modeq), "coefficient_ok": False, "first_violation": 2,
                    "ok": False}

        monkeypatch.setattr(modeq.cli, "upwind_symmetry_check", broken)
        code, out, err = run(capsys, "symmetry", "--lambdas", "1/4,1/10")
        assert code == 2
        assert "violated" in err
        # one proof for the request, reported in every lambda's row
        assert calls == [8]
        reports = json.loads(out)["reports"]
        assert [r["lambda"] for r in reports] == ["1/4", "1/10"]
        assert all(not r["ok"] and r["first_violation"] == 2 for r in reports)

    def test_endpoint_rows(self, capsys):
        code, out, _ = run(capsys, "symmetry", "--lambdas", "0,1/2", "-N", "4")
        assert code == 0
        rows = json.loads(out)["reports"]
        assert [(r["lambda"], r["lambda_low"], r["lambda_high"]) for r in rows] == \
            [("0", "1/2", "1/2"), ("1/2", "0", "1")]
        for r in rows:
            assert r["modulus_ok"] and r["coefficient_ok"] and r["ok"]
            assert r["orders"] == [2, 4] and r["first_violation"] is None

    # -N 1 has no even order, so it would prove nothing
    def test_order_below_two_refused_before_deriving(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("derived a modified equation")

        monkeypatch.setattr("modeq.cli.derive_log", never)
        code, out, err = run(capsys, "symmetry", "--lambdas", "1/4", "-N", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: symmetry -N must be at least 2, got 1")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("lambdas", ["0.9", "1/4,-1/10", "1/2,0.5000001"])
    def test_domain_refused_before_deriving(self, capsys, monkeypatch, lambdas):
        def never(*args):
            raise AssertionError("derived a modified equation")

        monkeypatch.setattr("modeq.cli.derive_log", never)
        code, out, err = run(capsys, "symmetry", f"--lambdas={lambdas}")
        assert code == 1 and out == ""
        assert err.startswith("error: lambda must lie in [0, 1/2], got ")

    # a row writes lambda and 1/2 -+ lambda in full, so a lambda with more
    # digits than str() writes is refused, in [0, 1/2] or outside it
    @pytest.mark.parametrize("lambdas", ["1/4,1e-5000", "-1e-5000", "3e-4300"])
    def test_lambda_of_too_many_digits_refused_before_deriving(self, capsys, monkeypatch,
                                                               lambdas):
        def never(*args):
            raise AssertionError("derived a modified equation")

        monkeypatch.setattr("modeq.cli.derive_log", never)
        code, out, err = run(capsys, "symmetry", f"--lambdas={lambdas}", "-N", "8")
        assert code == 1 and out == ""
        assert err == ("error: --lambdas takes values of at most 4300 digits, "
                       "which the report writes in full\n")


@pytest.mark.parametrize(
    "value, text",
    [(True, "true"), (False, "false"), (math.inf, "inf"), (-math.inf, "-inf"),
     (math.nan, "nan"), (-0.0, "-0"), (0.1, "0.10000000000000001"), (7, "7"),
     (Fraction(-2, 3), "-2/3")],
)
def test_fmt(value, text):
    assert _fmt(value) == text


_CSV_FIELDS = st.one_of(
    st.booleans(),
    st.integers(),
    st.fractions(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-310]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def _csv_writer_bytes(header, columns) -> bytes:
    """The bytes ``csv.writer`` writes for the rows of ``columns``, each field by ``_fmt``."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([_fmt(v) for v in row])
    return expected.getvalue().encode("utf-8")


# text that csv.writer writes unquoted, as a pre-rendered column holds
_CSV_TEXT = st.text("0123456789.+-einfa", min_size=1)


# one to six columns of equal length, each of floats only, of str only or
# of any fields
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.lists(st.one_of(
    st.lists(_CSV_FIELDS, min_size=n, max_size=n),
    st.lists(_CSV_TEXT, min_size=n, max_size=n),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n)),
    min_size=1, max_size=6)))
def test_write_csv_bytes_match_csv_writer(tmp_path_factory, columns):
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    _write_csv(path, dict(zip(header, columns)))
    assert path.read_bytes() == _csv_writer_bytes(header, columns)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_percent_template_renders_floats_as_fmt(x):
    assert "%.17g" % x == format(x, ".17g") == "%.17g" % np.float64(x)


# fields of the types the report tables hold, numpy scalars included
_TABLE_FIELDS = st.one_of(
    _CSV_FIELDS,
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.booleans().map(np.bool_),
)


def _nth(value, i):
    """``value`` moved by the row index i, keeping its type."""
    if isinstance(value, (bool, np.bool_)):
        return type(value)(bool(value) != bool(i % 2))
    return value + (i / 7 if isinstance(value, float) else i)


# columns that cycle through one to three seed fields, so a column holds
# floats only or mixes types, in tables some longer than the run cap
@settings(max_examples=25, deadline=None)
@given(st.one_of(st.integers(1, 5), st.sampled_from(
           [_CSV_RUN_ROWS - 1, _CSV_RUN_ROWS, _CSV_RUN_ROWS + 1, 2 * _CSV_RUN_ROWS + 3])),
       st.lists(st.lists(_TABLE_FIELDS, min_size=1, max_size=3), min_size=1, max_size=4))
def test_write_csv_long_tables_match_csv_writer(tmp_path_factory, count, seeds):
    columns = [[_nth(seed[i % len(seed)], i) for i in range(count)] for seed in seeds]
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    _write_csv(path, dict(zip(header, columns)))
    assert path.read_bytes() == _csv_writer_bytes(header, columns)


def test_write_csv_writes_each_run_when_complete(capsys):
    # the cap is a memory bound: no write holds more than _CSV_RUN_ROWS rows
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(text.count("\r\n"))
            return super().write(text)

    class SinkPath:
        def open(self, *args, **kwargs):
            return Sink()

    n = 2 * _CSV_RUN_ROWS + 3
    _write_csv(SinkPath(), {"x": [i / 7 for i in range(n)], "i": list(range(n))})
    assert writes == [1, _CSV_RUN_ROWS, _CSV_RUN_ROWS, 3]


_JSON_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-310, 1e16, 1e-7]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def _region_reports(draw):
    """A ``RegionReport`` of one to four samples of any floats and verdicts."""
    orders = draw(st.sampled_from([(), (2, 8, 24, 32), (1,), (4, 10)]))
    rows = [draw(st.tuples(*[_JSON_FLOATS] * 4, st.booleans(), st.booleans(),
                           st.tuples(*[st.booleans()] * len(orders))))
            for _ in range(draw(st.integers(1, 4)))]
    return _report(draw(st.sampled_from(["heat_centered", "s%d \u00e9"])), orders, rows)


def _report(name, orders, rows):
    """The ``RegionReport`` of ``rows``, each lambda, the values of
    ``REGION_KEYS`` and a tuple of verdicts by order."""
    lams, *columns, verdicts = zip(*rows)
    return RegionReport(name, orders, lams, dict(zip(REGION_KEYS, columns)),
                        dict(zip(orders, zip(*verdicts))))


def _sample(lam, *, orders=(), value=0.0):
    return (lam, value, value, value, True, False, tuple(n % 3 == 0 for n in orders))


# the renderer writes the bytes of json.dumps(indent=2) of the report dict
@settings(max_examples=200, deadline=None)
@given(_region_reports())
@example(_report("s", (), (_sample(0.0), _sample(0.5, value=math.nan))))
@example(_report("s", (2, 8, 24, 32),
                 (_sample(-0.0, orders=(2, 8, 24, 32), value=math.inf),
                  _sample(5e-324, orders=(2, 8, 24, 32), value=-math.inf))))
def test_regions_json_is_json_dumps_of_the_report(report):
    assert _regions_json(report, _region_columns(report)) == \
        json.dumps(region_report_json_dict(report), indent=2) + "\n"


class TestDeterminism:
    def test_identical_config_byte_identical_outputs(self, tmp_path, capsys):
        args = [
            "regions",
            "--catalog",
            "upwind_euler",
            "--lambda-range",
            "0:1.2:25",
        ]
        outputs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code = main(args + ["--out", str(out_dir)])
            assert code == 0
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out_dir.iterdir())
                }
            )
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_stdout_reports_identical(self, capsys):
        _, first, _ = run(capsys, "modeq", *HEAT, "-N", "6")
        _, second, _ = run(capsys, "modeq", *HEAT, "-N", "6")
        assert first == second

    # sha256 of the verified N=16 modified-equation reports.  They consist of
    # exact rational strings only, so the bytes do not depend on the platform;
    # a rewrite of the exact kernel must leave them unchanged.
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("heat_centered", "4f291d54d9829cec7b9dda1ece8eed2f87d484bddbcb58340c0380f00863e3d1"),
            ("upwind_euler", "61657fc5e90e0903c6811910b73d7fe0cd084004264c62735c3a424ce38973f3"),
            ("lax_wendroff", "0ca968410651f3ae13f1a9402c279a1b28190ae60ba3ecf47dfe50eba0e2df27"),
        ],
    )
    def test_modeq_report_bytes_golden(self, capsys, name, digest):
        code, out, _ = run(capsys, "modeq", "--catalog", name, "-N", "16", "--verify")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # The same at N=64, recorded with the earlier Fraction-coefficient
    # kernel, so they tie the integer kernel to its output; --verify also
    # runs the exp round trip at the order cap MAX_ORDER.
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("heat_centered", "53b4a4ceb4c4252a57b35d2f2e2ec9d721f1e208355ae021247304891d14bb4f"),
            ("upwind_euler", "be85f6916b8b297c229ff2b98b3d320300c099f4fb2f2abce04d0f22cfcef344"),
            ("lax_wendroff", "cc9d1968e399480e78ccee91145c450bc0d758f8d3a0e76973b7ce38a9c55b40"),
        ],
    )
    def test_modeq_report_bytes_golden_n64(self, capsys, name, digest):
        code, out, _ = run(capsys, "modeq", "--catalog", name, "-N", "64", "--verify")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # sha256 of the regions JSON and CSV, two pairs each.  The first pair is
    # the bytes the writers make of the theta-grid sweep (oracles.
    # sweep_region_samples) at np.linspace's lambdas: the scan these goldens
    # pinned before its fields were read from cosine tables, kept as the
    # reference those fields are bounded against.  The second is the
    # ``regions`` command's own, whose floats come from rounding exact cosine
    # tables and c_p, numpy's eigenvalues and Clenshaw sums, so it pins the
    # float scan: a faster scan must reproduce every byte.  Unlike the modeq
    # goldens both can depend on the numpy build.
    @pytest.mark.parametrize(
        "lambda_range, orders, name, sweep_json_digest, sweep_csv_digest, json_digest, csv_digest",
        [
            ("0:1.5:301", "2,8,24,32", "heat_centered",
             "b0dde41ac333bacfb6eb95a9d3f7f214282c2ecbf7cdc04baa15bba98b916662",
             "97a1927f48b73e6c1cb41530fc1fd933785cf9e8fd48461f99bb2ec586ce9349",
             "eb83c851ca06f588b714999334931a6424748f6714adf18ba5bd659d8995c509",
             "474c3f7071b4e4306afe434ad78e9cb442805ec37cb19a014c0bbeb6d8567b15"),
            ("0:1.5:301", "2,8,24,32", "upwind_euler",
             "50d9e4a25fffa5be2a7e61059327c058acc6d0c24cd08bcac9551de30435a963",
             "7323c26fb11c5f925dc0704ad4584cccc808fddde1bd3adb7841930ceffbce8d",
             "be17c79304e99de037c5ed1ffb1c6b1485b8da93245621bee5ea539b03515bdd",
             "89d6976bf1f34ccef9b41460fbfbb0338ae7e9152d8ad032965c47748c81964e"),
            ("0:1.5:301", "2,8,24,32", "lax_wendroff",
             "512c069f2e7afeabbde02a71ad370c853a9158f6a10f4531d1727fa5d22ffa8b",
             "c4ae2044202f6b2454756537be5ebb60e2aa0477aec59fb65a5dafa9c6344124",
             "01f7670840244e2714104819ebd432c008ddb37870c1e7f22be5c57a68c0746a",
             "5ed314a1eef64063cebb1275ea1fe5c056b2966fd41979937567329f58ccb624"),
            ("0:1.2:601", "2,4,8", "heat_centered",
             "5de37bc8a459b94d8c1eb53e69cd283048f676d11147d0e9a8d51c53d9cf2b26",
             "ff000b1a8da8db497c204767e409a679c081a93d6544537f4f319bbf7c4ed9d1",
             "4fbf83ffe4456271a46007eb1599d91cfa3dfdcdd6deec4124ea9722b9760a21",
             "2bd5a3fee663b584c483d5943ea2e1ccfd79c8a1b53e5bde9da8ba312215fdbd"),
            ("0:1.2:601", "2,4,8", "upwind_euler",
             "e54c234b1419fee97ebb403937f610c18137612300449763285c5690b5f45262",
             "5e032da88e67eeef61dfd8e20a23759b00b7e2d723f4120b92a8b51167fc974b",
             "f1b226b7a85997b5771156a02a9287ea71210c15641a90cc16cdf4be9916eaa1",
             "eb3db6d97f8af47d1f5fdb964c3a4702809fea6858e6a3d0768b2a2be04af42f"),
            ("0:1.2:601", "2,4,8", "lax_wendroff",
             "4678ff6f754a123a4c412a9fab9f43c91a240c5924d93bf7d2aa5852cfdb3897",
             "8fcd774c34f31580fc0d6d691cf8570a9ff209aae4da33be5cf8cac2ace19ce0",
             "b92d23cdcc5a415e84c45b68b014f49b64f7bf50b1f4c0f77664652a5c233639",
             "e897a539434bb4102aa79b07f2980400467379917c6a2a1d9c80b678b8e54895"),
        ],
    )
    def test_regions_report_bytes_golden(self, capsys, tmp_path, lambda_range, orders, name,
                                         sweep_json_digest, sweep_csv_digest,
                                         json_digest, csv_digest):
        code, _, _ = run(capsys, "regions", "--catalog", name, "--lambda-range", lambda_range,
                         "-N", orders, "--out", str(tmp_path))
        assert code == 0
        for ext, digest in (("json", json_digest), ("csv", csv_digest)):
            data = (tmp_path / f"{name}_regions.{ext}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, ext
        assert (_sweep_report_digests(tmp_path, name, lambda_range, _parse_orders(orders))
                == (sweep_json_digest, sweep_csv_digest))

    # without -N every sample's "trunc_stable" is {}
    @pytest.mark.parametrize(
        "name, sweep_json_digest, sweep_csv_digest, json_digest, csv_digest",
        [
            ("heat_centered",
             "e207ef64eb4a5edcf8f474c79a344cc6610cf65197e6f6284bc066652c83986a",
             "45984a0b955715c9a6515a7a2d55ccf248217d6216a6450f05fe269798ab0b42",
             "df0beee62cf1e2bcfb627f2af59cf15129ba60ef29ff0dfd629ec0b0a50ce30d",
             "086e1a0a01e8c5e281db80978906c1d92da1a02d5e4b0100bb034ed12787daeb"),
            ("lax_wendroff",
             "bb92b1ff4c3d6ffed86bfe030605915d2303978866a5ab0cd07cf3c205cd3d0a",
             "a7dba79d825855968245bfb08038d8b7b5cd57c4be455bda8c7c3358f9cc08b4",
             "05646631fac21751f0fa933f06316750f1b901a3ef50be03c1274405e8ea192c",
             "5e8feb6254dbc48f68e474da32dfac35ce86d21f8f62e2b3d3276d98d7c39f69"),
        ],
    )
    def test_regions_report_bytes_golden_without_orders(self, capsys, tmp_path, name,
                                                        sweep_json_digest, sweep_csv_digest,
                                                        json_digest, csv_digest):
        code, _, _ = run(capsys, "regions", "--catalog", name, "--lambda-range", "0:1.5:301",
                         "--out", str(tmp_path))
        assert code == 0
        for ext, digest in (("json", json_digest), ("csv", csv_digest)):
            data = (tmp_path / f"{name}_regions.{ext}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, ext
        assert (_sweep_report_digests(tmp_path, name, "0:1.5:301", ())
                == (sweep_json_digest, sweep_csv_digest))

    # a lambda whose S overflows: the request exits 0, its values write as
    # inf, and numpy warns of nothing on stderr
    @pytest.mark.parametrize(
        "argv, digests",
        [
            (["regions", *HEAT, "--lambda-range", "0:8e307:3", "-N", "2"],
             {"heat_centered_regions.json":
              "50d6bffd9e2d10b143e9d4875212f416f1ea25e57ef87ccfe31dd00cb8a0cf6a",
              "heat_centered_regions.csv":
              "90b663b380870bc51def4c2948508170f4119d3fc76a60abd2bee8e38e00d6ce"}),
            (["figures", *HEAT, "--lambdas", "8e307", "-N", "2", "--steps", "3"],
             {"heat_centered_lambda8e+307.csv":
              "c66fbadbf31a7b7585183a7b3492a683d06d3e03e2fc0da77aa5d38f94bf5d59",
              "heat_centered_evolve_lambda8e+307.csv":
              "aa15c296c080275f65088cc0f4670f4df65823f9a29b372f8acac681f68d0d9b"}),
        ],
        ids=["regions", "figures"],
    )
    def test_overflowing_symbol_writes_without_warnings(self, capsys, tmp_path, argv, digests):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 0 and err == ""
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == digests

    # sha256 of the figures curve CSV and evolve CSV at the default theta
    # grid, --steps and --gridsize, at one lambda inside R_s and one outside it.
    # They pin the |S| and |S_N| curves, the periodic-grid evolution and the
    # CSV writer to the byte; like the regions goldens they can depend on
    # the numpy build.
    @pytest.mark.parametrize(
        "name, lam, curve_digest, evolve_digest",
        [
            ("heat_centered", "0.4",
             "266b4c09b0b3a263928ba8cc5a25cca84e52ef45a60be32115d5c0738875c92b",
             "b71a8e5152a1b9eed9042bf1eaa32a8227835ca589d9eedc3a990c29ab938ef1"),
            ("heat_centered", "0.6",
             "6e16d24e922a8bcb9aa4ec101da2dbf1330a2de986c8c9f816a00ccc96cd01b7",
             "033166429b8d0b9fb799514b4400b48bd652a2a81aec30caad746b1210405949"),
            ("upwind_euler", "0.5",
             "f91c3a1ab2df93df9903ea04d6b99eac09190127138a88b7547a27cf05be55e8",
             "5a5177271ce833fc404cda1bee851d3f29ab7b18055383bbc134218c295dd08f"),
            ("upwind_euler", "1.2",
             "c07bf9342e162249a128c3f49d8bfe0833b6bf64e8071b6c374c4dc13f6e6be6",
             "e688fd5f33c4977007652d2b5203868da203938f302f29cd3ec89b3c242d8422"),
            ("lax_wendroff", "0.5",
             "76ab21e0c68985f96b9eed243b9593cdbb0e1be59d2e5984bebfc4aa8c3b0844",
             "c0133d28526e4c396fbdd241f930ef85de562065d56edb3d9532be7d52946c96"),
            ("lax_wendroff", "1.2",
             "116d183ef6dfc338950ecb58508e2b8b07e202489ab68a182f678d61aa1204e5",
             "0dfaefcfd17b7cc1fa45a079494d44d64ad0d3e0b305c183ef40753b07d683bd"),
        ],
    )
    def test_figures_report_bytes_golden(self, capsys, tmp_path, name, lam,
                                         curve_digest, evolve_digest):
        code, _, _ = run(capsys, "figures", "--catalog", name, "--lambdas", lam,
                         "-N", "2,8", "--out", str(tmp_path))
        assert code == 0
        for stem, digest in (("", curve_digest), ("evolve_", evolve_digest)):
            data = (tmp_path / f"{name}_{stem}lambda{lam}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, stem or "curve"

    # sha256 of the figures evolve CSV on paths the six cases above miss:
    # heat at 10 diverges to inf, heat at 1e9 turns modes NaN, heat at 2/5
    # over 3000 steps outlasts several runs of steps between overflow
    # screens, and Lax-Wendroff on 100 points steps three blocks of rows.
    @pytest.mark.parametrize(
        "name, lam, extra, tag, digest",
        [
            ("heat_centered", "10", ["-N", "2,8", "--steps", "200"], "10",
             "a9d7c19b8156702d3da3794eb715f0be59d5d7a9ca74ac72f0995c7c0a5a2284"),
            ("heat_centered", "1e9", ["-N", "2", "--steps", "40"], "1e+09",
             "620a5d2ebc47c0cf221c1d5fc71d2a828ad9f8716b2e4bdeb286f790c959581f"),
            ("heat_centered", "2/5", ["-N", "2,8", "--steps", "3000"], "0.4",
             "7c661b046c96d0b12692a901245d6452dd1052769325015ed2b913b78c29b5a6"),
            ("lax_wendroff", "6/5", ["-N", "2,8", "--gridsize", "100"], "1.2",
             "03bb65b6a59522f951d3a626264071344f23d8db77380c0d4b69ba9b8e422e9a"),
        ],
    )
    def test_figures_evolve_bytes_golden(self, capsys, tmp_path, name, lam, extra, tag,
                                         digest):
        code, _, _ = run(capsys, "figures", "--catalog", name, "--lambdas", lam, *extra,
                         "--out", str(tmp_path))
        assert code == 0
        data = (tmp_path / f"{name}_evolve_lambda{tag}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # sha256 of certify reports with two lambdas or two orders, at the default
    # theta grid, M, T and reference order 4 max(N).  The orders of one lambda
    # share S and the reference partial sum, so these pin that sharing to
    # the bytes of one certificate per call.
    @pytest.mark.parametrize(
        "name, lambdas, orders, digest",
        [
            ("heat_centered", "1/5,1/10", "4,8",
             "6c98a26e000f9ada734882c0e24a176c59bea89da4e9159fe156799025b8b51f"),
            ("upwind_euler", "1/4,0.3", "2,6",
             "832c8bd7b7d06461dff7a85e9ad7a231926eccb97d136e830d295796bb06f401"),
            ("lax_wendroff", "1/10", "2,4",
             "57b4c2e33bac0e1a47be4c677d7b45fdb6f552c1c676b74f395575ce316bf7ff"),
        ],
    )
    def test_certify_report_bytes_golden(self, capsys, name, lambdas, orders, digest):
        code, out, _ = run(capsys, "certify", "--catalog", name, "--lambdas", lambdas,
                           "-N", orders)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # sha256 of radius reports on six lambdas: the root test, the zero
    # search and, for heat, the closed form, at lambdas inside and outside
    # R_s and at the R = pi and R = inf points.  Like the regions goldens
    # they can depend on the numpy and mpmath builds.
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("heat_centered", "eb73c6968a85cb323234d6cabe02df786e7136979ada4eaeb2160109a362e2ec"),
            ("upwind_euler", "bdd922edf9b405487c0eac5d27d2df108a83918f10970fa6cd14ccf7d94f236b"),
            ("lax_wendroff", "782a8398d7157ba9ce414a76e54014b8d625b9469f40f94a1a03d2908139fff9"),
        ],
    )
    def test_radius_report_bytes_golden(self, capsys, name, digest):
        code, out, _ = run(capsys, "radius", "--catalog", name,
                           "--lambdas", "1/1000,1/5,1/4,1/2,1,3/2", "-N", "24")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # sha256 of the symmetry report: exact rational checks only
    def test_symmetry_report_bytes_golden(self, capsys):
        code, out, _ = run(capsys, "symmetry", "--lambdas", "1/10,1/4,2/5", "-N", "12")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "aa43fd8b55d81e67bf0a6c9660355bb5f09a35aee80f492058578a0072e59bd2")


class TestDerivedAtEachLambda:
    """``radius`` and ``certify`` read the c_p at the given lambdas only, so
    they derive each table at its lambda and never the symbolic one."""

    COMMANDS = [
        ("radius", "1/1000,1/5,1/4,1/2,1,3/2", "24"),
        ("certify", "1/10,1/5", "2,4"),
    ]

    @staticmethod
    def _sources(tmp_path):
        f = tmp_path / "lam16.scheme"
        f.write_text(LAM16)
        return [["--catalog", name] for name in ("heat_centered", "upwind_euler",
                                                   "lax_wendroff")] + [["--file", str(f)]]

    def test_symbolic_derivation_never_runs(self, capsys, monkeypatch, tmp_path):
        from modeq import cli

        derive_log, calls = cli.derive_log, []

        def fixed_only(scheme, order, lam=None):
            assert lam is not None, "derived the symbolic table"
            calls.append(lam)
            return derive_log(scheme, order, lam)

        monkeypatch.setattr(cli, "derive_log", fixed_only)
        for source in self._sources(tmp_path):
            for command, lambdas, orders in self.COMMANDS:
                code, _, err = run(capsys, command, *source, "--lambdas", lambdas, "-N", orders)
                assert code == 0, err
        assert calls and all(isinstance(lam, Fraction) for lam in calls)

    def test_same_bytes_as_the_symbolic_table(self, capsys, monkeypatch, tmp_path):
        from modeq import cli

        derive_log = cli.derive_log
        for source in self._sources(tmp_path):
            for command, lambdas, orders in self.COMMANDS:
                argv = (command, *source, "--lambdas", lambdas, "-N", orders)
                fixed = run(capsys, *argv)
                with monkeypatch.context() as patch:
                    patch.setattr(cli, "derive_log",
                                  lambda scheme, order, lam=None: derive_log(scheme, order))
                    symbolic = run(capsys, *argv)
                assert fixed == symbolic, argv

    # sha256 of reports on the lambda^16 stencil, as the symbolic path wrote them
    @pytest.mark.parametrize("argv, digest", [
        (["radius", "--lambdas", "1/5,301/400", "-N", "32"],
         "23d925128e6e5157399a7ff6392ff8b11ad467b07eceac43ceccf86e5dbc865c"),
        (["certify", "--lambdas", "1/5,301/400", "-N", "2,8"],
         "26734f5f92e6f8cfc48594348aa1500aeeb17650f822319c94b21fbfb72e6989"),
    ], ids=["radius", "certify"])
    def test_lambda16_report_bytes_golden(self, capsys, tmp_path, argv, digest):
        f = tmp_path / "lam16.scheme"
        f.write_text(LAM16)
        code, out, _ = run(capsys, *argv, "--file", str(f))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
