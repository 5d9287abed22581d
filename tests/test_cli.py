from __future__ import annotations

import hashlib
import json
import time

import pytest

from modeq.cli import main

HEAT = ["--catalog", "heat_centered"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            (["regions", "--lambda-range", "0:1:3"], "scheme huge: weight B[0] at lambda = 0.0 "),
            (["figures", "--lambdas", "1/2", "-N", "2"], "scheme huge: weight B[0] at lambda = 1/2 "),
            (["radius", "--lambdas", "1/2", "-N", "16"], "scheme huge: weight B[0] at lambda = 1/2 "),
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

    def test_order_cap_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MODEQ_MAX_ORDER", "10")
        code, _, err = run(capsys, "modeq", *HEAT, "-N", "12")
        assert code == 1
        assert "MODEQ_MAX_ORDER" in err

    def test_engine_mismatch_exits_2(self, capsys, monkeypatch):
        import modeq.cli as cli
        from modeq.derivation import derive_log as real_derive_log

        def skewed(scheme, order):
            other = real_derive_log(scheme, order)
            coeffs = list(other.coeffs)
            coeffs[0] = coeffs[0] + cli_one()
            return type(other)(scheme_name=other.scheme_name, q=other.q, coeffs=tuple(coeffs))

        def cli_one():
            from modeq.exactalg import LambdaPoly

            return LambdaPoly.one()

        monkeypatch.setattr(cli, "derive_elimination", skewed)
        code, _, err = run(capsys, "modeq", *HEAT, "-N", "4", "--verify")
        assert code == 2
        assert "disagree" in err


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
        ],
        ids=["modeq", "regions", "radius", "figures", "certify", "symmetry"],
    )
    def test_unread_flag_exits_1(self, capsys, tmp_path, argv, flag):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and flag in err
        assert out == "" and not any(tmp_path.iterdir())

    def test_bad_flag_value_exits_1(self, capsys):
        code, _, err = run(capsys, "radius", *HEAT, "--lambdas", "1/2", "--grid", "x")
        assert code == 1
        assert err.startswith("error: ") and "--grid" in err

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
            "--grid",
            "512",
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

    def test_missing_range_exits_1(self, capsys):
        code, _, err = run(capsys, "regions", *HEAT)
        assert code == 1 and "--lambda-range" in err

    def test_empty_range_exits_1(self, capsys):
        code, _, err = run(capsys, "regions", *HEAT, "--lambda-range", "0:0:5")
        assert code == 1


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
            "--grid",
            "64",
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


class TestCertifyCommand:
    def test_inside_contraction_region(self, capsys):
        code, out, _ = run(
            capsys, "certify", *HEAT, "--lambdas", "1/5", "-N", "4", "--grid", "512"
        )
        assert code == 0
        cert = json.loads(out)["certificates"][0]
        assert cert["C"] == 0.0
        assert cert["bound"] >= 1.0

    def test_refusal_exits_1(self, capsys):
        code, _, err = run(capsys, "certify", *HEAT, "--lambdas", "0.6", "-N", "4")
        assert code == 1
        assert "contraction region" in err

    def test_reference_order_0_exits_1(self, capsys):
        code, out, err = run(
            capsys, "certify", *HEAT, "--lambdas", "1/5", "-N", "4", "--reference-order", "0"
        )
        assert code == 1
        assert out == ""
        assert "series order must be >= 1" in err


class TestSymmetryCommand:
    def test_identity_holds(self, capsys):
        code, out, _ = run(
            capsys, "symmetry", "--lambdas", "1/4,0.1", "-N", "8", "--grid", "512"
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert all(r["ok"] for r in reports)

    def test_domain_violation_exits_1(self, capsys):
        code, _, _ = run(capsys, "symmetry", "--lambdas", "0.9")
        assert code == 1

    def test_identity_violation_exits_2(self, capsys, monkeypatch):
        import dataclasses

        import modeq.cli as cli
        from modeq.spectra import upwind_symmetry_check as real_check

        def broken(lam, modeq, grid=4096):
            report = real_check(lam, modeq, grid=grid)
            return dataclasses.replace(report, coefficient_ok=False, first_violation=2)

        monkeypatch.setattr(cli.spectra, "upwind_symmetry_check", broken)
        code, _, err = run(capsys, "symmetry", "--lambdas", "1/4", "--grid", "256")
        assert code == 2
        assert "violated" in err


class TestDeterminism:
    def test_identical_config_byte_identical_outputs(self, tmp_path, capsys):
        args = [
            "regions",
            "--catalog",
            "upwind_euler",
            "--lambda-range",
            "0:1.2:25",
            "--grid",
            "256",
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
    # runs the elimination engine at the default MODEQ_MAX_ORDER.
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
