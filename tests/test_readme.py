"""Every command in README's "Command line" block runs and exits 0, the
flag table lists exactly the flags each subcommand registers, the caps it
names are the package's, the CSV column lists and the certificate,
radius, consistency and symmetry keys name those the functions return,
the "Library" example prints what its comments say, the scheme-file
example is the catalog's Lax-Wendroff scheme, and the truncation-verdict
counts in "Notes on the methods" are the scans' own, so a flag, cap,
name, format or verdict-step change in the package cannot linger in the
documentation."""

from __future__ import annotations

import argparse
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from modeq import cli, schemes, spectra
from modeq.cli import build_parser, main
from modeq.derivation import consistency_report, derive_log, upwind_symmetry_check
from modeq.empirics import evolve_and_compare
from modeq.radius import heat_closed_form_radius, radius_root_test, radius_zero_search
from modeq.schemes import catalog_scheme, parse_scheme
from modeq.spectra import figure_data, truncation_certificate

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("modeq ")]


COMMANDS = _command_lines()


def _table_flags() -> dict:
    """Subcommand -> the flags its row of README's flag table names."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", section, re.M)
    # the table's header reads "flags besides `--out`"
    return {name: {"--out"} | set(re.findall(r"`(-[-\w]+)", flags)) for name, flags in rows}


def _parser_flags() -> dict:
    """Subcommand -> the flags ``build_parser()`` registers for it."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {a.option_strings[0] for a in parser._actions
               if a.option_strings and a.option_strings[0] != "-h"}
        for name, parser in sub.choices.items()
    }


def _command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def _stated_caps() -> dict:
    """Cap name -> the values README states for it, as "64 (`MAX_ORDER`)"."""
    stated = {name: set() for name in re.findall(r"`(MAX_\w+)`", _command_line_section())}
    for value, name in re.findall(r"(\d+)\s+\(`(MAX_\w+)`\)", _command_line_section()):
        stated[name].add(int(value))
    return stated


def _output_lists(noun: str) -> list:
    """The lists of README's "Output formats" section that follow ``noun``,
    as "columns `a,b`", in order."""
    section = README.read_text(encoding="utf-8").split("## Output formats", 1)[1]
    return [cols.split(",") for cols in re.findall(noun + r"\s+`([^`]+)`", section)]


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_block_found():
    assert len(COMMANDS) >= 6


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, tmp_path, capsys):
    code = main(shlex.split(line)[1:] + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0, err


def test_flag_table_matches_parser():
    assert _table_flags() == _parser_flags()


def test_caps_named_are_the_package_caps():
    stated = _stated_caps()
    for name, values in stated.items():
        # one value, the constant's in modeq.cli or modeq.schemes
        assert len(values) == 1, name
        assert values == {getattr(m, name) for m in (cli, schemes) if hasattr(m, name)}, name
    assert {name for name in vars(cli) if name.startswith("MAX_")} <= set(stated)


def test_csv_columns_match_the_code():
    curve, evolve = _output_lists("columns")
    certificate, entry, diagnostics, consistency, failure, row = _output_lists("keys")
    heat = catalog_scheme("heat_centered")
    modeq = derive_log(heat, 8)
    [table] = figure_data(heat, modeq, [0.5], (2, 8))
    # the last curve column, abs_S_N{N}..., repeats once per order
    per_order = curve.pop().removesuffix("...")
    # the writer puts the theta column, the same for every table, first
    assert curve + [per_order.format(N=n) for n in (2, 8)] == ["theta", *table]
    assert evolve == list(evolve_and_compare(heat, modeq, 0.5, 8, 1, 8)[0])
    [cert] = truncation_certificate(heat, modeq, 0.2, (4,), 3.0, 1.0)
    assert certificate == list(cert)
    for est in (radius_root_test(derive_log(heat, 16), 0.5), radius_zero_search(heat, 0.5),
                heat_closed_form_radius(0.5)):
        assert (entry, diagnostics) == (list(est), list(est["diagnostics"]))
    wrong_sign = parse_scheme("scheme wrong_sign\nq = 1\npde A[1] = -1\n"
                              "stencil B[-1] = 1\nstencil B[0] = -1\n")
    report = consistency_report(wrong_sign, derive_log(wrong_sign, 2))
    assert (consistency, failure) == (list(report), list(report["failures"][0]))
    assert row == list(upwind_symmetry_check(derive_log(catalog_scheme("upwind_euler"), 4)))


def test_library_example_prints_its_comments(capsys):
    block = _library_block()
    # the comment after each print(...) states the value, e.g. "# 0.5"
    expected = [line.split("#", 1)[1].split(",")[0].strip()
                for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed, expected):
        if want == "pi/2":
            assert abs(float(got) - math.pi / 2) <= 1e-15
        else:
            assert got == want


def test_scheme_file_example_is_the_catalog_scheme():
    section = README.read_text(encoding="utf-8").split("## Scheme file format", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    assert parse_scheme(block) == catalog_scheme("lax_wendroff")


def _verdict_step_counts() -> dict:
    """Scheme -> (hi, the verdicts that steps 1-3 decide) as README's
    "Notes on the methods" states them for the 601-lambda scans on [0, hi]."""
    section = README.read_text(encoding="utf-8").split("## Notes on the methods", 1)[1]
    rows = re.findall(r"^  - `(\w+)` on `\[0, ([\d.]+)\]`: (\d+) / (\d+) / (\d+)[;.]$",
                      section, re.M)
    return {name: (float(hi), tuple(map(int, counts))) for name, hi, *counts in rows}


def test_verdict_step_counts_match_the_scans(monkeypatch):
    stated = _verdict_step_counts()
    assert set(stated) == {"heat_centered", "upwind_euler", "lax_wendroff"}
    # steps 1 and 2 read one kernel call on the points, as degenerate
    # intervals, then the pieces between them (18 and 17: 35 intervals), an
    # entry per verdict: the largest of the values and of the pieces' upper
    # ends; step 3 is a kernel call on grid points, each a degenerate
    # interval
    pairs, sweeps = [], []
    kernel = spectra._horner_upper

    def record(x_a, x_b, rows):
        hi = kernel(x_a, x_b, rows)
        if x_a is x_b:
            sweeps.append(rows)
        else:
            points = int(np.argmax(x_a != x_b))  # the degenerate intervals come first
            assert (points, len(x_a)) == (18, 35)  # as README states
            pairs.extend(zip(hi[:points].max(axis=0).tolist(),
                             hi[points:].max(axis=0).tolist()))
        return hi

    monkeypatch.setattr(spectra, "_horner_upper", record)
    tol = spectra.DEFAULT_TOL
    for name, (hi, counts) in stated.items():
        pairs.clear()
        sweeps.clear()
        spectra.region_scan(catalog_scheme(name), (0.0, hi, 601), orders=(2, 4, 8))
        first = sum(value > tol for value, _ in pairs)
        second = sum(value <= tol and upper <= tol for value, upper in pairs)
        assert len(pairs) - first - second == len(sweeps)
        assert (first, second, len(sweeps)) == counts, name
