"""Which third-party packages a request loads.

The exact layers need neither numpy nor mpmath, so ``import modeq`` and a
``modeq`` or ``symmetry`` request must not load them; the numeric
subcommands load what they read on first use.  Each case runs in a fresh
interpreter, since this test process shares ``sys.modules`` with every
other test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modeq

SRC = str(Path(modeq.__file__).resolve().parents[1])

# every name the package exports from its six layers
EXPORTED = (
    "InexactDivisionError LambdaPoly SeriesPreconditionError "
    "series_log SchemeConsistencyError SchemeError "
    "SchemeParseError SchemeSpec builtin_catalog catalog_scheme "
    "parse_scheme CrossCheckError ModifiedEq "
    "consistency_report derive_log symbol_series "
    "CertificateRefusal RegionReport "
    "eval_symbol figure_data truncation_certificate region_scan "
    "upwind_symmetry_check ZeroSearchError "
    "heat_closed_form_radius radius_root_test "
    "radius_zero_search evolve_and_compare step"
).split()


def fresh_python(code: str, cwd: Path) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


REQUEST = """
import json, sys
import modeq, modeq.cli
code = modeq.cli.main({argv!r})
print(json.dumps({{"code": code, "numpy": "numpy" in sys.modules,
                  "mpmath": "mpmath" in sys.modules}}))
"""


@pytest.mark.parametrize(
    "argv, numpy, mpmath",
    [
        (["modeq", "--catalog", "heat_centered", "-N", "8"], False, False),
        (["regions", "--catalog", "heat_centered", "--lambda-range", "0:1:5",
          "-N", "2"], True, False),
        (["radius", "--catalog", "heat_centered", "--lambdas", "1/4", "-N", "16"],
         True, True),
        (["figures", "--catalog", "heat_centered", "--lambdas", "1/4", "-N", "2",
          "--steps", "2", "--gridsize", "8"], True, False),
        (["certify", "--catalog", "heat_centered", "--lambdas", "1/5", "-N", "2"],
         True, False),
        (["symmetry", "--lambdas", "1/4", "-N", "8"], False, False),
    ],
    ids=["modeq", "regions", "radius", "figures", "certify", "symmetry"],
)
def test_a_request_loads_only_what_it_reads(tmp_path, argv, numpy, mpmath):
    loaded = fresh_python(REQUEST.format(argv=argv + ["--out", str(tmp_path)]), tmp_path)
    assert loaded == {"code": 0, "numpy": numpy, "mpmath": mpmath}


def test_package_names_resolve_on_first_access(tmp_path):
    loaded = fresh_python("""
import json, sys
import modeq
before = "numpy" in sys.modules
from modeq import region_scan, ZeroSearchError, step
try:
    modeq.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"before": before, "after": "numpy" in sys.modules,
                  "dir": dir(modeq), "all": modeq.__all__, "missing": missing,
                  "same": region_scan is sys.modules["modeq.spectra"].region_scan}))
""", tmp_path)
    assert loaded["before"] is False and loaded["after"] is True
    assert set(EXPORTED) <= set(loaded["dir"])
    assert sorted(loaded["all"]) == sorted(EXPORTED)
    assert loaded["missing"] == "module 'modeq' has no attribute 'no_such_name'"
    assert loaded["same"] is True
