"""The benchmark's own check, once per workload.

A traced ``bench/run.py`` run is ``correct`` only when every report passes
the benchmark's references and every span its workload must open was
opened, so a call site that escapes the package's public functions (say, a
step loop that no longer calls ``empirics.step``) fails here.  Each
workload takes one pass, ``--seconds 0``, in a fresh process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "101",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    assert json.loads(result_line)["correct"] is True, proc.stderr
    assert json.loads(info_line)["info"]["missing_spans"] == []
