"""modeq benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``modeq`` from ``src/``.

Workloads (built in ``workloads.py`` from the seed):

* ``exact-derive``  -- ``modeq modeq`` on the catalog and on random stencil
  files; nearly all time is exact arithmetic (exactalg, derivation);
* ``radius-sweep``  -- ``modeq radius -N 24`` across four lambda bands; the
  Newton zero search dominates;
* ``spectral-scan`` -- ``regions``, ``figures``, ``certify`` and ``symmetry``;
  float work in spectra and empirics dominates.

Each run starts fresh worker processes (``worker.py``) with BLAS and OpenMP
pinned to one thread.  Four of them only time the set-up; the last one also
sends the request list to ``modeq.cli.main`` in-process, one request at a
time, for ``--seconds``, checks every report against the benchmark's own
references and hashes it.

End-to-end metrics (``--trace 0``):

* ``wall_s``      -- seconds for the whole request list: the sum over requests
  of each request's median time across the passes of the run;
* ``setup_s``     -- seconds to import the package, build the catalog and write
  the seeded scheme files in a fresh process, median of five processes;
* ``peak_rss_mb`` -- peak resident memory of the measuring process;
* ``ok_frac``     -- requests that passed their check / requests attempted,
  i.e. 1 - fail_frac.  A request fails when it exits non-zero, crashes, hits
  its time cap or fails its check.

Both times are scaled to a reference host speed.  On the 2-vCPU VM the
benchmark was defined on, one vCPU ran the same code up to 1.7x slower
than the other, and which one was slow changed within minutes.  So each
worker stays on one CPU, times a fixed exact-arithmetic kernel
(``worker.calibrate``) before and after every request, and multiplies
each request's time by ``REFERENCE_CALIBRATION_S / mean of those two
kernel times``.  Over ten seeds per workload this cut the quartile spread
of ``wall_s`` from 13-24% of the median to 2-6%.  The unscaled seconds
are kept in the info line as ``wall_s_raw`` and ``setup_s_raw``.

``--workload all`` runs every workload untraced and traced, prints one
summary and writes it to ``--out`` if given.

``--trace 1`` reports the per-layer metrics listed in ``BENCHMARK.json``
from a run that wraps every public function of the package in a span
(``tracing.py``).  ``correct`` is false when a report is wrong in a way that
is not one of the package's documented defects, or when a span that a
workload must open is missing.  The last line on stdout is the result
object; the line before it records seed, machine, versions, input
properties, report digests and failures; stderr gets a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4  # set-up-only processes, besides the measuring one
# fixed scale: about the calibration kernel's time on the host the benchmark
# was defined on (2-vCPU x86-64 VM at 2.0 GHz, Python 3.11.7), where it
# ranged from 3.0 to 5.3 ms
REFERENCE_CALIBRATION_S = 0.004
RUN_LIMIT_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker(role: str, args, root: Path, workdir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), role, "--root", str(root),
           "--workdir", str(workdir), "--workload", args.workload, "--seed", str(args.seed)]
    if role == "measure":
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _wall_s_raw(result: dict) -> float:
    return sum(statistics.median(times) for times in result["request_s"].values())


def _wall_s(result: dict) -> float:
    """Sum over requests of the median scaled time; each time is scaled by
    the kernel timings taken right before and after that request."""
    return sum(
        statistics.median(t * REFERENCE_CALIBRATION_S / c
                          for t, c in zip(times, result["request_calibration_s"][label]))
        for label, times in result["request_s"].items())


def _end_to_end(result: dict, setups: list) -> dict:
    return {
        "wall_s": _wall_s(result),
        "setup_s": statistics.median(s["setup_s"] * REFERENCE_CALIBRATION_S / s["calibration_s"]
                                     for s in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1 - result["failed"] / result["attempted"],
    }


def run_one(args, spec: dict) -> int:
    root = Path.cwd()
    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setups.append(_worker("setup", args, root, work / f"setup{i}", deadline))
        result = _worker("measure", args, root, work / "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    if args.trace:
        listed = spec["per_layer"]
        values = {m["name"]: result["layers"].get(m["name"], 0.0) for m in listed}
    else:
        listed = spec["end_to_end"]
        setups.append(result)
        values = _end_to_end(result, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    missing = result.get("missing_spans", [])
    correct = result["wrong"] == 0 and not missing

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        **{key: result[key] for key in ("nproc", "python", "numpy", "mpmath", "input",
                                       "passes", "requests_per_pass", "digest",
                                       "digests_repeat", "report_bytes", "failures")},
        "fail_frac": result["failed"] / result["attempted"],
        "pass_wall_s": result["wall_s"],
        "request_median_s": {label: statistics.median(times)
                             for label, times in result["request_s"].items()},
    }
    if args.trace:
        info.update(missing_spans=missing, absent_functions=result["absent_functions"],
                    trace_hook_s=result["layers"]["trace.hook_s"])
    else:
        info.update(wall_s_raw=_wall_s_raw(result),
                    setup_s_raw=[s["setup_s"] for s in setups],
                    calibration_s=[s["calibration_s"] for s in setups])

    for m in listed:
        print(f"{args.workload:14s} {m['name']:40s} {values[m['name']]:14.6g} {m['unit']}",
              file=sys.stderr)
    print(f"{args.workload:14s} {'fail_frac':40s} {info['fail_frac']:14.6g} "
          f"({result['failed']} of {result['attempted']} requests)", file=sys.stderr)
    for label, (status, reason) in result["failures"].items():
        print(f"  failed {label}: {status}: {reason}", file=sys.stderr)
    if not result["digests_repeat"]:
        print("  reports differ between passes of the same request list", file=sys.stderr)
    if missing:
        print(f"  spans never opened: {', '.join(missing)}", file=sys.stderr)

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own run."""
    summary: dict = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                return proc.returncode
            info_line, result_line = proc.stdout.strip().splitlines()[-2:]
            entry = summary.setdefault(workload, {})
            entry["per_layer" if trace else "end_to_end"] = json.loads(result_line)
            entry["traced_info" if trace else "info"] = json.loads(info_line)["info"]
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: also write the summary here")
    args = parser.parse_args()

    if not (Path.cwd() / "src" / "modeq" / "__init__.py").is_file():
        print("bench: src/modeq not found; run from the root of a modeq checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
