"""One workload in one fresh process: set-up, then timed passes.

    worker.py setup   --root DIR --workdir DIR --workload W --seed N
    worker.py measure --root DIR --workdir DIR --workload W --seed N --seconds S --trace 0|1

``setup`` times the import of the package, the catalog build and the
writing of the seeded scheme files, then the calibration kernel, and
prints ``{"setup_s": ..., "calibration_s": ...}``.
``measure`` does the same set-up, then sends the workload's requests to
``modeq.cli.main`` one after another (a closed loop with one client) and
repeats the list until ``--seconds`` are used, at least twice.  With
``--trace 1`` the first half of that time runs untraced and the second half
with span wrappers installed.  The last line on stdout is one JSON object.
"""

import os
import sys
import time

# The host's vCPUs differ in speed from minute to minute, so the process
# stays on one CPU and the calibration kernel runs where the requests run.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
START = time.perf_counter()  # set-up is timed from process start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

CALIBRATION_TERMS = 1000  # a few milliseconds of exact arithmetic per sample
REQUEST_CAP_S = 30.0  # a request running longer is stopped and counted as failed
HARD_LIMIT_S = 150.0  # no request starts after this, so the run ends in time


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request that reached its time cap."""


def _alarm(signum, frame):
    raise RequestTimeout()


def calibrate() -> float:
    """Seconds for a fixed exact-arithmetic kernel that does not use the
    package; timed around each request, it measures the host's speed then."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, CALIBRATION_TERMS):
        total += Fraction(1, k)
    return time.perf_counter() - start


def _report_digest(out: Path) -> tuple[str, int]:
    """sha256 over the names and bytes of every report a request wrote."""
    digest = hashlib.sha256()
    size = 0
    if out.is_dir():
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data + b"\0")
            size += len(data)
    return digest.hexdigest(), size


def _run_request(main, argv: list, cap: float):
    """Call the CLI in-process with its output captured; returns the exit
    code, ``"timeout"``, or the exception that escaped, and the seconds."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        code = "timeout"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a failed run
        code = exc
    return code, time.perf_counter() - start


def _judge(request, out: Path, code):
    """(status, reason): status is ok, known:<tag>, timeout or wrong."""
    if code == "timeout":
        return "timeout", f"exceeded the {REQUEST_CAP_S:g} s cap"
    if isinstance(code, BaseException):
        tag = request.known_crashes.get(type(code).__name__)
        reason = f"{type(code).__name__}: {code}"
        return (f"known:{tag}" if tag else "wrong"), reason
    if code != 0:
        return "wrong", f"exit code {code}"
    try:
        request.check(out)
    except workloads.CheckFailed as exc:
        return (f"known:{exc.known}" if exc.known else "wrong"), str(exc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return "wrong", f"unreadable report: {type(exc).__name__}: {exc}"
    return "ok", ""


class Session:
    def __init__(self, cli, requests, workdir: Path):
        self.cli = cli  # main is looked up per request, so a wrapper installed later is used
        self.requests = requests
        self.workdir = workdir
        self.deadline = START + HARD_LIMIT_S
        self.passes: list = []

    def run_pass(self) -> dict:
        pass_dir = self.workdir / f"pass{len(self.passes)}"
        record = {"wall_s": 0.0, "request_s": [], "calibration_s": [], "outcomes": [],
                  "digests": [], "report_bytes": 0}
        for j, request in enumerate(self.requests):
            out = pass_dir / f"r{j:02d}"
            before = calibrate()
            cap = min(REQUEST_CAP_S, max(0.001, self.deadline - time.perf_counter()))
            code, seconds = _run_request(self.cli.main, request.argv + ["--out", str(out)], cap)
            record["wall_s"] += seconds
            record["request_s"].append(seconds)
            record["calibration_s"].append((before + calibrate()) / 2)
            record["outcomes"].append(_judge(request, out, code))
            digest, size = _report_digest(out)
            record["digests"].append(digest)
            record["report_bytes"] += size
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.passes.append(record)
        return record

    def run_for(self, seconds: float, minimum: int, after_pass=None) -> list:
        """Passes until ``seconds`` would be exceeded, and at least ``minimum``."""
        start = time.perf_counter()
        done: list = []
        while True:
            if len(done) >= minimum:
                typical = statistics.median(p["wall_s"] for p in done)
                now = time.perf_counter()
                if now - start + typical > seconds or now + typical > self.deadline:
                    return done
            done.append(self.run_pass())
            if after_pass is not None:
                after_pass(done[-1])


def _versions() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def _layer_metrics(tracer: tracing.Tracer, record: dict) -> dict:
    metrics = {f"{layer}.self_s": s for layer, s in tracer.layer_self_s().items()}
    for name in tracer.functions:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    metrics.update(tracer.counters)
    searches = tracer.calls[tracing.ZERO_SEARCH]
    metrics["radius.symbol_evals_per_search"] = (
        tracer.counters["radius.evals_in_search"] / searches if searches else 0.0)
    metrics["cli.report_bytes"] = record["report_bytes"]
    metrics["trace.gap_s"] = record["wall_s"] - sum(tracer.layer_self_s().values())
    metrics["trace.hook_s"] = tracer.hook_s
    return metrics


def measure(args, cli, requests, properties, setup_s: float) -> dict:
    session = Session(cli, requests, Path(args.workdir))
    result: dict = {"setup_s": setup_s, "input": properties, **_versions()}
    if not args.trace:
        untraced = session.run_for(args.seconds, minimum=2)
    else:
        untraced = session.run_for(args.seconds / 2, minimum=1)
        tracer = tracing.Tracer()
        tracer.install("modeq")
        per_pass = []

        def collect(record):
            per_pass.append(_layer_metrics(tracer, record))
            tracer.reset()

        session.run_for(args.seconds / 2, minimum=1, after_pass=collect)
        layers = {key: statistics.median(m.get(key, 0) for m in per_pass)
                  for key in set().union(*per_pass)}
        traced = session.passes[len(untraced):]
        layers["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        # both sides rescaled to one host speed, as run.py does for wall_s
        speed = statistics.median(c for p in untraced for c in p["calibration_s"])

        def scaled(passes):
            return statistics.median(
                sum(t * speed / c for t, c in zip(p["request_s"], p["calibration_s"]))
                for p in passes)

        layers["trace.overhead_s"] = scaled(traced) - scaled(untraced)
        for layer in tracing.LAYERS:
            source = Path(args.root) / "src" / "modeq" / f"{layer}.py"
            layers[f"{layer}.src_lines"] = (
                len(source.read_text(encoding="utf-8").splitlines()) if source.is_file() else 0)
        radius = [i for i, r in enumerate(requests) if r.argv[0] == "radius"]
        agreed = [p["outcomes"][i][0] == "ok" for p in session.passes for i in radius]
        layers["radius.zero_search.agree_ratio"] = (
            sum(agreed) / len(agreed) if agreed else 0.0)
        result["layers"] = layers
        seen = {name for name in tracer.functions if any(m.get(f"{name}.calls") for m in per_pass)}
        expected = workloads.EXPECTED_SPANS[args.workload]
        result["missing_spans"] = sorted(n for n in expected
                                         if n in tracer.functions and n not in seen)
        result["absent_functions"] = sorted(n for n in expected if n not in tracer.functions)
    result["wall_s"] = [p["wall_s"] for p in untraced]
    result["calibration_s"] = statistics.median(
        c for p in untraced for c in p["calibration_s"])
    result["request_s"] = {r.label: [p["request_s"][i] for p in untraced]
                           for i, r in enumerate(requests)}
    result["request_calibration_s"] = {r.label: [p["calibration_s"][i] for p in untraced]
                                       for i, r in enumerate(requests)}
    outcomes = [o for p in session.passes for o in p["outcomes"]]
    result["attempted"] = len(outcomes)
    result["failed"] = sum(status != "ok" for status, _ in outcomes)
    result["wrong"] = sum(status == "wrong" for status, _ in outcomes)
    result["failures"] = {
        requests[i].label: list(o)
        for p in session.passes for i, o in enumerate(p["outcomes"]) if o[0] != "ok"
    }
    first = session.passes[0]
    result["digest"] = hashlib.sha256("".join(first["digests"]).encode()).hexdigest()
    result["digests_repeat"] = all(p["digests"] == first["digests"] for p in session.passes)
    result["report_bytes"] = first["report_bytes"]
    result["passes"] = len(session.passes)
    result["requests_per_pass"] = len(requests)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import modeq
    import modeq.cli

    if src not in Path(modeq.__file__).resolve().parents:
        print(f"modeq was imported from {modeq.__file__}, not from {src}", file=sys.stderr)
        return 2
    modeq.builtin_catalog()
    requests, properties = workloads.build(args.workload, args.seed, Path(args.workdir))
    setup_s = time.perf_counter() - START
    if args.role == "setup":
        calibration_s = statistics.median(calibrate() for _ in range(9))
        print(json.dumps({"setup_s": setup_s, "calibration_s": calibration_s}))
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    print(json.dumps(measure(args, modeq.cli, requests, properties, setup_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
