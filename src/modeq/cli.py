"""Command-line front end.

Subcommands: ``modeq`` (modified-equation table), ``regions`` (stability and
contraction scan), ``radius`` (convergence-radius estimates), ``figures``
(amplification-curve and mode-evolution CSV data), ``certify``
(finite-horizon truncation certificate), ``symmetry`` (upwind mirror check).
Each but ``modeq`` and ``symmetry``, which run in exact arithmetic only,
imports the numeric modules it reads when it runs; only ``radius`` loads
mpmath.

The argument parser and the catalog schemes are built on first use and
kept for the life of the process: ``build_parser`` on the first ``main``
call, ``catalog_scheme`` on the first lookup of each name.  A one-shot
shell command builds each once, as it always did; a caller that runs
``main`` many times in one process pays for them once.  Nothing derived
from a request's input is kept between requests.

Exit codes: 0 success, 1 input/validation error (bad command-line input
included), 2 internal cross-check failure.  Outputs are deterministic: fixed
key order, floats rendered with up to 17 significant digits.  A CSV row is
its ``_fmt`` fields joined by commas, as ``csv.writer`` would write them.
Each table hands the writer its columns, a mapping from each header to
that column's values.  ``figures`` writes the dicts that
``spectra.figure_data`` (after the theta column) and
``empirics.evolve_and_compare`` return as they are, and ``certify`` the
dicts of ``spectra.truncation_certificate`` under their own keys.  A
float array (the curves), or a column of floats only, is rendered by
``%.17g``, which renders every float as ``format(x, ".17g")`` does; any
other column goes value by value through ``_fmt``, so a bool reads
``true``/``false``.  The rows are written in parts of at most
``_CSV_RUN_ROWS``, each by one ``%`` over a repeated row template, and an
array is made a list one part at a time, so a long table never holds more
than that many rows' values and text at once.

``radius``, ``modeq`` (its ``consistency`` block) and ``symmetry`` write
the dicts that the ``radius`` methods, ``derivation.consistency_report``
and ``derivation.upwind_symmetry_check`` return as they are, by
``json.dumps(indent=2)``.

The ``regions`` JSON is the text of ``json.dumps(report, indent=2)``, byte
for byte, rendered without the pure-Python indenting encoder: its head by
``json.dumps(indent=2)``, and every sample scalar by one ``json.dumps`` of
the report's columns as a flat list, which the C encoder writes with the
same ``float.__repr__``, ``NaN``, ``Infinity`` and ``true``/``false`` text,
laid into a template of the report's keys repeated once per sample
(``_regions_json``).  The CSV reads the same columns (``_region_columns``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .derivation import (CrossCheckError, consistency_report, derive_log,
                         upwind_symmetry_check, verify_log)
from .schemes import catalog_scheme, parse_scheme

# the highest series order -N accepts; it bounds the cost of the exact derivation
MAX_ORDER = 64
# the largest sizes the float flags accept; each bounds a scan's time and memory
# (README, "Command line"): --lambda-range COUNT for the theta scans, --steps
# and --gridsize for the figures mode evolution
MAX_LAMBDA_SAMPLES = 10_000
MAX_STEPS = 10_000
MAX_GRIDSIZE = 1_024
DEFAULT_ROOT_TEST_ORDER = 40
# rows per '%' call of the CSV writer: a memory bound, since a call holds
# its rows' fields and their text at once
_CSV_RUN_ROWS = 1024


class UsageError(ValueError):
    """Bad command-line input; maps to exit code 1."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _load_scheme(args: argparse.Namespace):
    if args.catalog and args.file:
        raise UsageError("give exactly one of --catalog or --file")
    if args.catalog:
        return catalog_scheme(args.catalog)
    if args.file:
        try:
            text = Path(args.file).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read {args.file}: {exc}") from exc
        return parse_scheme(text)
    raise UsageError("a scheme source is required: --catalog NAME or --file PATH")


def _parse_orders(raw: Optional[str], default: Optional[Sequence[int]] = None) -> tuple:
    if raw is None:
        if default is None:
            raise UsageError("-N is required for this subcommand")
        return tuple(default)
    try:
        orders = tuple(int(tok) for tok in raw.split(",") if tok)
    except ValueError as exc:
        raise UsageError(f"-N expects a comma-separated integer list, got {raw!r}") from exc
    if not orders:
        raise UsageError("-N list is empty")
    for n in orders:
        if n > MAX_ORDER:
            raise UsageError(f"series order {n} exceeds the cap MAX_ORDER = {MAX_ORDER}")
        if n < 1:
            raise UsageError(f"series order must be >= 1, got {n}")
    return orders


def _single_order(args: argparse.Namespace, default: int) -> int:
    orders = _parse_orders(args.orders, default=(default,))
    if len(orders) != 1:
        raise UsageError(f"the {args.command} subcommand takes a single -N value")
    return orders[0]


def _parse_lambdas(args: argparse.Namespace) -> list[Fraction]:
    if not args.lambdas:
        raise UsageError("--lambdas is required for this subcommand")
    values = []
    for tok in args.lambdas.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            values.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad lambda value {tok!r}") from exc
        # every subcommand reads float(lambda): in a file name, a bound or a scan
        try:
            float(values[-1])
        except OverflowError as exc:
            raise UsageError(f"lambda value {tok!r} is beyond the float range") from exc
    if not values:
        raise UsageError("--lambdas list is empty")
    return values


def _parse_range(raw: str) -> tuple:
    try:
        lo, hi, count = raw.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise UsageError(f"--lambda-range expects LO:HI:COUNT, got {raw!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"--lambda-range LO and HI must be finite, got {raw!r}")
    if count > MAX_LAMBDA_SAMPLES:
        raise UsageError(f"--lambda-range COUNT {count} is above the cap "
                         f"MAX_LAMBDA_SAMPLES = {MAX_LAMBDA_SAMPLES}")
    return lo, hi, count


def _finite_nonnegative(text: str) -> float:
    """A flag value that must be a finite float >= 0."""
    try:
        if 0 <= (value := float(text)) < math.inf:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expects a finite number >= 0, got {text!r}")


def _at_most(name: str, cap: int):
    """A flag type: an int no larger than ``cap``, the constant ``name``."""
    def parse(text: str) -> int:
        if (value := int(text)) > cap:
            raise argparse.ArgumentTypeError(f"{value} is above the cap {name} = {cap}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _out_dir(args: argparse.Namespace, default: Optional[str] = None) -> Optional[Path]:
    """The --out directory, else ``default`` (None: stdout), created if missing."""
    if (raw := args.out or default) is None:
        return None
    Path(raw).mkdir(parents=True, exist_ok=True)
    return Path(raw)


def _emit_json(obj, out_dir: Optional[Path], filename: str) -> None:
    """Write ``obj`` as JSON to ``out_dir / filename``, or to stdout for None."""
    _emit_text(json.dumps(obj, indent=2) + "\n", out_dir, filename)


def _emit_text(text: str, out_dir: Optional[Path], filename: str) -> None:
    """Write ``text`` to ``out_dir / filename``, or to stdout for None."""
    if out_dir is None:
        sys.stdout.write(text)
        return
    (out_dir / filename).write_text(text, encoding="utf-8")
    print(f"wrote {out_dir / filename}")


def _write_csv(path: Path, columns: Mapping[str, Sequence]) -> None:
    """Write ``columns``, a mapping from each header to its column's values,
    as CSV: a float array, or a column of floats only, by ``%.17g``, a
    column of str only as it is (as ``_fmt`` would write it), any other
    through ``_fmt``.  An array is made a list one part at a time."""
    floats = [getattr(col, "dtype", None) == float or all(isinstance(v, float) for v in col)
              for col in columns.values()]
    cols = [col if f or all(isinstance(v, str) for v in col) else [_fmt(v) for v in col]
            for f, col in zip(floats, columns.values())]
    template = ",".join("%.17g" if f else "%s" for f in floats) + "\r\n"
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, len(cols[0]), _CSV_RUN_ROWS):
            part = [col[start:start + _CSV_RUN_ROWS] for col in cols]
            part = [p.tolist() if hasattr(p, "tolist") else p for p in part]
            fh.write(template * len(part[0]) % tuple(chain.from_iterable(zip(*part))))
    print(f"wrote {path}")


def _region_columns(report) -> dict[str, Sequence]:
    """The regions CSV columns of a ``spectra.RegionReport``, by header:
    ``lambda``, the report's ``columns``, then ``trunc_stable_N<n>`` for
    each order."""
    return {"lambda": report.samples, **report.columns,
            **{f"trunc_stable_N{n}": report.trunc_stable[n] for n in report.orders}}


def _regions_json(report, columns: Mapping[str, Sequence]) -> str:
    """The regions report as ``json.dumps(report, indent=2) + "\\n"`` writes
    it, from its ``_region_columns``: the head, then one object per sample
    (a scan has at least two), its verdicts keyed by order in numeric order."""
    from .spectra import DEFAULT_GRID, DEFAULT_TOL
    text = json.dumps({
        "scheme": report.scheme_name,
        "grid": DEFAULT_GRID,
        "tolerance": DEFAULT_TOL,
        "orders": list(report.orders),
        "Rs_boundary": report.rs_boundary(),
        "Omega_c_boundary": report.omega_c_boundary(),
        "lambda_samples": [],
    }, indent=2)
    verdicts = ",".join(f'\n        "{n}": %s' for n in report.orders)
    sample = ("    {" + "".join(f'\n      "{key}": %s,' for key in ("lambda", *report.columns))
              + '\n      "trunc_stable": ' + ("{" + verdicts + "\n      }" if verdicts else "{}")
              + "\n    }")
    # the C encoder's ", " separator occurs in no float or bool text
    values = json.dumps(list(chain.from_iterable(zip(*columns.values()))))[1:-1].split(", ")
    return (text[:-len("[]\n}")] + "[\n"
            + ",\n".join([sample] * len(report.samples)) % tuple(values) + "\n  ]\n}\n")


def _require_lambdas(scheme, lambdas: Sequence[Fraction], *, positive: bool) -> None:
    """Refuse, before any derivation, a lambda outside the domain
    (``spectra.require_lambda``) or one whose symbol coefficients are
    beyond the float range."""
    from .spectra import require_lambda, symbol_weights
    for lam in lambdas:
        require_lambda(scheme.name, lam, positive=positive)
        symbol_weights(scheme, lam)


def _lambda_tag(lam) -> str:
    return format(float(lam), "g")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_modeq(args: argparse.Namespace) -> int:
    scheme = _load_scheme(args)
    order = _single_order(args, 8)
    modeq = derive_log(scheme, order)
    if args.verify:
        verify_log(scheme, modeq)
    payload = modeq.to_json_dict()
    payload["consistency"] = consistency_report(scheme, modeq)
    _emit_json(payload, _out_dir(args), f"{scheme.name}_modeq.json")
    return 0


def cmd_regions(args: argparse.Namespace) -> int:
    from . import spectra
    scheme = _load_scheme(args)
    if not args.lambda_range:
        raise UsageError("--lambda-range LO:HI:COUNT is required")
    lambda_range = _parse_range(args.lambda_range)
    orders = _parse_orders(args.orders, default=())
    report = spectra.region_scan(scheme, lambda_range, orders=orders)
    out_dir = _out_dir(args, ".")
    columns = _region_columns(report)
    _emit_text(_regions_json(report, columns), out_dir, f"{scheme.name}_regions.json")
    _write_csv(out_dir / f"{scheme.name}_regions.csv", columns)
    for label, boundary in (("R_s", report.rs_boundary()),
                            ("Omega_c", report.omega_c_boundary())):
        print(f"{label} boundary: {'none' if boundary is None else _fmt(boundary)}")
    return 0


def cmd_radius(args: argparse.Namespace) -> int:
    from . import radius
    scheme = _load_scheme(args)
    lambdas = _parse_lambdas(args)
    order = _single_order(args, DEFAULT_ROOT_TEST_ORDER)
    _require_lambdas(scheme, lambdas, positive=True)
    radius.require_root_test_order(scheme.name, order)
    # the radius depends only on the symbol, so the heat closed form applies
    # to every scheme with the heat stencil, whatever its name
    heat_stencil = scheme.stencil == catalog_scheme("heat_centered").stencil
    results = []
    for lam in lambdas:
        # the root test reads the c_p at lam only: derive them at lam
        results.append({
            "lambda": str(lam),
            "root_test": radius.radius_root_test(derive_log(scheme, order, lam), lam),
            "zero_search": radius.radius_zero_search(scheme, lam),
            "closed_form": radius.heat_closed_form_radius(lam) if heat_stencil else None,
        })
    _emit_json({"scheme": scheme.name, "estimates": results}, _out_dir(args),
               f"{scheme.name}_radius.json")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from . import empirics, spectra
    scheme = _load_scheme(args)
    lambdas = _parse_lambdas(args)
    orders = _parse_orders(args.orders, default=None)
    tags = {}
    for lam in lambdas:
        first = tags.setdefault(_lambda_tag(lam), lam)
        if first != lam:
            raise UsageError(f"--lambdas {first} and {lam} would both write "
                             f"{scheme.name}_lambda{_lambda_tag(lam)}.csv")
    lambdas = list(tags.values())  # a repeated lambda is computed and written once
    # lambda and the size flags are refused before the derivation, in the layers' words
    _require_lambdas(scheme, lambdas, positive=False)
    empirics.require_evolution_sizes(scheme, args.steps, args.gridsize)
    # every table is computed before the first file is written
    modeq = derive_log(scheme, max(orders))
    tables = spectra.figure_data(scheme, modeq, lambdas, orders)
    evolutions = [empirics.evolve_and_compare(scheme, modeq, lam, max(orders), args.steps,
                                              args.gridsize) for lam in lambdas]
    out_dir = _out_dir(args, ".")
    theta = ["%.17g" % x for x in spectra.THETAS.tolist()]  # rendered once, for every table
    for lam, curves in zip(lambdas, tables):
        _write_csv(out_dir / f"{scheme.name}_lambda{_lambda_tag(lam)}.csv",
                   {"theta": theta, **curves})
    for lam, (columns, _) in zip(lambdas, evolutions):
        _write_csv(out_dir / f"{scheme.name}_evolve_lambda{_lambda_tag(lam)}.csv", columns)
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    from . import spectra
    scheme = _load_scheme(args)
    lambdas = _parse_lambdas(args)
    orders = _parse_orders(args.orders, default=(4,))
    # the tail estimate reads the partial sum of order 4N
    if (reference := 4 * max(orders)) > MAX_ORDER:
        raise UsageError(f"certify -N {max(orders)} needs the reference order 4N = {reference}, "
                         f"above the cap MAX_ORDER = {MAX_ORDER}; -N is at most {MAX_ORDER // 4}")
    _require_lambdas(scheme, lambdas, positive=True)
    certificates = []
    for lam in lambdas:
        # the certificate reads the c_p at lam only: derive them at lam
        certificates += spectra.truncation_certificate(
            scheme, derive_log(scheme, reference, lam), lam, orders, support_m=args.support_m,
            horizon_t=args.horizon_t,
        )
    _emit_json({"scheme": scheme.name, "certificates": certificates}, _out_dir(args),
               f"{scheme.name}_certify.json")
    return 0


def cmd_symmetry(args: argparse.Namespace) -> int:
    lambdas, half = _parse_lambdas(args), Fraction(1, 2)
    try:  # each row writes lambda and 1/2 -+ lambda in full
        texts = [(str(lam), str(half - lam), str(half + lam)) for lam in lambdas]
    except ValueError as exc:  # an int of more digits than str() writes
        raise UsageError(f"--lambdas takes values of at most {sys.get_int_max_str_digits()} "
                         f"digits, which the report writes in full") from exc
    if bad := [lam for lam in lambdas if not 0 <= lam <= half]:
        raise UsageError(f"lambda must lie in [0, 1/2], got {bad[0]}")
    if (order := _single_order(args, 8)) < 2:
        raise UsageError(f"symmetry -N must be at least 2, got {order}: no even order to prove")
    modeq = derive_log(catalog_scheme("upwind_euler"), order)
    # the identities are proved for every lambda; each --lambdas value names a row
    report = upwind_symmetry_check(modeq)
    reports = [{"lambda": lam, "lambda_low": low, "lambda_high": high, **report}
               for lam, low, high in texts]
    _emit_json({"scheme": "upwind_euler", "reports": reports}, _out_dir(args),
               "upwind_euler_symmetry.json")
    if not report["ok"]:
        print("symmetry identity violated; see report", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # a flag is read only by its full name: an abbreviation would, for one,
    # read a --grid given to figures as --gridsize
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad input, but 2 means a failed cross-check
    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


# Flags shared by several subcommands, keyed as they read in a usage line;
# each subcommand adds only the flags it reads.
_FLAGS = {
    "--catalog": dict(metavar="NAME", help="builtin scheme name"),
    "--file": dict(metavar="PATH", help="scheme description file"),
    "-N": dict(dest="orders", metavar="N", help="series order"),
    "-N LIST": dict(dest="orders", metavar="LIST", help="comma-separated truncation orders"),
    "--lambdas": dict(metavar="LIST", help="comma-separated mesh ratios (rationals or decimals)"),
    "--lambda-range": dict(metavar="LO:HI:COUNT", help="uniform mesh-ratio sweep"),
    "--out": dict(metavar="DIR", help="output directory"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name.split()[0], **_FLAGS[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = _Parser(
        prog="modeq",
        description="Modified-equation and von Neumann stability analysis "
                    "of explicit linear finite-difference schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("modeq", help="derive the modified-equation table")
    _add_flags(p, "--catalog", "--file", "-N", "--out")
    p.add_argument("--verify", action="store_true",
                   help="prove (lambda G)' S = S'")
    p.set_defaults(func=cmd_modeq)

    p = sub.add_parser("regions", help="scan stability/contraction regions")
    _add_flags(p, "--catalog", "--file", "-N LIST", "--lambda-range", "--out")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("radius", help="estimate the generator series radius")
    _add_flags(p, "--catalog", "--file", "-N", "--lambdas", "--out")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("figures", help="emit |S| vs |S_N| curve data")
    _add_flags(p, "--catalog", "--file", "-N LIST", "--lambdas", "--out")
    p.add_argument("--steps", type=_at_most("MAX_STEPS", MAX_STEPS), default=100,
                   help="evolution steps for the mode-decay table")
    p.add_argument("--gridsize", type=_at_most("MAX_GRIDSIZE", MAX_GRIDSIZE), default=64,
                   help="periodic grid size for the mode-decay table")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("certify", help="finite-horizon truncation certificate")
    _add_flags(p, "--catalog", "--file", "-N LIST", "--lambdas", "--out")
    p.add_argument("--support-M", dest="support_m", type=_finite_nonnegative, default=math.pi,
                   help="frequency support bound (default pi)")
    p.add_argument("--horizon-T", dest="horizon_t", type=_finite_nonnegative, default=1.0,
                   help="time horizon (default 1.0)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("symmetry", help="upwind mirror-symmetry check")
    _add_flags(p, "-N", "--lambdas", "--out")
    p.set_defaults(func=cmd_symmetry)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # UsageError, SchemeError, CertificateRefusal; --out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CrossCheckError as exc:  # radius.ZeroSearchError too
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
