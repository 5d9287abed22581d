"""Seeded request lists and the benchmark's own reference checks.

Each workload is a list of ``Request`` objects: the argv of one ``modeq``
command (without ``--out``) plus a check that reads the reports the command
wrote and raises ``CheckFailed`` when they are wrong.  The references here
are computed independently of the package under test: the benchmark keeps
its own copy of the catalog stencils, golden coefficient tables and
closed-form radii, so a change to the package cannot move its own yardstick.

Importing this module loads only the standard library; numpy is imported
inside the checks, after the package under test has loaded it.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("exact-derive", "radius-sweep", "spectral-scan")
CATALOG = ("heat_centered", "upwind_euler", "lax_wendroff")

# Stencil weights B_p(lambda) = a + b*lambda as {offset: (a, b)}.
Stencil = dict

CATALOG_STENCILS: dict[str, Stencil] = {
    "heat_centered": {-1: (Fraction(1), Fraction(0)), 0: (Fraction(-2), Fraction(0)),
                      1: (Fraction(1), Fraction(0))},
    "upwind_euler": {-1: (Fraction(1), Fraction(0)), 0: (Fraction(-1), Fraction(0))},
    "lax_wendroff": {-1: (Fraction(1, 2), Fraction(1, 2)), 0: (Fraction(0), Fraction(-1)),
                     1: (Fraction(-1, 2), Fraction(1, 2))},
}

# Von Neumann stability bound and contraction (|1-S| < 1) bound on lambda.
# Lax-Wendroff: |S|^2 = 1 - 4 l^2 (1 - l^2) sin^4(theta/2) gives 1, and
# max |1-S|^2 = l^2 / (1 - l^2) gives 1/sqrt(2).
REGION_BOUNDS = {
    "heat_centered": (0.5, 0.25),
    "upwind_euler": (1.0, 0.5),
    "lax_wendroff": (1.0, math.sqrt(0.5)),
}

# Golden modified-equation coefficients c_p(lambda), ascending powers of lambda.
GOLDEN_MU = {
    "heat_centered": {
        2: (1,),
        4: (Fraction(1, 12), Fraction(-1, 2)),
        6: (Fraction(1, 360), Fraction(-1, 12), Fraction(1, 3)),
        8: (Fraction(1, 20160), Fraction(-1, 160), Fraction(1, 12), Fraction(-1, 4)),
    },
    "upwind_euler": {
        1: (-1,),
        2: (Fraction(1, 2), Fraction(-1, 2)),
        3: (Fraction(-1, 6), Fraction(1, 2), Fraction(-1, 3)),
        4: (Fraction(1, 24), Fraction(-7, 24), Fraction(1, 2), Fraction(-1, 4)),
    },
}

# The zero search only looks in |Im theta| <= 6 (ROADMAP item 2).
ZERO_SEARCH_IM = 6.0
RADIUS_REL_TOL = 1e-8
EMPIRIC_GAP_TOL = 1e-9
SYMBOL_ABS_TOL = 1e-12


class CheckFailed(Exception):
    """A report disagrees with the benchmark's reference.

    ``known`` names a documented defect of the package when the failure
    matches it; such failures still count as failed requests.
    """

    def __init__(self, reason: str, known: Optional[str] = None):
        super().__init__(reason)
        self.known = known


@dataclass
class Request:
    label: str
    argv: list
    scheme: str
    check: Callable[[Path], None]
    # exception type name -> known-defect tag, for crashes that are documented
    known_crashes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Polynomials in lambda: {power: Fraction}, zero coefficients dropped
# ---------------------------------------------------------------------------

def _poly(coeffs) -> dict:
    return {k: Fraction(c) for k, c in enumerate(coeffs) if c}


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def _pscale(a: dict, f) -> dict:
    return {k: c * f for k, c in a.items() if c * f}


_TERM = re.compile(r"[+-]?[^+-]+")


def parse_coeff(text: str) -> dict:
    """Parse the package's canonical rendering, e.g. ``(1-6*lambda)/12``."""
    body, den = text, 1
    if "/" in text:
        body, den_text = text.rsplit("/", 1)
        den = int(den_text)
    body = body.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    out: dict = {}
    for term in _TERM.findall(body.replace(" ", "")):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        if "lambda" in term:
            coeff_text, _, power_text = term.partition("lambda")
            coeff = int(coeff_text.rstrip("*")) if coeff_text else 1
            power = int(power_text[1:]) if power_text.startswith("^") else 1
        else:
            coeff, power = int(term), 0
        out[power] = out.get(power, 0) + Fraction(sign * coeff, den)
    return {k: c for k, c in out.items() if c}


def _moment(stencil: Stencil, k: int) -> dict:
    """sum_p p^k B_p(lambda) as a polynomial."""
    total: dict = {}
    for p, (a, b) in stencil.items():
        total = _padd(total, _pscale(_poly((a, b)), Fraction(p) ** k))
    return total


def low_order_coeffs(stencil: Stencil) -> dict:
    """c_1 and c_2 from the stencil moments M_k = sum_p p^k B_p:
    c_1 = M_1 and c_2 = M_2/2 - lambda M_1^2/2 (expand ln S to theta^2)."""
    m1, m2 = _moment(stencil, 1), _moment(stencil, 2)
    c2 = _padd(_pscale(m2, Fraction(1, 2)),
               _pscale(_pmul({1: Fraction(1)}, _pmul(m1, m1)), Fraction(-1, 2)))
    return {1: m1, 2: c2}


# ---------------------------------------------------------------------------
# exact-derive
# ---------------------------------------------------------------------------

def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4)))


def _solve(rows: list, rhs: list) -> list:
    """Exact Gauss-Jordan elimination for a square nonsingular system."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _with_moments(rng: random.Random, offsets: list, n_moments: int, last: Fraction) -> list:
    """Random weights on ``offsets`` whose moments 0..n_moments-2 vanish and
    whose moment n_moments-1 equals ``last``."""
    free = len(offsets) - n_moments
    values = [_small(rng) for _ in range(free)]
    rows = [[Fraction(p) ** j for p in offsets[free:]] for j in range(n_moments)]
    rhs = [-sum(Fraction(p) ** j * v for p, v in zip(offsets[:free], values))
           for j in range(n_moments)]
    rhs[-1] += last
    return values + _solve(rows, rhs)


def random_scheme(rng: random.Random, name: str, q: int, linear: bool):
    """A real-rational stencil of 3-5 contiguous points in [-2, 2] whose
    lowest nonvanishing moment fixes the declared PDE coefficient A_q.

    With lambda-linear weights B_p = a_p + b_p*lambda (like Lax-Wendroff),
    b carries no moment below q+1, so c_q stays lambda-independent."""
    width = rng.randint(q + 2 if linear else 3, 5)
    lo = rng.randint(-2, 3 - width)
    offsets = list(range(lo, lo + width))
    target = _small(rng)
    a = _with_moments(rng, offsets, q + 1, target * math.factorial(q))
    b = _with_moments(rng, offsets, q + 1, Fraction(0)) if linear else [Fraction(0)] * width
    stencil = {p: (x, y) for p, x, y in zip(offsets, a, b)}
    lines = [f"scheme {name}", f"q = {q}", f"pde A[{q}] = {-target}"]
    for p, (x, y) in stencil.items():
        text = str(x)
        if y:
            text += f" {'+' if y > 0 else '-'} {abs(y)}*lambda"
        lines.append(f"stencil B[{p}] = {text}")
    return stencil, "\n".join(lines) + "\n"


def _check_modeq(scheme: str, stencil: Stencil, order: int, expect_prefix: Optional[dict]):
    def check(out: Path) -> None:
        report = json.loads((out / f"{scheme}_modeq.json").read_text())
        if report["N"] != order or len(report["terms"]) != order:
            raise CheckFailed(f"expected {order} terms, got N={report['N']}")
        if not report["consistency"]["ok"]:
            raise CheckFailed(f"consistency failures: {report['consistency']['failures']}")
        coeffs = {t["p"]: parse_coeff(t["coeff"]) for t in report["terms"]}
        expected = dict(low_order_coeffs(stencil))
        expected.update({p: _poly(c) for p, c in GOLDEN_MU.get(scheme, {}).items()})
        if scheme == "heat_centered":  # symmetric stencil: odd orders vanish
            expected.update({p: {} for p in range(1, order + 1, 2)})
        for p, poly in expected.items():
            if p <= order and coeffs[p] != poly:
                raise CheckFailed(f"c_{p} = {coeffs[p]} but the reference is {poly}")
        if expect_prefix is not None:
            if scheme in expect_prefix:
                prefix = expect_prefix[scheme]
                if any(coeffs[p] != prefix[p] for p in prefix if p in coeffs):
                    raise CheckFailed("coefficients differ from the same scheme's lower-N report")
            else:
                expect_prefix[scheme] = coeffs
    return check


def exact_derive(rng: random.Random, workdir: Path) -> tuple[list, dict]:
    """Catalog schemes at -N 12 --verify and -N 32, plus four random files at
    -N 12 --verify: two transport (q=1) and two diffusion (q=2) stencils,
    one of each with lambda-linear weights.  The composition is fixed so the
    seed moves the coefficients, not the amount of work."""
    requests = []
    shared: dict = {}  # N=12 coefficients per catalog scheme, for the N=32 cross-check
    for name in CATALOG:
        stencil = CATALOG_STENCILS[name]
        requests.append(Request(f"modeq-verify-{name}",
                                ["modeq", "--catalog", name, "-N", "12", "--verify"],
                                name, _check_modeq(name, stencil, 12, shared)))
        requests.append(Request(f"modeq-log32-{name}",
                                ["modeq", "--catalog", name, "-N", "32"],
                                name, _check_modeq(name, stencil, 32, shared)))
    kinds = [(1, False), (1, True), (2, False), (2, True)]
    rng.shuffle(kinds)
    for k, (q, linear) in enumerate(kinds):
        name = f"random{k}"
        stencil, text = random_scheme(rng, name, q, linear)
        path = workdir / f"{name}.scheme"
        path.write_text(text, encoding="utf-8")
        requests.append(Request(f"modeq-verify-{name}",
                                ["modeq", "--file", str(path), "-N", "12", "--verify"],
                                name, _check_modeq(name, stencil, 12, None)))
    # the N=12 request of each catalog scheme must precede its N=32 request
    head, tail = requests[:6:2] + requests[6:], requests[1:6:2]
    rng.shuffle(head)
    rng.shuffle(tail)
    requests = head + tail
    seen: set = set()
    repeats = 0
    for r in requests:
        repeats += r.scheme in seen
        seen.add(r.scheme)
    return requests, {"repeated_scheme_share": repeats / len(requests)}


# ---------------------------------------------------------------------------
# radius-sweep
# ---------------------------------------------------------------------------

LAMBDA_BANDS = (
    (Fraction(1, 10000), Fraction(2, 1000)),
    (Fraction(2, 1000), Fraction(1, 4)),
    (Fraction(1, 4), Fraction(1)),
    (Fraction(1), Fraction(2)),
)


def _quadratic_roots(c0: complex, c1: complex, c2: complex) -> list:
    """Roots of c2 w^2 + c1 w + c0, without cancellation."""
    if c2 == 0:
        return [] if c1 == 0 else [-c0 / c1]
    disc = complex(c1 * c1 - 4 * c2 * c0) ** 0.5
    if abs(c1 + disc) < abs(c1 - disc):
        disc = -disc
    big = -(c1 + disc) / 2
    return [big / c2, c0 / big] if big != 0 else [0j, 0j]


def nearest_zero(scheme: str, lam: Fraction) -> Optional[complex]:
    """The zero of the symbol S(theta) nearest the origin, or None.

    Heat and upwind use the closed forms; Lax-Wendroff takes the nonzero
    roots w of the quadratic w*S(w), w = e^{i theta}, and
    theta = arg w - i ln|w| on the principal branch."""
    x = float(lam)
    if scheme == "heat_centered":
        if lam >= Fraction(1, 4):
            return complex(2 * math.asin(1 / (2 * math.sqrt(x))), 0.0)
        return complex(math.pi, 2 * math.acosh(1 / (2 * math.sqrt(x))))
    if scheme == "upwind_euler":
        if lam < 1:
            return complex(math.pi, math.log((1 - x) / x))
        if lam == 1:
            return None
        return complex(0.0, -math.log(x / (x - 1)))
    (a0, b0), (a1, b1), (a2, b2) = (CATALOG_STENCILS[scheme][p] for p in (-1, 0, 1))
    coeffs = [lam * (a0 + b0 * lam), 1 + lam * (a1 + b1 * lam), lam * (a2 + b2 * lam)]
    zeros = [complex(math.atan2(w.imag, w.real), -math.log(abs(w)))
             for w in _quadratic_roots(*(complex(c) for c in coeffs)) if w != 0]
    return min(zeros, key=abs) if zeros else None


def _check_radius(scheme: str, lam: Fraction, zero: Optional[complex]):
    reference = math.inf if zero is None else abs(zero)

    def close(value) -> bool:
        if value == "inf" or reference == math.inf:
            return value == "inf" and reference == math.inf
        return abs(value - reference) <= RADIUS_REL_TOL * reference

    def check(out: Path) -> None:
        report = json.loads((out / f"{scheme}_radius.json").read_text())
        (entry,) = report["estimates"]
        if Fraction(entry["lambda"]) != lam:
            raise CheckFailed(f"report is for lambda={entry['lambda']}, asked {lam}")
        found = entry["zero_search"]["value"]
        if not close(found):
            missed = found == "inf" or found > reference
            known = ("zero-search-box" if missed and abs(zero.imag) > ZERO_SEARCH_IM
                     else None)
            raise CheckFailed(f"zero_search {found} vs reference {reference}", known)
        closed = entry["closed_form"]
        if closed is not None and not close(closed["value"]):
            raise CheckFailed(f"closed_form {closed['value']} vs reference {reference}")
    return check


def radius_sweep(rng: random.Random, workdir: Path) -> tuple[list, dict]:
    """One request per catalog scheme and lambda band.  Each request carries
    one lambda so that one missed zero fails one request, not four."""
    requests = []
    far = 0
    for name in CATALOG:
        for lo, hi in LAMBDA_BANDS:
            lam = lo + (hi - lo) * Fraction(rng.randint(1, 9999), 10000)
            zero = nearest_zero(name, lam)
            far += zero is not None and abs(zero.imag) > ZERO_SEARCH_IM
            requests.append(Request(f"radius-{name}-{float(lam):.4g}",
                                    ["radius", "--catalog", name, "--lambdas", str(lam),
                                     "-N", "24"],
                                    name, _check_radius(name, lam, zero)))
    rng.shuffle(requests)
    return requests, {"far_zero_share": far / len(requests)}


# ---------------------------------------------------------------------------
# spectral-scan
# ---------------------------------------------------------------------------

def _abs_symbol(scheme: str, lam: float, thetas):
    import numpy as np

    acc = np.ones_like(thetas, dtype=complex)
    for p, (a, b) in CATALOG_STENCILS[scheme].items():
        acc = acc + lam * float(a + b * Fraction(lam)) * np.exp(1j * p * thetas)
    return np.abs(acc)


def _read_csv(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_regions(scheme: str, hi: float, count: int):
    stable, contract = REGION_BOUNDS[scheme]
    spacing = hi / (count - 1)

    def check(out: Path) -> None:
        report = json.loads((out / f"{scheme}_regions.json").read_text())
        if len(report["lambda_samples"]) != count:
            raise CheckFailed(f"{len(report['lambda_samples'])} samples, asked {count}")
        for key, bound in (("Rs_boundary", stable), ("Omega_c_boundary", contract)):
            found = report[key]
            if found is None or abs(found - bound) > spacing * (1 + 1e-9):
                raise CheckFailed(f"{key} {found} vs {bound} at spacing {spacing:.3g}")
        if len(_read_csv(out / f"{scheme}_regions.csv")) != count:
            raise CheckFailed("regions CSV row count differs from the sample count")
    return check


def _check_figures(scheme: str, lambdas: list):
    stable = REGION_BOUNDS[scheme][0]

    def check(out: Path) -> None:
        import numpy as np

        curves = sorted(out.glob(f"{scheme}_lambda*.csv"))
        evolves = sorted(out.glob(f"{scheme}_evolve_lambda*.csv"))
        if len(curves) != len(lambdas) or len(evolves) != len(lambdas):
            raise CheckFailed(f"expected {len(lambdas)} curve and evolve tables")
        for lam in lambdas:
            tag = format(float(lam), "g")
            rows = _read_csv(out / f"{scheme}_lambda{tag}.csv")
            thetas = np.array([float(r["theta"]) for r in rows])
            got = np.array([float(r["abs_S"]) for r in rows])
            err = float(np.max(np.abs(got - _abs_symbol(scheme, float(lam), thetas))))
            if err > SYMBOL_ABS_TOL:
                raise CheckFailed(f"|S| curve at lambda={lam} off by {err:.3g}")
            if lam > stable:
                # round-off in the unstable modes outgrows the evolved one,
                # so measured and predicted agree only inside R_s
                continue
            for r in _read_csv(out / f"{scheme}_evolve_lambda{tag}.csv"):
                if r["measured"] != "inf" and float(r["gap_S"]) > EMPIRIC_GAP_TOL:
                    raise CheckFailed(f"mode {r['mode']} at lambda={lam}: "
                                      f"|measured - S| gap {r['gap_S']}")
    return check


def _check_certify(scheme: str, lam: Fraction):
    def check(out: Path) -> None:
        report = json.loads((out / f"{scheme}_certify.json").read_text())
        (cert,) = report["certificates"]
        if cert["N"] != 4 or abs(cert["lambda"] - float(lam)) > 1e-15:
            raise CheckFailed(f"certificate for N={cert['N']} lambda={cert['lambda']}")
        values = (cert["C"], cert["A"], cert["bound"])
        if not all(isinstance(v, float) and math.isfinite(v) for v in values) \
                or cert["C"] < 0 or cert["A"] < 0 or cert["bound"] < 1:
            raise CheckFailed(f"certificate constants out of range: {values}")
    return check


def _check_symmetry(count: int):
    def check(out: Path) -> None:
        reports = json.loads((out / "upwind_euler_symmetry.json").read_text())["reports"]
        if len(reports) != count or not all(r["ok"] for r in reports):
            raise CheckFailed(f"symmetry reports: {[r['ok'] for r in reports]}")
    return check


def spectral_scan(rng: random.Random, workdir: Path) -> tuple[list, dict]:
    """Float-heavy requests with exact work only at N <= 16.

    Per catalog scheme: a region scan past the stability bound; figures at
    one stable and one unstable lambda; certificates at one lambda in the
    lower and one in the upper part of the contraction region.  Plus one
    symmetry request.  Counts are fixed so the seed moves values, not work."""
    requests = []
    for name in CATALOG:
        stable, contract = REGION_BOUNDS[name]
        hi = round(stable * rng.uniform(1.2, 2.0), 4)
        requests.append(Request(f"regions-{name}",
                                ["regions", "--catalog", name,
                                 "--lambda-range", f"0:{hi}:601", "-N", "2,4,8"],
                                name, _check_regions(name, hi, 601)))
        lambdas = [Fraction(round(stable * rng.uniform(0.1, 0.95) * 1000), 1000),
                   Fraction(round(stable * rng.uniform(1.05, 1.5) * 1000), 1000)]
        requests.append(Request(f"figures-{name}",
                                ["figures", "--catalog", name,
                                 "--lambdas", ",".join(map(str, lambdas)), "-N", "2,8"],
                                name, _check_figures(name, lambdas)))
        for part, (lo, hi_share) in (("low", (0.2, 0.6)), ("high", (0.7, 0.95))):
            lam = Fraction(round(contract * rng.uniform(lo, hi_share) * 1000), 1000)
            # Lax-Wendroff's certificate overflows math.exp for lambda >~ 0.48
            # and the CLI lets the OverflowError escape.
            requests.append(Request(f"certify-{part}-{name}",
                                    ["certify", "--catalog", name, "--lambdas", str(lam),
                                     "-N", "4"],
                                    name, _check_certify(name, lam),
                                    known_crashes={"OverflowError": "certify-overflow"}))
    sym = sorted(Fraction(k, 100) for k in rng.sample(range(1, 50), 3))
    requests.append(Request("symmetry",
                            ["symmetry", "--lambdas", ",".join(map(str, sym)), "-N", "12"],
                            "upwind_euler", _check_symmetry(3)))
    rng.shuffle(requests)
    return requests, {}


# Spans each workload must open at least once per traced pass; one that is
# missing while its function exists means a call site escaped the wrappers.
EXPECTED_SPANS = {
    "exact-derive": (
        "cli.main", "schemes.parse_scheme", "derivation.symbol_series",
        "derivation.derive_log", "derivation.derive_elimination",
        "derivation.consistency_report", "exactalg.series_mul", "exactalg.series_log",
    ),
    "radius-sweep": (
        "cli.main", "derivation.derive_log", "exactalg.series_mul", "exactalg.series_log",
        "radius.radius_root_test", "radius.radius_zero_search", "spectra.eval_symbol",
    ),
    "spectral-scan": (
        "cli.main", "derivation.derive_log", "spectra.eval_symbol", "spectra.region_scan",
        "spectra.figure_data", "spectra.truncation_certificate",
        "spectra.upwind_symmetry_check", "empirics.evolve_and_compare", "empirics.step",
    ),
}

BUILDERS = {
    "exact-derive": exact_derive,
    "radius-sweep": radius_sweep,
    "spectral-scan": spectral_scan,
}


def build(workload: str, seed: int, workdir: Path) -> tuple[list, dict]:
    """The request list and its recorded input properties for one seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)
