"""Independent references that only the tests read.

``fraction_symbol_series`` forms the symbol's series over Fraction weights,
not over integer moments as ``modeq.derivation.symbol_series`` does.
``derive_elimination`` is a second derivation engine: it never takes a
logarithm and shares no recurrence with ``modeq.derivation.derive_log``, so
agreement of the two checks the log engine from outside.  ``bernoulli`` and
``euler_poly_at_zero`` give the exact numbers behind the heat scheme's
closed-form log coefficients.  ``GOLDEN`` holds the closed-form tables
of the catalog schemes whose analysis is known by hand.  ``sweep_region_scan``
is ``modeq.spectra.region_scan`` one lambda at a time, with its maxima,
theta_m and every truncation verdict read off the full grid sweep, as a
``RegionReport`` of the same columns; ``sweep_region_samples`` is that
sweep at given lambdas.
``region_report_json_dict`` is the dict whose ``json.dumps(indent=2)`` is
the regions report, the reference for ``modeq.cli``'s renderer.  ``fraction_square_free`` is
p / gcd(p, p') by Euclid on Fraction lists, the reference for
``LambdaPoly.square_free``.  ``dot_series_log`` is the series logarithm
by the ordinary-coefficient recurrence, one ``LambdaPoly.dot`` per order,
the reference for ``modeq.exactalg.series_log``.  ``series_exp`` is the
series exponential by the same kind of recurrence, the inverse that the
round trips with ``series_log`` check.  ``fraction_log`` is log x of a
positive Fraction, the reference for the root test's log from integers.
``render_scheme`` writes a scheme back in the text format, for the
parser's round trips.  ``measured_amplification`` is one mode's one-step
ratio on a grid stepped by ``modeq.empirics.step``, the cross-check of the
symbol against the stepped scheme.
Tests import them as ``from oracles import ...``, as they import
``conftest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from conftest import lp
from modeq import empirics
from modeq.derivation import CrossCheckError, ModifiedEq, derive_log, symbol_series
from modeq.exactalg import LP_ONE, LP_ZERO, LambdaPoly, SeriesPreconditionError
from modeq.schemes import SchemeSpec
from modeq.spectra import (DEFAULT_GRID, DEFAULT_TOL, THETAS, RegionReport, _signed_coeffs,
                           eval_symbol, symbol_weights)


def render_scheme(spec: SchemeSpec) -> str:
    """Render a SchemeSpec back to the text format (parse/render round trip)."""
    lines = [f"scheme {spec.name}", f"q = {spec.q}"]
    for order, a in spec.pde:
        lines.append(f"pde A[{order}] = {a}")
    for offset, w in spec.stencil:
        lines.append(f"stencil B[{offset}] = {LambdaPoly.render_terms(w.coeffs)}")
    return "\n".join(lines) + "\n"


def measured_amplification(scheme: SchemeSpec, lam, mode: int, gridsize: int) -> complex:
    """Per-step multiplier of the Fourier mode under the actual stencil.

    Applies one ``modeq.empirics.step`` to e^{2 pi i m j / M} and returns
    the ratio u'_j / u_j, which must be the same at every j and must equal
    the symbol at theta = 2 pi m / M, both to within 1e-12; violations of
    either raise CrossCheckError.
    """
    if not 0 <= mode < gridsize:
        raise ValueError(f"mode {mode} outside [0, {gridsize})")
    u = empirics.mode_grid(mode, gridsize)
    ratios = empirics.step(symbol_weights(scheme, lam), u) / u
    ratio = complex(ratios[0])
    spread = float(np.max(np.abs(ratios - ratio)))
    if spread > 1e-12:
        raise CrossCheckError(
            f"mode {mode}: amplification varies across the grid by {spread:.3e}"
        )
    predicted = eval_symbol(scheme, lam, 2.0 * math.pi * mode / gridsize)
    if abs(ratio - predicted) > 1e-12:
        raise CrossCheckError(f"mode {mode}: measured {ratio} vs symbol {predicted}")
    return ratio


def fraction_symbol_series(scheme: SchemeSpec, order: int) -> tuple:
    """The symbol's Taylor series in x = i*theta as ``symbol_series`` gives it,
    each x^r coefficient sum_p a_p(lambda) p^r / r! formed as one
    ``LambdaPoly.dot`` over the Fraction weights p^r / r!."""
    return tuple([
        LambdaPoly.dot([(Fraction(p**r, math.factorial(r)), a, LP_ONE) for p, a in scheme.symbol])
        for r in range(order + 1)])


def dot_series_log(s: tuple) -> tuple:
    """Logarithm of a series with constant term 1: the x^p coefficient of
    x*L' * S = x*S' gives p*l_p = p*s_p - sum_{0<k<p} k*l_k*s_{p-k}, one
    ``LambdaPoly.dot`` per order, divided by p once."""
    assert s and s[0] == LP_ONE
    out = [LP_ZERO]
    for p in range(1, len(s)):
        pl = LambdaPoly.dot([(p, s[p], LP_ONE)] +
                            [(-k, out[k], s[p - k]) for k in range(1, p)])
        out.append(LambdaPoly.from_nums(list(pl.nums), pl.den * p))
    return tuple(out)


def series_exp(s: tuple) -> tuple:
    """Exponential of a series with constant term 0.

    E = exp(S) satisfies x*E' = x*S' * E, so p*e_p = sum_{0<k<=p} k*s_k*e_{p-k}
    with e_0 = 1, an integer-weighted sum divided by p once: O(N^2)
    polynomial products for order N.
    """
    if not s or s[0]:
        raise SeriesPreconditionError("series_exp requires constant term 0")
    out = [LP_ONE]
    for p in range(1, len(s)):
        pe = LambdaPoly.dot([(k, s[k], out[p - k]) for k in range(1, p + 1)])
        out.append(LambdaPoly.from_nums(list(pe.nums), pe.den * p))
    return tuple(out)


def fraction_log(x: Fraction) -> float:
    """log x for a positive rational, from its numerator and denominator
    scaled into [1/2, 1) by their bit lengths."""
    num, den = x.numerator, x.denominator
    return (num.bit_length() - den.bit_length()) * math.log(2) + math.log(
        num / (1 << num.bit_length())
    ) - math.log(den / (1 << den.bit_length()))


def derive_elimination(scheme: SchemeSpec, order: int) -> ModifiedEq:
    """Modified equation via order-by-order elimination.

    Solves exp(D) = S for D = sum_p d_p x^p.  At order p the unknown d_p
    enters [x^p] exp(D) = sum_m [x^p] D^m / m! only through the m = 1 term,
    and for m >= 2 the power column P_m[p] = [x^p] D^m needs only
    d_1..d_{p-1}:

        P_m[p] = sum_k d_k * P_{m-1}[p-k],    d_p = s_p - sum_{m>=2} P_m[p] / m!

    Filling the columns as p advances costs O(N^3) polynomial products.
    c_p is d_p divided by lambda.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    s = symbol_series(scheme, order)
    cols = [[LP_ZERO] * (order + 1) for _ in range(order + 1)]  # cols[m][p] = P_m[p]
    for p in range(1, order + 1):
        for m in range(2, p + 1):
            cols[m][p] = LambdaPoly.dot((1, cols[m - 1][p - k], cols[1][k])
                                        for k in range(1, p - m + 2))
        cols[1][p] = LambdaPoly.dot(
            [(1, s[p], LP_ONE)] +
            [(Fraction(-1, math.factorial(m)), cols[m][p], LP_ONE) for m in range(2, p + 1)])
    return ModifiedEq(scheme_name=scheme.name, q=scheme.q,
                      coeffs=tuple(d.divide_by_lambda() for d in cols[1][1:]))


# the regions report's keys after "lambda", in report order
REGION_KEYS = ("max_abs_S", "max_abs_one_minus_S", "theta_m", "in_Rs", "in_Omega_c")


def sweep_region_scan(scheme: SchemeSpec, lambda_range: tuple, orders) -> RegionReport:
    """The report of ``region_scan(scheme, lambda_range, orders)`` as the
    sweep of the theta grid gives it, each lambda on its own, each lambda
    lo + k (hi - lo) / (count - 1) formed in Fractions and rounded once: S
    from ``eval_symbol``, the maxima over the grid, theta_m the first grid
    point where |1 - S| >= 1, and each truncation verdict from ``polyval``
    of Re P_N over the whole grid, its maximum <= DEFAULT_TOL."""
    lo, hi, count = lambda_range
    return sweep_region_samples(
        scheme, [float(Fraction(lo) + k * (Fraction(hi) - Fraction(lo)) / (int(count) - 1))
                 for k in range(int(count))], orders)


def sweep_region_samples(scheme: SchemeSpec, lams, orders) -> RegionReport:
    """The grid sweep of ``sweep_region_scan`` at each float lambda of
    ``lams``, built column by column."""
    orders = tuple(sorted(set(orders)))
    modeq = derive_log(scheme, orders[-1]) if orders else None
    lams = tuple(float(lam) for lam in lams)
    columns = {key: [] for key in REGION_KEYS}
    trunc = {n: [] for n in orders}
    for lam in lams:
        s = eval_symbol(scheme, lam, THETAS)
        abs_s, abs_oms = np.abs(s), np.abs(1.0 - s)
        bad = np.nonzero(abs_oms >= 1.0)[0]
        if orders:
            re_g = np.zeros(orders[-1] + 1)
            re_g[2::2] = _signed_coeffs(modeq, lam, range(2, orders[-1] + 1, 2))
            with np.errstate(over="ignore", invalid="ignore"):
                for n in orders:
                    re_p = np.polynomial.polynomial.polyval(THETAS, re_g[: n + 1])
                    trunc[n].append(bool(np.max(re_p) <= DEFAULT_TOL))
        for key, value in (("max_abs_S", float(np.max(abs_s))),
                           ("max_abs_one_minus_S", float(np.max(abs_oms))),
                           ("theta_m", float(THETAS[bad[0]]) if bad.size else math.pi),
                           ("in_Rs", bool(np.max(abs_s) <= 1.0 + DEFAULT_TOL)),
                           ("in_Omega_c", bool(np.max(abs_oms) < 1.0 - DEFAULT_TOL))):
            columns[key].append(value)
    return RegionReport(scheme_name=scheme.name, orders=orders, samples=lams,
                        columns={key: tuple(col) for key, col in columns.items()},
                        trunc_stable={n: tuple(col) for n, col in trunc.items()})


def lambda_sample_json_dict(report: RegionReport, k: int) -> dict:
    """Sample ``k`` of the regions report, its verdicts keyed by order in
    numeric order."""
    return {
        "lambda": report.samples[k],
        **{key: report.columns[key][k] for key in REGION_KEYS},
        "trunc_stable": {str(n): report.trunc_stable[n][k] for n in sorted(report.orders)},
    }


def region_report_json_dict(report: RegionReport) -> dict:
    """The regions report as a dict: ``json.dumps(indent=2)`` of it is the
    text the ``regions`` JSON file holds, less its final newline."""
    return {
        "scheme": report.scheme_name,
        "grid": DEFAULT_GRID,
        "tolerance": DEFAULT_TOL,
        "orders": list(report.orders),
        "Rs_boundary": report.rs_boundary(),
        "Omega_c_boundary": report.omega_c_boundary(),
        "lambda_samples": [lambda_sample_json_dict(report, k)
                           for k in range(len(report.samples))],
    }


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Exact quotient and remainder of Fraction polynomials, highest power first."""
    quot = []
    while len(a) >= len(b):
        quot.append(a[0] / b[0])
        a = [x - quot[-1] * y for x, y in zip(a[1:], b[1:] + [0] * len(a))]
    while a and not a[0]:
        a = a[1:]
    return quot, a


def fraction_square_free(q: list) -> list:
    """q / gcd(q, q') for a Fraction polynomial q, highest power first, by
    Euclid's algorithm over the rationals."""
    a, b = q, [c * (len(q) - 1 - k) for k, c in enumerate(q[:-1])]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return _poly_divmod(q, a)[0]


_BERNOULLI: list[Fraction] = [Fraction(1)]
_EULER_AT_ZERO: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (convention B_1 = -1/2), from the
    recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * _BERNOULLI[k]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def euler_poly_at_zero(n: int) -> Fraction:
    """Exact value E_n(0) of the n-th Euler polynomial at zero, from the
    generating function 2/(e^t + 1): E_m(0) = -(1/2) sum_{k<m} C(m,k) E_k(0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_EULER_AT_ZERO) <= n:
        m = len(_EULER_AT_ZERO)
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m, k) * _EULER_AT_ZERO[k]
        _EULER_AT_ZERO.append(-acc / 2)
    return _EULER_AT_ZERO[n]


@dataclass(frozen=True)
class GoldenData:
    """Reference values for a scheme whose analysis is known in closed form."""

    mu_table: dict                # p -> c_p, the modified-equation coefficient
    stability_bound: Fraction     # von Neumann: lambda <= bound
    contraction_bound: Fraction   # |1 - S| < 1: lambda < bound


# Lax-Wendroff, the lambda-dependent stencil, has no closed-form reference data.
GOLDEN = {
    "heat_centered": GoldenData(
        mu_table={
            2: lp(1),
            4: lp("1/12", "-1/2"),
            6: lp("1/360", "-1/12", "1/3"),
            8: lp("1/20160", "-1/160", "1/12", "-1/4"),
        },
        stability_bound=Fraction(1, 2),
        contraction_bound=Fraction(1, 4),
    ),
    "upwind_euler": GoldenData(
        mu_table={
            1: lp(-1),
            2: lp("1/2", "-1/2"),
            3: lp("-1/6", "1/2", "-1/3"),
            4: lp("1/24", "-7/24", "1/2", "-1/4"),
        },
        stability_bound=Fraction(1),
        contraction_bound=Fraction(1, 2),
    ),
}
