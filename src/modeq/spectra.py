"""Numeric evaluation of the one-step symbol and derived quantities.

Covers: pointwise/grid evaluation of S(theta), the contraction angle
theta_m, stability and contraction region scans over the mesh ratio,
truncated amplification factors, finite-horizon stability certificates,
and figure-data tables.  The exact forms of the symbol, and every proof
about them, are ``derivation``'s; this module rounds and samples them.

Exact first, then round: the symbol coefficients a_p(lambda) of
``SchemeSpec.symbol`` and the modified-equation coefficients c_p(lambda) are
evaluated exactly at the lambda the caller gave (a float at its binary
value) and each is rounded to a float once, correctly
(``LambdaPoly.float_at``); no float lambda multiplies a rounded weight.

A region scan does its lambda-free work once: it builds the basis
e^{i p theta} on the theta grid once per scan and, per lambda, sums a_p
times that basis and rounds only the even c_p (all that Re P_N reads).
Each lambda writes S, the products a_p e^{i p theta}, 1 - S, |S|, |1 - S|
and Re P_N into six arrays made once per scan, so a sample allocates no
grid-sized array.  Its floats are those of ``eval_symbol`` and ``polyval``:
the same ufuncs in the same order, and the Horner steps are ``polyval``'s,
less the adds of +0.0 at odd powers.

A truncation verdict, Re P_N <= tol at every grid point, is what the
Horner sweep of the whole grid would give, decided in four steps
(``_truncation_stable``).  The grid lies in [0, pi] with pi its last
point, the row's even entries d (the signed c_{2k}) are finite and its odd
ones +0.0, and IEEE rounding is monotone, so each rounded * and + by a
value of one sign keeps that sign and, for x >= 0, its order in x:
  1. every d <= 0: every Horner value is <= 0, so stable;
  2. the Horner value at pi, by the same float steps on Python floats, is
     > tol: that grid value exceeds tol, so unstable;
  3. every d >= 0: the values are non-decreasing in theta, so the one at
     pi, <= tol by step 2, is the grid maximum, and stable;
  4. else the signs are mixed, and the full sweep decides.
With one sign, Horner can overflow to an infinity of that sign but never
reach NaN; a NaN at pi (from inf - inf) fails step 2 and goes to step 4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .derivation import ModifiedEq, derive_log
from .schemes import SchemeSpec

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_TOL",
    "CertificateRefusal",
    "LambdaSample",
    "RegionReport",
    "TruncationEval",
    "StabilityCertificate",
    "FigureTable",
    "require_lambda",
    "theta_grid",
    "symbol_weights",
    "eval_symbol",
    "region_scan",
    "truncated_amplification",
    "truncation_certificate",
    "figure_data",
]

# theta grid size of the float scans, figures and certificates
DEFAULT_GRID = 4096
DEFAULT_TOL = 1e-12

Number = Union[int, float, Fraction]


class CertificateRefusal(ValueError):
    """The certificate's hypothesis (lambda inside the contraction region)
    does not hold, so no bound is issued."""


def require_lambda(scheme_name: Optional[str], lam: Number, *, positive: bool) -> None:
    """The domain of the mesh ratio, decided on its exact value (a float at
    its binary value): lambda >= 0, or with ``positive`` lambda > 0 and at
    least the smallest normal double, below which float(lambda), which the
    zero search's residual and the certificate's bound read, loses its
    precision.  An error names ``scheme_name`` when it is given."""
    prefix = "" if scheme_name is None else f"scheme {scheme_name}: "
    if not positive:
        if lam < 0:
            raise ValueError(f"{prefix}lambda must be nonnegative, got {lam}")
    elif lam <= 0:
        raise ValueError(f"{prefix}lambda must be positive, got {lam}")
    elif lam < sys.float_info.min:
        raise ValueError(f"{prefix}lambda = {lam} lies below the smallest normal double "
                         f"{sys.float_info.min!r}")


def theta_grid(n: int = DEFAULT_GRID, scheme_name: Optional[str] = None) -> np.ndarray:
    """n uniform points on [0, pi]; both endpoints are exact grid members.
    An error for n < 2 names ``scheme_name`` when it is given."""
    if n < 2:
        prefix = "" if scheme_name is None else f"scheme {scheme_name}: "
        raise ValueError(f"{prefix}grid needs at least the two endpoints")
    return np.linspace(0.0, math.pi, n)


def _rounded(terms, lam: Number, scheme_name: str, label: str) -> list[float]:
    """The polynomial of each (p, poly) in ``terms`` evaluated exactly at
    ``Fraction(lam)`` (a float lambda at its binary value) and rounded once.
    A value beyond the float range raises the ValueError "scheme NAME:
    LABEL_p at lambda = LAM is beyond the float range"."""
    x = Fraction(lam)
    out = []
    try:
        for p, poly in terms:
            out.append(poly.float_at(x))
    except OverflowError as exc:
        raise ValueError(
            f"scheme {scheme_name}: {label}_{p} at lambda = {lam} is beyond the float range"
        ) from exc
    return out


def symbol_weights(scheme: SchemeSpec, lam: Number) -> list[tuple[int, float]]:
    """The symbol coefficients a_p(lambda) as floats, by offset, each rounded
    once from its exact value."""
    return list(zip([p for p, _ in scheme.symbol],
                    _rounded(scheme.symbol, lam, scheme.name, "symbol coefficient a")))


def eval_symbol(scheme: SchemeSpec, lam: Number, theta) -> complex:
    """S(theta) = sum_p a_p(lambda) e^{i p theta}.

    ``theta`` may be a real or complex scalar, or an ndarray.
    """
    require_lambda(scheme.name, lam, positive=False)
    acc = _symbol_sum(symbol_weights(scheme, lam), _symbol_basis(scheme, theta))
    if np.ndim(theta) == 0:
        return complex(acc)
    return acc


def _symbol_basis(scheme: SchemeSpec, theta) -> list:
    """e^{i p theta} for each offset p of ``scheme.symbol``, None at p = 0."""
    th = np.asarray(theta, dtype=complex)
    return [None if p == 0 else np.exp(1j * p * th) for p, _ in scheme.symbol]


def _symbol_sum(weights: list, basis: list, out: Optional[tuple] = None):
    """sum_p a_p basis_p in offset order, from 0 (so a -0.0 sum reads +0.0);
    a_0 is added as is.  ``out = (acc, term)``, two complex arrays of the
    basis's shape, makes the sum in acc and each product in term."""
    acc, term = (0, None) if out is None else out
    if out is not None:
        acc.fill(0)
    for (_, a), e in zip(weights, basis):
        if e is not None:
            a = a * e if term is None else np.multiply(a, e, out=term)
        acc += a  # in place once acc is an array
    return acc


def _theta_m_from_values(thetas: np.ndarray, one_minus_s: np.ndarray) -> float:
    """Largest theta* <= pi such that |1 - S| < 1 at every grid point below
    theta*; pi when the contraction inequality holds on all of [0, pi]."""
    bad = np.nonzero(one_minus_s >= 1.0)[0]
    if bad.size == 0:
        return math.pi
    return float(thetas[bad[0]])


def _even_horner(x, c: list, out: Optional[np.ndarray] = None):
    """sum_k c[k] x^k, c of length >= 2 with +0.0 at odd k, by ``polyval``'s
    float steps less its ``+= 0.0`` at odd k: those change only a -0.0, and
    the kept ``+= c[0]`` gives the same zero anyway.  ``x`` is a float, or
    an array whose values are written into ``out``."""
    v = x * c[-1] if out is None else np.multiply(x, c[-1], out=out)  # x*0 + c[-1], *x
    for k in range(len(c) - 2, -1, -1):
        if k % 2 == 0:
            v += c[k]  # in place on an array
        if k:
            v *= x
    return v


def _truncation_stable(thetas: np.ndarray, c: list, out: np.ndarray) -> bool:
    """Whether sum_k c[k] theta^k <= DEFAULT_TOL at every point of
    ``thetas``, a ``theta_grid``, as the sweep ``_even_horner(thetas, c,
    out)`` would say, by the four steps of the module docstring.  ``c``
    holds finite floats, +0.0 at odd k; a sweep writes its values into ``out``."""
    evens = c[::2]
    if all(d <= 0 for d in evens):
        return True
    if _even_horner(thetas[-1].item(), c) > DEFAULT_TOL:
        return False
    if all(d >= 0 for d in evens):
        return True
    return bool(_even_horner(thetas, c, out).max() <= DEFAULT_TOL)


def _signed_coeffs(modeq: ModifiedEq, lam: Number, ps) -> list[float]:
    """c_p(lambda) with the sign of i^p, for each p in ``ps``: each c_p is
    rounded once from its exact value, since its large coefficients of both
    signs cancel to noise in a float sum."""
    coeffs = modeq.at(lam)
    cs = _rounded([(p, coeffs[p - 1]) for p in ps], lam, modeq.scheme_name, "c")
    # the sign of i^p; a zero stays +0.0
    return [0.0 - c if p & 2 else c for p, c in zip(ps, cs)]


def _theta_coeffs(modeq: ModifiedEq, lam: Number, order: int) -> np.ndarray:
    """The theta^p coefficients i^p c_p(lambda) of G at dx = 1, p = 0..order."""
    if order > modeq.order:
        raise ValueError(f"truncation order {order} exceeds stored order {modeq.order}")
    g = _signed_coeffs(modeq, lam, range(1, order + 1))
    out = np.zeros(order + 1, dtype=complex)
    out.real[2::2], out.imag[1::2] = g[1::2], g[::2]
    return out


@dataclass(frozen=True)
class LambdaSample:
    """Classification of one mesh-ratio sample."""

    lam: float
    max_abs_s: float
    max_abs_one_minus_s: float
    theta_m: float
    in_rs: bool
    in_omega_c: bool
    trunc_stable: dict

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "max_abs_S": self.max_abs_s,
            "max_abs_one_minus_S": self.max_abs_one_minus_s,
            "theta_m": self.theta_m,
            "in_Rs": self.in_rs,
            "in_Omega_c": self.in_omega_c,
            "trunc_stable": {str(n): v for n, v in sorted(self.trunc_stable.items())},
        }


@dataclass(frozen=True)
class RegionReport:
    """Per-lambda stability/contraction classification over a lambda range."""

    scheme_name: str
    grid: int
    orders: tuple
    samples: tuple

    def rs_boundary(self) -> Optional[float]:
        """Largest sampled lambda still von Neumann stable."""
        stable = [s.lam for s in self.samples if s.in_rs]
        return max(stable) if stable else None

    def omega_c_boundary(self) -> Optional[float]:
        """Largest sampled lambda still inside the contraction region."""
        inside = [s.lam for s in self.samples if s.in_omega_c]
        return max(inside) if inside else None

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme_name,
            "grid": self.grid,
            "tolerance": DEFAULT_TOL,
            "orders": list(self.orders),
            "Rs_boundary": self.rs_boundary(),
            "Omega_c_boundary": self.omega_c_boundary(),
            "lambda_samples": [s.to_json_dict() for s in self.samples],
        }


def region_scan(
    scheme: SchemeSpec,
    lambda_range: tuple,
    grid: int = DEFAULT_GRID,
    orders: Sequence[int] = (),
) -> RegionReport:
    """Classify each lambda in ``lambda_range = (lo, hi, count)``.

    With tol = DEFAULT_TOL, a sample is von Neumann stable when
    max |S| <= 1 + tol over the theta grid, and inside the contraction region
    when max |1 - S| < 1 - tol.  For each requested truncation order N, the
    truncation is marked stable when Re P_N(theta) <= tol on the whole grid,
    decided from the signs of its coefficients and its value at pi where
    they suffice (see the module docstring).  theta_m is the grid point
    where |1 - S| first reaches 1, or pi.
    """
    lo, hi, count = lambda_range
    if not (0 <= lo < hi):
        raise ValueError(f"scheme {scheme.name}: need 0 <= lo < hi, got ({lo}, {hi})")
    if count < 2:
        raise ValueError(f"scheme {scheme.name}: need at least two lambda samples")
    if grid < 64:
        raise ValueError(f"scheme {scheme.name}: theta grid must have at least 64 points")
    orders = tuple(sorted(set(int(n) for n in orders)))
    if orders:
        modeq = derive_log(scheme, max(orders))

    thetas = theta_grid(grid)
    basis = _symbol_basis(scheme, thetas)
    s, term, oms = (np.empty(grid, dtype=complex) for _ in range(3))
    abs_s, abs_oms, re_p = (np.empty(grid) for _ in range(3))
    lams = np.linspace(float(lo), float(hi), int(count))
    samples = []
    for lam in lams:
        _symbol_sum(symbol_weights(scheme, float(lam)), basis, out=(s, term))
        np.abs(s, out=abs_s)
        np.abs(np.subtract(1.0, s, out=oms), out=abs_oms)
        trunc = {}
        if orders:
            re_g = [0.0] * (orders[-1] + 1)
            re_g[2::2] = _signed_coeffs(modeq, lam, range(2, orders[-1] + 1, 2))
            for n in orders:
                trunc[n] = _truncation_stable(thetas, re_g[: n + 1], re_p)
        max_abs_s = float(abs_s.max())
        max_abs_oms = float(abs_oms.max())
        samples.append(
            LambdaSample(
                lam=float(lam),
                max_abs_s=max_abs_s,
                max_abs_one_minus_s=max_abs_oms,
                # below 1 everywhere (a NaN maximum is not): no grid point to find
                theta_m=math.pi if max_abs_oms < 1.0 else _theta_m_from_values(thetas, abs_oms),
                in_rs=max_abs_s <= 1.0 + DEFAULT_TOL,
                in_omega_c=max_abs_oms < 1.0 - DEFAULT_TOL,
                trunc_stable=trunc,
            )
        )
    return RegionReport(
        scheme_name=scheme.name,
        grid=grid,
        orders=orders,
        samples=tuple(samples),
    )


@dataclass(frozen=True)
class TruncationEval:
    """P_N and the truncated amplification S_N = exp(dt P_N) at one theta."""

    p_value: complex
    s_value: complex


def _truncation(th: np.ndarray, coeffs: np.ndarray, lam_f: float) -> tuple:
    """P_N = polyval(theta, coeffs) and S_N = exp(lambda P_N)."""
    p_val = np.polynomial.polynomial.polyval(th, coeffs)
    with np.errstate(over="ignore"):  # a growing truncation's |S_N| is inf
        return p_val, np.exp(lam_f * p_val)


def truncated_amplification(
    modeq: ModifiedEq,
    lam: Number,
    theta,
    order: int,
) -> TruncationEval:
    """Evaluate the degree-``order`` truncation P_N of the generator at dx = 1
    and its one-step amplification S_N = exp(lambda P_N).

    ``theta`` may be scalar (complex allowed) or an ndarray, in which case
    the fields hold arrays.
    """
    th = np.asarray(theta, dtype=complex)
    p_val, s_val = _truncation(th, _theta_coeffs(modeq, lam, order), float(lam))
    if np.ndim(theta) == 0:
        return TruncationEval(p_value=complex(p_val), s_value=complex(s_val))
    return TruncationEval(p_value=p_val, s_value=s_val)


@dataclass(frozen=True)
class StabilityCertificate:
    """Finite-horizon L2 bound for band-limited data under the truncation.

    The growth constant C comes from the grid maximum of |S_N|; the tail
    constant A is a grid estimate of sup |G - P_N| / theta^(N+1) using a
    high-order partial sum as reference, so the certificate is a numerical
    diagnostic, not a rigorous proof.
    """

    order: int
    lam: float
    growth_c: float
    tail_a: float
    support_m: float
    horizon_t: float
    bound: float

    def to_json_dict(self) -> dict:
        return {
            "N": self.order,
            "lambda": self.lam,
            "C": self.growth_c,
            "A": self.tail_a,
            "M": self.support_m,
            "T": self.horizon_t,
            "bound": self.bound,
        }


def truncation_certificate(
    scheme: SchemeSpec,
    modeq: ModifiedEq,
    lam: Number,
    orders: Sequence[int],
    support_m: float,
    horizon_t: float,
    grid: int = DEFAULT_GRID,
) -> list[StabilityCertificate]:
    """Assemble the e^{CT} e^{A T M^{N+1}/lambda} bound at dx = 1, one
    certificate per truncation order N in ``orders``.

    The partial sum of ``modeq`` at its full order is the reference for the
    tail constant A, so ``modeq.order`` must exceed every order.  Refuses when
    lambda is outside the contraction region (max |1-S| >= 1 - DEFAULT_TOL
    on the grid), which is the hypothesis the bound rests on.  S and the
    reference's coefficients are computed once, and each P_N sums a prefix of
    them.  S and the c_p are evaluated at ``lam`` as given; its float value
    enters only the formulas for C and the bound.
    """
    require_lambda(scheme.name, lam, positive=True)
    lam_f = float(lam)
    if modeq.order <= max(orders, default=0):
        raise ValueError(f"scheme {scheme.name}: reference order {modeq.order} must exceed "
                         f"the truncation order {max(orders)}")

    thetas = theta_grid(grid, scheme.name)
    s = eval_symbol(scheme, lam, thetas)
    if float(np.max(np.abs(1.0 - s))) >= 1.0 - DEFAULT_TOL:
        raise CertificateRefusal(
            f"scheme {scheme.name}: lambda = {lam_f} lies outside the contraction region; "
            f"the truncation bound does not apply"
        )

    th = np.asarray(thetas, dtype=complex)
    coeffs = _theta_coeffs(modeq, lam, modeq.order)
    positive = thetas > 0
    p_ref = np.polynomial.polynomial.polyval(th, coeffs)[positive]
    certificates = []
    for order in orders:
        p_n, s_n = _truncation(th, coeffs[: order + 1], lam_f)
        growth_c = max(0.0, (float(np.max(np.abs(s_n))) - 1.0) / lam_f)
        tail_a = float(
            np.max(np.abs(p_ref - p_n[positive]) / thetas[positive] ** (order + 1))
        )
        bound = math.exp(growth_c * horizon_t) * math.exp(
            tail_a * horizon_t * support_m ** (order + 1) / lam_f
        )
        certificates.append(StabilityCertificate(
            order, lam_f, growth_c, tail_a, float(support_m), float(horizon_t), bound))
    return certificates


@dataclass(frozen=True)
class FigureTable:
    """|S| and |S_N| sampled on [0, pi] for one mesh-ratio value.
    ``csv_columns`` maps each CSV header to its column, as a list of floats."""

    lam: float
    thetas: np.ndarray
    abs_s: np.ndarray
    abs_s_trunc: dict  # order -> ndarray

    def csv_columns(self) -> dict[str, list]:
        columns = {"theta": self.thetas, "abs_S": self.abs_s}
        columns.update((f"abs_S_N{n}", self.abs_s_trunc[n]) for n in sorted(self.abs_s_trunc))
        return {name: col.tolist() for name, col in columns.items()}


def figure_data(
    scheme: SchemeSpec,
    modeq: ModifiedEq,
    lambdas: Sequence[Number],
    orders: Sequence[int],
    grid: int = DEFAULT_GRID,
) -> list[FigureTable]:
    """Amplification-factor curves |S| and |S_N| per requested lambda, with
    S_N truncated from ``modeq``.  Each lambda rounds the c_p of the highest
    order once, and each P_N sums a prefix of them."""
    orders = tuple(sorted(set(int(n) for n in orders)))
    if not lambdas:
        return []
    thetas = theta_grid(grid, scheme.name)
    th = thetas.astype(complex)
    tables = []
    for lam in lambdas:
        abs_s = np.abs(eval_symbol(scheme, lam, thetas))
        coeffs = _theta_coeffs(modeq, lam, orders[-1]) if orders else None
        trunc = {n: np.abs(_truncation(th, coeffs[: n + 1], float(lam))[1])
                 for n in orders}
        tables.append(
            FigureTable(
                lam=float(lam),
                thetas=thetas,
                abs_s=abs_s,
                abs_s_trunc=trunc,
            )
        )
    return tables
