"""Numeric evaluation of the one-step symbol and derived quantities.

Covers: pointwise/grid evaluation of S(theta), the contraction angle
theta_m, stability and contraction region scans over the mesh ratio,
truncated amplification factors, finite-horizon stability certificates,
the upwind mirror-symmetry check, and figure-data tables.

Exact first, then round: stencil weights B_p(lambda) and modified-equation
coefficients c_p(lambda) are evaluated exactly at the rational value of
lambda (a float at its binary value) and each is rounded to a float once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .derivation import ModifiedEq, derive_log
from .schemes import SchemeSpec, catalog_scheme

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_TOL",
    "CertificateRefusal",
    "LambdaSample",
    "RegionReport",
    "TruncationEval",
    "StabilityCertificate",
    "SymmetryReport",
    "FigureTable",
    "theta_grid",
    "stencil_weights",
    "eval_symbol",
    "compute_theta_m",
    "region_scan",
    "truncated_amplification",
    "truncation_certificate",
    "upwind_symmetry_check",
    "figure_data",
]

DEFAULT_GRID = 4096
DEFAULT_TOL = 1e-12

Number = Union[int, float, Fraction]


class CertificateRefusal(ValueError):
    """The certificate's hypothesis (lambda inside the contraction region)
    does not hold, so no bound is issued."""


def theta_grid(n: int = DEFAULT_GRID) -> np.ndarray:
    """n uniform points on [0, pi]; both endpoints are exact grid members."""
    if n < 2:
        raise ValueError("grid needs at least the two endpoints")
    return np.linspace(0.0, math.pi, n)


def stencil_weights(scheme: SchemeSpec, lam: Number) -> list[tuple[int, complex]]:
    """Stencil weights B_p(lambda) as machine complex numbers.

    Each weight is evaluated exactly at ``Fraction(lam)`` (a float lambda at
    its binary value) and rounded once.
    """
    x = Fraction(lam)
    out = []
    for p, w in scheme.stencil:
        try:
            out.append((p, complex(w(x))))
        except OverflowError as exc:
            raise ValueError(
                f"scheme {scheme.name}: weight B[{p}] at lambda = {lam} "
                f"is beyond the float range"
            ) from exc
    return out


def eval_symbol(scheme: SchemeSpec, lam: Number, theta) -> complex:
    """S(theta) = 1 + lambda * sum_p B_p(lambda) e^{i p theta}.

    ``theta`` may be a real or complex scalar, or an ndarray.
    """
    lam_f = float(lam)
    if lam_f < 0:
        raise ValueError("mesh ratio must be nonnegative")
    acc = 0
    for p, w in stencil_weights(scheme, lam):
        acc = acc + w * np.exp(1j * p * np.asarray(theta, dtype=complex))
    result = 1.0 + lam_f * acc
    if np.ndim(theta) == 0:
        return complex(result)
    return result


def _theta_m_from_values(thetas: np.ndarray, one_minus_s: np.ndarray) -> float:
    bad = np.nonzero(one_minus_s >= 1.0)[0]
    if bad.size == 0:
        return math.pi
    return float(thetas[bad[0]])


def compute_theta_m(scheme: SchemeSpec, lam: Number, grid: int = DEFAULT_GRID) -> float:
    """Largest theta* <= pi such that |1 - S| < 1 at every grid point below
    theta*; returns pi when the contraction inequality holds on all of [0, pi]."""
    if grid < 64:
        raise ValueError("theta grid must have at least 64 points")
    thetas = theta_grid(grid)
    s = eval_symbol(scheme, lam, thetas)
    return _theta_m_from_values(thetas, np.abs(1.0 - s))


def _theta_coeffs(modeq: ModifiedEq, lam: Number, order: int) -> np.ndarray:
    """The theta^p coefficients i^p c_p(lambda) of G at dx = 1, p = 0..order,
    each c_p evaluated exactly at ``Fraction(lam)`` and rounded once: its
    large coefficients of both signs cancel to noise in a float sum."""
    x = Fraction(lam)
    out = np.zeros(order + 1, dtype=complex)
    for p in range(1, order + 1):
        try:
            c = float(modeq.coeff(p)(x))
        except OverflowError as exc:
            raise ValueError(
                f"scheme {modeq.scheme_name}: c_{p} at lambda = {lam} "
                f"is beyond the float range"
            ) from exc
        if p & 2:
            c = 0.0 - c  # the sign of i^p; a zero stays +0.0
        out[p] = complex(c, 0.0) if p % 2 == 0 else complex(0.0, c)
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
    truncation is marked stable when Re P_N(theta) <= tol on the whole grid.
    """
    lo, hi, count = lambda_range
    if not (0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    if count < 2:
        raise ValueError("need at least two lambda samples")
    orders = tuple(sorted(set(int(n) for n in orders)))
    if orders:
        modeq = derive_log(scheme, max(orders))

    thetas = theta_grid(grid)
    lams = np.linspace(float(lo), float(hi), int(count))
    samples = []
    for lam in lams:
        s = eval_symbol(scheme, float(lam), thetas)
        abs_s = np.abs(s)
        abs_oms = np.abs(1.0 - s)
        trunc = {}
        if orders:
            re_g = _theta_coeffs(modeq, lam, orders[-1]).real
            for n in orders:
                re_p = np.polynomial.polynomial.polyval(thetas, re_g[: n + 1])
                trunc[n] = bool(np.max(re_p) <= DEFAULT_TOL)
        samples.append(
            LambdaSample(
                lam=float(lam),
                max_abs_s=float(np.max(abs_s)),
                max_abs_one_minus_s=float(np.max(abs_oms)),
                theta_m=_theta_m_from_values(thetas, abs_oms),
                in_rs=bool(np.max(abs_s) <= 1.0 + DEFAULT_TOL),
                in_omega_c=bool(np.max(abs_oms) < 1.0 - DEFAULT_TOL),
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

    order: int
    p_value: complex
    s_value: complex

    @property
    def abs_s(self) -> float:
        return abs(self.s_value)


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
    if order > modeq.order:
        raise ValueError(
            f"truncation order {order} exceeds stored order {modeq.order}"
        )
    lam_f = float(lam)
    th = np.asarray(theta, dtype=complex)
    p_val = np.polynomial.polynomial.polyval(th, _theta_coeffs(modeq, lam, order))
    with np.errstate(over="ignore"):  # a growing truncation's |S_N| is inf
        s_val = np.exp(lam_f * p_val)
    if np.ndim(theta) == 0:
        return TruncationEval(order=order, p_value=complex(p_val), s_value=complex(s_val))
    return TruncationEval(order=order, p_value=p_val, s_value=s_val)


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
    order: int,
    support_m: float,
    horizon_t: float,
    grid: int = DEFAULT_GRID,
) -> StabilityCertificate:
    """Assemble the e^{CT} e^{A T M^{N+1}/lambda} bound at dx = 1.

    The partial sum of ``modeq`` at its full order is the reference for the
    tail constant A, so ``modeq.order`` must exceed ``order``.  Refuses when
    lambda is outside the contraction region (max |1-S| >= 1 - DEFAULT_TOL
    on the grid), which is the hypothesis the bound rests on.
    """
    lam_f = float(lam)
    if lam_f <= 0:
        raise ValueError("lambda must be positive")
    if modeq.order <= order:
        raise ValueError(
            f"reference order {modeq.order} must exceed the truncation order {order}"
        )

    thetas = theta_grid(grid)
    s = eval_symbol(scheme, lam, thetas)
    if float(np.max(np.abs(1.0 - s))) >= 1.0 - DEFAULT_TOL:
        raise CertificateRefusal(
            f"lambda = {lam_f} lies outside the contraction region; "
            f"the truncation bound does not apply"
        )

    trunc = truncated_amplification(modeq, lam_f, thetas, order)
    growth_c = max(0.0, (float(np.max(np.abs(trunc.s_value))) - 1.0) / lam_f)

    p_n = trunc.p_value
    p_ref = truncated_amplification(modeq, lam_f, thetas, modeq.order).p_value
    positive = thetas > 0
    tail_a = float(
        np.max(np.abs(p_ref[positive] - p_n[positive]) / thetas[positive] ** (order + 1))
    )

    bound = math.exp(growth_c * horizon_t) * math.exp(
        tail_a * horizon_t * support_m ** (order + 1) / lam_f
    )
    return StabilityCertificate(
        order=order,
        lam=lam_f,
        growth_c=growth_c,
        tail_a=tail_a,
        support_m=float(support_m),
        horizon_t=float(horizon_t),
        bound=bound,
    )


@dataclass(frozen=True)
class SymmetryReport:
    """Mirror symmetry of the upwind scheme about lambda = 1/2."""

    lam: Fraction
    lam_low: Fraction
    lam_high: Fraction
    grid: int
    max_modulus_diff: float
    worst_theta: float
    modulus_ok: bool
    orders: tuple
    coefficient_ok: bool
    first_violation: Optional[int]

    @property
    def ok(self) -> bool:
        return self.modulus_ok and self.coefficient_ok

    def to_json_dict(self) -> dict:
        return {
            "lambda": str(self.lam),
            "lambda_low": str(self.lam_low),
            "lambda_high": str(self.lam_high),
            "grid": self.grid,
            "max_modulus_diff": self.max_modulus_diff,
            "worst_theta": self.worst_theta,
            "modulus_ok": self.modulus_ok,
            "orders": list(self.orders),
            "coefficient_ok": self.coefficient_ok,
            "first_violation": self.first_violation,
            "ok": self.ok,
        }


def upwind_symmetry_check(
    lam: Union[Fraction, int],
    modeq: ModifiedEq,
    grid: int = DEFAULT_GRID,
) -> SymmetryReport:
    """Check |S(theta, 1/2-lambda)| = |S(theta, 1/2+lambda)| to within
    DEFAULT_TOL on a grid and, exactly, the even-order coefficient identity

        (1/2-lambda) c_{2p}(1/2-lambda) = (1/2+lambda) c_{2p}(1/2+lambda)

    for the upwind scheme's modified-equation coefficients ``modeq``, for
    2p <= modeq.order.  The generator's theta^{2p} coefficient is
    (-1)^p c_{2p}, a sign common to both sides.
    """
    lam = Fraction(lam)
    if not 0 <= lam <= Fraction(1, 2):
        raise ValueError(f"lambda must lie in [0, 1/2], got {lam}")
    scheme = catalog_scheme("upwind_euler")
    lam_low = Fraction(1, 2) - lam
    lam_high = Fraction(1, 2) + lam

    thetas = theta_grid(grid)
    s_low = np.abs(eval_symbol(scheme, lam_low, thetas))
    s_high = np.abs(eval_symbol(scheme, lam_high, thetas))
    diffs = np.abs(s_low - s_high)
    max_diff = float(np.max(diffs))
    worst_theta = float(thetas[int(np.argmax(diffs))])

    orders = tuple(range(2, modeq.order + 1, 2))
    first_violation: Optional[int] = None
    for p in orders:
        lhs = lam_low * modeq.coeff(p)(lam_low)
        rhs = lam_high * modeq.coeff(p)(lam_high)
        if lhs != rhs:
            first_violation = p
            break

    return SymmetryReport(
        lam=lam,
        lam_low=lam_low,
        lam_high=lam_high,
        grid=grid,
        max_modulus_diff=max_diff,
        worst_theta=worst_theta,
        modulus_ok=max_diff <= DEFAULT_TOL,
        orders=orders,
        coefficient_ok=first_violation is None,
        first_violation=first_violation,
    )


@dataclass(frozen=True)
class FigureTable:
    """|S| and |S_N| sampled on [0, pi] for one mesh-ratio value."""

    scheme_name: str
    lam: float
    thetas: np.ndarray
    abs_s: np.ndarray
    abs_s_trunc: dict  # order -> ndarray

    def csv_header(self) -> list[str]:
        return ["theta", "abs_S"] + [f"abs_S_N{n}" for n in sorted(self.abs_s_trunc)]

    def csv_rows(self):
        columns = [self.thetas, self.abs_s] + [
            self.abs_s_trunc[n] for n in sorted(self.abs_s_trunc)
        ]
        for values in zip(*columns):
            yield list(values)


def figure_data(
    scheme: SchemeSpec,
    modeq: ModifiedEq,
    lambdas: Sequence[Number],
    orders: Sequence[int],
    grid: int = DEFAULT_GRID,
) -> list[FigureTable]:
    """Amplification-factor curves |S| and |S_N| per requested lambda, with
    S_N truncated from ``modeq``."""
    orders = tuple(sorted(set(int(n) for n in orders)))
    if not lambdas:
        return []
    thetas = theta_grid(grid)
    tables = []
    for lam in lambdas:
        abs_s = np.abs(eval_symbol(scheme, lam, thetas))
        trunc = {}
        for n in orders:
            trunc[n] = np.abs(
                truncated_amplification(modeq, lam, thetas, n).s_value
            )
        tables.append(
            FigureTable(
                scheme_name=scheme.name,
                lam=float(lam),
                thetas=thetas,
                abs_s=abs_s,
                abs_s_trunc=trunc,
            )
        )
    return tables
