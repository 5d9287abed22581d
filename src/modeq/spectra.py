"""Numeric evaluation of the one-step symbol and derived quantities.

Covers: pointwise/grid evaluation of S(theta), the contraction angle
theta_m, stability and contraction region scans over the mesh ratio,
finite-horizon stability certificates, and figure-data tables.  Every
scan, figure and certificate samples theta on one read-only grid,
``THETAS``: DEFAULT_GRID uniform points on [0, pi], both endpoints exact.
The exact forms of the symbol, and every proof about them, are
``derivation``'s; this module rounds and samples them.

Exact first, then round: the symbol coefficients a_p(lambda) of
``SchemeSpec.symbol`` and the modified-equation coefficients c_p(lambda) are
evaluated exactly at the lambda the caller gave (a float at its binary
value) and each is rounded to a float once, correctly, by one kernel
(``derivation.float_rows``): for each lambda in order it takes lambda's
integer ratio once and gives every polynomial's value.  No float lambda
multiplies a rounded weight.

A region scan does its lambda-free work once: it builds the basis
e^{i p theta} on the theta grid once per scan, and rounds in one kernel
pass per scan the a_p and only the even c_p (all that Re P_N reads), each
from the float lambda's own integer ratio.  Its max |S|, max |1 - S| and
theta_m are the sweep's of the whole grid, whose floats are
``eval_symbol``'s, but read from fewer points.  For each block of _BLOCK
lambdas it evaluates |S| and |1 - S| at every 16th grid index and the
last, the ends of 256 pieces of at most 17 points, and then at every point
of the pieces that a bound cannot rule out.  A value it evaluates is the
sweep's at that index, bit for bit: the same basis entry, products and
adds in offset order (from an array of zeros, which changes only the sign
of a zero), then 1 - S and numpy's modulus, whose result does not depend
on the array's shape.  A piece is ruled out when no grid value on it can
exceed its cap, the largest value at the ends, nor, for |1 - S| on a
piece that starts before theta_m's end (the first end where
|1 - S| >= 1, else pi), reach 1; so skipping it changes no maximum and
no theta_m.  With u = 2^-53 and A = sum_p |a_p|:
  1. f = |S|^2 = sum_{p,q} a_p a_q cos((p - q) theta), so |f''| <= F_2 =
     sum_{p,q} (p - q)^2 |a_p| |a_q|; on a piece [x_a, x_b] of width h
     f lies below its chord plus F_2 h^2 / 8, so below max(f(x_a), f(x_b))
     + F_2 h^2 / 8.  |1 - S|^2 likewise, with the weights 1 - a_0 and -a_p.
  2. A computed value is within 2^-45 (1 + A) of the exact modulus at its
     float grid point: the basis entry is within 104 u (p theta rounded
     once, |p| <= 32; cos and sin within 2 ulps), the at most 65 products
     and adds add 131 u A, and 1 - S and the modulus 5 u (1 + A).
  3. With E = 2^-40 (1 + A), the piece's float bound B = (max(v_a, v_b) +
     E)^2 + F_2 h^2 / 8, from the values v at its ends, is a sum of
     nonnegative numbers rounded at most 65^2 + 5 times on any path, so it
     is at least the exact one times 1 - 2^-40.9; B < (cap - E)^2 then puts
     every grid value on the piece below the cap, as E covers step 2's
     error and that rounding with room.  A cap below E rules out nothing:
     rounding is monotone, so (cap - E)^2 <= E^2 <= B.
  4. An inf or NaN end value, E or F_2 makes B inf or NaN, and a NaN cap
     fails the test, so none rules anything out; a finite B needs
     A < 2^552, far below any overflow of S, so a lambda whose S overflows
     anywhere on the grid is swept at every point.

A truncation verdict, Re P_N <= tol at every grid point, is what the
Horner sweep of the whole grid would give, decided for all the lambdas of
a scan at once, each from its own row (``_truncation_verdicts``), by one
kernel (``_horner_upper``): the Horner steps as numpy float64 steps on
each coefficient's column, over intervals [x_a, x_b] of grid points.  On
a degenerate interval [x, x] both corners of each product are v * x, the
sweep's own step, so its result is the sweep's value at x, bit for bit.
The grid lies in [0, pi] with pi its last point, each row's even entries
d (the signed c_{2k}) are finite and its odd ones +0.0, and IEEE rounding
is monotone, so:
  1. the value at one of the 18 grid points, index 1 and the indices
     k * last // 16 (pi among them), is > tol: unstable;
  2. else the upper ends on the 17 pieces between those points are all
     <= tol: stable.  For x >= 0 a rounded v * x is non-decreasing in v and
     monotone in x, so over v <= hi its upper end is hi * x_b if hi >= 0,
     else hi * x_a; a rounded v + d is non-decreasing in v;
  3. else the kernel evaluates the row at every grid point of the pieces
     whose upper end exceeds tol.
Step 2 decides every row whose d share a sign.  With every d <= 0 each
upper end is <= 0.  With every d >= 0 no corner is negative, so the last
piece's steps are those of the value at pi, bit for bit (<= tol once step
1 has passed), and no other piece's upper end exceeds it.
No step meets NaN: the d are finite, so an infinity plus d stays that
infinity, and a negative upper end on the piece from 0 is clamped to
hi * 0, a zero, so it never meets -inf * 0.  So an overflow needs no
guard: -inf is a value or a bound like any other, and +inf fails the test
of its step.
"""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .derivation import ModifiedEq, derive_log, float_rows
from .schemes import SchemeSpec

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_TOL",
    "THETAS",
    "CertificateRefusal",
    "LambdaSample",
    "RegionReport",
    "StabilityCertificate",
    "FigureTable",
    "require_lambda",
    "symbol_weights",
    "eval_symbol",
    "region_scan",
    "truncation_certificate",
    "figure_data",
]

# the theta grid of the float scans, figures and certificates
DEFAULT_GRID = 4096
THETAS = np.linspace(0.0, math.pi, DEFAULT_GRID)
THETAS.flags.writeable = False
DEFAULT_TOL = 1e-12
# a region scan's pieces end at every _STEP-th grid index and the last; it
# bounds and sweeps its lambdas _BLOCK at a time
_STEP = 16
_BLOCK = 32

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
            raise ValueError(f"{prefix}lambda must be nonnegative, got {_lambda_text(lam)}")
    elif lam <= 0:
        raise ValueError(f"{prefix}lambda must be positive, got {_lambda_text(lam)}")
    elif lam < sys.float_info.min:
        raise ValueError(f"{prefix}lambda = {_lambda_text(lam)} lies below the smallest "
                         f"normal double {sys.float_info.min!r}")


def _rounded(groups, lams: Sequence[Number], scheme_name: str):
    """For each lambda of ``lams`` in order, the list of the polynomials of
    every (label, terms) in ``groups``, terms (p, poly) pairs, evaluated
    exactly at lambda (a float at its binary value) and rounded once, by one
    pass of the rounding kernel; a generator, so a row is made when it is
    read.  The first value beyond the float range, in row order, raises the
    ValueError "scheme NAME: LABEL_p at lambda = LAM is beyond the float
    range"; an infinite lambda, which has no exact value, raises the
    OverflowError of ``Fraction(lam)``."""
    terms = [(label, p, poly) for label, group in groups for p, poly in group]
    rows = float_rows([poly for _, _, poly in terms], lams)
    for lam in lams:
        try:
            yield next(rows)
        except OverflowError as exc:
            if lam in (math.inf, -math.inf):
                raise
            # the kernel's error does not say which value it was: round each
            # value of this lambda alone up to the first that overflows
            for label, p, poly in terms:
                try:
                    next(float_rows((poly,), (lam,)))
                except OverflowError:
                    raise ValueError(f"scheme {scheme_name}: {label}_{p} at lambda = "
                                     f"{_lambda_text(lam)} is beyond the float range") from exc
            raise


def _lambda_text(lam: Number) -> str:
    """``str(lam)``, or for an int or Fraction of more than about 40 digits
    its value to 17 significant digits, as ``1e+308``."""
    if isinstance(lam, (int, Fraction)):
        q = Fraction(lam)
        if q.numerator.bit_length() + q.denominator.bit_length() > 133:
            return format(decimal.Context(prec=17).divide(q.numerator, q.denominator)
                          .normalize(), "e")
    return str(lam)


def symbol_weights(scheme: SchemeSpec, lam: Number) -> list[tuple[int, float]]:
    """The symbol coefficients a_p(lambda) as floats, by offset, each rounded
    once from its exact value."""
    [weights] = _rounded([("symbol coefficient a", scheme.symbol)], [lam],
                         scheme.name)
    return list(zip([p for p, _ in scheme.symbol], weights))


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


def _symbol_sum(weights, basis, acc=0):
    """sum_p a_p basis_p in offset order, from ``acc``, 0 or an array of zeros
    (so a -0.0 sum reads +0.0); a_0 is added as is."""
    with np.errstate(over="ignore", invalid="ignore"):  # a huge lambda's S is inf or nan
        for (_, a), e in zip(weights, basis):
            acc += a if e is None else a * e  # in place once acc is an array
    return acc


def _moduli(a: np.ndarray, basis, shape: tuple) -> np.ndarray:
    """|S| and |1 - S|, stacked, for each row of weights ``a`` (rows, terms)
    on ``basis`` entries of ``shape`` (rows, points): _symbol_sum's floats
    from an array of zeros, then 1 - S and numpy's modulus."""
    s = _symbol_sum(enumerate(a.T[..., None]), basis, np.zeros(shape, dtype=complex))
    v = np.empty((2,) + shape)
    np.abs(s, out=v[0])
    np.abs(np.subtract(1.0, s, out=s), out=v[1])
    return v


def _horner_upper(x_a: np.ndarray, x_b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each interval [x_a[j], x_b[j]] in [0, pi] and each row c of
    ``rows`` (count, n + 1), n >= 1, +0.0 at odd k: the upper end of
    sum_k c[k] x^k over the interval by ``polyval``'s float steps, less its
    adds of +0.0 at odd k (those change only a -0.0, and the kept add of
    c[0] gives the same zero anyway), as a (len(x_a), count) array.  Each
    product takes its larger corner, hi * x_b for hi >= 0, else hi * x_a,
    so at [x, x] the result is polyval's value at x, bit for bit."""
    x_a, x_b = x_a[:, None], x_b[:, None]
    c = rows.T
    hi = np.repeat(c[-1][None], len(x_a), axis=0)
    for k in range(len(c) - 2, -1, -1):
        hi = np.fmax(hi * x_a, hi * x_b)  # fmax drops the NaN of an unused corner inf * 0
        if k % 2 == 0:
            hi += c[k]
    return hi


def _truncation_verdicts(thetas: np.ndarray, rows: np.ndarray) -> list:
    """Whether sum_k c[k] theta^k <= DEFAULT_TOL at every point of
    ``thetas``, a grid on [0, pi] whose last point is pi (``THETAS`` in a
    scan), for each row c of ``rows`` (finite, +0.0 at odd k), as the sweep
    of the whole grid would say, by the three steps of the module
    docstring: steps 1 and 2 in one kernel call per block of at most 1024
    rows, step 3 in one call per row they leave undecided."""
    last = len(thetas) - 1
    # index 1, next to 0, picked by measurement: a row whose maximum lies in
    # [0, thetas[last // 16]], where the other point is 0 and the value 0,
    # is then mostly decided by step 1, not point by point in step 3
    index = [0, 1] + [k * last // 16 for k in range(1, 17)]
    ends = thetas[index]
    # the 18 points as degenerate intervals, then the 17 pieces between them
    x_a, x_b = np.concatenate([ends, ends[:-1]]), np.concatenate([ends, ends[1:]])
    verdicts = []
    for start in range(0, len(rows), 1024):
        block = rows[start:start + 1024]
        hi = _horner_upper(x_a, x_b, block)
        value, upper = hi[:len(index)].max(axis=0), hi[len(index):]
        stable = upper.max(axis=0) <= DEFAULT_TOL  # upper >= value: step 1's rows read False
        for i in np.flatnonzero((value <= DEFAULT_TOL) & ~stable).tolist():
            x = np.concatenate([thetas[index[j]:index[j + 1] + 1]
                                for j in np.flatnonzero(upper[:, i] > DEFAULT_TOL).tolist()])
            stable[i] = _horner_upper(x, x, block[i:i + 1]).max() <= DEFAULT_TOL
        verdicts += stable.tolist()
    return verdicts


def _signed_coeffs(modeq: ModifiedEq, lam: Number, ps) -> list[float]:
    """c_p(lambda) with the sign of i^p, for each p in ``ps``: each c_p is
    rounded once from its exact value, since its large coefficients of both
    signs cancel to noise in a float sum."""
    coeffs = modeq.at(lam)
    [cs] = _rounded([("c", [(p, coeffs[p - 1]) for p in ps])], [lam], modeq.scheme_name)
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
    trunc_stable: dict  # order -> verdict


@dataclass(frozen=True)
class RegionReport:
    """Per-lambda stability/contraction classification over a lambda range."""

    scheme_name: str
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


def region_scan(
    scheme: SchemeSpec,
    lambda_range: tuple,
    orders: Sequence[int] = (),
) -> RegionReport:
    """Classify each lambda in ``lambda_range = (lo, hi, count)``.

    With tol = DEFAULT_TOL, a sample is von Neumann stable when
    max |S| <= 1 + tol over the theta grid, and inside the contraction region
    when max |1 - S| < 1 - tol.  For each requested truncation order N, the
    truncation is marked stable when Re P_N(theta) <= tol on the whole grid,
    decided for all lambdas at once after the loop that rounds their c_p, by
    one Horner kernel in three steps (see the module docstring): its values
    at 18 grid points, pi among them, each the sweep's value there bit for
    bit since a point is a degenerate interval; its upper ends on the 17
    pieces between those points; and, where neither decides, its values at
    every grid point of the pieces whose upper end exceeds tol.  theta_m is
    the grid point where |1 - S| first reaches 1, or pi.  The maxima and
    theta_m are the sweep's of the whole grid, bit for bit, read by the
    piece filter of the module docstring: |S| and |1 - S| at the 257 ends
    of 256 pieces, then at every grid point of each piece whose bound
    max(f_a, f_b) + F_2 h^2 / 8 on f = |S|^2 or |1 - S|^2, widened by the
    float-error margin E, does not keep it below its cap.
    """
    lo, hi, count = lambda_range
    if not (0 <= lo < hi):
        raise ValueError(f"scheme {scheme.name}: need 0 <= lo < hi, got ({lo}, {hi})")
    if count < 2:
        raise ValueError(f"scheme {scheme.name}: need at least two lambda samples")
    orders = tuple(sorted(set(int(n) for n in orders)))
    evens = []
    if orders:
        modeq = derive_log(scheme, max(orders))
        evens = [(p, modeq.coeff(p)) for p in range(2, modeq.order + 1, 2)]

    basis = _symbol_basis(scheme, THETAS)
    offsets = [p for p, _ in scheme.symbol]
    zero = offsets.index(0)
    dist2 = np.subtract.outer(offsets, offsets) ** 2.0  # the (p - q)^2 of F_2
    # the pieces' ends, every _STEP-th grid index and the last; each piece's
    # grid indices, the last piece's end repeated to fill its row
    ends = np.append(np.arange(0, DEFAULT_GRID - 1, _STEP), DEFAULT_GRID - 1)
    pieces = np.minimum(ends[:-1, None] + np.arange(_STEP + 1), DEFAULT_GRID - 1)
    ends_basis = [None if e is None else e[ends] for e in basis]
    width2 = np.diff(THETAS[ends]) ** 2 / 8  # h^2 / 8
    top = orders[-1] if orders else 0
    lams = np.linspace(float(lo), float(hi), int(count)).tolist()
    # the even c_p of each lambda, +0.0 at odd p: all that Re P_N reads
    rows = np.zeros((len(lams), top + 1))
    # each lambda's a_p, then its even c_p, from one pass of the kernel
    values = _rounded([("symbol coefficient a", scheme.symbol), ("c", evens)], lams,
                      scheme.name)
    n_a = len(scheme.symbol)
    samples = []
    # a huge lambda's S overflows to inf or nan, and the Horner steps of a
    # growing truncation to inf: values that the maxima and verdicts read
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(lams), _BLOCK):
            block = np.array(list(itertools.islice(values, _BLOCK)))
            a = block[:, :n_a]
            rows[start:start + len(a), 2::2] = block[:, n_a:]
            v = _moduli(a, ends_basis, (len(a), len(ends)))
            peak = v.max(axis=2)
            # theta_m's index: the first end where |1 - S| >= 1, else the last (pi)
            hit = v[1] >= 1.0
            hit[:, -1] = True
            first = ends[hit.argmax(axis=1)]
            # the weights of |S|^2 and |1 - S|^2: |a_p|, then |1 - a_0| at p = 0
            w = np.abs([a, a])
            w[1, :, zero] = np.abs(1.0 - a[:, zero])
            margin = 2.0 ** -40 * (1.0 + w[0].sum(axis=1, keepdims=True))
            f2 = np.einsum("jip,pq,jiq->ji", w, dist2, w)[..., None]
            bound = np.maximum(v[..., :-1], v[..., 1:])
            bound += margin
            bound *= bound
            bound += f2 * width2
            # each piece's cap: the peak, and for |1 - S| before theta_m's end also 1
            swept = ~(bound < (peak[..., None] - margin) ** 2).all(axis=0)
            swept |= (ends[:-1] < first[:, None]) & ~(bound[1] < (1.0 - margin) ** 2)
            at, piece = np.nonzero(swept)
            del v, bound  # the sweep below needs neither; free them first
            for k in range(0, len(at), len(pieces)):  # a grid's worth of points at a time
                lam_at, index = at[k:k + len(pieces)], pieces[piece[k:k + len(pieces)]]
                fine = _moduli(a[lam_at], (None if e is None else e[index] for e in basis),
                               index.shape)
                np.maximum.at(peak, (slice(None), lam_at), fine.max(axis=2))
                np.minimum.at(first, lam_at,
                              np.where(fine[1] >= 1.0, index, DEFAULT_GRID - 1).min(axis=1))
            for lam, max_abs_s, max_abs_oms, theta_m in zip(
                    lams[start:start + len(a)], *peak.tolist(), THETAS[first].tolist()):
                samples.append(
                    LambdaSample(
                        lam=lam,
                        max_abs_s=max_abs_s,
                        max_abs_one_minus_s=max_abs_oms,
                        theta_m=theta_m,
                        in_rs=max_abs_s <= 1.0 + DEFAULT_TOL,
                        in_omega_c=max_abs_oms < 1.0 - DEFAULT_TOL,
                        trunc_stable={},
                    )
                )
        # the sign of i^p, as _signed_coeffs gives it: 0.0 - c, so a zero stays +0.0
        np.subtract(0.0, rows[:, 2::4], out=rows[:, 2::4])
        for n in orders:
            verdicts = _truncation_verdicts(THETAS, rows[:, : n + 1])
            for sample, stable in zip(samples, verdicts):
                sample.trunc_stable[n] = stable
    return RegionReport(scheme_name=scheme.name, orders=orders, samples=tuple(samples))


def _truncation(th: np.ndarray, coeffs: np.ndarray, lam_f: float) -> tuple:
    """P_N = polyval(theta, coeffs) and S_N = exp(lambda P_N)."""
    p_val = np.polynomial.polynomial.polyval(th, coeffs)
    with np.errstate(over="ignore"):  # a growing truncation's |S_N| is inf
        return p_val, np.exp(lam_f * p_val)


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
) -> list[StabilityCertificate]:
    """Assemble the e^{CT} e^{A T M^{N+1}/lambda} bound at dx = 1, one
    certificate per distinct order N in ``orders``, in increasing order.

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
    orders = tuple(sorted(set(int(n) for n in orders)))
    if modeq.order <= max(orders, default=0):
        raise ValueError(f"scheme {scheme.name}: reference order {modeq.order} must exceed "
                         f"the truncation order {max(orders)}")

    s = eval_symbol(scheme, lam, THETAS)
    if float(np.max(np.abs(1.0 - s))) >= 1.0 - DEFAULT_TOL:
        raise CertificateRefusal(
            f"scheme {scheme.name}: lambda = {lam_f} lies outside the contraction region; "
            f"the truncation bound does not apply"
        )

    th = THETAS.astype(complex)
    coeffs = _theta_coeffs(modeq, lam, modeq.order)
    positive = THETAS > 0
    p_ref = np.polynomial.polynomial.polyval(th, coeffs)[positive]
    certificates = []
    for order in orders:
        p_n, s_n = _truncation(th, coeffs[: order + 1], lam_f)
        growth_c = max(0.0, (float(np.max(np.abs(s_n))) - 1.0) / lam_f)
        tail_a = float(
            np.max(np.abs(p_ref - p_n[positive]) / THETAS[positive] ** (order + 1))
        )
        bound = math.exp(growth_c * horizon_t) * math.exp(
            tail_a * horizon_t * support_m ** (order + 1) / lam_f
        )
        certificates.append(StabilityCertificate(
            order, lam_f, growth_c, tail_a, float(support_m), float(horizon_t), bound))
    return certificates


@dataclass(frozen=True)
class FigureTable:
    """|S| and |S_N| sampled on ``THETAS`` for one mesh-ratio value.
    ``csv_columns`` maps each curve's CSV header to its column, as a list of
    floats; the theta column before them, the same for every table, is the
    writer's."""

    lam: float
    abs_s: np.ndarray
    abs_s_trunc: dict  # order -> ndarray

    def csv_columns(self) -> dict[str, list]:
        columns = {"abs_S": self.abs_s}
        columns.update((f"abs_S_N{n}", self.abs_s_trunc[n]) for n in sorted(self.abs_s_trunc))
        return {name: col.tolist() for name, col in columns.items()}


def figure_data(
    scheme: SchemeSpec,
    modeq: ModifiedEq,
    lambdas: Sequence[Number],
    orders: Sequence[int],
) -> list[FigureTable]:
    """Amplification-factor curves |S| and |S_N| per requested lambda, with
    S_N truncated from ``modeq``.  Each lambda rounds the c_p of the highest
    order once, and each P_N sums a prefix of them."""
    orders = tuple(sorted(set(int(n) for n in orders)))
    if not lambdas:
        return []
    th = THETAS.astype(complex)
    tables = []
    for lam in lambdas:
        abs_s = np.abs(eval_symbol(scheme, lam, THETAS))
        coeffs = _theta_coeffs(modeq, lam, orders[-1]) if orders else None
        trunc = {n: np.abs(_truncation(th, coeffs[: n + 1], float(lam))[1])
                 for n in orders}
        tables.append(FigureTable(lam=float(lam), abs_s=abs_s, abs_s_trunc=trunc))
    return tables
