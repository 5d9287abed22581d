"""Numeric evaluation of the one-step symbol and derived quantities.

Covers: pointwise/grid evaluation of S(theta), the contraction angle
theta_m, stability and contraction region scans over the mesh ratio,
finite-horizon stability certificates, and figure-data tables.  The
figures and certificates sample theta on one read-only grid, ``THETAS``:
DEFAULT_GRID uniform points on [0, pi], both endpoints exact.  The exact
forms of the symbol are ``derivation``'s; this module rounds and samples
them.

Exact first, then round: the symbol coefficients a_p(lambda) of
``SchemeSpec.symbol`` and the modified-equation coefficients c_p(lambda) are
evaluated exactly at the lambda the caller gave (a float at its binary
value) and each is rounded to a float once, correctly, by one kernel
(``derivation.float_rows``): for each lambda in order it takes lambda's
integer ratio once and gives every polynomial's value.  No float lambda
multiplies a rounded weight.

A region scan rounds the cosine tables of S (``derivation._cosine_tables``,
S = R(c) + i sin(theta) V(c), c = cos(theta)), 1 - R_0 and the even c_p,
all that Re P_N reads, in one kernel pass.  Its max |S|, max |1 - S|
(tables 1 - R and -V) and theta_m read no grid: f^2 = R^2 + (1 - c^2) V^2
is a polynomial in c, so max f is f at c = +-1 or at a real root of
(f^2)', an eigenvalue of its colleague matrix (Good 1961), and theta_m =
arccos c_0, c_0 the largest c with |1 - S| >= 1, one bisection between
two such points (``_fields``, ``_peaks``).  f is hypot(R,
sqrt(1 - c^2) V) by Clenshaw's recurrence, and a root off by delta moves
a peak by O(delta^2), so a maximum falls short of the true one by rounding
only: against the 4096-point grid sweep (catalog, random stencils to +-8,
lambda to 1e200) none was below the grid's by more than
2^-44 (1 + sum_p |a_p|) / 25, and the true maximum was up to 2e-8 above it.

A truncation verdict is a proof about the exact c_p(lambda)
(``_truncation_verdicts``), by a float filter with an error bound
(Shewchuk 1997).  With t = theta^2, Re P_N = t q(t), q(t) = sum_k d_{k+1}
t^k, d_k the c_{2k} signed as i^{2k}: stable when q <= 0 on [0, pi^2],
unstable when q > 0 somewhere in (0, pi^2].  Each d is its exact value
rounded once, and ``region_scan`` re-evaluates each zero, so a d is zero
only when exact and otherwise has its exact sign: every d <= 0 is stable,
a positive lowest nonzero d unstable.  Any other q is divided by t^j, j
its zeros below the lowest nonzero d, and, if some |d| >= 1, by the power
of two that puts every |d| below 1: the m coefficients q_k are each within
u |q_k| + 2^-1073 of their exact values, u = 2^-53.  The kernel
(``_horner_upper``) runs Horner's rule in floats.  A product p errs by at
most u |p| + 2^-1075 and a sum by u times its value, so the error of step
k is at most t times that of step k + 1 plus u (t |v_{k+1}| + |p_k| + 2
|q_k|) + 2^-1072, where |v_k|, |p_k| <= (1 + u)^{2m} M_k, M_k = sum_{i >=
k} s_i t^{i-k} and s_i = |q_i| + 2^-960 outweighs every absolute term
(and leaves a row of entries below about 2^-900 open).
Summed, |q(t) - v| <= 2u (1 + u)^{2m} sum_i (i + 1) s_i t^i <= E = (2m +
2) u mag, mag the float M_0 (Higham 2002, 5.1): v - E > 0 proves the row
unstable.  On a piece [a, b] of [0, T], T the double above pi^2 (``math.pi
** 2`` is below it), q <= q(a) + (b - a) max(0, sup q'), and the same
steps on q', coefficients k q_k, each product at its larger corner (max(h
a, h b); rounding is monotone), bound q' above by hi + (4m + 4) u mag',
mag' from the k s_k at b.  3m u mag' would do; the rest covers the
roundings of R = E + (b - a) max(0, ...), as E's slack covers underflows.
So v + R <= 0 proves the piece.  The 16 first pieces are equal in theta,
and an open piece is halved, up to 44 times; a row reads "undecided" once
more than 32 of its pieces are open, and when it is still open at the cap.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .derivation import ModifiedEq, _cosine_tables, derive_log, float_rows
from .schemes import SchemeSpec

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_TOL",
    "THETAS",
    "CertificateRefusal",
    "RegionReport",
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
_PIECES, _DEPTH, _T = 16, 44, math.nextafter(math.pi ** 2, math.inf)

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


def _rounded(groups, lams: Sequence[Number], scheme_name: str, sources=()):
    """For each lambda of ``lams`` in order, the list of the polynomials of
    every (label, terms) in ``groups``, terms (p, poly) pairs, evaluated
    exactly at lambda (a float at its binary value) and rounded once, by one
    pass of the rounding kernel; a generator, so a row is made when it is
    read.  The first value beyond the float range, in row order, raises the
    ValueError "scheme NAME: LABEL_p at lambda = LAM is beyond the float
    range", the groups of ``sources``, terms the values are made of, named
    first; an infinite lambda, which has no exact value, raises the
    OverflowError of ``Fraction(lam)``."""
    terms = [(label, p, poly) for label, group in groups for p, poly in group]
    named = [(label, p, poly) for label, group in sources for p, poly in group] + terms
    rows = float_rows([poly for _, _, poly in terms], lams)
    for lam in lams:
        try:
            yield next(rows)
        except OverflowError as exc:
            if lam in (math.inf, -math.inf):
                raise
            # the kernel's error does not say which value it was: round each
            # value of this lambda alone up to the first that overflows
            for label, p, poly in named:
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


def _symbol_sum(weights, basis):
    """sum_p a_p basis_p in offset order, from 0; a_0 is added as is."""
    acc = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a huge lambda's S is inf or nan
        for (_, a), e in zip(weights, basis):
            acc += a if e is None else a * e  # in place once acc is an array
    return acc


def _horner_upper(a: np.ndarray, b: np.ndarray, rows: np.ndarray, index) -> tuple:
    """For q = ``rows[index[j]]`` (sum_k q[k] t^k, |q[k]| < 1, fewer than 300)
    and 0 <= a[j] < b[j] < 10, so that nothing overflows: the float Horner
    value v of q at a[j], its error term E, and R with q <= v + R on [a[j],
    b[j]], as the module docstring derives them."""
    m, v, mag, hi, dmag = rows.shape[1], 0.0, 0.0, 0.0, 0.0
    for k in range(m - 1, -1, -1):  # a column at a time: no (m, len(a)) copy
        c = rows[index, k]
        s = np.abs(c) + 2.0 ** -960
        v, mag = v * a + c, mag * a + s
        if k:  # q' = sum_k k q[k] t^(k-1), its upper end on [a, b]
            hi, dmag = np.maximum(hi * a, hi * b) + k * c, dmag * b + k * s
    err = (2 * m + 2) * 2.0 ** -53 * mag
    return v, err, err + np.maximum(hi + (4 * m + 4) * 2.0 ** -53 * dmag, 0.0) * (b - a)


def _truncation_verdicts(rows: np.ndarray) -> list:
    """For each row d_1..d_m of ``rows`` (a lambda's signed c_2, ..., c_2m):
    True if q(t) = sum_k d_{k+1} t^k is proved <= 0 on [0, pi^2], False if
    > 0 there, else "undecided" (module docstring), one kernel call a depth."""
    if rows.shape[1] < 2:
        return (rows <= 0).all(axis=1).tolist()
    n, m = rows.shape
    lead = (rows != 0).argmax(axis=1)
    state = np.where((rows <= 0).all(axis=1), 1, np.where(rows[range(n), lead] > 0, 0, 2))
    q = np.take_along_axis(np.hstack([rows, 0 * rows]), lead[:, None] + np.arange(m), 1)
    q = np.ldexp(q, -np.maximum(np.frexp(np.abs(q).max(axis=1))[1], 0)[:, None])  # |q| < 1
    ends, todo = _T * (np.arange(_PIECES + 1) / _PIECES) ** 2, np.flatnonzero(state == 2)
    a, b, r = ends[:-1].repeat(len(todo)), ends[1:].repeat(len(todo)), np.tile(todo, _PIECES)
    for _ in range(_DEPTH + 1):
        v, err, bound = _horner_upper(a, b, q, r)
        state[r[v - err > 0]] = 0  # proved > 0 at a
        keep = v + bound > 0
        count = np.bincount(r[keep], minlength=n)  # open pieces per row
        state[(count == 0) & (state == 2)] = 1  # every piece proved <= 0
        state[(count > 2 * _PIECES) & (state == 2)] = 3
        keep &= state[r] == 2
        a, b, r = a[keep], b[keep], r[keep]
        if not len(r):
            break
        x = 0.5 * (a + b)  # halve the open pieces
        a, b, r = np.concatenate([a, x]), np.concatenate([x, b]), np.concatenate([r, r])
    return [(False, True, "undecided", "undecided")[v] for v in state.tolist()]


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
        raise ValueError(f"scheme {modeq.scheme_name}: truncation order {order} exceeds "
                         f"stored order {modeq.order}")
    g = _signed_coeffs(modeq, lam, range(1, order + 1))
    out = np.zeros(order + 1, dtype=complex)
    out.real[2::2], out.imag[1::2] = g[1::2], g[::2]
    return out


@dataclass(frozen=True)
class RegionReport:
    """The regions table over a lambda range, by column, each a tuple with
    an entry per sample: ``samples`` the lambdas in increasing order (report
    key ``lambda``), ``columns`` each further report key's in report order,
    and ``trunc_stable`` each order's verdicts, in increasing order."""

    scheme_name: str
    orders: tuple
    samples: tuple
    columns: dict  # report key -> column
    trunc_stable: dict  # order -> column of verdicts

    def rs_boundary(self) -> Optional[float]:
        """Largest sampled lambda still von Neumann stable."""
        return max((lam for lam, ok in zip(self.samples, self.columns["in_Rs"]) if ok),
                   default=None)

    def omega_c_boundary(self) -> Optional[float]:
        """Largest sampled lambda still inside the contraction region."""
        return max((lam for lam, ok in zip(self.samples, self.columns["in_Omega_c"]) if ok),
                   default=None)


def region_scan(
    scheme: SchemeSpec,
    lambda_range: tuple,
    orders: Sequence[int] = (),
) -> RegionReport:
    """The regions table of the count samples lo + k (hi - lo) / (count - 1)
    of ``lambda_range = (lo, hi, count)``, each rounded once.  With tol =
    DEFAULT_TOL, a sample is von Neumann stable (in_Rs) when max |S| <= 1 +
    tol on [0, pi], inside the contraction region (in_Omega_c) when max |1 -
    S| < 1 - tol, and its truncation of order N stable (True), unstable
    (False) or "undecided" as the exact Re P_N on [0, pi] is proved to be
    (the module docstring tells how each is read)."""
    lo, hi, count = lambda_range
    if not (0 <= lo < hi):
        raise ValueError(f"scheme {scheme.name}: need 0 <= lo < hi, got ({lo}, {hi})")
    if count < 2:
        raise ValueError(f"scheme {scheme.name}: need at least two lambda samples")
    orders = tuple(sorted(set(int(n) for n in orders)))
    modeqs = [derive_log(scheme, max(orders))] if orders else []
    evens = [(p, modeq.coeff(p)) for modeq in modeqs for p in range(2, modeq.order + 1, 2)]
    n = len(lams := _lambda_samples(lo, hi, int(count)))
    width, table_rows = _rounded_tables(scheme, lams, evens)
    # the tables and the even c_p: all that Re P_N reads
    tables, rows = np.empty((n, 2 * width + 2)), np.empty((n, len(evens)))
    for i, row in enumerate(table_rows):
        tables[i], rows[i] = row[:2 * width + 2], row[2 * width + 2:]
    # +-0.0 is an exact zero or a c_p below 2^-1075 in magnitude, which
    # becomes the smallest double of its sign: every sign is then exact
    for i, k in np.argwhere((rows == 0) & np.array([bool(c) for _, c in evens], bool)).tolist():
        rows[i, k] = math.copysign(5e-324, v) if (v := evens[k][1](lams[i])) else 0.0
    # the c_p signed as i^p, as _signed_coeffs gives them (0.0 - c keeps a zero +0.0)
    np.subtract(0.0, rows[:, ::2], out=rows[:, ::2])
    # a huge lambda's maxima overflow to inf: values that the flags read
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step = 2 ** 18 // width ** 2  # lambdas per block: eigenvalue stacks below 16 MiB
        s, oms, theta_m = np.hstack([_fields(tables[k:k + step], width)
                                     for k in range(0, n, step)])
        columns = {"max_abs_S": s, "max_abs_one_minus_S": oms, "theta_m": theta_m,
                   "in_Rs": s <= 1.0 + DEFAULT_TOL, "in_Omega_c": oms < 1.0 - DEFAULT_TOL}
    verdicts = {order: tuple(_truncation_verdicts(rows[:, :order // 2])) for order in orders}
    return RegionReport(scheme_name=scheme.name, orders=orders, samples=tuple(lams),
                        columns={key: tuple(col.tolist()) for key, col in columns.items()},
                        trunc_stable=verdicts)


def _rounded_tables(scheme: SchemeSpec, lams: Sequence[Number], evens=()) -> tuple:
    """W, and the ``_rounded`` rows at ``lams`` of S's cosine tables (r_0..r_W,
    1 - r_0 = R(1) - r_0 and v_1..v_W, as ``_fields`` reads them), then of the
    (p, c_p) ``evens``; an a_p beyond the float range is named first."""
    r, v = _cosine_tables(scheme)
    return len(v), _rounded([("R", enumerate(r)), ("1 - R", [(0, sum(r[2:], r[1]))]),
                             ("V", enumerate(v, start=1)), ("c", evens)], lams, scheme.name,
                            sources=[("symbol coefficient a", scheme.symbol)])


def _lambda_samples(lo: Number, hi: Number, count: int) -> list[float]:
    """lo + k (hi - lo) / (count - 1), each by one exact int / int division."""
    (n_lo, d_lo), (n_hi, d_hi) = Fraction(lo).as_integer_ratio(), Fraction(hi).as_integer_ratio()
    den = math.lcm(d_lo, d_hi)
    a, b = n_lo * (den // d_lo), n_hi * (den // d_hi)
    return [(a * (count - 1) + k * (b - a)) / (den * (count - 1)) for k in range(count)]


def _fields(tables: np.ndarray, width: int) -> np.ndarray:
    """max |S|, max |1 - S| and theta_m, as three rows, from each lambda's
    rounded r_0..r_W, 1 - r_0 and v_1..v_W.  theta_m is the end with
    |1 - S| >= 1 of the bracket past the last peak point where |1 - S| >= 1,
    after 54 halvings (to 2^-53), or that point when |1 - S| = 1 there (heat
    at lambda = 1/4 reads pi); pi when |1 - S| < 1 throughout."""
    n = len(tables)
    r = np.concatenate([tables[:, :width + 1]] * 2)  # S, then S - 1, of modulus |1 - S|
    r[n:, 0] = -tables[:, width + 1]
    c, g, scaled = _peaks(r, np.concatenate([tables[:, width + 2:]] * 2))
    peak, c, g, scaled = g.max(axis=1), c[n:], g[n:], [t[n:] for t in scaled]
    hit = g >= 1.0
    last = c.shape[1] - 1 - hit[:, ::-1].argmax(axis=1)
    rows = np.arange(n)
    a, b = c[rows, last], c[rows, np.minimum(last + 1, c.shape[1] - 1)]
    b = np.where(g[rows, last] > 1.0, b, a)  # an empty bracket keeps its end
    for _ in range(54):
        mid = 0.5 * (a + b)
        up = _modulus(*scaled, mid[:, None])[:, 0] >= 1.0
        a, b = np.where(up, mid, a), np.where(up, b, mid)
    return np.stack([peak[:n], peak[n:], np.where(hit.any(axis=1), np.arccos(a), math.pi)])


def _peaks(r: np.ndarray, v: np.ndarray) -> tuple:
    """For rows of tables ``r`` (rows, W + 1) and ``v`` (rows, W) of g: the
    sorted points where g can peak, g there, and the tables over 2^e, which
    is exact and puts the b_k of g = 2^e |sum_k b_k e^{ik theta}| in [-1, 1],
    so every matrix is finite; g^2 = 4^e sum_d f_d T_d(c) with f_d =
    (2 - [d = 0]) sum_k b_k b_{k+d}."""
    _, e = np.frexp(np.abs(np.hstack([r, v])).max(axis=1))
    r, v = np.ldexp(r, -e[:, None]), np.ldexp(v, -e[:, None])
    b = np.hstack([(r[:, :0:-1] - v[:, ::-1]) / 2, r[:, :1], (r[:, 1:] + v) / 2])
    span = b.shape[1] - 1
    f = np.stack([(1.0 + (d > 0)) * np.einsum("ij,ij->i", b[:, :span + 1 - d], b[:, d:])
                  for d in range(span + 1)], axis=1)
    # F' = sum_k u_k U_k(c) to the degree of its last u_k above 2^-40 times
    # the largest; its roots are the eigenvalues of c U_k = (U_{k-1} +
    # U_{k+1}) / 2, U_m = -sum u_k U_k / u_m.  A smaller top u_k makes the
    # matrix's norm, and so the eigenvalues' error, large: kept down to
    # 2^-52, a top u_k of 3e-16 (a constant weight beside weights in lambda,
    # at lambda near 1e15) put an eigenvalue 0.07 off its root, and two
    # Newton steps left max |S| 2e-8 of its value short
    u = f[:, 1:] * np.arange(1, span + 1)
    c = np.ones((len(u), span + 1))  # the ends -1 and 1, then the roots or 1
    c[:, 0] = -1.0
    big = np.abs(u) > 2.0 ** -40 * np.abs(u).max(axis=1, keepdims=True)
    degree = np.where(big.any(axis=1), span - 1 - big[:, ::-1].argmax(axis=1), 0)
    for m in set(degree.tolist()) - {0}:
        at = np.flatnonzero(degree == m)
        colleague = np.repeat([np.eye(m, k=1) / 2 + np.eye(m, k=-1) / 2], len(at), axis=0)
        colleague[:, -1] -= u[at, :m] / (2.0 * u[at, m, None])
        found = colleague[:, 0] if m == 1 else np.linalg.eigvals(colleague).real
        c[at, 2:m + 2] = np.clip(found, -1.0, 1.0)
    # the u_k left out move a simple root by about 2^-40, and the matrix's
    # norm up to 2^40 its eigenvalues by more: two Newton steps on the whole
    # F' polish each point
    f2 = np.polynomial.chebyshev.chebder(f, 2, axis=1)
    polished = c
    for _ in range(2):  # a zero F'' gives no finite step
        step = _clenshaw(u, polished, True) / _clenshaw(f2, polished)
        polished = np.clip(np.where(np.isfinite(step), polished - step, polished), -1.0, 1.0)
    c = np.sort(np.hstack([c, polished]), axis=1)
    return c, _modulus(r, v, e, c), (r, v, e)


def _clenshaw(coeffs: np.ndarray, c: np.ndarray, second_kind: bool = False) -> np.ndarray:
    """sum_k coeffs[:, k] T_k(c), or U_k(c), at the points ``c`` of each row."""
    two_c = 2.0 * c
    b1 = b2 = np.zeros(c.shape)
    for k in range(coeffs.shape[1] - 1, 0, -1):
        b1, b2 = coeffs[:, k, None] + two_c * b1 - b2, b1
    return coeffs[:, :1] + (two_c if second_kind else c) * b1 - b2


def _modulus(r: np.ndarray, v: np.ndarray, e: np.ndarray, c: np.ndarray) -> np.ndarray:
    """2^e hypot(R(c), sqrt(1 - c^2) V(c)) from tables over 2^e."""
    sine = np.sqrt((1.0 - c) * (1.0 + c))
    return np.ldexp(np.hypot(_clenshaw(r, c), sine * _clenshaw(v, c, True)), e[:, None])


def _truncation(th: np.ndarray, coeffs: np.ndarray, lam_f: float) -> tuple:
    """P_N = polyval(theta, coeffs) and S_N = exp(lambda P_N)."""
    p_val = np.polynomial.polynomial.polyval(th, coeffs)
    with np.errstate(over="ignore"):  # a growing truncation's |S_N| is inf
        return p_val, np.exp(lam_f * p_val)


def truncation_certificate(
    scheme: SchemeSpec,
    modeq: ModifiedEq,
    lam: Number,
    orders: Sequence[int],
    support_m: float,
    horizon_t: float,
) -> list[dict]:
    """Assemble the e^{CT} e^{A T M^{N+1}/lambda} bound at dx = 1, a
    finite-horizon L2 bound for band-limited data under the truncation: one
    certificate per distinct order N in ``orders``, in increasing order,
    each a dict keyed ``N``, ``lambda`` (as a float), ``C``, ``A``, ``M``,
    ``T`` and ``bound``, in that order, as the ``certify`` JSON writes it.

    The growth constant C comes from the grid maximum of |S_N|; the tail
    constant A is a grid estimate of sup |G - P_N| / theta^(N+1) using a
    high-order partial sum as reference, so the certificate is a numerical
    diagnostic, not a rigorous proof.

    The partial sum of ``modeq`` at its full order is the reference for the
    tail constant A, so ``modeq.order`` must exceed every order.  Refuses when
    lambda is outside the contraction region (max |1 - S| >= 1 - DEFAULT_TOL,
    or NaN), the hypothesis the bound rests on.  max |1 - S| is read as a
    region scan reads it, by ``_peaks`` on the rounded tables of S - 1, so
    ``certify`` refuses exactly where ``regions`` reads in_Omega_c false.  It
    is not read where B = |1 - a_0| + sum_{p != 0} |a_p| (|a_d| + |a_{-d}| =
    max(|r_d|, |v_d|)) is below (1 - DEFAULT_TOL) / (1 + 2^-20): |1 - S| <=
    B, and ``_peaks`` exceeds |1 - S| only by rounding, of the tables and of
    Clenshaw sums of at most 33 terms, far below 2^-20 B.  The reference's
    coefficients are computed once, and each P_N sums a prefix of them.  The
    tables and the c_p are evaluated at ``lam`` as given; its float value
    enters only the formulas for C and the bound.
    """
    require_lambda(scheme.name, lam, positive=True)
    lam_f = float(lam)
    orders = tuple(sorted(set(int(n) for n in orders)))
    if modeq.order <= max(orders, default=0):
        raise ValueError(f"scheme {scheme.name}: reference order {modeq.order} must exceed "
                         f"the truncation order {max(orders)}")

    width, [row] = _rounded_tables(scheme, [lam])
    bound = abs(row[width + 1]) + sum(max(abs(r), abs(v))
                                      for r, v in zip(row[1:width + 1], row[width + 2:]))
    if bound * (1.0 + 2.0 ** -20) >= 1.0 - DEFAULT_TOL:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            oms = _peaks(np.array([[-row[width + 1], *row[1:width + 1]]]),
                         np.array([row[width + 2:]]))[1].max()
        if not oms < 1.0 - DEFAULT_TOL:
            raise CertificateRefusal(
                f"scheme {scheme.name}: lambda = {lam_f} lies outside the contraction region; "
                f"the truncation bound does not apply")

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
        certificates.append({"N": order, "lambda": lam_f, "C": growth_c, "A": tail_a,
                             "M": float(support_m), "T": float(horizon_t), "bound": bound})
    return certificates


def figure_data(
    scheme: SchemeSpec,
    modeq: ModifiedEq,
    lambdas: Sequence[Number],
    orders: Sequence[int],
) -> list[dict[str, np.ndarray]]:
    """Amplification-factor curves |S| and |S_N| on ``THETAS``, with S_N
    truncated from ``modeq``: for each lambda in order, a dict from each
    curve's CSV header, ``abs_S`` then ``abs_S_N<n>`` for each distinct
    order in increasing order, to its column, a float array.  The theta column
    before them, the same for every lambda, is the writer's.  Each lambda
    rounds the c_p of the highest order once, and each P_N sums a prefix of
    them."""
    orders = tuple(sorted(set(int(n) for n in orders)))
    if not lambdas:
        return []
    th = THETAS.astype(complex)
    tables = []
    for lam in lambdas:
        table = {"abs_S": np.abs(eval_symbol(scheme, lam, THETAS))}
        coeffs = _theta_coeffs(modeq, lam, orders[-1]) if orders else None
        for n in orders:
            table[f"abs_S_N{n}"] = np.abs(_truncation(th, coeffs[: n + 1], float(lam))[1])
        tables.append(table)
    return tables
