"""Modified-equation derivation.

Two independent engines produce the modified equation of a scheme:

* ``derive_log`` expands the principal logarithm of the one-step symbol
  S(theta) and divides out the mesh ratio;
* ``derive_elimination`` solves exp(D) = S order by order for the series
  D = dt * G, mirroring the classical elimination of time derivatives.

Both return the coefficients c_p of

    u_t = sum_p c_p(lambda) dx^(p-q) d^p u / dx^p

with dx normalized to 1 in the symbolic computation; the dx-dependence is
carried by the integer grading p - q.  Series are expanded in x = i*theta
(see ``exactalg``), so c_p is read directly as [x^p](ln S) / lambda, a real
polynomial in lambda.  Everything here is exact; a float value of c_p is its
exact value at the rational lambda, rounded once (``spectra``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactalg import LP_ONE, LP_ZERO, InexactDivisionError, LambdaPoly, ThetaSeries, series_log
from .schemes import SchemeSpec

__all__ = [
    "ModifiedEq",
    "ConsistencyFailure",
    "ConsistencyReport",
    "CrossCheckError",
    "symbol_series",
    "derive_log",
    "derive_elimination",
    "consistency_report",
]


class CrossCheckError(RuntimeError):
    """An internal mathematical invariant failed; indicates a bug upstream."""


@dataclass(frozen=True)
class ModifiedEq:
    """Modified-equation coefficients of a scheme up to order N.

    ``coeffs[p-1]`` is the lambda-polynomial c_p; the physical coefficient of
    d^p u/dx^p is c_p(lambda) * dx^(p-q).  The Fourier-space generator G of
    the equation is sum_p c_p(lambda) x^p at dx = 1 with x = i*theta, so its
    theta^p coefficient is i^p c_p(lambda), and the one-step symbol satisfies
    ln S = lambda * sum_p c_p x^p.
    """

    scheme_name: str
    q: int
    coeffs: tuple  # (LambdaPoly, ...) for p = 1..N

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coeff(self, p: int) -> LambdaPoly:
        """c_p for 1 <= p <= N."""
        if not 1 <= p <= self.order:
            raise ValueError(f"order p={p} outside 1..{self.order}")
        return self.coeffs[p - 1]

    def grading(self, p: int) -> int:
        """Power of dx multiplying c_p in the physical coefficient."""
        return p - self.q

    def dt_g_series(self, order: Optional[int] = None) -> ThetaSeries:
        """The series dt*G = ln S in x = i*theta (lambda symbolic): its x^p
        coefficient is lambda * c_p."""
        n = self.order if order is None else order
        if n > self.order:
            raise ValueError(f"requested order {n} exceeds stored order {self.order}")
        return ThetaSeries((LP_ZERO,) + tuple(c.shift_up(1) for c in self.coeffs[:n]))

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme_name,
            "N": self.order,
            "q": self.q,
            "terms": [
                {
                    "p": p,
                    "grading": self.grading(p),
                    "coeff": self._render(p),
                }
                for p in range(1, self.order + 1)
            ],
        }

    def _render(self, p: int) -> str:
        try:
            return self.coeff(p).to_string()
        except ValueError as exc:  # str() of an int beyond Python's digit limit
            raise ValueError(
                f"scheme {self.scheme_name}: c_{p} of the N = {self.order} modified "
                f"equation holds a number beyond Python's int-string conversion "
                f"limit and cannot be rendered"
            ) from exc


def symbol_series(scheme: SchemeSpec, order: int) -> ThetaSeries:
    """Taylor expansion in x = i*theta of the one-step symbol
    S = 1 + lambda * sum_p B_p(lambda) e^{p x}.

    The x^0 coefficient is exactly 1 because the weights sum to zero; the
    x^r coefficient is lambda * sum_p B_p(lambda) p^r / r!.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    lam = LambdaPoly.lam()
    return ThetaSeries([LambdaPoly.one()] + [
        LambdaPoly.dot([(Fraction(p**r, math.factorial(r)), w, lam) for p, w in scheme.stencil])
        for r in range(1, order + 1)])


def _normalize(scheme: SchemeSpec, dt_g: list, engine: str) -> ModifiedEq:
    """Convert x-coefficients of dt*G into modified-equation c_p."""
    out = []
    for p, poly in enumerate(dt_g, start=1):
        try:
            out.append(poly.divide_by_lambda())
        except InexactDivisionError as exc:
            raise CrossCheckError(
                f"{engine}: x^{p} coefficient not divisible by lambda; "
                f"the consistency invariant is broken upstream"
            ) from exc
    return ModifiedEq(scheme_name=scheme.name, q=scheme.q, coeffs=tuple(out))


def derive_log(scheme: SchemeSpec, order: int) -> ModifiedEq:
    """Modified equation via the principal logarithm of the symbol."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    log_s = series_log(symbol_series(scheme, order))
    return _normalize(scheme, list(log_s.coeffs[1:]), "derive_log")


def derive_elimination(scheme: SchemeSpec, order: int) -> ModifiedEq:
    """Modified equation via order-by-order elimination.

    Solves exp(D) = S for D = sum_p d_p x^p.  At order p the unknown d_p
    enters [x^p] exp(D) = sum_m [x^p] D^m / m! only through the m = 1 term,
    and for m >= 2 the power column P_m[p] = [x^p] D^m needs only
    d_1..d_{p-1}:

        P_m[p] = sum_k d_k * P_{m-1}[p-k],    d_p = s_p - sum_{m>=2} P_m[p] / m!

    Filling the columns as p advances costs O(N^3) polynomial products.  This
    engine never takes a logarithm and shares no recurrence with
    ``derive_log``; it only multiplies and adds polynomials.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    s = symbol_series(scheme, order).coeffs
    cols = [[LP_ZERO] * (order + 1) for _ in range(order + 1)]  # cols[m][p] = P_m[p]
    for p in range(1, order + 1):
        for m in range(2, p + 1):
            # P_{m-1} first: dot skips its m-1 leading zero coefficients
            cols[m][p] = LambdaPoly.dot((1, cols[m - 1][p - k], cols[1][k])
                                        for k in range(1, p - m + 2))
        cols[1][p] = LambdaPoly.dot(
            [(1, s[p], LP_ONE)] +
            [(Fraction(-1, math.factorial(m)), cols[m][p], LP_ONE) for m in range(2, p + 1)])
    return _normalize(scheme, cols[1][1:], "derive_elimination")


@dataclass(frozen=True)
class ConsistencyFailure:
    p: int
    residual: LambdaPoly
    message: str


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of checking a modified equation against its target PDE."""

    scheme_name: str
    ok: bool
    failures: tuple
    matched_orders: tuple
    leading_error_order: Optional[int]

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme_name,
            "ok": self.ok,
            "failures": [
                {"p": f.p, "residual": f.residual.to_string(), "message": f.message}
                for f in self.failures
            ],
            "matched_orders": list(self.matched_orders),
            "leading_error_order": self.leading_error_order,
        }


def consistency_report(scheme: SchemeSpec, modeq: ModifiedEq) -> ConsistencyReport:
    """Check that the modified equation reproduces the declared PDE.

    Requires c_p = 0 for every p with negative grading, and c_q = -A_q as a
    lambda-independent polynomial identity.  The leading numerical-error
    order is the smallest positive grading among the remaining nonzero terms.
    """
    if modeq.order < scheme.pde_order:
        raise ValueError(
            f"modified equation order {modeq.order} is below the PDE order "
            f"{scheme.pde_order}"
        )
    failures: list[ConsistencyFailure] = []
    matched: list[int] = []
    q = scheme.q

    for p in range(1, q):
        c = modeq.coeff(p)
        if not c.is_zero:
            failures.append(
                ConsistencyFailure(
                    p=p,
                    residual=c,
                    message=f"c_{p} must vanish (grading {p - q} < 0)",
                )
            )

    declared = scheme.pde_map()
    target = LambdaPoly.const(-declared.get(q, Fraction(0)))
    residual = modeq.coeff(q) - target
    if residual.is_zero:
        matched.append(q)
    else:
        failures.append(
            ConsistencyFailure(
                p=q,
                residual=residual,
                message=f"c_{q} != -A_{q}",
            )
        )

    for order, a in sorted(declared.items()):
        if order == q or a == 0:
            continue
        c = modeq.coeff(order) if order <= modeq.order else LP_ZERO
        failures.append(
            ConsistencyFailure(
                p=order,
                residual=c + LambdaPoly.const(a),
                message=(
                    f"A_{order} declared but the scheme term has grading "
                    f"{order - q} != 0"
                ),
            )
        )

    leading: Optional[int] = None
    for p in range(q + 1, modeq.order + 1):
        if not modeq.coeff(p).is_zero:
            leading = p - q
            break

    return ConsistencyReport(
        scheme_name=scheme.name,
        ok=not failures,
        failures=tuple(failures),
        matched_orders=tuple(matched),
        leading_error_order=leading,
    )
