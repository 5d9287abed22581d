"""Modified-equation derivation.

``derive_log`` produces the modified equation of a scheme: it expands the
principal logarithm of the one-step symbol S(theta) and divides out the mesh
ratio, giving the coefficients c_p of

    u_t = sum_p c_p(lambda) dx^(p-q) d^p u / dx^p

with dx normalized to 1 in the symbolic computation; the dx-dependence is
carried by the integer grading p - q.  Series are expanded in x = i*theta
(see ``exactalg``), so c_p is read directly as [x^p](ln S) / lambda, a real
polynomial in lambda.  The logarithm of a series with constant term 1 is
unique, so the exact equality exp(lambda G) = S, with ``series_exp`` on
``ModifiedEq.dt_g_series``, proves a table right (``modeq modeq --verify``).
Everything here is exact; a float value of c_p is its exact value at the
rational lambda, rounded once (``spectra``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactalg import LP_ZERO, InexactDivisionError, LambdaPoly, series_log
from .schemes import SchemeSpec

__all__ = [
    "ModifiedEq",
    "ConsistencyFailure",
    "ConsistencyReport",
    "CrossCheckError",
    "symbol_series",
    "derive_log",
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

    def dt_g_series(self) -> tuple:
        """The series dt*G = ln S in x = i*theta (lambda symbolic): its x^p
        coefficient is lambda * c_p."""
        return (LP_ZERO, *[c.shift_up(1) for c in self.coeffs])

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
            return str(self.coeff(p))
        except ValueError as exc:  # str() of an int beyond Python's digit limit
            raise ValueError(
                f"scheme {self.scheme_name}: c_{p} of the N = {self.order} modified "
                f"equation holds a number beyond Python's int-string conversion "
                f"limit and cannot be rendered"
            ) from exc


def symbol_series(scheme: SchemeSpec, order: int) -> tuple:
    """Taylor expansion in x = i*theta of the one-step symbol
    S = sum_p a_p(lambda) e^{p x}: the x^r coefficient is
    sum_p a_p(lambda) p^r / r!, which is exactly 1 at r = 0.  Each moment
    sum_p p^r (D a_p) is summed on the integer numerators over the stencil's
    common denominator D and reduced once over D r!.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    den = math.lcm(*[a.den for _, a in scheme.symbol])
    weights = [(p, [x * (den // a.den) for x in a.nums]) for p, a in scheme.symbol]
    width = max([len(nums) for _, nums in weights])
    out = []
    for r in range(order + 1):
        moment = [0] * width
        for p, nums in weights:
            w = p**r
            for k, x in enumerate(nums):
                moment[k] += w * x
        out.append(LambdaPoly.from_nums(moment, den * math.factorial(r)))
    return tuple(out)


def derive_log(scheme: SchemeSpec, order: int) -> ModifiedEq:
    """Modified equation via the principal logarithm of the symbol: c_p is
    [x^p] ln S divided by lambda, an exact polynomial division."""
    coeffs = []
    for p, poly in enumerate(series_log(symbol_series(scheme, order))[1:], start=1):
        try:
            coeffs.append(poly.divide_by_lambda())
        except InexactDivisionError as exc:
            raise CrossCheckError(
                f"derive_log: scheme {scheme.name}, N = {order}: the x^{p} coefficient of ln S "
                f"is not divisible by lambda; the consistency invariant is broken upstream"
            ) from exc
    return ModifiedEq(scheme_name=scheme.name, q=scheme.q, coeffs=tuple(coeffs))


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
                {"p": f.p, "residual": str(f.residual), "message": f.message}
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
        if c:
            failures.append(
                ConsistencyFailure(
                    p=p,
                    residual=c,
                    message=f"c_{p} must vanish (grading {p - q} < 0)",
                )
            )

    declared = dict(scheme.pde)
    target = LambdaPoly.const(-declared.get(q, Fraction(0)))
    residual = modeq.coeff(q) - target
    if not residual:
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
        if modeq.coeff(p):
            leading = p - q
            break

    return ConsistencyReport(
        scheme_name=scheme.name,
        ok=not failures,
        failures=tuple(failures),
        matched_orders=tuple(matched),
        leading_error_order=leading,
    )
