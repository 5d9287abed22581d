"""Modified-equation derivation, and every exact proof about the symbol.

``derive_log`` produces the modified equation of a scheme: it expands the
principal logarithm of the one-step symbol S(theta) and divides out the mesh
ratio, giving the coefficients c_p of

    u_t = sum_p c_p(lambda) dx^(p-q) d^p u / dx^p

with dx normalized to 1 in the symbolic computation; the dx-dependence is
carried by the integer grading p - q.  Series are expanded in x = i*theta
(see ``exactalg``), so c_p is read directly as [x^p](ln S) / lambda, a real
polynomial in lambda.  The logarithm of a series with constant term 1 is
unique, so (lambda G)' S = S' proves a table right (``verify_log``).

``derive_log(scheme, N, lam)`` runs the same ``series_log`` on the symbol's
series taken at one rational lambda, each coefficient an integer moment
over one denominator, and divides by lambda exactly: the table holds the
numbers c_p(lam), the rationals the symbolic table gives at lam.  A caller
that reads the c_p at a few given lambdas only (``radius``, ``certify``)
derives one such table per lambda.  A fixed table records its lambda and
refuses any other (``ModifiedEq.at``), and every use that needs c_p as a
polynomial.  Everything here is exact; a float value of c_p is its exact
value at the rational lambda, rounded once (``spectra``).

The numeric layers only round, sample and find roots: the exact forms of
the symbol they read, and the upwind mirror proof, are here too.
``consistency_report`` and ``upwind_symmetry_check`` return the dicts that
the ``modeq`` report's ``consistency`` block and a ``symmetry`` row write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactalg import LP_ZERO, InexactDivisionError, LambdaPoly, series_log
from .schemes import SchemeSpec, catalog_scheme

__all__ = [
    "ModifiedEq",
    "CrossCheckError",
    "symbol_series",
    "symbol_polynomial",
    "derive_log",
    "verify_log",
    "consistency_report",
    "upwind_symmetry_check",
]

# the one exact-rounding kernel, which the numeric layers reach through this
# module: for each lambda in order, every polynomial's value rounded once
float_rows = LambdaPoly.float_rows


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

    A table derived at a fixed lambda_0 (``lam``) holds each c_p(lambda_0)
    as a constant.  It serves ``at(lambda_0)`` only, and refuses every other
    lambda and every use that needs c_p as a polynomial.
    """

    scheme_name: str
    q: int
    coeffs: tuple  # (LambdaPoly, ...) for p = 1..N
    lam: Optional[Fraction] = None  # the fixed lambda_0, None when symbolic

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coeff(self, p: int) -> LambdaPoly:
        """c_p for 1 <= p <= N."""
        if not 1 <= p <= self.order:
            raise ValueError(f"scheme {self.scheme_name}: order p={p} outside 1..{self.order}")
        return self.coeffs[p - 1]

    def at(self, lam) -> tuple:
        """The c_p, p = 1..N, as polynomials whose value at ``lam`` is
        c_p(lam): the table itself when lambda is symbolic, its constants
        when it is fixed at ``lam``.  A table fixed at another lambda raises
        ``ValueError``."""
        if self.lam is not None and Fraction(lam) != self.lam:
            raise ValueError(f"{self._fixed()}, not at lambda = {lam}")
        return self.coeffs

    def _fixed(self) -> str:
        return (f"scheme {self.scheme_name}: the N = {self.order} modified equation "
                f"is fixed at lambda = {self.lam}")

    def require_symbolic(self, use: str) -> None:
        """Raise ``ValueError`` naming ``use`` when the table is fixed at a lambda."""
        if self.lam is not None:
            raise ValueError(f"{self._fixed()}; {use} needs it for every lambda")

    def grading(self, p: int) -> int:
        """Power of dx multiplying c_p in the physical coefficient."""
        return p - self.q

    def dt_g_series(self) -> tuple:
        """The series dt*G = ln S in x = i*theta (lambda symbolic): its x^p
        coefficient is lambda * c_p."""
        self.require_symbolic("dt_g_series")
        return (LP_ZERO, *[c.shift_up(1) for c in self.coeffs])

    def to_json_dict(self) -> dict:
        self.require_symbolic("to_json_dict")
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


def symbol_series(scheme: SchemeSpec, order: int, lam: Optional[Fraction] = None) -> tuple:
    """Taylor expansion in x = i*theta of the one-step symbol
    S = sum_p a_p(lambda) e^{p x}: the x^r coefficient is
    sum_p a_p(lambda) p^r / r!, which is exactly 1 at r = 0.  Each moment
    sum_p p^r (D a_p) is summed on the integer numerators over the stencil's
    common denominator D and reduced once over D r!.

    With a rational ``lam`` = n/d given, each D a_p is first taken at lam as
    the integer D d^e a_p(n/d), e the highest power of lambda in the a_p, so
    each coefficient is a constant: one integer moment over D d^e r!.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    den = math.lcm(*[a.den for _, a in scheme.symbol])
    weights = [(p, [x * (den // a.den) for x in a.nums]) for p, a in scheme.symbol]
    width = max([len(nums) for _, nums in weights])
    if lam is not None:
        n, d = Fraction(lam).as_integer_ratio()
        powers = [n**k * d ** (width - 1 - k) for k in range(width)]
        weights = [(p, [sum([x * y for x, y in zip(nums, powers)])]) for p, nums in weights]
        den, width = den * d ** (width - 1), 1
    out = []
    for r in range(order + 1):
        moment = [0] * width
        for p, nums in weights:
            w = p**r
            for k, x in enumerate(nums):
                moment[k] += w * x
        out.append(LambdaPoly.from_nums(moment, den * math.factorial(r)))
    return tuple(out)


def symbol_polynomial(scheme: SchemeSpec, lam: Fraction) -> LambdaPoly:
    """Q(w) = w^n * S with w = e^{i theta}, exact at a rational lambda and
    held as a ``LambdaPoly`` in w, where -n is the lowest offset p with
    a_p(lambda) nonzero, so Q has no zero root."""
    a = {p: c(lam) for p, c in scheme.symbol}
    # the a_p sum to one, so Q(1) = S(0) = 1 and some a_p is nonzero
    low = min(p for p, v in a.items() if v)
    return LambdaPoly([a.get(p, 0) for p in range(low, scheme.n_right + 1)])


def derive_log(scheme: SchemeSpec, order: int, lam: Optional[Fraction] = None) -> ModifiedEq:
    """Modified equation via the principal logarithm of the symbol: c_p is
    [x^p] ln S divided by lambda.

    With lambda symbolic (``lam`` None) each c_p is an exact polynomial
    division, and a remainder is a ``CrossCheckError``.  With a nonzero
    rational ``lam`` the same ``series_log`` runs on the symbol's series at
    lam, each coefficient a constant, and each is divided by lam exactly:
    the table holds c_p(lam) and records lam (``ModifiedEq.at``).
    """
    if lam is not None and not (lam := Fraction(lam)):
        raise ValueError(f"scheme {scheme.name}: a fixed-lambda derivation needs lambda != 0")
    logs = series_log(symbol_series(scheme, order, lam))[1:]
    if lam is not None:
        return ModifiedEq(scheme_name=scheme.name, q=scheme.q, lam=lam,
                          coeffs=tuple([_over_lambda(poly, lam) for poly in logs]))
    coeffs = []
    for p, poly in enumerate(logs, start=1):
        try:
            coeffs.append(poly.divide_by_lambda())
        except InexactDivisionError as exc:
            raise CrossCheckError(
                f"derive_log: scheme {scheme.name}, N = {order}: the x^{p} coefficient of ln S "
                f"is not divisible by lambda; the consistency invariant is broken upstream"
            ) from exc
    return ModifiedEq(scheme_name=scheme.name, q=scheme.q, coeffs=tuple(coeffs))


def _over_lambda(l: LambdaPoly, lam: Fraction) -> LambdaPoly:
    """The constant l / lam, for a constant l = m/D and lam = n/d, each in
    lowest terms: with g1 = gcd(m, n) and g2 = gcd(d, D), the parts
    (m/g1 * d/g2) / (D/g2 * n/g1) are coprime already, so no gcd of the
    product is taken."""
    if not l:
        return l
    (m,), big_d = l.nums, l.den
    n, d = lam.as_integer_ratio()
    if n < 0:
        n, d = -n, -d
    g1, g2 = math.gcd(m, n), math.gcd(d, big_d)
    return LambdaPoly._from_reduced(((m // g1) * (d // g2),), (big_d // g2) * (n // g1))


def verify_log(scheme: SchemeSpec, modeq: ModifiedEq) -> None:
    """Prove lambda G = ln S to order N: for p = 1..N, the x^(p-1)
    coefficient of (lambda G)' S = S', p s_p = sum_{0<k<=p} k (lambda c_k)
    s_{p-k}.  Since s_0 = 1, each equation fixes lambda c_p from the lower
    orders, so only ln S passes.  Raises ``CrossCheckError`` at the first p
    that fails, where lambda G first differs from ln S."""
    lam_g, s = modeq.dt_g_series(), symbol_series(scheme, modeq.order)
    for p in range(1, modeq.order + 1):
        got = LambdaPoly.dot([(k, lam_g[k], s[p - k]) for k in range(1, p + 1)])
        if got != LambdaPoly.from_nums([p * x for x in s[p].nums], s[p].den):
            raise CrossCheckError(f"scheme {scheme.name}, N = {modeq.order}: lambda G "
                                  f"differs from ln S first at theta-order {p}")


def consistency_report(scheme: SchemeSpec, modeq: ModifiedEq) -> dict:
    """Check that the modified equation reproduces the declared PDE, as the
    ``consistency`` block of the ``modeq`` report: ``scheme``, ``ok``,
    ``failures`` (each ``p``, its ``residual`` rendered and a ``message``),
    ``matched_orders`` and ``leading_error_order``.

    Requires c_p = 0 for every p with negative grading, and c_q = -A_q as a
    lambda-independent polynomial identity.  The leading numerical-error
    order is the smallest positive grading among the remaining nonzero terms.
    """
    modeq.require_symbolic("consistency_report")
    if modeq.order < scheme.pde_order:
        raise ValueError(
            f"scheme {scheme.name}: modified equation order {modeq.order} is below "
            f"the PDE order {scheme.pde_order}"
        )
    q = scheme.q
    failures = [(p, c, f"c_{p} must vanish (grading {p - q} < 0)")
                for p in range(1, q) if (c := modeq.coeff(p))]
    declared = dict(scheme.pde)
    residual = modeq.coeff(q) - LambdaPoly.const(-declared.get(q, Fraction(0)))
    if residual:
        failures.append((q, residual, f"c_{q} != -A_{q}"))
    for order, a in sorted(declared.items()):
        if order == q or a == 0:
            continue
        c = modeq.coeff(order) if order <= modeq.order else LP_ZERO
        failures.append((order, c + LambdaPoly.const(a),
                         f"A_{order} declared but the scheme term has grading "
                         f"{order - q} != 0"))
    return {
        "scheme": scheme.name,
        "ok": not failures,
        "failures": [{"p": p, "residual": str(r), "message": m} for p, r, m in failures],
        "matched_orders": [] if residual else [q],
        "leading_error_order": next((p - q for p in range(q + 1, modeq.order + 1)
                                     if modeq.coeff(p)), None),
    }


def _modulus_table(scheme: SchemeSpec) -> tuple:
    """m_d(lambda) = sum_p a_p(lambda) a_{p+d}(lambda) for d = 0..n_left+n_right,
    one ``LambdaPoly.dot`` each, so that for a real stencil

        |S(theta)|^2 = m_0 + 2 sum_{d>0} m_d cos(d theta).
    """
    a = dict(scheme.symbol)
    return tuple(
        LambdaPoly.dot([(1, a[p], a[p + d]) for p in a if p + d in a])
        for d in range(scheme.n_left + scheme.n_right + 1)
    )


def _cosine_tables(scheme: SchemeSpec) -> tuple:
    """(R, V): for a real stencil S = sum_d R[d] T_d(c) + i sin(theta) sum_d
    V[d-1] U_{d-1}(c), c = cos(theta), R[0] = a_0, R[d] = a_d + a_{-d} and
    V[d-1] = a_d - a_{-d}: on T_d, not c^d, whose coefficients reach 2^31."""
    a = dict(scheme.symbol)
    pairs = [(a.get(d, LP_ZERO), a.get(-d, LP_ZERO))
             for d in range(1, max(scheme.n_left, scheme.n_right) + 1)]
    return (a[0], *[x + y for x, y in pairs]), tuple(x - y for x, y in pairs)


def upwind_symmetry_check(modeq: ModifiedEq) -> dict:
    """Prove, for every lambda, the modulus identity |S(theta, 1/2-lambda)| =
    |S(theta, 1/2+lambda)| as m.reflect() == m for each |S|^2 cosine
    coefficient m (``_modulus_table``), and, for the upwind scheme's
    modified-equation coefficients ``modeq`` and 2p <= modeq.order,

        (1/2-lambda) c_{2p}(1/2-lambda) = (1/2+lambda) c_{2p}(1/2+lambda)

    as f.reflect() == f for f = lambda c_{2p}.  The generator's theta^{2p}
    coefficient is (-1)^p c_{2p}, a sign common to both sides.

    Returns the ``symmetry`` report's row: ``modulus_ok``, the even
    ``orders``, ``coefficient_ok``, the ``first_violation`` (None when
    there is none) and ``ok``, both identities holding.
    """
    modeq.require_symbolic("upwind_symmetry_check")
    orders = list(range(2, modeq.order + 1, 2))
    first_violation = next((p for p in orders
                            if (f := modeq.coeff(p).shift_up()).reflect() != f), None)
    modulus_ok = all(m.reflect() == m for m in _modulus_table(catalog_scheme("upwind_euler")))
    return {
        "modulus_ok": modulus_ok,
        "orders": orders,
        "coefficient_ok": first_violation is None,
        "first_violation": first_violation,
        "ok": modulus_ok and first_violation is None,
    }
