"""Exact arithmetic kernel: polynomials in the mesh ratio lambda with
rational coefficients, and power series in x = i*theta truncated at a fixed
order.

For a real stencil the one-step symbol is S(theta) = F(i*theta), where F is
a power series whose coefficients are real polynomials in lambda; so are
ln S and the modified-equation generator.  The kernel therefore works over
the rationals alone: a series here is F in the variable x = i*theta, and
the factor i^p of a theta^p coefficient appears only when a float
evaluation substitutes x = i*theta.

Everything here is exact.  Floating point enters only through the explicit
conversion helper ``eval_float``; all arithmetic is carried out over
arbitrary-precision rationals so that polynomial identities can be tested by
literal equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "LambdaPoly",
    "ThetaSeries",
    "OrderMismatchError",
    "SeriesPreconditionError",
    "InexactDivisionError",
    "series_mul",
    "series_add",
    "series_sub",
    "series_log",
    "series_exp",
]

ScalarLike = Union[int, Fraction]


class OrderMismatchError(ValueError):
    """Arithmetic attempted on series of different truncation orders."""


class SeriesPreconditionError(ValueError):
    """A series operation was called outside its admissible domain."""


class InexactDivisionError(ArithmeticError):
    """An exact division had a nonzero remainder."""


def _as_fraction(x: ScalarLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, slots=True)
class LambdaPoly:
    """Univariate polynomial in the mesh ratio lambda, with Fraction
    coefficients stored by increasing power and trailing zeros trimmed."""

    coeffs: tuple = ()

    def __post_init__(self) -> None:
        cs = [_as_fraction(c) for c in self.coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "LambdaPoly":
        return cls(())

    @classmethod
    def one(cls) -> "LambdaPoly":
        return cls((Fraction(1),))

    @classmethod
    def const(cls, value: ScalarLike) -> "LambdaPoly":
        return cls((value,))

    @classmethod
    def lam(cls) -> "LambdaPoly":
        """The monomial lambda."""
        return cls((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        if not other:
            return self
        if not self:
            return other
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return LambdaPoly(out)

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return self + (-other)

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "LambdaPoly") -> "LambdaPoly":
        if not self or not other:
            return LambdaPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if not a:
                continue
            for k, b in enumerate(other.coeffs):
                if b:
                    out[j + k] = out[j + k] + a * b
        return LambdaPoly(out)

    def scale(self, factor: ScalarLike) -> "LambdaPoly":
        f = _as_fraction(factor)
        if not f:
            return LambdaPoly.zero()
        return LambdaPoly(tuple(c * f for c in self.coeffs))

    def shift_up(self, k: int = 1) -> "LambdaPoly":
        """Multiply by lambda**k."""
        if not self:
            return self
        return LambdaPoly((Fraction(0),) * k + self.coeffs)

    def divide_by_lambda(self) -> "LambdaPoly":
        """Exact division by lambda; the constant term must vanish."""
        if not self:
            return self
        if self.coeffs[0]:
            raise InexactDivisionError(
                f"polynomial {self} has nonzero constant term, not divisible by lambda"
            )
        return LambdaPoly(self.coeffs[1:])

    def __call__(self, lam: ScalarLike) -> Fraction:
        """Exact evaluation at a rational point."""
        x = _as_fraction(lam)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, lam: float) -> float:
        """Floating-point Horner evaluation."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * lam + float(c)
        return acc

    def __str__(self) -> str:
        return self.to_string()

    def to_string(self, var: str = "lambda") -> str:
        """Canonical rendering over a common integer denominator,
        e.g. ``(1-6*lambda)/12``."""
        if self.is_zero:
            return "0"
        denom = 1
        for c in self.coeffs:
            denom = math.lcm(denom, c.denominator)
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            a = int(c * denom)
            if a == 0:
                continue
            coeff = str(abs(a))
            if k == 0:
                term = coeff
            else:
                power = var if k == 1 else f"{var}^{k}"
                term = power if coeff == "1" else f"{coeff}*{power}"
            parts.append(("-" if a < 0 else "+") + term)
        body = "".join(parts).lstrip("+")
        if denom == 1:
            return body
        if len(parts) > 1:
            body = f"({body})"
        return f"{body}/{denom}"


LP_ZERO = LambdaPoly.zero()
LP_ONE = LambdaPoly.one()


@dataclass(frozen=True, slots=True)
class ThetaSeries:
    """Power series in x = i*theta truncated at a fixed order N.

    ``coeffs[p]`` is the LambdaPoly multiplying x**p; the tuple always has
    length N+1.  Arithmetic closes over the order: products are Cauchy
    products with terms beyond x**N discarded, and operands of different
    orders are rejected rather than silently extended.
    """

    coeffs: tuple

    def __post_init__(self) -> None:
        cs = tuple(c if isinstance(c, LambdaPoly) else LambdaPoly.const(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "ThetaSeries":
        return cls((LP_ZERO,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "ThetaSeries":
        return cls((LP_ONE,) + (LP_ZERO,) * order)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, order: int) -> "ThetaSeries":
        """Build a series of the given order, padding with zeros."""
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs += [LP_ZERO] * (order + 1 - len(cs))
        return cls(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def scale(self, factor: ScalarLike) -> "ThetaSeries":
        return ThetaSeries(tuple(c.scale(factor) for c in self.coeffs))

    def __add__(self, other: "ThetaSeries") -> "ThetaSeries":
        return series_add(self, other)

    def __sub__(self, other: "ThetaSeries") -> "ThetaSeries":
        return series_sub(self, other)

    def __mul__(self, other: "ThetaSeries") -> "ThetaSeries":
        return series_mul(self, other)

    def __str__(self) -> str:
        parts = []
        for p, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            body = c.to_string()
            if p == 0:
                parts.append(body)
            else:
                power = "x" if p == 1 else f"x^{p}"
                parts.append(power if body == "1" else f"({body})*{power}")
        return " + ".join(parts) if parts else "0"


def _check_orders(a: ThetaSeries, b: ThetaSeries) -> None:
    if a.order != b.order:
        raise OrderMismatchError(f"series orders differ: {a.order} vs {b.order}")


def series_add(a: ThetaSeries, b: ThetaSeries) -> ThetaSeries:
    _check_orders(a, b)
    return ThetaSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def series_sub(a: ThetaSeries, b: ThetaSeries) -> ThetaSeries:
    _check_orders(a, b)
    return ThetaSeries(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def series_mul(a: ThetaSeries, b: ThetaSeries) -> ThetaSeries:
    """Cauchy product truncated at the common order."""
    _check_orders(a, b)
    n = a.order
    out = [LP_ZERO] * (n + 1)
    for j, x in enumerate(a.coeffs):
        if x.is_zero:
            continue
        for k in range(n + 1 - j):
            y = b.coeffs[k]
            if y.is_zero:
                continue
            out[j + k] = out[j + k] + x * y
    return ThetaSeries(tuple(out))


def series_log(s: ThetaSeries) -> ThetaSeries:
    """Logarithm of a series with constant term 1.

    Computed as -sum_{m=1..N} (1-s)**m / m, which is exact at order N
    because (1-s)**m contributes only to x-orders >= m.
    """
    if s.coeffs[0] != LP_ONE:
        raise SeriesPreconditionError("series_log requires constant term 1")
    n = s.order
    u = series_sub(ThetaSeries.one(n), s)
    total = ThetaSeries.zero(n)
    power = None
    for m in range(1, n + 1):
        power = u if power is None else series_mul(power, u)
        if power.is_zero:
            break
        total = series_add(total, power.scale(Fraction(1, m)))
    return ThetaSeries(tuple(-c for c in total.coeffs))


def series_exp(s: ThetaSeries) -> ThetaSeries:
    """Exponential of a series with constant term 0, summed exactly
    through order N."""
    if not s.coeffs[0].is_zero:
        raise SeriesPreconditionError("series_exp requires constant term 0")
    n = s.order
    total = ThetaSeries.one(n)
    power = ThetaSeries.one(n)
    fact = 1
    for m in range(1, n + 1):
        power = series_mul(power, s)
        if power.is_zero:
            break
        fact *= m
        total = series_add(total, power.scale(Fraction(1, fact)))
    return total
