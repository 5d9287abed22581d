"""Exact arithmetic kernel: polynomials in the mesh ratio lambda with
rational coefficients, and power series in x = i*theta truncated at a fixed
order.

For a real stencil the one-step symbol is S(theta) = F(i*theta), where F is
a power series whose coefficients are real polynomials in lambda; so are
ln S and the modified-equation generator.  The kernel therefore works over
the rationals alone: a series here is F in the variable x = i*theta, and
the factor i^p of a theta^p coefficient appears only when a float
evaluation substitutes x = i*theta.

A ``LambdaPoly`` stores integer numerators over one positive denominator and
is reduced by a single gcd, so arithmetic runs on Python ints and equal
polynomials have equal fields.  A sum of products, the inner step of every
series recurrence, is formed by ``LambdaPoly.dot`` over one common
denominator and reduced once.

The series logarithm and exponential are coefficient recurrences from
x*L' = x*S'/S (Brent and Kung 1978, "Fast algorithms for manipulating
formal power series"): each order costs one sum of products, so a series of
order N costs O(N^2) polynomial products.

Everything here is exact, so polynomial identities can be tested by literal
equality.  A float is made from an exact value by rounding it once, and that
happens outside this module: c_p(lambda) is evaluated exactly at the
rational value of lambda first (``LambdaPoly.__call__``).
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


# Tuples, including star-arguments, are built from lists here, not from
# generators: CPython allocates a generator's tuple at a guessed length and
# resizes it, which moves memory from one tuple free list to another, so the
# free lists grow with every call until each holds its maximum.


class LambdaPoly:
    """Univariate polynomial in the mesh ratio lambda with rational
    coefficients, built from coefficients by increasing power.

    Stored canonically as integer numerators ``nums`` by increasing power
    over one denominator ``den`` > 0, with trailing zeros trimmed and
    gcd(nums, den) = 1; the zero polynomial is ``()`` over 1.  So ``den`` is
    the least common denominator of the coefficients, and equal polynomials
    compare and hash equal.  Instances are immutable.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()) -> None:
        cs = [_as_fraction(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        self._reduce([c.numerator * (den // c.denominator) for c in cs], den)

    def _reduce(self, nums: list, den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [a // g for a in nums]
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den // g if nums else 1)

    @classmethod
    def _of(cls, nums: list, den: int = 1) -> "LambdaPoly":
        """sum_k nums[k]/den * lambda^k for integers nums and den > 0."""
        poly = object.__new__(cls)
        poly._reduce(nums, den)
        return poly

    def __setattr__(self, name, value) -> None:
        raise AttributeError("LambdaPoly is immutable")

    @staticmethod
    def dot(terms: Iterable[tuple]) -> "LambdaPoly":
        """sum of c * a * b over the triples (c, a, b) of a rational c and
        two polynomials, over one common denominator and reduced once.  Zero
        coefficients of ``a`` are skipped, so the sparser factor goes first."""
        terms = [(c, a, b) for c, a, b in terms if c and a.nums and b.nums]
        den = math.lcm(*[c.denominator * a.den * b.den for c, a, b in terms])
        out = [0] * max((len(a.nums) + len(b.nums) - 1 for _, a, b in terms), default=0)
        for c, a, b in terms:
            f = c.numerator * (den // (c.denominator * a.den * b.den))
            for j, x in enumerate(a.nums):
                if x:
                    x *= f
                    for k, y in enumerate(b.nums, j):
                        out[k] += x * y
        return LambdaPoly._of(out, den)

    @classmethod
    def zero(cls) -> "LambdaPoly":
        return cls._of([])

    @classmethod
    def one(cls) -> "LambdaPoly":
        return cls._of([1])

    @classmethod
    def const(cls, value: ScalarLike) -> "LambdaPoly":
        value = _as_fraction(value)
        return cls._of([value.numerator], value.denominator)

    @classmethod
    def lam(cls) -> "LambdaPoly":
        """The monomial lambda."""
        return cls._of([0, 1])

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, by increasing power."""
        return tuple([Fraction(a, self.den) for a in self.nums])

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"LambdaPoly({self})"

    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        return LambdaPoly.dot(((1, self, LP_ONE), (1, other, LP_ONE)))

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return LambdaPoly.dot(((1, self, LP_ONE), (-1, other, LP_ONE)))

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly._of([-a for a in self.nums], self.den)

    def __mul__(self, other: "LambdaPoly") -> "LambdaPoly":
        return LambdaPoly.dot(((1, self, other),))

    def scale(self, factor: ScalarLike) -> "LambdaPoly":
        return LambdaPoly.dot(((_as_fraction(factor), self, LP_ONE),))

    def shift_up(self, k: int = 1) -> "LambdaPoly":
        """Multiply by lambda**k."""
        return LambdaPoly._of([0] * k + list(self.nums), self.den) if self else self

    def divide_by_lambda(self) -> "LambdaPoly":
        """Exact division by lambda; the constant term must vanish."""
        if not self:
            return self
        if self.nums[0]:
            raise InexactDivisionError(
                f"polynomial {self} has nonzero constant term, not divisible by lambda"
            )
        return LambdaPoly._of(list(self.nums[1:]), self.den)

    def __call__(self, lam: ScalarLike) -> Fraction:
        """Exact evaluation at a rational point, by an integer Horner scheme
        on the homogenized numerator."""
        if not self:
            return Fraction(0)
        x = _as_fraction(lam)
        acc, dpow = 0, 1
        for a in reversed(self.nums):
            acc = acc * x.numerator + a * dpow
            dpow *= x.denominator
        return Fraction(acc, self.den * dpow // x.denominator)

    def __str__(self) -> str:
        return self.to_string()

    def to_string(self, var: str = "lambda") -> str:
        """Canonical rendering over the common integer denominator,
        e.g. ``(1-6*lambda)/12``."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k, a in enumerate(self.nums):
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
        if self.den == 1:
            return body
        if len(parts) > 1:
            body = f"({body})"
        return f"{body}/{self.den}"


LP_ZERO = LambdaPoly.zero()
LP_ONE = LambdaPoly.one()


@dataclass(frozen=True, slots=True)
class ThetaSeries:
    """Power series in x = i*theta truncated at a fixed order N.

    ``coeffs[p]`` is the LambdaPoly multiplying x**p; the tuple always has
    length N+1.  The product is the Cauchy product with terms beyond x**N
    discarded; operands of different orders are rejected rather than
    silently extended.
    """

    coeffs: tuple

    def __post_init__(self) -> None:
        cs = tuple([c if isinstance(c, LambdaPoly) else LambdaPoly.const(c) for c in self.coeffs])
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

    def __mul__(self, other: "ThetaSeries") -> "ThetaSeries":
        if self.order != other.order:
            raise OrderMismatchError(f"series orders differ: {self.order} vs {other.order}")
        a, b = self.coeffs, other.coeffs
        return ThetaSeries([LambdaPoly.dot((1, a[j], b[p - j]) for j in range(p + 1))
                            for p in range(self.order + 1)])


def series_log(s: ThetaSeries) -> ThetaSeries:
    """Logarithm of a series with constant term 1.

    L = ln S satisfies x*L' * S = x*S', whose x^p coefficient gives

        p*l_p = p*s_p - sum_{0<k<p} k*l_k*s_{p-k}

    so each l_p is one sum of products of known coefficients: O(N^2)
    polynomial products for order N.
    """
    if s.coeffs[0] != LP_ONE:
        raise SeriesPreconditionError("series_log requires constant term 1")
    c, out = s.coeffs, [LP_ZERO]
    for p in range(1, s.order + 1):
        out.append(LambdaPoly.dot([(1, c[p], LP_ONE)] +
                                  [(Fraction(-k, p), out[k], c[p - k]) for k in range(1, p)]))
    return ThetaSeries(tuple(out))


def series_exp(s: ThetaSeries) -> ThetaSeries:
    """Exponential of a series with constant term 0.

    E = exp(S) satisfies x*E' = x*S' * E, so p*e_p = sum_{0<k<=p} k*s_k*e_{p-k}
    with e_0 = 1: O(N^2) polynomial products for order N.
    """
    if not s.coeffs[0].is_zero:
        raise SeriesPreconditionError("series_exp requires constant term 0")
    c, out = s.coeffs, [LP_ONE]
    for p in range(1, s.order + 1):
        out.append(LambdaPoly.dot((Fraction(k, p), c[k], out[p - k]) for k in range(1, p + 1)))
    return ThetaSeries(tuple(out))
