"""Exact arithmetic kernel: polynomials in the mesh ratio lambda with
rational coefficients, and power series in x = i*theta truncated at a fixed
order N, held as the tuple of their N+1 coefficients by increasing power.

For a real stencil the one-step symbol is S(theta) = F(i*theta), where F is
a power series whose coefficients are real polynomials in lambda; so are
ln S and the modified-equation generator.  The kernel therefore works over
the rationals alone: a series here is F in the variable x = i*theta, and
the factor i^p of a theta^p coefficient appears only when a float
evaluation substitutes x = i*theta.

A ``LambdaPoly`` stores integer numerators over one positive denominator and
is reduced by a single gcd, so arithmetic runs on Python ints and equal
polynomials have equal fields.  It is the package's one exact polynomial
type: ``derivation`` builds every exact form of the symbol on it, such as
the |S|^2 cosine table and the symbol polynomial Q(w) whose square-free
part the zero search solves.  A sum of products is formed by
``LambdaPoly.dot`` over one common denominator and reduced once.
Every polynomial product here, in ``dot`` and in the series logarithm, is
one integer loop (``_add_product``) in which the factor with fewer nonzero
coefficients runs the outer loop: in the series recurrences one factor is a
long coefficient of the result and the other a symbol coefficient of a few
terms, and the cost is the outer factor's nonzero count times the inner
factor's length.

The series logarithm is a coefficient recurrence from L' S = S' (Brent and
Kung 1978, "Fast algorithms for manipulating formal power series"): each
order costs one sum of products, so a series of order N costs O(N^2)
polynomial products.  ``series_log`` runs on exponential-generating
coefficients over one denominator D fixed before the loop, an integer
recurrence with no lcm or gcd inside it.  The coefficients may be
polynomials, or constants for a series taken at a fixed lambda, which run
the same recurrence on plain integers.  Its integers carry D^p p!, of
which the reduced l_p keep only part, so on a lambda^16 stencil it runs
about as fast as a ``dot`` recurrence on reduced polynomials, and on the
catalog schemes faster (README, "Command line").

Everything here is exact, so polynomial identities can be tested by literal
equality.  A float is made from an exact value by rounding it once, by one
kernel: ``LambdaPoly.float_rows`` rounds every polynomial of a list at
each rational lambda of a sequence.
A value of moderate size (every c_p of the catalog schemes up to order 16)
is the exact value rounded by one integer division.  A larger one is first
enclosed by fixed-point Horner with an integer error bound: the double
that both ends round to is the answer, and the precision doubles while
they differ (Ziv 1991, "Fast evaluation of elementary mathematical
functions with correctly rounded last bit"), until it reaches the size of
the exact value, which the exact division then rounds.  Either way the
float is that of the exact fraction, so the two paths give the same bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Union

__all__ = [
    "LambdaPoly",
    "SeriesPreconditionError",
    "InexactDivisionError",
    "series_log",
]

ScalarLike = Union[int, Fraction]


class SeriesPreconditionError(ValueError):
    """A series operation was called outside its admissible domain."""


class InexactDivisionError(ArithmeticError):
    """An exact division had a nonzero remainder."""


def _as_fraction(x: ScalarLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _ratio(x: ScalarLike) -> tuple:
    """Python ints (n, d) in lowest terms with d > 0 and n/d = x, from x's
    own ``as_integer_ratio`` (an int, a float at its binary value, a
    Fraction), through a Fraction for a type without one: a numpy int, whose
    Fraction keeps numpy ints as its parts."""
    ratio = getattr(x, "as_integer_ratio", None)
    if ratio:
        return ratio()
    x = _as_fraction(x)
    return int(x.numerator), int(x.denominator)


# Tuples, including star-arguments, are built from lists here, not from
# generators: CPython allocates a generator's tuple at a guessed length and
# resizes it, which moves memory from one tuple free list to another, so the
# free lists grow with every call until each holds its maximum.


class LambdaPoly:
    """Univariate polynomial in the mesh ratio lambda with rational
    coefficients, built from coefficients by increasing power.  In the
    radius zero search the variable is w = e^{i theta} instead.

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
    def from_nums(cls, nums: list, den: int = 1) -> "LambdaPoly":
        """sum_k nums[k]/den * lambda^k for integers nums and den > 0.  The
        list becomes the polynomial's, so the caller must not reuse it."""
        poly = object.__new__(cls)
        poly._reduce(nums, den)
        return poly

    @classmethod
    def _from_reduced(cls, nums: tuple, den: int) -> "LambdaPoly":
        """The polynomial whose fields are ``nums`` and ``den``, which the
        caller has put in the canonical form already: no gcd is taken."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nums", nums)
        object.__setattr__(poly, "den", den)
        return poly

    def __setattr__(self, name, value) -> None:
        raise AttributeError("LambdaPoly is immutable")

    @staticmethod
    def dot(terms: Iterable[tuple]) -> "LambdaPoly":
        """sum of c * a * b over the triples (c, a, b) of a rational c (an
        int or a Fraction) and two polynomials, over one common denominator
        and reduced once.  Each product is ``_add_product`` on the integer
        numerators with the factor of fewer nonzero coefficients outside, so
        the order of ``a`` and ``b`` never matters to the cost."""
        terms = [(c, a, b) if _nonzeros(a.nums) <= _nonzeros(b.nums) else (c, b, a)
                 for c, a, b in terms if c and a.nums and b.nums]
        den = math.lcm(*[c.denominator * a.den * b.den for c, a, b in terms])
        out = [0] * max((len(a.nums) + len(b.nums) - 1 for _, a, b in terms), default=0)
        for c, a, b in terms:
            _add_product(out, c.numerator * (den // (c.denominator * a.den * b.den)),
                         a.nums, b.nums)
        return LambdaPoly.from_nums(out, den)

    @classmethod
    def const(cls, value: ScalarLike) -> "LambdaPoly":
        value = _as_fraction(value)
        return cls.from_nums([value.numerator], value.denominator)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, by increasing power."""
        return tuple([Fraction(a, self.den) for a in self.nums])

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
        return LambdaPoly.from_nums([-a for a in self.nums], self.den)

    def __mul__(self, other: "LambdaPoly") -> "LambdaPoly":
        return LambdaPoly.dot(((1, self, other),))

    def shift_up(self, k: int = 1) -> "LambdaPoly":
        """Multiply by lambda**k."""
        return LambdaPoly.from_nums([0] * k + list(self.nums), self.den) if self else self

    def divide_by_lambda(self) -> "LambdaPoly":
        """Exact division by lambda; the constant term must vanish."""
        if not self:
            return self
        if self.nums[0]:
            raise InexactDivisionError(
                f"polynomial {self} has nonzero constant term, not divisible by lambda"
            )
        return LambdaPoly.from_nums(list(self.nums[1:]), self.den)

    def reflect(self) -> "LambdaPoly":
        """p(1 - lambda): a Taylor shift by 1 on the integer numerators, then
        the odd powers negated."""
        a = list(self.nums)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += a[j + 1]
        return LambdaPoly.from_nums([-c if k & 1 else c for k, c in enumerate(a)], self.den)

    def square_free(self) -> "LambdaPoly":
        """p / gcd(p, p') up to a positive rational factor, for p nonzero: the
        roots of p, each simple.  Euclid runs on primitive integer
        pseudo-remainders, so no Fraction is formed."""
        a, b = self.nums, [k * c for k, c in enumerate(self.nums)][1:]
        while b:
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        quot = _pseudo_divmod(self.nums, a if a[-1] > 0 else [-c for c in a])[0]
        return LambdaPoly.from_nums(_primitive(quot))

    def _num_den(self, n: int, d: int) -> tuple:
        """Integers (num, den) with den > 0 and num/den = self(n/d) for
        d > 0, unreduced: an integer Horner scheme on the homogenized
        numerator."""
        acc, dpow = 0, 1
        for a in reversed(self.nums):
            acc = acc * n + a * dpow
            dpow *= d
        return acc, self.den * dpow // d

    def __call__(self, lam: ScalarLike) -> Fraction:
        """Exact evaluation at a rational point."""
        if not self:
            return Fraction(0)
        return Fraction(*self._num_den(*_ratio(lam)))

    @staticmethod
    def float_rows(polys: Iterable["LambdaPoly"], lams: Iterable[ScalarLike]) -> Iterator[list]:
        """For each lambda of ``lams`` in order, the list of the values of
        ``polys`` at it, each exact value rounded once, as a generator.  The
        ratio n/d of lambda is taken once.  A value whose ``size``, its degree
        times the bits of n and d, is below ``_ZIV_MIN_BITS`` is the exact
        value, homogenized integer Horner over den * d^degree, rounded by one
        int / int division, which Python rounds correctly; a larger one tries
        ``_ziv`` first.  Raises ``OverflowError`` at the first value beyond
        the float range."""
        # each polynomial's leading coefficient, then the others by decreasing
        # power; the zero polynomial as the constant 0, which rounds to +0.0
        terms = [(rev[0], rev[1:], p.den) for p in polys for rev in [p.nums[::-1] or (0,)]]
        for lam in lams:
            n, d = _ratio(lam)
            bits = n.bit_length() + d.bit_length()
            row = []
            for acc, rest, den in terms:
                size = len(rest) * bits
                if size >= _ZIV_MIN_BITS:
                    value = _ziv(acc, rest, den, n, d, size)
                    if value is not None:
                        row.append(value)
                        continue
                dpow = 1
                for a in rest:
                    dpow *= d
                    acc = acc * n + a * dpow
                row.append(acc / (den * dpow))
            yield row

    @staticmethod
    def render_terms(coeffs: Iterable[ScalarLike]) -> str:
        """The sum of c*lambda^k over the coefficients c by increasing power
        k, e.g. ``1/2-lambda^2``: zero terms and a coefficient of 1 are left
        out, and no term at all renders as ``0``."""
        parts: list[str] = []
        for k, c in enumerate(coeffs):
            if not c:
                continue
            term = str(abs(c))
            if k:
                power = "lambda" if k == 1 else f"lambda^{k}"
                term = power if term == "1" else f"{term}*{power}"
            parts.append(("-" if c < 0 else "+") + term)
        return "".join(parts).lstrip("+") or "0"

    def __str__(self) -> str:
        """Canonical rendering over the common integer denominator,
        e.g. ``(1-6*lambda)/12``."""
        body = self.render_terms(self.nums)
        if self.den == 1:
            return body
        if len(self.nums) - self.nums.count(0) > 1:
            body = f"({body})"
        return f"{body}/{self.den}"


# _ziv's first fixed-point precision, and the size below which float_rows
# rounds the exact value at once: measured on catalog and lambda^16 stencils,
# the exact path was the faster one below it and the slower one above it
_ZIV_START_BITS = 64
_ZIV_MIN_BITS = 2048


def _ziv(lead: int, rest: tuple, den: int, n: int, d: int, size: int):
    """The double that the polynomial of integer coefficients ``lead``, then
    ``rest`` by decreasing power, over ``den`` rounds to at n/d, by Ziv's
    rising precision: Horner in ``prec``-bit fixed point with an integer
    error bound, ``prec`` doubling until both ends of the enclosure round to
    one double, which the value then rounds to too, since rounding is
    monotonic.  None once ``prec`` reaches ``size`` or the enclosure leaves
    the float range."""
    prec = _ZIV_START_BITS
    while prec < size:
        # xf = floor(2^prec x) misses 2^prec x by less than t, where t = 1
        # unless the division is exact
        xf, rem = divmod(n << prec, d)
        t = 1 if rem else 0
        xb = abs(xf) + 3 * t
        # acc = 2^prec h + e with |e| <= err for the Horner value h; then
        # acc xf / 2^prec misses 2^prec h x by at most
        # (err (|xf| + 3t) + t |acc|) / 2^prec, and the shift's floor by < 1
        acc, err = lead << prec, 0
        for a in rest:
            err = ((err * xb + (abs(acc) if t else 0)) >> prec) + 2
            acc = (acc * xf >> prec) + (a << prec)
        shifted = den << prec
        try:
            lo, hi = (acc - err) / shifted, (acc + err) / shifted
        except OverflowError:
            return None
        if lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi):
            return lo
        prec *= 2
    return None


def _add_product(out: list, f: int, a, b) -> None:
    """out += f * a * b in place, for an int f and integer coefficient
    sequences by increasing power, ``out`` at least len(a) + len(b) - 1
    long.  ``a`` runs the outer loop and its zero coefficients are skipped,
    so the product costs a's nonzero count times b's length: callers put
    the sparser factor first."""
    for j, x in enumerate(a):
        if x:
            x *= f
            for k, y in enumerate(b, j):
                out[k] += x * y


def _nonzeros(nums) -> int:
    return len(nums) - nums.count(0)


def _primitive(nums: list) -> list:
    """Integers divided by their gcd."""
    g = math.gcd(*nums)
    return [c // g for c in nums] if g > 1 else nums


def _pseudo_divmod(a: list, b: list) -> tuple:
    """(q, r) with m a = q b + r, deg r < deg b, for integer polynomials by
    increasing power, where m is a power of b's leading coefficient."""
    q, r = [0] * max(len(a) - len(b) + 1, 0), list(a)
    while len(r) >= len(b):
        shift, lead = len(r) - len(b), r.pop()
        q = [b[-1] * c for c in q]
        q[shift] += lead
        r = [b[-1] * x for x in r]
        for k, y in enumerate(b[:-1], shift):
            r[k] -= lead * y
        while r and not r[-1]:
            r.pop()
    return q, r


LP_ZERO = LambdaPoly()
LP_ONE = LambdaPoly.const(1)


def series_log(s: tuple) -> tuple:
    """Logarithm of a series with constant term 1, by one integer recurrence
    on exponential-generating coefficients.

    Every coefficient is s_r = M_r / (D r!) for integer polynomials M_r and
    one common denominator D > 0: for a symbol series D divides the
    stencil's denominator, times d^e when lambda = n/d is fixed.  With
    p! l_p = Lam_p / D^p, the x^(p-1) coefficient of L' S = S' gives

        Lam_p = M_p D^(p-1) - sum_{0<k<p} C(p-1, k-1) Lam_k M_{p-k} D^(p-k-1)

    in integers.  It is summed by Horner's rule in D from k = 1, so each
    product's weight is a binomial and D multiplies the partial sum.  No lcm
    or gcd is taken inside the loop; each l_p = Lam_p / (D^p p!) is reduced
    once.  O(N^2) polynomial products for order N; for a series of
    constants they are products of plain ints, with no list or call.
    """
    if not s or s[0] != LP_ONE:
        raise SeriesPreconditionError("series_log requires constant term 1")
    facts = [1]
    for r in range(1, len(s)):
        facts.append(facts[-1] * r)
    den = math.lcm(*[c.den // math.gcd(c.den, f) for c, f in zip(s, facts)])
    m = [[a * (f * den // c.den) for a in c.nums] for c, f in zip(s, facts)]
    dpow = [1]
    for _ in s:
        dpow.append(dpow[-1] * den)
    if all([len(x) <= 1 for x in m]):
        # constants, as for a series at a fixed lambda: the same recurrence
        # on plain integers
        mc, lams, out = [x[0] if x else 0 for x in m], [0], [LP_ZERO]
        for p in range(1, len(s)):
            row, shift = mc[p], 0
            for k in range(1, p):
                shift += 1
                if lams[k] and mc[p - k]:
                    row = row * dpow[shift] - math.comb(p - 1, k - 1) * lams[k] * mc[p - k]
                    shift = 0
            lams.append(row * dpow[shift])
            out.append(LambdaPoly.from_nums([lams[p]], dpow[p] * facts[p]))
        return tuple(out)
    m_nonzeros = [_nonzeros(x) for x in m]
    # every product fits in the longest Lam_k times the longest M_r
    m_width = max([len(x) for x in m])
    scaled, nonzeros, width = [[]], [0], 0  # the Lam_p, their nonzero counts, longest
    out = [LP_ZERO]
    for p in range(1, len(s)):
        row = m[p] + [0] * (width + m_width - 1 - len(m[p]))
        # Horner's rule: the row is due a factor D^shift, paid before a
        # product is added and at the end, so a zero product costs nothing
        shift = 0
        for k in range(1, p):
            shift += 1
            if not (nonzeros[k] and m_nonzeros[p - k]):
                continue
            if den != 1:
                row = [x * dpow[shift] for x in row]
            shift = 0
            if nonzeros[k] <= m_nonzeros[p - k]:
                _add_product(row, -math.comb(p - 1, k - 1), scaled[k], m[p - k])
            else:
                _add_product(row, -math.comb(p - 1, k - 1), m[p - k], scaled[k])
        if shift and den != 1:
            row = [x * dpow[shift] for x in row]
        while row and not row[-1]:
            row.pop()
        scaled.append(row)
        nonzeros.append(_nonzeros(row))
        width = max(width, len(row))
        out.append(LambdaPoly.from_nums(list(row), dpow[p] * facts[p]))
    return tuple(out)

