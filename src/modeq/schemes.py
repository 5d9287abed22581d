"""Scheme model, text-format parser, and the builtin catalog,
whose schemes are texts in that format read by the same parser.

A scheme is the explicit one-step update

    u_j^{n+1} = u_j^n + lambda * sum_p B_p(lambda) u_{j+p}^n

for the mesh ratio lambda = dt/dx^q, together with the target PDE

    u_t + sum_p A_p d^p u/dx^p = 0.

Stencil weights are lambda-polynomials so that schemes whose coefficients
depend on the mesh ratio (Lax-Wendroff) fit the same form.  A Fourier mode
e^{i j theta} is multiplied per step by the symbol

    S(theta) = sum_p a_p(lambda) e^{i p theta},   a_p = [p = 0] + lambda B_p(lambda),

whose exact coefficients ``SchemeSpec.symbol`` holds; the derivation, the
float evaluations, the zero search and the grid stepping all read them.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .exactalg import LP_ONE, LP_ZERO, LambdaPoly

__all__ = [
    "SchemeSpec",
    "SchemeError",
    "SchemeParseError",
    "SchemeConsistencyError",
    "parse_scheme",
    "builtin_catalog",
    "catalog_scheme",
]


class SchemeError(ValueError):
    """Invalid scheme input (syntax or semantic)."""


class SchemeParseError(SchemeError):
    """Syntax error in a scheme file, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SchemeConsistencyError(SchemeError):
    """The stencil violates a structural invariant (e.g. sum B_p != 0)."""


@dataclass(frozen=True)
class SchemeSpec:
    """Validated scheme: name, exponent q, stencil weights and target PDE.

    ``stencil`` and ``pde`` may be passed as mappings or as tuples of
    pairs, in any order; both are normalized to tuples sorted by offset or
    order, so the value is immutable and hashable and equal to its parsed
    rendering.
    """

    name: str
    q: int
    stencil: tuple  # ((offset, LambdaPoly), ...) sorted by offset
    pde: tuple      # ((order, Fraction), ...) sorted by order

    def __post_init__(self) -> None:
        stencil, pde = (terms.items() if isinstance(terms, Mapping) else terms
                        for terms in (self.stencil, self.pde))
        # sorted by key alone, so a duplicate offset or order reaches _validate
        stencil = sorted(
            ((int(p), w if isinstance(w, LambdaPoly) else LambdaPoly.const(w))
             for p, w in stencil), key=lambda term: term[0])
        pde = sorted(((int(p), Fraction(a)) for p, a in pde), key=lambda term: term[0])
        object.__setattr__(self, "stencil", tuple(stencil))
        object.__setattr__(self, "pde", tuple(pde))
        self._validate()

    def _validate(self) -> None:
        if not isinstance(self.q, int) or self.q < 1:
            raise SchemeError(f"q must be a positive integer, got {self.q!r}")
        if not self.stencil:
            raise SchemeError("stencil is empty")
        offsets = [p for p, _ in self.stencil]
        if len(set(offsets)) != len(offsets):
            raise SchemeError("duplicate stencil offset")
        if not any(w for _, w in self.stencil):
            raise SchemeError("stencil has no nonzero weight")
        if not self.pde:
            raise SchemeError("no target PDE coefficient declared")
        if any(p < 1 for p, _ in self.pde):
            raise SchemeError("PDE derivative orders must be >= 1")
        orders = [p for p, _ in self.pde]
        if len(set(orders)) != len(orders):
            raise SchemeError("duplicate PDE order")
        total = LP_ZERO
        for _, w in self.stencil:
            total = total + w
        if total:
            raise SchemeConsistencyError(
                f"stencil weights must sum to zero, got {total}"
            )

    @functools.cached_property
    def symbol(self) -> tuple:
        """The one-step symbol S(theta) = sum_p a_p(lambda) e^{i p theta} as
        ((p, a_p), ...) sorted by offset, with a_p = [p = 0] + lambda B_p.

        Offset 0 is always present; the a_p sum to 1 because the weights sum
        to zero.  Every exact or float form of S is built from this table.
        """
        table = {p: w.shift_up() for p, w in self.stencil}
        table[0] = table.get(0, LP_ZERO) + LP_ONE
        return tuple(sorted(table.items()))

    @property
    def pde_order(self) -> int:
        return max(p for p, _ in self.pde)

    @property
    def n_left(self) -> int:
        return -self.symbol[0][0]

    @property
    def n_right(self) -> int:
        return self.symbol[-1][0]


# ---------------------------------------------------------------------------
# Text format
#
#   scheme <identifier>
#   q = <positive integer>
#   pde A[<order>] = <rational>          (repeatable)
#   stencil B[<offset>] = <poly>         (repeatable; |offset| <= MAX_STENCIL_OFFSET)
#
# <poly> is a sum of terms  [sign] [rational] [[*] lambda[^k]], each with a
# rational or lambda and a sign before all but the first; k <= MAX_LAMBDA_POWER;
# '#' starts a comment; rationals are "a/b" or integers.
# ---------------------------------------------------------------------------

_RAT = r"-?\d+(?:/\d+)?"
_LINE_PATTERNS = {
    "scheme": re.compile(r"scheme\s+([A-Za-z_][A-Za-z0-9_]*)\s*$"),
    "q": re.compile(r"q\s*=\s*(-?\d+)\s*$"),
    "pde": re.compile(rf"pde\s+A\[(-?\d+)\]\s*=\s*({_RAT})\s*$"),
    "stencil": re.compile(r"stencil\s+B\[(-?\d+)\]\s*=\s*(.+?)\s*$"),
}

# Highest lambda power of a stencil weight: the degrees of every derived
# coefficient grow with it, so it bounds the cost of a scheme file.
MAX_LAMBDA_POWER = 16
# Largest stencil offset |p|: the zero search solves a polynomial of degree
# up to twice this, and the grid evolution needs the stencil to fit its grid.
MAX_STENCIL_OFFSET = 32

# one term of <poly>; '*' may only join a rational to lambda
_TERM = re.compile(
    r"\s*(?P<sign>[-+]?)\s*(?P<rat>\d+(?:/\d+)?)?"
    r"(?P<lam>(?(rat)\s*\*?\s*)lambda(?:\s*\^\s*(?P<power>\d+))?)?"
)


def _rational(text: str, line_no: int, column: int) -> Fraction:
    """Convert an integer or ``a/b`` literal.  A zero denominator, or a number
    longer than Python's int-string conversion limit (4300 digits by
    default), is a parse error at the literal's column."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise SchemeParseError(f"zero denominator in {text!r}", line_no, column) from None
    except ValueError:
        raise SchemeParseError(
            f"number of {len(text)} characters exceeds Python's int-string conversion limit",
            line_no, column) from None


def _parse_poly(text: str, line_no: int, col0: int) -> LambdaPoly:
    """Parse a sum of terms; col0 is the 1-based column of the text's start."""
    poly, pos = LP_ZERO, 0
    while not pos or pos < len(text):
        m = _TERM.match(text, pos)
        unsigned = pos and not m["sign"]
        if unsigned or not (m["rat"] or m["lam"]):
            bad = m.start("sign") if unsigned else m.end()
            found = f"{text[bad]!r} in" if bad < len(text) else "end of"
            raise SchemeParseError(f"unexpected {found} polynomial", line_no, col0 + bad)
        power = int(bool(m["lam"]))
        if m["power"]:
            power = int(_rational(m["power"], line_no, col0 + m.start("power")))
        if power > MAX_LAMBDA_POWER:
            raise SchemeParseError(f"lambda exponent {power} exceeds {MAX_LAMBDA_POWER}",
                                   line_no, col0 + m.start("power"))
        coeff = _rational(m["rat"], line_no, col0 + m.start("rat")) if m["rat"] else 1
        term = LambdaPoly.const(-coeff if m["sign"] == "-" else coeff)
        poly, pos = poly + term.shift_up(power), m.end()
    return poly


def parse_scheme(text: str) -> SchemeSpec:
    """Parse and validate a scheme description in the line-oriented format."""
    name: Optional[str] = None
    q: Optional[int] = None
    stencil: dict[int, LambdaPoly] = {}
    pde: dict[int, Fraction] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(stripped) + 1
        keyword = stripped.split(None, 1)[0]
        pattern = _LINE_PATTERNS.get(keyword)
        if pattern is None:
            raise SchemeParseError(f"unknown directive {keyword!r}", line_no, indent)
        m = pattern.match(stripped)
        if not m:
            raise SchemeParseError(
                f"malformed {keyword!r} directive", line_no, indent
            )
        if keyword == "scheme":
            if name is not None:
                raise SchemeParseError("duplicate 'scheme' line", line_no, indent)
            name = m.group(1)
        elif keyword == "q":
            if q is not None:
                raise SchemeParseError("duplicate 'q' line", line_no, indent)
            q = int(_rational(m.group(1), line_no, indent + m.start(1)))
            if q < 1:
                raise SchemeParseError("q must be >= 1", line_no, indent)
        elif keyword == "pde":
            order = int(_rational(m.group(1), line_no, indent + m.start(1)))
            if order < 1:
                raise SchemeParseError("PDE order must be >= 1", line_no, indent)
            if order in pde:
                raise SchemeParseError(
                    f"duplicate PDE order {order}", line_no, indent
                )
            pde[order] = _rational(m.group(2), line_no, indent + m.start(2))
        else:  # stencil
            offset = int(_rational(m.group(1), line_no, indent + m.start(1)))
            if abs(offset) > MAX_STENCIL_OFFSET:
                raise SchemeParseError(f"stencil offset {offset} exceeds +-{MAX_STENCIL_OFFSET}",
                                       line_no, indent + m.start(1))
            if offset in stencil:
                raise SchemeParseError(
                    f"duplicate stencil offset {offset}", line_no, indent
                )
            stencil[offset] = _parse_poly(m.group(2), line_no, indent + m.start(2))

    if name is None:
        raise SchemeParseError("missing 'scheme' line", 1)
    if q is None:
        raise SchemeParseError("missing 'q' line", 1)
    if not stencil:
        raise SchemeParseError("no stencil entries", 1)
    if not pde:
        raise SchemeParseError("no pde entries", 1)
    return SchemeSpec(name=name, q=q, stencil=stencil, pde=pde)


# ---------------------------------------------------------------------------
# Builtin catalog: scheme texts, parsed once per process like a --file
# scheme and keyed by the name on their first line
# ---------------------------------------------------------------------------

_CATALOG = {text.split(None, 2)[1]: text for text in (
    """\
scheme heat_centered
q = 2
pde A[2] = -1
stencil B[-1] = 1
stencil B[0] = -2
stencil B[1] = 1
""",
    """\
scheme upwind_euler
q = 1
pde A[1] = 1
stencil B[-1] = 1
stencil B[0] = -1
""",
    """\
scheme lax_wendroff   # its stencil weights depend on lambda
q = 1
pde A[1] = 1
stencil B[-1] = 1/2 + 1/2*lambda
stencil B[0] = -lambda
stencil B[1] = -1/2 + 1/2*lambda
""",
)}


def builtin_catalog() -> list[SchemeSpec]:
    """The builtin schemes, in a fixed order."""
    return [catalog_scheme(name) for name in _CATALOG]


@functools.cache
def catalog_scheme(name: str) -> SchemeSpec:
    """The builtin scheme ``name``, parsed from its text on the first lookup;
    later lookups share that immutable value.  An unknown name raises on
    every call, since a raising call is not cached."""
    if name not in _CATALOG:
        raise SchemeError(f"unknown catalog scheme {name!r} (known: {', '.join(_CATALOG)})")
    return parse_scheme(_CATALOG[name])
