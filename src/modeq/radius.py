"""Convergence-radius estimation for the Fourier generator series.

Two deliberately independent methods:

* the root test fits the decay rate of the exact generator coefficients
  (only the modified equation is consulted);
* the zero search locates the complex zero of the symbol S nearest the
  origin (only the symbol is consulted) -- S is entire, so the principal
  logarithm is obstructed exactly at zeros of S.  With w = e^{i theta} the
  symbol times a power of w is a polynomial Q(w) whose coefficients are the
  exact a_p(lambda), built in ``derivation`` (``symbol_polynomial``),
  so the zeros are mapped from the roots of Q: there is no search box, and
  an infinite radius (Q without nonzero roots) is proven, not inferred.
  The root finder gets the integer coefficients of Q's square-free part
  (``LambdaPoly.square_free``), so a multiple zero of S is a simple root.
  Its Durand-Kerner iteration starts from float roots of that part, so it
  only refines them to 50 digits, unless two of them nearly coincide.

Disagreement between the two flags a bug.  For the heat scheme a closed
form gives a third value.  Each method returns the entry that the
``radius`` report writes for it, a dict with its keys in report order
(``_estimate``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np
from mpmath import mp

from .derivation import CrossCheckError, ModifiedEq, symbol_polynomial
from .schemes import SchemeSpec
from .spectra import Number, eval_symbol, require_lambda

__all__ = [
    "ZeroSearchError",
    "radius_root_test",
    "require_root_test_order",
    "radius_zero_search",
    "heat_closed_form_radius",
]


class ZeroSearchError(CrossCheckError):
    """The root finder did not converge on the symbol polynomial Q."""


def _estimate(value: float, method: str, coefficients_used: int, residual: float,
              zero: Optional[complex] = None, all_coefficients_zero: bool = False,
              polynomial_tail: bool = False) -> dict:
    """One radius report entry, keys in report order: ``value`` (> 0, the
    string ``"inf"`` for an infinite radius), ``method`` ("root_test",
    "zero_search" or "closed_form") and how it was obtained."""
    return {
        "value": "inf" if math.isinf(value) else value,
        "method": method,
        "diagnostics": {
            "coefficients_used": coefficients_used,
            "residual": residual,
            "zero": None if zero is None else {"re": zero.real, "im": zero.imag},
            "all_coefficients_zero": all_coefficients_zero,
            "polynomial_tail": polynomial_tail,
        },
    }


# ---------------------------------------------------------------------------
# Root test
# ---------------------------------------------------------------------------

def _log_fraction(num: int, den: int) -> float:
    """log(num/den) for positive integers, robust to huge numerators/denominators."""
    return (num.bit_length() - den.bit_length()) * math.log(2) + math.log(
        num / (1 << num.bit_length())
    ) - math.log(den / (1 << den.bit_length()))


# the fewest coefficients the root test fits a decay rate to
ROOT_TEST_MIN_ORDER = 16


def require_root_test_order(scheme_name: str, order: int) -> None:
    """Raise ``ValueError`` when ``order`` is below ``ROOT_TEST_MIN_ORDER``."""
    if order < ROOT_TEST_MIN_ORDER:
        raise ValueError(f"scheme {scheme_name}: the root test needs a modified "
                         f"equation of order >= {ROOT_TEST_MIN_ORDER}, got N = {order}")


def radius_root_test(modeq: ModifiedEq, lam: Number) -> dict:
    """Radius from the decay of the generator coefficients c_p(lambda).

    |c_p|^(1/p) -> 1/R, so log|c_p| is fitted against p by least squares
    over the top third of the available nonzero coefficients (zero
    coefficients are skipped but keep their true index).  Magnitudes are
    computed from exact rationals before any float conversion.
    """
    require_root_test_order(modeq.scheme_name, modeq.order)
    lam = Fraction(lam)
    indices: list[int] = []
    logs: list[float] = []
    for p, poly in enumerate(modeq.at(lam), start=1):
        # a constant's integers are reduced already, as a Fraction's would be
        num, den = (poly.nums[0], poly.den) if len(poly.nums) == 1 else \
            poly(lam).as_integer_ratio()
        if not num:
            continue
        indices.append(p)
        # log |c| = log(c^2) / 2 from the reduced c's integers
        logs.append(0.5 * _log_fraction(num ** 2, den ** 2))
    if not indices or indices[-1] <= modeq.order // 2:
        # no nonzero c_p, or the series terminates: the generator is a
        # polynomial, radius infinite
        return _estimate(math.inf, "root_test", len(indices), 0.0,
                         all_coefficients_zero=not indices, polynomial_tail=bool(indices))
    used = max(4, len(indices) // 3)
    ps = np.array(indices[-used:], dtype=float)
    ys = np.array(logs[-used:])
    slope, intercept = np.polyfit(ps, ys, 1)
    fit = slope * ps + intercept
    residual = float(np.sqrt(np.mean((fit - ys) ** 2)))
    return _estimate(math.exp(-slope), "root_test", used, residual)


# ---------------------------------------------------------------------------
# Zero search
# ---------------------------------------------------------------------------

# working digits for the roots of Q: the first, then each later one only
# after the root finder failed to converge at the one before
_ROOT_DPS = (50, 100, 200)
# float seeds closer than this, relative to the larger of 1 and their
# moduli, mark a near multiple root: the root finder then starts from its
# own points
_SEED_SEPARATION = 1e-6


def _float_seeds(nums: tuple) -> Optional[list]:
    """Durand-Kerner starting points for the integer polynomial ``nums`` (by
    increasing power): its float roots, from ``numpy.roots`` on the
    coefficients divided by the largest.  None unless there are as many as
    its degree, all finite and each pair apart by more than
    ``_SEED_SEPARATION`` * max(1, |r_i|, |r_j|)."""
    big = max([abs(c) for c in nums])
    roots = np.roots([c / big for c in reversed(nums)])
    if len(roots) != len(nums) - 1 or not np.all(np.isfinite(roots)):
        return None
    gaps = np.abs(np.subtract.outer(roots, roots)) + np.diag(np.full(len(roots), np.inf))
    sizes = np.maximum(1.0, np.abs(roots))
    if not np.all(gaps > _SEED_SEPARATION * np.maximum.outer(sizes, sizes)):
        return None
    return [mp.mpc(r) for r in roots.tolist()]


def radius_zero_search(scheme: SchemeSpec, lam: Number) -> dict:
    """Radius as the modulus of the symbol zero nearest the origin.

    With w = e^{i theta}, Q(w) = w^n * S is a polynomial with exact rational
    coefficients at rational lambda (a float lambda is taken at its exact
    binary value).  The zeros of S are theta = -i ln w + 2 pi k for the
    nonzero roots w of Q, found by ``mpmath.polyroots`` (Durand-Kerner) at
    raised precision.  It starts from Q's float roots (``_float_seeds``),
    or from its own points where two of them nearly coincide, and it is
    retried at 100 and then 200 digits when it does not converge at 50.
    Each rung carries the digits by which Q's roots may lie below 1, less
    ten.  There is no search box: a Q without nonzero roots proves R
    infinite.

    Ties in modulus go to the smaller real part, then the smaller imaginary
    part (so -pi rather than +pi).  The radius is the modulus of that zero
    taken at the root finder's digits and rounded once, not the modulus of
    its rounded parts.  ``coefficients_used`` is the number of
    nonzero roots of Q with multiplicity; ``residual`` is |S| at the zero in
    double precision, an independent check.  Raises ``ZeroSearchError``
    when the root finder does not converge at any of the digits.
    """
    require_lambda(scheme.name, lam, positive=True)
    q = symbol_polynomial(scheme, Fraction(lam))
    # the roots of Q, each simple, which polyroots finds to full precision
    # even where S has a multiple zero; it makes them monic
    nums = q.square_free().nums
    seeds = _float_seeds(nums)
    # polyroots stops on an absolute step size and rounds a root below
    # 10^-dps to 0: add the digits by which the Cauchy lower bound
    # |a_0| / (|a_0| + max_k |a_k|) on |w| lies below 1, past the ten every
    # rung resolves anyway
    low = abs(nums[0])
    extra = max(0, math.ceil(math.log10(low + max(map(abs, nums[1:]), default=0))
                             - math.log10(low)) - 10)
    zeros = []
    for dps in _ROOT_DPS:
        with mp.workdps(dps + extra):
            coeffs = [mp.mpf(c) for c in reversed(nums)]
            # polyroots stops on an absolute step size: carry the bits of the
            # Cauchy bound on |w| as extra precision
            bound = 1 + max(abs(c) for c in coeffs) / abs(coeffs[0])
            try:
                roots = mp.polyroots(coeffs, maxsteps=200, roots_init=seeds,
                                     extraprec=10 + int(mp.log(bound, 2)))
            except mp.NoConvergence as exc:
                error = exc
                continue
            for w in roots:
                theta = mp.mpc(mp.arg(w), -mp.log(abs(w)))
                for z in (theta - 2 * mp.pi, theta, theta + 2 * mp.pi):
                    zeros.append((complex(float(z.real), float(z.imag)), z))
        break
    else:
        raise ZeroSearchError(
            f"zero search: no convergence on the degree-{len(q.nums) - 1} symbol "
            f"polynomial of scheme {scheme.name} at lambda={lam}"
        ) from error
    if not zeros:
        return _estimate(math.inf, "zero_search", 0, 0.0)
    best, exact = min(zeros, key=lambda z: (round(abs(z[0]) / 1e-9), z[0].real, z[0].imag))
    with mp.workdps(dps + extra):
        value = float(abs(exact))
    residual = abs(eval_symbol(scheme, lam, best))
    return _estimate(value, "zero_search", len(q.nums) - 1, residual, zero=best)


def heat_closed_form_radius(lam: Number) -> dict:
    """Closed-form radius for the centered heat scheme, for every lambda > 0.

    The symbol 1 - 4 lambda sin^2(theta/2) vanishes where
    sin(theta/2) = 1/(2 sqrt(lambda)).  For lambda >= 1/4 that is the real
    zero 2 asin(1/(2 sqrt(lambda))); below 1/4 the nearest zeros are
    pi +/- 2i acosh(1/(2 sqrt(lambda))).  The branch is taken on the exact
    lambda (a float at its binary value), and the zero and its modulus are
    evaluated at 50 digits and each rounded once.  The symbol is never
    consulted, so this is a third route independent of the root test and
    the zero search.
    """
    require_lambda(None, lam, positive=True)
    x = Fraction(lam)
    with mp.workdps(50):
        u = 1 / (2 * mp.sqrt(mp.mpf(x.numerator) / x.denominator))
        if x < Fraction(1, 4):
            zero = mp.mpc(mp.pi, 2 * mp.acosh(u))
        else:
            zero = mp.mpc(2 * mp.asin(u), 0)
        value = float(abs(zero))
        zero = complex(float(zero.real), float(zero.imag))
    return _estimate(value, "closed_form", 0, 0.0, zero=zero)
