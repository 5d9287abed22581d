"""Discrete validation: run the actual scheme on a periodic grid and compare
the measured per-mode amplification with the symbol S and its truncated
counterparts S_N.

A discrete Fourier mode is an exact eigenvector of any constant-coefficient
periodic stencil, so the measured one-step ratio must reproduce S(theta) up
to double-precision rounding; larger deviations indicate a broken stencil
application rather than discretization error.  A step applies the rounded
symbol coefficients a_p(lambda) of ``SchemeSpec.symbol`` directly, each
evaluated at the lambda the caller gave (a rational lambda exactly) and
rounded once: the same floats ``spectra.eval_symbol`` sums, which an
evolution rounds once per lambda (``spectra.symbol_weights``).  ``step``
copies the grids once into columns of a buffer with ghost rows at both
ends, so each shift by an offset is a contiguous slice of rows, and it
takes any number of steps in that buffer without allocating.  An evolution
calls it once per run of steps that a growth bound proves free of overflow,
and screens the grids only between runs.

``evolve_and_compare`` returns its table as the CSV columns the CLI
writes, a dict from each header to its column, in CSV order.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .derivation import ModifiedEq
from .schemes import SchemeSpec
from .spectra import (Number, _symbol_basis, _symbol_sum, _theta_coeffs, _truncation,
                      require_lambda, symbol_weights)

__all__ = [
    "step",
    "evolve_and_compare",
    "require_evolution_sizes",
]

_OVERFLOW_LIMIT = 1e300
# no modulus passes _OVERFLOW_LIMIT while every part is below this bound
_SCREEN_LIMIT = _OVERFLOW_LIMIT / 1.5
# grid values per block of modes: the default 64-mode grid is one block
_BLOCK_VALUES = 4096


def step(weights: list, u, count: int = 1) -> np.ndarray:
    """``count`` explicit updates u_j <- sum_p a_p u_{(j+p) mod M} of a
    periodic grid of complex samples u_j, j in [0, M), or of each row of a
    2-D array, into a fresh array of u's shape (no in-place aliasing).
    ``weights`` is the list of (p, a_p) by offset that
    ``spectra.symbol_weights`` gives.

    The grids are copied once into a column buffer, grid point j in row
    ``lo + j`` and one column per grid, with ``lo`` ghost rows above (the
    last points) and ``hi`` below (the first), ``lo = max(-p_min, 0)`` and
    ``hi = max(p_max, 0)``.  An update writes sum_p a_p (rows shifted by
    p) into a second buffer, in offset order and without a zero start, then
    the two swap: every slice is contiguous, and no update allocates.  The
    values are those of summing ``a_p * np.roll(u, -p, axis=-1)`` from zero,
    except that a part which is exactly zero may differ in its sign.  A
    stencil is refused where its offsets and 0 span M points or more
    (``lo + hi >= M``)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (1, 2) or u.shape[-1] < 4:
        raise ValueError("grid must be one row, or rows, of at least 4 points")
    size = u.shape[-1]
    lo, hi = max(-weights[0][0], 0), max(weights[-1][0], 0)
    if lo + hi >= size:
        raise ValueError(f"stencil width {lo + hi} does not fit a grid of {size} points")
    grid = np.empty((lo + size + hi, u.size // size), dtype=complex)
    grid[lo:lo + size] = u.reshape(-1, size).T
    spare = np.empty_like(grid)
    product = np.empty_like(grid[:size])
    (first, a_first), *rest = weights
    for _ in range(count):
        grid[:lo] = grid[size:size + lo]
        grid[lo + size:] = grid[lo:lo + hi]
        acc = spare[lo:lo + size]
        np.multiply(a_first, grid[lo + first:lo + first + size], out=acc)
        for p, a in rest:
            np.multiply(a, grid[lo + p:lo + p + size], out=product)
            acc += product
        grid, spare = spare, grid
    return grid[lo:lo + size].T.copy().reshape(u.shape)


def mode_grid(m, size: int) -> np.ndarray:
    """Grid holding the single Fourier mode e^{2 pi i m j / size}; for an
    array of modes m, one such grid per row."""
    j = np.arange(size)
    return np.exp(2j * math.pi * np.asarray(m)[..., np.newaxis] * j / size)


def _power(base: float, n: int) -> float:
    try:
        return base**n
    except OverflowError:
        return math.inf


def _relative_gap(predicted: float, measured: float) -> float:
    # decayed modes are compared on an O(1) scale so a mode that reached
    # zero does not register as a 100% discrepancy
    if math.isinf(measured) or math.isinf(predicted):
        return math.inf
    return abs(predicted - measured) / max(measured, 1.0)


def _run_length(top: float, growth: float, remaining: int) -> int:
    """The most steps k, at least 1 and at most ``remaining``, with
    top growth^k < ``_SCREEN_LIMIT`` (1 where top is inf or NaN)."""
    count, bound = 1, top * growth
    while count < remaining and bound * growth < _SCREEN_LIMIT:
        bound *= growth
        count += 1
    return count


def require_evolution_sizes(scheme: SchemeSpec, steps: int, gridsize: int) -> None:
    """Raise ``ValueError`` for ``steps`` < 0, ``gridsize`` < 4 or a stencil
    as wide as the grid, which ``step`` would refuse."""
    if steps < 0:
        raise ValueError(f"scheme {scheme.name}: steps must be >= 0")
    if gridsize < 4:
        raise ValueError(f"scheme {scheme.name}: the grid needs at least 4 points, "
                         f"got gridsize = {gridsize}")
    if (width := scheme.n_left + scheme.n_right) >= gridsize:
        raise ValueError(f"scheme {scheme.name}: stencil width {width} does not fit a grid "
                         f"of {gridsize} points")


def evolve_and_compare(
    scheme: SchemeSpec,
    modeq: ModifiedEq,
    lam: Number,
    order: int,
    steps: int,
    gridsize: int,
) -> tuple[dict[str, list], tuple[Optional[int], ...]]:
    """Evolve every Fourier mode for ``steps`` steps and compare the measured
    modulus growth with |S|^steps and |S_N|^steps.  Returns the table's
    columns, a dict from each CSV header (``mode``, ``theta``,
    ``measured``, ``predicted_S``, ``predicted_SN``, ``gap_S``, ``gap_SN``)
    to a list with one entry per mode, in mode order, and the step at
    which each mode diverged, None for a mode that did not.

    The modes are stepped together, in blocks of as many mode grids as fit
    in ``_BLOCK_VALUES`` values, and at least one.
    Modes whose amplitude passes 1e300, or turns NaN (a step whose products
    overflow to infinities of both signs), are flagged as diverged with the
    step index at which that happened, and read ``measured`` inf.  theta is
    folded into (-pi, pi] so the polynomial truncation is evaluated at an
    admissible wavenumber.  The powers and gaps are taken mode by mode on
    Python floats: an array power or modulus can differ in the last bit.

    The steps of a block are taken in runs, one ``step`` call each, and the
    block is screened after each run: when every real and imaginary part x
    of it has |x| < 1e300 / 1.5, no modulus in it passes 1e300, so the
    per-row test of |u| against 1e300 would flag nothing and is skipped.
    The screen is exact: the exact |u| is at most
    sqrt(2) max(|Re u|, |Im u|), and ``np.abs`` is within an ulp of it, so
    the computed |u| is at most sqrt(2) (1 + 2^-52) m < 1.5 m < 1e300, with
    m the largest part.  A NaN part fails the screen, as the maximum and
    minimum of the parts are then NaN.  A run needs no screen inside it: a
    step multiplies the largest part by at most growth = 2 sum |a_p|, the
    factor 2 covering the rounding of the step's products and sums and of
    the bound's own product.  So from a screen whose largest part is top,
    or from the mode grid (top = 1), a run lasts the most steps k with
    top growth^k < 1e300 / 1.5, and at least one; after a screen that
    fails, every step is its own run.  So the divergence steps and every
    ``measured`` are those of the per-row test after every step.  The
    default 64-mode grid at 100 steps is one ``step`` call and one screen
    wherever sum |a_p| is below 497 (heat up to lambda = 124).

    Outside the stability region R_s, a decaying mode's ``measured`` is not
    its own decay: the rounding errors of each step seed the growing modes,
    which then dominate the grid.  So heat at lambda = 0.6 after 200 steps
    reads 5.5e13 for mode 22, against ``predicted_S`` 3.7e-13.  Compare
    ``measured`` with the symbol only inside R_s.
    """
    require_evolution_sizes(scheme, steps, gridsize)
    require_lambda(scheme.name, lam, positive=False)
    thetas = 2.0 * math.pi * np.arange(gridsize) / gridsize
    thetas[thetas > math.pi] -= 2.0 * math.pi
    # |S_N| on the theta array costs one exact evaluation of the c_p, not one
    # per mode; S sums the a_p, rounded once, at each scalar theta, which
    # keeps predicted_S to the bit of ``eval_symbol`` at that mode (an array
    # exp can differ in the last bit)
    abs_sn = np.abs(_truncation(thetas.astype(complex), _theta_coeffs(modeq, lam, order),
                                float(lam))[1])
    weights = symbol_weights(scheme, lam)
    growth = 2.0 * sum(abs(a) for _, a in weights)
    measured, diverged = [], []
    block = max(1, _BLOCK_VALUES // gridsize)
    for start in range(0, gridsize, block):
        modes = np.arange(start, min(start + block, gridsize))
        u = mode_grid(modes, gridsize)
        diverged_at = np.zeros(modes.size, dtype=int)  # 0: not diverged
        # a diverged row may overflow to inf or nan; it is recorded already
        # and its values are never read
        with np.errstate(over="ignore", invalid="ignore"):
            top, n = 1.0, 0
            while n < steps:
                count = _run_length(top, growth, steps - n)
                u = step(weights, u, count)
                n += count
                parts = u.view(float)
                high, low = float(parts.max()), float(-parts.min())
                if high < _SCREEN_LIMIT and low < _SCREEN_LIMIT:
                    top = max(high, low)
                    continue
                peak = np.max(np.abs(u), axis=-1)
                # a NaN peak is not <= the limit either
                diverged_at[(diverged_at == 0) & ~(peak <= _OVERFLOW_LIMIT)] = n
                top = math.inf
            amplitudes = np.mean(np.abs(u), axis=-1)
        first = diverged_at.tolist()
        measured += [math.inf if d else a for d, a in zip(first, amplitudes.tolist())]
        diverged += [d or None for d in first]
    theta = thetas.tolist()
    predicted_s = [_power(abs(complex(_symbol_sum(weights, _symbol_basis(scheme, t)))), steps)
                   for t in theta]
    predicted_sn = [_power(a, steps) for a in abs_sn.tolist()]
    return {
        "mode": list(range(gridsize)),
        "theta": theta,
        "measured": measured,
        "predicted_S": predicted_s,
        "predicted_SN": predicted_sn,
        "gap_S": list(map(_relative_gap, predicted_s, measured)),
        "gap_SN": list(map(_relative_gap, predicted_sn, measured)),
    }, tuple(diverged)
