"""Discrete validation: run the actual scheme on a periodic grid and compare
the measured per-mode amplification with the symbol S and its truncated
counterparts S_N.

A discrete Fourier mode is an exact eigenvector of any constant-coefficient
periodic stencil, so the measured one-step ratio must reproduce S(theta) up
to double-precision rounding; larger deviations indicate a broken stencil
application rather than discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .derivation import CrossCheckError, ModifiedEq
from .schemes import SchemeSpec
from .spectra import eval_symbol, stencil_weights, truncated_amplification

__all__ = [
    "GridState",
    "ModeComparison",
    "EvolutionTable",
    "step",
    "measured_amplification",
    "evolve_and_compare",
]

Number = Union[int, float, Fraction]

_OVERFLOW_LIMIT = 1e300
_RATIO_TOL = 1e-12
_BLOCK_MODES = 32


@dataclass(frozen=True)
class GridState:
    """Periodic grid of complex samples u_j, j in [0, M), or one per row."""

    values: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.ndim not in (1, 2) or values.shape[-1] < 4:
            raise ValueError("grid must be one row, or rows, of at least 4 points")
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.shape[-1]


def step(scheme: SchemeSpec, state: GridState) -> GridState:
    """One explicit update u_j <- u_j + lambda sum_p B_p(lambda) u_{(j+p) mod M}
    of every grid, into fresh grids (no in-place aliasing)."""
    m = state.size
    if scheme.n_left + scheme.n_right >= m:
        raise ValueError(
            f"stencil width {scheme.n_left + scheme.n_right} does not fit a "
            f"grid of {m} points"
        )
    u = state.values
    acc = np.zeros_like(u)
    for p, w in stencil_weights(scheme, state.lam):
        # np.roll(u, -p, axis=-1)[..., j] == u[..., (j + p) mod M]
        acc += w * np.roll(u, -p, axis=-1)
    return GridState(values=u + state.lam * acc, lam=state.lam)


def mode_grid(m, size: int, lam: Number) -> GridState:
    """Grid holding the single Fourier mode e^{2 pi i m j / size}; for an
    array of modes m, one such grid per row."""
    j = np.arange(size)
    return GridState(values=np.exp(2j * math.pi * np.asarray(m)[..., np.newaxis] * j / size),
                     lam=float(lam))


def measured_amplification(
    scheme: SchemeSpec, lam: Number, mode: int, gridsize: int
) -> complex:
    """Per-step multiplier of the Fourier mode under the actual stencil.

    Applies one step to e^{2 pi i m j / M} and returns the ratio u'_j / u_j,
    which must be the same at every j and must equal the symbol at
    theta = 2 pi m / M, both to within 1e-12; violations of either raise
    CrossCheckError.
    """
    if not 0 <= mode < gridsize:
        raise ValueError(f"mode {mode} outside [0, {gridsize})")
    state = mode_grid(mode, gridsize, lam)
    ratios = step(scheme, state).values / state.values
    ratio = complex(ratios[0])
    spread = float(np.max(np.abs(ratios - ratio)))
    if spread > _RATIO_TOL:
        raise CrossCheckError(
            f"mode {mode}: amplification varies across the grid by {spread:.3e}"
        )
    theta = 2.0 * math.pi * mode / gridsize
    predicted = eval_symbol(scheme, lam, theta)
    if abs(ratio - predicted) > _RATIO_TOL:
        raise CrossCheckError(
            f"mode {mode}: measured {ratio} vs symbol {predicted}"
        )
    return ratio


@dataclass(frozen=True)
class ModeComparison:
    mode: int
    theta: float
    measured: float
    predicted_s: float
    predicted_sn: float
    gap_s: float
    gap_sn: float
    diverged_at: Optional[int] = None


@dataclass(frozen=True)
class EvolutionTable:
    scheme_name: str
    lam: float
    order: int
    steps: int
    rows: tuple

    CSV_HEADER = [
        "mode",
        "theta",
        "measured",
        "predicted_S",
        "predicted_SN",
        "gap_S",
        "gap_SN",
    ]

    def csv_rows(self):
        for r in self.rows:
            yield [
                r.mode,
                r.theta,
                r.measured,
                r.predicted_s,
                r.predicted_sn,
                r.gap_s,
                r.gap_sn,
            ]


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


def evolve_and_compare(
    scheme: SchemeSpec,
    modeq: ModifiedEq,
    lam: Number,
    order: int,
    steps: int,
    gridsize: int,
) -> EvolutionTable:
    """Evolve every Fourier mode for ``steps`` steps and compare the measured
    modulus growth with |S|^steps and |S_N|^steps.

    The modes are stepped together, ``_BLOCK_MODES`` grid rows at a time.
    Modes whose amplitude passes 1e300 are flagged as diverged with the step
    index at which that happened.  theta is folded into (-pi, pi] so the
    polynomial truncation is evaluated at an admissible wavenumber.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    thetas = 2.0 * math.pi * np.arange(gridsize) / gridsize
    thetas[thetas > math.pi] -= 2.0 * math.pi
    # |S_N| on the theta array costs one exact evaluation of the c_p, not one
    # per mode; |S| stays at scalar theta, which keeps predicted_S to the bit
    # of a one-mode evaluation (an array exp can differ in the last bit)
    abs_sn = np.abs(truncated_amplification(modeq, lam, thetas, order).s_value)
    rows = []
    for start in range(0, gridsize, _BLOCK_MODES):
        modes = np.arange(start, min(start + _BLOCK_MODES, gridsize))
        state = mode_grid(modes, gridsize, lam)
        diverged_at = np.zeros(modes.size, dtype=int)  # 0: not diverged
        # a diverged row may overflow to inf or nan; it is recorded already
        # and its values are never read
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(steps):
                state = step(scheme, state)
                peak = np.max(np.abs(state.values), axis=-1)
                diverged_at[(diverged_at == 0) & (peak > _OVERFLOW_LIMIT)] = n + 1
            amplitudes = np.mean(np.abs(state.values), axis=-1)
        for mode, first, amplitude in zip(modes.tolist(), diverged_at.tolist(), amplitudes):
            theta = float(thetas[mode])
            measured = math.inf if first else float(amplitude)
            predicted_s = _power(abs(eval_symbol(scheme, lam, theta)), steps)
            predicted_sn = _power(float(abs_sn[mode]), steps)
            rows.append(
                ModeComparison(
                    mode=mode,
                    theta=theta,
                    measured=measured,
                    predicted_s=predicted_s,
                    predicted_sn=predicted_sn,
                    gap_s=_relative_gap(predicted_s, measured),
                    gap_sn=_relative_gap(predicted_sn, measured),
                    diverged_at=first or None,
                )
            )
    return EvolutionTable(
        scheme_name=scheme.name,
        lam=float(lam),
        order=order,
        steps=steps,
        rows=tuple(rows),
    )
