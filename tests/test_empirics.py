from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from modeq.derivation import derive_log
from modeq.empirics import (
    GridState,
    evolve_and_compare,
    measured_amplification,
    mode_grid,
    step,
)
from modeq.schemes import builtin_catalog, catalog_scheme
from modeq.spectra import eval_symbol


class TestStep:
    def test_constant_grid_unchanged(self, heat):
        state = GridState(values=np.full(16, 2.5 + 0j), lam=0.3)
        out = step(heat, state)
        assert np.max(np.abs(out.values - 2.5)) < 1e-15

    def test_alternating_grid_negated_at_half(self, heat):
        u0 = (-1.0 + 0j) ** np.arange(16)
        out = step(heat, GridState(values=u0, lam=0.5))
        assert np.max(np.abs(out.values + u0)) < 1e-14

    def test_unit_ratio_upwind_is_a_shift(self, upwind):
        u0 = np.arange(12, dtype=complex)
        out = step(upwind, GridState(values=u0, lam=1.0))
        assert np.max(np.abs(out.values - np.roll(u0, 1))) < 1e-14

    def test_no_aliasing(self, heat):
        state = GridState(values=np.ones(8, dtype=complex), lam=0.5)
        out = step(heat, state)
        assert out.values is not state.values

    def test_stencil_must_fit(self, heat):
        with pytest.raises(ValueError):
            step(heat, GridState(values=np.ones(2), lam=0.1))

    def test_grid_size_floor(self):
        with pytest.raises(ValueError):
            GridState(values=np.ones(3), lam=0.1)
        with pytest.raises(ValueError):
            GridState(values=np.ones((2, 2, 8)), lam=0.1)

    def test_rows_step_as_separate_grids(self, upwind):
        rows = np.arange(24, dtype=complex).reshape(2, 12) ** 2
        out = step(upwind, GridState(values=rows, lam=0.3))
        for row, stepped in zip(rows, out.values):
            assert np.array_equal(step(upwind, GridState(values=row, lam=0.3)).values, stepped)


class TestMeasuredAmplification:
    def test_constant_mode(self, heat):
        assert measured_amplification(heat, Fraction(1, 2), 0, 8) == 1.0

    def test_heat_pi_mode(self, heat):
        r = measured_amplification(heat, Fraction(1, 2), 4, 8)
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_upwind_quarter_wave(self, upwind):
        r = measured_amplification(upwind, Fraction(1, 2), 16, 64)
        assert r == pytest.approx(0.5 - 0.5j, abs=1e-12)

    def test_mode_range(self, heat):
        with pytest.raises(ValueError):
            measured_amplification(heat, 0.5, 64, 64)

    def test_matches_symbol_for_all_modes(self):
        for entry in builtin_catalog():
            for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                for m in range(0, 64, 7):
                    measured = measured_amplification(entry.scheme, lam, m, 64)
                    predicted = eval_symbol(entry.scheme, lam, 2 * math.pi * m / 64)
                    assert abs(measured - predicted) <= 1e-12


class TestEvolveAndCompare:
    def test_decaying_run_tracks_truncation(self, heat):
        modeq = derive_log(heat, 8)
        table = evolve_and_compare(heat, modeq, Fraction(1, 4), 8, 100, 64)
        assert len(table.rows) == 64
        assert max(r.gap_sn for r in table.rows) < 1e-3
        assert max(r.gap_s for r in table.rows) < 1e-12

    def test_unstable_ratio_flags_pi_mode_first(self, heat):
        modeq = derive_log(heat, 4)
        table = evolve_and_compare(heat, modeq, 0.6, 4, 2500, 16)
        diverged = {r.mode: r.diverged_at for r in table.rows if r.diverged_at}
        assert 8 in diverged  # theta = pi
        assert diverged[8] == min(diverged.values())
        pi_row = table.rows[8]
        assert math.isinf(pi_row.measured)

    def test_zero_steps_gives_ones(self, heat):
        modeq = derive_log(heat, 8)
        table = evolve_and_compare(heat, modeq, Fraction(1, 4), 8, 0, 8)
        for r in table.rows:
            assert r.measured == 1.0
            assert r.predicted_s == 1.0
            assert r.predicted_sn == 1.0

    def test_theta_folding(self, heat):
        modeq = derive_log(heat, 8)
        table = evolve_and_compare(heat, modeq, Fraction(1, 4), 8, 1, 8)
        assert [round(r.theta, 6) for r in table.rows[:5]] == [
            0.0,
            round(math.pi / 4, 6),
            round(math.pi / 2, 6),
            round(3 * math.pi / 4, 6),
            round(math.pi, 6),
        ]
        assert table.rows[5].theta == pytest.approx(-3 * math.pi / 4)


def _per_mode_evolution(scheme, lam, steps, gridsize):
    """(measured, diverged_at) per mode, stepping one mode at a time."""
    out = []
    for mode in range(gridsize):
        state = mode_grid(mode, gridsize, lam)
        diverged_at = None
        for n in range(steps):
            state = step(scheme, state)
            if float(np.max(np.abs(state.values))) > 1e300:
                diverged_at = n + 1
                break
        measured = math.inf if diverged_at else float(np.mean(np.abs(state.values)))
        out.append((measured, diverged_at))
    return out


# per scheme: a stable lambda, and an unstable one whose fastest modes pass
# 1e300 well before the last step (heat at 10 after 189 steps), while the
# slowest do not
BATCH_CASES = [
    ("heat_centered", Fraction(1, 4), 30, False),
    ("heat_centered", Fraction(10), 200, True),
    ("upwind_euler", Fraction(1, 2), 30, False),
    ("upwind_euler", Fraction(10), 250, True),
    ("lax_wendroff", Fraction(1, 2), 30, False),
    ("lax_wendroff", Fraction(4), 220, True),
]


@pytest.mark.parametrize("name, lam, steps, diverges", BATCH_CASES)
def test_batched_evolution_equals_per_mode_stepping(name, lam, steps, diverges):
    # 80 modes span three blocks of rows
    scheme = catalog_scheme(name)
    table = evolve_and_compare(scheme, derive_log(scheme, 2), lam, 2, steps, 80)
    batched = [(r.measured, r.diverged_at) for r in table.rows]
    assert batched == _per_mode_evolution(scheme, lam, steps, 80)
    first = [d for _, d in batched if d]
    assert bool(first) == diverges and all(d < steps for d in first)
    assert not diverges or any(math.isfinite(m) for m, _ in batched)


class TestStabilityDichotomy:
    def test_just_stable_all_modes_non_increasing(self, heat):
        for m in range(16):
            state = mode_grid(m, 16, 0.49)
            previous = 1.0
            for _ in range(10):
                state = step(heat, state)
                amplitude = float(np.max(np.abs(state.values)))
                assert amplitude <= previous * (1.0 + 1e-12)
                previous = amplitude

    def test_just_unstable_pi_mode_grows(self, heat):
        state = mode_grid(8, 16, 0.51)
        state = step(heat, state)
        assert float(np.max(np.abs(state.values))) >= 1.019
