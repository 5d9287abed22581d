from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from modeq.derivation import CrossCheckError, derive_log
from modeq.empirics import (
    _relative_gap,
    evolve_and_compare,
    mode_grid,
    step,
)
from modeq.schemes import builtin_catalog, catalog_scheme, parse_scheme
from modeq.spectra import _theta_coeffs, _truncation, eval_symbol, symbol_weights
from oracles import measured_amplification


class TestStep:
    def test_constant_grid_unchanged(self, heat):
        out = step(symbol_weights(heat, 0.3), np.full(16, 2.5 + 0j))
        assert np.max(np.abs(out - 2.5)) < 1e-15

    def test_upwind_full_ratio_is_an_exact_shift(self, upwind):
        u = np.exp(1j * np.linspace(0.0, 5.0, 16)) * np.linspace(1.0, 3.0, 16)
        out = step(symbol_weights(upwind, 1.0), u)
        assert np.array_equal(out, np.roll(u, 1))

    def test_alternating_grid_negated_at_half(self, heat):
        u0 = (-1.0 + 0j) ** np.arange(16)
        out = step(symbol_weights(heat, 0.5), u0)
        assert np.max(np.abs(out + u0)) < 1e-14

    def test_unit_ratio_upwind_is_a_shift(self, upwind):
        u0 = np.arange(12, dtype=complex)
        out = step(symbol_weights(upwind, 1.0), u0)
        assert np.max(np.abs(out - np.roll(u0, 1))) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(-3, 3), st.floats(-4.0, 4.0), min_size=1),
           st.integers(0, 16), st.integers(0, 3), st.booleans(), st.integers(0, 5),
           st.integers(0, 2**32 - 1))
    @example({1: 0.5, 3: -2.0}, 0, 2, False, 3, 0)  # offsets all >= 0, no 0
    # offsets all <= 0, no 0; a negative weight times a negative real value
    # makes an imaginary part -0, which the reference's 0 start makes +0
    @example({-3: -1.5}, 4, 0, True, 5, 1)
    def test_steps_are_repeated_rolls(self, stencil, extra, rows, real, count, seed):
        """``step(weights, u, count)`` is ``count`` applications of the sum of
        a_p np.roll(u, -p) over the offsets in order, on 1-D (rows = 0) and
        2-D grids of M = width + 1, ..., 20 points, at least 4.

        The reference starts its sum from 0 and ``step`` from the first
        product.  That changes only the sign of a part that is exactly zero
        (0 + -0 is +0), so zero parts are compared by value: adding 0 to
        both sides makes every zero +0 and leaves every other part's bits
        as they are.  A zero weight, or a real grid (zero imaginary parts),
        makes such parts."""
        weights = sorted(stencil.items())
        width = max(weights[-1][0], 0) - min(weights[0][0], 0)
        m = min(max(4, width + 1 + extra), 20)
        rng = np.random.default_rng(seed)
        shape = (rows, m) if rows else (m,)
        u = rng.standard_normal(shape) + (0 if real else 1j * rng.standard_normal(shape))
        want = u.astype(complex)
        for _ in range(count):
            want = sum(a * np.roll(want, -p, axis=-1) for p, a in weights)
        got = step(weights, u, count)
        assert got.shape == u.shape
        assert (got + 0).tobytes() == (want + 0).tobytes()

    def test_no_aliasing(self, heat):
        u = np.ones(8, dtype=complex)
        out = step(symbol_weights(heat, 0.5), u)
        assert out is not u and np.array_equal(u, np.ones(8))

    def test_stencil_must_fit(self):
        wide = parse_scheme(
            "scheme wide\nq = 1\npde A[1] = 1\nstencil B[-2] = 1\nstencil B[2] = -1\n"
        )
        with pytest.raises(ValueError, match="stencil width 4"):
            step(symbol_weights(wide, 0.1), np.ones(4))

    def test_grid_size_floor(self, heat):
        with pytest.raises(ValueError, match="at least 4 points"):
            step(symbol_weights(heat, 0.1), np.ones(3))
        with pytest.raises(ValueError, match="at least 4 points"):
            step(symbol_weights(heat, 0.1), np.ones((2, 2, 8)))

    def test_rows_step_as_separate_grids(self, upwind):
        rows = np.arange(24, dtype=complex).reshape(2, 12) ** 2
        out = step(symbol_weights(upwind, 0.3), rows)
        for row, stepped in zip(rows, out):
            assert np.array_equal(step(symbol_weights(upwind, 0.3), row), stepped)

    def test_rational_ratio_steps_with_its_exact_weights(self, heat):
        # 1/3 is not a float: a float copy of lambda gives a centre weight of
        # 0.33333333333333337, the exact a_0(1/3) rounds to 0.3333333333333333
        lam = Fraction(1, 3)
        u = np.zeros(8, dtype=complex)
        u[0] = 1.0
        out = step(symbol_weights(heat, lam), u)
        for p, a in symbol_weights(heat, lam):
            assert out[-p % 8] == a


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

    def test_ratio_varying_across_grid_raises(self, heat, monkeypatch):
        def uneven(weights, u):
            return u * (1.0 + 1e-9 * np.arange(u.shape[-1]))

        monkeypatch.setattr("modeq.empirics.step", uneven)
        with pytest.raises(CrossCheckError, match="mode 3: amplification varies"):
            measured_amplification(heat, Fraction(1, 4), 3, 16)

    def test_ratio_off_the_symbol_raises(self, heat, monkeypatch):
        monkeypatch.setattr("modeq.empirics.step", lambda weights, u: 2.0 * u)
        with pytest.raises(CrossCheckError, match="mode 3: measured .* vs symbol"):
            measured_amplification(heat, Fraction(1, 4), 3, 16)

    def test_matches_symbol_for_all_modes(self):
        for scheme in builtin_catalog():
            for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                for m in range(0, 64, 7):
                    measured = measured_amplification(scheme, lam, m, 64)
                    predicted = eval_symbol(scheme, lam, 2 * math.pi * m / 64)
                    assert abs(measured - predicted) <= 1e-12


class TestEvolveAndCompare:
    def test_decaying_run_tracks_truncation(self, heat):
        modeq = derive_log(heat, 8)
        columns, diverged_at = evolve_and_compare(heat, modeq, Fraction(1, 4), 8, 100, 64)
        assert all(len(col) == 64 for col in [*columns.values(), diverged_at])
        assert max(columns["gap_SN"]) < 1e-3
        assert max(columns["gap_S"]) < 1e-12

    def test_unstable_ratio_flags_pi_mode_first(self, heat):
        modeq = derive_log(heat, 4)
        columns, diverged_at = evolve_and_compare(heat, modeq, 0.6, 4, 2500, 16)
        diverged = {m: d for m, d in zip(columns["mode"], diverged_at) if d}
        assert 8 in diverged  # theta = pi
        assert diverged[8] == min(diverged.values())
        assert math.isinf(columns["measured"][8])

    def test_symbol_rounded_once_per_lambda(self, heat, rounded_values):
        # 3 a_p for the steps and for S, and 8 c_p for S_N
        modeq = derive_log(heat, 8)
        lam = Fraction(1, 4)
        columns, _ = evolve_and_compare(heat, modeq, lam, 8, 100, 64)
        assert len(rounded_values) == 3 + 8
        # |S_N| on the theta column as one array; every power and gap on
        # Python floats, each mode on its own (an array power differs in
        # the last bit)
        abs_sn = np.abs(_truncation(np.array(columns["theta"], dtype=complex),
                                    _theta_coeffs(modeq, lam, 8), float(lam))[1]).tolist()
        for mode, theta in enumerate(columns["theta"]):
            measured = columns["measured"][mode]
            predicted_s = abs(eval_symbol(heat, lam, theta)) ** 100
            predicted_sn = abs_sn[mode] ** 100
            assert columns["predicted_S"][mode] == predicted_s
            assert columns["predicted_SN"][mode] == predicted_sn
            assert columns["gap_S"][mode] == _relative_gap(predicted_s, measured)
            assert columns["gap_SN"][mode] == _relative_gap(predicted_sn, measured)

    def test_negative_lambda_refused(self, heat):
        with pytest.raises(ValueError, match="nonnegative"):
            evolve_and_compare(heat, derive_log(heat, 4), -0.25, 4, 10, 16)

    def test_negative_lambda_names_scheme_and_value(self, heat):
        with pytest.raises(ValueError,
                           match=r"^scheme heat_centered: lambda must be nonnegative, got -1/4$"):
            evolve_and_compare(heat, derive_log(heat, 4), Fraction(-1, 4), 4, 10, 16)

    def test_zero_steps_gives_ones(self, heat):
        modeq = derive_log(heat, 8)
        columns, _ = evolve_and_compare(heat, modeq, Fraction(1, 4), 8, 0, 8)
        for key in ("measured", "predicted_S", "predicted_SN"):
            assert columns[key] == [1.0] * 8

    def test_theta_folding(self, heat):
        modeq = derive_log(heat, 8)
        theta = evolve_and_compare(heat, modeq, Fraction(1, 4), 8, 1, 8)[0]["theta"]
        assert [round(t, 6) for t in theta[:5]] == [
            0.0,
            round(math.pi / 4, 6),
            round(math.pi / 2, 6),
            round(3 * math.pi / 4, 6),
            round(math.pi, 6),
        ]
        assert theta[5] == pytest.approx(-3 * math.pi / 4)


def _per_mode_evolution(scheme, lam, steps, gridsize):
    """(measured, diverged_at) per mode, stepping one mode at a time and
    testing every |u| after every step: above 1e300, or NaN, diverges."""
    weights = symbol_weights(scheme, lam)
    out = []
    for mode in range(gridsize):
        u = mode_grid(mode, gridsize)
        diverged_at = None
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging mode's step overflows
            for n in range(steps):
                u = step(weights, u)
                if not float(np.max(np.abs(u))) <= 1e300:
                    diverged_at = n + 1
                    break
        measured = math.inf if diverged_at else float(np.mean(np.abs(u)))
        out.append((measured, diverged_at))
    return out


# per scheme: a stable lambda, and an unstable one whose fastest modes pass
# 1e300 well before the last step (heat at 10 after 189 steps), while the
# slowest do not; the last two overflow the parts of every mode but 0 to
# inf and nan (at step 33 for heat, at steps 30 and 31 for Lax-Wendroff),
# which the overflow screen must pass to the per-row test.  There a mode
# whose modulus turns nan without passing 1e300 first is flagged at that
# step, in the reference as in the batch.
BATCH_CASES = [
    ("heat_centered", Fraction(1, 4), 30, False),
    ("heat_centered", Fraction(10), 200, True),
    ("upwind_euler", Fraction(1, 2), 30, False),
    ("upwind_euler", Fraction(10), 250, True),
    ("lax_wendroff", Fraction(1, 2), 30, False),
    ("lax_wendroff", Fraction(4), 220, True),
    ("heat_centered", Fraction(10**9), 40, True),
    ("lax_wendroff", Fraction(10**5), 40, True),
]


@pytest.mark.parametrize("name, lam, steps, diverges", BATCH_CASES)
def test_batched_evolution_equals_per_mode_stepping(name, lam, steps, diverges):
    # 80 modes span three blocks of rows
    scheme = catalog_scheme(name)
    columns, diverged_at = evolve_and_compare(scheme, derive_log(scheme, 2), lam, 2, steps, 80)
    batched = list(zip(columns["measured"], diverged_at))
    # to the bit
    assert _row_bits(batched) == _row_bits(_per_mode_evolution(scheme, lam, steps, 80))
    first = [d for _, d in batched if d]
    assert bool(first) == diverges and all(d < steps for d in first)
    assert not diverges or any(math.isfinite(m) for m, _ in batched)


# the overflow screen reads the parts of both signs: a step that moves
# every value by a real shift passes 1e300 only beyond it, and a shift
# between 1e300 / 1.5 and 1e300 fails the screen but flags nothing.  No
# bound 2 sum |a_p| covers the shift, so the evolution is one step long:
# every run, and so that step, ends in a screen.
@pytest.mark.parametrize("shift, flagged", [(2e300, True), (-2e300, True),
                                            (0.9e300, False), (-0.9e300, False)])
def test_overflow_screen_reads_both_signs(monkeypatch, heat, shift, flagged):
    monkeypatch.setattr("modeq.empirics.step", lambda weights, u, count=1: u + shift)
    columns, diverged_at = evolve_and_compare(heat, derive_log(heat, 2), Fraction(1, 4), 2, 1, 8)
    assert list(diverged_at) == [1 if flagged else None] * 8
    assert all(math.isinf(m) == flagged for m in columns["measured"])


# the growth bound 2 sum |a_p| covers every step a block takes below the
# screen: at the defaults a stable block is stepped in one call, and heat
# at 10 ends its runs where the bound nears 1e300 / 1.5, then steps one at
# a time past the first failed screen, with the rows of per-mode stepping
def test_runs_of_steps_between_screens(monkeypatch, heat):
    counts = []

    def counted(weights, u, count=1):
        counts.append(count)
        return step(weights, u, count)

    monkeypatch.setattr("modeq.empirics.step", counted)
    evolve_and_compare(heat, derive_log(heat, 2), Fraction(2, 5), 2, 100, 64)
    assert counts == [100]
    counts.clear()
    columns, diverged_at = evolve_and_compare(heat, derive_log(heat, 2), Fraction(10), 2, 200, 64)
    assert sum(counts) == 200 and 1 < counts[0] < 200 and counts[-1] == 1
    first = min(d for d in diverged_at if d)
    assert counts[-(200 - first) - 1:] == [1] * (200 - first + 1)
    monkeypatch.undo()
    assert _row_bits(zip(columns["measured"], diverged_at)) == \
        _row_bits(_per_mode_evolution(heat, Fraction(10), 200, 64))


# a step whose products overflow to infinities of both signs turns a mode
# nan (inf - inf) without its modulus passing 1e300 first: such a mode is
# flagged at that step and reads measured inf, never nan
@pytest.mark.parametrize("name, lam, nan_modes", [
    ("heat_centered", Fraction(10**9), {22: 33, 58: 33}),
    ("lax_wendroff", Fraction(10**5), {19: 31, 61: 31}),
])
def test_mode_turning_nan_is_flagged(name, lam, nan_modes):
    scheme = catalog_scheme(name)
    columns, diverged_at = evolve_and_compare(scheme, derive_log(scheme, 2), lam, 2, 40, 80)
    assert {m: diverged_at[m] for m in nan_modes} == nan_modes
    assert not any(math.isnan(m) for m in columns["measured"])
    assert [m for m, d in zip(columns["mode"], diverged_at) if d is None] == [0]


def _row_bits(rows) -> list:
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


def _table_bits(table) -> list:
    """``_row_bits`` of an ``evolve_and_compare`` table: each mode's columns,
    then the step it diverged at."""
    columns, diverged_at = table
    return _row_bits(zip(*columns.values(), diverged_at))


# a stable lambda, and one outside R_s whose fastest modes diverge
@pytest.mark.parametrize("name, lam, steps", [("lax_wendroff", Fraction(1, 2), 30),
                                               ("heat_centered", Fraction(10), 200)])
@pytest.mark.parametrize("gridsize", [64, 100])
def test_rows_do_not_depend_on_the_block_size(monkeypatch, name, lam, steps, gridsize):
    scheme = catalog_scheme(name)
    modeq = derive_log(scheme, 4)
    table = evolve_and_compare(scheme, modeq, lam, 4, steps, gridsize)
    monkeypatch.setattr("modeq.empirics._BLOCK_VALUES", 1)  # one row per block
    assert _table_bits(evolve_and_compare(scheme, modeq, lam, 4, steps, gridsize)) == \
        _table_bits(table)
    assert any(table[1]) == (lam == 10)


class TestStabilityDichotomy:
    def test_just_stable_all_modes_non_increasing(self, heat):
        for m in range(16):
            u = mode_grid(m, 16)
            previous = 1.0
            for _ in range(10):
                u = step(symbol_weights(heat, 0.49), u)
                amplitude = float(np.max(np.abs(u)))
                assert amplitude <= previous * (1.0 + 1e-12)
                previous = amplitude

    def test_just_unstable_pi_mode_grows(self, heat):
        u = step(symbol_weights(heat, 0.51), mode_grid(8, 16))
        assert float(np.max(np.abs(u))) >= 1.019
