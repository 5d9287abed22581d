from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from conftest import lp
from modeq.derivation import ModifiedEq, derive_log
from modeq.exactalg import LambdaPoly
from modeq.schemes import builtin_catalog, catalog_scheme
from modeq.spectra import (
    DEFAULT_TOL,
    CertificateRefusal,
    _theta_coeffs,
    compute_theta_m,
    eval_symbol,
    figure_data,
    truncation_certificate,
    region_scan,
    theta_grid,
    truncated_amplification,
    upwind_symmetry_check,
)


class TestEvalSymbol:
    def test_heat_at_pi(self, heat):
        assert eval_symbol(heat, Fraction(1, 2), math.pi) == pytest.approx(-1.0, abs=1e-15)

    def test_consistency_at_zero(self):
        for entry in builtin_catalog():
            assert eval_symbol(entry.scheme, 0.37, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_upwind_unit_circle_at_full_ratio(self, upwind):
        thetas = theta_grid(257)
        s = eval_symbol(upwind, 1, thetas)
        assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-14

    def test_modulus_is_even(self):
        thetas = theta_grid(513)
        for entry in builtin_catalog():
            for lam in (Fraction(1, 4), Fraction(1, 2)):
                plus = np.abs(eval_symbol(entry.scheme, lam, thetas))
                minus = np.abs(eval_symbol(entry.scheme, lam, -thetas))
                assert np.max(np.abs(plus - minus)) <= 1e-14

    def test_exact_rational_weights_before_conversion(self, lax):
        # B_{-1}(1/3) = 1/2 + 1/6 = 2/3 exactly
        from modeq.spectra import stencil_weights

        weights = dict(stencil_weights(lax, Fraction(1, 3)))
        assert weights[-1] == complex(float(Fraction(2, 3)))


class TestThetaM:
    def test_heat_quarter_full_interval(self, heat):
        assert compute_theta_m(heat, Fraction(1, 4)) == math.pi

    def test_heat_half_crosses_at_pi_over_two(self, heat):
        grid = 4096
        theta_star = compute_theta_m(heat, Fraction(1, 2), grid=grid)
        step = math.pi / (grid - 1)
        assert 0.0 <= theta_star - math.pi / 2 <= step + 1e-12

    def test_upwind_half_full_interval(self, upwind):
        assert compute_theta_m(upwind, Fraction(1, 2)) == math.pi

    def test_grid_validation(self, heat):
        with pytest.raises(ValueError):
            compute_theta_m(heat, 0.1, grid=32)


class TestRegionScan:
    def test_heat_boundaries(self, heat):
        report = region_scan(heat, (0.0, 0.6, 61), grid=1024, orders=(4,))
        assert report.rs_boundary() == pytest.approx(0.5, abs=1e-12)
        assert report.omega_c_boundary() == pytest.approx(0.24, abs=1e-12)
        assert all(s.trunc_stable[4] for s in report.samples)

    def test_upwind_boundaries(self, upwind):
        report = region_scan(upwind, (0.0, 1.2, 61), grid=1024)
        assert report.rs_boundary() == pytest.approx(1.0, abs=1e-12)
        assert report.omega_c_boundary() == pytest.approx(0.48, abs=1e-12)

    def test_membership_flags_are_consistent(self, heat):
        report = region_scan(heat, (0.0, 0.6, 31), grid=512)
        for s in report.samples:
            assert s.in_rs == (s.max_abs_s <= 1.0 + DEFAULT_TOL)
            assert s.in_omega_c == (s.max_abs_one_minus_s < 1.0 - DEFAULT_TOL)

    def test_validation(self, heat):
        with pytest.raises(ValueError):
            region_scan(heat, (-0.1, 0.5, 10))
        with pytest.raises(ValueError):
            region_scan(heat, (0.0, 0.5, 1))


class TestTruncatedAmplification:
    def test_heat_second_order_at_pi(self, heat):
        modeq = derive_log(heat, 8)
        te = truncated_amplification(modeq, Fraction(1, 4), math.pi, 2)
        assert te.p_value == pytest.approx(-math.pi**2)
        assert te.abs_s == pytest.approx(math.exp(-math.pi**2 / 4), rel=1e-12)

    def test_unity_at_zero(self):
        for entry in builtin_catalog():
            modeq = derive_log(entry.scheme, 6)
            te = truncated_amplification(modeq, 0.3, 0.0, 6)
            assert te.s_value == 1.0

    def test_order_cap(self, heat):
        modeq = derive_log(heat, 4)
        with pytest.raises(ValueError):
            truncated_amplification(modeq, 0.25, 1.0, 6)

    def test_modulus_follows_real_part(self, upwind):
        modeq = derive_log(upwind, 6)
        for theta in (0.3, 1.1, 2.9):
            te = truncated_amplification(modeq, 0.4, theta, 6)
            assert te.abs_s == pytest.approx(math.exp(0.4 * te.p_value.real), rel=1e-14)

    def test_higher_order_tracks_symbol_better(self, heat):
        # inside the contraction region the N=8 curve improves on N=2
        modeq = derive_log(heat, 8)
        thetas = theta_grid(1024)
        s = np.abs(eval_symbol(heat, Fraction(1, 4), thetas))
        gap = {}
        for n in (2, 8):
            sn = np.abs(truncated_amplification(modeq, Fraction(1, 4), thetas, n).s_value)
            gap[n] = np.max(np.abs(sn - s))
        assert gap[8] < gap[2]


class TestThetaCoeffs:
    """_theta_coeffs gives the theta^p coefficient i^p c_p(lambda) of G, c_p
    evaluated exactly and rounded once."""

    def test_powers_of_i(self):
        # c_p = 1/2 + lambda, so c_p(1/2) = 1 exactly, for p = 1..8
        modeq = ModifiedEq("t", 1, (lp("1/2", 1),) * 8)
        g = _theta_coeffs(modeq, 0.5, 8)
        assert g[0] == 0
        expected = [1j, -1, -1j, 1] * 2
        for p in range(1, 9):
            assert g[p] == expected[p - 1], p
            assert (g[p].real if p % 2 else g[p].imag) == 0.0

    def test_zero_coefficient_has_no_negative_zero(self):
        modeq = ModifiedEq("t", 1, (LambdaPoly.zero(),) * 4)
        for g in _theta_coeffs(modeq, 0.25, 4):
            assert g == 0
            assert math.copysign(1.0, g.real) == 1.0
            assert math.copysign(1.0, g.imag) == 1.0

    def test_matches_exact_coefficient(self, lax):
        modeq = derive_log(lax, 6)
        lam = Fraction(3, 8)
        g = _theta_coeffs(modeq, float(lam), 6)
        for p in range(1, 7):
            assert g[p] == (1j ** p) * float(modeq.coeff(p)(lam))

    def test_float_evaluation(self):
        # c_1 = 1/12 - lambda/2 at lambda = 0.5 is -1/6, rounded once
        modeq = ModifiedEq("t", 1, (lp("1/12", "-1/2"), LambdaPoly.zero()))
        g = _theta_coeffs(modeq, 0.5, 2)
        assert g[1] == complex(0.0, float(Fraction(-1, 6)))
        assert g[2] == 0

    def test_evaluates_a_float_lambda_at_its_binary_value(self):
        # c_1 = 10^20 (lambda - 1/10): at the float 0.1 it is 10^20 times
        # Fraction(0.1) - 1/10, about 555, not 0
        modeq = ModifiedEq("t", 1, (LambdaPoly((-10**19, 10**20)),))
        expected = float(10**20 * (Fraction(0.1) - Fraction(1, 10)))
        assert _theta_coeffs(modeq, 0.1, 1)[1] == complex(0.0, expected)

    def test_out_of_float_range_names_scheme_lambda_and_order(self):
        modeq = ModifiedEq("huge", 1, (LambdaPoly.one(), LambdaPoly.const(10**400)))
        with pytest.raises(ValueError, match=r"scheme huge: c_2 at lambda = 0.5 "):
            _theta_coeffs(modeq, 0.5, 2)


class TestHighOrderTruncation:
    """c_p at high order are large, cancelling polynomials; P_N must still be
    accurate to its float rounding."""

    def test_upwind_order_32_stable_near_three_quarters(self, upwind):
        report = region_scan(upwind, (0.7, 0.8, 11), orders=(32,))
        assert all(s.trunc_stable[32] for s in report.samples)

    def test_upwind_order_32_amplification_bounded(self, upwind):
        modeq = derive_log(upwind, 32)
        te = truncated_amplification(modeq, 0.75, theta_grid(), 32)
        assert float(np.max(np.abs(te.s_value))) <= 1 + 1e-12

    def test_upwind_order_32_real_part_negative_at_pi(self, upwind):
        modeq = derive_log(upwind, 32)
        assert truncated_amplification(modeq, 0.735, math.pi, 32).p_value.real < 0


def _exact_partial_sum(modeq: ModifiedEq, lam: float, theta: float, order: int):
    """P_N(theta) summed at 60 digits from c_p evaluated exactly at lambda,
    and sum_p |c_p| theta^p."""
    with mp.workdps(60):
        total, scale = mp.mpc(0), mp.mpf(0)
        for p in range(1, order + 1):
            c = modeq.coeff(p)(Fraction(lam))
            term = mp.mpf(c.numerator) / c.denominator * mp.mpf(theta) ** p
            total += term * mp.mpc(0, 1) ** p
            scale += abs(term)
        return complex(total), float(scale)


# spot checks that the 64-term generator series reproduces the symbol inside
# the contraction region; near its boundary the series converges too slowly
# at theta ~ pi for any fixed order, so the samples stay where a 64-term sum
# is meaningful
PARTIAL_SUM_SAMPLES = [
    ("heat_centered", Fraction(1, 20), math.pi),
    ("heat_centered", Fraction(1, 10), 2.5),
    ("heat_centered", Fraction(1, 5), 2.5),
    ("upwind_euler", Fraction(1, 20), math.pi),
    ("upwind_euler", Fraction(1, 10), 2.5),
    ("upwind_euler", Fraction(1, 5), 2.5),
    ("lax_wendroff", Fraction(1, 20), 2.5),
]


@pytest.fixture(scope="module")
def partial_sum_references():
    names = sorted({name for name, _, _ in PARTIAL_SUM_SAMPLES})
    return {name: derive_log(catalog_scheme(name), 64) for name in names}


def test_partial_sums_reproduce_symbol_to_1e8(partial_sum_references):
    for name, lam, theta_max in PARTIAL_SUM_SAMPLES:
        scheme = catalog_scheme(name)
        thetas = np.linspace(0.0, theta_max, 257)
        # the hypothesis: lambda inside the contraction region
        assert float(np.max(np.abs(1.0 - eval_symbol(scheme, lam, theta_grid(512))))) < 1.0
        s = eval_symbol(scheme, lam, thetas)
        s_ref = truncated_amplification(
            partial_sum_references[name], lam, thetas, 64
        ).s_value
        assert float(np.max(np.abs(s_ref - s))) <= 1e-8, (name, lam)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["heat_centered", "upwind_euler", "lax_wendroff"]),
       lam=st.floats(min_value=0.0, max_value=1.5, exclude_min=True),
       theta=st.floats(min_value=0.0, max_value=math.pi),
       order=st.integers(min_value=1, max_value=64))
def test_truncation_within_horner_bound(partial_sum_references, name, lam, theta, order):
    # Higham (2002), section 5.1: Horner on exact-then-rounded coefficients
    # errs by at most gamma_2N * sum_p |c_p| theta^p
    modeq = partial_sum_references[name]
    p_value = truncated_amplification(modeq, lam, theta, order).p_value
    exact, scale = _exact_partial_sum(modeq, lam, theta, order)
    assert abs(p_value - exact) <= 4 * order * np.finfo(float).eps * scale


class TestCertificate:
    def test_heat_inside_contraction_region(self, heat):
        modeq = derive_log(heat, 16)
        cert = truncation_certificate(
            heat, modeq, Fraction(1, 5), 4, support_m=math.pi, horizon_t=1.0
        )
        assert cert.growth_c == 0.0
        assert math.isfinite(cert.bound) and cert.bound >= 1.0

    def test_refusal_outside(self, heat):
        modeq = derive_log(heat, 16)
        with pytest.raises(CertificateRefusal):
            truncation_certificate(heat, modeq, 0.6, 4, math.pi, 1.0)

    def test_zero_support_collapses_to_growth_factor(self, heat):
        modeq = derive_log(heat, 16)
        cert = truncation_certificate(heat, modeq, Fraction(1, 5), 4, 0.0, 1.0)
        assert cert.bound == pytest.approx(math.exp(cert.growth_c * 1.0))

    def test_reference_order_must_exceed_truncation_order(self, heat):
        for order in (4, 5):
            with pytest.raises(ValueError, match="reference order"):
                truncation_certificate(heat, derive_log(heat, 4), Fraction(1, 5), order,
                                       math.pi, 1.0)


class TestUpwindSymmetry:
    def test_quarter(self, upwind):
        report = upwind_symmetry_check(Fraction(1, 4), derive_log(upwind, 8))
        assert report.ok
        assert report.max_modulus_diff <= 1e-12
        assert report.orders == (2, 4, 6, 8)

    def test_fixed_point(self, upwind):
        report = upwind_symmetry_check(0, derive_log(upwind, 6))
        assert report.ok and report.max_modulus_diff == 0.0

    def test_edge_compares_frozen_and_unit_transport(self, upwind):
        report = upwind_symmetry_check(Fraction(1, 2), derive_log(upwind, 8))
        assert report.ok

    def test_domain(self, upwind):
        with pytest.raises(ValueError):
            upwind_symmetry_check(Fraction(3, 4), derive_log(upwind, 8))


class TestFigureData:
    def test_empty_lambda_list(self, heat):
        assert figure_data(heat, derive_log(heat, 8), [], (2, 8)) == []

    def test_table_shape(self, heat):
        tables = figure_data(
            heat, derive_log(heat, 8), [Fraction(1, 2), Fraction(1, 4)], (2, 8), grid=128
        )
        assert [t.lam for t in tables] == [0.5, 0.25]
        for t in tables:
            assert t.csv_header() == ["theta", "abs_S", "abs_S_N2", "abs_S_N8"]
            rows = list(t.csv_rows())
            assert len(rows) == 128
            assert rows[0][0] == 0.0 and rows[-1][0] == math.pi

    def test_grid_endpoints_exact(self):
        thetas = theta_grid(64)
        assert thetas[0] == 0.0
        assert thetas[-1] == math.pi
