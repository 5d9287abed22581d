from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from modeq.derivation import derive_log
from modeq.schemes import builtin_catalog, catalog_scheme
from modeq.spectra import (
    DEFAULT_TOL,
    CertificateRefusal,
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
