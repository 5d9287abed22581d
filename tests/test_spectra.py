from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp

from conftest import lp, random_stencils
from modeq.cli import main
from modeq.derivation import (ModifiedEq, _cosine_tables, _modulus_table, derive_log,
                              upwind_symmetry_check)
from modeq.empirics import evolve_and_compare
from modeq.exactalg import LP_ONE, LP_ZERO, LambdaPoly
from modeq.schemes import SchemeSpec, builtin_catalog, catalog_scheme
from modeq.spectra import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    THETAS,
    CertificateRefusal,
    _horner_upper,
    _lambda_samples,
    _peaks,
    _rounded_tables,
    _truncation,
    _truncation_verdicts,
    _theta_coeffs,
    eval_symbol,
    figure_data,
    require_lambda,
    truncation_certificate,
    region_scan,
    symbol_weights,
)
from oracles import lambda_sample_json_dict, sweep_region_scan


def _truncated(modeq: ModifiedEq, lam, theta, order: int) -> tuple:
    """P_N and S_N = exp(lambda P_N) at ``theta``, a scalar or an array, by
    the path the figures, certificates and evolutions share."""
    return _truncation(np.asarray(theta, dtype=complex), _theta_coeffs(modeq, lam, order),
                       float(lam))


class TestLambdaDomain:
    """One rule for the mesh ratio, on its exact value."""

    @pytest.mark.parametrize("lam", [0, 0.0, Fraction(0), 1e-300, Fraction(1, 10**400)])
    def test_nonnegative_admits_zero_and_tiny(self, lam):
        require_lambda("heat_centered", lam, positive=False)

    # a lambda of many digits is printed to 17 significant digits
    @pytest.mark.parametrize("lam", [-1, -5e-324, Fraction(-1, 10**400)])
    def test_negative_refused(self, lam):
        text = "-1e-400" if isinstance(lam, Fraction) else str(lam)
        with pytest.raises(ValueError, match=rf"^scheme s: lambda must be nonnegative, "
                                             rf"got {text}$"):
            require_lambda("s", lam, positive=False)

    @pytest.mark.parametrize("lam", [0, 0.0, -0.5, Fraction(-1, 4)])
    def test_positive_refuses_zero_and_below(self, lam):
        with pytest.raises(ValueError, match=rf"^scheme s: lambda must be positive, got {lam}$"):
            require_lambda("s", lam, positive=True)

    # the smallest normal double is admitted, anything below it refused
    def test_positive_refuses_below_the_smallest_normal_double(self):
        tiny = sys.float_info.min
        require_lambda("s", tiny, positive=True)
        require_lambda("s", Fraction(tiny), positive=True)
        for lam in (Fraction(tiny) - Fraction(1, 10**400), tiny / 2, 5e-324):
            with pytest.raises(ValueError, match=r"^scheme s: lambda = .* lies below the "
                                                 r"smallest normal double "
                                                 r"2\.2250738585072014e-308$"):
                require_lambda("s", lam, positive=True)

    def test_message_without_a_scheme(self):
        with pytest.raises(ValueError, match=r"^lambda must be positive, got 0$"):
            require_lambda(None, 0, positive=True)

    # an infinite lambda has no exact value to round: the OverflowError of
    # its integer ratio, not the "beyond the float range" of a rounded term
    def test_infinite_lambda_has_no_exact_value(self, heat):
        with pytest.raises(OverflowError, match="^cannot convert Infinity to integer ratio$"):
            eval_symbol(heat, math.inf, 0.0)

    def test_certificate_refuses_a_subnormal_lambda(self, heat):
        modeq = derive_log(heat, 16)
        with pytest.raises(ValueError, match="smallest normal double"):
            truncation_certificate(heat, modeq, 1e-310, (4,), math.pi, 1.0)


class TestEvalSymbol:
    def test_negative_lambda_names_scheme_and_value(self, heat):
        with pytest.raises(ValueError,
                           match=r"^scheme heat_centered: lambda must be nonnegative, got -0.25$"):
            eval_symbol(heat, -0.25, 0.0)

    def test_heat_at_pi(self, heat):
        assert eval_symbol(heat, Fraction(1, 2), math.pi) == pytest.approx(-1.0, abs=1e-15)

    def test_consistency_at_zero(self):
        for scheme in builtin_catalog():
            assert eval_symbol(scheme, 0.37, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_upwind_unit_circle_at_full_ratio(self, upwind):
        thetas = np.linspace(0.0, math.pi, 257)
        s = eval_symbol(upwind, 1, thetas)
        assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-14

    def test_modulus_is_even(self):
        thetas = np.linspace(0.0, math.pi, 513)
        for scheme in builtin_catalog():
            for lam in (Fraction(1, 4), Fraction(1, 2)):
                plus = np.abs(eval_symbol(scheme, lam, thetas))
                minus = np.abs(eval_symbol(scheme, lam, -thetas))
                assert np.max(np.abs(plus - minus)) <= 1e-14

    def test_upwind_full_ratio_is_an_exact_shift(self, upwind):
        # a_0 = 1 - lambda vanishes and a_{-1} = lambda is 1 at lambda = 1
        thetas = np.linspace(0.0, math.pi, 257)
        assert np.array_equal(eval_symbol(upwind, 1, thetas), np.exp(-1j * thetas))
        assert eval_symbol(upwind, 1, 0.3) == np.exp(-0.3j)


class TestSymbolTable:
    def test_symbol_weights_exact_before_rounding(self, lax):
        # a_{-1}(1/3) = (1/3)(1/2 + 1/6) = 2/9 and a_0(1/3) = 1 - 1/9 = 8/9
        weights = dict(symbol_weights(lax, Fraction(1, 3)))
        assert weights[-1] == float(Fraction(2, 9))
        assert weights[0] == float(Fraction(8, 9))

    @settings(max_examples=60, deadline=None)
    @given(random_stencils(), st.floats(0, 2), st.floats(-math.pi, math.pi))
    def test_symbol_table_and_its_float_evaluation(self, scheme, lam, theta):
        offsets = [p for p, _ in scheme.symbol]
        assert offsets == sorted({0} | {p for p, _ in scheme.stencil})
        assert sum((a for _, a in scheme.symbol), LP_ZERO) == LP_ONE
        assert (scheme.n_left, scheme.n_right) == (-offsets[0], offsets[-1])
        x = Fraction(lam)
        with mp.workdps(50):
            exact = 1 + mp.mpf(x.numerator) / x.denominator * mp.fsum(
                mp.mpf(w(x).numerator) / w(x).denominator * mp.expj(p * mp.mpf(theta))
                for p, w in scheme.stencil)
            err = float(abs(eval_symbol(scheme, lam, theta) - exact))
        scale = 1 + lam * sum(abs(float(w(x))) for _, w in scheme.stencil)
        assert err <= 8 * np.finfo(float).eps * scale


class TestThetaM:
    # region_scan over (0, 1/2, 3) samples lambda = 0, 1/4 and 1/2 exactly
    def test_heat_quarter_full_interval(self, heat):
        assert region_scan(heat, (0.0, 0.5, 3)).columns["theta_m"][1] == math.pi

    def test_heat_half_crosses_at_pi_over_two(self, heat):
        theta_star = region_scan(heat, (0.0, 0.5, 3)).columns["theta_m"][2]
        step = math.pi / (DEFAULT_GRID - 1)
        assert 0.0 <= theta_star - math.pi / 2 <= step + 1e-12

    def test_upwind_half_full_interval(self, upwind):
        assert region_scan(upwind, (0.0, 0.5, 3)).columns["theta_m"][2] == math.pi


class TestRegionScan:
    def test_heat_boundaries(self, heat):
        report = region_scan(heat, (0.0, 0.6, 61), orders=(4,))
        assert report.rs_boundary() == pytest.approx(0.5, abs=1e-12)
        assert report.omega_c_boundary() == pytest.approx(0.24, abs=1e-12)
        assert all(report.trunc_stable[4])

    def test_upwind_boundaries(self, upwind):
        report = region_scan(upwind, (0.0, 1.2, 61))
        assert report.rs_boundary() == pytest.approx(1.0, abs=1e-12)
        assert report.omega_c_boundary() == pytest.approx(0.48, abs=1e-12)

    def test_membership_flags_are_consistent(self, heat):
        report = region_scan(heat, (0.0, 0.6, 31))
        _check_flags(report)

    def test_validation(self, heat):
        with pytest.raises(ValueError):
            region_scan(heat, (-0.1, 0.5, 10))
        with pytest.raises(ValueError):
            region_scan(heat, (0.0, 0.5, 1))

    # coefficients as the scan makes them: rounded exact values, never -0.0
    # (0.0 - c and float_at give +0.0 for a zero), with +0.0 at odd powers;
    # n covers odd orders and N = 1, whose top entry is an odd +0.0
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 65).flatmap(lambda n: st.tuples(st.just(n), st.lists(
               st.one_of(st.just(0.0), st.floats(-1e6, 1e6).map(lambda v: v + 0.0)),
               min_size=n // 2 + 1, max_size=n // 2 + 1))),
           st.integers(2, 200))
    def test_kernel_at_a_point_is_polyval(self, n_evens, grid):
        n, evens = n_evens
        c = np.zeros(n + 1)
        c[::2] = evens
        thetas = np.linspace(0.0, math.pi, grid)
        # each grid point as the degenerate interval [x, x]
        values = _horner_upper(thetas, thetas, c[None])[:, 0]
        expected = np.polynomial.polynomial.polyval(thetas, c)
        assert [v.hex() for v in values.tolist()] == [v.hex() for v in expected.tolist()]

    def test_scan_rounds_only_the_even_coefficients(self, upwind, rounded_values):
        # Re P_N reads c_p at even p only: 301 samples of the 4 table values
        # r_0, r_1, 1 - r_0 and v_1, and 32 even c_p; no a_p
        region_scan(upwind, (0.0, 1.5, 301), orders=range(2, 65, 2))
        assert len(rounded_values) == 301 * (4 + 32)

    def test_scan_reads_no_odd_coefficient(self, heat, monkeypatch):
        # c_1 is beyond the float range, but Re P_2 = -c_2 theta^2 never reads it
        modeq = ModifiedEq("huge", 1, (LambdaPoly.const(10**400), LP_ONE))
        monkeypatch.setattr("modeq.spectra.derive_log", lambda scheme, order: modeq)
        report = region_scan(heat, (0.0, 0.5, 3), orders=(2,))
        assert report.trunc_stable == {2: (True, True, True)}
        with pytest.raises(ValueError, match=r"scheme huge: c_1 at lambda = 0.5 "):
            _theta_coeffs(modeq, 0.5, 2)

    @settings(max_examples=30, deadline=None)
    @given(random_stencils(), st.lists(st.integers(1, 64), max_size=3),
           st.floats(0.01, 2.0), st.integers(2, 5))
    def test_scan_equals_per_lambda_reference(self, scheme, orders, hi, count):
        # the scan decides most verdicts without a sweep; each verdict must
        # equal the per-lambda full sweep, bit for bit, and each field must
        # bound the sweep's as _check_fields says
        try:
            expected = sweep_region_scan(scheme, (0.0, hi, count), orders)
        except ValueError as exc:  # a c_p beyond the float range
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                region_scan(scheme, (0.0, hi, count), orders=orders)
            return
        report = region_scan(scheme, (0.0, hi, count), orders=orders)
        _check_fields(scheme, report, expected)

    @pytest.mark.parametrize("name, hi", [("heat_centered", 1.0), ("upwind_euler", 2.5),
                                          ("lax_wendroff", 2.5)])
    def test_catalog_scan_equals_full_sweep(self, name, hi):
        # lambda runs past R_s; orders cover N = 1, odd N and the cap N = 64
        scheme = catalog_scheme(name)
        orders = (1, 2, 3, 4, 8, 15, 16, 31, 32, 63, 64)
        report = region_scan(scheme, (0.0, hi, 101), orders=orders)
        expected = sweep_region_scan(scheme, (0.0, hi, 101), orders)
        _check_fields(scheme, report, expected)
        # on the catalog |1 - S| crosses 1, not grazes it: theta_m lies
        # within one grid step before the grid's first crossing
        step = math.pi / (DEFAULT_GRID - 1)
        assert all(grid - step <= got <= grid for got, grid in
                   zip(report.columns["theta_m"], expected.columns["theta_m"]))

    # lambda = 0, where S = 1; upwind at lambda = 1, where |S| = 1; heat at
    # 1/4 and 1/2; Lax-Wendroff at small lambda, where |S| is flat to fourth
    # order at theta = 0; Lax-Wendroff's S past the float range near
    # theta = pi at its two largest lambdas
    @example(catalog_scheme("heat_centered"), 0.0, 0.5, 3)
    @example(catalog_scheme("upwind_euler"), 0.0, 2.0, 3)
    @example(catalog_scheme("lax_wendroff"), 0.0, 1e-3, 33)
    @example(catalog_scheme("lax_wendroff"), 0.0, 1.3e154, 5)
    # |1 - S| = |sin(3 theta / 2)| touches 1 at pi / 3, between grid points:
    # the sweep's first crossing is pi
    @example(SchemeSpec(name="touch", q=1, pde={1: Fraction(1)},
                        stencil={-1: lp(-1), 2: lp(1)}), 0.0, 0.5, 2)
    # at large lambda the top coefficient of (|S|^2)' is 1e-13 of the
    # largest: without Newton steps its colleague eigenvalue misses the
    # peak of |S| by 1e-4 in c, and max |S| by 5e-8 of its value
    @example(SchemeSpec(name="lopsided", q=1, pde={1: Fraction(1)},
                        stencil={1: lp("-5/2"), 3: lp("5/2")}), 0.0, 3074321946872.0, 31)
    # |1 - S| meets 1 almost tangentially near theta = 0.0034 at sample 29:
    # bisecting on the cosine sum of |1 - S|^2, not on hypot(R, sin V),
    # stops where |1 - S| = 1 - 8e-12
    @example(SchemeSpec(name="graze", q=1, pde={1: Fraction(1)},
                        stencil={-3: lp("-5/2", -7), -1: lp("3/2"), 0: lp(1, 2), 2: lp(0, 3),
                                 3: lp(0, 2)}), 0.0, 3.1985161438879612, 33)
    # a constant weight beside weights in lambda: at these lambdas the top
    # coefficient of (|S|^2)' is below 1e-13 of the largest, and with it in
    # the colleague matrix max |S| fell short by 2e-8 and 5e-4 of its value
    @example(SchemeSpec(name="flat_top", q=1, pde={1: Fraction(1)},
                        stencil={-3: lp("-3/2", -1), 0: lp(0), 1: lp(0, 1), 2: lp("3/2"),
                                 3: lp(0)}), 0.0, 6391818285853588.0, 2)
    @example(SchemeSpec(name="flat_top", q=1, pde={1: Fraction(1)},
                        stencil={-2: lp("-1/2"), -1: lp(0, 1), 0: lp("1/2", "-1/2"),
                                 3: lp(0, "-1/2")}), 0.0, 21990274539515.0, 2)
    @settings(max_examples=60, deadline=None)
    @given(random_stencils(width=3), st.sampled_from([0.0, 0.5]),
           st.one_of(st.floats(0.01, 4.0), st.floats(1.0, 1e200)),
           st.sampled_from([2, 5, 31, 32, 33, 65]))
    def test_fields_bound_the_grid_sweep(self, scheme, share, hi, count):
        # the maxima and theta_m come from the cosine sums, not the grid;
        # they must bound the full sweep's as _check_fields says, also where
        # a large lambda overflows S to inf
        lambda_range = (share * hi, hi, count)
        try:
            expected = sweep_region_scan(scheme, lambda_range, ())
        except ValueError as exc:  # an a_p beyond the float range
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                region_scan(scheme, lambda_range)
            return
        _check_fields(scheme, region_scan(scheme, lambda_range), expected)

    @pytest.mark.parametrize("name, lam, max_abs_s, max_abs_oms, theta_m", [
        ("heat_centered", 0.25, 1.0, 1.0, math.pi),
        ("heat_centered", 0.5, 1.0, 2.0, math.acos(0.0)),
        ("upwind_euler", 1.0, 1.0, 2.0, math.pi / 3),
        ("lax_wendroff", 1.0, 1.0, 2.0, math.pi / 3),
    ])
    def test_pinned_fields(self, name, lam, max_abs_s, max_abs_oms, theta_m):
        # lambda = 0, where S = 1, and the fields at lambda, exact in floats;
        # at lambda = 1 upwind and Lax-Wendroff shift by one cell, S =
        # e^{-i theta}, and |1 - S| = 2 sin(theta / 2) reaches 1 at pi / 3
        columns = region_scan(catalog_scheme(name), (0.0, lam, 2)).columns
        (zero_s, s), (zero_oms, oms), (zero_theta, theta) = (
            columns[key] for key in ("max_abs_S", "max_abs_one_minus_S", "theta_m"))
        assert (zero_s, zero_oms, zero_theta) == (1.0, 0.0, math.pi)
        assert (s, oms) == (max_abs_s, max_abs_oms)
        assert abs(theta - theta_m) <= 4e-16 * theta_m
        if theta_m in (math.pi, math.acos(0.0)):
            assert theta == theta_m

    # the known tolerance defect: one float past R_s still reads stable,
    # since a verdict admits max |S| up to 1 + DEFAULT_TOL; ROADMAP item 14
    # decides it without a tolerance
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 14: max |S| = 1 + 8e-13 reads "
                                           "stable within DEFAULT_TOL")
    def test_heat_past_half_is_unstable(self, heat):
        report = region_scan(heat, (0.0, 0.5 + 2e-13, 2))
        assert report.samples[1] == 0.5000000000002
        assert report.columns["max_abs_S"][1] == 1.0000000000007998
        assert report.columns["in_Rs"][1] is False

    def test_lambda_samples_are_correctly_rounded(self, upwind):
        # linspace put 1.0000000000000002 at sample 375 of 0:1.6:601
        report = region_scan(upwind, (0.0, 1.6, 601))
        assert report.samples[375] == 1.0
        assert report.rs_boundary() == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1e300), st.floats(0.0, 1e300), st.integers(2, 40))
    def test_every_lambda_sample_is_the_rounded_fraction(self, lo, hi, count):
        lo, hi = sorted((lo, hi))
        assume(lo < hi)
        exact = [float(Fraction(lo) + k * (Fraction(hi) - Fraction(lo)) / (count - 1))
                 for k in range(count)]
        assert [lam.hex() for lam in _lambda_samples(lo, hi, count)] == \
            [lam.hex() for lam in exact]

    def test_degenerate_rows_never_reach_the_eigenvalues(self, monkeypatch):
        # at lambda = 0 every weight of 1 - S is 0, upwind's |S|^2 and
        # |1 - S|^2 are linear in c, and the outer weights of "drop" vanish
        # at lambda = 1, where the degree of its |S|^2 falls from 4 to 2:
        # every matrix the eigenvalue routine sees is finite, and a row
        # reaches it only at the degree of its own polynomial
        eigvals, seen = np.linalg.eigvals, []

        def recorded(a):
            seen.append(a)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        for name, hi in (("heat_centered", 1.0), ("upwind_euler", 2.0), ("lax_wendroff", 2.0)):
            region_scan(catalog_scheme(name), (0.0, hi, 5))
        assert seen == []  # degree at most 1: the root of a line needs no matrix
        drop = SchemeSpec(name="drop", q=2, pde={2: Fraction(1)}, stencil={
            -2: lp(1, -1), -1: lp(1), 0: lp(-4, 2), 1: lp(1), 2: lp(1, -1)})
        report = region_scan(drop, (0.0, 2.0, 5))
        assert seen and all(np.isfinite(a).all() and a.shape[1:] == (3, 3) for a in seen)
        # lambda = 1/2, 3/2 and 2, for S and 1 - S
        assert sum(len(a) for a in seen) == 2 * 3
        _check_fields(drop, report, sweep_region_scan(drop, (0.0, 2.0, 5), ()))

    def test_overflowing_fields_read_inf(self, heat):
        # |S(pi)| = |1 - S(pi)| - 2 = 4 lambda - 1: 1.6e308 at lambda = 4e307,
        # and beyond the float range at 8e307
        report = region_scan(heat, (0.0, 8e307, 3))
        assert report.columns["max_abs_S"] == (1.0, 1.6e308, math.inf)
        assert report.columns["max_abs_one_minus_S"] == (0.0, 1.6e308, math.inf)
        assert report.rs_boundary() == 0.0

    def test_widest_stencil_reads_its_stable_lambdas(self):
        # on offsets -32..32 the monomial coefficients in c of R and V reach
        # 7e7 at lambda = 1/5: rounded, they put max |S| 9e-9 above 1 there,
        # an unstable verdict; the tables on T_d and U_{d-1} keep it within
        # rounding
        weights = {p: lp(Fraction(1 if p % 2 else -1, p * p)) for p in range(-32, 33) if p}
        weights[0] = -sum(weights.values(), LP_ZERO)
        dense = SchemeSpec(name="dense", q=2, stencil=weights, pde={2: Fraction(1)})
        report = region_scan(dense, (0.0, 0.4, 3))
        assert all(abs(s - 1.0) <= 4e-16 for s in report.columns["max_abs_S"])
        assert report.columns["in_Rs"] == (True, True, True)
        _check_fields(dense, report, sweep_region_scan(dense, (0.0, 0.4, 3), ()))
        # 2^18 // 32^2 = 256 lambdas per block of eigenvalue problems: the
        # last sample of a 301-sample scan, in the second block, reads as
        # it does alone
        assert _row(region_scan(dense, (0.0, 0.3, 301)), -1) == \
            _row(region_scan(dense, (0.0, 0.3, 2)), -1)


def _check_fields(scheme: SchemeSpec, report, expected) -> None:
    """Each sample of a scan's report against the full sweep's at the same
    lambda, bit for bit in lambda and the verdicts.  With A = sum_p |a_p|, slack =
    2^-44 (1 + A) covers the float error of either maximum.  Each maximum
    is at least the sweep's less slack, and at most the bound of the largest
    value between two grid points: with b the weights of S or 1 - S, the
    square of the maximum on a piece of width h is at most the square of
    its larger end value plus F_2 h^2 / 8, F_2 = sum (p - q)^2 |b_p| |b_q|
    <= (width * sum |b|)^2.  Where slack is below 2^-20, theta_m is not
    after the sweep's first crossing, within sqrt(slack), and at it
    |1 - S| >= 1 - slack.  It can lie more than a grid step before that
    crossing, where |1 - S| reaches 1 only between two grid points."""
    step = math.pi / (DEFAULT_GRID - 1)
    width = scheme.n_left + scheme.n_right
    assert len(report.samples) == len(expected.samples)
    _check_flags(report)
    for k in range(len(report.samples)):
        got, grid = _row(report, k), _row(expected, k)
        assert got["lambda"].hex() == grid["lambda"].hex()
        assert got["trunc_stable"] == grid["trunc_stable"]
        total = sum(abs(a) for _, a in symbol_weights(scheme, got["lambda"]))
        slack = 2.0 ** -44 * (1.0 + total)
        for key, b in (("max_abs_S", total), ("max_abs_one_minus_S", 1.0 + total)):
            value, swept = got[key], grid[key]
            assert value >= swept - slack or swept == math.inf
            assert value <= math.hypot(swept, width * b * step / math.sqrt(8)) + slack
        if slack > 2.0 ** -20:
            continue  # |1 - S| is not known to within 2^-20: where it reaches 1 is noise
        # theta_m moves by up to sqrt(slack) where |1 - S| only grazes 1
        assert got["theta_m"] <= grid["theta_m"] + math.sqrt(slack)
        if got["theta_m"] < math.pi:
            assert abs(1.0 - eval_symbol(scheme, got["lambda"], got["theta_m"])) >= 1.0 - slack


def _check_flags(report) -> None:
    """in_Rs and in_Omega_c of every sample as its maxima and DEFAULT_TOL say."""
    columns = report.columns
    assert columns["in_Rs"] == tuple(s <= 1.0 + DEFAULT_TOL for s in columns["max_abs_S"])
    assert columns["in_Omega_c"] == tuple(oms < 1.0 - DEFAULT_TOL
                                          for oms in columns["max_abs_one_minus_S"])


_row = lambda_sample_json_dict  # sample k of a report, by report key


# the even entries of a Re P_N row: all <= 0, all >= 0 or of mixed signs,
# with +-0.0, values near DEFAULT_TOL and magnitudes up to 1e300, where
# Horner overflows to +-inf (never to NaN: the entries are finite)
_EDGE_VALUES = [0.0, -0.0, DEFAULT_TOL, -DEFAULT_TOL, 5e-324, 1.0, 1e300, -1e300]
_SIGNS = {"nonpositive": lambda v: -abs(v), "nonnegative": abs, "mixed": lambda v: v}


@st.composite
def _even_rows(draw, n: int) -> list:
    scale = draw(st.sampled_from([1e-11, 1e3, 1e300]))  # one magnitude class per row
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(-scale, scale))
    sign = _SIGNS[draw(st.sampled_from(sorted(_SIGNS)))]
    row = [0.0] * (n + 1)
    row[::2] = [sign(v) for v in draw(st.lists(value, min_size=n // 2 + 1,
                                               max_size=n // 2 + 1))]
    return row


# the rows of one order, stacked as a scan stacks its lambdas
_ROW_BATCHES = st.integers(1, 65).flatmap(
    lambda n: st.lists(_even_rows(n), min_size=1, max_size=6))


def _swept_verdicts(thetas: np.ndarray, rows: list) -> list:
    """Each row's verdict by ``polyval`` over the whole of ``thetas``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [bool(np.polynomial.polynomial.polyval(thetas, row).max() <= DEFAULT_TOL)
                for row in rows]


# rows that only step 3 decides on a 64-point grid: -(theta^2 - 1)^2,
# stable, and 1e-6 - (theta^2 - a)^2, unstable at theta = sqrt(a), the grid
# point 5, between the points 3 and 7 of step 1
_A = np.linspace(0.0, math.pi, 64)[5].item() ** 2
_STEP3_ROWS = ([-1.0, 0.0, 2.0, 0.0, -1.0], [1e-6 - _A * _A, 0.0, 2 * _A, 0.0, -1.0])


def _float_horner(x: float, c: list) -> float:
    """sum_k c[k] x^k by ``polyval``'s steps on Python floats, less its adds
    of +0.0 at odd k."""
    v = c[-1]
    for k in range(len(c) - 2, -1, -1):
        v *= x
        if k % 2 == 0:
            v += c[k]
    return v


def _recording_kernel(monkeypatch, calls: list) -> None:
    """Patch the verdicts' kernel to append, per call, whether it evaluates
    a row at grid points only (step 3) rather than at the 17 points and on
    the 16 pieces."""
    kernel = _horner_upper
    monkeypatch.setattr("modeq.spectra._horner_upper",
                        lambda x_a, x_b, rows: (calls.append(x_a is x_b)
                                                or kernel(x_a, x_b, rows)))


class TestTruncationVerdict:
    # the grid maximum exactly DEFAULT_TOL, at theta = 0 only and everywhere;
    # an entry in (0, tol] that pi^2 lifts above tol; an entry in (-tol, 0)
    # that pulls the value at pi, not the maximum, below tol
    @example([[DEFAULT_TOL, 0.0, -1.0], [DEFAULT_TOL, 0.0, 0.0], [0.0, 0.0, DEFAULT_TOL]], 64)
    @example([[0.0, 0.0, 1e-12, 0.0, -1e-13]], 64)
    # Horner overflows to -inf at pi, and so does the last piece's upper
    # end; the first piece's clamp keeps its upper end finite, where
    # -inf * 0 would be NaN (its right end is below 1, so that end itself
    # never reaches -inf): stable
    @example([[0.0, 0.0, 1e-14] + [0.0] * 33 + [-1e300]], 64)
    # the value at pi overflows to -inf, but theta^34 outgrows theta^36
    # below 1, so a point below 1 decides: unstable
    @example([[0.0] * 34 + [1e300, 0.0, -1e300]], 64)
    # 0.1 - (pi^2/4 - theta^2)^2 exceeds tol only near pi/2, far from 0
    # and pi: the point nearest pi/2 decides, unstable
    @example([[0.1 - math.pi ** 4 / 16, 0.0, math.pi ** 2 / 2, 0.0, -1.0]], 64)
    # -(theta^2 - 1)^2 is at most 0, but the piece bound around theta = 1
    # sees no cancellation: the grid is evaluated, stable; and a bump above
    # tol between two points of step 1: the grid is evaluated, unstable
    @example(list(_STEP3_ROWS), 64)
    # lax_wendroff at lambda = 0.8, N = 8: stable, and the pieces decide it
    # where one bound on all of [0, pi] exceeds tol
    @example([[0.0, 0.0, 0.0, 0.0, -0.03599999999999998, 0.0, 0.005999999999999997, 0.0,
               -0.0014867999999999988]], 64)
    @settings(max_examples=400, deadline=None)
    @given(_ROW_BATCHES, st.integers(64, 4097))
    def test_verdict_equals_full_sweep(self, rows, grid):
        thetas = np.linspace(0.0, math.pi, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            verdicts = _truncation_verdicts(thetas, np.array(rows))
        assert verdicts == _swept_verdicts(thetas, rows)

    # a verdict reads only its own row: a batch of more than 1024 rows, which
    # the kernel takes in blocks, gets the per-row sweep's verdicts, and a
    # shuffled batch the shuffled verdicts; the drawn rows are mixed with
    # _STEP3_ROWS, so that some rows in every block reach step 3
    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 65).flatmap(lambda n: st.lists(_even_rows(n), min_size=1, max_size=6)),
           st.integers(1025, 1100), st.integers(0, 2**32 - 1))
    def test_verdicts_are_per_row(self, rows, size, seed):
        thetas = np.linspace(0.0, math.pi, 64)
        rows = rows + [row + [0.0] * (len(rows[0]) - len(row)) for row in _STEP3_ROWS]
        rng = np.random.default_rng(seed)
        batch = [rows[i] for i in rng.integers(len(rows), size=size).tolist()]
        order = rng.permutation(size).tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            verdicts = _truncation_verdicts(thetas, np.array(batch))
            shuffled = _truncation_verdicts(thetas, np.array([batch[i] for i in order]))
        assert verdicts == _swept_verdicts(thetas, batch)
        assert shuffled == [verdicts[i] for i in order]

    def test_sweep_runs_only_for_mixed_signs(self, monkeypatch):
        swept = []
        _recording_kernel(monkeypatch, swept)
        thetas = np.linspace(0.0, math.pi, 64)
        # one-signed, then mixed signs decided by the points or the pieces
        rows = [[0.0, 0.0, -1.0, 0.0, -2.0], [0.0, 0.0, 1.0, 0.0, -0.01],
                [0.0, 0.0, DEFAULT_TOL / 20, 0.0, 0.0], [0.0, 0.0, 1e-14, 0.0, -1.0]]
        assert _truncation_verdicts(thetas, np.array(rows)) == [True, False, True, True]
        assert swept == [False]
        # mixed signs that only the grid decides
        swept.clear()
        assert _truncation_verdicts(thetas, np.array(_STEP3_ROWS)) == [True, False]
        assert swept == [False, True, True]

    # a row whose even entries share a sign is decided by the values at the
    # points or by the pieces' upper ends: the grid is never evaluated
    @example([[DEFAULT_TOL, 0.0, 0.0]], 64)  # value and bound exactly tol
    @settings(max_examples=200, deadline=None)
    @given(_ROW_BATCHES, st.integers(64, 4097))
    def test_one_signed_rows_need_no_sweep(self, rows, grid):
        rows = [row for row in rows
                if all(d <= 0 for d in row[::2]) or all(d >= 0 for d in row[::2])]
        assume(rows)
        swept = []
        with pytest.MonkeyPatch.context() as patch, \
                np.errstate(over="ignore", invalid="ignore"):
            _recording_kernel(patch, swept)
            _truncation_verdicts(np.linspace(0.0, math.pi, grid), np.array(rows))
        assert swept == [False]

    # the kernel's value at the degenerate interval [pi, pi] is the
    # Python-float Horner value at pi, bit for bit
    @settings(max_examples=200, deadline=None)
    @given(_ROW_BATCHES)
    def test_value_is_the_horner_value_at_pi(self, rows):
        pi = np.array([math.pi])
        with np.errstate(over="ignore", invalid="ignore"):
            [value] = _horner_upper(pi, pi, np.array(rows))
        assert [v.hex() for v in value.tolist()] == \
            [_float_horner(math.pi, row).hex() for row in rows]

    def test_catalog_scans_sweep_rarely(self, monkeypatch):
        # 1803 verdicts per scan; the values at 17 points and the upper ends
        # on the 16 pieces between them decide all 5409
        swept, batches = [], []
        _recording_kernel(monkeypatch, swept)
        verdicts = _truncation_verdicts
        monkeypatch.setattr("modeq.spectra._truncation_verdicts",
                            lambda thetas, rows: (batches.append(rows)
                                                  or verdicts(thetas, rows)))
        reports = [region_scan(catalog_scheme(name), (0.0, hi, 601), orders=(2, 4, 8))
                   for name, hi in (("heat_centered", 0.8), ("upwind_euler", 1.6),
                                    ("lax_wendroff", 1.6))]
        assert sum(swept) == 0
        # lax_wendroff's stable rows at N = 8: one bound on all of [0, pi]
        # leaves 374 of them undecided, the 16 pieces none
        rows = batches[-1]
        stable = np.array(reports[-1].trunc_stable[8])
        ends = THETAS[[k * (DEFAULT_GRID - 1) // 16 for k in range(17)]]
        whole = _horner_upper(ends[:1], ends[-1:], rows)[0]
        pieces = _horner_upper(ends[:-1], ends[1:], rows).max(axis=0)
        assert np.count_nonzero(stable & (whole > DEFAULT_TOL)) == 374
        assert np.all(pieces[stable] <= DEFAULT_TOL)


class TestTruncatedAmplification:
    def test_heat_second_order_at_pi(self, heat):
        modeq = derive_log(heat, 8)
        p_val, s_val = _truncated(modeq, Fraction(1, 4), math.pi, 2)
        assert p_val == pytest.approx(-math.pi**2)
        assert abs(s_val) == pytest.approx(math.exp(-math.pi**2 / 4), rel=1e-12)

    def test_unity_at_zero(self):
        for scheme in builtin_catalog():
            modeq = derive_log(scheme, 6)
            assert _truncated(modeq, 0.3, 0.0, 6)[1] == 1.0

    def test_order_cap(self, heat):
        modeq = derive_log(heat, 4)
        with pytest.raises(ValueError):
            _theta_coeffs(modeq, 0.25, 6)

    def test_modulus_follows_real_part(self, upwind):
        modeq = derive_log(upwind, 6)
        for theta in (0.3, 1.1, 2.9):
            p_val, s_val = _truncated(modeq, 0.4, theta, 6)
            assert abs(s_val) == pytest.approx(math.exp(0.4 * p_val.real), rel=1e-14)

    def test_higher_order_tracks_symbol_better(self, heat):
        # inside the contraction region the N=8 curve improves on N=2
        modeq = derive_log(heat, 8)
        s = np.abs(eval_symbol(heat, Fraction(1, 4), THETAS))
        gap = {}
        for n in (2, 8):
            sn = np.abs(_truncated(modeq, Fraction(1, 4), THETAS, n)[1])
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
        modeq = ModifiedEq("t", 1, (LP_ZERO,) * 4)
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
        modeq = ModifiedEq("t", 1, (lp("1/12", "-1/2"), LP_ZERO))
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
        modeq = ModifiedEq("huge", 1, (LP_ONE, LambdaPoly.const(10**400)))
        with pytest.raises(ValueError, match=r"scheme huge: c_2 at lambda = 0.5 "):
            _theta_coeffs(modeq, 0.5, 2)


class TestHighOrderTruncation:
    """c_p at high order are large, cancelling polynomials; P_N must still be
    accurate to its float rounding."""

    def test_upwind_order_32_stable_near_three_quarters(self, upwind):
        report = region_scan(upwind, (0.7, 0.8, 11), orders=(32,))
        assert all(report.trunc_stable[32])

    def test_upwind_order_32_amplification_bounded(self, upwind):
        modeq = derive_log(upwind, 32)
        s_val = _truncated(modeq, 0.75, THETAS, 32)[1]
        assert float(np.max(np.abs(s_val))) <= 1 + 1e-12

    def test_upwind_order_32_real_part_negative_at_pi(self, upwind):
        modeq = derive_log(upwind, 32)
        assert _truncated(modeq, 0.735, math.pi, 32)[0].real < 0


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
        assert float(np.max(np.abs(1.0 - eval_symbol(scheme, lam, THETAS)))) < 1.0
        s = eval_symbol(scheme, lam, thetas)
        s_ref = _truncated(partial_sum_references[name], lam, thetas, 64)[1]
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
    p_value = _truncated(modeq, lam, theta, order)[0]
    exact, scale = _exact_partial_sum(modeq, lam, theta, order)
    assert abs(p_value - exact) <= 4 * order * np.finfo(float).eps * scale


class TestCertificate:
    def test_heat_inside_contraction_region(self, heat):
        modeq = derive_log(heat, 16)
        [cert] = truncation_certificate(
            heat, modeq, Fraction(1, 5), (4,), support_m=math.pi, horizon_t=1.0
        )
        assert cert["C"] == 0.0
        assert math.isfinite(cert["bound"]) and cert["bound"] >= 1.0

    @pytest.mark.parametrize("name, lam", [("heat_centered", Fraction(1, 5)),
                                           ("upwind_euler", Fraction(3, 10)),
                                           ("lax_wendroff", Fraction(1, 10))])
    def test_fixed_table_gives_the_symbolic_certificates(self, name, lam):
        scheme = catalog_scheme(name)
        fixed, symbolic = derive_log(scheme, 32, lam), derive_log(scheme, 32)
        assert np.array_equal(_theta_coeffs(fixed, lam, 32), _theta_coeffs(symbolic, lam, 32))
        assert truncation_certificate(scheme, fixed, lam, (2, 8), math.pi, 1.0) == \
            truncation_certificate(scheme, symbolic, lam, (2, 8), math.pi, 1.0)

    def test_fixed_table_refuses_another_lambda(self, heat):
        modeq = derive_log(heat, 16, Fraction(1, 5))
        with pytest.raises(ValueError, match=r"^scheme heat_centered: the N = 16 modified "
                                             r"equation is fixed at lambda = 1/5, not at "
                                             r"lambda = 0.2$"):
            truncation_certificate(heat, modeq, 0.2, (4,), math.pi, 1.0)

    def test_refusal_outside(self, heat):
        modeq = derive_log(heat, 16)
        with pytest.raises(CertificateRefusal):
            truncation_certificate(heat, modeq, 0.6, (4,), math.pi, 1.0)

    # heat at 1/4 and the next float, Lax-Wendroff at 1/5, where the grid
    # reads max |1 - S| 1.6e-9 below the tables; and a stencil whose
    # |1 - S| peaks between grid points at 0.999999999999 = 1 - DEFAULT_TOL
    # here, where the grid read 0.99999998 and the certificate was issued
    @example(catalog_scheme("heat_centered"), 0.25)
    @example(catalog_scheme("heat_centered"), 0.25000000000000006)
    # heat's max |1 - S| is 4 lambda, the bound B itself: outside between
    # 1 - DEFAULT_TOL and 1, inside just below, and B within 2^-20 of 1 - tol
    # sends both to _peaks
    @example(catalog_scheme("heat_centered"), (1 - 5e-13) / 4)
    @example(catalog_scheme("heat_centered"), (1 - 2e-12) / 4)
    @example(catalog_scheme("heat_centered"), (1 - 2.0 ** -21) / 4)
    @example(catalog_scheme("lax_wendroff"), 0.2)
    @example(SchemeSpec(name="interior", q=1, pde={1: Fraction(1)},
                        stencil={-2: lp("1/3"), -1: lp(-1), 1: lp("2/3")}), 0.5589065019041173)
    @settings(max_examples=60, deadline=None)
    @given(random_stencils(), st.one_of(st.floats(1e-3, 4.0), st.floats(1e-300, 1e200)))
    def test_refuses_exactly_outside_the_scan_contraction_region(self, scheme, lam):
        # certify and regions read one max |1 - S|: the certificate is
        # refused exactly where a scan ending at lambda reads in_Omega_c false
        try:
            inside = region_scan(scheme, (0.0, lam, 2)).columns["in_Omega_c"][1]
        except ValueError as exc:  # a table value beyond the float range
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                truncation_certificate(scheme, derive_log(scheme, 2), lam, (1,), math.pi, 1.0)
            return
        try:
            truncation_certificate(scheme, derive_log(scheme, 2), lam, (1,), math.pi, 1.0)
        except CertificateRefusal:
            assert not inside
        except (OverflowError, ValueError):  # past the refusal: the bound or a c_p overflows
            assert inside
        else:
            assert inside

    @example(catalog_scheme("heat_centered"), 0.25)
    @example(catalog_scheme("lax_wendroff"), 0.7)
    @settings(max_examples=100, deadline=None)
    @given(random_stencils(width=8), st.one_of(st.floats(0.0, 4.0), st.floats(1.0, 1e100)))
    def test_contraction_bound_covers_the_peaks(self, scheme, lam):
        # the certificate skips _peaks where B = |1 - a_0| + sum |a_p| is
        # below (1 - DEFAULT_TOL) / (1 + 2^-20); _peaks' max |1 - S| must
        # not exceed B by even 2^-40 of it
        width, [row] = _rounded_tables(scheme, [lam])
        bound = abs(row[width + 1]) + sum(max(abs(r), abs(v))
                                          for r, v in zip(row[1:width + 1], row[width + 2:]))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            oms = _peaks(np.array([[-row[width + 1], *row[1:width + 1]]]),
                         np.array([row[width + 2:]]))[1].max()
        assert oms <= bound * (1.0 + 2.0 ** -40) or bound == math.inf

    def test_zero_support_collapses_to_growth_factor(self, heat):
        modeq = derive_log(heat, 16)
        [cert] = truncation_certificate(heat, modeq, Fraction(1, 5), (4,), 0.0, 1.0)
        assert cert["bound"] == pytest.approx(math.exp(cert["C"] * 1.0))

    def test_reference_order_must_exceed_truncation_order(self, heat):
        for order in (4, 5):
            with pytest.raises(ValueError, match="reference order"):
                truncation_certificate(heat, derive_log(heat, 4), Fraction(1, 5), (order,),
                                       math.pi, 1.0)

    def test_tail_constant_reads_the_rational_lambda(self, lax):
        # float(1/5) is not 1/5, so c_p evaluated at float(lambda) differ in
        # the last bits from the c_p at 1/5
        m16 = derive_log(lax, 16)
        lam = Fraction(1, 5)
        [cert] = truncation_certificate(lax, m16, lam, (2,), math.pi, 1.0)
        p_n = _truncated(m16, lam, THETAS, 2)[0]
        p_ref = _truncated(m16, lam, THETAS, 16)[0]
        positive = THETAS > 0
        tail_a = float(
            np.max(np.abs(p_ref[positive] - p_n[positive]) / THETAS[positive] ** 3)
        )
        assert cert["A"] == tail_a

    def test_orders_share_one_reference(self, heat, rounded_values):
        # the 4 table values r_0, r_1, 1 - r_0 and v_1 for max |1 - S|, and
        # 32 c_p for the reference; each P_N reads a prefix
        modeq = derive_log(heat, 32)
        certs = truncation_certificate(heat, modeq, Fraction(1, 5), (4, 8), math.pi, 1.0)
        assert len(rounded_values) == 4 + 32
        for cert in certs:
            [alone] = truncation_certificate(heat, modeq, Fraction(1, 5), (cert["N"],),
                                             math.pi, 1.0)
            assert alone == cert

    def test_reference_order_names_the_highest_order(self, heat):
        with pytest.raises(ValueError, match="truncation order 8"):
            truncation_certificate(heat, derive_log(heat, 6), Fraction(1, 5), (2, 8, 7),
                                   math.pi, 1.0)


class TestModulusTable:
    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=10**6))
    def test_upwind_tables_equal_about_one_half(self, lam):
        half = Fraction(1, 2)
        for m in _modulus_table(catalog_scheme("upwind_euler")):
            assert m.reflect() == m
            assert m(half - lam) == m(half + lam)

    def test_heat_tables_differ_about_one_half(self, heat):
        # a = (lambda, 1 - 2 lambda, lambda)
        table = _modulus_table(heat)
        assert table == (lp(1, -4, 6), lp(0, 2, -4), lp(0, 0, 1))
        assert [m(Fraction(1, 4)) for m in table] == \
            [Fraction(3, 8), Fraction(1, 4), Fraction(1, 16)]
        assert [m.reflect() == m for m in table] == [False, False, False]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["heat_centered", "upwind_euler", "lax_wendroff"]),
           st.fractions(min_value=0, max_value=1, max_denominator=1000),
           st.floats(-math.pi, math.pi))
    def test_cosine_sum_is_the_squared_modulus(self, name, lam, theta):
        scheme = catalog_scheme(name)
        m = [c(lam) for c in _modulus_table(scheme)]
        cosine_sum = float(m[0]) + 2 * sum(float(c) * math.cos(d * theta)
                                           for d, c in enumerate(m) if d)
        assert abs(cosine_sum - abs(eval_symbol(scheme, lam, theta)) ** 2) <= 1e-14


class TestCosineTables:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.sampled_from(list(builtin_catalog())), random_stencils(width=3)))
    def test_tables_square_to_the_modulus_table(self, scheme):
        # R^2 + (1 - c^2) V^2 = m_0 + 2 sum_{d>0} m_d T_d(c), on the T_d:
        # T_i T_j = (T_{i+j} + T_{|i-j|}) / 2 and (1 - c^2) U_{i-1} U_{j-1}
        # = sin(i theta) sin(j theta) = (T_{|i-j|} - T_{i+j}) / 2
        r, v = _cosine_tables(scheme)
        assert len(r) == len(v) + 1 == max(scheme.n_left, scheme.n_right) + 1
        half, got = LambdaPoly.const(Fraction(1, 2)), {}
        for terms, sign in ((list(enumerate(r)), LP_ONE), (list(enumerate(v, start=1)), -LP_ONE)):
            for i, x in terms:
                for j, y in terms:
                    product = half * x * y
                    got[i + j] = got.get(i + j, LP_ZERO) + sign * product
                    got[abs(i - j)] = got.get(abs(i - j), LP_ZERO) + product
        want = {d: m if d == 0 else m + m for d, m in enumerate(_modulus_table(scheme))}
        for d in set(got) | set(want):
            assert got.get(d, LP_ZERO) == want.get(d, LP_ZERO), d

    @settings(max_examples=60, deadline=None)
    @given(random_stencils(width=3), st.fractions(min_value=0, max_value=3, max_denominator=50),
           st.floats(0.01, 3.13))
    def test_tables_are_the_real_part_and_the_sine_quotient(self, scheme, lam, theta):
        # R(cos theta) = Re S and V(cos theta) = Im S / sin theta, at 50 digits
        r, v = _cosine_tables(scheme)
        with mp.workdps(50):
            t = mp.mpf(theta)
            c = mp.cos(t)

            def at(poly):
                x = poly(lam)
                return mp.mpf(x.numerator) / x.denominator

            s = mp.fsum(at(a) * mp.expj(p * t) for p, a in scheme.symbol)
            big_r = mp.fsum(at(x) * mp.chebyt(d, c) for d, x in enumerate(r))
            big_v = mp.fsum(at(x) * mp.chebyu(d - 1, c) for d, x in enumerate(v, start=1))
            scale = 1 + mp.fsum(abs(at(a)) for _, a in scheme.symbol)
            assert abs(big_r - s.real) <= mp.mpf(10) ** -40 * scale
            assert abs(big_v - s.imag / mp.sin(t)) <= mp.mpf(10) ** -40 * scale / mp.sin(t)

    def test_heat_tables(self, heat):
        # a = (lambda, 1 - 2 lambda, lambda): R = 1 - 2 lambda + 2 lambda c, V = 0
        assert _cosine_tables(heat) == ((lp(1, -2), lp(0, 2)), (LP_ZERO,))


def _with_coefficient(modeq: ModifiedEq, p: int, extra: LambdaPoly) -> ModifiedEq:
    """``modeq`` with ``extra`` added to c_p."""
    coeffs = list(modeq.coeffs)
    coeffs[p - 1] = coeffs[p - 1] + extra
    return ModifiedEq(scheme_name=modeq.scheme_name, q=modeq.q, coeffs=tuple(coeffs))


@pytest.fixture(scope="module")
def upwind_64(upwind):
    return derive_log(upwind, 64)


class TestUpwindSymmetry:
    def test_fixed_table_refused(self, upwind):
        with pytest.raises(ValueError, match=r"^scheme upwind_euler: the N = 8 modified "
                                             r"equation is fixed at lambda = 1/4; "
                                             r"upwind_symmetry_check needs it"):
            upwind_symmetry_check(derive_log(upwind, 8, Fraction(1, 4)))

    def test_quarter(self, upwind):
        # the proof holds at every lambda, so at 1/2 -+ 1/4 in particular
        modeq = derive_log(upwind, 8)
        report = upwind_symmetry_check(modeq)
        assert report["ok"] and report["modulus_ok"]
        assert report["orders"] == [2, 4, 6, 8]
        for p in report["orders"]:
            c = modeq.coeff(p)
            assert Fraction(1, 4) * c(Fraction(1, 4)) == Fraction(3, 4) * c(Fraction(3, 4))

    def test_fixed_point(self, upwind):
        # lambda = 1/2 is its own mirror image, so an odd c_p (p >= 3), whose
        # lambda c_p changes sign under the reflection, vanishes there
        modeq = derive_log(upwind, 7)
        assert upwind_symmetry_check(modeq)["ok"]
        assert [modeq.coeff(p)(Fraction(1, 2)) for p in (3, 5, 7)] == [0, 0, 0]

    def test_edge_compares_frozen_and_unit_transport(self, upwind):
        # at 1/2 +- 1/2 the identity compares lambda = 0 (no update, so the
        # factor lambda vanishes) with lambda = 1 (an exact shift, so c_p(1) = 0)
        modeq = derive_log(upwind, 8)
        assert upwind_symmetry_check(modeq)["ok"]
        assert all(modeq.coeff(p)(1) == 0 for p in range(2, 9))

    def test_even_identity_proved_through_order_64(self, upwind_64):
        report = upwind_symmetry_check(upwind_64)
        assert report["ok"] and report["orders"] == list(range(2, 65, 2))

    def test_odd_orders_are_antisymmetric(self, upwind_64):
        # f_p = lambda c_p changes sign under lambda -> 1 - lambda for odd
        # p >= 3; c_1 = -1 is the transport term itself
        for p in range(3, 65, 2):
            f = upwind_64.coeff(p).shift_up()
            assert f.reflect() == -f, p
        f = upwind_64.coeff(1).shift_up()
        assert f.reflect() != -f

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 16))
    def test_violation_names_the_first_order(self, upwind, half_p, k):
        # lambda^k added to c_p breaks the identity at p (lambda^(k+1) is not
        # its own reflection) and nowhere before
        p = 2 * half_p
        modeq = derive_log(upwind, 12)
        report = upwind_symmetry_check(_with_coefficient(modeq, p, LambdaPoly([0] * k + [1])))
        assert report["modulus_ok"] and not report["coefficient_ok"] and not report["ok"]
        assert report["first_violation"] == p
        # ok is stored, not derived: it must be the two identities together
        for row in (report, upwind_symmetry_check(modeq)):
            assert row["ok"] == (row["modulus_ok"] and row["coefficient_ok"])


class TestFigureData:
    def test_empty_lambda_list(self, heat):
        assert figure_data(heat, derive_log(heat, 8), [], (2, 8)) == []

    def test_table_shape(self, heat):
        modeq, lams = derive_log(heat, 8), [Fraction(1, 2), Fraction(1, 4)]
        tables = figure_data(heat, modeq, lams, (2, 8))
        # one table per lambda, in the order given
        for lam, columns in zip(lams, tables):
            [alone] = figure_data(heat, modeq, [lam], (2, 8))
            assert all(np.array_equal(columns[key], alone[key]) for key in alone)
        assert not np.array_equal(tables[0]["abs_S"], tables[1]["abs_S"])
        for columns in tables:
            # the theta column, the same for every table, is the writer's
            assert list(columns) == ["abs_S", "abs_S_N2", "abs_S_N8"]
            assert all(len(col) == DEFAULT_GRID for col in columns.values())

    def test_orders_share_one_rounding(self, heat, rounded_values):
        # 3 a_p for S and the 32 c_p of the highest order; each P_N reads a prefix
        modeq = derive_log(heat, 32)
        [table] = figure_data(heat, modeq, [Fraction(1, 2)], [2, 8, 16, 32])
        assert len(rounded_values) == 3 + 32
        for n in (2, 8, 16, 32):
            alone = _truncated(modeq, Fraction(1, 2), THETAS, n)[1]
            assert table[f"abs_S_N{n}"].tobytes() == np.abs(alone).tobytes()

    def test_order_beyond_the_table(self, heat):
        modeq = derive_log(heat, 8)
        for call in (lambda: figure_data(heat, modeq, [Fraction(1, 2)], (2, 9)),
                     lambda: evolve_and_compare(heat, modeq, Fraction(1, 2), 9, 10, 16)):
            with pytest.raises(ValueError, match=r"^scheme heat_centered: truncation order 9 "
                                                 r"exceeds stored order 8$"):
                call()

    def test_grid_endpoints_exact(self):
        assert THETAS[0] == 0.0
        assert THETAS[-1] == math.pi


# one theta grid for every scan, figure and certificate: no caller can
# write into it, and the regions report names its size
def test_theta_grid_is_fixed_and_read_only(tmp_path, capsys):
    assert THETAS.tobytes() == np.linspace(0.0, math.pi, 4096).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        THETAS[1] = 0.5
    assert main(["regions", "--catalog", "heat_centered", "--lambda-range", "0:0.5:3",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "heat_centered_regions.json").read_text())
    assert report["grid"] == 4096
