"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with ``pytest -s`` to see them) and asserts at the stated tolerance.
Gap thresholds marked "frozen" were measured once with this package's own
high-order reference on the default 4096-point grid and are recorded here
as regression fixtures.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import lp
from modeq.derivation import derive_log, symbol_series, upwind_symmetry_check
from modeq.radius import radius_root_test, radius_zero_search
from modeq.schemes import builtin_catalog, catalog_scheme
from modeq.spectra import THETAS, _theta_coeffs, _truncation, eval_symbol, region_scan
from oracles import (bernoulli, derive_elimination, euler_poly_at_zero,
                     measured_amplification, series_exp)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


@pytest.fixture(scope="module")
def heat():
    return catalog_scheme("heat_centered")


@pytest.fixture(scope="module")
def upwind():
    return catalog_scheme("upwind_euler")


@pytest.fixture(scope="module")
def heat_region_report(heat):
    return region_scan(heat, (0.0, 0.6, 601), orders=(4,))


def test_criterion_01_golden_modified_equation_tables(heat, upwind):
    start = time.perf_counter()
    heat_meq = derive_log(heat, 8)
    upwind_meq = derive_log(upwind, 4)
    elapsed = time.perf_counter() - start

    heat_table = {
        2: (lp(1), 0),
        4: (lp("1/12", "-1/2"), 2),
        6: (lp("1/360", "-1/12", "1/3"), 4),
        8: (lp("1/20160", "-1/160", "1/12", "-1/4"), 6),
    }
    upwind_table = {
        1: (lp(-1), 0),
        2: (lp("1/2", "-1/2"), 1),
        3: (lp("-1/6", "1/2", "-1/3"), 2),
        4: (lp("1/24", "-7/24", "1/2", "-1/4"), 3),
    }
    ok = all(
        heat_meq.coeff(p) == poly and heat_meq.grading(p) == grading
        for p, (poly, grading) in heat_table.items()
    ) and all(
        upwind_meq.coeff(p) == poly and upwind_meq.grading(p) == grading
        for p, (poly, grading) in upwind_table.items()
    )
    ok = ok and elapsed < 1.0
    _report(1, ok, f"golden coefficient tables exact, {elapsed:.3f}s < 1s")
    assert ok


def test_criterion_02_engine_equivalence():
    start = time.perf_counter()
    agree = True
    for name in ("heat_centered", "upwind_euler", "lax_wendroff"):
        scheme = catalog_scheme(name)
        agree = agree and derive_log(scheme, 12) == derive_elimination(scheme, 12)
    elapsed = time.perf_counter() - start
    ok = agree and elapsed < 10.0
    _report(2, ok, f"log == elimination at N=12 for all three schemes, {elapsed:.2f}s < 10s")
    assert ok


def test_criterion_03_region_boundaries(heat_region_report, upwind):
    step = 0.001
    rs_heat = heat_region_report.rs_boundary()
    oc_heat = heat_region_report.omega_c_boundary()
    upwind_report = region_scan(upwind, (0.0, 1.2, 1201))
    rs_up = upwind_report.rs_boundary()
    oc_up = upwind_report.omega_c_boundary()
    ok = (
        abs(rs_heat - 0.5) <= step + 1e-9
        and abs(oc_heat - 0.25) <= step + 1e-9
        and abs(rs_up - 1.0) <= step + 1e-9
        and abs(oc_up - 0.5) <= step + 1e-9
    )
    _report(
        3,
        ok,
        f"boundaries R_s(heat)={rs_heat:.3f}, Omega_c(heat)={oc_heat:.3f}, "
        f"R_s(upwind)={rs_up:.3f}, Omega_c(upwind)={oc_up:.3f}, all within one 0.001 step",
    )
    assert ok


def test_criterion_04_truncation_false_positive(heat_region_report):
    trunc_all_stable = all(heat_region_report.trunc_stable[4])
    unstable_past_half = all(
        not in_rs for lam, in_rs in zip(heat_region_report.samples,
                                        heat_region_report.columns["in_Rs"]) if lam > 0.5 + 1e-9
    )
    ok = trunc_all_stable and unstable_past_half
    _report(
        4,
        ok,
        "N=4 heat truncation classified stable on all of [0, 0.6] while the "
        "scheme itself is unstable past 1/2",
    )
    assert ok


def test_criterion_05_radii(heat):
    start = time.perf_counter()
    modeq = derive_log(heat, 40)
    zs_half = radius_zero_search(heat, Fraction(1, 2))
    zs_quarter = radius_zero_search(heat, Fraction(1, 4))
    rt_half = radius_root_test(modeq, Fraction(1, 2))
    rt_quarter = radius_root_test(modeq, Fraction(1, 4))
    elapsed = time.perf_counter() - start
    ok = (
        abs(zs_half["value"] - math.pi / 2) <= 1e-8
        and abs(zs_quarter["value"] - math.pi) <= 1e-8
        and abs(rt_half["value"] - math.pi / 2) <= 0.05 * (math.pi / 2)
        and abs(rt_quarter["value"] - math.pi) <= 0.05 * math.pi
        and elapsed < 30.0
    )
    _report(
        5,
        ok,
        f"zero search pi/2, pi within 1e-8; root test on 40 coefficients within "
        f"5% ({rt_half['value']:.4f}, {rt_quarter['value']:.4f}); {elapsed:.2f}s < 30s",
    )
    assert ok


def test_criterion_06_bernoulli_euler_identities(heat):
    identity_ok = all(
        bernoulli(2 * p) == Fraction(-p) * euler_poly_at_zero(2 * p - 1) / (2 ** (2 * p) - 1)
        for p in range(1, 16)
    )
    modeq = derive_log(heat, 24)
    half_ok, quarter_ok = True, True
    # theta^2p coefficient of ln S: lambda i^2p c_2p(lambda) = (-1)^p lambda c_2p(lambda)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for p in range(1, 13):
        a_half = (-1) ** p * half * modeq.coeff(2 * p)(half)
        expected_half = Fraction(-((-4) ** p)) * euler_poly_at_zero(2 * p - 1) / (
            2 * math.factorial(2 * p)
        )
        half_ok = half_ok and a_half == expected_half
        a_quarter = (-1) ** p * quarter * modeq.coeff(2 * p)(quarter)
        expected_quarter = Fraction(-((-1) ** p)) * euler_poly_at_zero(2 * p - 1) / (
            math.factorial(2 * p)
        )
        quarter_ok = quarter_ok and a_quarter == expected_quarter
    ok = identity_ok and half_ok and quarter_ok
    _report(
        6,
        ok,
        "B_2p = -p E_{2p-1}(0)/(4^p - 1) exact to p=15; Euler closed forms for "
        "the log coefficients match exactly to p=12 at lambda = 1/2 and 1/4",
    )
    assert ok


def test_criterion_07_upwind_mirror_symmetry():
    report = upwind_symmetry_check(derive_log(catalog_scheme("upwind_euler"), 12))
    ok = report["modulus_ok"] and report["coefficient_ok"] and report["orders"][-1] == 12
    _report(
        7,
        ok,
        "|S|^2 cosine coefficients equal at 1/2 - lambda and 1/2 + lambda, and "
        "the coefficient identity through order 12, proved for every lambda",
    )
    assert ok


def test_criterion_08_empirical_exactness():
    worst = 0.0
    for scheme in builtin_catalog():
        for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for mode in range(64):
                measured = measured_amplification(scheme, lam, mode, 64)
                predicted = eval_symbol(scheme, lam, 2 * math.pi * mode / 64)
                worst = max(worst, abs(measured - predicted))
    ok = worst <= 1e-12
    _report(8, ok, f"measured amplification matches the symbol, worst gap {worst:.2e} <= 1e-12")
    assert ok


def test_criterion_09_figure_reproduction(heat, upwind):
    thetas = THETAS

    def gap_curve(scheme, modeq, lam, order, ts):
        s = np.abs(eval_symbol(scheme, lam, ts))
        sn = np.abs(_truncation(np.asarray(ts, dtype=complex), _theta_coeffs(modeq, lam, order),
                                float(lam))[1])
        return np.abs(sn - s)

    heat_meq = derive_log(heat, 8)
    gap2 = float(np.max(gap_curve(heat, heat_meq, Fraction(1, 4), 2, thetas)))
    gap8 = float(np.max(gap_curve(heat, heat_meq, Fraction(1, 4), 8, thetas)))
    half_low = float(
        np.max(gap_curve(heat, heat_meq, Fraction(1, 2), 8, thetas[thetas <= 1.2]))
    )
    half_at_3 = float(gap_curve(heat, heat_meq, Fraction(1, 2), 8, np.array([3.0]))[0])

    upwind_meq = derive_log(upwind, 6)
    upwind_gaps = {
        lam: float(np.max(gap_curve(upwind, upwind_meq, lam, 6, thetas)))
        for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    }

    # frozen reference values measured with this implementation (4096 grid)
    frozen = {
        "heat_quarter_N2": 0.1137000364181728,
        "heat_quarter_N8": 0.01519971999093125,
        "heat_half_N8_low": 0.009892451856006235,
        "heat_half_N8_at3": 0.9899924966004452,
        "upwind_quarter": 0.10095935868362943,
        "upwind_half": 0.12557460207783086,
        "upwind_three_quarter": 0.10095935868363431,
    }
    regression_ok = (
        gap2 == pytest.approx(frozen["heat_quarter_N2"], rel=1e-9)
        and gap8 == pytest.approx(frozen["heat_quarter_N8"], rel=1e-9)
        and half_low == pytest.approx(frozen["heat_half_N8_low"], rel=1e-9)
        and half_at_3 == pytest.approx(frozen["heat_half_N8_at3"], rel=1e-9)
        and upwind_gaps[Fraction(1, 4)] == pytest.approx(frozen["upwind_quarter"], rel=1e-9)
        and upwind_gaps[Fraction(1, 2)] == pytest.approx(frozen["upwind_half"], rel=1e-9)
        and upwind_gaps[Fraction(3, 4)] == pytest.approx(frozen["upwind_three_quarter"], rel=1e-9)
    )
    # qualitative thresholds; at (lambda=1/2, theta=3) the truncation has
    # collapsed to ~1e-31 so the gap equals |S(3)| = 0.98999... and cannot
    # exceed 1 -- the frozen 0.95 captures the "strays away" behaviour.
    # For the upwind sweep the true maxima sit at theta = pi (0.101 / 0.126);
    # lambda = 1 is exact because the generator terminates at first order.
    qualitative_ok = (
        gap8 < gap2
        and gap8 < 0.02
        and half_low < 0.05
        and half_at_3 > 0.95
        and upwind_gaps[Fraction(1, 4)] < 0.15
        and upwind_gaps[Fraction(1, 2)] < 0.15
        and upwind_gaps[Fraction(3, 4)] < 0.15
        and upwind_gaps[Fraction(1)] < 1e-12
    )
    ok = regression_ok and qualitative_ok
    _report(
        9,
        ok,
        f"heat N8 gap {gap8:.4f} < N2 gap {gap2:.4f} and < 0.02; at lambda=1/2 "
        f"gap {half_low:.4f} < 0.05 on [0, 1.2] but {half_at_3:.3f} at theta=3; "
        f"upwind N6 gaps {', '.join(f'{float(k)}: {v:.3f}' for k, v in upwind_gaps.items())}",
    )
    assert ok


def test_criterion_10_exponential_round_trip():
    ok = True
    for scheme in builtin_catalog():
        modeq = derive_log(scheme, 16)
        ok = ok and series_exp(modeq.dt_g_series()) == symbol_series(scheme, 16)
    _report(10, ok, "exp of the generator series equals the symbol series at order 16, exactly")
    assert ok
