from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import lp
from modeq.exactalg import LambdaPoly, series_exp
from modeq.derivation import (
    consistency_report,
    derive_elimination,
    derive_log,
    symbol_series,
)
from modeq.schemes import SchemeSpec, builtin_catalog
from modeq.spectra import eval_symbol

# printed coefficient tables for the two reference schemes
HEAT_TABLE = {
    2: lp(1),
    4: lp("1/12", "-1/2"),
    6: lp("1/360", "-1/12", "1/3"),
    8: lp("1/20160", "-1/160", "1/12", "-1/4"),
}
UPWIND_TABLE = {
    1: lp(-1),
    2: lp("1/2", "-1/2"),
    3: lp("-1/6", "1/2", "-1/3"),
    4: lp("1/24", "-7/24", "1/2", "-1/4"),
}


class TestSymbolSeries:
    # the series variable is x = i theta: S = 1 + lambda sum_p B_p e^{p x}
    def test_heat_second_order(self, heat):
        # lambda (e^x - 2 + e^-x) = lambda x^2 + O(x^4)
        s = symbol_series(heat, 2)
        assert s.coeffs[0] == LambdaPoly.one()
        assert s.coeffs[1].is_zero
        assert s.coeffs[2] == lp(0, 1)

    def test_upwind_first_order(self, upwind):
        # lambda (e^-x - 1) = -lambda x + O(x^2)
        s = symbol_series(upwind, 1)
        assert s.coeffs[0] == LambdaPoly.one()
        assert s.coeffs[1] == lp(0, -1)

    @pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(3, 5)])
    @pytest.mark.parametrize("theta", [0.1, 0.3])
    def test_partial_sum_at_i_theta_matches_float_symbol(self, lam, theta):
        # ties the exact series' x = i theta convention to the float symbol
        for entry in builtin_catalog():
            s = symbol_series(entry.scheme, 24)
            partial = sum(
                float(c(lam)) * (1j * theta) ** r for r, c in enumerate(s.coeffs)
            )
            exact = eval_symbol(entry.scheme, lam, theta)
            assert abs(partial - exact) <= 1e-12, entry.scheme.name

    def test_constant_term_is_one_for_all_catalog(self):
        for entry in builtin_catalog():
            s = symbol_series(entry.scheme, 6)
            assert s.coeffs[0] == LambdaPoly.one()

    def test_order_validation(self, heat):
        with pytest.raises(ValueError):
            symbol_series(heat, 0)


class TestDeriveLog:
    def test_heat_golden_table(self, heat):
        modeq = derive_log(heat, 8)
        for p, expected in HEAT_TABLE.items():
            assert modeq.coeff(p) == expected
            assert modeq.grading(p) == p - 2

    def test_heat_odd_orders_vanish(self, heat):
        modeq = derive_log(heat, 9)
        for p in (1, 3, 5, 7, 9):
            assert modeq.coeff(p).is_zero

    def test_upwind_golden_table(self, upwind):
        modeq = derive_log(upwind, 4)
        for p, expected in UPWIND_TABLE.items():
            assert modeq.coeff(p) == expected
            assert modeq.grading(p) == p - 1

    def test_lambda_zero_is_well_defined(self, heat):
        modeq = derive_log(heat, 8)
        assert modeq.coeff(4)(0) == Fraction(1, 12)
        assert modeq.coeff(8)(0) == Fraction(1, 20160)


class TestDeriveElimination:
    def test_upwind_first_order_no_correction(self, upwind):
        modeq = derive_elimination(upwind, 1)
        assert modeq.coeff(1) == lp(-1)

    @pytest.mark.parametrize("name_order", [("heat_centered", 8), ("upwind_euler", 8), ("lax_wendroff", 6)])
    def test_matches_log_engine(self, name_order):
        from modeq.schemes import catalog_scheme

        scheme = catalog_scheme(name_order[0])
        n = name_order[1]
        assert derive_elimination(scheme, n) == derive_log(scheme, n)


@st.composite
def random_stencils(draw):
    """A consistent real-rational stencil on offsets -2..2 with q = 1 or 2
    and weights that are constant or linear in lambda."""
    q = draw(st.sampled_from([1, 2]))
    degree = draw(st.sampled_from([0, 1]))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    offsets = sorted(draw(st.sets(st.integers(-2, 2), min_size=2, max_size=5)))
    weights = {p: LambdaPoly([draw(rationals) for _ in range(degree + 1)]) for p in offsets[1:]}
    weights[offsets[0]] = -sum(weights.values(), LambdaPoly.zero())
    assume(any(weights.values()))
    return SchemeSpec(name="random", q=q, stencil=weights, pde={q: Fraction(1)})


@settings(max_examples=40, deadline=None)
@given(random_stencils(), st.integers(1, 20))
def test_engines_agree_on_random_stencils(scheme, order):
    assert derive_log(scheme, order) == derive_elimination(scheme, order)


class TestRoundTrip:
    def test_exp_of_generator_recovers_symbol(self):
        for entry in builtin_catalog():
            modeq = derive_log(entry.scheme, 12)
            assert series_exp(modeq.dt_g_series()) == symbol_series(entry.scheme, 12)


class TestCatalogGoldenData:
    def test_reference_tables_match_derivation(self):
        for entry in builtin_catalog():
            if entry.expected is None or not entry.expected.mu_table:
                continue
            top = max(p for p, _ in entry.expected.mu_table)
            modeq = derive_log(entry.scheme, top)
            for p, poly in entry.expected.mu_table:
                assert modeq.coeff(p) == poly, (entry.scheme.name, p)


class TestConsistency:
    def test_heat(self, heat):
        modeq = derive_log(heat, 8)
        report = consistency_report(heat, modeq)
        assert report.ok
        assert report.matched_orders == (2,)
        assert report.leading_error_order == 2

    def test_upwind(self, upwind):
        report = consistency_report(upwind, derive_log(upwind, 4))
        assert report.ok
        assert report.leading_error_order == 1

    def test_lax_wendroff_second_order_accurate(self, lax):
        report = consistency_report(lax, derive_log(lax, 6))
        assert report.ok
        assert report.leading_error_order == 2

    def test_wrong_advection_sign_fails(self):
        wrong = SchemeSpec(
            name="wrong_sign",
            q=1,
            stencil={-1: lp(1), 0: lp(-1)},
            pde={1: Fraction(-1)},
        )
        report = consistency_report(wrong, derive_log(wrong, 4))
        assert not report.ok
        assert report.failures[0].p == 1
        assert not report.failures[0].residual.is_zero

    def test_declared_order_at_wrong_grading_fails(self):
        spec = SchemeSpec(
            name="heat_with_advection",
            q=2,
            stencil={-1: lp(1), 0: lp(-2), 1: lp(1)},
            pde={1: Fraction(1), 2: Fraction(-1)},
        )
        report = consistency_report(spec, derive_log(spec, 6))
        assert not report.ok
        assert any(f.p == 1 for f in report.failures)

    def test_order_precondition(self, heat):
        with pytest.raises(ValueError):
            consistency_report(heat, derive_log(heat, 1))


class TestSerialization:
    def test_json_shape_and_coefficient_strings(self, heat):
        payload = derive_log(heat, 8).to_json_dict()
        assert payload["scheme"] == "heat_centered"
        assert payload["N"] == 8 and payload["q"] == 2
        by_p = {t["p"]: t for t in payload["terms"]}
        assert by_p[4]["coeff"] == "(1-6*lambda)/12"
        assert by_p[4]["grading"] == 2
        assert by_p[3]["coeff"] == "0"
        json.dumps(payload)  # must be serializable as-is
