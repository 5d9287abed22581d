from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import LAM16, lp, random_stencils
from modeq.exactalg import LP_ONE, LambdaPoly, series_log
from modeq.derivation import (CrossCheckError, consistency_report, derive_log, symbol_series,
                              verify_log)
from modeq.schemes import SchemeSpec, builtin_catalog, catalog_scheme, parse_scheme
from modeq.spectra import eval_symbol
from oracles import GOLDEN, derive_elimination, fraction_symbol_series, series_exp

# printed coefficient tables for the two reference schemes
HEAT_TABLE = GOLDEN["heat_centered"].mu_table
UPWIND_TABLE = GOLDEN["upwind_euler"].mu_table


class TestSymbolSeries:
    # the series variable is x = i theta: S = 1 + lambda sum_p B_p e^{p x}
    def test_heat_second_order(self, heat):
        # lambda (e^x - 2 + e^-x) = lambda x^2 + O(x^4)
        s = symbol_series(heat, 2)
        assert s[0] == LP_ONE
        assert not s[1]
        assert s[2] == lp(0, 1)

    def test_upwind_first_order(self, upwind):
        # lambda (e^-x - 1) = -lambda x + O(x^2)
        s = symbol_series(upwind, 1)
        assert s[0] == LP_ONE
        assert s[1] == lp(0, -1)

    @pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(3, 5)])
    @pytest.mark.parametrize("theta", [0.1, 0.3])
    def test_partial_sum_at_i_theta_matches_float_symbol(self, lam, theta):
        # ties the exact series' x = i theta convention to the float symbol
        for scheme in builtin_catalog():
            s = symbol_series(scheme, 24)
            partial = sum(
                float(c(lam)) * (1j * theta) ** r for r, c in enumerate(s)
            )
            exact = eval_symbol(scheme, lam, theta)
            assert abs(partial - exact) <= 1e-12, scheme.name

    @settings(max_examples=60, deadline=None)
    @given(random_stencils(), st.integers(1, 24))
    def test_integer_moments_equal_fraction_weights(self, scheme, order):
        assert symbol_series(scheme, order) == fraction_symbol_series(scheme, order)

    def test_constant_term_is_one_for_all_catalog(self):
        for scheme in builtin_catalog():
            s = symbol_series(scheme, 6)
            assert s[0] == LP_ONE

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
            assert not modeq.coeff(p)

    def test_upwind_golden_table(self, upwind):
        modeq = derive_log(upwind, 4)
        for p, expected in UPWIND_TABLE.items():
            assert modeq.coeff(p) == expected
            assert modeq.grading(p) == p - 1

    def test_lambda_zero_is_well_defined(self, heat):
        modeq = derive_log(heat, 8)
        assert modeq.coeff(4)(0) == Fraction(1, 12)
        assert modeq.coeff(8)(0) == Fraction(1, 20160)

    def test_indivisible_coefficient_names_scheme_and_order(self, heat, monkeypatch):
        import modeq.derivation as derivation

        def skewed(s):
            coeffs = list(series_log(s))
            coeffs[3] = coeffs[3] + LP_ONE
            return tuple(coeffs)

        monkeypatch.setattr(derivation, "series_log", skewed)
        with pytest.raises(CrossCheckError,
                           match=r"^derive_log: scheme heat_centered, N = 4: the x\^3 "):
            derive_log(heat, 4)


class TestFixedLambda:
    @settings(max_examples=60, deadline=None)
    @given(random_stencils(), st.integers(1, 20),
           st.fractions(min_value=-4, max_value=4, max_denominator=400).filter(bool))
    def test_equals_the_symbolic_table_at_lambda(self, scheme, order, lam):
        fixed = derive_log(scheme, order, lam)
        symbolic = derive_log(scheme, order)
        assert fixed.lam == lam and symbolic.lam is None
        assert (fixed.scheme_name, fixed.q, fixed.order) == (scheme.name, scheme.q, order)
        assert [c(lam) for c in fixed.at(lam)] == [c(lam) for c in symbolic.coeffs]
        # each fixed c_p is a constant
        assert all(len(c.nums) <= 1 for c in fixed.coeffs)

    # c_p = l_p / lambda is put together from the reduced parts of both and
    # never reduced again: its fields must be those of the canonical form,
    # also for lambda < 0 and for a c_p that is zero (heat's odd orders)
    @settings(max_examples=60, deadline=None)
    @example(catalog_scheme("heat_centered"), 9, Fraction(-3, 7))
    @given(random_stencils(), st.integers(1, 16),
           st.fractions(min_value=-4, max_value=4, max_denominator=10**6).filter(bool))
    def test_each_coefficient_is_canonical(self, scheme, order, lam):
        logs = series_log(symbol_series(scheme, order, lam))[1:]
        n, d = lam.as_integer_ratio()
        canonical = [LambdaPoly.from_nums([x * d * (1 if n > 0 else -1) for x in l.nums],
                                          l.den * abs(n)) for l in logs]
        fixed = derive_log(scheme, order, lam).coeffs
        assert [(c.nums, c.den) for c in fixed] == [(c.nums, c.den) for c in canonical]

    # the lambda^16 stencil, where D = 3003 d^17 at lambda = n/d
    @pytest.mark.parametrize("order", [8, 32, 64])
    def test_lambda16_stencil(self, order):
        scheme = parse_scheme(LAM16)
        symbolic = derive_log(scheme, order)
        for lam in (Fraction(1, 5), Fraction(301, 400)):
            fixed = derive_log(scheme, order, lam)
            assert [c(lam) for c in fixed.coeffs] == [c(lam) for c in symbolic.coeffs]

    @pytest.mark.parametrize("name", ["heat_centered", "upwind_euler", "lax_wendroff"])
    def test_fixed_path_runs_on_plain_integers(self, monkeypatch, name):
        def no_product(*_):
            raise AssertionError("a polynomial product ran")

        scheme, lam = catalog_scheme(name), Fraction(3127, 10000)
        expected = derive_log(scheme, 24, lam)
        monkeypatch.setattr("modeq.exactalg._add_product", no_product)
        assert derive_log(scheme, 24, lam) == expected
        with pytest.raises(AssertionError, match="a polynomial product ran"):
            derive_log(scheme, 24)

    def test_series_at_lambda_is_the_series_evaluated(self, lax):
        lam = Fraction(-7, 3)
        assert symbol_series(lax, 10, lam) == tuple(
            LambdaPoly.const(c(lam)) for c in symbol_series(lax, 10))

    def test_lambda_zero_refused(self, heat):
        with pytest.raises(ValueError, match="^scheme heat_centered: a fixed-lambda "
                                             "derivation needs lambda != 0$"):
            derive_log(heat, 4, Fraction(0))

    def test_another_lambda_refused(self, heat):
        modeq = derive_log(heat, 16, Fraction(1, 5))
        assert modeq.at(Fraction(1, 5)) is modeq.coeffs
        # 0.2 is its binary value, not 1/5
        for other in (Fraction(1, 4), 0.2):
            with pytest.raises(ValueError, match=(
                    r"^scheme heat_centered: the N = 16 modified equation is fixed at "
                    rf"lambda = 1/5, not at lambda = {other}$")):
                modeq.at(other)

    @pytest.mark.parametrize("use", ["dt_g_series", "to_json_dict", "consistency_report"])
    def test_symbolic_uses_refused(self, heat, use):
        modeq = derive_log(heat, 8, Fraction(1, 5))
        call = {"dt_g_series": modeq.dt_g_series, "to_json_dict": modeq.to_json_dict,
                "consistency_report": lambda: consistency_report(heat, modeq)}[use]
        with pytest.raises(ValueError, match=(
                rf"^scheme heat_centered: the N = 8 modified equation is fixed at "
                rf"lambda = 1/5; {use} needs it for every lambda$")):
            call()

    def test_symbolic_table_serves_every_lambda(self, heat):
        modeq = derive_log(heat, 8)
        assert modeq.at(Fraction(1, 5)) is modeq.coeffs
        assert modeq.at(0.7) is modeq.coeffs


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


@settings(max_examples=40, deadline=None)
@given(random_stencils(), st.integers(1, 20))
def test_engines_agree_on_random_stencils(scheme, order):
    assert derive_log(scheme, order) == derive_elimination(scheme, order)


class TestVerifyLog:
    # (lambda G)' S = S' holds for the derived table, and a change of c_p
    # first breaks it at order p, since the equation there reads p lambda c_p
    @settings(max_examples=40, deadline=None)
    @given(random_stencils(), st.integers(1, 16), st.data())
    def test_accepts_the_log_and_names_a_shifted_order(self, scheme, order, data):
        modeq = derive_log(scheme, order)
        verify_log(scheme, modeq)
        p = data.draw(st.integers(1, order), label="p")
        shift = data.draw(st.fractions(-5, 5, max_denominator=30).filter(bool), label="shift")
        coeffs = list(modeq.coeffs)
        coeffs[p - 1] += LambdaPoly.const(shift)
        with pytest.raises(CrossCheckError, match=rf"^scheme random, N = {order}: .* "
                                                  rf"first at theta-order {p}$"):
            verify_log(scheme, dataclasses.replace(modeq, coeffs=tuple(coeffs)))

    def test_fixed_table_refused(self, heat):
        with pytest.raises(ValueError, match="dt_g_series needs it for every lambda"):
            verify_log(heat, derive_log(heat, 8, Fraction(1, 5)))


class TestRoundTrip:
    def test_exp_of_generator_recovers_symbol(self):
        for scheme in builtin_catalog():
            modeq = derive_log(scheme, 12)
            assert series_exp(modeq.dt_g_series()) == symbol_series(scheme, 12)


class TestCatalogGoldenData:
    def test_reference_tables_match_derivation(self):
        for name, golden in GOLDEN.items():
            modeq = derive_log(catalog_scheme(name), max(golden.mu_table))
            for p, poly in golden.mu_table.items():
                assert modeq.coeff(p) == poly, (name, p)


class TestConsistency:
    def test_heat(self, heat):
        modeq = derive_log(heat, 8)
        report = consistency_report(heat, modeq)
        assert report["ok"]
        assert report["matched_orders"] == [2]
        assert report["leading_error_order"] == 2

    def test_upwind(self, upwind):
        report = consistency_report(upwind, derive_log(upwind, 4))
        assert report["ok"]
        assert report["leading_error_order"] == 1

    def test_lax_wendroff_second_order_accurate(self, lax):
        report = consistency_report(lax, derive_log(lax, 6))
        assert report["ok"]
        assert report["leading_error_order"] == 2

    def test_wrong_advection_sign_fails(self):
        wrong = SchemeSpec(
            name="wrong_sign",
            q=1,
            stencil={-1: lp(1), 0: lp(-1)},
            pde={1: Fraction(-1)},
        )
        report = consistency_report(wrong, derive_log(wrong, 4))
        assert not report["ok"]
        assert report["failures"][0]["p"] == 1
        assert report["failures"][0]["residual"] != "0"

    def test_declared_order_at_wrong_grading_fails(self):
        spec = SchemeSpec(
            name="heat_with_advection",
            q=2,
            stencil={-1: lp(1), 0: lp(-2), 1: lp(1)},
            pde={1: Fraction(1), 2: Fraction(-1)},
        )
        report = consistency_report(spec, derive_log(spec, 6))
        assert not report["ok"]
        assert any(f["p"] == 1 for f in report["failures"])

    def test_nonzero_first_moment_fails_negative_grading(self):
        # q = 2, but sum_p p B_p = -1, so c_1 = -1 is an advection term
        spec = SchemeSpec(
            name="drifting_heat",
            q=2,
            stencil={-1: lp(1), 0: lp(-2), 1: lp(1), 2: lp(1), 3: lp(-1)},
            pde={2: Fraction(-1)},
        )
        report = consistency_report(spec, derive_log(spec, 6))
        assert not report["ok"]
        first = report["failures"][0]
        assert (first["p"], first["residual"]) == (1, str(lp(-1)))
        assert first["message"] == "c_1 must vanish (grading -1 < 0)"

    def test_order_precondition(self, heat):
        with pytest.raises(ValueError, match=r"^scheme heat_centered: modified equation "
                                             r"order 1 is below the PDE order 2$"):
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
