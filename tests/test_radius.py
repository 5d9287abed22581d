from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from modeq.cli import main
from modeq.derivation import derive_log
from modeq.radius import (
    bernoulli,
    euler_poly_at_zero,
    heat_closed_form_radius,
    radius_root_test,
    radius_zero_search,
)
from modeq.schemes import catalog_scheme, parse_scheme
from modeq.spectra import compute_theta_m


@pytest.fixture(scope="module")
def heat_modeq_40(heat):
    return derive_log(heat, 40)


@pytest.fixture(scope="module")
def upwind_modeq_40(upwind):
    return derive_log(upwind, 40)


class TestBernoulli:
    @pytest.mark.parametrize(
        "n, value",
        [
            (0, Fraction(1)),
            (1, Fraction(-1, 2)),
            (2, Fraction(1, 6)),
            (3, Fraction(0)),
            (12, Fraction(-691, 2730)),
        ],
    )
    def test_values(self, n, value):
        assert bernoulli(n) == value

    def test_odd_vanish(self):
        assert all(bernoulli(2 * p + 1) == 0 for p in range(1, 15))

    def test_recurrence_invariant(self):
        for n in range(1, 25):
            total = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
            assert total == 0


class TestEulerPolyAtZero:
    @pytest.mark.parametrize(
        "n, value",
        [(0, Fraction(1)), (1, Fraction(-1, 2)), (2, Fraction(0)), (3, Fraction(1, 4))],
    )
    def test_values(self, n, value):
        assert euler_poly_at_zero(n) == value

    def test_bernoulli_relation(self):
        for p in range(1, 31):
            lhs = bernoulli(2 * p)
            rhs = Fraction(-p) * euler_poly_at_zero(2 * p - 1) / (2 ** (2 * p) - 1)
            assert lhs == rhs


class TestClosedFormCoefficients:
    # the theta^2p coefficient of ln S is lambda i^2p c_2p = (-1)^p lambda c_2p
    def test_half_ratio_matches_euler_form(self, heat_modeq_40):
        lam = Fraction(1, 2)
        for p in range(1, 13):
            a = (-1) ** p * lam * heat_modeq_40.coeff(2 * p)(lam)
            expected = Fraction(-((-4) ** p)) * euler_poly_at_zero(2 * p - 1) / (
                2 * math.factorial(2 * p)
            )
            assert a == expected

    def test_quarter_ratio_matches_euler_form(self, heat_modeq_40):
        lam = Fraction(1, 4)
        for p in range(1, 13):
            a = (-1) ** p * lam * heat_modeq_40.coeff(2 * p)(lam)
            expected = Fraction(-((-1) ** p)) * euler_poly_at_zero(2 * p - 1) / (
                math.factorial(2 * p)
            )
            assert a == expected


class TestRootTest:
    def test_heat_half(self, heat_modeq_40):
        est = radius_root_test(heat_modeq_40, Fraction(1, 2))
        assert est.method == "root_test"
        assert est.value == pytest.approx(math.pi / 2, rel=0.05)

    def test_heat_quarter(self, heat_modeq_40):
        est = radius_root_test(heat_modeq_40, Fraction(1, 4))
        assert est.value == pytest.approx(math.pi, rel=0.05)

    def test_upwind_unit_ratio_flags_infinite(self, upwind_modeq_40):
        est = radius_root_test(upwind_modeq_40, 1)
        assert math.isinf(est.value)
        assert est.diagnostics.polynomial_tail

    def test_requires_enough_coefficients(self, heat):
        with pytest.raises(ValueError):
            radius_root_test(derive_log(heat, 8), Fraction(1, 2))


class TestZeroSearch:
    def test_heat_half(self, heat):
        est = radius_zero_search(heat, Fraction(1, 2))
        assert est.method == "zero_search"
        assert est.value == pytest.approx(math.pi / 2, abs=1e-10)
        assert est.diagnostics.zero is not None
        assert est.diagnostics.residual <= 1e-10

    def test_heat_quarter_double_zero(self, heat):
        est = radius_zero_search(heat, Fraction(1, 4))
        assert est.value == pytest.approx(math.pi, abs=1e-10)

    def test_upwind_quarter_complex_zero(self, upwind):
        est = radius_zero_search(upwind, Fraction(1, 4))
        expected = math.sqrt(math.pi**2 + math.log(3) ** 2)
        assert est.value == pytest.approx(expected, abs=1e-10)
        zero = est.diagnostics.zero
        assert abs(abs(zero.real) - math.pi) < 1e-9
        assert abs(abs(zero.imag) - math.log(3)) < 1e-9

    def test_upwind_unit_ratio_infinite(self, upwind):
        est = radius_zero_search(upwind, 1)
        assert math.isinf(est.value)
        assert est.diagnostics.zero is None

    def test_selection_rule_is_deterministic(self, heat, upwind):
        a = radius_zero_search(heat, Fraction(1, 2))
        b = radius_zero_search(heat, Fraction(1, 2))
        assert a.diagnostics.zero == b.diagnostics.zero
        # equally near zeros at Re theta = +pi and -pi: the -pi branch wins
        zero = radius_zero_search(upwind, Fraction(1, 4)).diagnostics.zero
        assert zero.real == pytest.approx(-math.pi, abs=1e-12)

    def test_lambda_domain(self, heat):
        with pytest.raises(ValueError):
            radius_zero_search(heat, 0)

    def test_counts_nonzero_roots_with_multiplicity(self, heat):
        # Q(w) = (w + 1)^2 / 4: one double root
        est = radius_zero_search(heat, Fraction(1, 4))
        assert est.diagnostics.coefficients_used == 2

    def test_quadruple_zero(self):
        # two heat steps per step: S = (1 - 4 lambda sin^2(theta/2))^2, so at
        # lambda = 1/4 the symbol is cos^4(theta/2) and Q(w) = (w + 1)^4 / 16
        scheme = parse_scheme(
            "scheme heat_twice\nq = 2\npde A[2] = -2\n"
            "stencil B[-2] = lambda\nstencil B[-1] = 2 - 4*lambda\n"
            "stencil B[0] = -4 + 6*lambda\nstencil B[1] = 2 - 4*lambda\n"
            "stencil B[2] = lambda\n"
        )
        est = radius_zero_search(scheme, Fraction(1, 4))
        assert est.value == pytest.approx(math.pi, abs=1e-12)
        assert est.diagnostics.coefficients_used == 4


class TestZeroSearchRegressions:
    """Zeros with |Im theta| > 6, which a bounded search box misses."""

    @pytest.mark.parametrize(
        "name, lam, expected",
        [
            ("heat_centered", Fraction(1, 1000), 7.5868),
            ("upwind_euler", Fraction(1, 1000), 7.5877),
            ("upwind_euler", Fraction(999, 1000), 7.5877),
        ],
    )
    def test_far_zero_found(self, name, lam, expected):
        est = radius_zero_search(catalog_scheme(name), lam)
        assert est.value == pytest.approx(expected, abs=1e-4)
        assert abs(est.diagnostics.zero.imag) > 6


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-6.0, max_value=1.0))
def test_zero_search_matches_heat_closed_form(heat, log10_lam):
    lam = 10.0**log10_lam
    est = radius_zero_search(heat, lam)
    assert est.value == pytest.approx(heat_closed_form_radius(lam).value, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda x: 0 < x < 1))
def test_upwind_mirror_symmetry(upwind, lam):
    a = radius_zero_search(upwind, lam)
    b = radius_zero_search(upwind, 1 - lam)
    assert a.value == pytest.approx(b.value, rel=1e-14)


@pytest.mark.parametrize(
    "lam",
    [Fraction(1, 10**6), Fraction(1, 1000), Fraction(1, 10), Fraction(1, 2),
     Fraction(9, 10), Fraction(3, 2), Fraction(7, 3)],
)
def test_lax_wendroff_matches_quadratic_formula(lax, lam):
    # w S(w) = a w^2 + b w + c with the Lax-Wendroff weights
    x = float(lam)
    a, b, c = x * (x - 1) / 2, 1 - x * x, x * (x + 1) / 2
    disc = cmath.sqrt(b * b - 4 * a * c)
    half = -max(b + disc, b - disc, key=abs) / 2  # the sign without cancellation
    roots = [half / a, c / half]
    expected = min(abs(complex(cmath.phase(w), -math.log(abs(w)))) for w in roots)
    assert radius_zero_search(lax, lam).value == pytest.approx(expected, rel=1e-9)


def test_lax_wendroff_unit_ratio_infinite(lax):
    # w S(w) = 1 at lambda = 1: the symbol is the exact shift e^{-i theta}
    est = radius_zero_search(lax, 1)
    assert math.isinf(est.value)
    assert est.diagnostics.coefficients_used == 0


class TestZeroSearchFailure:
    def test_no_convergence_exits_2_and_names_the_case(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise mpmath.libmp.NoConvergence("forced")

        monkeypatch.setattr(mpmath.mp, "polyroots", no_convergence)
        code = main(["radius", "--catalog", "upwind_euler", "--lambdas", "1/4",
                     "-N", "16", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "upwind_euler" in captured.err and "1/4" in captured.err
        assert "inf" not in captured.out
        assert not list(tmp_path.iterdir())


class TestClosedForm:
    @pytest.mark.parametrize(
        "lam, expected",
        [
            (Fraction(1, 2), math.pi / 2),
            (Fraction(1, 4), math.pi),
            (1, math.pi / 3),
        ],
    )
    def test_values(self, lam, expected):
        est = heat_closed_form_radius(lam)
        assert est.method == "closed_form"
        assert est.value == pytest.approx(expected, abs=1e-14)

    def test_below_quarter_defers_to_zero_search(self):
        est = heat_closed_form_radius(Fraction(1, 5))
        assert est.method == "closed_form"
        # complex zero pi +/- i * 2 arccosh(1/(2 sqrt(lam)))
        expected = math.hypot(math.pi, 2 * math.acosh(1 / (2 * math.sqrt(0.2))))
        assert est.value == pytest.approx(expected, abs=1e-10)

    def test_cross_check_against_zero_search(self, heat):
        est = heat_closed_form_radius(1)
        other = radius_zero_search(heat, 1)
        assert est.value == pytest.approx(other.value, abs=1e-10)


class TestMethodAgreement:
    @pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)])
    def test_heat_within_5_percent(self, heat, heat_modeq_40, lam):
        rt = radius_root_test(heat_modeq_40, lam)
        zs = radius_zero_search(heat, lam)
        assert rt.value == pytest.approx(zs.value, rel=0.05)

    @pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_upwind_within_10_percent(self, upwind, upwind_modeq_40, lam):
        rt = radius_root_test(upwind_modeq_40, lam)
        zs = radius_zero_search(upwind, lam)
        assert rt.value == pytest.approx(zs.value, rel=0.10)


class TestContractionImpliesConvergence:
    @pytest.mark.parametrize(
        "name, lam",
        [
            ("heat_centered", Fraction(1, 10)),
            ("heat_centered", Fraction(1, 5)),
            ("heat_centered", Fraction(1, 4)),
            ("upwind_euler", Fraction(1, 10)),
            ("upwind_euler", Fraction(2, 5)),
            ("upwind_euler", Fraction(1, 2)),
        ],
    )
    def test_radius_at_least_pi_where_contraction_holds(self, name, lam):
        from modeq.schemes import catalog_scheme

        scheme = catalog_scheme(name)
        assert compute_theta_m(scheme, lam) == math.pi
        est = radius_zero_search(scheme, lam)
        assert est.value >= math.pi - 1e-9


def test_contraction_does_not_imply_radius_beyond_pi(lax):
    # Omega_c is where -sum_m (1-S)^m/m converges at every real theta; the
    # generator's Taylor series can still have radius below pi there
    lam = Fraction(1, 2)
    assert compute_theta_m(lax, lam) == math.pi
    assert radius_zero_search(lax, lam).value == pytest.approx(1.8662640412588716, rel=1e-12)
