from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import LAM16, lp, random_stencils
from modeq.cli import main
from modeq.derivation import derive_log, symbol_polynomial
from modeq.exactalg import LP_ZERO, LambdaPoly
from modeq.radius import (ZeroSearchError, _log_fraction, heat_closed_form_radius,
                          radius_root_test, radius_zero_search)
from modeq.schemes import SchemeSpec, catalog_scheme, parse_scheme
from modeq.spectra import region_scan
from oracles import bernoulli, euler_poly_at_zero, fraction_log


def _theta_m(scheme, lam):
    """theta_m from a region scan whose last sample is float(lam)."""
    return region_scan(scheme, (0.0, float(lam), 2)).columns["theta_m"][-1]


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
        assert est["method"] == "root_test"
        assert est["value"] == pytest.approx(math.pi / 2, rel=0.05)

    def test_heat_quarter(self, heat_modeq_40):
        est = radius_root_test(heat_modeq_40, Fraction(1, 4))
        assert est["value"] == pytest.approx(math.pi, rel=0.05)

    def test_upwind_unit_ratio_flags_infinite(self, upwind_modeq_40):
        est = radius_root_test(upwind_modeq_40, 1)
        assert est["value"] == math.inf
        assert est["diagnostics"]["polynomial_tail"]

    def test_requires_enough_coefficients(self, heat):
        with pytest.raises(ValueError):
            radius_root_test(derive_log(heat, 8), Fraction(1, 2))

    def test_all_coefficients_zero_is_infinite(self):
        # S = 1 + lambda (2 sinh(x/2))^64, so c_1 .. c_63 vanish at every lambda
        text = "scheme diff64\nq = 64\npde A[64] = -1\n" + "".join(
            f"stencil B[{k - 32}] = {(-1) ** k * math.comb(64, k)}\n" for k in range(65))
        est = radius_root_test(derive_log(parse_scheme(text), 16), Fraction(1, 2))
        assert est["value"] == math.inf
        assert est["diagnostics"]["all_coefficients_zero"]
        assert not est["diagnostics"]["polynomial_tail"]
        assert est["diagnostics"]["coefficients_used"] == 0

    @pytest.mark.parametrize("name", ["heat_centered", "upwind_euler", "lax_wendroff"])
    @pytest.mark.parametrize("lam", [Fraction(1, 1000), Fraction(3127, 10000), Fraction(3, 2)])
    def test_fixed_table_gives_the_symbolic_estimate(self, name, lam):
        scheme = catalog_scheme(name)
        fixed = radius_root_test(derive_log(scheme, 24, lam), lam)
        assert fixed == radius_root_test(derive_log(scheme, 24), lam)

    def test_fixed_table_refuses_another_lambda(self, heat):
        with pytest.raises(ValueError, match=r"^scheme heat_centered: the N = 16 modified "
                                             r"equation is fixed at lambda = 1/5, not at "
                                             r"lambda = 1/4$"):
            radius_root_test(derive_log(heat, 16, Fraction(1, 5)), Fraction(1, 4))


# numerators and denominators of up to a few thousand bits, either sign
big_rationals = st.builds(Fraction, st.integers(-(2**5000), 2**5000).filter(bool),
                          st.integers(1, 2**5000))


@settings(max_examples=200, deadline=None)
@given(st.one_of(big_rationals, st.fractions().filter(bool)))
def test_log_from_integers_is_the_fraction_formula(c):
    # the root test's log |c|, from the reduced c's integers, bit for bit
    assert 0.5 * _log_fraction(c.numerator ** 2, c.denominator ** 2) == \
        0.5 * fraction_log(c * c)


class TestZeroSearch:
    def test_heat_half(self, heat):
        est = radius_zero_search(heat, Fraction(1, 2))
        assert est["method"] == "zero_search"
        assert est["value"] == pytest.approx(math.pi / 2, abs=1e-10)
        assert est["diagnostics"]["zero"] is not None
        assert est["diagnostics"]["residual"] <= 1e-10

    def test_heat_quarter_double_zero(self, heat):
        # Q(w) = (w + 1)^2 / 4, whose square-free part w + 1 has the root -1
        assert symbol_polynomial(heat, Fraction(1, 4)) == lp("1/4", "1/2", "1/4")
        est = radius_zero_search(heat, Fraction(1, 4))
        assert est["value"] == pytest.approx(math.pi, abs=1e-10)

    def test_upwind_quarter_complex_zero(self, upwind):
        est = radius_zero_search(upwind, Fraction(1, 4))
        expected = math.sqrt(math.pi**2 + math.log(3) ** 2)
        assert est["value"] == pytest.approx(expected, abs=1e-10)
        zero = est["diagnostics"]["zero"]
        assert abs(abs(zero["re"]) - math.pi) < 1e-9
        assert abs(abs(zero["im"]) - math.log(3)) < 1e-9

    def test_upwind_unit_ratio_infinite(self, upwind):
        est = radius_zero_search(upwind, 1)
        assert est["value"] == math.inf
        assert est["diagnostics"]["zero"] is None

    # an infinite radius compares as a number: the report writes "inf", the
    # library dict holds math.inf
    def test_infinite_radius_is_a_float(self):
        assert (radius_zero_search(catalog_scheme("upwind_euler"), 1)["value"] >= math.pi) is True

    def test_selection_rule_is_deterministic(self, heat, upwind):
        a = radius_zero_search(heat, Fraction(1, 2))
        b = radius_zero_search(heat, Fraction(1, 2))
        assert a["diagnostics"]["zero"] == b["diagnostics"]["zero"]
        # equally near zeros at Re theta = +pi and -pi: the -pi branch wins
        zero = radius_zero_search(upwind, Fraction(1, 4))["diagnostics"]["zero"]
        assert zero["re"] == pytest.approx(-math.pi, abs=1e-12)

    def test_lambda_domain(self, heat):
        with pytest.raises(ValueError):
            radius_zero_search(heat, 0)

    def test_counts_nonzero_roots_with_multiplicity(self, heat):
        # Q(w) = (w + 1)^2 / 4: one double root
        est = radius_zero_search(heat, Fraction(1, 4))
        assert est["diagnostics"]["coefficients_used"] == 2

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
        assert est["value"] == pytest.approx(math.pi, abs=1e-12)
        assert est["diagnostics"]["coefficients_used"] == 4


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
        assert est["value"] == pytest.approx(expected, abs=1e-4)
        assert abs(est["diagnostics"]["zero"]["im"]) > 6


# the zero search rounds |theta| of its mpmath zero once, as the closed form
# does, so the two agree to the bit
@settings(max_examples=60, deadline=None)
@example(Fraction(1, 10))
@example(Fraction(1, 4))
@example(1e-100)
@given(st.one_of(st.floats(min_value=-8.0, max_value=2.0).map(lambda e: 10.0**e),
                 st.fractions(min_value=0, max_value=10, max_denominator=10**6).filter(bool)))
def test_zero_search_matches_heat_closed_form(heat, lam):
    assert radius_zero_search(heat, lam)["value"] == heat_closed_form_radius(lam)["value"]


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda x: 0 < x < 1))
def test_upwind_mirror_symmetry(upwind, lam):
    a = radius_zero_search(upwind, lam)
    b = radius_zero_search(upwind, 1 - lam)
    assert a["value"] == pytest.approx(b["value"], rel=1e-14)


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
    assert radius_zero_search(lax, lam)["value"] == pytest.approx(expected, rel=1e-9)


def test_lax_wendroff_unit_ratio_infinite(lax):
    # w S(w) = 1 at lambda = 1: the symbol is the exact shift e^{-i theta}
    est = radius_zero_search(lax, 1)
    assert est["value"] == math.inf
    assert est["diagnostics"]["coefficients_used"] == 0


def _search(scheme, lam, seeded=True, digits=None):
    """``radius_zero_search``'s report dict, or the text of its
    ``ZeroSearchError``.  Unseeded, Durand-Kerner starts from mpmath's own
    points; ``digits`` replaces the working digits it tries in turn."""
    from modeq import radius

    seeds = mock.Mock(wraps=radius._float_seeds if seeded else lambda nums: None)
    with mock.patch.object(radius, "_ROOT_DPS", digits or radius._ROOT_DPS), \
            mock.patch.object(radius, "_float_seeds", seeds):
        try:
            result = radius_zero_search(scheme, lam)
        except ZeroSearchError as exc:
            result = str(exc)
    assert seeds.call_count == 1
    return result


@st.composite
def wide_stencils(draw):
    """A stencil on offsets -3..3 whose weights are linear in lambda and
    sum to zero."""
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    offsets = sorted(draw(st.sets(st.integers(-3, 3), min_size=2, max_size=7)))
    weights = {p: LambdaPoly([draw(rationals), draw(rationals)]) for p in offsets[1:]}
    weights[offsets[0]] = -sum(weights.values(), LP_ZERO)
    assume(any(weights.values()))
    return SchemeSpec(name="wide", q=1, stencil=weights, pde={1: Fraction(1)})


class TestSeededZeroSearch:
    """Durand-Kerner starts from float roots of Q; the roots it converges
    to round to the floats of a search from mpmath's own start."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_stencils(), wide_stencils()),
           st.fractions(min_value=0, max_value=4, max_denominator=1000).filter(bool))
    def test_same_report_as_the_unseeded_search(self, scheme, lam):
        assert _search(scheme, lam) == _search(scheme, lam, seeded=False)

    @pytest.mark.parametrize("name", ["heat_centered", "upwind_euler", "lax_wendroff"])
    def test_catalog_and_lambda16(self, name):
        schemes = [catalog_scheme(name), parse_scheme(LAM16)]
        for lam in (Fraction(1, 1000), Fraction(1, 5), Fraction(3127, 10000), Fraction(1, 2),
                    Fraction(301, 400), Fraction(3, 2), Fraction(7, 3)):
            for scheme in schemes:
                assert _search(scheme, lam) == _search(scheme, lam, seeded=False)

    # heat's Q has a double root at lambda = 1/4, and Lax-Wendroff's leading
    # coefficient vanishes at lambda = 1: near them two seeds nearly coincide
    # or one is far out.  Where the search at 50 digits from mpmath's own
    # start converges, the report is its report.
    @pytest.mark.parametrize("name, center, converged", [
        ("heat_centered", Fraction(1, 4), 77), ("lax_wendroff", Fraction(1), 80)])
    def test_near_double_roots_keep_the_report(self, name, center, converged):
        scheme, compared = catalog_scheme(name), 0
        for k in range(1, 41):
            for lam in (center - Fraction(1, 10**k), center + Fraction(1, 10**k)):
                today = _search(scheme, lam, seeded=False, digits=(50,))
                if isinstance(today, dict):
                    assert _search(scheme, lam) == today, lam
                    compared += 1
        assert compared == converged

    def test_seeds_of_a_near_double_root_are_refused(self, heat):
        from modeq.radius import _float_seeds

        # the roots -1 +/- 4 sqrt(eps) + O(eps) lie 8e-6 and 8e-7 apart
        for k, seeded in ((12, True), (14, False)):
            q = symbol_polynomial(heat, Fraction(1, 4) - Fraction(1, 10**k))
            assert (_float_seeds(q.nums) is not None) == seeded
        assert _float_seeds((1,)) == []
        assert len(_float_seeds((2, -3, 1))) == 2


class TestNearQuarterHeat:
    """Heat at lambda = 1/4 - eps, where the two roots of Q lie about
    8 sqrt(eps) apart: 50 digits do not converge, and the retry does."""

    @pytest.mark.parametrize("k", [13, 21, 40])
    def test_matches_the_closed_form_in_mpmath(self, heat, k):
        lam = Fraction(1, 4) - Fraction(1, 10**k)
        with mpmath.workdps(120):
            im = 2 * mpmath.acosh(1 / (2 * mpmath.sqrt(mpmath.mpf(lam.numerator)
                                                       / lam.denominator)))
            value = float(mpmath.hypot(mpmath.pi, im))
        est = radius_zero_search(heat, lam)
        assert est["diagnostics"]["zero"]["re"] == -math.pi
        assert est["diagnostics"]["zero"]["im"] == pytest.approx(-float(im), rel=1e-12)
        assert est["value"] == pytest.approx(value, rel=1e-15)

    def test_cli_writes_the_report(self, capsys):
        code = main(["radius", "--catalog", "heat_centered",
                     "--lambdas", "2499999999999/10000000000000", "-N", "16"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        (entry,) = json.loads(captured.out)["estimates"]
        assert entry["zero_search"]["diagnostics"]["zero"]["im"] == \
            pytest.approx(-1.2649110640675204e-06, rel=1e-12)


class TestTinyLambda:
    """lambda far below 10^-50, where Q's small root lies below the absolute
    10^-50 at which the root finder stops and rounds a root to 0: the search
    carries the digits it needs.  Against the closed forms (heat, upwind)
    and a 700-digit search (Lax-Wendroff)."""

    POWERS = [52, 100, 200, 300]

    @staticmethod
    def _nearest(roots) -> float:
        # theta = arg w - i ln |w|, with arg in (-pi, pi] the nearest branch
        return float(min(mpmath.hypot(mpmath.arg(w), mpmath.log(abs(w))) for w in roots))

    @pytest.mark.parametrize("k", POWERS)
    def test_heat_and_upwind_equal_their_closed_forms(self, heat, upwind, k):
        lam = Fraction(1, 10**k)
        with mpmath.workdps(400):
            x = mpmath.mpf(lam.numerator) / lam.denominator
            # heat's zero is pi + 2i acosh(1/(2 sqrt x)), upwind's pi + i ln((1-x)/x)
            heat_r = float(mpmath.hypot(mpmath.pi, 2 * mpmath.acosh(1 / (2 * mpmath.sqrt(x)))))
            upwind_r = float(mpmath.hypot(mpmath.pi, mpmath.log((1 - x) / x)))
        assert radius_zero_search(heat, lam)["value"] == pytest.approx(heat_r, rel=1e-15)
        assert radius_zero_search(upwind, lam)["value"] == pytest.approx(upwind_r, rel=1e-15)
        assert heat_closed_form_radius(lam)["value"] == heat_r

    @pytest.mark.parametrize("k", POWERS)
    def test_lax_wendroff_equals_a_700_digit_search(self, lax, k):
        lam = Fraction(1, 10**k)
        nums = symbol_polynomial(lax, lam).nums
        with mpmath.workdps(700):
            # the large root lies near 2 * 10^k: carry its bits too
            expected = self._nearest(mpmath.polyroots(
                [mpmath.mpf(c) for c in reversed(nums)], maxsteps=200, extraprec=1100))
        assert radius_zero_search(lax, lam)["value"] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("name", ["heat_centered", "upwind_euler", "lax_wendroff"])
    @pytest.mark.parametrize("k", POWERS)
    def test_cli_writes_the_report(self, capsys, name, k):
        code = main(["radius", "--catalog", name, "--lambdas", f"1e-{k}", "-N", "16"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        (entry,) = json.loads(captured.out)["estimates"]
        if entry["closed_form"] is not None:
            assert entry["zero_search"]["value"] == \
                pytest.approx(entry["closed_form"]["value"], rel=1e-15)


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
        assert est["method"] == "closed_form"
        assert est["value"] == pytest.approx(expected, abs=1e-14)

    def test_below_quarter_defers_to_zero_search(self):
        est = heat_closed_form_radius(Fraction(1, 5))
        assert est["method"] == "closed_form"
        # complex zero pi +/- i * 2 arccosh(1/(2 sqrt(lam)))
        expected = math.hypot(math.pi, 2 * math.acosh(1 / (2 * math.sqrt(0.2))))
        assert est["value"] == pytest.approx(expected, abs=1e-10)

    def test_cross_check_against_zero_search(self, heat):
        est = heat_closed_form_radius(1)
        other = radius_zero_search(heat, 1)
        assert est["value"] == pytest.approx(other["value"], abs=1e-10)

    def test_lambda_domain_names_the_value(self):
        with pytest.raises(ValueError, match=r"^lambda must be positive, got 0$"):
            heat_closed_form_radius(Fraction(0))

    # the branch is taken on the exact lambda, and each field is the
    # formula's value rounded once; at 1/4 - 10^-21 the zero is not real
    @pytest.mark.parametrize("lam", [
        Fraction(1, 4) - Fraction(1, 10**21), Fraction(1, 4) - Fraction(1, 10**13),
        Fraction(1, 1000), Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), Fraction(1),
        Fraction(3, 2), 0.3,
    ])
    def test_fields_are_the_formula_rounded_once(self, lam):
        x = Fraction(lam)
        with mpmath.workdps(120):
            u = 1 / (2 * mpmath.sqrt(mpmath.mpf(x.numerator) / x.denominator))
            re, im = (mpmath.pi, 2 * mpmath.acosh(u)) if x < Fraction(1, 4) else \
                (2 * mpmath.asin(u), mpmath.mpf(0))
            value, zero = float(mpmath.hypot(re, im)), complex(float(re), float(im))
        est = heat_closed_form_radius(lam)
        assert (est["value"], est["diagnostics"]["zero"]) == \
            (value, {"re": zero.real, "im": zero.imag})
        assert (zero.imag > 0) == (x < Fraction(1, 4))


def test_beam_warming_unit_ratio_is_a_shift(tmp_path, capsys):
    # at lambda = 1, a_-2 = a_0 = 0 and S = e^{-i theta}: Q(w) = w^2 S loses
    # its vanishing constant and leading coefficients, leaving no nonzero root
    f = tmp_path / "beam_warming.scheme"
    f.write_text("scheme beam_warming\nq = 1\npde A[1] = 1\n"
                 "stencil B[-2] = -1/2 + 1/2*lambda\nstencil B[-1] = 2 - lambda\n"
                 "stencil B[0] = -3/2 + 1/2*lambda\n")
    assert main(["radius", "--file", str(f), "--lambdas", "1", "-N", "16"]) == 0
    entry = json.loads(capsys.readouterr().out)["estimates"][0]
    assert entry["zero_search"]["value"] == entry["root_test"]["value"] == "inf"


class TestMethodAgreement:
    @pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)])
    def test_heat_within_5_percent(self, heat, heat_modeq_40, lam):
        rt = radius_root_test(heat_modeq_40, lam)
        zs = radius_zero_search(heat, lam)
        assert rt["value"] == pytest.approx(zs["value"], rel=0.05)

    @pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_upwind_within_10_percent(self, upwind, upwind_modeq_40, lam):
        rt = radius_root_test(upwind_modeq_40, lam)
        zs = radius_zero_search(upwind, lam)
        assert rt["value"] == pytest.approx(zs["value"], rel=0.10)


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
        assert _theta_m(scheme, lam) == math.pi
        est = radius_zero_search(scheme, lam)
        assert est["value"] >= math.pi - 1e-9


def test_contraction_does_not_imply_radius_beyond_pi(lax):
    # Omega_c is where -sum_m (1-S)^m/m converges at every real theta; the
    # generator's Taylor series can still have radius below pi there
    lam = Fraction(1, 2)
    assert _theta_m(lax, lam) == math.pi
    assert radius_zero_search(lax, lam)["value"] == pytest.approx(1.8662640412588716, rel=1e-12)
