from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import lp
from modeq.exactalg import (
    InexactDivisionError,
    LambdaPoly,
    OrderMismatchError,
    SeriesPreconditionError,
    ThetaSeries,
    series_exp,
    series_log,
)

ZERO = LambdaPoly.zero()
ONE = LambdaPoly.one()
LAM = LambdaPoly.lam()


def series(coeffs, order):
    return ThetaSeries.from_coeffs(coeffs, order)


class TestLambdaPoly:
    def test_canonical_integer_form(self):
        p = LambdaPoly((Fraction(2, 4), 3, Fraction(-5, 6), 0, 0))
        assert p.nums == (3, 18, -5) and p.den == 6
        assert p.coeffs == (Fraction(1, 2), Fraction(3), Fraction(-5, 6))
        assert all(isinstance(c, Fraction) for c in p.coeffs)
        assert ZERO.nums == () and ZERO.den == 1
        with pytest.raises(AttributeError):
            p.den = 12

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(max_denominator=50), max_size=6),
           st.lists(st.fractions(max_denominator=50), max_size=6))
    def test_canonical_form_properties(self, xs, ys):
        a, b = LambdaPoly(xs), LambdaPoly(ys)
        for p in (a, b, a * b, a + b, a - b, a.scale(Fraction(-6, 4))):
            assert p.den > 0
            assert math.gcd(p.den, *p.nums) == 1
            assert not p.nums or p.nums[-1] != 0
        # the same polynomial reached two ways is the same value
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
        assert LambdaPoly(list(a.coeffs) + [0, 0]) == a

    def test_trimming_and_degree(self):
        p = LambdaPoly((1, 0, 0))
        assert p.degree == 0
        assert ZERO.degree == -1 and ZERO.is_zero

    def test_exact_evaluation(self):
        p = lp("1/12", "-1/2")
        assert p(Fraction(1, 6)) == 0
        assert p(0) == Fraction(1, 12)

    def test_divide_by_lambda(self):
        assert lp(0, 2, 3).divide_by_lambda() == lp(2, 3)
        with pytest.raises(InexactDivisionError):
            lp(1, 2).divide_by_lambda()

    @pytest.mark.parametrize(
        "poly, text",
        [
            (ZERO, "0"),
            (ONE, "1"),
            (lp(-1), "-1"),
            (lp("1/12", "-1/2"), "(1-6*lambda)/12"),
            (lp("1/2", "-1/2"), "(1-lambda)/2"),
            (lp(0, 1), "lambda"),
            (lp(0, 0, "-1/3"), "-lambda^2/3"),
        ],
    )
    def test_rendering(self, poly, text):
        assert poly.to_string() == text


class TestSeriesMul:
    def test_difference_of_squares(self):
        a = series([ONE, ONE], 2)
        b = series([ONE, -ONE], 2)
        assert a * b == series([ONE, ZERO, -ONE], 2)

    def test_annihilator(self):
        a = series([ONE, LAM], 3)
        assert (a * ThetaSeries.zero(3)).is_zero

    def test_square_with_lambda_coeffs(self):
        # (1 - lam th^2)^2 = 1 - 2 lam th^2 + lam^2 th^4, worked by hand
        a = series([ONE, ZERO, -LAM], 4)
        expected = series([ONE, ZERO, lp(0, -2), ZERO, lp(0, 0, 1)], 4)
        assert a * a == expected

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            ThetaSeries.one(2) * ThetaSeries.one(3)

    def test_truncation_closes_over_order(self):
        a = series([ONE, ONE], 1)
        assert a * a == series([ONE, lp(2)], 1)


class TestSeriesLog:
    def test_log_of_one(self):
        assert series_log(ThetaSeries.one(5)).is_zero

    def test_heat_like_expansion(self):
        # log(1 - lam th^2 + lam th^4/12) = -lam th^2 + lam(1-6lam) th^4/12
        s = series([ONE, ZERO, -LAM, ZERO, LAM.scale(Fraction(1, 12))], 4)
        expected = series(
            [ZERO, ZERO, -LAM, ZERO, lp(0, "1/12", "-1/2")], 4
        )
        assert series_log(s) == expected

    def test_shifted_exponential_symbol(self):
        # x-series (x = i theta) of 1 - lam (1 - e^{-x}) at N=2, lam symbolic:
        # 1 - lam x + lam x^2/2, whose log is -lam x + (lam - lam^2) x^2/2
        s = series([ONE, -LAM, LAM.scale(Fraction(1, 2))], 2)
        expected = series([ZERO, -LAM, lp(0, "1/2", "-1/2")], 2)
        assert series_log(s) == expected

    def test_precondition(self):
        with pytest.raises(SeriesPreconditionError):
            series_log(ThetaSeries.zero(3))


class TestSeriesExp:
    def test_exp_of_zero(self):
        assert series_exp(ThetaSeries.zero(4)) == ThetaSeries.one(4)

    def test_gaussian_decay_expansion(self):
        s = series([ZERO, ZERO, -LAM], 4)
        expected = series(
            [ONE, ZERO, -LAM, ZERO, lp(0, 0, "1/2")], 4
        )
        assert series_exp(s) == expected

    def test_precondition(self):
        with pytest.raises(SeriesPreconditionError):
            series_exp(ThetaSeries.one(3))


# --- property tests -------------------------------------------------------

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


@st.composite
def lambda_polys(draw, max_degree=2):
    degree = draw(st.integers(0, max_degree))
    return LambdaPoly(tuple(draw(rationals) for _ in range(degree + 1)))


@st.composite
def unit_series(draw, max_order=16):
    order = draw(st.integers(1, max_order))
    coeffs = [LambdaPoly.one()] + [
        draw(lambda_polys()) for _ in range(order)
    ]
    return ThetaSeries(tuple(coeffs))


@settings(max_examples=60, deadline=None)
@given(unit_series())
def test_exp_log_round_trip(s):
    assert series_exp(series_log(s)) == s


@settings(max_examples=60, deadline=None)
@given(unit_series(max_order=10))
def test_log_exp_round_trip(s):
    u = series_log(s)
    assert series_log(series_exp(u)) == u
