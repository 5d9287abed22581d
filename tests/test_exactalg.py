from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import lp
from oracles import dot_series_log, fraction_square_free, series_exp
from modeq import exactalg
from modeq.exactalg import (
    LP_ONE,
    LP_ZERO,
    InexactDivisionError,
    LambdaPoly,
    SeriesPreconditionError,
    series_log,
)

ZERO = LP_ZERO
ONE = LP_ONE
LAM = LambdaPoly((0, 1))


def series(coeffs, order):
    """The series of the given order with these leading coefficients."""
    return tuple(coeffs) + (ZERO,) * (order + 1 - len(coeffs))


@st.composite
def sparse_polys(draw):
    """Polynomials of degree < 8, most of whose coefficients are zero, the
    leading ones too."""
    zeros = draw(st.integers(0, 3))
    coeffs = draw(st.lists(st.one_of(st.just(0), st.just(0), st.fractions(max_denominator=30)),
                           max_size=8 - zeros))
    return LambdaPoly([0] * zeros + coeffs)


def integer_polys():
    """Polynomials of degree < 5 with small integer coefficients."""
    return st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(LambdaPoly)


@st.composite
def near_midpoints(draw):
    """A rational of either sign at, or within a small fraction of an ulp
    of, the midpoint between two adjacent doubles.  The pairs include 0.0
    and the smallest subnormal, and the largest double and 2^1024, whose
    midpoint 2^1024 - 2^970 is the overflow threshold."""
    f = draw(st.floats(min_value=0.0, allow_infinity=False))
    up = math.nextafter(f, math.inf)
    ulp = Fraction(up) - Fraction(f) if math.isfinite(up) else Fraction(2**971)
    mid = Fraction(f) + ulp / 2
    offset = draw(st.sampled_from([-1, 0, 1])) * ulp / 2 ** draw(st.integers(1, 400))
    return draw(st.sampled_from([1, -1])) * (mid + offset)


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
        for p in (a, b, a * b, a + b, a - b, a * LambdaPoly.const(Fraction(-6, 4))):
            assert p.den > 0
            assert math.gcd(p.den, *p.nums) == 1
            assert not p.nums or p.nums[-1] != 0
        # the same polynomial reached two ways is the same value
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
        assert LambdaPoly(list(a.coeffs) + [0, 0]) == a

    def test_trimming(self):
        assert LambdaPoly((1, 0, 0)).nums == (1,)
        assert ZERO.nums == () and not ZERO

    def test_exact_evaluation(self):
        p = lp("1/12", "-1/2")
        assert p(Fraction(1, 6)) == 0
        assert p(0) == Fraction(1, 12)

    # lambda's own integer ratio where it has one; a numpy int has none and
    # goes through a Fraction
    @pytest.mark.parametrize("x", [3, Fraction(3, 7), 0.3, np.float64(0.3), np.int64(3)])
    def test_float_at_reads_every_rational_type(self, x):
        p = lp("1/3", "-2", "5/7")
        exact = sum(c * Fraction(x) ** k for k, c in enumerate(p.coeffs))
        assert (next(LambdaPoly.float_rows((p,), (x,)))[0], p(x)) == (float(exact), exact)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.fractions(), st.integers(-10**320, 10**320)), max_size=5),
           st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.fractions()))
    @example([10**400], 1)
    @example([Fraction(-1, 10**400)], Fraction(1, 3))
    def test_float_at_is_the_rounded_exact_value(self, coeffs, x):
        p = LambdaPoly(coeffs)
        try:
            expected = float(p(x))
        except OverflowError:
            with pytest.raises(OverflowError):
                next(LambdaPoly.float_rows((p,), (x,)))[0]
            return
        # hex tells -0.0 from 0.0
        assert next(LambdaPoly.float_rows((p,), (x,)))[0].hex() == expected.hex()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.integers(-5, 5), st.fractions(max_denominator=9)),
                              sparse_polys(), sparse_polys()), max_size=5))
    def test_dot_is_the_schoolbook_sum_in_either_factor_order(self, terms):
        out = [Fraction(0)] * 16
        for c, a, b in terms:
            for j, x in enumerate(a.coeffs):
                for k, y in enumerate(b.coeffs):
                    out[j + k] += c * x * y
        expected = LambdaPoly(out)
        assert LambdaPoly.dot(terms) == expected
        assert LambdaPoly.dot([(c, b, a) for c, a, b in terms]) == expected

    # c0 is set so that the value at x is ``target``: a point within a tiny
    # fraction of an ulp of a rounding midpoint, or of the overflow threshold
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-2**80, 2**80), min_size=40, max_size=70),
           st.integers(1, 2**60), near_midpoints(),
           st.one_of(st.floats(-2, 2, allow_nan=False),
                     st.fractions(-2, 2, max_denominator=2**70)))
    @example([3] * 40, 7, Fraction(2**1024 - 2**970), 0.3)  # rounds up to 2^1024: overflow
    @example([3] * 40, 7, -Fraction(2**1024 - 2**970 - 1), 0.3)
    @example([3] * 40, 7, Fraction(1, 2**1075), 0.3)  # ties to even: 0.0
    @example([3] * 40, 7, -Fraction(1, 2**1075) - Fraction(1, 2**1400), 0.3)
    def test_float_at_near_rounding_boundaries(self, nums, den, target, x):
        cs = [Fraction(a, den) for a in nums]
        x = Fraction(x)
        p = LambdaPoly([cs[0] + target - LambdaPoly(cs)(x), *cs[1:]])
        assert p(x) == target
        try:
            expected = float(p(x))
        except OverflowError:
            with pytest.raises(OverflowError):
                next(LambdaPoly.float_rows((p,), (x,)))[0]
            return
        assert next(LambdaPoly.float_rows((p,), (x,)))[0].hex() == expected.hex()

    # a row of small polynomials, which round exactly, beside one of degree
    # 39-69 made to take a near-tie value at the first lambda, which takes the
    # fixed-point path at a lambda of many bits, and the zero polynomial
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**80, 2**80), min_size=40, max_size=70),
           st.integers(1, 2**60), near_midpoints(),
           st.lists(st.lists(st.one_of(st.fractions(), st.integers(-10**320, 10**320)),
                             max_size=5), max_size=3),
           st.lists(st.one_of(st.integers(-10**6, 10**6),
                              st.floats(-2, 2, allow_nan=False),
                              st.fractions(-2, 2, max_denominator=2**70)),
                    min_size=1, max_size=4))
    @example([3] * 40, 7, Fraction(2**1024 - 2**970), [[1, 2]], [0.3, 0.1])  # overflow first
    @example([3] * 40, 7, Fraction(1, 2**1075), [[10**400]], [0.3])  # a later overflow
    def test_float_rows_are_the_rounded_exact_values(self, nums, den, target, smalls, lams):
        cs = [Fraction(a, den) for a in nums]
        x = Fraction(lams[0])
        tie = LambdaPoly([cs[0] + target - LambdaPoly(cs)(x), *cs[1:]])
        polys = [LambdaPoly(c) for c in smalls]
        polys[1:1] = [tie, ZERO]
        rows = LambdaPoly.float_rows(polys, lams)
        for lam in lams:
            try:
                expected = [float(p(lam)) for p in polys]
            except OverflowError:
                # the first lambda with a value beyond the float range
                with pytest.raises(OverflowError):
                    next(rows)
                return
            assert [v.hex() for v in next(rows)] == [v.hex() for v in expected]
        assert next(rows, None) is None

    def test_float_rows_round_each_value_on_its_own_path(self, monkeypatch):
        # the degree-39 polynomial's size at 0.3 (53 + 55 bits per degree)
        # is above _ZIV_MIN_BITS, the others' are below it or zero
        calls = []
        ziv = exactalg._ziv
        monkeypatch.setattr(exactalg, "_ziv", lambda *args: calls.append(args) or ziv(*args))
        polys = [lp(1, 2, 3), LambdaPoly([Fraction(k, 7) for k in range(1, 41)]), ZERO, ONE]
        [row] = LambdaPoly.float_rows(polys, [0.3])
        assert [v.hex() for v in row] == [float(p(0.3)).hex() for p in polys]
        assert row[2].hex() == "0x0.0p+0"
        assert len(calls) == 1 and calls[0][:2] == (40, tuple(range(39, 0, -1)))

    def test_divide_by_lambda(self):
        assert lp(0, 2, 3).divide_by_lambda() == lp(2, 3)
        with pytest.raises(InexactDivisionError):
            lp(1, 2).divide_by_lambda()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=50), max_size=12), st.fractions())
    def test_reflect_is_p_at_one_minus_lambda(self, coeffs, x):
        p = LambdaPoly(coeffs)
        assert p.reflect()(x) == p(1 - x)
        assert p.reflect().reflect() == p

    def test_reflect_examples(self):
        assert ZERO.reflect() == ZERO and ONE.reflect() == ONE
        assert LAM.reflect() == lp(1, -1)
        assert lp(0, 0, "1/3").reflect() == lp("1/3", "-2/3", "1/3")

    @settings(max_examples=200, deadline=None)
    @given(integer_polys(), integer_polys())
    def test_square_free_matches_fraction_euclid(self, g, h):
        p = g * g * h
        assume(p)
        sf = p.square_free()
        ref = LambdaPoly(fraction_square_free(list(p.coeffs)[::-1])[::-1])
        # equal up to a rational factor: cross-multiplied by the leading coefficients
        assert sf * LambdaPoly.const(ref.coeffs[-1]) == ref * LambdaPoly.const(sf.coeffs[-1])
        # a positive factor, integer coefficients, and no multiple root left
        assert sf.den == 1 and (sf.nums[-1] > 0) == (p.nums[-1] > 0)
        assert sf.square_free() == sf

    def test_square_free_of_a_double_root(self):
        # the heat symbol polynomial at lambda = 1/4: Q(w) = (w + 1)^2 / 4
        assert lp("1/4", "1/2", "1/4").square_free() == lp(1, 1)
        assert lp("-1/4", "-1/2", "-1/4").square_free() == lp(-1, -1)
        assert lp(5).square_free() == ONE
        assert lp(0, 0, 0, 7).square_free() == LAM

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
        assert str(poly) == text


class TestSeriesLog:
    def test_log_of_one(self):
        assert series_log(series([ONE], 5)) == series([], 5)

    def test_heat_like_expansion(self):
        # log(1 - lam th^2 + lam th^4/12) = -lam th^2 + lam(1-6lam) th^4/12
        s = series([ONE, ZERO, -LAM, ZERO, LAM * LambdaPoly.const(Fraction(1, 12))], 4)
        expected = series(
            [ZERO, ZERO, -LAM, ZERO, lp(0, "1/12", "-1/2")], 4
        )
        assert series_log(s) == expected

    def test_shifted_exponential_symbol(self):
        # x-series (x = i theta) of 1 - lam (1 - e^{-x}) at N=2, lam symbolic:
        # 1 - lam x + lam x^2/2, whose log is -lam x + (lam - lam^2) x^2/2
        s = series([ONE, -LAM, LAM * LambdaPoly.const(Fraction(1, 2))], 2)
        expected = series([ZERO, -LAM, lp(0, "1/2", "-1/2")], 2)
        assert series_log(s) == expected

    def test_precondition(self):
        with pytest.raises(SeriesPreconditionError):
            series_log(series([], 3))


@pytest.mark.parametrize("op", [series_log, series_exp])
def test_empty_series_refused(op):
    with pytest.raises(SeriesPreconditionError):
        op(())


class TestSeriesExp:
    def test_exp_of_zero(self):
        assert series_exp(series([], 4)) == series([ONE], 4)

    def test_gaussian_decay_expansion(self):
        s = series([ZERO, ZERO, -LAM], 4)
        expected = series(
            [ONE, ZERO, -LAM, ZERO, lp(0, 0, "1/2")], 4
        )
        assert series_exp(s) == expected

    def test_precondition(self):
        with pytest.raises(SeriesPreconditionError):
            series_exp(series([ONE], 3))


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
    coeffs = [LP_ONE] + [
        draw(lambda_polys()) for _ in range(order)
    ]
    return tuple(coeffs)


@settings(max_examples=60, deadline=None)
@given(unit_series())
def test_exp_log_round_trip(s):
    assert series_exp(series_log(s)) == s


@settings(max_examples=60, deadline=None)
@given(unit_series(max_order=10))
def test_log_exp_round_trip(s):
    u = series_log(s)
    assert series_log(series_exp(u)) == u


@st.composite
def sparse_unit_series(draw, max_order=14):
    """Series with constant term 1 whose coefficients are sparse
    polynomials with denominators up to 30, or constants."""
    coeffs = draw(st.lists(st.one_of(sparse_polys(), rationals.map(LambdaPoly.const)),
                           min_size=1, max_size=max_order))
    return (LP_ONE, *coeffs)


@settings(max_examples=80, deadline=None)
@given(st.one_of(unit_series(), sparse_unit_series()))
def test_log_equals_the_dot_recurrence(s):
    assert series_log(s) == dot_series_log(s)


def test_log_of_one_plus_x():
    # 1 + x: l_p = (-1)^(p+1) / p, where D = 1 and Lam_p = (-1)^(p+1) (p-1)!
    s = series([ONE, ONE], 8)
    assert series_log(s) == (ZERO, *[LambdaPoly.const(Fraction((-1) ** (p + 1), p))
                                     for p in range(1, 9)])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.just(0), st.fractions(max_denominator=30)),
                min_size=1, max_size=20))
def test_log_of_constants_equals_the_dot_recurrence(coeffs):
    # constants run on plain ints; the zeros skip products, whose powers of
    # D the next product or the end must still pay
    s = (LP_ONE, *[LambdaPoly.const(c) for c in coeffs])
    assert series_log(s) == dot_series_log(s)


def test_log_of_constants_runs_on_plain_integers(monkeypatch):
    def no_product(*_):
        raise AssertionError("a polynomial product ran")

    constants = (LP_ONE, *[LambdaPoly.const(Fraction(k, 7)) for k in (3, 0, -2, 0, 5)])
    expected = series_log(constants)
    monkeypatch.setattr("modeq.exactalg._add_product", no_product)
    assert series_log(constants) == expected
    with pytest.raises(AssertionError, match="a polynomial product ran"):
        series_log((LP_ONE, LAM, LAM))
