from __future__ import annotations

import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import lp
from modeq.exactalg import LP_ZERO, LambdaPoly
from oracles import GOLDEN, render_scheme
from modeq.schemes import (
    MAX_LAMBDA_POWER,
    MAX_STENCIL_OFFSET,
    SchemeConsistencyError,
    SchemeError,
    SchemeParseError,
    SchemeSpec,
    builtin_catalog,
    catalog_scheme,
    parse_scheme,
    _parse_poly,
)

UPWIND_TEXT = """\
# first-order transport discretization
scheme upwind_euler
q = 1
pde A[1] = 1
stencil B[-1] = 1
stencil B[0] = -1
"""

HEAT_TEXT = """\
scheme heat_centered
q = 2
pde A[2] = -1
stencil B[-1] = 1
stencil B[0] = -2
stencil B[1] = 1
"""

LW_TEXT = """\
scheme lax_wendroff
q = 1
pde A[1] = 1
stencil B[-1] = 1/2 + 1/2*lambda
stencil B[0] = -lambda
stencil B[1] = -1/2 + 1/2*lambda
"""


class TestParser:
    def test_upwind_file(self):
        spec = parse_scheme(UPWIND_TEXT)
        assert spec.name == "upwind_euler"
        assert spec.q == 1
        assert dict(spec.stencil) == {-1: lp(1), 0: lp(-1)}
        assert dict(spec.pde) == {1: 1}
        assert spec == catalog_scheme("upwind_euler")

    def test_heat_file(self):
        spec = parse_scheme(HEAT_TEXT)
        assert spec == catalog_scheme("heat_centered")

    def test_lambda_dependent_stencil(self):
        spec = parse_scheme(LW_TEXT)
        assert spec == catalog_scheme("lax_wendroff")
        assert dict(spec.stencil)[0] == lp(0, -1)

    def test_consistency_violation(self):
        text = "scheme bad\nq = 1\npde A[1] = 1\nstencil B[0] = 1\n"
        with pytest.raises(SchemeConsistencyError):
            parse_scheme(text)

    def test_syntax_error_reports_position(self):
        text = "scheme ok\nq = 1\npde A[1] = 1\nstencil B[0] = 1 $ 2\n"
        with pytest.raises(SchemeParseError) as exc:
            parse_scheme(text)
        assert exc.value.line == 4
        assert "$" in str(exc.value)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("q = 1\npde A[1] = 1\nstencil B[0] = 0\nstencil B[1] = 0\n", "missing 'scheme'"),
            ("scheme a\npde A[1] = 1\nstencil B[0] = 0\n", "missing 'q'"),
            ("scheme a\nq = 0\npde A[1] = 1\nstencil B[0] = 0\n", "q must be >= 1"),
            ("scheme a\nq = 1\nstencil B[0] = 0\n", "no pde entries"),
            ("scheme a\nq = 1\npde A[1] = 1\n", "no stencil entries"),
            (
                "scheme a\nq = 1\npde A[1] = 1\nstencil B[0] = 1\nstencil B[0] = -1\n",
                "duplicate stencil offset",
            ),
            (
                "scheme a\nq = 1\npde A[1] = 1\npde A[1] = 2\nstencil B[0] = 0\n",
                "duplicate PDE order",
            ),
            ("wat 12\n", "unknown directive"),
            ("scheme a\nq = 1\npde A[0] = 1\nstencil B[0] = 0\n", "PDE order"),
            (
                "scheme a\nq = 1\npde A[1] = 1\nstencil B[0] = 1/0\n",
                "line 4, column 16: zero denominator in '1/0'",
            ),
            (
                "scheme a\nq = 1\npde A[1] = 3/0\nstencil B[0] = 0\n",
                "line 3, column 12: zero denominator in '3/0'",
            ),
            (
                "scheme a\nq = 1\npde A[1] = 1\n"
                "stencil B[-1] = lambda^17\nstencil B[0] = -lambda^17\n",
                "line 4, column 24: lambda exponent 17 exceeds 16",
            ),
            (
                "scheme a\nq = 1\npde A[1] = 1\n"
                f"stencil B[0] = 1\nstencil B[{MAX_STENCIL_OFFSET + 1}] = -1\n",
                f"line 5, column 11: stencil offset {MAX_STENCIL_OFFSET + 1} exceeds "
                f"+-{MAX_STENCIL_OFFSET}",
            ),
            (
                "scheme a\nq = 1\npde A[1] = 1\n"
                f"stencil B[-{MAX_STENCIL_OFFSET + 1}] = 1\nstencil B[0] = -1\n",
                f"line 4, column 11: stencil offset -{MAX_STENCIL_OFFSET + 1} exceeds",
            ),
            # Python refuses to convert more than 4300 digits by default
            (
                "scheme a\nq = 1\npde A[1] = 1\n"
                f"stencil B[-1] = 1 + {'9' * 5000}*lambda\nstencil B[0] = -1\n",
                "line 4, column 21: number of 5000 characters exceeds",
            ),
            (
                "scheme a\nq = 1\npde A[1] = 1\n"
                f"stencil B[-1] = lambda^{'9' * 5000}\nstencil B[0] = -1\n",
                "line 4, column 24: number of 5000 characters exceeds",
            ),
            (
                f"scheme a\nq = 1\npde A[1] = 1/{'7' * 5000}\nstencil B[0] = 0\n",
                "line 3, column 12: number of 5002 characters exceeds",
            ),
            (
                f"scheme a\nq = {'1' * 5000}\npde A[1] = 1\nstencil B[0] = 0\n",
                "line 2, column 5: number of 5000 characters exceeds",
            ),
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(SchemeError) as exc:
            parse_scheme(text)
        assert fragment in str(exc.value)

    def test_offset_cap_is_inclusive(self):
        k = MAX_STENCIL_OFFSET
        spec = parse_scheme(
            f"scheme a\nq = 2\npde A[2] = -1\nstencil B[-{k}] = 1\nstencil B[{k}] = -1\n")
        assert (spec.n_left, spec.n_right) == (k, k)

    def test_polynomial_grammar(self):
        text = (
            "scheme a\nq = 1\npde A[1] = 1\n"
            "stencil B[0] = -2*lambda^2 + lambda - 1/3\n"
            "stencil B[1] = 2*lambda^2 - lambda + 1/3\n"
        )
        spec = parse_scheme(text)
        assert dict(spec.stencil)[0] == lp("-1/3", 1, -2)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2lambda", lp(0, 2)),
            ("2 * lambda ^ 3", lp(0, 0, 0, 2)),
            ("-lambda", lp(0, -1)),
            ("+1", lp(1)),
            ("1/2*lambda - 1/3", lp("-1/3", "1/2")),
            (f"lambda^{MAX_LAMBDA_POWER}", LambdaPoly.const(1).shift_up(MAX_LAMBDA_POWER)),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert _parse_poly(text, 1, 1) == expected

    @pytest.mark.parametrize(
        "text, column",
        [("1 2", 3), ("*lambda", 1), ("2*", 2), ("2^3", 2), ("--1", 2), ("1 +", 4),
         ("lambdas", 7), ("lambda^1/2", 9)],
    )
    def test_rejected_forms(self, text, column):
        with pytest.raises(SchemeParseError) as exc:
            _parse_poly(text, 1, 1)
        assert exc.value.column == column


class TestRoundTrip:
    @pytest.mark.parametrize("text", [UPWIND_TEXT, HEAT_TEXT, LW_TEXT])
    def test_render_reparses_identically(self, text):
        spec = parse_scheme(text)
        assert parse_scheme(render_scheme(spec)) == spec

    # sha256 of each catalog scheme rendered in the text format
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("heat_centered", "f957e555a9419975c4fe6dc021954e17972bbc417b12557dd129a6dccf405a50"),
            ("upwind_euler", "d14929d422b217f26ec4aaa71a45708ae7aac5becdb06c17f83152eef538d91c"),
            ("lax_wendroff", "2893ae64c7c37df2fd9ba4a4c2075b21db727da1e241373ce0e24745ce637b4b"),
        ],
    )
    def test_catalog_render_golden(self, name, digest):
        text = render_scheme(catalog_scheme(name))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_catalog_round_trips(self):
        for scheme in builtin_catalog():
            assert parse_scheme(render_scheme(scheme)) == scheme


_WEIGHT = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
    max_size=MAX_LAMBDA_POWER + 1,
).map(lambda cs: LambdaPoly(tuple(cs)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=5, unique=True),
    st.lists(_WEIGHT, min_size=4, max_size=4),
    st.dictionaries(st.integers(1, 6), st.fractions(max_denominator=30), min_size=1),
)
def test_random_scheme_round_trips(offsets, weights, pde):
    stencil = dict(zip(offsets[:-1], weights))
    stencil[offsets[-1]] = -sum(stencil.values(), LP_ZERO)
    assume(any(stencil.values()))
    spec = SchemeSpec(name="random", q=2, stencil=stencil, pde=pde)
    assert parse_scheme(render_scheme(spec)) == spec
    # the same terms as tuples, highest offset first, normalize to the same value
    reversed_stencil = tuple(sorted(stencil.items(), key=lambda term: -term[0]))
    assert SchemeSpec(name="random", q=2, stencil=reversed_stencil, pde=pde) == spec


class TestSchemeSpec:
    def test_rejects_inconsistent_stencil(self):
        with pytest.raises(SchemeConsistencyError):
            SchemeSpec(name="x", q=1, stencil={0: lp(1)}, pde={1: 1})

    def test_rejects_empty_stencil(self):
        with pytest.raises(SchemeError):
            SchemeSpec(name="x", q=1, stencil={}, pde={1: 1})

    def test_rejects_all_zero_stencil(self):
        with pytest.raises(SchemeError):
            SchemeSpec(name="x", q=1, stencil={0: LP_ZERO, 1: LP_ZERO}, pde={1: 1})

    def test_rejects_bad_q(self):
        with pytest.raises(SchemeError):
            SchemeSpec(name="x", q=0, stencil={-1: lp(1), 0: lp(-1)}, pde={1: 1})

    def test_rejects_duplicate_pde_order(self):
        with pytest.raises(SchemeError, match="duplicate PDE order"):
            SchemeSpec(name="x", q=1, stencil={-1: lp(1), 0: lp(-1)}, pde=((1, 1), (1, 2)))

    def test_widths(self, lax):
        assert lax.n_left == 1 and lax.n_right == 1


class TestCatalog:
    def test_heat_entry(self):
        assert catalog_scheme("heat_centered").q == 2
        assert GOLDEN["heat_centered"].stability_bound == Fraction(1, 2)
        assert GOLDEN["heat_centered"].contraction_bound == Fraction(1, 4)

    def test_upwind_entry(self):
        assert catalog_scheme("upwind_euler").q == 1
        assert GOLDEN["upwind_euler"].stability_bound == Fraction(1)
        assert GOLDEN["upwind_euler"].contraction_bound == Fraction(1, 2)

    def test_lax_wendroff_sums_to_zero(self):
        # hand check: (1/2 + lam/2) + (-lam) + (-1/2 + lam/2) = 0
        scheme = catalog_scheme("lax_wendroff")
        total = LP_ZERO
        for _, w in scheme.stencil:
            total = total + w
        assert not total

    def test_every_entry_consistent_exactly(self):
        for scheme in builtin_catalog():
            total = LP_ZERO
            for _, w in scheme.stencil:
                total = total + w
            assert not total

    def test_unknown_name(self):
        with pytest.raises(SchemeError):
            catalog_scheme("nope")

    def test_unknown_name_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(SchemeError, match="unknown catalog scheme 'nope'"):
                catalog_scheme("nope")

    def test_lookup_shares_one_frozen_value(self):
        scheme = catalog_scheme("heat_centered")
        assert scheme is catalog_scheme("heat_centered")
        assert builtin_catalog()[0] is scheme
        assert scheme.symbol is catalog_scheme("heat_centered").symbol
        with pytest.raises(dataclasses.FrozenInstanceError):
            scheme.name = "other"
