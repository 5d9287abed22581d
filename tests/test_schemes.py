from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import lp
from modeq.exactalg import LP_ZERO
from modeq.schemes import (
    SchemeConsistencyError,
    SchemeError,
    SchemeParseError,
    SchemeSpec,
    builtin_catalog,
    catalog_entry,
    catalog_scheme,
    parse_scheme,
    render_scheme,
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
        assert spec.weight(-1) == lp(1)
        assert spec.weight(0) == lp(-1)
        assert spec.pde_coeff(1) == 1
        assert spec == catalog_scheme("upwind_euler")

    def test_heat_file(self):
        spec = parse_scheme(HEAT_TEXT)
        assert spec == catalog_scheme("heat_centered")

    def test_lambda_dependent_stencil(self):
        spec = parse_scheme(LW_TEXT)
        assert spec == catalog_scheme("lax_wendroff")
        assert spec.weight(0) == lp(0, -1)

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
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(SchemeError) as exc:
            parse_scheme(text)
        assert fragment in str(exc.value)

    def test_polynomial_grammar(self):
        text = (
            "scheme a\nq = 1\npde A[1] = 1\n"
            "stencil B[0] = -2*lambda^2 + lambda - 1/3\n"
            "stencil B[1] = 2*lambda^2 - lambda + 1/3\n"
        )
        spec = parse_scheme(text)
        assert spec.weight(0) == lp("-1/3", 1, -2)


class TestRoundTrip:
    @pytest.mark.parametrize("text", [UPWIND_TEXT, HEAT_TEXT, LW_TEXT])
    def test_render_reparses_identically(self, text):
        spec = parse_scheme(text)
        assert parse_scheme(render_scheme(spec)) == spec

    def test_catalog_round_trips(self):
        for entry in builtin_catalog():
            rendered = render_scheme(entry.scheme)
            assert parse_scheme(rendered) == entry.scheme


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

    def test_widths(self, lax):
        assert lax.n_left == 1 and lax.n_right == 1


class TestCatalog:
    def test_heat_entry(self):
        entry = catalog_entry("heat_centered")
        assert entry.scheme.q == 2
        assert entry.expected.stability_bound == Fraction(1, 2)
        assert entry.expected.contraction_bound == Fraction(1, 4)

    def test_upwind_entry(self):
        entry = catalog_entry("upwind_euler")
        assert entry.scheme.q == 1
        assert entry.expected.stability_bound == Fraction(1)
        assert entry.expected.contraction_bound == Fraction(1, 2)

    def test_lax_wendroff_sums_to_zero(self):
        # hand check: (1/2 + lam/2) + (-lam) + (-1/2 + lam/2) = 0
        scheme = catalog_scheme("lax_wendroff")
        total = LP_ZERO
        for _, w in scheme.stencil:
            total = total + w
        assert total.is_zero

    def test_every_entry_consistent_exactly(self):
        for entry in builtin_catalog():
            total = LP_ZERO
            for _, w in entry.scheme.stencil:
                total = total + w
            assert total.is_zero

    def test_unknown_name(self):
        with pytest.raises(SchemeError):
            catalog_scheme("nope")
