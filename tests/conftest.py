from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, strategies as st

from modeq.exactalg import LP_ZERO, LambdaPoly
from modeq.schemes import SchemeSpec, catalog_scheme


# weights up to lambda^16, the parser's cap: c_64 has lambda-degree 1023
LAM16 = ("scheme lam16\nq = 1\npde A[1] = 1\n"
         "stencil B[-1] = 1/3 + 2/7*lambda^16 + 5/11*lambda^15\n"
         "stencil B[0] = -2/3 - 4/7*lambda^16 + 1/13*lambda^3\n"
         "stencil B[1] = 1/3 + 2/7*lambda^16 - 5/11*lambda^15 - 1/13*lambda^3\n")


def lp(*coeffs) -> LambdaPoly:
    """LambdaPoly from rational literals, e.g. lp("1/12", "-1/2")."""
    return LambdaPoly(tuple(Fraction(str(c)) for c in coeffs))


@st.composite
def random_stencils(draw, width: int = 2):
    """A consistent real-rational stencil on offsets -width..width with
    q = 1 or 2 and weights that are constant or linear in lambda."""
    q = draw(st.sampled_from([1, 2]))
    degree = draw(st.sampled_from([0, 1]))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    offsets = sorted(draw(st.sets(st.integers(-width, width), min_size=2, max_size=5)))
    weights = {p: LambdaPoly([draw(rationals) for _ in range(degree + 1)]) for p in offsets[1:]}
    weights[offsets[0]] = -sum(weights.values(), LP_ZERO)
    assume(any(weights.values()))
    return SchemeSpec(name="random", q=q, stencil=weights, pde={q: Fraction(1)})


@pytest.fixture(scope="session")
def heat():
    return catalog_scheme("heat_centered")


@pytest.fixture(scope="session")
def upwind():
    return catalog_scheme("upwind_euler")


@pytest.fixture(scope="session")
def lax():
    return catalog_scheme("lax_wendroff")


@pytest.fixture
def rounded_values(monkeypatch):
    """The lambda of every value that ``spectra`` rounds, one entry per
    value in the rounding kernel's order: the kernel, wrapped to count."""
    import modeq.spectra

    float_rows, seen = modeq.spectra.float_rows, []

    def counted(polys, lams):
        for lam, row in zip(lams, float_rows(polys, lams)):
            seen.extend([lam] * len(row))
            yield row

    monkeypatch.setattr(modeq.spectra, "float_rows", counted)
    return seen
