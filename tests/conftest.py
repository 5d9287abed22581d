from __future__ import annotations

from fractions import Fraction

import pytest

from modeq.exactalg import LambdaPoly
from modeq.schemes import catalog_scheme


def lp(*coeffs) -> LambdaPoly:
    """LambdaPoly from rational literals, e.g. lp("1/12", "-1/2")."""
    return LambdaPoly(tuple(Fraction(str(c)) for c in coeffs))


@pytest.fixture(scope="session")
def heat():
    return catalog_scheme("heat_centered")


@pytest.fixture(scope="session")
def upwind():
    return catalog_scheme("upwind_euler")


@pytest.fixture(scope="session")
def lax():
    return catalog_scheme("lax_wendroff")
