"""Modified-equation and von Neumann stability analysis for explicit linear
scalar finite-difference schemes, in exact rational arithmetic.

The package reads schemes in a line-oriented text format; the builtin
catalog is three texts in it.  It derives a scheme's modified equation
symbolically, from the principal logarithm of the symbol's series (a tuple
of lambda-polynomial coefficients), and proves it by (lambda G)' S = S' on
request.  It evaluates the one-step symbol numerically, scans stability and
series-contraction regions over the mesh ratio, estimates the convergence
radius of the Fourier generator series, and validates the whole chain
against the scheme run on an actual periodic grid.

The exact layers, with every proof, load with the package.  The names of
the numeric layers (``spectra``, ``radius``, ``empirics``) load on first
access: those import numpy and mpmath, most of a cold start, never needed.
"""

from importlib import import_module as _import_module

from .exactalg import (
    InexactDivisionError,
    LambdaPoly,
    SeriesPreconditionError,
    series_log,
)
from .schemes import (
    SchemeConsistencyError,
    SchemeError,
    SchemeParseError,
    SchemeSpec,
    builtin_catalog,
    catalog_scheme,
    parse_scheme,
)
from .derivation import (
    CrossCheckError,
    ModifiedEq,
    consistency_report,
    derive_log,
    symbol_series,
    upwind_symmetry_check,
)

# name -> the numeric module that defines it, imported on first access (PEP 562)
_LAZY = {name: module for module, names in (
    ("spectra", "CertificateRefusal RegionReport eval_symbol figure_data"
                " truncation_certificate region_scan"),
    ("radius", "ZeroSearchError heat_closed_form_radius radius_root_test radius_zero_search"),
    ("empirics", "evolve_and_compare step"),
) for name in names.split()}
# the classes and functions imported above, and the lazy names
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and callable(value)] + list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
