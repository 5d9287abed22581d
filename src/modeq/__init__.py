"""Modified-equation and von Neumann stability analysis for explicit linear
scalar finite-difference schemes, in exact rational arithmetic.

The package derives a scheme's modified equation symbolically (two
independent engines), evaluates the one-step symbol numerically, scans
stability and series-contraction regions over the mesh ratio, estimates the
convergence radius of the Fourier generator series, and validates the whole
chain against the scheme run on an actual periodic grid.
"""

from .exactalg import (
    InexactDivisionError,
    LambdaPoly,
    SeriesPreconditionError,
    ThetaSeries,
    series_exp,
    series_log,
)
from .schemes import (
    CatalogEntry,
    GoldenData,
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
from .derivation import (
    ConsistencyReport,
    CrossCheckError,
    ModifiedEq,
    consistency_report,
    derive_elimination,
    derive_log,
    symbol_series,
)
from .spectra import (
    CertificateRefusal,
    FigureTable,
    RegionReport,
    StabilityCertificate,
    SymmetryReport,
    TruncationEval,
    eval_symbol,
    figure_data,
    truncation_certificate,
    region_scan,
    truncated_amplification,
    upwind_symmetry_check,
)
from .radius import (
    RadiusEstimate,
    ZeroSearchError,
    bernoulli,
    euler_poly_at_zero,
    heat_closed_form_radius,
    radius_root_test,
    radius_zero_search,
)
from .empirics import (
    EvolutionTable,
    evolve_and_compare,
    measured_amplification,
    step,
)

__version__ = "0.1.0"
