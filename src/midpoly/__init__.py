"""Midpoint iteration on planar polygons.

Exact rational geometry for the iteration itself (midpoints, shoelace
area and moment, centroids), discrete Fourier mode analysis of the map
in double precision, and zero-tolerance verification that the centroids
of an iterated hexagon, excluding possibly the first, share one fixed
line while every other vertex count fails.
"""

from .errors import (
    AreaZeroError,
    DegenerateDenominatorError,
    ExactModeError,
    InsufficientDataError,
    PolygonDocumentError,
    UnsupportedSizeError,
    WrongSizeError,
)
from .exact_poly import (
    PlanePoint,
    Polygon,
    centroid,
    iterate,
    midpoint_map,
    point,
    project_out_modes_0_3,
    signed_area,
    z_moment,
)
from .spectral import (
    FloatPolygon,
    ModeVector,
    advance_modes,
    area_from_modes,
    closed_form_centroid,
    decompose,
    eigenvalue,
    mode_basis,
    root_of_unity,
    to_float_polygon,
    z_from_modes,
)
from .verify import (
    ColinearityReport,
    ConvergenceDiagnostics,
    CounterexampleReport,
    FuzzConfig,
    FuzzSummary,
    centroid_sequence,
    convergence_diagnostics,
    counterexample_modes,
    diagnostics_from_report,
    fuzz_hexagons,
    verify_hexagon_theorem,
    verify_proposition,
    verify_small_m_invariance,
    verify_z_scaling,
)

__version__ = "0.1.0"

__all__ = [
    "AreaZeroError",
    "ColinearityReport",
    "ConvergenceDiagnostics",
    "CounterexampleReport",
    "DegenerateDenominatorError",
    "ExactModeError",
    "FloatPolygon",
    "FuzzConfig",
    "FuzzSummary",
    "InsufficientDataError",
    "ModeVector",
    "PlanePoint",
    "Polygon",
    "PolygonDocumentError",
    "UnsupportedSizeError",
    "WrongSizeError",
    "advance_modes",
    "area_from_modes",
    "centroid",
    "centroid_sequence",
    "closed_form_centroid",
    "convergence_diagnostics",
    "counterexample_modes",
    "decompose",
    "diagnostics_from_report",
    "eigenvalue",
    "fuzz_hexagons",
    "iterate",
    "midpoint_map",
    "mode_basis",
    "point",
    "project_out_modes_0_3",
    "root_of_unity",
    "signed_area",
    "to_float_polygon",
    "verify_hexagon_theorem",
    "verify_proposition",
    "verify_small_m_invariance",
    "verify_z_scaling",
    "z_from_modes",
    "z_moment",
]
