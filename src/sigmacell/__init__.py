"""Homogenized anisotropic surface tension from periodic double-well cell problems."""

from .cell import (
    CellGrid,
    CellResult,
    CellState,
    SigmaEstimate,
    SolverOptions,
    cell_model,
    estimate_g,
    estimate_sigma,
    minimize_cell,
)
from .gamma import (
    DomainSpec,
    PhaseField,
    build_recovery,
    gamma_gap,
    minimize_diffuse,
)
from .lattice import (
    RationalRotation,
    RationalUnitVector,
    check_periodicity,
    lattice_period,
    random_rational_directions,
    rationalize_direction,
    rotation_from_direction,
)
from .potential import (
    GrowthCertificate,
    Potential,
    WellPair,
    checkerboard,
    homogeneous_quartic,
    piecewise_cells,
    smooth_modulated,
    striped,
    validate_hypotheses,
)
from .profile import Mollifier, TransitionProfile, step_field
from .surface import (
    PolyFacet,
    PolyInterface,
    SigmaTable,
    convexity_check,
    interface_energy,
    polygonal_approximation,
)
from .tiling import build_competitor, plan_tiling, subadditivity_gap

__version__ = "0.1.0"
