"""Geodesics of an unbalanced optimal-transport distance.

The solver computes interpolating paths between two nonnegative planar
densities for a dynamic transport energy whose continuity equation
carries a source term; the source is penalized by the squared
L2-in-time norm of a linear-growth spatial cost.  Discretization uses
space-time P0/P1 finite elements on a tetrahedral mesh, minimization
uses Douglas-Rachford splitting.
"""

__version__ = "0.1.0"

from .assembly import (
    BoundaryData,
    SparseSystem,
    assemble_system,
    cg_solve,
    project_continuity,
)
from .diagnostics import (
    EnergyBreakdown,
    TimeProfile,
    energy_breakdown,
    mass_balance_defect,
    time_profiles,
)
from .io import load_density, write_outputs
from .mesh import SpaceTimeMesh, State
from .prox import (
    SourceModel,
    prox_source_l1l1,
    prox_source_l2huber,
    prox_source_l2l2,
    prox_transport,
)
from .solver import GeodesicResult, IterationStats, SolverConfig, initialize, solve

__all__ = [
    "BoundaryData",
    "EnergyBreakdown",
    "GeodesicResult",
    "IterationStats",
    "SolverConfig",
    "SourceModel",
    "SpaceTimeMesh",
    "SparseSystem",
    "State",
    "TimeProfile",
    "assemble_system",
    "cg_solve",
    "energy_breakdown",
    "initialize",
    "load_density",
    "mass_balance_defect",
    "project_continuity",
    "prox_source_l1l1",
    "prox_source_l2huber",
    "prox_source_l2l2",
    "prox_transport",
    "solve",
    "time_profiles",
    "write_outputs",
]
