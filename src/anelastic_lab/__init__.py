"""Numerical laboratory for a gravitationally stratified low-Mach limit.

The package evolves the scaled compressible system, its anelastic limit
and the intervening variable-coefficient acoustic waves on a truncated
radial (or low-resolution cartesian) grid, and measures the estimates
that drive the limit: relative energy, uniform bounds, local pressure
decay, dispersive decay and the convergence norms themselves.
"""

from .grids import EssResCutoff, Grid, integrate, lp_norm
from .hydrostatics import (
    PotentialSpec,
    StaticProfile,
    build_profile,
    flatness_report,
    static_residual,
)
from .params import ScalingParams

__all__ = [
    "EssResCutoff",
    "Grid",
    "PotentialSpec",
    "ScalingParams",
    "StaticProfile",
    "build_profile",
    "flatness_report",
    "integrate",
    "lp_norm",
    "static_residual",
]
