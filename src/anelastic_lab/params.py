"""Scaling parameters shared by every scaled equation in the laboratory."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ScalingParams:
    """The scaling quintuple plus the run horizon.

    eps is the Mach/Froude scale (both scale like eps**2 in the momentum
    balance), alpha the Reynolds exponent (Reynolds ~ eps**-alpha), gamma
    the adiabatic exponent, lam the bulk-viscosity coefficient and rho_bar
    the far-field density.  horizon is the physical time horizon T.  The
    shear amplitude mu defaults to one (the scaled stress carries unit
    shear viscosity); mu = 0 switches the viscous stress off for inviscid
    oracles such as the linear wave-speed check.  `configio` checks the
    fields' ranges when it loads the configuration.
    """

    eps: float = 0.2
    alpha: float = 1.0
    gamma: float = 5.0 / 3.0
    lam: float = 0.0
    mu: float = 1.0
    rho_bar: float = 1.0
    horizon: float = 2.5

    def with_eps(self, eps: float) -> "ScalingParams":
        return replace(self, eps=eps)
