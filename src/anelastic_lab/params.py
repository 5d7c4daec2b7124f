"""Scaling parameters shared by every scaled equation in the laboratory."""

from __future__ import annotations

from dataclasses import dataclass, replace


class ParameterError(ValueError):
    """A scaling parameter lies outside its admissible range."""


@dataclass(frozen=True)
class ScalingParams:
    """The scaling quintuple plus the run horizon.

    eps is the Mach/Froude scale (both scale like eps**2 in the momentum
    balance), alpha the Reynolds exponent (Reynolds ~ eps**-alpha), gamma
    the adiabatic exponent, lam the bulk-viscosity coefficient and rho_bar
    the far-field density.  horizon is the physical time horizon T.  The
    shear amplitude mu defaults to one (the scaled stress carries unit
    shear viscosity); mu = 0 switches the viscous stress off for inviscid
    oracles such as the linear wave-speed check.
    """

    eps: float = 0.2
    alpha: float = 1.0
    gamma: float = 5.0 / 3.0
    lam: float = 0.0
    mu: float = 1.0
    rho_bar: float = 1.0
    horizon: float = 2.5

    def __post_init__(self) -> None:
        problems = []
        if not self.eps > 0.0:
            problems.append(f"eps must be positive, got {self.eps}")
        if not self.gamma > 1.5:
            problems.append(f"gamma must exceed 3/2, got {self.gamma}")
        if not 0.0 < self.alpha < 4.0 / 3.0:
            problems.append(f"alpha must lie in (0, 4/3), got {self.alpha}")
        if self.lam < 0.0:
            problems.append(f"lam must be nonnegative, got {self.lam}")
        if self.mu < 0.0:
            problems.append(f"mu must be nonnegative, got {self.mu}")
        if not self.rho_bar > 0.0:
            problems.append(f"rho_bar must be positive, got {self.rho_bar}")
        if not self.horizon > 0.0:
            problems.append(f"horizon must be positive, got {self.horizon}")
        if problems:
            raise ParameterError("; ".join(problems))

    def with_eps(self, eps: float) -> "ScalingParams":
        return replace(self, eps=eps)
