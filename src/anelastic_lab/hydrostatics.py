"""Long-range potential and the hydrostatic density profile.

The static balance grad(rho0**gamma) = rho0 grad(F) is solved in closed
form.  With p(z) = z**gamma and Q'(z) = p'(z)/z, the balance integrates to
Q(rho0) = F + Q(rho_bar), and Q is invertible analytically:

    rho0 = ((gamma - 1)/gamma * F + rho_bar**(gamma - 1)) ** (1/(gamma - 1)).

The default potential F = c_f / sqrt(a**2 + |x|**2) is smooth, positive,
and has exactly Coulomb-like 1/|x| far-field behaviour, which gives the
decay of |x|**2 |grad F| and |x|**3 |hess F| that the asymptotic-flatness
checks measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import DomainError, EssResCutoff, Grid, harmonic_faces, radial_gradient, radial_strain
from .helmholtz import CartesianWeightedLaplacian, RadialWeightedLaplacian
from .params import ScalingParams


@dataclass(frozen=True)
class PotentialSpec:
    """F(x) = c_f / sqrt(a**2 + |x|**2); c_f is the amplitude, a the core scale."""

    c_f: float = 1.0
    a: float = 1.0

    def value(self, r: np.ndarray) -> np.ndarray:
        return self.c_f / np.sqrt(self.a**2 + np.asarray(r, dtype=float) ** 2)

    def dr(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return -self.c_f * r / (self.a**2 + r * r) ** 1.5

    def d2r(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self.c_f * (2.0 * r * r - self.a**2) / (self.a**2 + r * r) ** 2.5

    def envelope_constants(self, r_inner: float) -> tuple[float, float]:
        """(F_low, F_up) with F_low/|x| <= F <= F_up/|x| for |x| > r_inner."""
        f_low = self.c_f * r_inner / np.sqrt(self.a**2 + r_inner**2)
        return float(f_low), float(self.c_f)


@dataclass(frozen=True)
class StaticProfile:
    """Static density rho0, potential F and the derived coefficient fields."""

    grid: Grid
    gamma: float
    rho_bar: float
    potential: PotentialSpec
    F: np.ndarray
    rho0: np.ndarray

    @cached_property
    def dp(self) -> np.ndarray:
        """p'(rho0) = gamma rho0**(gamma-1)."""
        return self.gamma * self.rho0 ** (self.gamma - 1.0)

    @cached_property
    def inner_weight(self) -> np.ndarray:
        """rho0 / p'(rho0), the density of the acoustic scalar product."""
        return self.rho0 / self.dp

    @cached_property
    def grad_rho0(self) -> np.ndarray:
        """Radial d rho0 / dr via the chain rule rho0' = F' / Q'(rho0)."""
        if not self.grid.radial:
            raise DomainError("grad_rho0 is computed in radial mode only")
        return self.potential.dr(self.grid.centers) * self.rho0 ** (2.0 - self.gamma) / self.gamma

    @cached_property
    def rho_min(self) -> float:
        return float(np.min(self.rho0))

    @cached_property
    def rho_max(self) -> float:
        return float(np.max(self.rho0))

    @cached_property
    def cutoff(self) -> EssResCutoff:
        """Essential band [rho_min / 2, 2 rho_max], shoulders a tenth of rho_min / 2 wide."""
        y_lo = 0.5 * self.rho_min
        return EssResCutoff(y_lo=y_lo, y_hi=2.0 * self.rho_max, width=0.1 * y_lo)

    @cached_property
    def face_rho0(self) -> np.ndarray:
        """rho0 at radial faces by harmonic means (boundary faces copy cells)."""
        if not self.grid.radial:
            raise DomainError("face_rho0 is a radial-mode concept")
        return harmonic_faces(self.rho0)

    @cached_property
    def face_grad_F(self) -> tuple[np.ndarray, ...]:
        """dF on the faces of each field axis, 0 on its boundary faces (the anelastic buoyancy)."""
        F = self.F
        return tuple(
            np.diff(F, axis=ax, prepend=np.take(F, [0], ax), append=np.take(F, [-1], ax))
            / self.grid.h
            for ax in self.grid.field_axes
        )

    @cached_property
    def laplacian(self) -> RadialWeightedLaplacian | CartesianWeightedLaplacian:
        """The weighted Laplacian div(rho0 grad .) of the geometry, built once.

        The radial operator carries the acoustic operator's coefficients and
        the projection's face gradient; the cartesian one is the projection's.
        """
        if self.grid.radial:
            return RadialWeightedLaplacian(self.grid, self.face_rho0)
        return CartesianWeightedLaplacian(self.grid, self.rho0)

    def rho0_at(self, r: np.ndarray) -> np.ndarray:
        """Evaluate the closed-form profile at arbitrary radii (ghost cells)."""
        return _profile_closed_form(
            self.potential.value(r), self.gamma, self.rho_bar
        )


def _profile_closed_form(F: np.ndarray, gamma: float, rho_bar: float) -> np.ndarray:
    g1 = gamma - 1.0
    return (g1 / gamma * F + rho_bar**g1) ** (1.0 / g1)


def build_profile(spec: PotentialSpec, params: ScalingParams, grid: Grid) -> StaticProfile:
    """Construct the static profile on the grid from the closed form."""
    F = spec.value(grid.radii)
    rho0 = _profile_closed_form(F, params.gamma, params.rho_bar)
    return StaticProfile(
        grid=grid,
        gamma=params.gamma,
        rho_bar=params.rho_bar,
        potential=spec,
        F=F,
        rho0=rho0,
    )


def constant_profile(params: ScalingParams, grid: Grid) -> StaticProfile:
    """Profile with F = 0 and rho0 = rho_bar (flat background)."""
    return build_profile(PotentialSpec(c_f=0.0, a=1.0), params, grid)


def static_residual(prof: StaticProfile) -> float:
    """Max norm of the centered-difference static balance defect.

    Both grad(rho0**gamma) and grad(F) use the same centered stencil; the
    outermost cell is excluded because its one-sided difference would
    pollute the measured convergence order.
    """
    if not prof.grid.radial:
        raise DomainError("static_residual is measured in radial mode")
    p0 = prof.rho0**prof.gamma
    dp0 = radial_gradient(p0, prof.grid, parity="even")
    dF = radial_gradient(prof.F, prof.grid, parity="even")
    res = dp0 - prof.rho0 * dF
    return float(np.max(np.abs(res[:-1])))


@dataclass(frozen=True)
class FlatnessReport:
    """Grid maxima of the weighted decay quantities of F and the coefficients."""

    max_r2_grad_f: float
    max_r3_hess_f: float
    max_r2_grad_a_plus_b: float
    max_r3_hess_a_plus_grad_b: float
    envelope_low: float
    envelope_up: float

    @property
    def all_finite(self) -> bool:
        vals = (
            self.max_r2_grad_f,
            self.max_r3_hess_f,
            self.max_r2_grad_a_plus_b,
            self.max_r3_hess_a_plus_grad_b,
        )
        return all(np.isfinite(v) for v in vals)

    def text(self) -> str:
        lines = [
            f"max |x|^2 |grad F|            = {self.max_r2_grad_f:.17g}",
            f"max |x|^3 |hess F|            = {self.max_r3_hess_f:.17g}",
            f"max |x|^2 (|grad A| + |B|)    = {self.max_r2_grad_a_plus_b:.17g}",
            f"max |x|^3 (|hess A| + |gr B|) = {self.max_r3_hess_a_plus_grad_b:.17g}",
            f"envelope F_low, F_up          = {self.envelope_low:.17g}, {self.envelope_up:.17g}",
            f"all finite                    = {self.all_finite}",
        ]
        return "\n".join(lines)


def flatness_report(prof: StaticProfile) -> FlatnessReport:
    """Measure the asymptotic-flatness quantities of F, A = p'(rho0) and B.

    B = rho0 Q''(rho0) grad rho0 is the drift coefficient of the acoustic
    operator written in divergence form.  Hess A = grad(A' e_r) and grad B are
    the `radial_strain`s of radial vectors; F uses its closed form.
    """
    grid, spec, gamma = prof.grid, prof.potential, prof.gamma
    if not grid.radial:
        raise DomainError("flatness_report runs in radial mode")
    r = grid.centers

    dF = spec.dr(r)
    d2F = spec.d2r(r)
    hess_f = np.sqrt(d2F**2 + 2.0 * (dF / r) ** 2)

    A = prof.dp
    B = prof.rho0 * gamma * (gamma - 2.0) * prof.rho0 ** (gamma - 3.0) * prof.grad_rho0

    dA = radial_gradient(A, grid, parity="even")
    d2A, dA_r = radial_strain(dA, grid)
    hess_a = np.sqrt(d2A**2 + 2.0 * dA_r**2)
    dB, B_r = radial_strain(B, grid)
    grad_b = np.sqrt(dB**2 + 2.0 * B_r**2)

    # second differences at the two outermost cells are one-sided; skip them
    sl = slice(0, grid.n - 2)
    envelope_low, envelope_up = spec.envelope_constants(spec.a)
    return FlatnessReport(
        max_r2_grad_f=float(np.max(r * r * np.abs(dF))),
        max_r3_hess_f=float(np.max(r**3 * hess_f)),
        max_r2_grad_a_plus_b=float(np.max((r * r * (np.abs(dA) + np.abs(B)))[sl])),
        max_r3_hess_a_plus_grad_b=float(np.max((r**3 * (hess_a + grad_b))[sl])),
        envelope_low=envelope_low,
        envelope_up=envelope_up,
    )
