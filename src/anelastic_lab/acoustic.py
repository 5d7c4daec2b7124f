"""Acoustic system on the static profile and its spectral machinery.

The generator A: v -> -(p'(rho0)/rho0) div(rho0 grad v) is nonnegative and
self-adjoint in the scalar product with density rho0/p'(rho0).  At desk
scale the operator is diagonalized exactly: with m the vector of weighted
cell masses, B = diag(sqrt(m)) A diag(1/sqrt(m)) is symmetric, and its
eigenvectors transform back to an A-eigenbasis orthonormal in the weighted
product.  Frequency localization, data regularization, wave propagation
and the decay and space-time norm measurements all run through this basis.

The wave pair (s, Phi) evolves by

    eps d/dt s + div(rho0 grad Phi) = 0,
    eps d/dt Phi + (p'(rho0)/rho0) s = 0,

so with sigma = (p'(rho0)/rho0) s both Phi and sigma satisfy the A-wave
equation and the propagator is exact mode by mode.  Evolution runs on a
Dirichlet-truncated ball; measurements quote results only up to the
domain-crossing time to keep boundary reflections out of the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import DomainError, Grid, lp_norm, radial_gradient, smoothstep
from .hydrostatics import StaticProfile

EIGEN_EAGER_LIMIT = 4096
ADMISSIBILITY_TOL = 1.0e-12


class EigensolverError(RuntimeError):
    """Dense symmetric eigendecomposition failed."""


@dataclass
class AcousticOperator:
    """Diagonalized acoustic generator on a radial grid."""

    grid: Grid
    prof: StaticProfile
    evals: np.ndarray
    evecs: np.ndarray  # columns orthonormal in the weighted product
    masses: np.ndarray

    @cached_property
    def omegas(self) -> np.ndarray:
        return np.sqrt(np.clip(self.evals, 0.0, None))

    def coeffs(self, h: np.ndarray) -> np.ndarray:
        self.grid.check_aligned(h)
        return self.evecs.T @ (self.masses * h)

    def reconstruct(self, c: np.ndarray) -> np.ndarray:
        return self.evecs @ c

    def apply(self, h: np.ndarray) -> np.ndarray:
        return self.reconstruct(self.evals * self.coeffs(h))

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(u * v * self.masses))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


def assemble_operator(prof: StaticProfile, grid: Grid | None = None) -> AcousticOperator:
    """Assemble and eagerly diagonalize the acoustic operator.

    Restricted to radial grids with n <= 4096; the dense symmetric solve
    is the cost ceiling of the whole laboratory.
    """
    from .helmholtz import RadialWeightedLaplacian

    grid = grid or prof.grid
    if not grid.radial:
        raise DomainError("the acoustic operator is assembled in radial mode")
    if grid.n > EIGEN_EAGER_LIMIT:
        raise DomainError(
            f"eager eigendecomposition is limited to n <= {EIGEN_EAGER_LIMIT}"
        )
    lap = RadialWeightedLaplacian(grid, prof.face_rho0)
    neg_l = -lap.dense()
    a_mat = (prof.dp / prof.rho0)[:, None] * neg_l
    masses = grid.weights * prof.inner_weight
    s = np.sqrt(masses)
    b = (s[:, None] * a_mat) / s[None, :]
    b = 0.5 * (b + b.T)
    try:
        evals, vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise EigensolverError(f"eigh failed: {exc}") from exc
    evecs = vecs / s[:, None]
    return AcousticOperator(grid=grid, prof=prof, evals=evals, evecs=evecs, masses=masses)


@dataclass(frozen=True)
class FrequencyWindow:
    """Even spectral window in z = sqrt(lambda).

    Equals one on [delta, 1/delta], vanishes outside [delta/2, 2/delta],
    with quintic smoothstep shoulders.
    """

    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")

    def value(self, z: np.ndarray) -> np.ndarray:
        z = np.abs(np.asarray(z, dtype=float))
        d = self.delta
        rise = smoothstep((z - 0.5 * d) / (0.5 * d))
        fall = smoothstep((2.0 / d - z) / (1.0 / d))
        return rise * fall

    __call__ = value

    @property
    def plateau(self) -> tuple[float, float]:
        return (self.delta, 1.0 / self.delta)

    @property
    def support(self) -> tuple[float, float]:
        return (0.5 * self.delta, 2.0 / self.delta)


def functional_calculus(op: AcousticOperator, window, h: np.ndarray) -> np.ndarray:
    """Apply G(sqrt(A)) to h through the eigenbasis.

    window may be a FrequencyWindow, any callable of sqrt(lambda), or a
    plain number (constant calculus).
    """
    if callable(window):
        g = np.asarray(window(op.omegas), dtype=float)
    else:
        g = np.full_like(op.evals, float(window))
    return op.reconstruct(g * op.coeffs(h))


def spatial_cutoff(delta: float, grid: Grid) -> np.ndarray:
    """psi_delta: one inside |x| < 1/delta, zero beyond 2/delta."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return smoothstep((2.0 / delta - grid.radii) / (1.0 / delta))


def regularize_data(
    op: AcousticOperator,
    rho1: np.ndarray,
    phi0: np.ndarray,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Spatially cut off and frequency-localize acoustic initial data.

    Returns (s0_delta, phi0_delta); the density perturbation is conjugated
    by rho0/p'(rho0) around the localization so that the windowed object is
    the wave variable sigma.
    """
    grid, prof = op.grid, op.prof
    grid.check_aligned(rho1, phi0)
    window = FrequencyWindow(delta)
    psi = spatial_cutoff(delta, grid)
    sigma_in = (prof.dp / prof.rho0) * rho1
    s0 = prof.inner_weight * functional_calculus(op, window, psi * sigma_in)
    phi0_d = functional_calculus(op, window, psi * phi0)
    return s0, phi0_d


@dataclass
class AcousticState:
    """Density perturbation s and velocity potential Phi at one time."""

    s: np.ndarray
    phi: np.ndarray
    t: float = 0.0


def acoustic_energy(op: AcousticOperator, s: np.ndarray, phi: np.ndarray) -> float:
    """E_ac = 1/2 (rho0 |grad Phi|^2 + p'(rho0)/rho0 s^2) integrated.

    Evaluated spectrally, which is the exact discrete Dirichlet energy of
    the flux-form operator.
    """
    sigma = (op.prof.dp / op.prof.rho0) * s
    c = op.coeffs(phi)
    sc = op.coeffs(sigma)
    lam = np.clip(op.evals, 0.0, None)
    return float(0.5 * (np.sum(lam * c * c) + np.sum(sc * sc)))


@dataclass
class SpectralWaveSolution:
    """Closed-form evolution of the acoustic pair in the eigenbasis."""

    op: AcousticOperator
    eps: float
    phi_coeffs0: np.ndarray
    sigma_coeffs0: np.ndarray

    _STATIC_CUT = 1.0e-12

    def _phase(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        w = self.op.omegas
        th = w * (t / self.eps)
        return np.cos(th), np.sin(th)

    def phi_coeffs(self, t: float) -> np.ndarray:
        cos, sin = self._phase(t)
        w = self.op.omegas
        out = self.phi_coeffs0 * cos
        small = w < self._STATIC_CUT
        ws = np.where(small, 1.0, w)
        out -= self.sigma_coeffs0 * np.where(small, t / self.eps, sin / ws)
        return out

    def sigma_coeffs(self, t: float) -> np.ndarray:
        cos, sin = self._phase(t)
        return self.sigma_coeffs0 * cos + self.op.omegas * self.phi_coeffs0 * sin

    def phi(self, t: float) -> np.ndarray:
        return self.op.reconstruct(self.phi_coeffs(t))

    def sigma(self, t: float) -> np.ndarray:
        return self.op.reconstruct(self.sigma_coeffs(t))

    def s(self, t: float) -> np.ndarray:
        return self.op.prof.inner_weight * self.sigma(t)

    def grad_phi(self, t: float) -> np.ndarray:
        return radial_gradient(self.phi(t), self.op.grid, parity="even")

    def dt_grad_phi(self, t: float) -> np.ndarray:
        """Analytic d/dt grad Phi = -(1/eps) grad sigma."""
        return -radial_gradient(self.sigma(t), self.op.grid, parity="even") / self.eps

    def div_rho_grad_phi(self, t: float) -> np.ndarray:
        """div(rho0 grad Phi) = -(rho0/p'(rho0)) A Phi, spectrally exact."""
        a_phi = self.op.reconstruct(self.op.evals * self.phi_coeffs(t))
        return -self.op.prof.inner_weight * a_phi

    def energy(self, t: float) -> float:
        c = self.phi_coeffs(t)
        sc = self.sigma_coeffs(t)
        lam = np.clip(self.op.evals, 0.0, None)
        return float(0.5 * (np.sum(lam * c * c) + np.sum(sc * sc)))

    def state(self, t: float) -> AcousticState:
        return AcousticState(s=self.s(t), phi=self.phi(t), t=t)


def spectral_solution(
    op: AcousticOperator, init: AcousticState, eps: float
) -> SpectralWaveSolution:
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    sigma0 = (op.prof.dp / op.prof.rho0) * init.s
    return SpectralWaveSolution(
        op=op,
        eps=eps,
        phi_coeffs0=op.coeffs(init.phi),
        sigma_coeffs0=op.coeffs(sigma0),
    )


@dataclass
class AcousticTrajectory:
    times: np.ndarray
    states: list
    energies: np.ndarray


def evolve_acoustic(
    init: AcousticState,
    op: AcousticOperator,
    eps: float,
    horizon: float,
    n_samples: int = 129,
) -> AcousticTrajectory:
    """Evolve the acoustic pair spectrally and sample it on a uniform time mesh."""
    times = np.linspace(0.0, horizon, n_samples)
    sol = spectral_solution(op, init, eps)
    states = [sol.state(t) for t in times]
    energies = np.array([sol.energy(t) for t in times])
    return AcousticTrajectory(times=times, states=states, energies=energies)


def crossing_time(prof: StaticProfile, grid: Grid) -> float:
    """Sponge-crossing time R_sp / sqrt(gamma rho_bar**(gamma-1))."""
    c_far = np.sqrt(prof.gamma * prof.rho_bar ** (prof.gamma - 1.0))
    return grid.r_sponge / float(c_far)


def _windowed_modes(op: AcousticOperator, window, h: np.ndarray, floor: float = 1.0e-13):
    g = np.asarray(window(op.omegas), dtype=float) if callable(window) else np.full_like(
        op.evals, float(window)
    )
    active = g > floor
    coeffs = g[active] * op.coeffs(h)[active]
    return op.evecs[:, active], op.omegas[active], coeffs


def _time_mesh(T: float, omega_max: float, points_per_period: int) -> np.ndarray:
    if omega_max <= 0.0:
        return np.linspace(0.0, T, 9)
    dt = (2.0 * np.pi / omega_max) / points_per_period
    n = max(int(np.ceil(T / dt)) + 1, 9)
    return np.linspace(0.0, T, n)


@dataclass
class DecayMeasurement:
    value: float
    times: np.ndarray
    series: np.ndarray


def measure_local_decay(
    op: AcousticOperator,
    window,
    ball_radius: float,
    h: np.ndarray,
    T: float,
    points_per_period: int = 24,
) -> DecayMeasurement:
    """Time integral of the squared localized norm of the windowed wave.

    Computes int_0^T || chi_ball G(sqrt(A)) exp(i sqrt(A) t) h ||_{L^2}^2 dt
    on the unscaled clock.  Saturation of the value in T is the truncated
    stand-in for global-in-time local energy decay.
    """
    grid = op.grid
    vecs, omegas, coeffs = _windowed_modes(op, window, h)
    mask = grid.ball_mask(ball_radius)
    vecs_ball = vecs[mask, :]
    w_ball = grid.weights[mask]
    times = _time_mesh(T, float(omegas.max(initial=0.0)), points_per_period)
    series = np.empty(times.size)
    for j, t in enumerate(times):
        u = vecs_ball @ (coeffs * np.exp(1j * omegas * t))
        series[j] = float(np.sum(np.abs(u) ** 2 * w_ball))
    value = float(np.trapezoid(series, times))
    return DecayMeasurement(value=value, times=times, series=series)


@dataclass
class StrichartzMeasurement:
    value: float
    data_l2: float
    ratio: float
    times: np.ndarray
    series: np.ndarray


def admissible_pair(p: float, q: float) -> bool:
    return abs(1.0 / p + 3.0 / q - 0.5) <= ADMISSIBILITY_TOL


def measure_strichartz(
    op: AcousticOperator,
    window,
    h: np.ndarray,
    p: float,
    q: float,
    T: float,
    points_per_period: int = 24,
) -> StrichartzMeasurement:
    """Space-time L^p_t L^q_x norm of the windowed wave up to time T.

    The pair must satisfy the 3D wave admissibility 1/p + 3/q = 1/2; the
    spatial norm uses the radial 3D measure.  The value is reported next
    to the L^2 size of the data so their ratio estimates the constant of
    the frequency-localized estimate.
    """
    if not admissible_pair(p, q):
        raise DomainError(
            f"(p, q) = ({p}, {q}) violates 1/p + 3/q = 1/2; "
            f"defect {1.0 / p + 3.0 / q - 0.5:.3e}"
        )
    grid = op.grid
    vecs, omegas, coeffs = _windowed_modes(op, window, h)
    w = grid.weights
    times = _time_mesh(T, float(omegas.max(initial=0.0)), points_per_period)
    series = np.empty(times.size)
    for j, t in enumerate(times):
        u = vecs @ (coeffs * np.exp(1j * omegas * t))
        series[j] = float(np.sum(np.abs(u) ** q * w) ** (1.0 / q))
    value = float(np.trapezoid(series**p, times) ** (1.0 / p))
    data_l2 = lp_norm(h, 2.0, grid)
    ratio = value / data_l2 if data_l2 > 0.0 else 0.0
    return StrichartzMeasurement(
        value=value, data_l2=data_l2, ratio=ratio, times=times, series=series
    )


def dispersive_smallness(
    op: AcousticOperator,
    window,
    h: np.ndarray,
    ball_radius: float,
    T: float,
    eps: float,
    points_per_period: int = 24,
) -> float:
    """Time-averaged sup norm over a ball of the eps-rescaled windowed wave.

    (1/T) int_0^T || G(sqrt(A)) exp(i sqrt(A) t / eps) h ||_{L^inf(ball)} dt;
    the faster clock moves the wave out of the ball earlier, so the average
    shrinks with eps once the transit fits inside the horizon.
    """
    grid = op.grid
    vecs, omegas, coeffs = _windowed_modes(op, window, h)
    mask = grid.ball_mask(ball_radius)
    vecs_ball = vecs[mask, :]
    times = _time_mesh(T, float(omegas.max(initial=0.0)) / eps, points_per_period)
    series = np.empty(times.size)
    for j, t in enumerate(times):
        u = vecs_ball @ (coeffs * np.exp(1j * omegas * t / eps))
        series[j] = float(np.max(np.abs(u)))
    return float(np.trapezoid(series, times) / T)
