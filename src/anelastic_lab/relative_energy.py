"""Relative energy, uniform-bound measurements, and the inequality audit.

The relative energy of a primitive state against a test pair (r, U) is

    E(rho, Theta, u | r, U) = int [ rho |u - U|^2 / 2
        + (H(rho Theta) - H'(r)(rho Theta - r) - H(r)) / eps^2 ],

with H(Z) = Z**gamma / (gamma - 1); convexity of H makes it a squared
distance.  The audit plugs in the ansatz r = rho0 + eps s, U = V + grad Phi
built from the acoustic solution and the limit velocity, evaluates both
sides of the relative energy inequality on the sampled trajectory and
reports the signed defect, which must stay below a budget calibrated to
the scheme's numerical dissipation.  Time derivatives of the acoustic
pieces are taken from the wave equations analytically, never by finite
differencing the samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustic import SpectralWaveSolution
from .grids import (
    DomainError,
    Grid,
    integrate,
    lp_norm,
    radial_divergence,
    radial_gradient,
)
from .params import ScalingParams
from .primitive import PrimitiveState, PrimitiveTrajectory, enthalpy


def h_bracket(q: np.ndarray, r: np.ndarray, gamma: float) -> np.ndarray:
    """H(q) - H'(r)(q - r) - H(r), the convexity remainder of H."""
    dh = gamma / (gamma - 1.0) * r ** (gamma - 1.0)
    return enthalpy(q, gamma) - dh * (q - r) - enthalpy(r, gamma)


def rel_energy(
    state: PrimitiveState,
    r_field: np.ndarray,
    u_test: np.ndarray,
    params: ScalingParams,
    grid: Grid,
) -> float:
    """Relative energy of a state against the test pair (r, U)."""
    grid.check_aligned(r_field, u_test)
    if np.any(r_field <= 0.0):
        raise DomainError("test density r must be strictly positive")
    kin = 0.5 * state.rho * (state.velocity - u_test) ** 2
    pot = h_bracket(state.q, r_field, params.gamma) / params.eps**2
    return integrate(kin + pot, grid)


def _velocity_rates(u: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample integrals of the radial velocity's squared deviatoric strain,
    squared divergence and |u|^2 + |grad u|^2, from one du/dr and one div u.

    The deviatoric strain is grad u + grad u^T - (2/3) div u I.  Squares and
    sums are formed in place, because with stacked samples every temporary
    is n_samples fields large.
    """
    du = radial_gradient(u, grid, parity="odd")
    d = radial_divergence(u, grid)
    div = integrate(d**2, grid)
    d *= 2.0 / 3.0
    t_r = 2.0 * du - d
    t_perp = 2.0 * u / grid.centers - d
    del d
    t_r **= 2
    t_perp **= 2
    t_r += 2.0 * t_perp
    del t_perp
    dev = integrate(t_r, grid)
    del t_r
    du **= 2
    du += 2.0 * (u / grid.centers) ** 2
    return dev, div, integrate(u * u + du, grid)


def stress_contraction(
    a: np.ndarray, b: np.ndarray, params: ScalingParams, grid: Grid
) -> np.ndarray:
    """S(grad a) : grad b for radial fields, including the bulk part."""
    da = radial_gradient(a, grid, parity="odd")
    db = radial_gradient(b, grid, parity="odd")
    diva = radial_divergence(a, grid)
    divb = radial_divergence(b, grid)
    r = grid.centers
    s_rr = params.mu * (2.0 * da - (2.0 / 3.0) * diva) + params.lam * diva
    s_tt = params.mu * (2.0 * a / r - (2.0 / 3.0) * diva) + params.lam * diva
    return s_rr * db + 2.0 * s_tt * (b / r)


@dataclass
class BoundsReport:
    """Measured left-hand sides and implied constants of the uniform bounds."""

    lhs: dict
    constants: dict

    def text(self) -> str:
        lines = ["bound   measured-lhs          implied-constant"]
        for key in sorted(self.lhs):
            lines.append(
                f"{key:6s}  {self.lhs[key]:.17g}  {self.constants[key]:.17g}"
            )
        return "\n".join(lines)


def uniform_bounds_report(traj: PrimitiveTrajectory) -> BoundsReport:
    """Measure the scaled a-priori bounds along a sampled trajectory.

    For each bound the implied constant divides out the stated eps power,
    so a sweep can check that the constants stay comparable across eps.
    Suprema and time integrals run over the stacked samples.
    """
    prof, params, grid = traj.prof, traj.params, traj.grid
    eps, alpha, gamma = params.eps, params.alpha, params.gamma
    s, times = traj.samples, traj.times
    # u and theta_dev are dropped once used, so chi's temporaries do not stack on them
    u = s.velocity
    sup_sqrho_u = float(np.max(np.sqrt(integrate(s.rho * u * u, grid))))
    dev_l2, div_l2, w12_l2 = (
        float(np.sqrt(np.trapezoid(rates, times))) for rates in _velocity_rates(u, grid)
    )
    del u
    theta_dev = (s.theta - 1.0) / eps**2
    sup_r5 = float(np.max(lp_norm(theta_dev, 1.0, grid) + lp_norm(theta_dev, np.inf, grid)))
    del theta_dev
    chi = prof.cutoff.chi(s.q)
    r6 = lp_norm(chi * ((s.rho - prof.rho0) / eps), 2.0, grid)
    r6 += lp_norm(chi * ((s.q - prof.rho0) / eps), 2.0, grid)
    sup_r6 = float(np.max(r6))
    res = 1.0 - chi
    r7 = integrate(res + np.abs(res * s.rho) ** gamma + np.abs(res * s.q) ** gamma, grid)
    sup_r7 = float(np.max(r7))

    lhs = {
        "r2": sup_sqrho_u,
        "r3": dev_l2,
        "r4": np.sqrt(params.lam) * div_l2,
        "r5": sup_r5,
        "r6": sup_r6,
        "r7": sup_r7,
        "r8": w12_l2,
    }
    constants = {
        "r2": sup_sqrho_u,
        "r3": eps ** (alpha / 2.0) * dev_l2,
        "r4": eps ** (alpha / 2.0) * np.sqrt(params.lam) * div_l2,
        "r5": sup_r5,
        "r6": sup_r6,
        "r7": sup_r7 / eps**2,
        "r8": eps ** (alpha / 2.0) * w12_l2,
    }
    return BoundsReport(lhs=lhs, constants=constants)


def constants_spread(reports: list[BoundsReport], key: str) -> float:
    """max/min ratio of one implied constant across a sweep; 1.0 if all zero."""
    vals = np.array([rep.constants[key] for rep in reports], dtype=float)
    if np.all(vals <= 1.0e-14):
        return 1.0
    lo = np.min(vals[vals > 1.0e-14])
    return float(np.max(vals) / lo)


def residual_pressure_value(traj: PrimitiveTrajectory, beta: float) -> float:
    """Space-time integral over the ball K of ([rho Theta]_res)**(gamma+beta).

    K is the ball of radius grid.default_compact_radius.
    """
    params, grid = traj.params, traj.grid
    if not 0.0 < beta < params.gamma / 3.0:
        raise DomainError(f"beta must lie in (0, gamma/3), got {beta}")
    mask = grid.ball_mask(grid.default_compact_radius)
    q = np.ascontiguousarray(traj.samples.q[:, mask])  # rows sum as single samples do
    res_q = (1.0 - traj.prof.cutoff.chi(q)) * q
    rates = np.sum(res_q ** (params.gamma + beta) * grid.weights[mask], axis=-1)
    return float(np.trapezoid(rates, traj.times))


SLOPE_FLOOR = 1.0e-30


def fit_eps_slope(eps_list, values) -> float:
    """Least-squares slope of log(value) against log(eps).

    Entries at or below SLOPE_FLOOR are dropped; if fewer than two positive
    values remain the decay is faster than any measured power and the
    slope is reported as +inf.
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    vals = np.asarray(values, dtype=float)
    keep = vals > SLOPE_FLOOR
    if np.count_nonzero(keep) < 2:
        return np.inf
    slope = np.polyfit(np.log(eps_arr[keep]), np.log(vals[keep]), 1)[0]
    return float(slope)


REI_GROUPS = ("velocity", "pressure", "background", "acoustic_source", "theta")


@dataclass
class REIReport:
    """Sampled audit of the relative energy inequality."""

    times: np.ndarray
    rel_energy: np.ndarray
    lhs: np.ndarray
    rhs_groups: dict
    defect: np.ndarray
    tolerance: float
    raw_max_defect: float  # of the raw shape against U
    raw_perturbed_max_defect: float  # of the raw shape against RAW_PERTURBATION * U

    @property
    def max_defect(self) -> float:
        return float(np.max(self.defect))

    @property
    def passed(self) -> bool:
        return bool(np.all(self.defect <= self.tolerance))

    def summary_text(self) -> str:
        parts = [
            f"rei-audit samples={self.times.size}",
            f"max-defect={self.max_defect:.17g}",
            f"tolerance={self.tolerance:.17g}",
            f"pass={self.passed}",
        ]
        for name, series in self.rhs_groups.items():
            parts.append(f"rhs[{name}]={series[-1]:.17g}")
        return " ".join(parts)


RAW_PERTURBATION = 1.1  # scale of the raw shape's perturbed test velocity
AUDIT_CHUNK = 16  # samples per row block of the audit


@dataclass
class RelEnergyReport:
    """One run's audited record: energy series, bounds, pressure estimate."""

    audit: "REIReport"
    bounds: BoundsReport
    residual_pressure: float

    def __post_init__(self) -> None:
        if np.any(self.audit.rel_energy < 0.0):
            raise DomainError("relative energy series must be nonnegative")

    def summary_text(self) -> str:
        lines = [self.audit.summary_text()]
        lines.append(self.bounds.text())
        lines.append(f"residual-pressure value    = {self.residual_pressure:.17g}")
        return "\n".join(lines)


def rei_audit(traj: PrimitiveTrajectory, acoustic: SpectralWaveSolution) -> REIReport:
    """Evaluate both sides of the relative energy inequality on a run.

    The test pair is the acoustic ansatz r = rho0 + eps s, U = V + grad Phi,
    where the limit velocity V vanishes identically in radial geometry, so
    U = grad Phi.  Acoustic time derivatives come from the wave
    equations analytically, never from finite differences of the samples.

    The reported series take the right-hand side in the regrouped shape
    obtained by inserting the ansatz and using the wave equations, whose
    integrands are convexity remainders.  The raw term-by-term shape
    differs from it by total divergences that cancel only in exact
    arithmetic; with independent discrete operators it carries
    1/eps^2-amplified discretization noise, so only its maximal defect is
    reported, against U and against RAW_PERTURBATION * U (r unchanged),
    for ansatz-optimality comparisons where only the difference matters.
    """
    prof, params, grid = traj.prof, traj.params, traj.grid
    eps, gamma = params.eps, params.gamma
    if abs(acoustic.eps - eps) > 1.0e-12:
        raise DomainError("acoustic solution and run were built at different eps")
    times = traj.times
    if times[-1] > params.horizon + 1.0e-9:
        raise DomainError("trajectory samples exceed the declared horizon")

    grad_rho0 = prof.grad_rho0
    grad_f = prof.potential.dr(grid.centers)
    visc_scale = params.eps**params.alpha
    # second and third derivatives of H at rho0
    d2h_rho0 = gamma * prof.rho0 ** (gamma - 2.0)
    d3h_rho0 = gamma * (gamma - 2.0) * prof.rho0 ** (gamma - 3.0)

    scales = (1.0, RAW_PERTURBATION)
    # row k belongs to the test velocity scales[k] * U
    e_series = np.empty((len(scales), times.size))
    diss_rates = np.empty((len(scales), times.size))
    # raw rates of the velocity, pressure-time and pressure-divergence terms
    raw_rates = np.empty((len(scales), 3, times.size))
    rates = {name: np.empty(times.size) for name in REI_GROUPS}

    # the ansatz fields at every sample time, one stacked (n_samples, n) array each
    s_all = acoustic.s(times)
    r_all = prof.rho0 + eps * s_all
    if np.any(r_all <= 0.0):
        raise DomainError("ansatz density rho0 + eps s lost positivity")
    grad_phi_all = acoustic.grad_phi(times)
    dt_grad_phi_all = acoustic.dt_grad_phi(times)
    div_rho_grad_phi_all = acoustic.div_rho_grad_phi(times)

    # C-contiguous row blocks: each row reduces exactly as its sample alone
    for j in range(0, times.size, AUDIT_CHUNK):
        rows = slice(j, j + AUDIT_CHUNK)
        state = traj.samples.row(rows)
        s, r_field = s_all[rows], r_all[rows]
        u, theta, q = state.velocity, state.theta, state.q
        d2h_r = gamma * r_field ** (gamma - 2.0)
        grad_s = radial_gradient(s, grid, parity="even")

        # raw pieces that do not involve the test velocity
        time_gap = (r_field - q) * (-d2h_r * div_rho_grad_phi_all[rows])
        grad_hp = d2h_r * (grad_rho0 + eps * grad_s)
        pressure_gap = q**gamma - r_field**gamma
        drag = state.rho * grad_f

        tests = []
        for k, scale in enumerate(scales):
            u_test = scale * grad_phi_all[rows]
            dt_grad_phi = scale * dt_grad_phi_all[rows]
            diff = u_test - u
            e_series[k, rows] = rel_energy(state, r_field, u_test, params, grid)
            diss_rates[k, rows] = visc_scale * integrate(
                stress_contraction(u - u_test, u - u_test, params, grid), grid
            )
            du_test = radial_gradient(u_test, grid, parity="odd")
            div_u_test = radial_divergence(u_test, grid)
            visc = visc_scale * stress_contraction(u_test, diff, params, grid)
            tests.append((u_test, dt_grad_phi, diff, du_test, div_u_test, visc))

            g1 = state.rho * (dt_grad_phi + u * du_test) * diff + visc
            raw_rates[k, 0, rows] = integrate(g1, grid)
            g2 = time_gap + grad_hp * (r_field * u_test - q * u)
            raw_rates[k, 1, rows] = integrate(g2, grid) / eps**2
            g3 = div_u_test * pressure_gap + drag * diff
            raw_rates[k, 2, rows] = -integrate(g3, grid) / eps**2

        # the grouped shape, against U itself
        u_test, dt_grad_phi, diff, du_test, div_u_test, visc = tests[0]
        g_vel = state.rho * u * du_test * diff + visc  # limit velocity is steady
        rates["velocity"][rows] = integrate(g_vel, grid)

        p_bracket = q**gamma - gamma * r_field ** (gamma - 1.0) * (q - r_field) - r_field**gamma
        rates["pressure"][rows] = -integrate(div_u_test * p_bracket, grid) / eps**2

        # grad[H'(r) - H''(rho0)(r - rho0) - H'(rho0)], written so every
        # factor is a difference of nearby arguments
        grad_bg = (d2h_r - d2h_rho0) * eps * grad_s
        grad_bg += (d2h_r - d2h_rho0 - d3h_rho0 * (r_field - prof.rho0)) * grad_rho0
        rates["background"][rows] = integrate(q * grad_bg * diff, grid) / eps**2

        div_su = radial_divergence(s * u_test, grid)
        rates["acoustic_source"][rows] = integrate((r_field - q) * d2h_r * div_su, grid) / eps

        g_theta = state.rho * (1.0 - theta) * dt_grad_phi * diff
        g_theta -= state.rho * (1.0 - theta) * d2h_rho0 * grad_rho0 * diff / eps**2
        rates["theta"][rows] = integrate(g_theta, grid)

    def cumulative(r: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r)
        out[1:] = np.cumsum(0.5 * (r[1:] + r[:-1]) * np.diff(times))
        return out

    lhs_k = [e - e[0] + cumulative(diss) for e, diss in zip(e_series, diss_rates)]
    raw_max = [
        float(np.max(lhs - sum(cumulative(r) for r in raw)))
        for lhs, raw in zip(lhs_k, raw_rates)
    ]
    lhs = lhs_k[0]
    rhs_groups = {name: cumulative(rates[name]) for name in REI_GROUPS}
    defect = lhs - sum(rhs_groups.values())

    # budget: one percent of the larger of the initial relative energy
    # and the run's total energy reservoir (the scale every dissipation
    # mechanism draws from), frozen after static-case calibration
    tolerance = 1.0e-2 * max(e_series[0][0], float(traj.energy[0])) + 1.0e-12
    return REIReport(
        times=times,
        rel_energy=e_series[0],
        lhs=lhs,
        rhs_groups=rhs_groups,
        defect=defect,
        tolerance=tolerance,
        raw_max_defect=raw_max[0],
        raw_perturbed_max_defect=raw_max[1],
    )
