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
differencing the samples.  Each measurement is a SamplePass: its per-row
arithmetic runs on blocks of about 8 sample rows, which a streamed run or a
stacked trajectory hands it, and the audit evaluates its ansatz per block;
uniform_bounds_report, residual_pressure_value and rei_audit feed one the
blocks of a stacked trajectory and return its finishing reduction.
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
    radial_strain,
)
from .params import ScalingParams
from .primitive import PrimitiveState, PrimitiveTrajectory, SamplePass


def _powers(q: np.ndarray, r: np.ndarray, gamma: float) -> tuple:
    """(q**gamma, r**(gamma - 1), r**gamma), the powers of H's convexity remainder."""
    return q**gamma, r ** (gamma - 1.0), r**gamma


def h_bracket(q: np.ndarray, r: np.ndarray, gamma: float, powers: tuple | None = None) -> np.ndarray:
    """H(q) - H'(r)(q - r) - H(r), the convexity remainder of H, from _powers(q, r, gamma)
    if they are given."""
    q_g, r_g1, r_g = powers or _powers(q, r, gamma)
    dh = gamma / (gamma - 1.0) * r_g1
    return q_g / (gamma - 1.0) - dh * (q - r) - r_g / (gamma - 1.0)


def rel_energy(
    state: PrimitiveState,
    r_field: np.ndarray,
    u_test: np.ndarray,
    params: ScalingParams,
    grid: Grid,
    powers: tuple | None = None,
) -> float | np.ndarray:
    """Relative energy of a state against the test pair (r, U), one per stacked row;
    powers, if given, are _powers(state.q, r_field, params.gamma)."""
    grid.check_aligned(r_field, u_test)
    if np.any(r_field <= 0.0):
        raise DomainError("test density r must be strictly positive")
    kin = 0.5 * state.rho * (state.velocity - u_test) ** 2
    pot = h_bracket(state.q, r_field, params.gamma, powers) / params.eps**2
    return integrate(kin + pot, grid)


def _velocity_rates(u: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample integrals of the radial velocity's squared deviatoric strain,
    squared divergence and |u|^2 + |grad u|^2, from one strain and one div u.

    The deviatoric strain is grad u + grad u^T - (2/3) div u I, grad u from
    `radial_strain`.  Squares and sums are formed in place, because with
    stacked samples every temporary is a whole block of fields.
    """
    d = radial_divergence(u, grid)
    div = integrate(d**2, grid)
    d *= 2.0 / 3.0
    du, u_r = radial_strain(u, grid)
    grad_sq = du**2
    grad_sq += 2.0 * u_r**2
    du *= 2.0
    du -= d  # the radial entry of the deviatoric strain
    u_r *= 2.0
    u_r -= d  # the two angular entries
    del d
    du **= 2
    u_r **= 2
    du += 2.0 * u_r
    dev = integrate(du, grid)
    grad_sq += u * u
    return dev, div, integrate(grad_sq, grid)


def stress_contraction(
    grad_a: tuple, div_a: np.ndarray, grad_b: tuple, params: ScalingParams
) -> np.ndarray:
    """S(grad a) : grad b for radial fields a and b, including the bulk part.

    grad_a and grad_b are the `radial_strain` pairs (da/dr, a/r) and (db/dr,
    b/r), and div_a is `radial_divergence(a)`: the caller forms each once.
    """
    (da, a_r), (db, b_r) = grad_a, grad_b
    s_rr = params.mu * (2.0 * da - (2.0 / 3.0) * div_a) + params.lam * div_a
    s_tt = params.mu * (2.0 * a_r - (2.0 / 3.0) * div_a) + params.lam * div_a
    return s_rr * db + 2.0 * s_tt * b_r


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


class BoundsPass(SamplePass):
    """The scaled a-priori bounds along a run.

    For each bound the implied constant divides out the stated eps power,
    so a sweep can check that the constants stay comparable across eps.
    Suprema and time integrals run over per-sample values.
    """

    n_series = 7

    def measure(self, s: PrimitiveState) -> tuple:
        """int rho u^2, the deviatoric-strain, divergence and W^{1,2} rates and the r5,
        r6 and r7 integrands' values, per row."""
        prof, grid, eps, gamma = self.prof, self.grid, self.params.eps, self.params.gamma
        u = s.velocity
        sq_u = integrate(s.rho * u * u, grid)
        rates = _velocity_rates(u, grid)
        theta_dev = (s.theta - 1.0) / eps**2
        r5 = lp_norm(theta_dev, 1.0, grid) + lp_norm(theta_dev, np.inf, grid)
        chi = prof.cutoff.chi(s.q)
        r6 = lp_norm(chi * ((s.rho - prof.rho0) / eps), 2.0, grid)
        r6 += lp_norm(chi * ((s.q - prof.rho0) / eps), 2.0, grid)
        res = 1.0 - chi
        r7 = integrate(res + np.abs(res * s.rho) ** gamma + np.abs(res * s.q) ** gamma, grid)
        return (sq_u, *rates, r5, r6, r7)

    def report(self) -> BoundsReport:
        params, times, (sq_u, *rates, r5, r6, r7) = self.params, self.times, self.values
        eps, alpha = params.eps, params.alpha
        sup_sqrho_u = float(np.max(np.sqrt(sq_u)))
        dev_l2, div_l2, w12_l2 = (float(np.sqrt(np.trapezoid(r, times))) for r in rates)
        sup_r5, sup_r6, sup_r7 = float(np.max(r5)), float(np.max(r6)), float(np.max(r7))

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


def uniform_bounds_report(traj: PrimitiveTrajectory) -> BoundsReport:
    """The BoundsPass of a stacked trajectory."""
    return traj.feed(BoundsPass(traj.prof, traj.params, traj.times)).report()


CONSTANT_FLOOR = 1.0e-14  # an implied constant at or below it counts as zero


def constants_spread(reports: list[BoundsReport], key: str) -> float:
    """max/min ratio of one implied constant across a sweep; 1.0 if all zero."""
    vals = np.array([rep.constants[key] for rep in reports], dtype=float)
    if np.all(vals <= CONSTANT_FLOOR):
        return 1.0
    lo = np.min(vals[vals > CONSTANT_FLOOR])
    return float(np.max(vals) / lo)


class PressurePass(SamplePass):
    """Space-time integral over the ball K of ([rho Theta]_res)**(gamma+beta).

    K is the ball of radius grid.default_compact_radius.
    """

    n_series = 1

    def __init__(self, prof, params, times, beta: float):
        super().__init__(prof, params, times)
        self.power, self.mask = params.gamma + beta, self.grid.ball_mask(self.grid.default_compact_radius)

    def measure(self, s: PrimitiveState) -> np.ndarray:
        q = s.q[:, self.mask]  # a copy, whose rows sum as single samples do
        res_q = (1.0 - self.prof.cutoff.chi(q)) * q
        return np.sum(res_q**self.power * self.grid.weights[self.mask], axis=-1)

    def value(self) -> float:
        return float(np.trapezoid(self.values[0], self.times))


def residual_pressure_value(traj: PrimitiveTrajectory, beta: float) -> float:
    """The PressurePass of a stacked trajectory."""
    return traj.feed(PressurePass(traj.prof, traj.params, traj.times, beta)).value()


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

    def __post_init__(self) -> None:
        if np.any(self.rel_energy < 0.0):
            raise DomainError("relative energy series must be nonnegative")

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


class AuditPass(SamplePass):
    """Both sides of the relative energy inequality along a run.

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

    # per test velocity U and RAW_PERTURBATION * U: the relative energy, the dissipation
    # rate and the raw velocity, pressure-time and pressure-divergence rates, as five
    # pairs of rows; then the rates of REI_GROUPS, against U
    n_series = 15

    def __init__(self, prof, params, times, acoustic: SpectralWaveSolution):
        super().__init__(prof, params, times)
        if abs(acoustic.eps - params.eps) > 1.0e-12:
            raise DomainError("acoustic solution and run were built at different eps")
        if times[-1] > params.horizon + 1.0e-9:
            raise DomainError("trajectory samples exceed the declared horizon")
        gamma = params.gamma
        self.acoustic, self.grad_f = acoustic, prof.potential.dr(self.grid.centers)
        self.visc_scale = params.eps**params.alpha
        # row k of the test stack belongs to the test velocity scales[k] * U
        self.scales = np.array([1.0, RAW_PERTURBATION])[:, None, None]
        # second and third derivatives of H at rho0
        self.d2h_rho0 = gamma * prof.rho0 ** (gamma - 2.0)
        self.d3h_rho0 = gamma * (gamma - 2.0) * prof.rho0 ** (gamma - 3.0)

    def measure(self, state: PrimitiveState) -> np.ndarray:
        """The series' values at the block's sample times; the ansatz is evaluated once
        for the block, and each row reduces as its sample alone."""
        prof, params, grid, acoustic = self.prof, self.params, self.grid, self.acoustic
        eps, gamma, t = params.eps, params.gamma, state.t
        grad_rho0, d2h_rho0 = prof.grad_rho0, self.d2h_rho0
        out = np.empty((self.n_series, t.size))
        e_series, diss_rates, raw_rates = out[0:2], out[2:4], out[4:10].reshape(3, 2, -1)
        rates = dict(zip(REI_GROUPS, out[10:]))

        s = acoustic.s(t)
        r_field = prof.rho0 + eps * s
        if np.any(r_field <= 0.0):
            raise DomainError("ansatz density rho0 + eps s lost positivity")
        u, theta, q = state.velocity, state.theta, state.q
        powers = q_g, r_g1, r_g = _powers(q, r_field, gamma)  # once for the three brackets
        d2h_r = gamma * r_field ** (gamma - 2.0)
        grad_s = radial_gradient(s, grid, parity="even")

        # raw pieces that do not involve the test velocity
        time_gap = (r_field - q) * (-d2h_r * acoustic.div_rho_grad_phi(t))
        grad_hp = d2h_r * (grad_rho0 + eps * grad_s)
        pressure_gap = q_g - r_g
        drag = state.rho * self.grad_f

        # both test velocities as one (2, rows, n) stack; diff = U - u is
        # exactly -(u - U), so S(diff) : grad diff is the dissipation of u - U
        u_test = self.scales * acoustic.grad_phi(t)
        dt_grad_phi = self.scales * acoustic.dt_grad_phi(t)
        diff = u_test - u
        strain_test, div_u_test = radial_strain(u_test, grid), radial_divergence(u_test, grid)
        strain_diff, div_diff = radial_strain(diff, grid), radial_divergence(diff, grid)
        e_series[:] = rel_energy(state, r_field, u_test, params, grid, powers)
        diss_rates[:] = self.visc_scale * integrate(
            stress_contraction(strain_diff, div_diff, strain_diff, params), grid
        )
        visc = self.visc_scale * stress_contraction(strain_test, div_u_test, strain_diff, params)

        g1 = state.rho * (dt_grad_phi + u * strain_test[0]) * diff + visc
        raw_rates[0] = integrate(g1, grid)
        g2 = time_gap + grad_hp * (r_field * u_test - q * u)
        raw_rates[1] = integrate(g2, grid) / eps**2
        g3 = div_u_test * pressure_gap + drag * diff
        raw_rates[2] = -integrate(g3, grid) / eps**2

        # the grouped shape, against U itself: row 0 of the stack
        u_test, dt_grad_phi, diff = u_test[0], dt_grad_phi[0], diff[0]
        du_test, div_u_test, visc = strain_test[0][0], div_u_test[0], visc[0]
        g_vel = state.rho * u * du_test * diff + visc  # limit velocity is steady
        rates["velocity"][:] = integrate(g_vel, grid)

        p_bracket = q_g - gamma * r_g1 * (q - r_field) - r_g
        rates["pressure"][:] = -integrate(div_u_test * p_bracket, grid) / eps**2

        # grad[H'(r) - H''(rho0)(r - rho0) - H'(rho0)], written so every
        # factor is a difference of nearby arguments
        grad_bg = (d2h_r - d2h_rho0) * eps * grad_s
        grad_bg += (d2h_r - d2h_rho0 - self.d3h_rho0 * (r_field - prof.rho0)) * grad_rho0
        rates["background"][:] = integrate(q * grad_bg * diff, grid) / eps**2

        div_su = radial_divergence(s * u_test, grid)
        rates["acoustic_source"][:] = integrate((r_field - q) * d2h_r * div_su, grid) / eps

        g_theta = state.rho * (1.0 - theta) * dt_grad_phi * diff
        g_theta -= state.rho * (1.0 - theta) * d2h_rho0 * grad_rho0 * diff / eps**2
        rates["theta"][:] = integrate(g_theta, grid)
        return out

    def report(self, run: PrimitiveTrajectory) -> REIReport:
        """The cumulative series and defects; the tolerance reads run's initial energy."""
        times, values = self.times, self.values

        def cumulative(r: np.ndarray) -> np.ndarray:
            out = np.zeros_like(r)
            out[1:] = np.cumsum(0.5 * (r[1:] + r[:-1]) * np.diff(times))
            return out

        e_series, diss_rates, raw_rates = values[0:2], values[2:4], values[4:10].reshape(3, 2, -1)
        lhs_k = [e - e[0] + cumulative(diss) for e, diss in zip(e_series, diss_rates)]
        raw_max = [
            float(np.max(lhs - sum(cumulative(r) for r in raw_rates[:, k])))
            for k, lhs in enumerate(lhs_k)
        ]
        lhs = lhs_k[0]
        rhs_groups = {name: cumulative(r) for name, r in zip(REI_GROUPS, values[10:])}
        defect = lhs - sum(rhs_groups.values())

        # budget: one percent of the larger of the initial relative energy
        # and the run's total energy reservoir (the scale every dissipation
        # mechanism draws from), frozen after static-case calibration
        tolerance = 1.0e-2 * max(e_series[0][0], float(run.energy[0])) + 1.0e-12
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


def rei_audit(traj: PrimitiveTrajectory, acoustic: SpectralWaveSolution) -> REIReport:
    """The AuditPass of a stacked trajectory."""
    return traj.feed(AuditPass(traj.prof, traj.params, traj.times, acoustic)).report(traj)
