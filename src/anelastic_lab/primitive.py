"""Explicit finite-volume solver for the scaled compressible system.

Conservative variables are (rho, rho u, rho Theta) on the radial grid.
Convection uses Rusanov fluxes whose dissipation acts on the deviation
from the static state, so the hydrostatic background is an exact discrete
fixed point; pressure gradient and gravity are paired through the same
face interpolants, with gravity written as (rho/rho0) times the static
pressure gradient, which cancels the pressure term identically at
equilibrium.  The viscous stress enters at strength eps**alpha; for a
radial (curl-free) velocity it reduces to (4/3 + lam) grad(div u).  An
outer sponge relaxes everything toward the static far field.

Time stepping is forward Euler.  Each step takes the smallest of three
limits, all computed from the state it advances: the hyperbolic limit
CFL * h / max(|u| + c), with c ~ 1/eps the scaled sound speed; the
viscous limit CFL * h**2 * min(rho) / (2 eps**alpha (4 mu/3 + lam)); and
the sponge limit 1 / (2 max sigma).  At the default configuration the
viscous limit binds for eps = 0.4 and 0.2 and the hyperbolic one for
eps = 0.1.  The 1/eps step count is the price of keeping the energy
audit free of splitting errors.

A run keeps its samples stacked: PrimitiveTrajectory.samples is one
PrimitiveState whose rho, mom and q are (n_samples, n) arrays and whose t
holds the sample times, so post-run measurements are array expressions
over the (time, space) samples and samples.row(k) is the state at one time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    DomainError,
    Grid,
    integrate,
    radial_divergence,
    radial_gradient,
    smoothstep,
)
from .hydrostatics import StaticProfile
from .params import ScalingParams

RHO_FLOOR = 1.0e-12
VACUUM_CUT = 1.0e-10
CFL = 0.4


class DataError(ValueError):
    """Initial data violate a structural requirement (e.g. positivity)."""


class SolverFailure(RuntimeError):
    """The update produced an inadmissible state; carries the last state."""

    def __init__(self, message: str, state: "PrimitiveState"):
        super().__init__(message)
        self.state = state


@dataclass
class PrimitiveState:
    """Conservative fields at one time level, or stacked over sample times.

    Stacked, rho, mom and q are (n_samples, n) arrays and t is the array of
    sample times; every property below works row by row.
    """

    rho: np.ndarray
    mom: np.ndarray
    q: np.ndarray
    t: float | np.ndarray = 0.0

    def validate(self) -> None:
        for name, f in (("rho", self.rho), ("mom", self.mom), ("q", self.q)):
            if not np.all(np.isfinite(f)):
                raise SolverFailure(f"non-finite entries in {name} at t={self.t}", self)
        if np.any(self.rho < 0.0) or np.any(self.q < 0.0):
            raise SolverFailure(f"negative density data at t={self.t}", self)

    @property
    def velocity(self) -> np.ndarray:
        return self.mom / np.maximum(self.rho, RHO_FLOOR)

    @property
    def theta(self) -> np.ndarray:
        """Potential temperature, set to one on the vacuum set."""
        th = self.q / np.maximum(self.rho, RHO_FLOOR)
        return np.where(self.rho < VACUUM_CUT, 1.0, th)

    def row(self, k: int) -> "PrimitiveState":
        """Sample k of a stacked state, as views."""
        return PrimitiveState(self.rho[k], self.mom[k], self.q[k], float(self.t[k]))


@dataclass(frozen=True)
class GaussianBump:
    """Radial Gaussian amplitude * exp(-((r - center)/width)**2)."""

    amplitude: float
    width: float
    center: float = 0.0

    def __post_init__(self) -> None:
        if not self.width > 0.0:
            raise DataError(f"Gaussian width must be positive, got {self.width}")

    @classmethod
    def from_mass(cls, mass: float, width: float) -> "GaussianBump":
        amplitude = mass / (np.pi**1.5 * width**3)
        return cls(amplitude=amplitude, width=width)

    def field(self, grid: Grid) -> np.ndarray:
        r = grid.radii
        return self.amplitude * np.exp(-(((r - self.center) / self.width) ** 2))

    def radial_derivative(self, grid: Grid) -> np.ndarray:
        r = grid.radii
        return self.field(grid) * (-2.0 * (r - self.center) / self.width**2)


ZERO_BUMP = GaussianBump(amplitude=0.0, width=1.0)


@dataclass(frozen=True)
class IllPreparedData:
    """Ill-prepared initial perturbations and their limit profiles.

    The density and temperature perturbations are Gaussian bumps; the
    velocity is the gradient of a Gaussian potential, so it carries no
    weighted-solenoidal part and feeds the acoustic field only.
    """

    rho1: GaussianBump = ZERO_BUMP
    vel_potential: GaussianBump = ZERO_BUMP
    theta2: GaussianBump = ZERO_BUMP

    def limit_fields(self, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho1, u0, theta2) on the grid; u0 is the potential's radial derivative."""
        return (
            self.rho1.field(grid),
            self.vel_potential.radial_derivative(grid),
            self.theta2.field(grid),
        )


def init_ill_prepared(
    data: IllPreparedData, prof: StaticProfile, params: ScalingParams, grid: Grid
) -> PrimitiveState:
    """Assemble rho = rho0 + eps rho1, u = u0, Theta = 1 + eps^2 theta2."""
    eps = params.eps
    rho1, u, theta2 = data.limit_fields(grid)
    rho = prof.rho0 + eps * rho1
    if np.any(rho <= 0.0):
        raise DataError("initial density is not positive everywhere")
    theta = 1.0 + eps**2 * theta2
    if np.any(theta <= 0.0):
        raise DataError("initial potential temperature is not positive")
    state = PrimitiveState(rho=rho, mom=rho * u, q=rho * theta, t=0.0)
    state.validate()
    return state


class PrimitiveAux:
    """Static per-run data: face interpolants, sponge, ghost state, sponge dt limit.

    sig_w is the sponge rate times the cell volumes, the weight of the
    sponge's mass and rho Theta sinks.
    """

    def __init__(self, prof: StaticProfile, params: ScalingParams, grid: Grid):
        if not grid.radial:
            raise DomainError("the primitive solver runs in radial mode")
        self.prof = prof
        self.params = params
        self.grid = grid
        gamma = params.gamma
        h = grid.h

        ghost_r = grid.r_max + 0.5 * h
        self.rho0_ghost = float(prof.rho0_at(np.array([ghost_r]))[0])
        self.p_ghost = self.rho0_ghost**gamma
        self.c_ghost = float(np.sqrt(gamma * self.rho0_ghost ** (gamma - 1.0)) / params.eps)

        self.grad_p0 = np.diff(self._pressure_faces(prof.rho0**gamma)) / h

        span = grid.r_max - grid.r_sponge
        self.sigma = (5.0 / params.horizon) * smoothstep(
            (grid.centers - grid.r_sponge) / span
        )
        self.sig_w = self.sigma * grid.weights
        sig_max = float(np.max(self.sigma))
        self.dt_sponge = 0.5 / sig_max if sig_max > 0 else np.inf
        self.visc_coef = params.eps**params.alpha * (4.0 * params.mu / 3.0 + params.lam)

    def _pressure_faces(self, p_cells: np.ndarray) -> np.ndarray:
        out = np.empty(self.grid.n + 1)
        out[0] = p_cells[0]  # mirror ghost across r = 0
        out[1:-1] = 0.5 * (p_cells[:-1] + p_cells[1:])
        out[-1] = 0.5 * (p_cells[-1] + self.p_ghost)
        return out

    def pressure_gradient(self, q: np.ndarray) -> np.ndarray:
        pf = self._pressure_faces(q**self.params.gamma)
        return np.diff(pf) / self.grid.h


def sound_speed(state: PrimitiveState, params: ScalingParams) -> np.ndarray:
    """Scaled characteristic speed sqrt(p'(q) Theta) / eps."""
    gamma = params.gamma
    q = np.maximum(state.q, 0.0)
    c2 = gamma * q ** (gamma - 1.0) * state.theta
    return np.sqrt(np.maximum(c2, 0.0)) / params.eps


def suggested_dt(speed: np.ndarray, rho: np.ndarray, aux: PrimitiveAux) -> float:
    """min of the hyperbolic (cell wave speed |u| + c), viscous and sponge limits."""
    h = aux.grid.h
    dt_hyp = CFL * h / float(np.max(speed))
    rho_min = float(np.min(np.maximum(rho, RHO_FLOOR)))
    dt_visc = CFL * 0.5 * h**2 * rho_min / aux.visc_coef if aux.visc_coef > 0 else np.inf
    return min(dt_hyp, dt_visc, aux.dt_sponge)


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _with_ghost(f: np.ndarray, ghost: float) -> np.ndarray:
    """The cell field followed by one outer ghost value (length n+1)."""
    out = np.empty(f.size + 1)
    out[:-1] = f
    out[-1] = ghost
    return out


def _muscl_edges(dev: np.ndarray, ghost: float) -> tuple[np.ndarray, np.ndarray]:
    """Limited left/right deviation states at the faces 1..n."""
    ext = np.empty(dev.size + 2)  # mirror inner, static outer
    ext[0] = dev[0]
    ext[1:-1] = dev
    ext[-1] = ghost
    slopes = np.zeros(dev.size + 1)  # the ghost carries no slope
    slopes[:-1] = _minmod(ext[1:-1] - ext[:-2], ext[2:] - ext[1:-1])
    return ext[1:-1] + 0.5 * slopes[:-1], ext[2:] - 0.5 * slopes[1:]


def _rusanov_fluxes(state, u, speed, drho, dq, aux, muscl: bool = False):
    """Face fluxes for (rho, mom, q); dissipation acts on static deviations.

    u and speed = |u| + c are the cell velocity and wave speed, drho and
    dq the static deviations rho - rho0 and q - rho0; on the first-order
    path the face speed max(|u_l| + c_l, |u_r| + c_r) is read
    off them directly.  Left and right states of the faces 1..n are views
    of one ghost-extended array per field.  Returns a (3, n+1) array of
    the rho, mom and q fluxes; the face at r = 0 carries no flux.  With
    muscl, deviations from the static state are reconstructed with limited
    slopes around the face-interpolated background, which keeps the static
    state an exact fixed point while reducing the convective dissipation.
    """
    params = aux.params
    rho0 = aux.prof.rho0
    if muscl:
        rho0_ext = _with_ghost(rho0, aux.rho0_ghost)
        rho0_face = 0.5 * (rho0_ext[:-1] + rho0_ext[1:])
        drho_l, drho_r = _muscl_edges(drho, 0.0)
        dmom_l, dmom_r = _muscl_edges(state.mom, 0.0)
        dq_l, dq_r = _muscl_edges(dq, 0.0)
        rho_l, rho_r = rho0_face + drho_l, rho0_face + drho_r
        mom_l, mom_r = dmom_l, dmom_r
        q_l, q_r = rho0_face + dq_l, rho0_face + dq_r
        u_l = mom_l / np.maximum(rho_l, RHO_FLOOR)
        u_r = mom_r / np.maximum(rho_r, RHO_FLOOR)
        gamma = params.gamma
        c_l = np.sqrt(np.maximum(gamma * q_l**gamma / np.maximum(rho_l, RHO_FLOOR), 0.0)) / params.eps
        c_r = np.sqrt(np.maximum(gamma * q_r**gamma / np.maximum(rho_r, RHO_FLOOR), 0.0)) / params.eps
        a = np.maximum(np.abs(u_l) + c_l, np.abs(u_r) + c_r)
    else:
        # face n sees the static ghost: no momentum, no deviation
        mom = _with_ghost(state.mom, 0.0)
        q = _with_ghost(state.q, aux.rho0_ghost)
        vel = _with_ghost(u, 0.0)
        spd = _with_ghost(speed, aux.c_ghost)
        drho = _with_ghost(drho, 0.0)
        dq = _with_ghost(dq, 0.0)
        mom_l, mom_r = mom[:-1], mom[1:]
        q_l, q_r = q[:-1], q[1:]
        u_l, u_r = vel[:-1], vel[1:]
        drho_l, drho_r = drho[:-1], drho[1:]
        dq_l, dq_r = dq[:-1], dq[1:]
        a = np.maximum(spd[:-1], spd[1:])

    fluxes = np.zeros((3, rho0.size + 1))
    np.subtract(0.5 * (mom_l + mom_r), 0.5 * a * (drho_r - drho_l), out=fluxes[0, 1:])
    np.subtract(0.5 * (mom_l * u_l + mom_r * u_r), 0.5 * a * (mom_r - mom_l), out=fluxes[1, 1:])
    np.subtract(0.5 * (q_l * u_l + q_r * u_r), 0.5 * a * (dq_r - dq_l), out=fluxes[2, 1:])
    return fluxes


def _face_divergence(u: np.ndarray, grid: Grid) -> np.ndarray:
    """div u at faces: (r^2 u) difference of the neighbor cells.

    The origin face uses the odd-symmetry limit 3 u'(0); the outer face
    copies its neighbor.
    """
    r = grid.centers
    out = np.empty(grid.n + 1)
    r2u = r * r * u
    out[1:-1] = np.diff(r2u) / (grid.h * grid.faces[1:-1] ** 2)
    out[0] = 3.0 * u[0] / r[0]
    out[-1] = out[-2]
    return out


def step_primitive(
    state: PrimitiveState, aux: PrimitiveAux, dt_max: float, muscl: bool = False
) -> tuple[PrimitiveState, float, tuple[float, float], tuple[float, float]]:
    """One conservative forward-Euler update of at most dt_max.

    The step computes u, the cell wave speed |u| + c and the static
    deviations rho - rho0, q - rho0 once, and takes
    dt = min(suggested_dt, dt_max), so it is stable by construction.
    Returns the new state, that dt, the (mass, rho Theta) fluxes per unit
    area through the outer face, and the (mass, rho Theta) sponge sink
    rates, for the boundary and sponge ledgers.
    """
    prof, params, grid = aux.prof, aux.params, aux.grid
    u = state.velocity
    speed = np.abs(u) + sound_speed(state, params)
    dt = min(suggested_dt(speed, state.rho, aux), dt_max)
    drho = state.rho - prof.rho0
    dq = state.q - prof.rho0

    w = grid.weights
    area = grid.face_areas
    f_rho, f_mom, f_q = _rusanov_fluxes(state, u, speed, drho, dq, aux, muscl=muscl)

    rho_new = state.rho - dt * np.diff(area * f_rho) / w
    mom_new = state.mom - dt * np.diff(area * f_mom) / w
    q_new = state.q - dt * np.diff(area * f_q) / w

    # pressure/gravity pairing: gravity is (rho/rho0) times the static
    # pressure gradient, so the static state cancels exactly
    eps2 = params.eps**2
    mom_new -= (dt / eps2) * (
        aux.pressure_gradient(state.q) - (state.rho / prof.rho0) * aux.grad_p0
    )

    # viscous force (4/3 + lam) eps^alpha d/dr (div u)
    if aux.visc_coef > 0.0:
        d_faces = _face_divergence(u, grid)
        mom_new += dt * aux.visc_coef * np.diff(d_faces) / grid.h

    # sponge relaxation toward the static far field
    sig = aux.sigma
    rho_new -= dt * sig * drho
    mom_new -= dt * sig * state.mom
    q_new -= dt * sig * dq

    out = PrimitiveState(rho=rho_new, mom=mom_new, q=q_new, t=state.t + dt)
    if np.any(out.rho <= 0.0) or np.any(out.q <= 0.0):
        raise SolverFailure(f"nonpositive density after update at t={out.t}", out)
    if not (np.all(np.isfinite(out.rho)) and np.all(np.isfinite(out.mom)) and np.all(np.isfinite(out.q))):
        raise SolverFailure(f"non-finite state after update at t={out.t}", out)
    sinks = (float(np.sum(aux.sig_w * drho)), float(np.sum(aux.sig_w * dq)))
    return out, dt, (float(f_rho[-1]), float(f_q[-1])), sinks


def enthalpy(z: np.ndarray, gamma: float) -> np.ndarray:
    """H(Z) = Z**gamma / (gamma - 1), the pressure potential."""
    return z**gamma / (gamma - 1.0)


def total_energy(
    state: PrimitiveState, prof: StaticProfile, params: ScalingParams, grid: Grid
) -> float:
    """Scaled total energy relative to the static state.

    E = int [ rho |u|^2 / 2 + (H(q) - H'(rho0)(rho - rho0) - H(rho0)) / eps^2 ].
    """
    gamma = params.gamma
    kin = 0.5 * state.rho * state.velocity**2
    dh0 = gamma * prof.rho0 ** (gamma - 1.0) / (gamma - 1.0)
    bracket = enthalpy(state.q, gamma) - dh0 * (state.rho - prof.rho0) - enthalpy(
        prof.rho0, gamma
    )
    return integrate(kin + bracket / params.eps**2, grid)


def viscous_dissipation_rate(u: np.ndarray, params: ScalingParams, grid: Grid) -> float:
    """eps^alpha int S(grad u) : grad u for the radial velocity field u."""
    du = radial_gradient(u, grid, parity="odd")
    d = radial_divergence(u, grid)
    dens = params.mu * (4.0 / 3.0) * (du - u / grid.centers) ** 2 + params.lam * d**2
    return params.eps**params.alpha * integrate(dens, grid)


@dataclass
class PrimitiveTrajectory:
    """Stacked samples plus per-run conservation and energy bookkeeping.

    samples.rho, samples.mom and samples.q are (n_samples, n) arrays and
    samples.t holds the sample times; every series below has one entry per
    sample.
    """

    grid: Grid
    prof: StaticProfile
    params: ScalingParams
    samples: PrimitiveState
    energy: np.ndarray
    dissipation: np.ndarray  # cumulative viscous dissipation at samples
    mass: np.ndarray
    q_mass: np.ndarray
    sponge_mass: np.ndarray  # cumulative sponge mass sink at samples
    sponge_q: np.ndarray
    outer_mass_flux: np.ndarray  # cumulative convective outflow at samples
    outer_q_flux: np.ndarray
    n3_integral: np.ndarray  # cumulative int ||sqrt(rho/rho0) u||^2_{L2(K)} dt
    step_count: int = 0

    @property
    def times(self) -> np.ndarray:
        return self.samples.t


def run_primitive(
    init: PrimitiveState,
    prof: StaticProfile,
    params: ScalingParams,
    grid: Grid,
    sample_times: np.ndarray,
    muscl: bool = False,
) -> PrimitiveTrajectory:
    """Advance to every sample time, accumulating diagnostics each step.

    The dissipation and N3 rates use the trapezoidal rule in time; each
    step's end-of-step rates are the next step's start rates.  N3 is
    measured on the ball of radius grid.default_compact_radius.  Each
    sample is written into one row of the preallocated stacked arrays.
    """
    init.validate()
    aux = PrimitiveAux(prof, params, grid)
    sample_times = np.array(sample_times, dtype=float)
    if sample_times[0] != 0.0 or np.any(np.diff(sample_times) <= 0.0):
        raise DomainError("sample times must start at 0 and increase")
    k_mask = grid.ball_mask(grid.default_compact_radius)
    w_k = grid.weights[k_mask]
    rho0_k = prof.rho0[k_mask]
    area_out = grid.face_areas[-1]

    def n3_rate(rho: np.ndarray, u: np.ndarray) -> float:
        u = u[k_mask]
        return float(np.sum(rho[k_mask] / rho0_k * u * u * w_k))

    state = init
    u = state.velocity
    rate_d = viscous_dissipation_rate(u, params, grid)
    rate_n = n3_rate(state.rho, u)
    diss = sp_mass = sp_q = out_mass = out_q = n3 = 0.0
    nsteps = 0
    shape = (sample_times.size, grid.n)
    samples = PrimitiveState(np.empty(shape), np.empty(shape), np.empty(shape), sample_times)
    ledger = np.empty((9, sample_times.size))  # the series in PrimitiveTrajectory field order
    for k, target in enumerate(sample_times):
        while state.t < target - 1.0e-13:
            new, dt, (f_mass, f_q), (s_mass, s_q) = step_primitive(
                state, aux, target - state.t, muscl=muscl
            )
            out_mass += dt * area_out * f_mass
            out_q += dt * area_out * f_q
            sp_mass += dt * s_mass
            sp_q += dt * s_q
            u = new.velocity
            rate_d_new = viscous_dissipation_rate(u, params, grid)
            rate_n_new = n3_rate(new.rho, u)
            diss += 0.5 * dt * (rate_d + rate_d_new)
            n3 += 0.5 * dt * (rate_n + rate_n_new)
            state, rate_d, rate_n = new, rate_d_new, rate_n_new
            nsteps += 1
        samples.rho[k], samples.mom[k], samples.q[k] = state.rho, state.mom, state.q
        ledger[:, k] = (
            total_energy(state, prof, params, grid),
            diss,
            integrate(state.rho, grid),
            integrate(state.q, grid),
            sp_mass, sp_q, out_mass, out_q, n3,
        )

    return PrimitiveTrajectory(grid, prof, params, samples, *ledger, step_count=nsteps)


CHECKPOINT_MAGIC = "anelastic-lab-checkpoint v1"


def write_checkpoint(
    path: str, state: PrimitiveState, grid: Grid, params: ScalingParams
) -> None:
    """Binary state dump with a small text header describing grid and params."""
    header = "\n".join(
        [
            CHECKPOINT_MAGIC,
            f"geometry {grid.geometry}",
            f"n {grid.n}",
            f"r_max {grid.r_max:.17g}",
            f"r_sponge {grid.r_sponge:.17g}",
            f"eps {params.eps:.17g}",
            f"alpha {params.alpha:.17g}",
            f"gamma {params.gamma:.17g}",
            f"lam {params.lam:.17g}",
            f"mu {params.mu:.17g}",
            f"rho_bar {params.rho_bar:.17g}",
            f"time {state.t:.17g}",
            "fields rho mom q",
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n\x00")
        for f in (state.rho, state.mom, state.q):
            fh.write(np.ascontiguousarray(f, dtype=np.float64).tobytes())


def read_checkpoint(path: str) -> tuple[PrimitiveState, dict]:
    """Load a checkpoint; returns the state and the parsed header entries."""
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = blob.index(b"\x00")
    header_lines = blob[:sep].decode("ascii").strip().split("\n")
    if header_lines[0] != CHECKPOINT_MAGIC:
        raise DataError(f"not a checkpoint file: {path}")
    meta = {}
    for line in header_lines[1:]:
        key, _, value = line.partition(" ")
        meta[key] = value
    missing = [key for key in ("geometry", "n", "time") if key not in meta]
    if missing:
        raise DataError(f"checkpoint header of {path} lacks {', '.join(missing)}")
    n = int(meta["n"])
    count = n if meta["geometry"] == "radial" else n**3
    raw = np.frombuffer(blob[sep + 1 :], dtype=np.float64)
    if raw.size != 3 * count:
        raise DataError("checkpoint payload size does not match its header")
    shape = (n,) if meta["geometry"] == "radial" else (n, n, n)
    rho, mom, q = (raw[i * count : (i + 1) * count].reshape(shape).copy() for i in range(3))
    state = PrimitiveState(rho=rho, mom=mom, q=q, t=float(meta["time"]))
    return state, meta


@dataclass(frozen=True)
class CappedPower:
    """b(Y) = Y**power up to cap, blended C^1 to a constant beyond.

    The derivative is continuous with compact support, as the renormalized
    transport identity requires.
    """

    power: float
    cap: float
    blend_width: float

    def __post_init__(self) -> None:
        if self.cap <= 0.0 or self.blend_width <= 0.0:
            raise DomainError("cap and blend_width must be positive")

    def b(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        yc = np.minimum(y, self.cap)
        base = yc**self.power
        slope = self.power * self.cap ** (self.power - 1.0)
        x = np.clip((y - self.cap) / self.blend_width, 0.0, 1.0)
        return base + slope * self.blend_width * x * (1.0 - 0.5 * x)

    def db(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        inside = self.power * np.minimum(y, self.cap) ** (self.power - 1.0)
        slope = self.power * self.cap ** (self.power - 1.0)
        x = (y - self.cap) / self.blend_width
        blend = slope * np.clip(1.0 - x, 0.0, 1.0)
        return np.where(y <= self.cap, inside, np.where(x < 1.0, blend, 0.0))


@dataclass
class RenormReport:
    """Renormalized-transport defect series and its normalization."""

    mid_times: np.ndarray
    defects: np.ndarray
    max_defect: float


def renorm_check(traj: PrimitiveTrajectory, b_fam: CappedPower) -> RenormReport:
    """Measure the renormalized transport identity for b along a run.

    Between consecutive samples the report compares d/dt int b(q) against
    int (b - b' q) div u, charging the sponge sink and the outer boundary
    convection to the budget; the residue is normalized by int |b|.
    """
    prof, grid, s = traj.prof, traj.grid, traj.samples
    aux = PrimitiveAux(prof, traj.params, grid)
    bq = b_fam.b(s.q)
    dbq = b_fam.db(s.q)
    u = s.velocity
    total_b = integrate(bq, grid)
    rhs = integrate((bq - dbq * s.q) * radial_divergence(u, grid), grid)
    sponge = np.sum(aux.sig_w * dbq * (s.q - prof.rho0), axis=-1)
    q_face = 0.5 * (s.q[:, -1] + aux.rho0_ghost)
    flux = grid.face_areas[-1] * b_fam.b(q_face) * 0.5 * u[:, -1]
    norm = integrate(np.abs(bq), grid)

    def mean(x: np.ndarray) -> np.ndarray:
        return 0.5 * (x[:-1] + x[1:])

    defect = np.diff(total_b) / np.diff(s.t) + mean(sponge) + mean(flux) - mean(rhs)
    defects = np.abs(defect) / np.maximum(mean(norm), 1.0e-300)
    return RenormReport(mid_times=mean(s.t), defects=defects, max_defect=float(np.max(defects)))
