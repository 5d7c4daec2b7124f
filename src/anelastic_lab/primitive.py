"""Finite-volume solver for the scaled compressible system.

Conservative variables are (rho, rho u, rho Theta) on the radial grid.
Convection uses first-order Rusanov fluxes whose dissipation acts on the
deviation from the static state, so the hydrostatic background is an
exact discrete fixed point; pressure gradient and gravity are paired
through the same face interpolants, with gravity written as (rho/rho0)
times the static pressure gradient, which cancels the pressure term
identically at equilibrium.  The viscous stress enters at strength
eps**alpha; for a radial (curl-free) velocity it reduces to (4/3 + lam)
grad(div u).  An outer sponge relaxes everything toward the static far
field.

Time stepping is IMEX Euler (Ascher, Ruuth & Spiteri, Appl. Numer. Math.
25:151, 1997).  Convection, pressure-gravity and the sponge take a
forward-Euler step, which gives the new density and an explicit momentum
mom*; the viscous force is then backward Euler in u:
(diag rho_new - dt visc_coef L) u_new = mom*, mom_new = rho_new u_new,
with L the face-divergence grad-div.  That is one tridiagonal LAPACK
solve per step for the whole stack, and the viscous force sets no dt
limit.  Each step takes the smaller of two limits, both computed from the
state it advances: the hyperbolic limit CFL * h / max(|u| + c), with
c ~ 1/eps the scaled sound speed, and the sponge limit 1 / (2 max sigma).
The hyperbolic limit binds for every eps at the default configuration,
so a member's step count grows like 1/eps.  CFL is set by the step's
linear stability: the spectral radius of its Jacobian about the static
state stays below 1 up to CFL 0.7 at every n from 8 to 512, with mu = 0
and with viscosity, and exceeds 1 at 0.9 in every case and at 0.8
without viscosity (with it, at n = 8 and at n = 64, eps = 0.1), so
CFL = 0.6 keeps a margin below that 0.7-0.8 edge.  The
explicit part's first-order damping, ~(c h/2)(1 - nu) at Courant number
nu, falls as CFL rises: N3 lies 2-4% above its CFL 0.4 value and 6-10%
above its CFL 0.1 value, most at the smallest eps, and at eps = 0.1,
n = 512 its ratio to the linear-acoustic reference C eps (C = 4.569)
reads 0.966, against 0.931 at CFL 0.4.

A run streams its samples: run_lockstep writes each member's samples into a
buffer of one row_blocks block (at most ROW_BLOCK + 1 rows) and hands every
completed block to the member's consumers, so no run keeps its samples.  A
post-run measurement is a SamplePass: its per-row arithmetic runs on each
block, its finishing reduction (suprema, trapezoids, cumulative sums) on the
per-sample values.  Each row reduces alone, so the blocks change no bit.

The runner is lockstep: run_lockstep advances members that differ only
in eps as one (m, n) stack, one fused step call per iteration, and
run_primitive is its one-member case.  Each member takes its own dt and
leaves the stack once, at the horizon, so a sweep runs its largest
member's steps instead of their sum; samples are dense output, so they
never shorten a step.  The ledger (dissipation and N3 rates and
trapezoids, sponge sinks, outflow) is folded once per block of steps: the
rates are taken on the block's stacked velocities, where every row reduces
alone along its own last axis, and the increments are added onto the
carried ledger by np.add.accumulate, which adds in sequence, so it is bit
for bit the per-step ledger.

Up to the viscous solve, the step does the straightforward expressions'
floating-point operations in their order, so it is bit for bit their
result, with fewer numpy calls: a PrimitiveAux holds the step's grid and
parameter constants, the viscous operator's bands and the work buffers of
its members (run_lockstep makes one per stack); rho_f = max(rho,
RHO_FLOOR) is formed once per state for u and theta; the pressure is
q q^(gamma-1), from the power the sound speed takes; differences are
slices, since np.diff's wrapper costs as much as the subtraction on these
rows; and lam == 0 skips the bulk dissipation term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lapack
from .grids import (
    DomainError,
    Grid,
    integrate,
    radial_divergence,
    radial_strain,
    smoothstep,
)
from .hydrostatics import StaticProfile
from .params import ScalingParams

RHO_FLOOR = 1.0e-12
VACUUM_CUT = 1.0e-10
CFL = 0.6
ROW_BLOCK = 8  # sample rows per block of a post-run pass; the audit's test stacks are 16 fields
# Steps per diagnostic block of run_lockstep: a fold's fixed cost is shared by up to 16 steps,
# and at the default sweep (3 members, n = 512) the buffers and its temporaries peak at 0.86 MB.
_BLOCK = 16


class DataError(ValueError):
    """Initial data violate a structural requirement (e.g. positivity)."""


class SolverFailure(RuntimeError):
    """An update produced an inadmissible state; carries it and the member's index."""

    def __init__(self, message: str, state: "PrimitiveState", member: int = 0):
        super().__init__(message)
        self.state = state
        self.member = member


class PrimitiveState:
    """Conservative fields at one time level, or stacked over samples or members.

    rho, mom and q are views of one (3, ...) array, fields.  Stacked, they
    are (k, n) arrays, t holds one time per row and every property below
    works row by row.  A state the step returns carries its floored density
    rho_f, which its velocity, theta and dt limit share.
    """

    def __init__(self, rho, mom, q, t: float | np.ndarray = 0.0):
        self.fields = np.array((rho, mom, q), dtype=float)
        self.t, self._rho_f = t, None

    @classmethod
    def of(cls, fields: np.ndarray, t, rho_f: np.ndarray | None = None) -> "PrimitiveState":
        """The state whose rho, mom and q are views of fields, with its rho_f if known."""
        state = cls.__new__(cls)
        state.fields, state.t, state._rho_f = fields, t, rho_f
        return state

    rho = property(lambda self: self.fields[0])
    mom = property(lambda self: self.fields[1])
    q = property(lambda self: self.fields[2])

    @property
    def rho_f(self) -> np.ndarray:
        """max(rho, RHO_FLOOR), the density the velocity and theta divide by."""
        return np.maximum(self.fields[0], RHO_FLOOR) if self._rho_f is None else self._rho_f

    def validate(self, member: int = 0) -> None:
        for name, f in (("rho", self.rho), ("mom", self.mom), ("q", self.q)):
            if not np.all(np.isfinite(f)):
                raise SolverFailure(f"non-finite entries in {name} at t={self.t}", self, member)
        if np.any(self.rho < 0.0) or np.any(self.q < 0.0):
            raise SolverFailure(f"negative density data at t={self.t}", self, member)

    @property
    def velocity(self) -> np.ndarray:
        return self.fields[1] / self.rho_f

    @property
    def theta(self) -> np.ndarray:
        """Potential temperature, set to one on the vacuum set."""
        th = self.fields[2] / self.rho_f
        return np.where(self.fields[0] < VACUUM_CUT, 1.0, th)


def row_blocks(n_samples: int) -> list[slice]:
    """The sample rows in blocks of ROW_BLOCK rows.  A one-row remainder joins the block
    before it: a one-row matrix product (the audit's ansatz) may differ in its last bits
    from that row of a larger one."""
    ends = [*range(ROW_BLOCK, n_samples - 1, ROW_BLOCK), n_samples]
    return list(map(slice, [0, *ends[:-1]], ends))


class SamplePass:
    """A post-run measurement of one run, split in two.  As a consumer of the streamed
    run it is called on each block of sample rows and keeps measure(block), the per-row
    arithmetic, in values[:, rows]; after the run functions of the subclass's module reduce
    those per-sample values: limit_norms a NormsPass, uniform_bounds_report and
    residual_pressure_value a BoundsPass, rei_audit an AuditPass."""

    n_series: int  # rows of values, the per-sample series measure returns

    def __init__(self, prof: StaticProfile, params: ScalingParams, times: np.ndarray):
        self.prof, self.params, self.grid, self.times = prof, params, prof.grid, times
        self.values = np.empty((self.n_series, times.size))

    def __call__(self, rows: slice, block: "PrimitiveState") -> None:
        self.values[:, rows] = self.measure(block)


@dataclass(frozen=True)
class GaussianBump:
    """Radial Gaussian amplitude * exp(-((r - center)/width)**2)."""

    amplitude: float
    width: float
    center: float = 0.0

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
    data: IllPreparedData, prof: StaticProfile, params: ScalingParams
) -> PrimitiveState:
    """Assemble rho = rho0 + eps rho1, u = u0, Theta = 1 + eps^2 theta2."""
    eps = params.eps
    rho1, u, theta2 = data.limit_fields(prof.grid)
    rho = prof.rho0 + eps * rho1
    if np.any(rho <= 0.0):
        raise DataError("initial density is not positive everywhere")
    theta = 1.0 + eps**2 * theta2
    if np.any(theta <= 0.0):
        raise DataError("initial potential temperature is not positive")
    state = PrimitiveState(rho=rho, mom=rho * u, q=rho * theta, t=0.0)
    state.validate()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        energy = total_energy(state, prof, params)
    if not np.isfinite(energy):
        raise DataError(
            f"initial energy is {energy:g}; lower data.rho1_amp or data.vel_amp"
        )
    return state


class PrimitiveAux:
    """Static data and step buffers of a lockstep stack whose members differ only in eps.

    Members share the static state, ghost cell and sponge (sig_w = sigma
    times the cell volumes weighs its sinks), the step's grid constants and
    the bands of the viscous operator.  eps, eps2, visc_coef and c_ghost
    are (m, 1) columns and eps_alpha an (m,) row of Python floats, one per
    member: numpy's array power may differ in the last bit.
    """

    def __init__(self, prof: StaticProfile, params):
        grid = prof.grid
        if not grid.radial:
            raise DomainError("the primitive solver runs in radial mode")
        base = params[0]
        if any(p.with_eps(base.eps) != base for p in params):
            raise DomainError("lockstep members may differ in eps only")
        self.prof, self.params, self.grid = prof, tuple(params), grid
        self.gamma = gamma = base.gamma

        rho0_ghost = float(prof.rho0_at(np.array([grid.r_max + 0.5 * grid.h]))[0])
        self.p_ghost = rho0_ghost**gamma
        c_ghost = float(np.sqrt(gamma * rho0_ghost ** (gamma - 1.0)))

        # the static pressure as the step forms it, q q^(gamma-1), so rho0 stays a fixed point
        self.grad_p0 = self.pressure_gradient(prof.rho0 * prof.rho0 ** (gamma - 1.0))
        # fields minus static: the deviations the dissipation and the sponge act on
        self.static = np.array((prof.rho0, np.zeros(grid.n), prof.rho0))[:, None]

        span = grid.r_max - grid.r_sponge
        self.sigma = (5.0 / base.horizon) * smoothstep((grid.centers - grid.r_sponge) / span)
        self.sig_w = self.sigma * grid.weights
        sig_max = float(np.max(self.sigma))
        self.dt_sponge = 0.5 / sig_max if sig_max > 0 else np.inf
        self.viscous = 4.0 * base.mu / 3.0 + base.lam > 0.0
        # the step's constants, each the value it would otherwise recompute per step
        self.neg_lap = -_viscous_bands(grid)[:, None]
        self.cfl_h, self.mu43, self.lam = CFL * grid.h, base.mu * (4.0 / 3.0), base.lam
        cols = [(p.eps, p.eps**2, p.eps**p.alpha, p.eps**p.alpha * (4.0 * p.mu / 3.0 + p.lam),
                 c_ghost / p.eps) for p in params]
        cols, m, n = np.array(cols).T[..., None], len(cols), grid.n
        self.eps, self.eps2, _, self.visc_coef, self.c_ghost = cols
        self.eps_alpha = cols[2, :, 0]
        # the step's buffers for m members, their constant columns set once: the static ghost
        # has no deviation or convective flux and its wave speed is c_ghost; no flux crosses r = 0
        self.dev, self.x, self.fluxes, self.face_fluxes = np.zeros((4, 3, m, n + 1))
        self.spd = np.zeros((m, n + 1))
        self.spd[:, -1:], self.work = self.c_ghost, np.zeros((3, m, n))
        # the viscous solve, one system of size m n: its bands DL, D, DU and right-hand
        # side B, then N, NRHS, LDB and INFO; _solve_viscous reads their raw addresses
        self.tri, self.tri_ints = np.zeros((4, m, n)), np.array([m * n, 1, m * n, 0], np.int64)
        self.gtsv_args = None

    def pressure_gradient(self, p: np.ndarray) -> np.ndarray:
        """d/dr of the face means of cell pressures p (last axis); the origin
        face mirrors the first cell, the outer face pairs the last with the ghost."""
        pf = np.empty(p.shape[:-1] + (self.grid.n + 1,))
        pf[..., 0], pf[..., -1] = p[..., 0], p[..., -1] + self.p_ghost
        np.add(p[..., :-1], p[..., 1:], out=pf[..., 1:-1])
        pf[..., 1:] *= 0.5
        return (pf[..., 1:] - pf[..., :-1]) / self.grid.h


def _viscous_bands(grid: Grid) -> np.ndarray:
    """L = d/dr div, the viscous force per unit coefficient, as dgtsv's (DL, D, DU) rows.

    div u at an inner face differences r^2 u across it, is 3 u'(0) = 3 u_0 / r_0
    at the origin and copies its neighbour at the outer face, so L's last row is
    zero.  Row DL holds L[i+1, i] and DU L[i, i+1]; their entries past the last
    row are 0, the zero coupling of one member to the next in a stacked system.
    It keeps its own face divergence: `radial_divergence` in its place would change the scheme.
    """
    r2 = grid.centers * grid.centers
    h_faces2 = grid.h * grid.faces[1:-1] ** 2
    right, left = r2[1:] / h_faces2, r2[:-1] / h_faces2  # an inner face's weights
    bands = np.zeros((3, grid.n))
    bands[0, :-2] = left[:-1]
    bands[1, :-1] = -left - np.append(3.0 / grid.centers[0], right[:-1])
    bands[2, :-1] = right
    return bands / grid.h


def sound_speed(state: PrimitiveState, params, q_pow: np.ndarray | None = None) -> np.ndarray:
    """Scaled characteristic speed sqrt(p'(q) Theta) / eps; params may be a PrimitiveAux,
    and q_pow is max(q, 0)**(gamma - 1) if the caller has it."""
    gamma = params.gamma
    if q_pow is None:
        q_pow = np.maximum(state.q, 0.0) ** (gamma - 1.0)
    c2 = gamma * q_pow * state.theta
    return np.sqrt(np.maximum(c2, 0.0)) / params.eps


def suggested_dt(speed: np.ndarray, aux: PrimitiveAux) -> np.ndarray:
    """Per member, min of the hyperbolic (cell wave speed |u| + c) and sponge limits.
    The viscous force is implicit and sets no limit."""
    return np.minimum(aux.cfl_h / speed.max(axis=-1), aux.dt_sponge)


def _rusanov_fluxes(state, u, dev, aux):
    """Face fluxes 0.5 (X_l + X_r) - 0.5 a (D_r - D_l) in aux.fluxes, a (3, m, n+1) array.

    X = (mom, mom u, q u); D = (rho - rho0, mom, q - rho0) is dev without
    its outer ghost column (the static ghost: no flux, no deviation).  The
    face speed a = max(|u_l| + c_l, |u_r| + c_r) comes from the cell speeds
    the step left in aux.spd.
    """
    x, spd = aux.x, aux.spd
    x[0, :, :-1] = state.mom
    np.multiply(state.fields[1:], u, out=x[1:, :, :-1])
    jump = np.subtract(dev[..., 1:], dev[..., :-1], out=aux.work)
    jump *= 0.5 * np.maximum(spd[:, :-1], spd[:, 1:])
    np.subtract(0.5 * (x[..., :-1] + x[..., 1:]), jump, out=aux.fluxes[..., 1:])
    return aux.fluxes


def _solve_viscous(
    new: np.ndarray, rho_f: np.ndarray, coef: np.ndarray, aux: PrimitiveAux
) -> int:
    """Set mom = rho_f u in new[1], where (diag rho_f - coef L) u = new[1] per member;
    returns dgtsv's INFO, and leaves new[1] alone unless it is 0.

    The m systems are one block-diagonal system of size m n, one dgtsv call.
    L's off-diagonal entries are positive and every column but the last sums
    to zero or less, so the matrix is strictly column diagonally dominant
    except in the last column, whose sub-diagonal entry is 0: dgtsv swaps no
    rows and solves each block as it would alone.  LAPACK overwrites the
    bands, so they are refilled on every call.
    """
    tri = aux.tri
    np.multiply(aux.neg_lap, coef, out=tri[:3])
    tri[1] += rho_f
    np.copyto(tri[3], new[1])
    if aux.gtsv_args is None:
        ints, reals, size = aux.tri_ints.ctypes.data, tri.ctypes.data, 8 * tri[0].size
        aux.gtsv_args = (ints, ints + 8, reals, reals + size, reals + 2 * size,
                         reals + 3 * size, ints + 16, ints + 24)
    lapack.DGTSV(*aux.gtsv_args)
    if aux.tri_ints[3] != 0:
        return int(aux.tri_ints[3])
    np.multiply(tri[3], rho_f, out=new[1])
    return 0


def step_primitive(
    state: PrimitiveState, aux: PrimitiveAux, dt_max: np.ndarray, u: np.ndarray | None = None
) -> tuple[PrimitiveState, np.ndarray, np.ndarray, np.ndarray]:
    """One IMEX Euler update of every member of a stack.

    state.rho, mom and q are (m, n), state.t and dt_max (m,), and u is
    state.velocity if the caller has it.  u, |u| + c and the static
    deviations are computed once; dt = min(suggested_dt, dt_max) per
    member.  Convection, pressure-gravity and the sponge are explicit; the
    viscous force is then taken at the new time by one tridiagonal solve.
    Returns the new state with its rho_f, dt (m,), the outer-face (mass,
    rho Theta) fluxes per unit area (2, m) and the sponge's (mass, rho
    Theta) sink rates (2, m), for the ledgers: fresh arrays, none a view of
    aux's buffers.
    """
    grid, fields = aux.grid, state.fields
    u = state.velocity if u is None else u
    q_pow = state.q ** (aux.gamma - 1.0)  # states are validated: q > 0
    speed = np.abs(u, out=aux.spd[:, :-1])
    speed += sound_speed(state, aux, q_pow)
    dt = np.minimum(suggested_dt(speed, aux), dt_max)
    col, dev, work = dt[:, None], aux.dev, aux.work
    np.subtract(fields, aux.static, out=dev[..., :-1])

    fluxes = _rusanov_fluxes(state, u, dev, aux)
    area_fluxes = np.multiply(fluxes, grid.face_areas, out=aux.face_fluxes)
    np.subtract(area_fluxes[..., 1:], area_fluxes[..., :-1], out=work)
    work *= col
    work /= grid.weights
    new = fields - work

    # pressure/gravity pairing: gravity is (rho/rho0) times the static
    # pressure gradient, so the static state cancels exactly
    new[1] -= (col / aux.eps2) * (
        aux.pressure_gradient(state.q * q_pow) - (state.rho / aux.prof.rho0) * aux.grad_p0
    )

    # sponge relaxation toward the static far field
    dev = dev[..., :-1]
    new -= np.multiply(dev, col * aux.sigma, out=work)

    t = state.t + dt
    if not new[::2].min() > 0.0 or not np.isfinite(new).all():  # a NaN fails the first test
        nonpositive = np.any(new[::2] <= 0.0, axis=(0, 2))
        j = int(np.argmax(nonpositive | ~np.all(np.isfinite(new), axis=(0, 2))))
        what = "nonpositive density" if nonpositive[j] else "non-finite state"
        out = PrimitiveState.of(new[:, j], float(t[j]))
        raise SolverFailure(f"{what} after update at t={out.t}", out, member=j)
    rho_f = np.maximum(new[0], RHO_FLOOR)

    # viscous force (4/3 + lam) eps^alpha d/dr (div u), backward Euler in u
    if aux.viscous and (info := _solve_viscous(new, rho_f, col * aux.visc_coef, aux)):
        j = (abs(info) - 1) // grid.n
        out = PrimitiveState.of(new[:, j], float(t[j]))
        raise SolverFailure(f"viscous solve failed (LAPACK dgtsv info = {info}) at t={out.t}",
                            out, member=j)
    sinks = (aux.sig_w * dev[::2]).sum(axis=-1)
    return PrimitiveState.of(new, t, rho_f), dt, fluxes[::2, :, -1].copy(), sinks


def enthalpy(z: np.ndarray, gamma: float) -> np.ndarray:
    """H(Z) = Z**gamma / (gamma - 1), the pressure potential."""
    return z**gamma / (gamma - 1.0)


def total_energy(state: PrimitiveState, prof: StaticProfile, params: ScalingParams) -> float:
    """Scaled total energy relative to the static state.

    E = int [ rho |u|^2 / 2 + (H(q) - H'(rho0)(rho - rho0) - H(rho0)) / eps^2 ].
    """
    gamma = params.gamma
    kin = 0.5 * state.rho * state.velocity**2
    dh0 = gamma * prof.rho0 ** (gamma - 1.0) / (gamma - 1.0)
    bracket = enthalpy(state.q, gamma) - dh0 * (state.rho - prof.rho0) - enthalpy(
        prof.rho0, gamma
    )
    return integrate(kin + bracket / params.eps**2, prof.grid)


def viscous_dissipation_rate(u: np.ndarray, aux: PrimitiveAux) -> np.ndarray:
    """eps^alpha int S(grad u) : grad u for each member's radial velocity row of u.

    With lam = 0 the bulk term lam (div u)^2 would add +0.0 to a non-negative
    density, which changes no bit, so it is skipped.  The density is formed in
    place: the fold passes whole blocks of steps.
    """
    grid = aux.grid
    dens, u_r = radial_strain(u, grid)
    dens -= u_r
    del u_r
    dens **= 2
    dens *= aux.mu43
    if aux.lam != 0.0:
        dens += aux.lam * radial_divergence(u, grid) ** 2
    return aux.eps_alpha * integrate(dens, grid)


@dataclass
class PrimitiveTrajectory:
    """Per-run conservation and energy bookkeeping, one entry per sample time, the
    cumulative series in the order of run_lockstep's ledger; and the state at the horizon."""

    params: ScalingParams
    times: np.ndarray
    energy: np.ndarray
    mass: np.ndarray
    q_mass: np.ndarray
    dissipation: np.ndarray  # cumulative viscous dissipation at samples
    n3_integral: np.ndarray  # cumulative int ||sqrt(rho/rho0) u||^2_{L2(K)} dt
    sponge_mass: np.ndarray  # cumulative sponge mass sink at samples
    sponge_q: np.ndarray
    outer_mass_flux: np.ndarray  # cumulative convective outflow at samples
    outer_q_flux: np.ndarray
    final: PrimitiveState  # a copy of the last sample: the state at the horizon, or at t = 0
    step_count: int = 0


def run_lockstep(
    inits, prof: StaticProfile, params, sample_times: np.ndarray, consumers
) -> list[PrimitiveTrajectory]:
    """Advance members that differ only in eps from t = 0 to the horizon sample_times[-1].

    Rows reduce along their own C-contiguous last axis, so each member is bit for
    bit its run alone.  Each member steps at its own stable dt, the last step cut at
    the horizon.  A sample time t_k in a step from a at t_a to b gets the dense output
    a + theta (b - a), theta = (t_k - t_a) / dt, and the ledger L_b - (1 - theta) dL,
    dL the step's increments (Hairer, Norsett & Wanner, Solving ODEs I, II.6), or b
    and L_b at the step's end: the mass and rho Theta budgets, linear in both, close
    to round-off.  The dissipation and N3 rates (N3 on the ball of radius
    grid.default_compact_radius) use the trapezoidal rule; a SolverFailure names the
    failing member.  An iteration keeps the step's u, N3 integrand, dt, sinks and
    fluxes as one row of a block, folded into the ledger when it is full or its step
    reaches a sample.

    Samples stream: once member j has written a row_blocks block, its energy and mass
    rows are taken on it and each consume of consumers[j] is called as consume(rows,
    block), block a stacked state of views that the member's next block overwrites.
    A member that reaches the horizon leaves the stack, and the step buffers are made
    afresh for the members that stay.
    """
    for j, init in enumerate(inits):
        init.validate(member=j)
    aux, grid = PrimitiveAux(prof, params), prof.grid
    sample_times = np.array(sample_times, dtype=float)
    if sample_times[0] != 0.0 or np.any(np.diff(sample_times) <= 0.0):
        raise DomainError("sample times must start at 0 and increase")
    nk = np.count_nonzero(grid.ball_mask(grid.default_compact_radius))  # K: a prefix of the cells
    w_k, area_out = grid.weights[:nk] / prof.rho0[:nk], grid.face_areas[-1]

    def n3_rate(x: np.ndarray) -> np.ndarray:
        """int_K (rho/rho0) u^2 per row, from (and over) x = mom u on K, as x w / rho0."""
        x *= w_k
        return x.sum(axis=-1)

    m, size, horizon = len(inits), sample_times.size, sample_times[-1]
    state = PrimitiveState.of(np.stack([init.fields for init in inits], axis=1), np.zeros(m))
    u = state.velocity
    led = np.zeros((8, m))  # dissipation, N3, sponge and outflow (mass, q), the two rates
    led[6:] = viscous_dissipation_rate(u, aux), n3_rate(state.mom[:, :nk] * u[:, :nk])
    # per step of the block, live members first: u, mom u on K and (dt, sinks, fluxes)
    blk_u, blk_k = np.empty((_BLOCK, m, grid.n)), np.empty((_BLOCK, m, nk))
    blk_s = np.empty((_BLOCK, 5, m))
    steps, written = np.zeros((2, m), dtype=int)  # per member: steps taken, samples written
    block_of = [rows for rows in row_blocks(size) for _ in range(rows.stop - rows.start)]
    buffer = np.empty((3, m, ROW_BLOCK + 1, grid.n))  # each member's rows of its open block
    ledger = np.empty((m, 9, size))  # PrimitiveTrajectory series order: energy, masses, led[:6]
    final = [None] * m

    def fold(rows):
        """Add the block's first rows onto led, the live members' (8, j) ledger."""
        j = led.shape[1]
        blk, inc = blk_s[:rows, :, :j], np.empty((rows + 1, 8, j))
        # row 0 is the carried ledger, row i + 1 step i's increments and new rates
        inc[0], inc[1:, 7] = led, n3_rate(blk_k[:rows, :j])
        inc[1:, 6] = viscous_dissipation_rate(blk_u[:rows, :j], aux)
        dt = blk[:, :1]  # per-step operand order: (0.5 dt)(prev + rate), dt sink, (dt area) flux
        np.multiply(0.5 * dt, inc[:-1, 6:] + inc[1:, 6:], out=inc[1:, :2])
        np.multiply(dt, blk[:, 1:3], out=inc[1:, 2:4])
        np.multiply(dt * area_out, blk[:, 3:], out=inc[1:, 4:6])
        led[:6], led[6:] = np.add.accumulate(inc[:, :6])[-1], inc[-1, 6:]
        return inc[-1, :6]  # the last step's increments

    def put(j, fields, cumulative):
        """Write member j's next sample; hand its block to consumers[j] once complete."""
        k = written[j]
        rows, written[j] = block_of[k], k + 1
        buffer[:, j, k - rows.start], ledger[j, 3:, k] = fields, cumulative
        if k + 1 == size:  # the horizon: a copy of the member's state there
            final[j] = PrimitiveState(*fields, t=sample_times[k])
        if k + 1 == rows.stop:
            block = PrimitiveState.of(buffer[:, j, : rows.stop - rows.start], sample_times[rows])
            ledger[j, 0, rows] = total_energy(block, prof, params[j])
            ledger[j, 1:3, rows] = integrate(block.fields[::2], grid)
            for consume in consumers[j]:
                consume(rows, block)

    for j in range(m):
        put(j, state.fields[:, j], led[:6, j])
    reach = np.append(sample_times[:-1], (horizon - 1.0e-13, np.inf))  # horizon: within round-off
    live = np.arange(m if size > 1 else 0)
    due, taken, row = reach[written[live]], 0, 0  # due: each member's next reach
    while live.size:
        try:
            new, dt, flux, sink = step_primitive(state, aux, horizon - state.t, u)
        except SolverFailure as exc:
            exc.member = int(live[exc.member])
            raise
        taken, j = taken + 1, live.size
        u = np.divide(new.mom, new.rho_f, out=blk_u[row, :j])
        np.multiply(new.mom[:, :nk], u[:, :nk], out=blk_k[row, :j])
        blk_s[row, 0, :j], blk_s[row, 1:3, :j], blk_s[row, 3:, :j] = dt, sink, flux
        crossing, row = np.flatnonzero(new.t >= due), row + 1
        if crossing.size or row == _BLOCK:
            inc, row = fold(row), 0
        for i in crossing:
            a, b = state.fields[:, i], new.fields[:, i]
            end = np.searchsorted(reach, new.t[i], "right")
            for t_k in sample_times[written[live[i]] : end]:
                theta = (t_k - state.t[i]) / dt[i]
                if theta < 1.0:
                    put(live[i], a + theta * (b - a), led[:6, i] - (1.0 - theta) * inc[:, i])
                else:  # the step's end, which a cut last step may pass by round-off
                    put(live[i], b, led[:6, i])
            due[i] = reach[end]
        state = new
        if crossing.size and not (stay := due < np.inf).all():  # members done leave the stack
            steps[live[~stay]], live = taken, live[stay]
            if not live.size:
                break
            state = PrimitiveState.of(new.fields[:, stay], new.t[stay], new.rho_f[stay])
            led, u, due = led[:, stay], u[stay], due[stay]
            aux = PrimitiveAux(prof, [params[i] for i in live])

    return [
        PrimitiveTrajectory(p, sample_times, *ledger[j], final[j], int(steps[j]))
        for j, p in enumerate(params)
    ]


def run_primitive(
    init: PrimitiveState, prof: StaticProfile, params: ScalingParams, sample_times: np.ndarray,
    consumers,
) -> PrimitiveTrajectory:
    """run_lockstep with one member: one run, its samples streamed to consumers."""
    [traj] = run_lockstep([init], prof, [params], sample_times, [consumers])
    return traj
