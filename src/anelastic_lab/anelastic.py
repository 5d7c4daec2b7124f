"""The anelastic limit system: a radial closed form and a cartesian time loop.

The limit flow keeps div(rho0 V) = 0 while temperature is transported and
feeds back through the buoyancy -T grad F.  In radial geometry the flux
rho0 V vanishes at r = 0, so the only admissible velocity is V = 0:
temperature is frozen and grad Pi balances -T grad F.  run_anelastic
writes that closed form and takes no step; the epsilon-sweep harness
uses it as its reference.

The cartesian mode stores V on the staggered (MAC) faces and admits a
nontrivial solenoidal velocity, so only it has a time loop.  Each step is
a predictor (explicit advection plus buoyancy) followed by the weighted
Helmholtz projection, whose potential divided by dt is the pressure
multiplier.  Temperature moves by conservative first-order upwinding of
rho0 * T with the projected face fluxes, so its extrema cannot expand
beyond the projection tolerance; the density R = rho0 / T is derived.
The projection is an acceptance gate (c03), and simulate-anelastic runs
the loop with --experimental.

A run keeps its samples stacked, as the primitive run does; the
divergence norms, the density and each smoothness surrogate are one
array pass over the stack, bit for bit what each sample alone gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DomainError, along, integrate, mean_cells, mean_faces, upwind_faces
from .helmholtz import DEFAULT_TOL, StaggeredVector, project
from .hydrostatics import StaticProfile
from .primitive import DataError

CFL = 0.4  # advective limit dt <= CFL * h / max |V|
BLOWUP_FACTOR = 1.0e3  # smoothness surrogate growth that flags a blow-up


@dataclass
class AnelasticState:
    """Velocity (faces), pressure multiplier, temperature and density.

    Stacked samples carry a leading sample axis and their times in t.  The
    step leaves density unset; init and the stacked samples set rho0 / T.
    """

    velocity: object  # ndarray (n+1,) radial, StaggeredVector cartesian
    pressure: np.ndarray
    temperature: np.ndarray
    density: np.ndarray | None = None
    t: float | np.ndarray = 0.0


def init_anelastic(v0, theta20: np.ndarray, prof: StaticProfile) -> AnelasticState:
    """Project the raw velocity and set temperature/density from theta20.

    A radial velocity projects to V = 0, which is set without a solve.
    """
    grid = prof.grid
    grid.check_aligned(theta20)
    if not np.all(theta20 > 0.0):  # NaN fails too
        raise DataError("initial temperature must be strictly positive")
    if grid.radial:
        grid.check_aligned(v0)
        v_faces = np.zeros(grid.n + 1)
    else:
        v_faces = project(v0, prof)[0]
    return AnelasticState(
        velocity=v_faces,
        pressure=np.zeros(grid.field_shape),
        temperature=theta20.copy(),
        density=prof.rho0 / theta20,
        t=0.0,
    )


def _upwind_derivative(f: np.ndarray, vel: np.ndarray, axis: int, h: float) -> np.ndarray:
    """First-order upwind d f / d axis; a difference reaching past either end is 0."""
    lower, upper = along(axis, f.ndim)[:2]
    d = (f[upper] - f[lower]) / h
    fwd = np.zeros(f.shape)
    fwd[lower] = d
    back = np.zeros(f.shape)
    back[upper] = d
    return np.where(vel > 0.0, back, fwd)


def step_anelastic(
    state: AnelasticState, prof: StaticProfile, dt_max: float
) -> tuple[AnelasticState, float]:
    """One cartesian step: predict with advection and buoyancy, project, move temperature.

    The step takes dt = min(dt_max, CFL * h / max |V|), so it is stable by
    construction, and returns the new state and that dt.  Advection uses
    cell-centered velocities; the boundary faces of the predictor carry no
    flow.  Radial runs take no step (see run_anelastic).
    """
    grid, v = prof.grid, state.velocity
    if grid.radial:
        raise DomainError("the anelastic step runs in cartesian mode; radial runs are closed form")
    vmax = v.max_abs()
    dt = min(dt_max, CFL * grid.h / vmax) if vmax > 0.0 else dt_max
    faces = (v.fx, v.fy, v.fz)
    uc = [mean_cells(face, axis) for axis, face in enumerate(faces)]
    parts = []
    for axis, face in enumerate(faces):
        adv = np.zeros_like(uc[axis])
        for ax in range(3):
            adv += uc[ax] * _upwind_derivative(uc[axis], uc[ax], ax, grid.h)
        pred = face + dt * (
            -mean_faces(adv, axis) - mean_faces(state.temperature, axis) * prof.face_grad_F[axis]
        )
        first, last = along(axis, pred.ndim)[3:]
        pred[first] = 0.0
        pred[last] = 0.0
        parts.append(pred)
    v_new, phi = project(StaggeredVector(*parts), prof)

    # conservative upwind transport of rho0 T with the projected fluxes
    flux_tot = np.zeros(grid.field_shape)
    for axis, (face, rho_face) in enumerate(
        zip((v_new.fx, v_new.fy, v_new.fz), prof.laplacian.rho_faces)
    ):
        flux = rho_face * face * upwind_faces(state.temperature, face, axis)
        flux_tot += np.diff(flux, axis=axis) / grid.h
    temp = state.temperature - dt * flux_tot / prof.rho0
    return AnelasticState(velocity=v_new, pressure=phi / dt, temperature=temp, t=state.t + dt), dt


@dataclass
class AnelasticTrajectory:
    """Stacked samples (samples.t holds the sample times) and their norms."""

    prof: StaticProfile
    samples: AnelasticState
    div_norms: np.ndarray  # || div(rho0 V) || per sample
    flux_norms: np.ndarray  # || rho0 V || per sample

    @property
    def times(self) -> np.ndarray:
        return self.samples.t

    @property
    def divergence_defects(self) -> np.ndarray:
        """|| div(rho0 V) || / || rho0 V ||, NaN where || rho0 V || <= DEFAULT_TOL.

        Below the projection tolerance V is zero (always, in radial mode) or
        solver round-off, and the ratio measures nothing.
        """
        out = np.full(self.div_norms.shape, np.nan)
        live = self.flux_norms > DEFAULT_TOL
        out[live] = self.div_norms[live] / self.flux_norms[live]
        return out


def _radial_samples(init: AnelasticState, prof: StaticProfile, times) -> AnelasticState:
    """The radial closed form at each time: V = 0, T frozen, grad Pi = -T grad F.

    Pi is summed inward from 0 in the outer cell: the potential of one
    projection of the buoyancy predictor, whose outer face carries no flow,
    divided by dt.  Sample 0 keeps the initial state's pressure.
    """
    pi = np.zeros(prof.grid.n)
    pi[:-1] = np.cumsum((mean_faces(init.temperature)[1:-1] * np.diff(prof.F))[::-1])[::-1]
    pressure = np.tile(pi, (times.size, 1))
    pressure[0] = init.pressure
    return AnelasticState(
        velocity=np.zeros((times.size, prof.grid.n + 1)),
        pressure=pressure,
        temperature=np.tile(init.temperature, (times.size, 1)),
        t=times,
    )


def _fields(state: AnelasticState) -> tuple[np.ndarray, ...]:
    """The velocity components, pressure and temperature of a cartesian state."""
    v = state.velocity
    return v.fx, v.fy, v.fz, state.pressure, state.temperature


def _cartesian_samples(init: AnelasticState, prof: StaticProfile, times) -> AnelasticState:
    """March with steps of at most the sample spacing, stacking each sample as it is reached."""
    dt = times[1] - times[0] if times.size > 1 else times[-1]
    stacks = [np.empty((times.size, *f.shape)) for f in _fields(init)]
    state, t = init, 0.0
    for k, target in enumerate(times):
        while t < target - 1.0e-13:
            state, step = step_anelastic(state, prof, min(dt, target - t))
            t += step
        for stack, f in zip(stacks, _fields(state)):
            stack[k] = f
    fx, fy, fz, pressure, temperature = stacks
    return AnelasticState(StaggeredVector(fx, fy, fz), pressure, temperature, t=times)


def run_anelastic(
    init: AnelasticState,
    prof: StaticProfile,
    horizon: float,
    n_samples: int,
) -> AnelasticTrajectory:
    """Sample the limit flow at n_samples times spread evenly over [0, horizon].

    Radial runs write the closed form; cartesian runs march.  The samples
    are stacked; || div(rho0 V) ||, || rho0 V || and the density are
    computed once over the stack.
    """
    times = np.linspace(0.0, horizon, n_samples)
    samples = (_radial_samples if prof.grid.radial else _cartesian_samples)(init, prof, times)
    samples.density = prof.rho0 / samples.temperature
    div_norms, flux_norms = _div_norms(samples, prof)
    return AnelasticTrajectory(
        prof=prof, samples=samples, div_norms=div_norms, flux_norms=flux_norms
    )


def _div_norms(state: AnelasticState, prof: StaticProfile) -> tuple[np.ndarray, np.ndarray]:
    """(|| div(rho0 V) ||_2, || rho0 V ||_2), one value per sample when stacked.

    Cell quadrature for the divergence, the Laplacian's face measure for
    rho0 V, so their ratio does not scale with h.  Radial V is exactly 0,
    and so are both norms.
    """
    grid = prof.grid
    if grid.radial:
        return np.zeros(state.velocity.shape[:-1]), np.zeros(state.velocity.shape[:-1])
    op = prof.laplacian
    rho_v = op.rho_times(state.velocity)
    div = op.divergence(rho_v)
    return np.sqrt(integrate(div * div, grid)), np.sqrt(op.face_inner(rho_v, rho_v))


@dataclass
class SmoothnessReport:
    """Discrete Sobolev-type surrogates of the limit fields over time."""

    surrogates: dict
    blowup_flags: dict

    @property
    def any_blowup(self) -> bool:
        return any(self.blowup_flags.values())


def smoothness_monitor(traj: AnelasticTrajectory) -> SmoothnessReport:
    """Track sums of squared differences up to second order for V, Pi, R.

    Each surrogate is one pass over the stacked samples, summed over the
    field axes.  A field is flagged when its surrogate grows beyond
    BLOWUP_FACTOR times its initial value (fields starting at zero are
    compared to the largest surrogate seen instead).
    """
    grid, samples = traj.prof.grid, traj.samples
    axes = grid.field_axes

    def surrogate(f: np.ndarray) -> np.ndarray:
        total = np.sum(f * f, axis=axes)
        work = f
        for _ in range(2):
            grads = [np.diff(work, axis=ax) / grid.h for ax in axes]
            total += sum(np.sum(g * g, axis=axes) for g in grads)
            work = grads[0]
        return total

    v = samples.velocity
    if grid.radial:
        vmag = mean_cells(v)
    else:
        vmag = np.sqrt(
            mean_cells(v.fx, -3) ** 2 + mean_cells(v.fy, -2) ** 2 + mean_cells(v.fz, -1) ** 2
        )
    surrogates = {
        "velocity": surrogate(vmag),
        "pressure": surrogate(samples.pressure),
        "density": surrogate(samples.density),
    }
    flags = {}
    for k, arr in surrogates.items():
        base = arr[0] if arr[0] > 0.0 else float(np.max(arr))
        flags[k] = bool(base > 0.0 and float(np.max(arr)) > BLOWUP_FACTOR * base)
    return SmoothnessReport(surrogates=surrogates, blowup_flags=flags)
