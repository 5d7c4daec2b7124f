"""Weighted-projection solver for the limit system.

The limit flow keeps div(rho0 V) = 0 while temperature is transported and
feeds back through the buoyancy -T grad F.  Each step is a predictor
(explicit advection plus buoyancy) followed by the weighted Helmholtz
projection, whose potential divided by dt is the pressure multiplier.
Temperature moves by conservative first-order upwinding of rho0 * T with
the projected face fluxes, so its extrema cannot expand beyond the
projection tolerance; the density R = rho0 / T is derived.

A run keeps its samples stacked, as the primitive run does; the
divergence norms, the density and each smoothness surrogate are one
array pass over the stack, bit for bit what each sample alone gives.

In radial geometry every admissible velocity is a gradient, so V vanishes
identically for all time, temperature is frozen, and grad Pi balances
-T grad F exactly; the epsilon-sweep harness uses this as its closed-form
reference.  The cartesian mode stores V on the staggered (MAC) faces and
admits a nontrivial solenoidal velocity; its weighted projection is an
acceptance gate (c03), and simulate-anelastic runs it with --experimental.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import along, integrate, mean_cells, mean_faces, upwind_faces
from .helmholtz import (
    DEFAULT_TOL,
    StaggeredVector,
    centers_to_faces,
    project,
    project_radial_faces,
)
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
    """Project the raw velocity and set temperature/density from theta20."""
    grid = prof.grid
    grid.check_aligned(theta20)
    if np.any(theta20 <= 0.0):
        raise DataError("initial temperature must be strictly positive")
    if grid.radial:
        grid.check_aligned(v0)
        v_faces, _ = project_radial_faces(centers_to_faces(v0, grid), prof)
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


def _predict(
    face: np.ndarray,
    adv: np.ndarray,
    temperature: np.ndarray,
    prof: StaticProfile,
    axis: int,
    dt: float,
) -> np.ndarray:
    """Face velocity along axis after explicit advection adv and buoyancy -T grad F.

    The boundary faces carry no flow.
    """
    first, last = along(axis, face.ndim)[3:]
    pred = face + dt * (-adv - mean_faces(temperature, axis) * prof.face_grad_F[axis])
    pred[first] = 0.0
    pred[last] = 0.0
    return pred


def step_anelastic(
    state: AnelasticState, prof: StaticProfile, dt_max: float
) -> tuple[AnelasticState, float]:
    """Predict with advection and buoyancy, project, then move temperature.

    The step takes dt = min(dt_max, CFL * h / max |V|), so it is stable by
    construction, and returns the new state and that dt.
    """
    grid, v = prof.grid, state.velocity
    vmax = float(np.max(np.abs(v))) if grid.radial else v.max_abs()
    dt = min(dt_max, CFL * grid.h / vmax) if vmax > 0.0 else dt_max
    step = _step_radial if grid.radial else _step_cartesian
    v_new, phi, temp = step(state, prof, dt)
    return AnelasticState(velocity=v_new, pressure=phi / dt, temperature=temp, t=state.t + dt), dt


def _step_radial(state, prof, dt):
    """(V, Phi, T) at the new time; T moves by conservative upwinding of rho0 T."""
    grid, v = prof.grid, state.velocity
    adv = v * _upwind_derivative(v, v, -1, grid.h)
    v_new, phi = project_radial_faces(_predict(v, adv, state.temperature, prof, -1, dt), prof)
    mass_flux = grid.face_areas * prof.face_rho0 * v_new
    t_up = upwind_faces(state.temperature, v_new)
    temp = state.temperature - dt * np.diff(mass_flux * t_up) / (prof.rho0 * grid.weights)
    return v_new, phi, temp


def _step_cartesian(state, prof, dt):
    """(V, Phi, T) at the new time; advection uses cell-centered velocities."""
    h, v = prof.grid.h, state.velocity
    faces = (v.fx, v.fy, v.fz)
    uc = [mean_cells(face, axis) for axis, face in enumerate(faces)]
    parts = []
    for axis, face in enumerate(faces):
        adv = np.zeros_like(uc[axis])
        for ax in range(3):
            adv += uc[ax] * _upwind_derivative(uc[axis], uc[ax], ax, h)
        parts.append(_predict(face, mean_faces(adv, axis), state.temperature, prof, axis, dt))
    v_new, phi = project(StaggeredVector(*parts), prof)

    # conservative upwind transport of rho0 T with the projected fluxes
    flux_tot = np.zeros(prof.grid.field_shape)
    for axis, (face, rho_face) in enumerate(
        zip((v_new.fx, v_new.fy, v_new.fz), prof.laplacian.rho_faces)
    ):
        flux = rho_face * face * upwind_faces(state.temperature, face, axis)
        flux_tot += np.diff(flux, axis=axis) / h
    temp = state.temperature - dt * flux_tot / prof.rho0
    return v_new, phi, temp


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

        Below the projection tolerance V is solver round-off (always, in
        radial mode) and the ratio measures nothing.
        """
        out = np.full(self.div_norms.shape, np.nan)
        live = self.flux_norms > DEFAULT_TOL
        out[live] = self.div_norms[live] / self.flux_norms[live]
        return out


def _fields(state: AnelasticState) -> tuple[np.ndarray, ...]:
    """The velocity components, pressure and temperature of a state."""
    v = state.velocity
    components = (v.fx, v.fy, v.fz) if isinstance(v, StaggeredVector) else (v,)
    return (*components, state.pressure, state.temperature)


def run_anelastic(
    init: AnelasticState,
    prof: StaticProfile,
    horizon: float,
    n_samples: int = 21,
) -> AnelasticTrajectory:
    """March the limit system with steps of at most the sample spacing.

    The samples are stacked as they are reached; || div(rho0 V) ||,
    || rho0 V || and the density are computed once over the stack.
    """
    times = np.linspace(0.0, horizon, n_samples)
    dt = times[1] - times[0] if n_samples > 1 else horizon
    stacks = [np.empty((n_samples, *f.shape)) for f in _fields(init)]
    state, t = init, 0.0
    for k, target in enumerate(times):
        while t < target - 1.0e-13:
            state, step = step_anelastic(state, prof, min(dt, target - t))
            t += step
        for stack, f in zip(stacks, _fields(state)):
            stack[k] = f
    *components, pressure, temperature = stacks
    samples = AnelasticState(
        velocity=components[0] if prof.grid.radial else StaggeredVector(*components),
        pressure=pressure,
        temperature=temperature,
        density=prof.rho0 / temperature,
        t=times,
    )
    div_norms, flux_norms = _div_norms(samples, prof)
    return AnelasticTrajectory(
        prof=prof, samples=samples, div_norms=div_norms, flux_norms=flux_norms
    )


def _div_norms(state: AnelasticState, prof: StaticProfile) -> tuple[np.ndarray, np.ndarray]:
    """(|| div(rho0 V) ||_2, || rho0 V ||_2), one value per sample when stacked.

    Cell quadrature for the divergence, the Laplacian's face measure for
    rho0 V, so their ratio does not scale with h.
    """
    grid, op = prof.grid, prof.laplacian
    if grid.radial:
        rho_v = prof.face_rho0 * state.velocity
        div = np.diff(grid.face_areas * rho_v) / grid.weights
        flux_sq = np.sum(rho_v * rho_v * op.face_weights, axis=-1)
    else:
        rho_v = op.rho_times(state.velocity)
        div = op.divergence(rho_v)
        flux_sq = op.face_inner(rho_v, rho_v)
    return np.sqrt(integrate(div * div, grid)), np.sqrt(flux_sq)


@dataclass
class SmoothnessReport:
    """Discrete Sobolev-type surrogates of the limit fields over time."""

    times: np.ndarray
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
    return SmoothnessReport(times=traj.times, surrogates=surrogates, blowup_flags=flags)
