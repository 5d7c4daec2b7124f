"""Weighted-projection solver for the limit system.

The limit flow keeps div(rho0 V) = 0 while temperature is transported and
feeds back through the buoyancy -T grad F.  Each step is a predictor
(explicit advection plus buoyancy) followed by the weighted Helmholtz
projection, whose potential divided by dt is the pressure multiplier.
Temperature moves by conservative first-order upwinding of rho0 * T with
the projected face fluxes, so its extrema cannot expand beyond the
projection tolerance; the density R = rho0 / T is derived.

In radial geometry every admissible velocity is a gradient, so V vanishes
identically for all time, temperature is frozen, and grad Pi balances
-T grad F exactly; the epsilon-sweep harness uses this as its closed-form
reference.  The cartesian mode exists for experiments with a nontrivial
solenoidal velocity and is not on the acceptance path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, integrate
from .helmholtz import (
    DEFAULT_TOL,
    CartesianWeightedLaplacian,
    StaggeredVector,
    centers_to_faces,
    project,
    project_radial_faces,
    solve_weighted_poisson,
)
from .hydrostatics import StaticProfile
from .primitive import DataError

CFL = 0.4  # advective limit dt <= CFL * h / max |V|
BLOWUP_FACTOR = 1.0e3  # smoothness surrogate growth that flags a blow-up


@dataclass
class AnelasticState:
    """Velocity (faces), pressure multiplier, temperature and density."""

    velocity: object  # ndarray (n+1,) radial, StaggeredVector cartesian
    pressure: np.ndarray
    temperature: np.ndarray
    density: np.ndarray
    t: float = 0.0


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


def _radial_upwind_temperature(
    temp: np.ndarray, v_faces: np.ndarray, prof: StaticProfile, dt: float
) -> np.ndarray:
    """Conservative upwind transport of rho0 T by the solenoidal face flux."""
    grid = prof.grid
    mass_flux = grid.face_areas * prof.face_rho0 * v_faces
    t_up = np.empty(grid.n + 1)
    t_up[1:-1] = np.where(v_faces[1:-1] > 0.0, temp[:-1], temp[1:])
    t_up[0] = temp[0]
    t_up[-1] = temp[-1]
    return temp - dt * np.diff(mass_flux * t_up) / (prof.rho0 * grid.weights)


def _radial_advect_faces(v_faces: np.ndarray, grid: Grid) -> np.ndarray:
    """First-order upwind V dV/dr on interior faces."""
    h = grid.h
    out = np.zeros_like(v_faces)
    back = (v_faces[1:-1] - v_faces[:-2]) / h
    fwd = (v_faces[2:] - v_faces[1:-1]) / h
    out[1:-1] = v_faces[1:-1] * np.where(v_faces[1:-1] > 0.0, back, fwd)
    return out


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
    return step(state, prof, dt), dt


def _step_radial(state, prof, dt):
    grid, v = prof.grid, state.velocity
    t_face = np.empty(grid.n + 1)
    t_face[1:-1] = 0.5 * (state.temperature[:-1] + state.temperature[1:])
    t_face[0] = state.temperature[0]
    t_face[-1] = state.temperature[-1]
    grad_f = np.zeros(grid.n + 1)
    grad_f[1:-1] = np.diff(prof.F) / grid.h
    predictor = v + dt * (-_radial_advect_faces(v, grid) - t_face * grad_f)
    predictor[0] = 0.0
    predictor[-1] = 0.0
    v_new, phi = project_radial_faces(predictor, prof)
    temp = _radial_upwind_temperature(state.temperature, v_new, prof, dt)
    return AnelasticState(
        velocity=v_new,
        pressure=phi / dt,
        temperature=temp,
        density=prof.rho0 / temp,
        t=state.t + dt,
    )


def _axis_slices(axis, sl):
    out = [slice(None)] * 3
    out[axis] = sl
    return tuple(out)


def _cart_face_avg(field: np.ndarray, axis: int) -> np.ndarray:
    """Cell field to faces along axis (copy at boundary faces)."""
    n = field.shape[axis]
    lo = field[_axis_slices(axis, slice(0, n - 1))]
    hi = field[_axis_slices(axis, slice(1, n))]
    shape = list(field.shape)
    shape[axis] = n + 1
    out = np.empty(shape)
    out[_axis_slices(axis, slice(1, n))] = 0.5 * (lo + hi)
    out[_axis_slices(axis, 0)] = field[_axis_slices(axis, 0)]
    out[_axis_slices(axis, n)] = field[_axis_slices(axis, n - 1)]
    return out


def _cart_upwind_derivative(f: np.ndarray, vel: np.ndarray, axis: int, h: float):
    """First-order upwind d f / d axis with zero-gradient extension."""
    fwd = np.empty_like(f)
    back = np.empty_like(f)
    n = f.shape[axis]
    fwd[_axis_slices(axis, slice(0, n - 1))] = (
        f[_axis_slices(axis, slice(1, n))] - f[_axis_slices(axis, slice(0, n - 1))]
    ) / h
    fwd[_axis_slices(axis, n - 1)] = 0.0
    back[_axis_slices(axis, slice(1, n))] = (
        f[_axis_slices(axis, slice(1, n))] - f[_axis_slices(axis, slice(0, n - 1))]
    ) / h
    back[_axis_slices(axis, 0)] = 0.0
    return np.where(vel > 0.0, back, fwd)


def _step_cartesian(state, prof, dt):
    grid = prof.grid
    op = CartesianWeightedLaplacian(grid, prof.rho0)
    v: StaggeredVector = state.velocity
    h = grid.h

    # cell-centered velocity for the advective derivatives
    uc = [
        0.5 * (v.fx[:-1, :, :] + v.fx[1:, :, :]),
        0.5 * (v.fy[:, :-1, :] + v.fy[:, 1:, :]),
        0.5 * (v.fz[:, :, :-1] + v.fz[:, :, 1:]),
    ]

    parts = []
    for comp, (face, axis) in enumerate(((v.fx, 0), (v.fy, 1), (v.fz, 2))):
        adv = np.zeros_like(uc[comp])
        for ax in range(3):
            adv += uc[ax] * _cart_upwind_derivative(uc[comp], uc[ax], ax, h)
        t_face = _cart_face_avg(state.temperature, axis)
        df = np.zeros_like(face)
        n = grid.n
        df[_axis_slices(axis, slice(1, n))] = (
            np.diff(prof.F, axis=axis) / h
        )
        adv_face = _cart_face_avg(adv, axis)
        pred = face + dt * (-adv_face - t_face * df)
        pred[_axis_slices(axis, 0)] = 0.0
        pred[_axis_slices(axis, n)] = 0.0
        parts.append(pred)
    predictor = StaggeredVector(*parts)

    rhs = op.divergence(op.rho_times(predictor))
    phi = solve_weighted_poisson(op, rhs)
    v_new = predictor.axpy(-1.0, op.gradient(phi))

    # conservative upwind transport of rho0 T with the projected fluxes
    flux_tot = np.zeros(grid.field_shape)
    for axis, (face, rho_face) in enumerate(
        ((v_new.fx, op.rho_faces[0]), (v_new.fy, op.rho_faces[1]), (v_new.fz, op.rho_faces[2]))
    ):
        n = grid.n
        t_up = np.empty_like(face)
        t_lo = state.temperature[_axis_slices(axis, slice(0, n - 1))]
        t_hi = state.temperature[_axis_slices(axis, slice(1, n))]
        inner = _axis_slices(axis, slice(1, n))
        t_up[inner] = np.where(face[inner] > 0.0, t_lo, t_hi)
        t_up[_axis_slices(axis, 0)] = state.temperature[_axis_slices(axis, 0)]
        t_up[_axis_slices(axis, n)] = state.temperature[_axis_slices(axis, n - 1)]
        flux = rho_face * face * t_up
        flux_tot += np.diff(flux, axis=axis) / h
    temp = state.temperature - dt * flux_tot / prof.rho0
    return AnelasticState(
        velocity=v_new,
        pressure=phi / dt,
        temperature=temp,
        density=prof.rho0 / temp,
        t=state.t + dt,
    )


@dataclass
class AnelasticTrajectory:
    prof: StaticProfile
    times: np.ndarray
    states: list
    div_norms: np.ndarray  # || div(rho0 V) || per sample
    flux_norms: np.ndarray  # || rho0 V || per sample

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


def run_anelastic(
    init: AnelasticState,
    prof: StaticProfile,
    horizon: float,
    n_samples: int = 21,
    dt: float | None = None,
) -> AnelasticTrajectory:
    """March the limit system, recording || div(rho0 V) || and || rho0 V ||."""
    times = np.linspace(0.0, horizon, n_samples)
    if dt is None:
        dt = times[1] - times[0] if n_samples > 1 else horizon
    state = init
    states = [init]
    norms = [_div_norms(init, prof)]
    t = 0.0
    for target in times[1:]:
        while t < target - 1.0e-13:
            state, step = step_anelastic(state, prof, min(dt, target - t))
            t += step
        states.append(state)
        norms.append(_div_norms(state, prof))
    div_norms, flux_norms = np.asarray(norms).T
    return AnelasticTrajectory(
        prof=prof, times=times, states=states, div_norms=div_norms, flux_norms=flux_norms
    )


def _div_norms(state: AnelasticState, prof: StaticProfile) -> tuple[float, float]:
    """(|| div(rho0 V) ||_2, || rho0 V ||_2).

    Cell quadrature for the divergence, the Laplacian's face measure for
    rho0 V, so their ratio does not scale with h.
    """
    grid = prof.grid
    if grid.radial:
        rho_v = prof.face_rho0 * state.velocity
        div = np.diff(grid.face_areas * rho_v) / grid.weights
        face_w = prof.laplacian.face_weights
        scale = float(np.sqrt(np.sum(rho_v * rho_v * face_w)))
    else:
        op = CartesianWeightedLaplacian(grid, prof.rho0)
        rho_v = op.rho_times(state.velocity)
        div = op.divergence(rho_v)
        scale = float(np.sqrt(op.face_inner(rho_v, rho_v)))
    return float(np.sqrt(integrate(div * div, grid))), scale


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

    A field is flagged when its surrogate grows beyond BLOWUP_FACTOR times
    its initial value (fields starting at zero are compared to the largest
    surrogate seen instead).
    """
    grid = traj.prof.grid

    def surrogate(f: np.ndarray) -> float:
        total = float(np.sum(f * f))
        work = f
        for _ in range(2):
            if grid.radial:
                work = np.diff(work) / grid.h
                total += float(np.sum(work * work))
            else:
                grads = [
                    np.diff(work, axis=ax) / grid.h for ax in range(3)
                ]
                total += sum(float(np.sum(g * g)) for g in grads)
                work = grads[0]
        return total

    names = ("velocity", "pressure", "density")
    series: dict = {name: [] for name in names}
    for state in traj.states:
        if grid.radial:
            vmag = 0.5 * (state.velocity[:-1] + state.velocity[1:])
        else:
            v = state.velocity
            vmag = np.sqrt(
                (0.5 * (v.fx[:-1] + v.fx[1:])) ** 2
                + (0.5 * (v.fy[:, :-1] + v.fy[:, 1:])) ** 2
                + (0.5 * (v.fz[:, :, :-1] + v.fz[:, :, 1:])) ** 2
            )
        series["velocity"].append(surrogate(vmag))
        series["pressure"].append(surrogate(state.pressure))
        series["density"].append(surrogate(state.density))

    surrogates = {k: np.asarray(v) for k, v in series.items()}
    flags = {}
    for k, arr in surrogates.items():
        base = arr[0] if arr[0] > 0.0 else float(np.max(arr))
        flags[k] = bool(base > 0.0 and float(np.max(arr)) > BLOWUP_FACTOR * base)
    return SmoothnessReport(times=traj.times, surrogates=surrogates, blowup_flags=flags)
