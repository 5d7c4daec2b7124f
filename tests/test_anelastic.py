import numpy as np
import pytest

from anelastic_lab.anelastic import (
    CFL,
    AnelasticState,
    AnelasticTrajectory,
    _div_norms,
    init_anelastic,
    run_anelastic,
    smoothness_monitor,
    step_anelastic,
)
from anelastic_lab.grids import DomainError, Grid, mean_faces
from anelastic_lab.helmholtz import (
    CartesianWeightedLaplacian,
    StaggeredVector,
    project_radial_faces,
)
from anelastic_lab.hydrostatics import PotentialSpec, build_profile
from anelastic_lab.primitive import DataError

from test_helmholtz import stream_function_field, zero_field


class TestInit:
    def test_radial_velocity_annihilated(self, radial_profile, radial_grid, rng):
        v0 = rng.standard_normal(radial_grid.n)
        state = init_anelastic(v0, np.ones(radial_grid.n), radial_profile)
        assert np.all(state.velocity == 0.0)

    def test_unit_theta_gives_rho0(self, radial_profile, radial_grid):
        state = init_anelastic(np.zeros(radial_grid.n), np.ones(radial_grid.n), radial_profile)
        assert np.array_equal(state.density, radial_profile.rho0)

    def test_positivity_required(self, radial_profile, radial_grid):
        bad = np.ones(radial_grid.n)
        for value in (0.0, np.nan):
            bad[3] = value
            with pytest.raises(DataError):
                init_anelastic(np.zeros(radial_grid.n), bad, radial_profile)

    def test_cartesian_solenoidal_fixed_point(self, cart_profile, cart_grid, rng):
        lap = CartesianWeightedLaplacian(cart_grid, cart_profile.rho0)
        v0 = stream_function_field(lap, rng)
        state = init_anelastic(v0, np.ones(cart_grid.field_shape), cart_profile)
        assert state.velocity.axpy(-1.0, v0).max_abs() < 1.0e-8 * v0.max_abs()


class TestRadialClosedForm:
    def test_pressure_is_one_projection_of_the_buoyancy(self, radial_profile, radial_grid, rng):
        # well-balance: the closed form is the Pi of one projection step
        theta = 1.0 + 0.2 * np.exp(-radial_grid.centers**2)
        state = init_anelastic(rng.standard_normal(radial_grid.n), theta, radial_profile)
        traj = run_anelastic(state, radial_profile, 0.5, n_samples=6)
        samples = traj.samples
        assert np.all(samples.velocity == 0.0)
        assert all(np.array_equal(t, theta) for t in samples.temperature)
        assert np.all(samples.pressure[0] == 0.0)
        dt = 0.1
        pred = -dt * mean_faces(theta) * radial_profile.face_grad_F[0]
        pred[0] = pred[-1] = 0.0
        _, phi = project_radial_faces(pred, radial_profile)
        for pi in samples.pressure[1:]:
            assert np.max(np.abs(pi - phi / dt)) <= 1.0e-12 * np.max(np.abs(phi / dt))

    def test_hydrostatic_balance_exact(self, radial_profile, radial_grid):
        n = radial_grid.n
        c = 0.8
        state = init_anelastic(np.zeros(n), np.full(n, c), radial_profile)
        pi = run_anelastic(state, radial_profile, 0.15, n_samples=4).samples.pressure[-1]
        # the pressure multiplier balances the buoyancy: grad Pi = -c grad F
        dpi = np.diff(pi) / radial_grid.h
        target = -c * np.diff(radial_profile.F) / radial_grid.h
        assert np.max(np.abs(dpi - target)) < 1.0e-12 * np.max(np.abs(target))
        assert pi[-1] == 0.0

    def test_geometric_rigidity_any_data(self, radial_profile, radial_grid, rng):
        theta = 1.0 + 0.2 * np.exp(-radial_grid.centers**2)
        state = init_anelastic(rng.standard_normal(radial_grid.n), theta, radial_profile)
        assert np.all(state.velocity == 0.0)
        traj = run_anelastic(state, radial_profile, 0.2, n_samples=5)
        assert np.all(traj.samples.velocity == 0.0)
        assert np.all(traj.samples.temperature == theta)
        assert np.all(traj.div_norms == 0.0) and np.all(traj.flux_norms == 0.0)

    def test_step_rejects_a_radial_profile(self, radial_profile, radial_grid):
        state = init_anelastic(np.zeros(radial_grid.n), np.ones(radial_grid.n), radial_profile)
        with pytest.raises(DomainError):
            step_anelastic(state, radial_profile, 0.05)


class TestCartesianStep:
    def test_smoke_divergence_and_extrema(self, cart_profile, cart_grid, rng):
        lap = CartesianWeightedLaplacian(cart_grid, cart_profile.rho0)
        v0 = stream_function_field(lap, rng)
        theta = 1.0 + 0.3 * np.exp(-cart_grid.radii**2)
        state = init_anelastic(v0, theta, cart_profile)
        traj = run_anelastic(state, cart_profile, horizon=0.15, n_samples=4)
        assert np.all(traj.divergence_defects < 1.0e-7)
        t_end = traj.samples.temperature[-1]
        assert t_end.max() <= theta.max() + 1.0e-10
        assert t_end.min() >= theta.min() - 1.0e-10

    def test_dt_is_the_advective_limit_capped_by_dt_max(self, cart_profile, cart_grid):
        v = zero_field(cart_grid.n)
        v.fx[5, 3, 3] = 10.0
        state = AnelasticState(
            velocity=v,
            pressure=np.zeros(cart_grid.field_shape),
            temperature=np.ones(cart_grid.field_shape),
            density=cart_profile.rho0.copy(),
        )
        limit = CFL * cart_grid.h / 10.0
        out, dt = step_anelastic(state, cart_profile, 1.0)
        assert dt == limit and out.t == limit
        out, dt = step_anelastic(state, cart_profile, 0.5 * limit)
        assert dt == 0.5 * limit and out.t == 0.5 * limit


class TestDivDefect:
    def test_cartesian_ratio_independent_of_resolution(self, params):
        # a fixed smooth face field with div(rho0 V) != 0: the relative
        # defect is a property of the field, not of the grid spacing
        defects = []
        for n in (8, 16):
            grid = Grid("cartesian", n, 8.0, 6.0)
            prof = build_profile(PotentialSpec(), params, grid)
            faces = -grid.r_max + np.arange(n + 1) * grid.h
            x, y, z = np.meshgrid(faces, grid.centers, grid.centers, indexing="ij")
            v = zero_field(n)
            v.fx[...] = np.exp(-(x**2 + y**2 + z**2) / 8.0)
            state = AnelasticState(
                velocity=v,
                pressure=np.zeros(grid.field_shape),
                temperature=np.ones(grid.field_shape),
                density=prof.rho0,
            )
            div_norm, flux_norm = _div_norms(state, prof)
            defects.append(div_norm / flux_norm)
        assert defects[0] > 0.0
        assert abs(defects[1] / defects[0] - 1.0) <= 0.2


class TestSmoothnessMonitor:
    def test_frozen_state_constant_report(self, radial_profile, radial_grid):
        state = init_anelastic(
            np.zeros(radial_grid.n),
            np.ones(radial_grid.n),
            radial_profile,
        )
        samples = AnelasticState(
            velocity=np.tile(state.velocity, (5, 1)),
            pressure=np.tile(state.pressure, (5, 1)),
            temperature=np.tile(state.temperature, (5, 1)),
            density=np.tile(state.density, (5, 1)),
            t=np.linspace(0.0, 1.0, 5),
        )
        traj = AnelasticTrajectory(
            prof=radial_profile, samples=samples, div_norms=np.zeros(5), flux_norms=np.zeros(5)
        )
        rep = smoothness_monitor(traj)
        for series in rep.surrogates.values():
            assert np.all(series == series[0])
        assert not rep.any_blowup

    def test_hydrostatic_run_stationary(self, radial_profile, radial_grid):
        state = init_anelastic(
            np.zeros(radial_grid.n),
            np.full(radial_grid.n, 0.8),
            radial_profile,
        )
        traj = run_anelastic(state, radial_profile, 0.5, n_samples=11)
        rep = smoothness_monitor(traj)
        # pressure is the closed form from the first sample after t = 0 on
        pr = rep.surrogates["pressure"][1:]
        assert pr.min() > 0.0 and np.all(pr == pr[0])
        dens = rep.surrogates["density"]
        assert (dens.max() - dens.min()) <= 1.0e-12 * dens.max()

    def test_bounded_growth_not_flagged(self, cart_profile, cart_grid, rng):
        lap = CartesianWeightedLaplacian(cart_grid, cart_profile.rho0)
        v0 = stream_function_field(lap, rng)
        theta = 1.0 + 0.2 * np.exp(-cart_grid.radii**2)
        state = init_anelastic(v0, theta, cart_profile)
        traj = run_anelastic(state, cart_profile, 0.1, n_samples=3)
        rep = smoothness_monitor(traj)
        assert not rep.any_blowup


def _sample(samples: AnelasticState, k: int) -> AnelasticState:
    """Sample k of a stacked state, as a state of its own."""
    v = samples.velocity
    if not isinstance(v, StaggeredVector):
        vel = v[k].copy()
    else:
        vel = StaggeredVector(v.fx[k].copy(), v.fy[k].copy(), v.fz[k].copy())
    return AnelasticState(
        vel, samples.pressure[k].copy(), samples.temperature[k].copy(), t=samples.t[k]
    )


def _surrogate_alone(f: np.ndarray, grid: Grid) -> float:
    """The smoothness surrogate of one field, summed one axis family at a time."""
    total = float(np.sum(f * f))
    work = f
    for _ in range(2):
        grads = [np.diff(work, axis=ax) / grid.h for ax in range(f.ndim)]
        total += sum(float(np.sum(g * g)) for g in grads)
        work = grads[0]
    return total


@pytest.mark.parametrize("geometry", ["radial", "cartesian"])
def test_stacked_samples_match_each_sample_alone(geometry, params, rng):
    grid = Grid(geometry, 8, 8.0, 6.0)
    prof = build_profile(PotentialSpec(), params, grid)
    if grid.radial:
        v0 = rng.standard_normal(grid.n)
    else:
        z = zero_field(grid.n)
        v0 = StaggeredVector(*(rng.standard_normal(f.shape) for f in (z.fx, z.fy, z.fz)))
    theta = 1.0 + 0.3 * np.exp(-grid.radii**2)
    traj = run_anelastic(init_anelastic(v0, theta, prof), prof, 0.15, n_samples=4)
    samples = traj.samples
    assert np.array_equal(samples.t, traj.times)
    rep = smoothness_monitor(traj)
    for k in range(traj.times.size):
        alone = _sample(samples, k)
        assert _div_norms(alone, prof) == (traj.div_norms[k], traj.flux_norms[k])
        density = prof.rho0 / alone.temperature
        assert np.array_equal(samples.density[k], density)
        v = alone.velocity
        if grid.radial:
            vmag = 0.5 * (v[:-1] + v[1:])
        else:
            vmag = np.sqrt(
                (0.5 * (v.fx[:-1] + v.fx[1:])) ** 2
                + (0.5 * (v.fy[:, :-1] + v.fy[:, 1:])) ** 2
                + (0.5 * (v.fz[:, :, :-1] + v.fz[:, :, 1:])) ** 2
            )
        for name, field in (("velocity", vmag), ("pressure", alone.pressure), ("density", density)):
            assert rep.surrogates[name][k] == _surrogate_alone(field, grid)
