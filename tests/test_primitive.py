import numpy as np
import pytest
from conftest import stacked_run

from anelastic_lab import primitive
from anelastic_lab.grids import Grid, integrate, lp_norm, radial_divergence
from anelastic_lab.hydrostatics import PotentialSpec, build_profile, constant_profile
from anelastic_lab.params import ScalingParams
from anelastic_lab.primitive import (
    DataError,
    GaussianBump,
    IllPreparedData,
    PrimitiveAux,
    PrimitiveState,
    SolverFailure,
    init_ill_prepared,
    run_primitive,
    sound_speed,
    step_primitive,
    suggested_dt,
    total_energy,
)

EPS02 = ScalingParams(eps=0.2, horizon=1.0)


def step_one(state, aux, dt_max):
    """step_primitive on a one-member stack: member 0's new state, dt, fluxes and sinks."""
    stack = PrimitiveState.of(state.fields[:, None], np.array([state.t]))
    out, dt, fluxes, sinks = step_primitive(stack, aux, np.array([dt_max]))
    return PrimitiveState.of(out.fields[:, 0], out.t[0]), dt[0], fluxes[:, 0], sinks[:, 0]


def acoustic_data(amp=0.4):
    return IllPreparedData(
        rho1=GaussianBump(amp, 1.2),
        vel_potential=GaussianBump(amp, 1.5),
        theta2=GaussianBump(amp, 1.2),
    )


class TestScalingParams:
    def test_with_eps(self):
        p = EPS02.with_eps(0.1)
        assert p.eps == 0.1 and p.gamma == EPS02.gamma


class TestInit:
    def test_equilibrium(self, radial_profile, radial_grid):
        state = init_ill_prepared(IllPreparedData(), radial_profile, EPS02)
        assert np.array_equal(state.rho, radial_profile.rho0)
        assert np.all(state.mom == 0.0)
        assert np.array_equal(state.q, radial_profile.rho0)

    def test_bump_mass(self, radial_profile, radial_grid):
        data = IllPreparedData(rho1=GaussianBump(0.2 / np.pi**1.5, 1.0))  # mass 0.2
        params = ScalingParams(eps=0.1, horizon=1.0)
        state = init_ill_prepared(data, radial_profile, params)
        added = integrate(state.rho - radial_profile.rho0, radial_grid)
        assert abs(added - 0.02) < 1.0e-4

    def test_theta_scaling_exact(self, radial_profile, radial_grid):
        data = IllPreparedData(theta2=GaussianBump(0.7, 1.0))
        params = ScalingParams(eps=0.1, horizon=1.0)
        state = init_ill_prepared(data, radial_profile, params)
        expected = 0.1**2 * lp_norm(data.theta2.field(radial_grid), np.inf, radial_grid)
        assert lp_norm(state.theta - 1.0, np.inf, radial_grid) == pytest.approx(
            expected, rel=1.0e-12
        )

    def test_negative_density_rejected(self, radial_profile, radial_grid):
        data = IllPreparedData(rho1=GaussianBump(-30.0, 1.0))
        with pytest.raises(DataError):
            init_ill_prepared(data, radial_profile, EPS02)

    def test_vacuum_guard(self):
        state = PrimitiveState(
            rho=np.array([1.0, 1.0e-13, 0.5]),
            mom=np.zeros(3),
            q=np.array([1.0, 3.0e-13, 0.4]),
        )
        th = state.theta
        assert th[1] == 1.0
        assert th[2] == pytest.approx(0.8)


class TestStep:
    def test_static_state_is_exact_fixed_point(self, radial_profile, radial_grid):
        state = PrimitiveState(
            rho=radial_profile.rho0.copy(),
            mom=np.zeros(radial_grid.n),
            q=radial_profile.rho0.copy(),
        )
        aux = PrimitiveAux(radial_profile, [EPS02])
        out, _, _, _ = step_one(state, aux, np.inf)
        assert np.array_equal(out.rho, radial_profile.rho0)
        assert np.all(out.mom == 0.0)
        assert np.array_equal(out.q, radial_profile.rho0)

    def test_uniform_state_without_gravity_stationary(self, radial_grid):
        prof = constant_profile(EPS02, radial_grid)
        state = PrimitiveState(
            rho=np.ones(radial_grid.n), mom=np.zeros(radial_grid.n), q=np.ones(radial_grid.n)
        )
        out, _, _, _ = step_one(state, PrimitiveAux(prof, [EPS02]), 1.0e-4)
        assert np.array_equal(out.rho, state.rho)
        assert np.all(out.mom == 0.0)

    def test_dt_is_the_stability_limit_capped_by_dt_max(self, radial_profile, radial_grid):
        state = init_ill_prepared(acoustic_data(), radial_profile, EPS02)
        aux = PrimitiveAux(radial_profile, [EPS02])
        speed = np.abs(state.velocity) + sound_speed(state, EPS02)
        limit = suggested_dt(speed[None], aux)[0]
        out, dt, _, _ = step_one(state, aux, 2.0 * limit)
        assert dt == limit and out.t == limit
        out, dt, _, _ = step_one(state, aux, 0.5 * limit)
        assert dt == 0.5 * limit and out.t == 0.5 * limit

    def test_viscosity_sets_no_dt_limit(self, radial_profile, radial_grid):
        state = init_ill_prepared(acoustic_data(), radial_profile, EPS02)
        speed = (np.abs(state.velocity) + sound_speed(state, EPS02))[None]
        inviscid = ScalingParams(eps=0.2, horizon=1.0, mu=0.0)
        viscous_aux, inviscid_aux = (PrimitiveAux(radial_profile, [p]) for p in (EPS02, inviscid))
        assert viscous_aux.viscous and not inviscid_aux.viscous
        limit = suggested_dt(speed, viscous_aux)
        assert np.array_equal(limit, suggested_dt(speed, inviscid_aux))
        assert step_one(state, viscous_aux, np.inf)[1] == step_one(state, inviscid_aux, np.inf)[1]

    def test_outer_fluxes_close_step_budgets(self, radial_profile, radial_grid):
        # data sitting on the sponge and the outer face, so every ledger term is live
        bump = GaussianBump(0.4, 1.0, center=14.0)
        data = IllPreparedData(rho1=bump, vel_potential=bump, theta2=bump)
        state = init_ill_prepared(data, radial_profile, EPS02)
        aux = PrimitiveAux(radial_profile, [EPS02])
        out, dt, fluxes, sinks = step_one(state, aux, np.inf)
        area = radial_grid.face_areas[-1]
        sig_w = aux.sigma * radial_grid.weights
        for old, new, flux, sink_rate in zip(
            (state.rho, state.q), (out.rho, out.q), fluxes, sinks
        ):
            outflow = dt * area * flux
            sink = dt * float(np.sum(sig_w * (old - radial_profile.rho0)))
            # the returned sink is the budget's sponge term, bit for bit
            assert dt * sink_rate == sink
            change = integrate(new, radial_grid) - integrate(old, radial_grid)
            assert abs(outflow) > 1.0e-6 and abs(sink) > 1.0e-6
            assert abs(change + outflow + sink) < 1.0e-13 * integrate(old, radial_grid)

    def test_validate_rejects_negative(self):
        state = PrimitiveState(rho=np.array([1.0, -0.1]), mom=np.zeros(2), q=np.ones(2))
        with pytest.raises(SolverFailure):
            state.validate()

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("eps", [0.4, 0.1])
    @pytest.mark.parametrize("mu", [1.0, 0.0])
    def test_cfl_lies_inside_the_linear_stability_limit(self, monkeypatch, n, eps, mu):
        # measured at n = 8 to 512: the radius stays below 1 up to CFL 0.7 and exceeds
        # it at 0.9, and already at 0.8 without viscosity
        params = ScalingParams(eps=eps, mu=mu)
        prof = build_profile(PotentialSpec(), params, Grid("radial", n, 16.0, 12.0))
        assert step_spectral_radius(monkeypatch, prof, params, primitive.CFL) < 1.0
        assert step_spectral_radius(monkeypatch, prof, params, 0.9) > 1.1


def step_spectral_radius(monkeypatch, prof, params, cfl, delta=1.0e-7) -> float:
    """max |eig(J)|, J the central-difference Jacobian of step_primitive about the
    static state at dt = CFL h / max c.  CFL is set a hair above cfl, so the
    perturbed states' own limit never undercuts dt_max and dt stays fixed.  The
    3n columns are 3n identical members of one stack, each bumped in one entry."""
    n = prof.grid.n
    static = np.array((prof.rho0, np.zeros(n), prof.rho0))
    dt = cfl * prof.grid.h / sound_speed(PrimitiveState(*static), params).max()
    monkeypatch.setattr(primitive, "CFL", cfl * (1.0 + 1.0e-6))
    aux = PrimitiveAux(prof, [params] * (3 * n))
    bumps = delta * np.eye(3 * n).reshape(3 * n, 3, n).transpose(1, 0, 2)
    outs = []
    for sign in (1.0, -1.0):
        stack = PrimitiveState.of(static[:, None] + sign * bumps, np.zeros(3 * n))
        out, dts, _, _ = step_primitive(stack, aux, np.full(3 * n, dt))
        assert np.all(dts == dt)
        outs.append(out.fields.transpose(1, 0, 2).reshape(3 * n, 3 * n))
    jac = (outs[0] - outs[1]).T / (2.0 * delta)
    return float(np.abs(np.linalg.eigvals(jac)).max())


@pytest.fixture(scope="module")
def short_run(radial_profile, radial_grid):
    init = init_ill_prepared(acoustic_data(), radial_profile, EPS02)
    return run_primitive(init, radial_profile, EPS02, np.linspace(0.0, 1.0, 11), [])


@pytest.fixture(scope="module")
def renorm_traj(radial_profile, radial_grid):
    init = init_ill_prepared(acoustic_data(), radial_profile, EPS02)
    return radial_profile, *stacked_run(init, radial_profile, EPS02, np.linspace(0.0, 0.5, 26))


class TestRun:
    def test_interior_conservation(self, short_run):
        t = short_run
        for series, outflow, sponge in (
            (t.mass, t.outer_mass_flux, t.sponge_mass),
            (t.q_mass, t.outer_q_flux, t.sponge_q),
        ):
            defect = series[-1] - series[0] + outflow[-1] + sponge[-1]
            assert abs(defect) < 1.0e-9 * series[0]

    def test_energy_monotone(self, short_run):
        tol = 1.0e-3 * short_run.energy[0]
        assert np.all(np.diff(short_run.energy) <= tol)

    def test_static_energy_zero(self, radial_profile, radial_grid):
        init = PrimitiveState(
            rho=radial_profile.rho0.copy(),
            mom=np.zeros(radial_grid.n),
            q=radial_profile.rho0.copy(),
        )
        traj = run_primitive(
            init, radial_profile, EPS02, np.array([0.0, 0.5, 1.0]), []
        )
        assert np.max(np.abs(traj.energy)) < 1.0e-10

    def test_pure_velocity_bump_energy_decreases(self, radial_profile, radial_grid):
        data = IllPreparedData(vel_potential=GaussianBump(0.5, 1.5))
        init = init_ill_prepared(data, radial_profile, EPS02)
        traj = run_primitive(
            init, radial_profile, EPS02, np.linspace(0.0, 0.6, 7), []
        )
        assert np.all(np.diff(traj.energy) <= 1.0e-3 * traj.energy[0])

    def test_well_balancing_refinement(self, params):
        drifts = []
        for n in (128, 256):
            g = Grid("radial", n, 16.0, 12.0)
            prof = build_profile(PotentialSpec(), EPS02, g)
            init = PrimitiveState(rho=prof.rho0.copy(), mom=np.zeros(n), q=prof.rho0.copy())
            _, samples = stacked_run(init, prof, EPS02, np.array([0.0, 0.5]))
            drifts.append(lp_norm(samples.rho[-1] - prof.rho0, np.inf, g))
        # the equilibrium-variable dissipation keeps the state exact, which
        # satisfies the O(h^2) drift bound trivially
        for n, drift in zip((128, 256), drifts):
            assert drift <= 1.0 * (16.0 / n) ** 2

    def test_speed_and_velocity_computed_once_per_step(self, monkeypatch):
        grid = Grid("radial", 64, 8.0, 6.0)
        params = ScalingParams(eps=0.4, horizon=0.2)
        prof = build_profile(PotentialSpec(), params, grid)
        bump = GaussianBump(0.3, 1.0)
        init = init_ill_prepared(IllPreparedData(rho1=bump, vel_potential=bump), prof, params)
        calls = {"sound_speed": 0, "velocity": 0}
        real_sound_speed = primitive.sound_speed
        real_velocity = PrimitiveState.velocity.fget

        def counting_sound_speed(state, params, *q_pow):
            calls["sound_speed"] += 1
            return real_sound_speed(state, params, *q_pow)

        def counting_velocity(state):
            calls["velocity"] += 1
            return real_velocity(state)

        monkeypatch.setattr(primitive, "sound_speed", counting_sound_speed)
        monkeypatch.setattr(PrimitiveState, "velocity", property(counting_velocity))
        times = np.linspace(0.0, 0.2, 3)
        traj = run_primitive(init, prof, params, times, [])
        steps = traj.step_count
        assert calls["sound_speed"] == steps > 0
        # one in the step, one shared by the ledger rates, one per sample
        # energy and one for the initial rates
        assert calls["velocity"] <= 2 * steps + times.size + 1


class TestEnergyFunctional:
    def test_gamma_two_integrand_value(self, radial_grid):
        # q = 1.2, rho0 = 1, eps^2 = 0.01: bracket (q - rho0)^2 / eps^2 = 4
        params = ScalingParams(eps=0.1, gamma=2.0, horizon=1.0)
        prof = constant_profile(params, radial_grid)
        state = PrimitiveState(
            rho=np.ones(radial_grid.n),
            mom=np.zeros(radial_grid.n),
            q=np.full(radial_grid.n, 1.2),
        )
        val = total_energy(state, prof, params)
        per_volume = val / radial_grid.weights.sum()
        # bracket = H(1.2) - H'(1)(0) - H(1) = 1.44 - 1 = 0.44 over eps^2
        assert per_volume == pytest.approx(44.0, rel=1.0e-12)


def renorm_defect(run, b, db) -> float:
    """Largest renormalized-transport defect of b (derivative db) along a run, given
    as its profile, trajectory and stacked samples.

    Between consecutive samples d/dt int b(q) is compared against
    int (b - b' q) div u, charging the sponge sink and the outer boundary
    convection to the budget; the residue is normalized by int |b|.
    """
    prof, traj, s = run
    grid = prof.grid
    bq, dbq, u = b(s.q), db(s.q), s.velocity
    rhs = integrate((bq - dbq * s.q) * radial_divergence(u, grid), grid)
    sig_w = PrimitiveAux(prof, [traj.params]).sig_w
    sponge = np.sum(sig_w * dbq * (s.q - prof.rho0), axis=-1)
    rho0_ghost = prof.rho0_at(np.array([grid.r_max + 0.5 * grid.h]))[0]
    flux = grid.face_areas[-1] * b(0.5 * (s.q[:, -1] + rho0_ghost)) * 0.5 * u[:, -1]
    norm = integrate(np.abs(bq), grid)

    def mean(x):
        return 0.5 * (x[:-1] + x[1:])

    defect = np.diff(integrate(bq, grid)) / np.diff(s.t) + mean(sponge) + mean(flux) - mean(rhs)
    return float(np.max(np.abs(defect) / np.maximum(mean(norm), 1.0e-300)))


class TestRenormalization:
    def test_linear_b_reduces_to_conservation(self, renorm_traj):
        assert renorm_defect(renorm_traj, lambda y: y, np.ones_like) < 5.0e-3

    def test_constant_b(self, renorm_traj):
        def b(y):
            return np.full_like(y, 2.0)

        assert renorm_defect(renorm_traj, b, np.zeros_like) < 5.0e-3

    def test_quadratic_refinement(self):
        defects = []
        for n in (96, 192):
            g = Grid("radial", n, 16.0, 12.0)
            prof = build_profile(PotentialSpec(), EPS02, g)
            init = init_ill_prepared(acoustic_data(), prof, EPS02)
            run = prof, *stacked_run(init, prof, EPS02, np.linspace(0.0, 0.4, 33))
            # a renormalization b is capped beyond the range of q; here q stays below the cap
            assert run[2].q.max() < 2.0 * prof.rho_max
            defects.append(renorm_defect(run, np.square, lambda y: 2.0 * y))
        assert defects[0] / defects[1] >= 1.8

