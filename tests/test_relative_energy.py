import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anelastic_lab.acoustic import AcousticState, spectral_solution
from anelastic_lab.grids import DomainError, Grid, integrate, lp_norm
from anelastic_lab.hydrostatics import PotentialSpec, build_profile
from anelastic_lab.params import ScalingParams
from anelastic_lab.primitive import (
    GaussianBump,
    IllPreparedData,
    PrimitiveState,
    init_ill_prepared,
    run_primitive,
)
from anelastic_lab.relative_energy import (
    fit_eps_slope,
    h_bracket,
    rei_audit,
    rel_energy,
    residual_pressure_value,
    uniform_bounds_report,
)

EPS02 = ScalingParams(eps=0.2, horizon=1.0)


class TestRelEnergy:
    def test_matched_state_is_zero(self, radial_profile, radial_grid):
        state = PrimitiveState(
            rho=radial_profile.rho0.copy(),
            mom=radial_profile.rho0 * 0.3,
            q=radial_profile.rho0.copy(),
        )
        u = np.full(radial_grid.n, 0.3)
        val = rel_energy(state, radial_profile.rho0, u, EPS02, radial_grid)
        assert abs(val) < 1.0e-12

    def test_gamma_two_spot_value(self, radial_grid):
        params = ScalingParams(eps=0.1, gamma=2.0, horizon=1.0)
        state = PrimitiveState(
            rho=np.ones(radial_grid.n),
            mom=np.zeros(radial_grid.n),
            q=np.ones(radial_grid.n),
        )
        r_test = np.full(radial_grid.n, 1.2)
        val = rel_energy(state, r_test, np.zeros(radial_grid.n), params, radial_grid)
        assert val / radial_grid.weights.sum() == pytest.approx(4.0, rel=1.0e-12)

    def test_matches_refined_quadrature_oracle(self):
        # smooth analytic fields; the module value at high resolution must
        # agree with an independent midpoint quadrature at 10x resolution
        params = ScalingParams(eps=0.3, horizon=1.0)
        gamma = params.gamma

        def fields(r):
            rho = 1.0 + 0.3 * np.exp(-(r**2))
            u = 0.2 * r * np.exp(-(r**2))
            q = rho * (1.0 + 0.05 * np.exp(-((r - 1.0) ** 2)))
            r_test = 1.0 + 0.1 * np.exp(-(r**2) / 4.0)
            u_test = 0.1 * r * np.exp(-(r**2) / 2.0)
            return rho, u, q, r_test, u_test

        def integrand(r):
            rho, u, q, r_test, u_test = fields(r)
            return 0.5 * rho * (u - u_test) ** 2 + h_bracket(q, r_test, gamma) / params.eps**2

        n = 3000
        g = Grid("radial", n, 8.0, 6.0)
        rho, u, q, r_test, u_test = fields(g.centers)
        state = PrimitiveState(rho=rho, mom=rho * u, q=q)
        val = rel_energy(state, r_test, u_test, params, g)

        n_ref = 30_000
        h_ref = 8.0 / n_ref
        rr = (np.arange(n_ref) + 0.5) * h_ref
        oracle = float(np.sum(integrand(rr) * 4.0 * np.pi * rr * rr * h_ref))
        assert abs(val - oracle) / oracle < 1.0e-6

    def test_positive_r_required(self, radial_grid):
        state = PrimitiveState(
            rho=np.ones(radial_grid.n), mom=np.zeros(radial_grid.n), q=np.ones(radial_grid.n)
        )
        bad_r = np.ones(radial_grid.n)
        bad_r[0] = -1.0
        with pytest.raises(DomainError):
            rel_energy(state, bad_r, np.zeros(radial_grid.n), EPS02, radial_grid)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid("radial", 32, 4.0, 3.0)
        params = ScalingParams(eps=0.3, horizon=1.0)
        rho = 0.1 + rng.uniform(0.0, 2.0, g.n)
        state = PrimitiveState(
            rho=rho, mom=rho * rng.uniform(-1, 1, g.n), q=0.1 + rng.uniform(0.0, 2.0, g.n)
        )
        r_test = 0.1 + rng.uniform(0.0, 2.0, g.n)
        u_test = rng.uniform(-1, 1, g.n)
        assert rel_energy(state, r_test, u_test, params, g) >= 0.0

    def test_essential_convexity_sandwich(self, radial_grid):
        params = ScalingParams(eps=0.25, horizon=1.0)
        gamma = params.gamma
        q = 1.0 + 0.1 * np.exp(-radial_grid.centers**2)
        r_test = 1.0 + 0.05 * np.exp(-radial_grid.centers**2 / 2.0)
        bracket = integrate(h_bracket(q, r_test, gamma), radial_grid) / params.eps**2
        dist = lp_norm((q - r_test) / params.eps, 2.0, radial_grid) ** 2
        lo, hi = 0.9, 1.15  # range hull of q and r
        c1 = 0.5 * gamma * lo ** (gamma - 2.0) if gamma >= 2 else 0.5 * gamma * hi ** (gamma - 2.0)
        c2 = 0.5 * gamma * hi ** (gamma - 2.0) if gamma >= 2 else 0.5 * gamma * lo ** (gamma - 2.0)
        assert min(c1, c2) * dist <= bracket <= max(c1, c2) * dist


class TestUniformBounds:
    def test_static_data_zero_constants(self, radial_profile, radial_grid):
        init = PrimitiveState(
            rho=radial_profile.rho0.copy(),
            mom=np.zeros(radial_grid.n),
            q=radial_profile.rho0.copy(),
        )
        traj = run_primitive(
            init, radial_profile, EPS02, np.array([0.0, 0.3])
        )
        rep = uniform_bounds_report(traj)
        for key in ("r2", "r3", "r5", "r6", "r7", "r8"):
            assert rep.constants[key] < 1.0e-10

    def test_acoustic_run_finite_constants(self, radial_profile, radial_grid):
        data = IllPreparedData(
            rho1=GaussianBump(0.4, 1.2),
            vel_potential=GaussianBump(0.4, 1.5),
            theta2=GaussianBump(0.4, 1.2),
        )
        init = init_ill_prepared(data, radial_profile, EPS02)
        traj = run_primitive(
            init, radial_profile, EPS02, np.linspace(0.0, 0.5, 11)
        )
        rep = uniform_bounds_report(traj)
        for key, value in rep.constants.items():
            assert np.isfinite(value), key
        assert rep.constants["r5"] > 0.0
        assert rep.constants["r7"] == 0.0  # moderate data never leave the band
        assert "r5" in rep.text()


class TestResidualPressure:
    def test_mild_data_zero(self, radial_profile, radial_grid):
        data = IllPreparedData(rho1=GaussianBump(0.3, 1.0))
        init = init_ill_prepared(data, radial_profile, EPS02)
        traj = run_primitive(init, radial_profile, EPS02, np.array([0.0, 0.2]))
        val = residual_pressure_value(traj, 0.5)
        assert val == 0.0

    def test_beta_range_enforced(self, radial_profile, radial_grid):
        init = PrimitiveState(
            rho=radial_profile.rho0.copy(),
            mom=np.zeros(radial_grid.n),
            q=radial_profile.rho0.copy(),
        )
        traj = run_primitive(init, radial_profile, EPS02, np.array([0.0, 0.1]))
        assert 0.5 < EPS02.gamma / 3.0  # gamma = 5/3: beta = 0.5 admissible
        with pytest.raises(DomainError):
            residual_pressure_value(traj, 0.6)

    def test_strong_data_slope(self):
        # amplitude chosen so rho Theta leaves the essential band at every
        # eps in the mini sweep
        g = Grid("radial", 128, 8.0, 6.0)
        values = []
        eps_list = (0.4, 0.2)
        for eps in eps_list:
            params = ScalingParams(eps=eps, horizon=0.4)
            prof = build_profile(PotentialSpec(), params, g)
            data = IllPreparedData(rho1=GaussianBump(25.0, 0.8))
            init = init_ill_prepared(data, prof, params)
            traj = run_primitive(init, prof, params, np.linspace(0.0, 0.4, 21))
            values.append(residual_pressure_value(traj, 0.5))
        assert values[0] > values[1] > 0.0
        assert fit_eps_slope(eps_list, values) >= 2.0

    def test_matches_per_sample_loop(self):
        # the stacked pass must reproduce the one-sample-at-a-time sum bit for bit
        g = Grid("radial", 128, 8.0, 6.0)
        params = ScalingParams(eps=0.2, horizon=0.4)
        prof = build_profile(PotentialSpec(), params, g)
        init = init_ill_prepared(IllPreparedData(rho1=GaussianBump(25.0, 0.8)), prof, params)
        traj = run_primitive(init, prof, params, np.linspace(0.0, 0.4, 17))
        cut = prof.cutoff
        mask = g.ball_mask(3.0)
        rates = [
            np.sum(((1.0 - cut.chi(q)) * q)[mask] ** (params.gamma + 0.5) * g.weights[mask])
            for q in traj.samples.q
        ]
        expected = float(np.trapezoid(rates, traj.times))
        assert expected > 0.0
        assert residual_pressure_value(traj, 0.5) == expected


class TestRelEnergyReport:
    def test_summary_and_nonnegativity_guard(self, radial_profile, radial_grid):
        from anelastic_lab.relative_energy import RelEnergyReport, REIReport

        init = PrimitiveState(
            rho=radial_profile.rho0.copy(),
            mom=np.zeros(radial_grid.n),
            q=radial_profile.rho0.copy(),
        )
        traj = run_primitive(init, radial_profile, EPS02, np.array([0.0, 0.1]))
        bounds = uniform_bounds_report(traj)
        audit = REIReport(
            times=np.array([0.0, 0.1]),
            rel_energy=np.zeros(2),
            lhs=np.zeros(2),
            rhs_groups={"velocity": np.zeros(2)},
            defect=np.zeros(2),
            tolerance=1.0,
            raw_max_defect=0.0,
            raw_perturbed_max_defect=0.0,
        )
        rec = RelEnergyReport(audit=audit, bounds=bounds, residual_pressure=0.0)
        assert "residual-pressure value" in rec.summary_text()
        bad = REIReport(
            times=np.array([0.0, 0.1]),
            rel_energy=np.array([0.0, -1.0]),
            lhs=np.zeros(2),
            rhs_groups={"velocity": np.zeros(2)},
            defect=np.zeros(2),
            tolerance=1.0,
            raw_max_defect=0.0,
            raw_perturbed_max_defect=0.0,
        )
        with pytest.raises(DomainError):
            RelEnergyReport(audit=bad, bounds=bounds, residual_pressure=0.0)


class TestFitSlope:
    def test_power_law_recovered(self):
        eps = np.array([0.4, 0.2, 0.1])
        assert fit_eps_slope(eps, 3.0 * eps**2.5) == pytest.approx(2.5, rel=1.0e-9)

    def test_all_zero_is_infinite(self):
        assert fit_eps_slope([0.4, 0.2, 0.1], [0.0, 0.0, 0.0]) == np.inf


class TestREIAuditBasics:
    def test_matched_static_is_zero(self, radial_profile, radial_grid):
        n = radial_grid.n
        init = PrimitiveState(
            rho=radial_profile.rho0.copy(), mom=np.zeros(n), q=radial_profile.rho0.copy()
        )
        traj = run_primitive(
            init, radial_profile, EPS02, np.linspace(0.0, 0.3, 7)
        )
        from anelastic_lab.acoustic import assemble_operator

        op = assemble_operator(radial_profile)
        sol = spectral_solution(
            op, AcousticState(s=np.zeros(n), phi=np.zeros(n)), EPS02.eps
        )
        rep = rei_audit(traj, sol)
        assert np.max(np.abs(rep.defect)) < 1.0e-9
        assert np.max(np.abs(rep.lhs)) < 1.0e-9
        assert rep.passed
        # the raw shape's known answer: zero for U = 0 and for any multiple of it
        assert abs(rep.raw_max_defect) < 1.0e-9
        assert abs(rep.raw_perturbed_max_defect) < 1.0e-9

    def test_eps_mismatch_rejected(self, radial_profile, radial_grid, operator):
        n = radial_grid.n
        init = PrimitiveState(
            rho=radial_profile.rho0.copy(), mom=np.zeros(n), q=radial_profile.rho0.copy()
        )
        traj = run_primitive(init, radial_profile, EPS02, np.array([0.0, 0.1]))
        sol = spectral_solution(operator, AcousticState(s=np.zeros(n), phi=np.zeros(n)), 0.4)
        with pytest.raises(DomainError):
            rei_audit(traj, sol)
