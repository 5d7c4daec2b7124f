import tracemalloc

import numpy as np
import pytest
from conftest import feed, stacked_run
from hypothesis import given, settings
from hypothesis import strategies as st

from anelastic_lab import configio, grids, relative_energy
from anelastic_lab.acoustic import AcousticState, spectral_solution
from anelastic_lab.grids import (
    DomainError,
    Grid,
    integrate,
    lp_norm,
    radial_divergence,
    radial_strain,
)
from anelastic_lab.harness import acoustic_ansatz
from anelastic_lab.hydrostatics import PotentialSpec, build_profile
from anelastic_lab.params import ScalingParams
from anelastic_lab.primitive import (
    ROW_BLOCK,
    GaussianBump,
    IllPreparedData,
    PrimitiveAux,
    PrimitiveState,
    init_ill_prepared,
    row_blocks,
    run_primitive,
    total_energy,
    viscous_dissipation_rate,
)
from anelastic_lab.relative_energy import (
    AuditPass,
    BoundsPass,
    _velocity_rates,
    fit_eps_slope,
    h_bracket,
    rei_audit,
    rel_energy,
    residual_pressure_value,
    stress_contraction,
    uniform_bounds_report,
)

EPS02 = ScalingParams(eps=0.2, horizon=1.0)


def small_audit_case(n: int, n_samples: int):
    """The profile of n cells of radius 8, a run on it sampled at n_samples times, its
    stacked samples and its acoustic ansatz."""
    params = ScalingParams(eps=0.4, horizon=0.2)
    prof = build_profile(PotentialSpec(), params, Grid("radial", n, 8.0, 6.0))
    bump = GaussianBump(0.3, 1.0)
    data = IllPreparedData(rho1=bump, vel_potential=bump)
    times = np.linspace(0.0, params.horizon, n_samples)
    traj, samples = stacked_run(init_ill_prepared(data, prof, params), prof, params, times)
    return prof, traj, samples, acoustic_ansatz(data, prof, params.eps, 0.25)


def streamed(init, prof, params, times, measurement):
    """The run of init streamed to measurement, and the run."""
    return measurement, run_primitive(init, prof, params, times, [measurement])


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
        times = np.array([0.0, 0.3])
        bounds = BoundsPass(radial_profile, EPS02, times, 0.5)
        streamed(init, radial_profile, EPS02, times, bounds)
        rep = uniform_bounds_report(bounds)
        for key in ("r2", "r3", "r5", "r6", "r7", "r8"):
            assert rep.constants[key] < 1.0e-10

    def test_acoustic_run_finite_constants(self, radial_profile, radial_grid):
        data = IllPreparedData(
            rho1=GaussianBump(0.4, 1.2),
            vel_potential=GaussianBump(0.4, 1.5),
            theta2=GaussianBump(0.4, 1.2),
        )
        init = init_ill_prepared(data, radial_profile, EPS02)
        times = np.linspace(0.0, 0.5, 11)
        bounds = BoundsPass(radial_profile, EPS02, times, 0.5)
        streamed(init, radial_profile, EPS02, times, bounds)
        rep = uniform_bounds_report(bounds)
        for key, value in rep.constants.items():
            assert np.isfinite(value), key
        assert rep.constants["r5"] > 0.0
        assert rep.constants["r7"] == 0.0  # moderate data never leave the band
        assert "r5" in rep.text()


class TestResidualPressure:
    def test_mild_data_zero(self, radial_profile, radial_grid):
        data = IllPreparedData(rho1=GaussianBump(0.3, 1.0))
        init = init_ill_prepared(data, radial_profile, EPS02)
        times = np.array([0.0, 0.2])
        bounds = BoundsPass(radial_profile, EPS02, times, 0.5)
        val = residual_pressure_value(streamed(init, radial_profile, EPS02, times, bounds)[0])
        assert val == 0.0

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
            times = np.linspace(0.0, 0.4, 21)
            bounds, _ = streamed(init, prof, params, times, BoundsPass(prof, params, times, 0.5))
            values.append(residual_pressure_value(bounds))
        assert values[0] > values[1] > 0.0
        assert fit_eps_slope(eps_list, values) >= 2.0

    def test_matches_per_sample_loop(self):
        # the stacked pass must reproduce the one-sample-at-a-time sum bit for bit
        g = Grid("radial", 128, 8.0, 6.0)
        params = ScalingParams(eps=0.2, horizon=0.4)
        prof = build_profile(PotentialSpec(), params, g)
        init = init_ill_prepared(IllPreparedData(rho1=GaussianBump(25.0, 0.8)), prof, params)
        traj, samples = stacked_run(init, prof, params, np.linspace(0.0, 0.4, 17))
        cut = prof.cutoff
        mask = g.ball_mask(3.0)
        rates = [
            np.sum(((1.0 - cut.chi(q)) * q)[mask] ** (params.gamma + 0.5) * g.weights[mask])
            for q in samples.q
        ]
        expected = float(np.trapezoid(rates, traj.times))
        assert expected > 0.0
        bounds = feed(samples, BoundsPass(prof, params, traj.times, 0.5))
        assert residual_pressure_value(bounds) == expected

    def test_bounds_pass_keeps_the_pressure_pass_bits(self):
        # strong data, where r12 is exercised: the eps = 0.5 member of the sweep
        # --set params.lam=0.5 --set data.rho1_amp=5 --set grid.n=128
        cfg = configio.load_config(None, ["params.lam=0.5", "data.rho1_amp=5", "grid.n=128"])
        params = configio.params_from(cfg).with_eps(0.5)
        prof = build_profile(configio.potential_from(cfg), params, configio.grid_from(cfg))
        times, beta = np.linspace(0.0, params.horizon, cfg["sweep.samples"]), cfg["sweep.beta"]
        mask = prof.grid.ball_mask(prof.grid.default_compact_radius)
        former = np.empty(times.size)

        def pressure_pass(rows, block):  # the separate pass r12 had before BoundsPass took it
            q = block.q[:, mask]
            res_q = (1.0 - prof.cutoff.chi(q)) * q
            former[rows] = np.sum(res_q ** (params.gamma + beta) * prof.grid.weights[mask], axis=-1)

        bounds = BoundsPass(prof, params, times, beta)
        init = init_ill_prepared(configio.data_from(cfg), prof, params)
        run_primitive(init, prof, params, times, [bounds, pressure_pass])
        assert np.array_equal(bounds.values[7], former)
        assert residual_pressure_value(bounds) == pytest.approx(3.27, abs=0.005)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_pure_dilation_strain(radial_profile, radial_grid, lam):
    # u = c r: grad u = c I, div u = 3c, so the deviatoric strain and the
    # shear part of S(grad u) : grad u vanish and only 9 lam c^2 is left
    g, c = radial_grid, np.array([[0.5], [-2.0]])  # two stacked velocities
    u = c * g.centers
    du, u_r = radial_strain(u, g)
    div = radial_divergence(u, g)
    one = np.ones_like(u)
    assert np.allclose(du, c * one, rtol=1.0e-12, atol=0.0)
    assert np.allclose(u_r, c * one, rtol=1.0e-12, atol=0.0)
    assert np.allclose(div, 3.0 * c * one, rtol=1.0e-12, atol=0.0)
    params = ScalingParams(eps=0.4, lam=lam)
    contraction = stress_contraction((du, u_r), div, (du, u_r), params)
    assert np.allclose(contraction, 9.0 * lam * c**2 * one, rtol=1.0e-11, atol=1.0e-12)
    dev, div_rate, _ = _velocity_rates(u, g)
    sum_w = g.weights.sum()
    assert np.all(np.abs(dev) <= 1.0e-20 * sum_w)
    assert np.allclose(div_rate, 9.0 * c[:, 0] ** 2 * sum_w, rtol=1.0e-11)
    # one member per stacked velocity, at eps = 0.4 and 0.2
    aux = PrimitiveAux(radial_profile, [params, params.with_eps(0.2)])
    expected = aux.eps_alpha * 9.0 * lam * c[:, 0] ** 2 * sum_w
    rate = viscous_dissipation_rate(u, aux)
    assert np.allclose(rate, expected, rtol=1.0e-11, atol=1.0e-20 * sum_w)


class TestRelEnergyReport:
    def test_summary_and_nonnegativity_guard(self):
        from anelastic_lab.relative_energy import REIReport

        def report(rel_energy):
            return REIReport(
                times=np.array([0.0, 0.1]),
                rel_energy=rel_energy,
                lhs=np.zeros(2),
                rhs_groups={"velocity": np.zeros(2)},
                defect=np.zeros(2),
                tolerance=1.0,
                raw_max_defect=0.0,
                raw_perturbed_max_defect=0.0,
                steps=3,
            )

        assert report(np.zeros(2)).summary_text() == (
            "rei-audit samples=2 steps=3 horizon=0.10000000000000001 max-defect=0 "
            "tolerance=1 pass=True rhs[velocity]=0"
        )
        with pytest.raises(DomainError, match="nonnegative"):
            report(np.array([0.0, -1.0]))


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
        from anelastic_lab.acoustic import assemble_operator

        op = assemble_operator(radial_profile)
        sol = spectral_solution(
            op, AcousticState(s=np.zeros(n), phi=np.zeros(n)), EPS02.eps
        )
        times = np.linspace(0.0, 0.3, 7)
        audit = AuditPass(radial_profile, EPS02, times, sol)
        rep = rei_audit(*streamed(init, radial_profile, EPS02, times, audit))
        assert np.max(np.abs(rep.defect)) < 1.0e-9
        assert np.max(np.abs(rep.lhs)) < 1.0e-9
        assert rep.passed
        # the raw shape's known answer: zero for U = 0 and for any multiple of it
        assert abs(rep.raw_max_defect) < 1.0e-9
        assert abs(rep.raw_perturbed_max_defect) < 1.0e-9

    def test_audit_forms_each_test_strain_once(self, monkeypatch):
        prof, traj, samples, sol = small_audit_case(64, 20)
        calls = {"radial_gradient": 0, "radial_divergence": 0}
        for name in calls:
            real = getattr(grids, name)

            def counting(*args, _real=real, _name=name, **kw):
                calls[_name] += 1
                return _real(*args, **kw)

            # radial_strain looks the gradient up in grids, the audit in its own namespace
            monkeypatch.setattr(grids, name, counting)
            monkeypatch.setattr(relative_energy, name, counting)
        rei_audit(feed(samples, AuditPass(prof, traj.params, traj.times, sol)), traj)
        # each block differences grad s and the strains of the (2, rows, n)
        # stacks U and U - u once, and takes div U, div(U - u) and div(s U)
        blocks = len(row_blocks(traj.times.size))
        assert blocks > 1
        assert calls == {"radial_gradient": 3 * blocks, "radial_divergence": 3 * blocks}

    def test_blocks_keep_every_bit(self):
        prof, traj, s, sol = small_audit_case(64, 2 * ROW_BLOCK + 1)
        params = traj.params
        sizes = [rows.stop - rows.start for rows in row_blocks(s.t.size)]
        assert sizes == [ROW_BLOCK, ROW_BLOCK + 1]  # the one-row remainder joined its neighbour
        assert np.array_equal(traj.energy, total_energy(s, prof, params))
        assert np.array_equal(traj.mass, integrate(s.rho, prof.grid))
        rows = row_blocks(s.t.size)[-1]
        for field in (sol.s, sol.grad_phi, sol.dt_grad_phi, sol.div_rho_grad_phi):
            assert np.array_equal(field(traj.times[rows]), field(traj.times)[rows])

    def test_post_run_working_set_does_not_grow_with_samples(self):
        peaks = {"audit": [], "bounds": []}
        for n_samples in (8 * ROW_BLOCK, 16 * ROW_BLOCK):
            prof, traj, s, sol = small_audit_case(512, n_samples)
            params, times = traj.params, traj.times
            for name, run in (
                ("audit", lambda: rei_audit(feed(s, AuditPass(prof, params, times, sol)), traj)),
                ("bounds", lambda: uniform_bounds_report(feed(s, BoundsPass(prof, params, times, 0.5)))),
            ):
                tracemalloc.start()
                try:
                    run()
                    peaks[name].append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        # a block row-field is 32 KiB at n = 512; a whole-stack field would grow by 256 KiB
        block = ROW_BLOCK * 512 * 8
        for name, (lo, hi) in peaks.items():
            assert abs(hi - lo) < block, (name, lo, hi)

    def test_eps_mismatch_rejected(self, radial_profile, radial_grid, operator):
        n = radial_grid.n
        init = PrimitiveState(
            rho=radial_profile.rho0.copy(), mom=np.zeros(n), q=radial_profile.rho0.copy()
        )
        times = np.array([0.0, 0.1])
        sol = spectral_solution(operator, AcousticState(s=np.zeros(n), phi=np.zeros(n)), 0.4)
        with pytest.raises(DomainError):
            rei_audit(*streamed(init, radial_profile, EPS02, times,
                                AuditPass(radial_profile, EPS02, times, sol)))

    def test_nonpositive_ansatz_density_rejected(self, radial_profile, radial_grid, operator):
        n = radial_grid.n
        init = PrimitiveState(
            rho=radial_profile.rho0.copy(), mom=np.zeros(n), q=radial_profile.rho0.copy()
        )
        times = np.array([0.0, 0.1])
        s0 = -3.0 * radial_profile.rho0 / EPS02.eps  # rho0 + eps s = -2 rho0 at t = 0
        sol = spectral_solution(operator, AcousticState(s=s0, phi=np.zeros(n)), EPS02.eps)
        with pytest.raises(DomainError, match="lost positivity"):
            rei_audit(*streamed(init, radial_profile, EPS02, times,
                                AuditPass(radial_profile, EPS02, times, sol)))
