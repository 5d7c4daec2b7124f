"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
the shared epsilon sweep and pipeline fixtures keep the whole suite at
desk scale (a few minutes on one laptop core).
"""

import time

import numpy as np
import pytest
from conftest import stacked_run

from anelastic_lab import configio
from anelastic_lab.acoustic import (
    AcousticState,
    FrequencyWindow,
    assemble_operator,
    admissible_pair,
    crossing_time,
    functional_calculus,
    measure_local_decay,
    measure_strichartz,
    spectral_solution,
    time_mesh,
)
from anelastic_lab.grids import DomainError, Grid, lp_norm
from anelastic_lab.harness import (
    SweepPlan,
    acoustic_ansatz,
    audit_quarantine_time,
    sweep_epsilon,
)
from anelastic_lab.helmholtz import (
    CartesianWeightedLaplacian,
    StaggeredVector,
    project,
)
from anelastic_lab.hydrostatics import PotentialSpec, build_profile, constant_profile, static_residual
from anelastic_lab.params import ScalingParams
from anelastic_lab.primitive import (
    GaussianBump,
    IllPreparedData,
    PrimitiveState,
    init_ill_prepared,
    run_primitive,
)
from anelastic_lab.relative_energy import (
    AuditPass,
    BoundsPass,
    fit_eps_slope,
    rei_audit,
    rel_energy,
    residual_pressure_value,
)

GAMMA = 5.0 / 3.0
PPP = configio.DEFAULTS["acoustic.points_per_period"]


def verdict(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail}) [{time.time() - started:.1f}s]")
    assert ok, f"criterion {number}: {detail}"


def canonical_data():
    return IllPreparedData(
        rho1=GaussianBump(0.4, 1.2),
        vel_potential=GaussianBump(0.4, 1.5),
        theta2=GaussianBump(0.4, 1.2),
    )


@pytest.fixture(scope="module")
def sweep_report():
    plan = SweepPlan(
        eps_list=(0.4, 0.2, 0.1),
        data=canonical_data(),
        potential=PotentialSpec(),
        params=ScalingParams(eps=0.2, alpha=1.0, horizon=2.5),
        grid=Grid("radial", 512, 16.0, 12.0),
        n_samples=65,
        beta=0.5,
    )
    t0 = time.time()
    report = sweep_epsilon(plan)
    report.wall_time = time.time() - t0
    return report


@pytest.fixture(scope="module")
def rei_pipeline():
    """Quarantined eps = 0.2 pipeline: the primitive run streamed to an audit against
    the acoustic ansatz, as audit-rei runs it, and the audit's report."""
    grid = Grid("radial", 512, 16.0, 12.0)
    params = ScalingParams(eps=0.2, alpha=1.0, horizon=2.5)
    prof = build_profile(PotentialSpec(), params, grid)
    data = canonical_data()
    delta = 0.25
    horizon = min(params.horizon, audit_quarantine_time(prof, params))
    times = time_mesh(horizon, (2.0 / delta) / params.eps, PPP)
    init = init_ill_prepared(data, prof, params)
    audit = AuditPass(prof, params, times, acoustic_ansatz(data, prof, params.eps, delta))
    run = run_primitive(init, prof, params, times, [audit])
    return grid, params, prof, rei_audit(audit, run)


def test_c01_hydrostatic_order():
    t0 = time.time()
    params = ScalingParams()
    residuals = []
    for n in (256, 512, 1024):
        g = Grid("radial", n, 8.0, 6.0)
        residuals.append(static_residual(build_profile(PotentialSpec(), params, g)))
    rates = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok = all(r >= 1.9 for r in rates) and residuals[-1] < 1.0e-4
    verdict(
        1,
        "hydrostatic correctness",
        ok,
        f"rates={rates[0]:.3f},{rates[1]:.3f} residual@1024={residuals[-1]:.3e}",
        t0,
    )


def test_c02_closed_form_profile():
    t0 = time.time()
    g = Grid("radial", 512, 16.0, 12.0)
    prof = build_profile(PotentialSpec(), ScalingParams(gamma=2.0), g)
    err = float(np.max(np.abs(prof.rho0 - (1.0 + 0.5 * prof.F))))
    verdict(2, "gamma=2 closed form", err <= 1.0e-15, f"max deviation={err:.3e}", t0)


def test_c03_weighted_projection():
    t0 = time.time()
    rng = np.random.default_rng(7)
    params = ScalingParams()
    worst_idem = 0.0
    worst_orth = 0.0

    g_r = Grid("radial", 256, 16.0, 12.0)
    for prof in (build_profile(PotentialSpec(), params, g_r), constant_profile(params, g_r)):
        for _ in range(5):
            v = rng.standard_normal(g_r.n)
            h1, _ = project(v, prof)
            h2, _ = project(h1, prof)
            scale = max(lp_norm(v, 2.0, g_r), 1.0e-30)
            worst_idem = max(worst_idem, lp_norm(h2 - h1, 2.0, g_r) / scale)
            # in radial geometry orthogonality holds because H itself vanishes
            worst_orth = max(worst_orth, lp_norm(h1, 2.0, g_r) / scale)

    g_c = Grid("cartesian", 16, 8.0, 6.0)
    for prof in (build_profile(PotentialSpec(), params, g_c), constant_profile(params, g_c)):
        lap = CartesianWeightedLaplacian(g_c, prof.rho0)
        for _ in range(5):
            n = g_c.n
            v = StaggeredVector(
                rng.standard_normal((n + 1, n, n)),
                rng.standard_normal((n, n + 1, n)),
                rng.standard_normal((n, n, n + 1)),
            )
            h1, _ = project(v, prof)
            h2, _ = project(h1, prof)
            worst_idem = max(worst_idem, h2.axpy(-1.0, h1).max_abs() / max(h1.max_abs(), 1e-30))
            rho_h = lap.rho_times(h1)
            den_h = np.sqrt(lap.face_inner(rho_h, rho_h))
            for _ in range(5):
                psi = rng.standard_normal(g_c.field_shape)
                gpsi = lap.gradient(psi)
                den = den_h * np.sqrt(lap.face_inner(gpsi, gpsi))
                worst_orth = max(worst_orth, abs(lap.face_inner(rho_h, gpsi)) / den)

    ok = worst_idem <= 1.0e-8 and worst_orth <= 1.0e-8
    verdict(3, "weighted projection", ok, f"idem={worst_idem:.2e} orth={worst_orth:.2e}", t0)


def test_c04_acoustic_operator():
    t0 = time.time()
    R = 10.0
    grid = Grid("radial", 1024, R, 7.5)
    params = ScalingParams()
    prof = constant_profile(params, grid)
    op = assemble_operator(prof)

    eig_err = max(
        abs(op.evals[k] - GAMMA * ((k + 1) * np.pi / R) ** 2)
        / (GAMMA * ((k + 1) * np.pi / R) ** 2)
        for k in range(5)
    )
    rng = np.random.default_rng(11)
    u = rng.standard_normal(grid.n)
    v = rng.standard_normal(grid.n)
    sa = abs(op.inner(op.apply(u), v) - op.inner(u, op.apply(v))) / (op.norm(u) * op.norm(v))

    init = AcousticState(
        s=GaussianBump(1.0, 1.0).field(grid), phi=0.2 * GaussianBump(1.0, 2.0).field(grid)
    )
    horizon = 10.0 * crossing_time(prof)
    energies = spectral_solution(op, init, 0.2).energy(np.linspace(0.0, horizon, 41))
    drift = float(np.max(np.abs(energies - energies[0])) / energies[0])

    ok = eig_err < 5.0e-3 and sa <= 1.0e-10 and drift <= 1.0e-6
    verdict(
        4,
        "acoustic operator",
        ok,
        f"eig-err={eig_err:.2e} selfadj={sa:.2e} energy-drift={drift:.2e}",
        t0,
    )


def test_c05_wave_speed():
    t0 = time.time()
    params = ScalingParams(eps=1.0, mu=0.0, horizon=8.0)
    n, R = 512, 12.0
    grid = Grid("radial", n, R, 10.0)
    prof = constant_profile(params, grid)
    bump = GaussianBump(1.0e-3, 0.5)
    init = PrimitiveState(
        rho=prof.rho0 + bump.field(grid), mom=np.zeros(n), q=prof.rho0 + bump.field(grid)
    )
    _, samples = stacked_run(init, prof, params, np.array([0.0, 2.0, 6.0]))
    r = grid.centers

    def peak(rho):
        y = r * np.abs(rho - prof.rho0)
        i = int(np.argmax(y))
        a, b, c = y[i - 1], y[i], y[i + 1]
        return r[i] + 0.5 * (a - c) / (a - 2 * b + c) * grid.h

    speed = (peak(samples.rho[2]) - peak(samples.rho[1])) / 4.0
    target = np.sqrt(GAMMA)
    rel = abs(speed - target) / target
    verdict(5, "wave speed", rel < 0.03, f"speed={speed:.5f} target={target:.5f} rel={rel:.3%}", t0)


@pytest.fixture(scope="module")
def decay_operator():
    grid = Grid("radial", 512, 16.0, 12.0)
    prof = build_profile(PotentialSpec(), ScalingParams(), grid)
    return assemble_operator(prof)


def test_c06_local_decay(decay_operator):
    t0 = time.time()
    op = decay_operator
    window = FrequencyWindow(0.3)
    h = functional_calculus(op, window, GaussianBump(1.0, 0.75).field(op.grid))
    h = h / op.norm(h)
    t_star = crossing_time(op.prof)
    m1 = measure_local_decay(op, window, 2.5, h, t_star, PPP)
    m2 = measure_local_decay(op, window, 2.5, h, 2.0 * t_star, PPP)
    ratio = m2.value / m1.value
    verdict(6, "local decay saturation", ratio <= 1.05, f"ratio={ratio:.6f}", t0)


def test_c07_strichartz(decay_operator):
    t0 = time.time()
    op = decay_operator
    window = FrequencyWindow(0.3)
    accepted = admissible_pair(4.0, 12.0)
    rejected = False
    try:
        measure_strichartz(op, window, np.ones(op.grid.n), 4.0, 10.0, 1.0, PPP)
    except DomainError:
        rejected = True
    t_star = crossing_time(op.prof)
    ratios = []
    for width, center in ((0.6, 0.0), (1.2, 0.0), (0.9, 1.5)):
        h = functional_calculus(op, window, GaussianBump(1.0, width, center).field(op.grid))
        h = h / op.norm(h)
        ratios.append(measure_strichartz(op, window, h, 4.0, 12.0, t_star, PPP).ratio)
    spread = max(ratios) / min(ratios)
    ok = accepted and rejected and spread <= 10.0
    verdict(
        7,
        "strichartz admissibility/stability",
        ok,
        f"(4,12) ok, (4,10) rejected, constant spread={spread:.3f}",
        t0,
    )


def test_c08_primitive_solver():
    t0 = time.time()
    params = ScalingParams(eps=0.2, alpha=1.0, horizon=2.5)
    # well balancing at a refinement pair: the static state is an exact
    # discrete fixed point, which satisfies the O(h^2) drift bound
    drifts = []
    for n in (256, 512):
        g = Grid("radial", n, 16.0, 12.0)
        prof = build_profile(PotentialSpec(), params, g)
        init = PrimitiveState(rho=prof.rho0.copy(), mom=np.zeros(n), q=prof.rho0.copy())
        _, samples = stacked_run(init, prof, params, np.array([0.0, 1.0]))
        drifts.append(lp_norm(samples.rho[-1] - prof.rho0, np.inf, g))
    balanced = all(d <= (16.0 / n) ** 2 for d, n in zip(drifts, (256, 512)))

    g = Grid("radial", 512, 16.0, 12.0)
    prof = build_profile(PotentialSpec(), params, g)
    init = init_ill_prepared(canonical_data(), prof, params)
    traj = run_primitive(init, prof, params, np.linspace(0.0, 2.5, 65), [])
    mass_defect = abs(
        traj.mass[-1] - traj.mass[0] + traj.outer_mass_flux[-1] + traj.sponge_mass[-1]
    )
    conserved = mass_defect <= 1.0e-9 * traj.mass[0]
    tol_e = 1.0e-3 * traj.energy[0]
    monotone = bool(np.all(np.diff(traj.energy) <= tol_e))
    ok = balanced and conserved and monotone
    verdict(
        8,
        "primitive solver",
        ok,
        f"drifts={drifts[0]:.1e},{drifts[1]:.1e} mass-defect={mass_defect:.2e} "
        f"energy-monotone={monotone}",
        t0,
    )


def test_c09_relative_energy(rei_pipeline):
    t0 = time.time()
    grid, params, prof, rep = rei_pipeline
    nonneg = bool(np.all(rep.rel_energy >= 0.0))

    matched = PrimitiveState(
        rho=prof.rho0.copy(), mom=np.zeros(grid.n), q=prof.rho0.copy()
    )
    zero_val = rel_energy(matched, prof.rho0, np.zeros(grid.n), params, grid)

    params2 = ScalingParams(eps=0.1, gamma=2.0, horizon=1.0)
    prof2 = constant_profile(params2, grid)
    state2 = PrimitiveState(
        rho=np.ones(grid.n), mom=np.zeros(grid.n), q=np.ones(grid.n)
    )
    spot = rel_energy(
        state2, np.full(grid.n, 1.2), np.zeros(grid.n), params2, grid
    ) / grid.weights.sum()
    spot_ok = abs(spot - 4.0) <= 4.0e-12
    ok = nonneg and zero_val < 1.0e-12 and spot_ok
    verdict(
        9,
        "relative energy",
        ok,
        f"nonneg={nonneg} matched={zero_val:.1e} gamma2-spot={spot:.15f}",
        t0,
    )


def test_c10_rei_audit(rei_pipeline):
    t0 = time.time()
    rep = rei_pipeline[-1]
    larger = rep.raw_perturbed_max_defect > rep.raw_max_defect
    ok = rep.passed and larger
    verdict(
        10,
        "relative energy inequality",
        ok,
        f"max-defect={rep.max_defect:.4f} tol={rep.tolerance:.4f} "
        f"perturbed {rep.raw_perturbed_max_defect:.4f} > ansatz {rep.raw_max_defect:.4f}: "
        f"{larger}",
        t0,
    )


def test_c11_uniform_bounds(sweep_report):
    t0 = time.time()
    spreads = sweep_report.bound_spreads()
    keys = ("r5", "r6", "r7", "r8")
    ok = all(spreads[k] <= 10.0 for k in keys)
    detail = " ".join(f"{k}={spreads[k]:.2f}" for k in keys)
    verdict(11, "uniform-bound sweep", ok, detail, t0)


def test_c12_residual_pressure(sweep_report):
    t0 = time.time()
    # physical-data sweep: the residual set stays empty, the bound holds
    # with constant zero and the decay is faster than any power
    main_vacuous = bool(np.all(sweep_report.r12 == 0.0))
    main_ok = main_vacuous or sweep_report.r12_slope >= 2.0

    # strong-data sweep makes the integral nonzero so the fitted exponent
    # is a real measurement
    g = Grid("radial", 192, 8.0, 6.0)
    values = []
    eps_list = (0.4, 0.2, 0.1)
    for eps in eps_list:
        params = ScalingParams(eps=eps, horizon=0.6)
        prof = build_profile(PotentialSpec(), params, g)
        data = IllPreparedData(rho1=GaussianBump(25.0, 0.8), theta2=GaussianBump(0.2, 1.0))
        init = init_ill_prepared(data, prof, params)
        times = np.linspace(0.0, 0.6, 41)
        bounds = BoundsPass(prof, params, times, 0.5)
        run_primitive(init, prof, params, times, [bounds])
        values.append(residual_pressure_value(bounds))
    slope = fit_eps_slope(eps_list, values)
    strong_ok = all(v > 0.0 for v in values) and slope >= 2.0
    ok = main_ok and strong_ok
    verdict(
        12,
        "residual pressure estimate",
        ok,
        f"canonical data all-zero={main_vacuous} strong-data slope={slope:.2f}",
        t0,
    )


def test_c13_convergence_theorem(sweep_report):
    t0 = time.time()
    rep = sweep_report
    consts = rep.n2a_constants
    c_spread = float(np.max(consts) / np.min(consts))
    ok = (
        rep.n1_decreasing
        and rep.n3_decreasing
        and rep.n1_slope > 0.0
        and rep.n3_slope > 0.0
        and c_spread <= 3.0
        and rep.wall_time < 1800.0
    )
    verdict(
        13,
        "convergence norms",
        ok,
        f"N1 slope={rep.n1_slope:.2f} N3 slope={rep.n3_slope:.2f} "
        f"N2a-const spread={c_spread:.2f} sweep-time={rep.wall_time:.0f}s",
        t0,
    )
