"""The lockstep eps sweep: members advanced as one stack, bit for bit.

run_lockstep advances members that differ only in eps together, each with
its own dt, dropping a member from the stack once it reaches the sample
time.  Every member must reproduce its run alone exactly, the sweep must
make one step call per lockstep iteration, and a member failing mid-run,
in the update or in the stack's one viscous solve, must leave the partial
report a one-by-one sweep would write, and a failed single run must leave
the state it failed on.  The fused step must equal a plain
reference bit for bit up to the viscous solve, which must match a dense
solve, and return no view of the work buffers its aux reuses.  The
implicit viscous force must leave a stiff run at the hyperbolic dt.
A run streams its samples to its passes in blocks: every streamed
measurement must equal, bit for bit, the same pass fed the blocks of the
run alone's stacked samples, and a streamed sweep's memory must not grow
with its sample count.
"""

import ctypes
import tracemalloc

import numpy as np
import pytest
from conftest import feed, stacked_run

from anelastic_lab import configio, lapack, primitive, relative_energy
from anelastic_lab.cli import main
from anelastic_lab.grids import DomainError
from anelastic_lab.harness import (
    SweepPlan,
    acoustic_ansatz,
    audit_quarantine_time,
    NormsPass,
    limit_norms,
    sweep_epsilon,
)
from anelastic_lab.hydrostatics import build_profile
from anelastic_lab.params import ScalingParams
from anelastic_lab.primitive import (
    CFL,
    RHO_FLOOR,
    ROW_BLOCK,
    VACUUM_CUT,
    PrimitiveAux,
    PrimitiveState,
    SolverFailure,
    init_ill_prepared,
    row_blocks,
    run_lockstep,
    run_primitive,
)
from anelastic_lab.relative_energy import (
    AuditPass,
    BoundsPass,
    PressurePass,
    rei_audit,
    residual_pressure_value,
    uniform_bounds_report,
)

EPS = (0.4, 0.2, 0.1, 0.05)
SERIES = (
    "energy", "dissipation", "mass", "q_mass", "sponge_mass", "sponge_q",
    "outer_mass_flux", "outer_q_flux", "n3_integral",
)
SMALL = ["--set", "grid.n=64", "--set", "sweep.samples=17"]


def small_config(**sets):
    """The default configuration at n = 64, with params.KEY=VALUE set by keyword."""
    return configio.load_config(
        None, ["grid.n=64", *(f"params.{key}={value}" for key, value in sets.items())]
    )


def members(eps_list, **sets):
    cfg = small_config(**sets)
    grid = configio.grid_from(cfg)
    params = [configio.params_from(cfg).with_eps(eps) for eps in eps_list]
    prof = build_profile(configio.potential_from(cfg), params[0], grid)
    inits = [init_ill_prepared(configio.data_from(cfg), prof, p) for p in params]
    return prof, params, inits, np.linspace(0.0, params[0].horizon, 17)


def lockstep(inits, prof, params, times):
    """run_lockstep's trajectories, each with its member's streamed blocks stacked as
    stacked_run stacks them."""
    stacks = np.empty((len(inits), 3, times.size, prof.grid.n))

    def keeper(stack):
        def keep(rows, block):
            stack[:, rows] = block.fields

        return [keep]

    runs = run_lockstep(inits, prof, params, times, [keeper(stack) for stack in stacks])
    return [(run, PrimitiveState.of(stack, times)) for run, stack in zip(runs, stacks)]


def test_members_reproduce_their_runs_alone_bit_for_bit():
    prof, params, inits, times = members(EPS)
    together = lockstep(inits, prof, params, times)
    for init, p, (traj, samples) in zip(inits, params, together):
        alone, alone_samples = stacked_run(init, prof, p, times)
        assert traj.params == p and traj.step_count == alone.step_count > 0
        assert np.array_equal(samples.fields, alone_samples.fields)
        assert np.array_equal(traj.times, alone.times)
        for name in SERIES:
            assert np.array_equal(getattr(traj, name), getattr(alone, name)), name


def test_aux_rejects_members_that_differ_beyond_eps():
    prof, params, _, _ = members((0.4, 0.2))
    with pytest.raises(DomainError):
        PrimitiveAux(prof, [params[0], ScalingParams(eps=0.2, alpha=0.5)])


def recording_steps(monkeypatch, times):
    """Patch step_primitive to log, per call, the eps of each member and its sample interval."""
    calls = []
    real_step = primitive.step_primitive

    def recording(state, aux, dt_max, *args, **kwargs):
        targets = state.t + dt_max
        k = np.argmin(np.abs(times[:, None] - targets), axis=0)
        calls.append(list(zip(aux.eps[:, 0].tolist(), k.tolist())))
        return real_step(state, aux, dt_max, *args, **kwargs)

    monkeypatch.setattr(primitive, "step_primitive", recording)
    return calls


def test_sweep_makes_one_step_call_per_lockstep_iteration(monkeypatch):
    cfg = small_config()
    plan = SweepPlan(
        eps_list=EPS[:3],
        data=configio.data_from(cfg),
        potential=configio.potential_from(cfg),
        params=configio.params_from(cfg),
        grid=configio.grid_from(cfg),
        n_samples=17,
        beta=cfg["sweep.beta"],
    )
    prof, params, inits, times = members(EPS[:3])
    calls = recording_steps(monkeypatch, times)
    per_interval = np.zeros((3, times.size), dtype=int)
    for j, (init, p) in enumerate(zip(inits, params)):
        del calls[:]
        run_primitive(init, prof, p, times, [])
        for ((eps, k),) in calls:
            per_interval[j, k] += 1
    del calls[:]
    sweep_epsilon(plan)
    assert len(calls) == per_interval.max(axis=0).sum() < per_interval.sum()
    # stacks shrink as members reach the sample time, never below one member
    assert max(len(c) for c in calls) == 3 and min(len(c) for c in calls) == 1


def poison_second_member(monkeypatch):
    """Make rho of the eps = 0.2 member negative once the eps = 0.4 member has
    left the stack, so its row in the stack is not its index in the sweep."""
    real_step = primitive.step_primitive
    stacks = []

    def poisoned(state, aux, dt_max, *args, **kwargs):
        eps = aux.eps[:, 0].tolist()
        if 0.2 in eps and 0.4 not in eps:
            state.rho[eps.index(0.2)] = -1.0
            stacks.append(eps)
        return real_step(state, aux, dt_max, *args, **kwargs)

    monkeypatch.setattr(primitive, "step_primitive", poisoned)
    return stacks


def test_mid_run_failure_names_the_member(monkeypatch):
    prof, params, inits, times = members(EPS[:3])
    stacks = poison_second_member(monkeypatch)
    with pytest.raises(SolverFailure, match="nonpositive density") as failure:
        run_lockstep(inits, prof, params, times, [()] * len(inits))
    assert stacks == [[0.2, 0.1]] and failure.value.member == 1
    assert failure.value.state.rho.shape == (prof.grid.n,)


def test_mid_run_failure_keeps_the_one_by_one_partial_report(tmp_path, monkeypatch, capsys):
    argv = ["sweep", "--set", "sweep.eps_list=0.4,0.2,0.1", *SMALL]
    assert main([*argv, "--output", str(tmp_path / "full")]) == 0
    full = (tmp_path / "full" / "convergence.csv").read_text().splitlines()
    poison_second_member(monkeypatch)
    assert main([*argv, "--output", str(tmp_path / "partial")]) == 3
    assert "sweep failed at eps=0.2" in capsys.readouterr().err
    partial = (tmp_path / "partial" / "convergence.csv").read_text().splitlines()
    assert partial == full[:2]  # header + the eps = 0.4 row, byte for byte


def failing_viscous_solve(monkeypatch, size, info):
    """Make dgtsv report INFO = info on the stacks whose system has size unknowns."""
    real = lapack.DGTSV

    def failing(*args):  # raw addresses: N NRHS DL D DU B LDB INFO
        real(*args)
        if ctypes.c_int64.from_address(args[0]).value == size:
            ctypes.c_int64.from_address(args[7]).value = info

    monkeypatch.setattr(lapack, "DGTSV", failing)


def test_failed_viscous_solve_names_the_member(monkeypatch):
    prof, params, inits, _ = members(EPS[:3])
    n = prof.grid.n
    failing_viscous_solve(monkeypatch, 3 * n, n + 5)  # a zero pivot in the second block
    with pytest.raises(SolverFailure, match=f"dgtsv info = {n + 5}") as failure:
        primitive.step_primitive(stacked(inits), PrimitiveAux(prof, params), np.full(3, 1.0))
    assert failure.value.member == 1 and failure.value.state.rho.shape == (n,)


def test_failed_viscous_solve_keeps_the_one_by_one_partial_report(tmp_path, monkeypatch, capsys):
    argv = ["sweep", "--set", "sweep.eps_list=0.4,0.2,0.1", *SMALL]
    assert main([*argv, "--output", str(tmp_path / "full")]) == 0
    full = (tmp_path / "full" / "convergence.csv").read_text().splitlines()
    # once the eps = 0.4 member has left the stack, eps = 0.2 is its first block
    failing_viscous_solve(monkeypatch, 2 * 64, 7)
    assert main([*argv, "--output", str(tmp_path / "partial")]) == 3
    err = capsys.readouterr().err
    assert "sweep failed at eps=0.2" in err and "dgtsv info = 7" in err
    partial = (tmp_path / "partial" / "convergence.csv").read_text().splitlines()
    assert partial == full[:2]  # header + the eps = 0.4 row, byte for byte


@pytest.mark.parametrize("command", ["simulate-primitive", "audit-rei"])
def test_failed_primitive_run_leaves_its_state(tmp_path, monkeypatch, capsys, command):
    failures = []
    real_step = primitive.step_primitive

    def recording(*args):
        try:
            return real_step(*args)
        except SolverFailure as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(primitive, "step_primitive", recording)
    failing_viscous_solve(monkeypatch, 64, 7)  # the one member's system, at its first step
    assert main([command, *SMALL, "--output", str(tmp_path)]) == 3
    assert "dgtsv info = 7" in capsys.readouterr().err
    (exc,) = failures
    with np.load(tmp_path / "final_state.npz", allow_pickle=False) as saved:
        assert np.array_equal(saved["fields"], exc.state.fields)
        assert saved["t"] == exc.state.t > 0.0


def test_audit_breakdown_mid_run_leaves_its_state(tmp_path, monkeypatch, capsys):
    # the audit streams its run; a breakdown after blocks have reached its passes
    # still exits 3 and leaves the state it failed on, and writes no report
    real_step, calls, failures = primitive.step_primitive, [], []

    def breaking(state, *args):
        calls.append(state.t.copy())
        if len(calls) == 40:
            failures.append(SolverFailure("breakdown", primitive.PrimitiveState.of(
                state.fields[:, 0] * 2.0, float(state.t[0]))))
            raise failures[-1]
        return real_step(state, *args)

    monkeypatch.setattr(primitive, "step_primitive", breaking)
    audited, real_measure = [], relative_energy.AuditPass.measure
    monkeypatch.setattr(relative_energy.AuditPass, "measure",
                        lambda self, block: audited.append(block.t.size) or real_measure(self, block))
    assert main(["audit-rei", *SMALL, "--output", str(tmp_path)]) == 3
    assert "solver failure: breakdown" in capsys.readouterr().err
    (exc,) = failures
    assert exc.state.t > 0.0 and len(audited) >= 2  # the failure came after two blocks
    with np.load(tmp_path / "final_state.npz", allow_pickle=False) as saved:
        assert np.array_equal(saved["fields"], exc.state.fields)
        assert saved["t"] == exc.state.t
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final_state.npz"]


def test_stiff_viscosity_runs_at_the_hyperbolic_dt():
    # at mu = 20 an explicit viscous limit CFL h^2 min(rho) / (2 eps^alpha 4 mu / 3)
    # would take about five times the steps of the hyperbolic one
    (prof, [p], [init], times), inviscid = members((0.2,), mu=20.0), members((0.2,), mu=0.0)
    traj, samples = stacked_run(init, prof, p, times)
    alone = run_primitive(inviscid[2][0], inviscid[0], inviscid[1][0], times, [])
    viscous_dt = CFL * 0.5 * prof.grid.h**2 * prof.rho0.min() / (p.eps**p.alpha * 4.0 * p.mu / 3.0)
    assert traj.times[-1] == p.horizon and np.isfinite(samples.fields).all()
    assert traj.step_count <= 1.05 * alone.step_count < 0.25 * p.horizon / viscous_dt
    assert np.all(np.diff(traj.energy) <= 1.0e-3 * traj.energy[0])  # c08's tolerance


# A plain reference for the step and the dissipation rate, written with
# np.diff and fresh temporaries: the fused kernel (constants hoisted,
# buffers reused, in-place arithmetic) must match it bit for bit up to the
# viscous solve, and the solve must match a dense one per member.


def reference_step(state, aux, dt_max):
    """(new fields, t, dt, outer fluxes, sponge sinks) of one IMEX Euler step,
    with the explicit momentum mom* in place of the new momentum."""
    prof, grid, gamma, h = aux.prof, aux.grid, aux.gamma, aux.grid.h
    rho, mom, q = state.fields
    u = mom / np.maximum(rho, RHO_FLOOR)
    theta = np.where(rho < VACUUM_CUT, 1.0, q / np.maximum(rho, RHO_FLOOR))
    q_pow = np.maximum(q, 0.0) ** (gamma - 1.0)
    c2 = gamma * q_pow * theta
    speed = np.abs(u) + np.sqrt(np.maximum(c2, 0.0)) / aux.eps
    dt = np.minimum(CFL * h / speed.max(axis=-1), aux.dt_sponge)
    dt = np.minimum(dt, dt_max)
    col = dt[:, None]
    dev = np.zeros(state.fields.shape[:-1] + (grid.n + 1,))
    np.subtract(state.fields, aux.static, out=dev[..., :-1])

    x = np.zeros(dev.shape)
    x[0, :, :-1], x[1:, :, :-1] = mom, state.fields[1:] * u
    spd = np.concatenate((speed, np.broadcast_to(aux.c_ghost, (len(dt), 1))), axis=-1)
    x_l, x_r, d_l, d_r = x[..., :-1], x[..., 1:], dev[..., :-1], dev[..., 1:]
    a = np.maximum(spd[:, :-1], spd[:, 1:])
    fluxes = np.zeros(dev.shape)
    fluxes[..., 1:] = 0.5 * (x_l + x_r) - 0.5 * a * (d_r - d_l)
    new = state.fields - col * np.diff(grid.face_areas * fluxes) / grid.weights

    def pressure_gradient(p):
        first, inner = p[..., :1], 0.5 * (p[..., :-1] + p[..., 1:])
        outer = 0.5 * (p[..., -1:] + aux.p_ghost)
        return np.diff(np.concatenate((first, inner, outer), axis=-1)) / h

    rho0 = prof.rho0
    grad_p0 = pressure_gradient(rho0 * rho0 ** (gamma - 1.0))
    new[1] -= (col / aux.eps2) * (pressure_gradient(q * q_pow) - (rho / rho0) * grad_p0)
    new -= (col * aux.sigma) * dev[..., :-1]
    sinks = (aux.sig_w * dev[::2, :, :-1]).sum(axis=-1)
    return new, state.t + dt, dt, fluxes[::2, :, -1], sinks


def grad_div(u, grid):
    """d/dr (div u): div u at a face differences r^2 u across it, is 3 u'(0) at
    the origin and copies its neighbour at the outer face."""
    r, h = grid.centers, grid.h
    face_div = np.empty(u.shape[:-1] + (grid.n + 1,))
    face_div[..., 1:-1] = np.diff(r * r * u) / (h * grid.faces[1:-1] ** 2)
    face_div[..., 0] = 3.0 * u[..., 0] / r[0]
    face_div[..., -1] = face_div[..., -2]
    return np.diff(face_div) / h


def reference_solve(mom_star, rho, dt, aux):
    """mom = rho_f u with (diag rho_f - dt visc_coef L) u = mom*, a dense solve per member."""
    lap = grad_div(np.eye(aux.grid.n), aux.grid).T  # column j is L e_j
    rho_f = np.maximum(rho, RHO_FLOOR)
    mom = np.empty_like(mom_star)
    for j, coef in enumerate(dt * aux.visc_coef[:, 0]):
        mom[j] = rho_f[j] * np.linalg.solve(np.diag(rho_f[j]) - coef * lap, mom_star[j])
    return mom


def reference_dissipation_rate(u, aux):
    grid, p, h = aux.grid, aux.params[0], aux.grid.h
    du = np.empty_like(u)  # odd parity: the ghost below r = 0 is -u[0]
    du[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * h)
    du[..., 0] = (u[..., 1] - -1.0 * u[..., 0]) / (2.0 * h)
    du[..., -1] = (u[..., -1] - u[..., -2]) / h
    u_f = np.zeros(u.shape[:-1] + (grid.n + 1,))
    u_f[..., 1:-1] = 0.5 * (u[..., :-1] + u[..., 1:])
    u_f[..., -1] = 1.5 * u[..., -1] - 0.5 * u[..., -2]
    d = np.diff(grid.face_areas * u_f) / grid.shell_volumes
    dens = p.mu * (4.0 / 3.0) * (du - u / grid.centers) ** 2 + p.lam * d**2
    eps_alpha = np.array([q.eps**q.alpha for q in aux.params])
    return eps_alpha * np.sum(dens * grid.weights, axis=-1)


def stacked(inits):
    fields = np.stack([init.fields for init in inits], axis=1)
    return PrimitiveState.of(fields, np.array([init.t for init in inits]))


@pytest.mark.parametrize(
    "sets", [{}, {"lam": 0.3}, {"mu": 0.0}], ids=["first-order", "lam0.3", "mu0"]
)
def test_step_matches_the_reference_bit_for_bit(sets):
    prof, params, inits, _ = members(EPS[:3], **sets)
    aux = PrimitiveAux(prof, params)
    assert aux.viscous == (sets.get("mu") != 0.0)
    state, u, dt_max = stacked(inits), None, np.full(3, 1.0)
    for _ in range(40):
        ref_new, ref_t, ref_dt, ref_flux, ref_sink = reference_step(state, aux, dt_max)
        state, dt, flux, sink = primitive.step_primitive(state, aux, dt_max, u)
        assert np.array_equal(state.fields[::2], ref_new[::2]) and np.array_equal(state.t, ref_t)
        if aux.viscous:
            ref_mom = reference_solve(ref_new[1], ref_new[0], ref_dt, aux)
            scale = np.abs(ref_mom).max(axis=-1)
            assert np.all(np.abs(state.mom - ref_mom).max(axis=-1) <= 1.0e-12 * scale)
        else:
            assert np.array_equal(state.mom, ref_new[1])
        assert np.array_equal(dt, ref_dt) and np.array_equal(flux, ref_flux)
        assert np.array_equal(sink, ref_sink)
        u = state.velocity
        rates = primitive.viscous_dissipation_rate(u, aux)
        assert np.array_equal(rates, reference_dissipation_rate(u, aux))
    assert np.all(state.t > 0.0) and np.any(flux != 0.0)


def test_step_results_are_not_views_of_the_buffers():
    prof, params, inits, _ = members(EPS[:3])
    aux, state, dt_max = PrimitiveAux(prof, params), stacked(inits), np.full(3, 1.0)
    first = primitive.step_primitive(state, aux, dt_max)
    kept = [first[0].fields.copy(), first[0].t.copy(), *(a.copy() for a in first[1:])]
    second = primitive.step_primitive(first[0], aux, dt_max)
    assert not np.array_equal(second[0].fields, kept[0])
    for now, then in zip((first[0].fields, first[0].t, *first[1:]), kept):
        assert np.array_equal(now, then)

    poisoned = stacked(inits)
    poisoned.rho[1] = -1.0
    with pytest.raises(SolverFailure) as failure:
        primitive.step_primitive(poisoned, aux, dt_max)
    failed = failure.value.state.fields.copy()
    primitive.step_primitive(state, aux, dt_max)
    assert failure.value.member == 1 and np.array_equal(failure.value.state.fields, failed)


@pytest.mark.parametrize("idx", [[1, 2], [2]])
def test_members_equals_a_fresh_aux(idx):
    prof, params, inits, _ = members(EPS[:3])
    aux = PrimitiveAux(prof, params)
    primitive.step_primitive(stacked(inits), aux, np.full(3, 1.0))  # dirty the buffers
    sliced, fresh = aux.members(np.array(idx)), PrimitiveAux(prof, [params[i] for i in idx])
    assert vars(sliced).keys() == vars(fresh).keys()
    for name, value in vars(fresh).items():
        other = getattr(sliced, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(other, value), name
        else:
            assert other is value or other == value, name


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_folded_ledger_equals_the_per_step_ledger(monkeypatch, rows):
    # one row per block is the per-step ledger; with 3 samples an interval holds
    # more steps than the default block, and members leave the stack mid-block
    prof, params, inits, times = members(EPS)
    times = times[::8]
    default = lockstep(inits, prof, params, times)
    assert default[-1][0].step_count > 2 * (times.size - 1) * primitive._BLOCK
    monkeypatch.setattr(primitive, "_BLOCK", rows)
    for (traj, samples), (folded, folded_samples) in zip(default, lockstep(inits, prof, params, times)):
        assert folded.step_count == traj.step_count
        assert np.array_equal(folded_samples.fields, samples.fields)
        assert np.array_equal(folded.times, traj.times)
        for name in SERIES:
            assert np.array_equal(getattr(folded, name), getattr(traj, name)), name


def sweep_plan(cfg, n_samples):
    return SweepPlan(
        eps_list=EPS[:3],
        data=configio.data_from(cfg),
        potential=configio.potential_from(cfg),
        params=configio.params_from(cfg),
        grid=configio.grid_from(cfg),
        n_samples=n_samples,
        beta=cfg["sweep.beta"],
    )


@pytest.mark.parametrize("sets", [{}, {"lam": 0.5}], ids=["default", "lam0.5"])
def test_streamed_measurements_equal_the_stacked_ones(sets):
    # 17 samples: blocks of 8 and 9 rows, the one-row remainder joined to the second
    assert [rows.stop - rows.start for rows in row_blocks(17)] == [ROW_BLOCK, ROW_BLOCK + 1]
    cfg = small_config(**sets)
    plan = sweep_plan(cfg, 17)
    report = sweep_epsilon(plan)
    prof, params, inits, times = members(EPS[:3], **sets)
    theta2 = plan.data.theta2.field(prof.grid)
    for j, (init, p) in enumerate(zip(inits, params)):
        traj, samples = stacked_run(init, prof, p, times)
        n1, n2a, n2b, n3 = limit_norms(feed(samples, NormsPass(prof, p, times, theta2)), traj)
        assert (report.n1[j], report.n2a[j], report.n2b[j], report.n3[j]) == (n1, n2a, n2b, n3)
        pressure = feed(samples, PressurePass(prof, p, times, plan.beta))
        assert report.r12[j] == residual_pressure_value(pressure)
        assert report.bounds[j] == uniform_bounds_report(feed(samples, BoundsPass(prof, p, times)))

    # the audit as audit-rei streams it, against the audit of the stacked run
    p, data = params[-1], plan.data
    times = np.linspace(0.0, min(p.horizon, audit_quarantine_time(prof, p)), 17)
    sol = acoustic_ansatz(data, prof, p.eps, cfg["acoustic.delta"])
    audit = AuditPass(prof, p, times, sol)
    bounds, pressure = BoundsPass(prof, p, times), PressurePass(prof, p, times, plan.beta)
    run = run_primitive(inits[-1], prof, p, times, (audit, bounds, pressure))
    streamed, (traj, samples) = rei_audit(audit, run), stacked_run(inits[-1], prof, p, times)
    stacked = rei_audit(feed(samples, AuditPass(prof, p, times, sol)), traj)
    assert np.array_equal(streamed.times, stacked.times)
    for name in ("rel_energy", "lhs", "defect"):
        assert np.array_equal(getattr(streamed, name), getattr(stacked, name)), name
    assert streamed.rhs_groups.keys() == stacked.rhs_groups.keys()
    for name, series in stacked.rhs_groups.items():
        assert np.array_equal(streamed.rhs_groups[name], series), name
    for name in ("tolerance", "raw_max_defect", "raw_perturbed_max_defect"):
        assert getattr(streamed, name) == getattr(stacked, name), name
    assert uniform_bounds_report(bounds) == uniform_bounds_report(
        feed(samples, BoundsPass(prof, p, times)))
    assert residual_pressure_value(pressure) == residual_pressure_value(
        feed(samples, PressurePass(prof, p, times, plan.beta)))


def test_streamed_sweep_working_set_does_not_grow_with_samples():
    # a stacked run would hold (3, m, n_samples, n) floats: 7.1 MB more at 257 samples
    cfg = configio.load_config(None, ["params.horizon=0.5"])
    peaks = []
    for n_samples in (65, 257):
        plan = sweep_plan(cfg, n_samples)
        tracemalloc.start()
        try:
            sweep_epsilon(plan)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block = 3 * len(plan.eps_list) * (ROW_BLOCK + 1) * plan.grid.n * 8
    assert plan.grid.n == 512 and abs(peaks[1] - peaks[0]) < block, peaks


def test_simulate_primitive_working_set_does_not_grow_with_samples(tmp_path, capsys):
    # a stacked run would hold 3 * n_samples * n floats: 2.9 MB more at 1025 samples
    # than at 65 (n = 128); the streamed command copies only the final sample
    peaks = []
    for n_samples in (65, 1025):
        sets = ["--set", "grid.n=128", "--set", f"run.samples={n_samples}"]
        tracemalloc.start()
        try:
            assert main(["simulate-primitive", *sets, "--output", str(tmp_path)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block = 3 * (ROW_BLOCK + 1) * 128 * 8
    # what must grow is per-sample series: the ledger's nine, the sample times and the
    # mass defect diagnostics.csv writes, under 16 floats a sample
    series = 16 * 8 * (1025 - 65)
    assert abs(peaks[1] - peaks[0]) < block + series, peaks
