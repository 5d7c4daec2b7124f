"""The benchmark trace wraps library functions by name.

A rename of a traced function, a time loop that calls the dt limit more
than once per step or takes a state's dissipation rate twice, an audit that evaluates
an ansatz field at a sample time twice or per sample instead of per block, an `audit-rei`
that audits its run more than once, a command whose run or measurements
bypass the traced functions, or a decay
run that diagonalizes the whole operator instead of the window's modes,
fails here instead of silently breaking the benchmark's per-layer metrics.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from conftest import feed, stacked_run

from anelastic_lab import acoustic, cli, configio, primitive, relative_energy
from anelastic_lab.grids import Grid
from anelastic_lab.harness import acoustic_ansatz
from anelastic_lab.hydrostatics import PotentialSpec, build_profile
from anelastic_lab.params import ScalingParams
from anelastic_lab.primitive import GaussianBump, IllPreparedData, init_ill_prepared, row_blocks

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_installs_and_uninstalls(tracing):
    original = primitive.step_primitive
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert primitive.step_primitive is not original
    finally:
        tracer.uninstall()
    assert primitive.step_primitive is original


def test_one_dt_limit_and_one_dissipation_rate_per_step(tracing, monkeypatch):
    grid = Grid("radial", 64, 8.0, 6.0)
    params = ScalingParams(eps=0.4, horizon=0.2)
    prof = build_profile(PotentialSpec(), params, grid)
    bump = GaussianBump(0.3, 1.0)
    init = init_ill_prepared(IllPreparedData(rho1=bump, vel_potential=bump), prof, params)
    rows = []  # states per dissipation-rate call: the rate takes a block of steps at once
    real_rate = primitive.viscous_dissipation_rate

    def counting_rate(u, aux):
        rows.append(int(np.prod(u.shape[:-1])))
        return real_rate(u, aux)

    monkeypatch.setattr(primitive, "viscous_dissipation_rate", counting_rate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_flow(0)
        traj = primitive.run_primitive(init, prof, params, np.linspace(0.0, 0.2, 3), [])
        tracer.end_flow()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.flow_spans(0))
    steps = traj.step_count
    assert metrics["primitive.steps"] == steps > 0
    # the trace buckets steps by the eps it reads off run_primitive's arguments
    assert metrics["primitive.steps.eps0.4"] == steps
    assert metrics["primitive.dt_calls_per_step"] == 1.0
    # each state's rate is evaluated exactly once: the initial state's, then one per step
    assert sum(rows) == steps + 1


ANSATZ_FIELDS = ("s", "grad_phi", "dt_grad_phi", "div_rho_grad_phi")


def record_ansatz_rows(monkeypatch) -> dict:
    """Make each ansatz field record the number of times it is evaluated at per call."""
    rows = {name: [] for name in ANSATZ_FIELDS}
    for name in ANSATZ_FIELDS:
        real = getattr(acoustic.SpectralWaveSolution, name)

        def recording(self, t, _real=real, _rows=rows[name]):
            _rows.append(np.size(t))
            return _real(self, t)

        monkeypatch.setattr(acoustic.SpectralWaveSolution, name, recording)
    return rows


def test_audit_reconstructs_each_field_once(tracing, monkeypatch):
    grid = Grid("radial", 64, 8.0, 6.0)
    params = ScalingParams(eps=0.4, horizon=0.2)
    prof = build_profile(PotentialSpec(), params, grid)
    bump = GaussianBump(0.3, 1.0)
    data = IllPreparedData(rho1=bump, vel_potential=bump)
    init = init_ill_prepared(data, prof, params)
    traj, samples = stacked_run(init, prof, params, np.linspace(0.0, 0.2, 20))
    sol = acoustic_ansatz(data, prof, params.eps, 0.25)
    rows = record_ansatz_rows(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_flow(0)
        audit = feed(samples, relative_energy.AuditPass(prof, params, traj.times, sol))
        relative_energy.rei_audit(audit, traj)
        tracer.end_flow()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.flow_spans(0))
    # s, grad Phi, d/dt grad Phi and div(rho0 grad Phi), each evaluated once per
    # block of sample rows for both shapes and both test velocities
    blocks = len(row_blocks(20))
    assert blocks > 1
    assert metrics["acoustic.reconstruct_calls"] == 4 * blocks
    assert all(len(r) == blocks and sum(r) == 20 for r in rows.values()), rows


SMALL = ["--set", "grid.n=96", "--set", "grid.r_max=8.0", "--set", "grid.r_sponge=6.0"]


def traced_main(tracing, argv) -> list:
    """The spans of one traced cli.main(argv) flow, which must exit 0."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_flow(0)
        assert cli.main(argv) == 0
        tracer.end_flow()
    finally:
        tracer.uninstall()
    return tracer.flow_spans(0)


def test_cli_audit_makes_one_pass(tracing, tmp_path, monkeypatch):
    rows = record_ansatz_rows(monkeypatch)
    spans = traced_main(tracing, ["audit-rei", *SMALL, "--output", str(tmp_path)])
    # main runs the traced cmd_audit_rei, which it looks up at call time
    assert sum(rec[0] == "cli.cmd_audit_rei" for rec in spans) == 1
    # the grouped report and both raw defects come from one audit of the streamed run
    assert sum(rec[0] == "relative_energy.rei_audit" for rec in spans) == 1
    n_samples = len((tmp_path / "rei.csv").read_text().splitlines()) - 1
    blocks = len(row_blocks(n_samples))
    assert tracing.layer_metrics(spans)["acoustic.reconstruct_calls"] == 4 * blocks
    assert all(len(r) == blocks and sum(r) == n_samples for r in rows.values()), rows


@pytest.mark.parametrize("command", ["audit-rei", "simulate-primitive"])
def test_streamed_run_is_traced(tracing, tmp_path, command):
    spans = traced_main(tracing, [command, *SMALL, "--output", str(tmp_path)])
    names = [rec[0] for rec in spans]
    steps = [rec for rec in spans if rec[0] == "primitive.step_primitive"]
    assert steps and all(names[rec[3]] == "primitive.run_primitive" for rec in steps)
    metrics = tracing.layer_metrics(spans)
    assert metrics["primitive.steps.eps0.2"] == metrics["primitive.steps"] == len(steps)
    assert metrics["primitive.busy_s"] > 0.0
    if command == "audit-rei":  # each measurement's finishing reduction runs once, traced
        for name in ("rei_audit", "uniform_bounds_report", "residual_pressure_value"):
            assert names.count(f"relative_energy.{name}") == 1, name


def test_sweep_traces_the_limit_norms_of_every_member(tracing, tmp_path):
    argv = ["sweep", *SMALL, "--set", "params.horizon=0.2", "--set", "sweep.samples=5"]
    names = [rec[0] for rec in traced_main(tracing, [*argv, "--output", str(tmp_path)])]
    members = len(configio.load_config()["sweep.eps_list"])
    assert names.count("harness.limit_norms") == names.count("harness.run_case") == members


def test_decay_assembles_only_the_window_modes(tracing, tmp_path, monkeypatch):
    assembled = []
    real_assemble = acoustic.assemble_operator

    def recording_assemble(*args, **kwargs):
        assembled.append(real_assemble(*args, **kwargs))
        return assembled[-1]

    monkeypatch.setattr(acoustic, "assemble_operator", recording_assemble)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_flow(0)
        assert cli.main(["decay", "--output", str(tmp_path)]) == 0
        tracer.end_flow()
    finally:
        tracer.uninstall()
    assert tracing.layer_metrics(tracer.flow_spans(0))["acoustic.assemblies"] == 1
    [op] = assembled
    window = acoustic.FrequencyWindow(float(configio.DEFAULTS["acoustic.delta"]))
    k = np.count_nonzero(acoustic.operator_spectrum(op.prof) < window.lam_max)
    assert op.evals.size == k <= 40
    assert op.evecs.shape == (op.grid.n, k)
