"""The benchmark trace wraps library functions by name.

A rename of a traced function, a time loop that calls the dt limit more
than once per step or takes a state's dissipation rate twice, an audit that rebuilds
the acoustic wave once per sample instead of once per field, an `audit-rei`
that audits its run more than once, or a decay
run that diagonalizes the whole operator instead of the window's modes,
fails here instead of silently breaking the benchmark's per-layer metrics.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from anelastic_lab import acoustic, cli, configio, primitive, relative_energy
from anelastic_lab.grids import Grid
from anelastic_lab.harness import acoustic_ansatz
from anelastic_lab.hydrostatics import PotentialSpec, build_profile
from anelastic_lab.params import ScalingParams
from anelastic_lab.primitive import GaussianBump, IllPreparedData, init_ill_prepared

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
        traj = primitive.run_primitive(init, prof, params, np.linspace(0.0, 0.2, 3))
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


def test_audit_reconstructs_each_field_once(tracing):
    grid = Grid("radial", 64, 8.0, 6.0)
    params = ScalingParams(eps=0.4, horizon=0.2)
    prof = build_profile(PotentialSpec(), params, grid)
    bump = GaussianBump(0.3, 1.0)
    data = IllPreparedData(rho1=bump, vel_potential=bump)
    init = init_ill_prepared(data, prof, params)
    traj = primitive.run_primitive(init, prof, params, np.linspace(0.0, 0.2, 9))
    sol = acoustic_ansatz(data, prof, params.eps, 0.25)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_flow(0)
        relative_energy.rei_audit(traj, sol)
        tracer.end_flow()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.flow_spans(0))
    # s, grad Phi, d/dt grad Phi and div(rho0 grad Phi), each evaluated once
    # on all 9 sample times for both shapes and both test velocities
    assert 0 < metrics["acoustic.reconstruct_calls"] <= 4


def test_cli_audit_makes_one_pass(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_flow(0)
        small = ["--set", "grid.n=96", "--set", "grid.r_max=8.0", "--set", "grid.r_sponge=6.0"]
        argv = ["audit-rei", *small, "--output", str(tmp_path)]
        assert cli.main(argv) == 0
        tracer.end_flow()
    finally:
        tracer.uninstall()
    spans = tracer.flow_spans(0)
    # the grouped report and both raw defects come from one audit call
    assert sum(rec[0] == "relative_energy.rei_audit" for rec in spans) == 1
    assert tracing.layer_metrics(spans)["acoustic.reconstruct_calls"] == 4


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
