"""The lockstep eps sweep: members advanced as one stack, bit for bit.

run_lockstep advances members that differ only in eps together, each with
its own dt, dropping a member from the stack once it reaches the sample
time.  Every member must reproduce its run alone exactly, the sweep must
make one step call per lockstep iteration, and a member failing mid-run
must leave the partial report a one-by-one sweep would write.
"""

import numpy as np
import pytest

from anelastic_lab import configio, primitive
from anelastic_lab.cli import main
from anelastic_lab.grids import DomainError
from anelastic_lab.harness import SweepPlan, sweep_epsilon
from anelastic_lab.hydrostatics import build_profile
from anelastic_lab.params import ScalingParams
from anelastic_lab.primitive import (
    PrimitiveAux,
    SolverFailure,
    init_ill_prepared,
    run_lockstep,
    run_primitive,
)

EPS = (0.4, 0.2, 0.1, 0.05)
SERIES = (
    "energy", "dissipation", "mass", "q_mass", "sponge_mass", "sponge_q",
    "outer_mass_flux", "outer_q_flux", "n3_integral",
)
SMALL = ["--set", "grid.n=64", "--set", "sweep.samples=17"]


def small_config():
    cfg = dict(configio.DEFAULTS)
    cfg["grid.n"] = "64"
    return cfg


def members(eps_list):
    cfg = small_config()
    grid = configio.grid_from(cfg)
    params = [configio.params_from(cfg).with_eps(eps) for eps in eps_list]
    prof = build_profile(configio.potential_from(cfg), params[0], grid)
    inits = [init_ill_prepared(configio.data_from(cfg), prof, p, grid) for p in params]
    return prof, params, inits, np.linspace(0.0, params[0].horizon, 17)


def test_members_reproduce_their_runs_alone_bit_for_bit():
    prof, params, inits, times = members(EPS)
    together = run_lockstep(inits, prof, params, times)
    for init, p, traj in zip(inits, params, together):
        alone = run_primitive(init, prof, p, prof.grid, times)
        assert traj.params == p and traj.step_count == alone.step_count > 0
        assert np.array_equal(traj.samples.fields, alone.samples.fields)
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
    )
    prof, params, inits, times = members(EPS[:3])
    calls = recording_steps(monkeypatch, times)
    per_interval = np.zeros((3, times.size), dtype=int)
    for j, (init, p) in enumerate(zip(inits, params)):
        del calls[:]
        run_primitive(init, prof, p, prof.grid, times)
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
        run_lockstep(inits, prof, params, times)
    assert stacks == [[0.2, 0.1]] and failure.value.member == 1
    assert failure.value.state.rho.shape == (prof.grid.n,)


def test_mid_run_failure_keeps_the_one_by_one_partial_report(tmp_path, monkeypatch, capsys):
    argv = ["sweep", "--eps", "0.4,0.2,0.1", *SMALL]
    assert main([*argv, "--output", str(tmp_path / "full")]) == 0
    full = (tmp_path / "full" / "convergence.csv").read_text().splitlines()
    poison_second_member(monkeypatch)
    assert main([*argv, "--output", str(tmp_path / "partial")]) == 3
    assert "sweep failed at eps=0.2" in capsys.readouterr().err
    partial = (tmp_path / "partial" / "convergence.csv").read_text().splitlines()
    assert partial == full[:2]  # header + the eps = 0.4 row, byte for byte
