"""Command-line interface of the laboratory.

Every subcommand reads the plain-text configuration (defaults, optional
file, dotted-key overrides); `configio` parses and checks all of it
before the command starts.  A command runs deterministically for a given
configuration and seed, and writes CSV/plain-text artifacts with floats
printed at 17 significant digits, and a primitive run's last state as
final_state.npz.  Exit codes: 0 success, 2 validation failure (bad
configuration or data), 3 solver failure (a failed primitive run first
writes the state it failed on), 141 stdout closed by the reader; any
other exception is an internal error and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys

import numpy as np

from . import acoustic as ac
from . import configio
from .anelastic import init_anelastic, run_anelastic, smoothness_monitor
from .grids import DomainError, lp_norm
from .harness import (
    FMT,
    SweepError,
    SweepPlan,
    acoustic_ansatz,
    audit_quarantine_time,
    sweep_epsilon,
)
from .helmholtz import DEFAULT_TOL, SolverError, StaggeredVector
from .hydrostatics import build_profile, flatness_report, static_residual
from .primitive import DataError, PrimitiveState, SolverFailure, init_ill_prepared, run_primitive
from .relative_energy import (
    AuditPass,
    BoundsPass,
    PressurePass,
    rei_audit,
    residual_pressure_value,
    uniform_bounds_report,
)

# the entry points: each command runs the cmd_* function of its name, dashes as underscores
__all__ = [
    "build_parser", "main", "cmd_profile", "cmd_simulate_primitive", "cmd_simulate_anelastic",
    "cmd_simulate_acoustic", "cmd_spectrum", "cmd_decay", "cmd_strichartz", "cmd_sweep",
    "cmd_audit_rei", "cmd_report",
]
COMMANDS = tuple(n.removeprefix("cmd_").replace("_", "-") for n in __all__ if n.startswith("cmd_"))


def _fmt(x: float) -> str:
    return FMT % x


def _write_rows(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_text(outdir: str, name: str, text: str) -> None:
    """Write text and a final newline to outdir/name, then print it."""
    with open(os.path.join(outdir, name), "w") as fh:
        fh.write(text + "\n")
    print(text)


def _write_state(outdir: str, state, grid, params) -> None:
    """Write a primitive state's (3, n) fields, its time t and the grid and parameters
    it ran on to outdir/final_state.npz, which np.load(path, allow_pickle=False) reads."""
    meta = {key: getattr(grid, key) for key in ("geometry", "n", "r_max", "r_sponge")}
    meta |= {key: getattr(params, key) for key in ("eps", "alpha", "gamma", "lam", "mu", "rho_bar")}
    np.savez(os.path.join(outdir, "final_state.npz"), fields=state.fields, t=state.t, **meta)


@contextlib.contextmanager
def _leaving_failed_state(outdir: str, grid, params):
    """A SolverFailure in the block first leaves the failing state in outdir."""
    try:
        yield
    except SolverFailure as exc:
        _write_state(outdir, exc.state, grid, params)
        raise


def _setup(args, write: bool = True):
    """Configuration and output directory; made if the command writes, else it must exist."""
    cfg = configio.load_config(args.config, args.set)
    outdir = args.output or cfg["output.dir"]
    if not outdir:
        raise configio.ConfigError("output.dir = '' names no output directory")
    if write:
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise configio.ConfigError(f"output directory {outdir}: {exc.strerror}") from exc
    elif not os.path.isdir(outdir):
        raise configio.ConfigError(f"output directory {outdir} does not exist")
    return cfg, outdir


def cmd_profile(args) -> int:
    cfg, outdir = _setup(args)
    prof = _profile_setup(cfg)[2]
    rep = flatness_report(prof)  # radial mode only, so a cartesian run writes nothing
    residual = static_residual(prof)
    _write_rows(
        os.path.join(outdir, "profile.csv"),
        ["r", "F", "rho0", "dp"],
        zip(prof.grid.centers, prof.F, prof.rho0, prof.dp),
    )
    text = rep.text() + f"\nstatic residual (max norm)    = {residual:.17g}"
    _write_text(outdir, "flatness.txt", text)
    return 0


def cmd_simulate_primitive(args) -> int:
    cfg, outdir = _setup(args)
    grid, params, prof = _profile_setup(cfg)
    data = configio.data_from(cfg)
    init = init_ill_prepared(data, prof, params)
    times = np.linspace(0.0, params.horizon, cfg["run.samples"])
    last = []  # the run streams its samples and keeps a copy of the final one only

    def keep_last(rows, block):
        if rows.stop == times.size:
            last.append(block.row(-1).fields.copy())

    with _leaving_failed_state(outdir, grid, params):
        traj = run_primitive(init, prof, params, times, [keep_last])
    rows = zip(
        traj.times,
        traj.energy,
        traj.dissipation,
        traj.mass,
        traj.mass - traj.mass[0] + traj.outer_mass_flux + traj.sponge_mass,
    )
    _write_rows(
        os.path.join(outdir, "diagnostics.csv"),
        ["t", "energy", "dissipation", "mass", "mass_defect"],
        rows,
    )
    _write_state(outdir, PrimitiveState.of(last[0], traj.times[-1]), grid, params)
    print(
        f"simulate-primitive: steps={traj.step_count} "
        f"E0={traj.energy[0]:.17g} E_end={traj.energy[-1]:.17g}"
    )
    return 0


def cmd_simulate_anelastic(args) -> int:
    cfg, outdir = _setup(args)
    grid, params, prof = _profile_setup(cfg)
    if not grid.radial and not args.experimental:
        raise configio.ConfigError(
            "cartesian anelastic runs are experimental; pass --experimental"
        )
    _, u0, theta2 = configio.data_from(cfg).limit_fields(grid)
    if grid.radial:
        v0 = u0
    else:
        rng = np.random.default_rng(cfg["run.seed"])
        n = grid.n
        v0 = StaggeredVector(
            0.1 * rng.standard_normal((n + 1, n, n)),
            0.1 * rng.standard_normal((n, n + 1, n)),
            0.1 * rng.standard_normal((n, n, n + 1)),
        )
    theta20 = 1.0 + theta2
    state = init_anelastic(v0, theta20, prof)
    traj = run_anelastic(state, prof, params.horizon, n_samples=cfg["run.samples"])
    monitor = smoothness_monitor(traj)
    rows = zip(
        traj.times,
        traj.div_norms,
        traj.flux_norms,
        monitor.surrogates["velocity"],
        monitor.surrogates["pressure"],
        monitor.surrogates["density"],
    )
    _write_rows(
        os.path.join(outdir, "anelastic.csv"),
        ["t", "div_norm", "flux_norm", "s_velocity", "s_pressure", "s_density"],
        rows,
    )
    defects = traj.divergence_defects
    if np.any(np.isfinite(defects)):
        ratio = f"{np.nanmax(defects):.17g}"
    else:  # V is zero or solver round-off; a ratio would divide it by itself
        ratio = f"not-measured(|rho0V|<={DEFAULT_TOL:g})"
    print(
        f"simulate-anelastic: samples={traj.times.size} "
        f"max-div-norm={np.max(traj.div_norms):.17g} "
        f"max-flux-norm={np.max(traj.flux_norms):.17g} "
        f"max-div-defect={ratio} blowup={monitor.any_blowup}"
    )
    return 0


def _profile_setup(cfg):
    grid = configio.grid_from(cfg)
    params = configio.params_from(cfg)
    return grid, params, build_profile(configio.potential_from(cfg), params, grid)


def _acoustic_setup(cfg):
    """Profile, frequency window, the acoustic operator holding the modes the
    window can see, and the windowed density datum of unit norm."""
    grid, params, prof = _profile_setup(cfg)
    window = ac.FrequencyWindow(cfg["acoustic.delta"])
    op = ac.assemble_operator(prof, lam_max=window.lam_max)
    h = ac.functional_calculus(op, window, configio.data_from(cfg).rho1.field(grid))
    with np.errstate(over="ignore"):  # an overflow is reported just below
        norm = op.norm(h)
    if not 0.0 < norm < np.inf:  # NaN fails too
        raise DataError(
            f"windowed datum has norm {norm:g}, not in (0, inf); "
            "widen the window or the data, or lower data.rho1_amp"
        )
    return prof, window, op, h / norm


def cmd_simulate_acoustic(args) -> int:
    cfg, outdir = _setup(args)
    grid, params, prof = _profile_setup(cfg)
    sol = acoustic_ansatz(configio.data_from(cfg), prof, params.eps, cfg["acoustic.delta"])
    times = np.linspace(0.0, params.horizon, cfg["run.samples"])
    with np.errstate(over="ignore"):  # an overflowing energy is reported just below
        st, energies = sol.state(times), sol.energy(times)
    if not np.isfinite(energies[0]):
        raise DataError(
            f"initial acoustic energy is {energies[0]:g}; "
            "lower data.rho1_amp or data.vel_amp"
        )
    rows = zip(times, energies, lp_norm(st.s, 2.0, grid), lp_norm(st.phi, 2.0, grid))
    _write_rows(
        os.path.join(outdir, "acoustic.csv"), ["t", "energy", "s_l2", "phi_l2"], rows
    )
    drift = np.max(np.abs(energies - energies[0]))
    print(
        f"simulate-acoustic: E0={energies[0]:.17g} "
        f"max-energy-drift={drift:.17g}"
    )
    return 0


def cmd_spectrum(args) -> int:
    cfg, outdir = _setup(args)
    evals = ac.operator_spectrum(_profile_setup(cfg)[2])
    _write_rows(
        os.path.join(outdir, "spectrum.csv"),
        ["k", "lambda"],
        ((k, lam) for k, lam in enumerate(evals)),
    )
    print(f"spectrum: {evals.size} eigenvalues, range [{evals[0]:.17g}, {evals[-1]:.17g}]")
    return 0


def cmd_decay(args) -> int:
    cfg, outdir = _setup(args)
    prof, window, op, h = _acoustic_setup(cfg)
    t_star = ac.crossing_time(prof)
    ppp, radius = cfg["acoustic.points_per_period"], cfg["acoustic.ball_radius"]
    m1 = ac.measure_local_decay(op, window, radius, h, t_star, ppp)
    m2 = ac.measure_local_decay(op, window, radius, h, 2.0 * t_star, ppp)
    _write_rows(os.path.join(outdir, "decay.csv"), ["t", "localized_sq_norm"], zip(m2.times, m2.series))
    ratio = m2.value / m1.value if m1.value > 0 else np.inf
    print(
        f"decay: T*={t_star:.17g} measure(T*)={m1.value:.17g} "
        f"measure(2T*)={m2.value:.17g} saturation-ratio={ratio:.17g}"
    )
    return 0


def cmd_strichartz(args) -> int:
    cfg, outdir = _setup(args)
    p, q = cfg["acoustic.p"], cfg["acoustic.q"]
    prof, window, op, h = _acoustic_setup(cfg)
    t_star = ac.crossing_time(prof)
    meas = ac.measure_strichartz(op, window, h, p, q, t_star, cfg["acoustic.points_per_period"])
    _write_rows(os.path.join(outdir, "strichartz.csv"), ["t", "lq_norm"], zip(meas.times, meas.series))
    print(
        f"strichartz: p={p:g} q={q:g} value={meas.value:.17g} "
        f"data-l2={meas.data_l2:.17g} constant-estimate={meas.ratio:.17g}"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg, outdir = _setup(args)
    plan = SweepPlan(
        grid=configio.grid_from(cfg),
        params=configio.params_from(cfg),
        eps_list=cfg["sweep.eps_list"],
        data=configio.data_from(cfg),
        potential=configio.potential_from(cfg),
        n_samples=cfg["sweep.samples"],
        beta=cfg["sweep.beta"],
    )
    try:
        report = sweep_epsilon(plan)
    except SweepError as exc:
        if exc.partial is not None:
            exc.partial.write_csv(outdir)
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return 3
    report.write_csv(outdir)
    _write_text(outdir, "summary.txt", report.summary_text())
    return 0


def cmd_audit_rei(args) -> int:
    cfg, outdir = _setup(args)
    _, params, prof = _profile_setup(cfg)
    data = configio.data_from(cfg)
    delta, beta = cfg["acoustic.delta"], cfg["sweep.beta"]
    horizon = min(params.horizon, audit_quarantine_time(prof, params))
    times = ac.time_mesh(
        horizon,
        (2.0 / delta) / params.eps,
        cfg["acoustic.points_per_period"],
    )
    init = init_ill_prepared(data, prof, params)
    sol = acoustic_ansatz(data, prof, params.eps, delta)
    # the run streams its samples to the three passes, so it keeps none
    audit = AuditPass(prof, params, times, sol)
    bounds, pressure = BoundsPass(prof, params, times), PressurePass(prof, params, times, beta)
    with _leaving_failed_state(outdir, prof.grid, params):
        run = run_primitive(init, prof, params, times, (audit, bounds, pressure))
    rep = rei_audit(audit, run)
    text = "\n".join((
        rep.summary_text(),
        uniform_bounds_report(bounds).text(),
        f"residual-pressure value    = {residual_pressure_value(pressure):.17g}",
        f"raw ansatz max-defect      = {rep.raw_max_defect:.17g}",
        f"raw perturbed max-defect   = {rep.raw_perturbed_max_defect:.17g}",
        f"perturbed strictly larger  = {rep.raw_perturbed_max_defect > rep.raw_max_defect}",
    ))
    rows = zip(
        rep.times,
        rep.lhs,
        rep.rhs_groups["velocity"],
        rep.rhs_groups["pressure"],
        rep.rhs_groups["background"],
        rep.rhs_groups["acoustic_source"],
        rep.rhs_groups["theta"],
        rep.defect,
    )
    _write_rows(
        os.path.join(outdir, "rei.csv"),
        ["t", "lhs", "rhs_velocity", "rhs_pressure", "rhs_background",
         "rhs_acoustic_source", "rhs_theta", "defect"],
        rows,
    )
    _write_text(outdir, "rei_summary.txt", text)
    return 0 if rep.passed else 3


def cmd_report(args) -> int:
    outdir = _setup(args, write=False)[1]
    found = False
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".txt"):
            found = True
            print(f"== {name}")
            with open(os.path.join(outdir, name)) as fh:
                print(fh.read(), end="")
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            found = True
            with open(os.path.join(outdir, name)) as fh:
                n_rows = sum(1 for _ in fh) - 1
            print(f"== {name}: {n_rows} data rows")
    if not found:
        print(f"report: no artifacts in {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anelastic-lab",
        description="Numerical laboratory for a gravitationally stratified "
        "low-Mach limit and its anelastic target system",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="configuration file (key = value with [sections])")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one configuration entry (repeatable)",
    )
    parser.add_argument("--output", help="output directory (default from config)")
    parser.add_argument("--experimental", action="store_true",
                        help="simulate-anelastic only: allow the cartesian nontrivial-velocity mode")
    return parser


# numerical breakdowns exit 3 and bad input exits 2; anything else is a bug
SOLVER_ERRORS = (SolverError, SolverFailure, ac.EigensolverError)
VALIDATION_ERRORS = (configio.ConfigError, DomainError, DataError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experimental and args.command != "simulate-anelastic":
        parser.error(f"--experimental applies to simulate-anelastic only, not {args.command}")
    # looked up per call, so a replaced cli.cmd_* attribute is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = command(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout is gone: send it to devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a reader that stopped early
    except SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except VALIDATION_ERRORS as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
