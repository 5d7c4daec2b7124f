"""Command-line interface of the laboratory.

Every subcommand reads the plain-text configuration (defaults, optional
file, dotted-key overrides), runs deterministically for a given
configuration and seed, and writes CSV/plain-text artifacts with floats
printed at 17 significant digits.  Exit codes: 0 success, 2 validation
failure (bad configuration, flags or data), 3 solver failure, 141 stdout
closed by the reader; any other exception is an internal error and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import acoustic as ac
from . import configio
from .anelastic import init_anelastic, run_anelastic, smoothness_monitor
from .grids import DomainError, lp_norm
from .harness import (
    SOLVER_ERRORS,
    SweepError,
    SweepPlan,
    acoustic_ansatz,
    audit_quarantine_time,
    sweep_epsilon,
)
from .helmholtz import DEFAULT_TOL, StaggeredVector, project
from .hydrostatics import build_profile, export_profile_csv, flatness_report, static_residual
from .params import ParameterError
from .primitive import (
    DataError,
    init_ill_prepared,
    run_primitive,
    write_checkpoint,
)
from .relative_energy import (
    RelEnergyReport,
    rei_audit,
    residual_pressure_value,
    uniform_bounds_report,
)

FMT = "%.17g"


def _fmt(x: float) -> str:
    return FMT % x


def _write_rows(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _setup(args):
    cfg = configio.load_config(args.config, args.set)
    outdir = args.output or cfg["output.dir"]
    os.makedirs(outdir, exist_ok=True)
    return cfg, outdir


def cmd_profile(args) -> int:
    cfg, outdir = _setup(args)
    prof = _profile_setup(cfg)[2]
    export_profile_csv(prof, os.path.join(outdir, "profile.csv"))
    rep = flatness_report(prof)
    residual = static_residual(prof)
    text = rep.text() + f"\nstatic residual (max norm)    = {residual:.17g}\n"
    with open(os.path.join(outdir, "flatness.txt"), "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


def cmd_simulate_primitive(args) -> int:
    cfg, outdir = _setup(args)
    grid, params, prof = _profile_setup(cfg)
    data = configio.data_from(cfg)
    init = init_ill_prepared(data, prof, params)
    times = np.linspace(0.0, params.horizon, configio.get_int(cfg, "run.samples"))
    traj = run_primitive(init, prof, params, times)
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
    write_checkpoint(os.path.join(outdir, "final_state.bin"), traj.samples.row(-1), grid, params)
    print(
        f"simulate-primitive: steps={traj.step_count} "
        f"E0={traj.energy[0]:.17g} E_end={traj.energy[-1]:.17g}"
    )
    return 0


def cmd_simulate_anelastic(args) -> int:
    cfg, outdir = _setup(args)
    grid, params, prof = _profile_setup(cfg)
    if not grid.radial and not args.experimental:
        raise ConfigUsageError(
            "cartesian anelastic runs are experimental; pass --experimental"
        )
    _, u0, theta2 = configio.data_from(cfg).limit_fields(grid)
    if grid.radial:
        v0 = u0
    else:
        rng = np.random.default_rng(configio.get_int(cfg, "run.seed"))
        n = grid.n
        v0 = StaggeredVector(
            0.1 * rng.standard_normal((n + 1, n, n)),
            0.1 * rng.standard_normal((n, n + 1, n)),
            0.1 * rng.standard_normal((n, n, n + 1)),
        )
    theta20 = 1.0 + theta2
    state = init_anelastic(v0, theta20, prof)
    traj = run_anelastic(
        state, prof, params.horizon, n_samples=configio.get_int(cfg, "run.samples")
    )
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
    """Profile and the acoustic operator holding the modes the window can see."""
    grid, params, prof = _profile_setup(cfg)
    window = ac.FrequencyWindow(configio.get_float(cfg, "acoustic.delta"))
    return grid, params, prof, ac.assemble_operator(prof, lam_max=window.lam_max)


def cmd_simulate_acoustic(args) -> int:
    cfg, outdir = _setup(args)
    grid, params, prof, op = _acoustic_setup(cfg)
    data = configio.data_from(cfg)
    rho1, v0, _ = data.limit_fields(grid)
    _, phi0 = project(v0, prof)
    s0, phi0d = ac.regularize_data(op, rho1, phi0, configio.get_float(cfg, "acoustic.delta"))
    with np.errstate(over="ignore"):  # an overflowing energy is reported just below
        traj = ac.evolve_acoustic(
            ac.AcousticState(s=s0, phi=phi0d),
            op,
            params.eps,
            params.horizon,
            n_samples=configio.get_int(cfg, "run.samples"),
        )
    if not np.isfinite(traj.energies[0]):
        raise DataError(
            f"initial acoustic energy is {traj.energies[0]:g}; "
            "lower data.rho1_amp or data.vel_amp"
        )
    st = traj.state
    rows = zip(st.t, traj.energies, lp_norm(st.s, 2.0, grid), lp_norm(st.phi, 2.0, grid))
    _write_rows(
        os.path.join(outdir, "acoustic.csv"), ["t", "energy", "s_l2", "phi_l2"], rows
    )
    drift = np.max(np.abs(traj.energies - traj.energies[0]))
    print(
        f"simulate-acoustic: E0={traj.energies[0]:.17g} "
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


def _windowed_datum(cfg, grid, op):
    data = configio.data_from(cfg)
    delta = configio.get_float(cfg, "acoustic.delta")
    window = ac.FrequencyWindow(delta)
    h = ac.functional_calculus(op, window, data.rho1.field(grid))
    with np.errstate(over="ignore"):  # an overflow is reported just below
        norm = op.norm(h)
    if not 0.0 < norm < np.inf:  # NaN fails too
        raise DataError(
            f"windowed datum has norm {norm:g}, not in (0, inf); "
            "widen the window or the data, or lower data.rho1_amp"
        )
    return window, h / norm


def cmd_decay(args) -> int:
    cfg, outdir = _setup(args)
    grid, params, prof, op = _acoustic_setup(cfg)
    window, h = _windowed_datum(cfg, grid, op)
    t_star = ac.crossing_time(prof)
    ppp = configio.get_int(cfg, "acoustic.points_per_period")
    radius = configio.get_float(cfg, "acoustic.ball_radius")
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
    p = args.p if args.p is not None else configio.get_float(cfg, "acoustic.p")
    q = args.q if args.q is not None else configio.get_float(cfg, "acoustic.q")
    for key, value in (("acoustic.p", p), ("acoustic.q", q)):
        if not value > 0.0:
            raise configio.ConfigError(f"{key} = {value:g} must be positive")
    if not ac.admissible_pair(p, q):
        raise ConfigUsageError(
            f"(p, q) = ({p:g}, {q:g}) violates the wave admissibility 1/p + 3/q = 1/2"
        )
    grid, params, prof, op = _acoustic_setup(cfg)
    window, h = _windowed_datum(cfg, grid, op)
    t_star = ac.crossing_time(prof)
    meas = ac.measure_strichartz(
        op, window, h, p, q, t_star, configio.get_int(cfg, "acoustic.points_per_period")
    )
    _write_rows(os.path.join(outdir, "strichartz.csv"), ["t", "lq_norm"], zip(meas.times, meas.series))
    print(
        f"strichartz: p={p:g} q={q:g} value={meas.value:.17g} "
        f"data-l2={meas.data_l2:.17g} constant-estimate={meas.ratio:.17g}"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg, outdir = _setup(args)
    grid = configio.grid_from(cfg)
    params = configio.params_from(cfg)
    plan = SweepPlan(
        eps_list=configio.eps_list_from(cfg, args.eps),
        data=configio.data_from(cfg),
        potential=configio.potential_from(cfg),
        params=params,
        grid=grid,
        n_samples=configio.get_int(cfg, "sweep.samples"),
        beta=configio.beta_from(cfg, params),
    )
    try:
        report = sweep_epsilon(plan)
    except SweepError as exc:
        if exc.partial is not None:
            exc.partial.write_csv(outdir)
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return 3
    report.write_csv(outdir)
    text = report.summary_text()
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_audit_rei(args) -> int:
    cfg, outdir = _setup(args)
    _, params, prof = _profile_setup(cfg)
    data = configio.data_from(cfg)
    delta = configio.get_float(cfg, "acoustic.delta")
    beta = configio.beta_from(cfg, params)
    horizon = min(params.horizon, audit_quarantine_time(prof, params))
    times = ac.time_mesh(
        horizon,
        (2.0 / delta) / params.eps,
        configio.get_int(cfg, "acoustic.points_per_period"),
    )
    init = init_ill_prepared(data, prof, params)
    traj = run_primitive(init, prof, params, times)
    sol = acoustic_ansatz(data, prof, params.eps, delta)
    rep = rei_audit(traj, sol)
    run_record = RelEnergyReport(
        audit=rep,
        bounds=uniform_bounds_report(traj),
        residual_pressure=residual_pressure_value(traj, beta),
    )
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
    text = (
        run_record.summary_text()
        + f"\nraw ansatz max-defect      = {rep.raw_max_defect:.17g}"
        + f"\nraw perturbed max-defect   = {rep.raw_perturbed_max_defect:.17g}"
        + f"\nperturbed strictly larger  = {rep.raw_perturbed_max_defect > rep.raw_max_defect}"
    )
    with open(os.path.join(outdir, "rei_summary.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0 if rep.passed else 3


def cmd_report(args) -> int:
    cfg, outdir = _setup(args)
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


class ConfigUsageError(ValueError):
    """CLI-level validation failure."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anelastic-lab",
        description="Numerical laboratory for a gravitationally stratified "
        "low-Mach limit and its anelastic target system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="configuration file (key = value with [sections])")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one configuration entry (repeatable)",
        )
        p.add_argument("--output", help="output directory (default from config)")

    for name, fn in (
        ("profile", cmd_profile),
        ("simulate-primitive", cmd_simulate_primitive),
        ("simulate-anelastic", cmd_simulate_anelastic),
        ("simulate-acoustic", cmd_simulate_acoustic),
        ("spectrum", cmd_spectrum),
        ("decay", cmd_decay),
        ("strichartz", cmd_strichartz),
        ("sweep", cmd_sweep),
        ("audit-rei", cmd_audit_rei),
        ("report", cmd_report),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)
        if name == "simulate-anelastic":
            p.add_argument("--experimental", action="store_true",
                           help="allow the cartesian nontrivial-velocity mode")
        if name == "strichartz":
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--q", type=float, default=None)
        if name == "sweep":
            p.add_argument("--eps", default=None, help="comma-separated descending list")
    return parser


VALIDATION_ERRORS = (
    configio.ConfigError,
    ConfigUsageError,
    DomainError,
    ParameterError,
    DataError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
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
