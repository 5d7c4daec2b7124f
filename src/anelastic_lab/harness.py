"""Epsilon-sweep orchestration and the desk-scale convergence report.

One sweep runs the primitive solver for every eps in a strictly
decreasing list with data, potential, grid and the Reynolds exponent
held fixed, then measures the three limit norms

    N1(eps) = sup_t || rho - rho0 ||          (essential L2 + residual L^gamma)
    N2(eps) = sup_t || Theta - 1 ||_{L^2}     (and its eps^2-rescaled variant)
    N3(eps) = int_0^T || sqrt(rho/rho0) u - V ||^2_{L^2(K)} dt

against the radial closed-form limit (V = 0 and frozen temperature),
together with the uniform-bound constants and the residual pressure
integral.  The decreasing trend of N1 and N3 with fitted positive slopes
is the desk-scale shadow of the convergence statement; N2 is reported in
both readings because the limit temperature can be interpreted at the
unit level or at the eps^2 perturbation level.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .acoustic import (
    AcousticState,
    FrequencyWindow,
    assemble_operator,
    regularize_data,
    spectral_solution,
)
from .grids import DomainError, Grid, lp_norm
from .helmholtz import project
from .hydrostatics import PotentialSpec, StaticProfile, build_profile
from .params import ScalingParams
from .primitive import (
    IllPreparedData,
    PrimitiveState,
    PrimitiveTrajectory,
    SamplePass,
    SolverFailure,
    init_ill_prepared,
    run_lockstep,
)
from .relative_energy import (
    CONSTANT_FLOOR,
    SLOPE_FLOOR,
    BoundsPass,
    BoundsReport,
    PressurePass,
    constants_spread,
    fit_eps_slope,
    residual_pressure_value,
    uniform_bounds_report,
)

FMT = "%.17g"


class SweepError(RuntimeError):
    """A sweep member failed; carries the partial report."""

    def __init__(self, message: str, partial: "ConvergenceReport | None"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SweepPlan:
    """Sweep inputs: shared data and scaling template, descending eps list."""

    eps_list: tuple
    data: IllPreparedData
    potential: PotentialSpec
    params: ScalingParams
    grid: Grid
    n_samples: int
    beta: float


@dataclass
class CaseResult:
    eps: float
    bounds: BoundsReport
    n1: float
    n2a: float
    n2b: float
    n3: float
    r12: float


class NormsPass(SamplePass):
    """(N1, N2a, N2b, N3) for one run against the radial closed-form limit.

    The limit velocity is V = 0 and the limit temperature the frozen
    initial perturbation theta2, so N2b compares (Theta - 1)/eps^2 with it
    at every sample.
    """

    n_series = 3

    def __init__(self, prof, params, times, theta2: np.ndarray):
        super().__init__(prof, params, times)
        self.theta2 = theta2

    def measure(self, s: PrimitiveState) -> tuple:
        prof, params, grid = self.prof, self.params, self.grid
        chi = prof.cutoff.chi(s.q)
        drho = s.rho - prof.rho0
        n1 = lp_norm(chi * drho, 2.0, grid) + lp_norm((1.0 - chi) * drho, params.gamma, grid)
        dtheta = s.theta - 1.0
        return n1, lp_norm(dtheta, 2.0, grid), lp_norm(dtheta / params.eps**2 - self.theta2, 2.0, grid)


def limit_norms(norms: NormsPass, run: PrimitiveTrajectory) -> tuple[float, float, float, float]:
    """The suprema of N1, N2a and N2b from a NormsPass that run fed, and N3 from run's ledger."""
    return (*(float(np.max(v)) for v in norms.values), float(run.n3_integral[-1]))


def run_case(run: PrimitiveTrajectory, passes: tuple) -> CaseResult:
    """One sweep member's measurements, from its run and the (NormsPass, BoundsPass,
    PressurePass) its samples streamed to."""
    norms, bounds, pressure = passes
    n1, n2a, n2b, n3 = limit_norms(norms, run)
    return CaseResult(
        eps=run.params.eps, bounds=uniform_bounds_report(bounds),
        n1=n1, n2a=n2a, n2b=n2b, n3=n3, r12=residual_pressure_value(pressure),
    )


@dataclass
class ConvergenceReport:
    eps_list: np.ndarray
    n1: np.ndarray
    n2a: np.ndarray
    n2b: np.ndarray
    n3: np.ndarray
    r12: np.ndarray
    bounds: list
    n1_slope: float = np.nan
    n3_slope: float = np.nan
    r12_slope: float = np.nan

    def finalize(self) -> None:
        for name in ("n1", "n2a", "n2b", "n3", "r12"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"non-finite entries in convergence norm {name}")
        self.n1_slope = fit_eps_slope(self.eps_list, self.n1)
        self.n3_slope = fit_eps_slope(self.eps_list, self.n3)
        self.r12_slope = fit_eps_slope(self.eps_list, self.r12)

    @property
    def n1_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.n1) < 0.0))

    @property
    def n3_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.n3) < 0.0))

    @property
    def n2a_constants(self) -> np.ndarray:
        return self.n2a / self.eps_list**2

    def bound_spreads(self) -> dict:
        keys = ("r2", "r3", "r4", "r5", "r6", "r7", "r8")
        return {k: constants_spread(self.bounds, k) for k in keys}

    def summary_text(self) -> str:
        lines = ["eps      N1          N2a         N2b         N3          r12"]
        for j, eps in enumerate(self.eps_list):
            lines.append(
                f"{eps:<8.4g} {self.n1[j]:<11.5g} {self.n2a[j]:<11.5g} "
                f"{self.n2b[j]:<11.5g} {self.n3[j]:<11.5g} {self.r12[j]:<11.5g}"
            )
        lines.append(
            f"N1 decreasing={self.n1_decreasing} slope={self.n1_slope:.4g}; "
            f"N3 decreasing={self.n3_decreasing} slope={self.n3_slope:.4g}"
        )
        consts = ", ".join(f"{c:.5g}" for c in self.n2a_constants)
        lines.append(f"N2a/eps^2 constants: {consts}")
        if np.any(self.r12 > SLOPE_FLOOR):
            lines.append(f"r12 slope: {self.r12_slope:.4g}")
        else:
            lines.append("r12 slope: not exercised (r12 = 0 for every eps)")
        spreads = ", ".join(
            f"{k}=not exercised"
            if all(rep.constants[k] <= CONSTANT_FLOOR for rep in self.bounds)
            else f"{k}={v:.3g}"
            for k, v in self.bound_spreads().items()
        )
        lines.append(f"bound-constant spreads: {spreads}")
        return "\n".join(lines)

    def write_csv(self, outdir: str) -> None:
        with open(os.path.join(outdir, "convergence.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eps", "n1", "n2a", "n2b", "n3", "r12"])
            for j, eps in enumerate(self.eps_list):
                w.writerow(
                    FMT % v
                    for v in (eps, self.n1[j], self.n2a[j], self.n2b[j], self.n3[j], self.r12[j])
                )
        with open(os.path.join(outdir, "bounds.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            keys = ("r2", "r3", "r4", "r5", "r6", "r7", "r8")
            w.writerow(["eps"] + [f"const_{k}" for k in keys])
            for eps, rep in zip(self.eps_list, self.bounds):
                w.writerow([FMT % eps] + [FMT % rep.constants[k] for k in keys])


def sweep_epsilon(plan: SweepPlan) -> ConvergenceReport:
    """Run the members in lockstep, each streaming its samples to its limit-norm,
    bounds and residual-pressure passes; a solver failure aborts with the partial
    report.  If member j fails mid-run, the members before it run again without
    it, with fresh passes, so the report holds what a one-by-one sweep would finish."""
    params = [plan.params.with_eps(eps) for eps in plan.eps_list]
    prof = build_profile(plan.potential, plan.params, plan.grid)  # independent of eps
    times = np.linspace(0.0, plan.params.horizon, plan.n_samples)
    theta2 = plan.data.theta2.field(plan.grid)
    members, failure, runs = len(params), None, []
    while members and not runs:
        try:
            inits = [init_ill_prepared(plan.data, prof, p) for p in params[:members]]
            passes = [(NormsPass(prof, p, times, theta2), BoundsPass(prof, p, times),
                       PressurePass(prof, p, times, plan.beta)) for p in params[:members]]
            runs = run_lockstep(inits, prof, params[:members], times, passes)
        except SolverFailure as exc:
            members, failure = exc.member, exc
    results = [run_case(run, case) for run, case in zip(runs, passes)]
    if failure is not None:
        partial = _assemble(results) if results else None
        eps = plan.eps_list[len(results)]
        raise SweepError(f"sweep failed at eps={eps}: {failure}", partial) from failure
    return _assemble(results)


def _assemble(results: list) -> ConvergenceReport:
    report = ConvergenceReport(
        eps_list=np.array([r.eps for r in results]),
        n1=np.array([r.n1 for r in results]),
        n2a=np.array([r.n2a for r in results]),
        n2b=np.array([r.n2b for r in results]),
        n3=np.array([r.n3 for r in results]),
        r12=np.array([r.r12 for r in results]),
        bounds=[r.bounds for r in results],
    )
    if report.eps_list.size >= 2:
        report.finalize()
    return report


def acoustic_ansatz(data: IllPreparedData, prof: StaticProfile, eps: float, delta: float):
    """Regularized acoustic solution for the relative-energy ansatz.

    The initial perturbation density is the limit profile of the data and
    the initial potential is the gradient part of the limit velocity's
    weighted Helmholtz decomposition, in radial mode its inward integral;
    both are regularized at parameter delta before evolution.
    """
    rho1, v0, _ = data.limit_fields(prof.grid)
    _, phi0 = project(v0, prof)
    op = assemble_operator(prof, lam_max=FrequencyWindow(delta).lam_max)
    s0, phi0d = regularize_data(op, rho1, phi0, delta)
    return spectral_solution(op, AcousticState(s=s0, phi=phi0d), eps)


def audit_quarantine_time(prof: StaticProfile, params: ScalingParams) -> float:
    """Horizon before the fastest wave reaches the sponge on the eps clock.

    The primitive run absorbs outgoing waves in the sponge while the
    acoustic reference reflects at the outer wall, so relative-energy
    comparisons are quarantined to the window where neither device has
    acted; 0.85 covers the head start of the data's spatial support.
    """
    c_max = float(np.max(np.sqrt(prof.dp)))
    return 0.85 * prof.grid.r_sponge * params.eps / c_max
