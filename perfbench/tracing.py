"""Spans recorded from outside the program, and the per-layer metrics.

The tracer wraps public functions of `anelastic_lab` modules, patching the
name in every module that imported it, so calls made through any import
path are recorded.  Each call becomes one span: name, start, end, parent
span and flow id.  Spans stay in memory and are written out at the end.

Two private functions are wrapped because their layer metric has no
public boundary: `helmholtz._cg`, whose return value carries the CG
iteration count, and `cli._write_rows`, which writes the CSV artifacts.
Every other private helper (fluxes, grid norms) is left alone; its time
lands in the self time of the public function that calls it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "anelastic_lab"

# (module, attribute) of every wrapped callable; "Class.method" patches the
# class.  The layer of a span is the module that defines the callable.
TARGETS = (
    ("primitive", "run_primitive"),
    ("primitive", "step_primitive"),
    ("primitive", "suggested_dt"),
    ("primitive", "viscous_dissipation_rate"),
    ("helmholtz", "project"),
    ("helmholtz", "project_radial_faces"),
    ("helmholtz", "solve_weighted_poisson"),
    ("helmholtz", "_cg"),
    ("acoustic", "assemble_operator"),
    ("acoustic", "functional_calculus"),
    ("acoustic", "regularize_data"),
    ("acoustic", "measure_local_decay"),
    ("acoustic", "measure_strichartz"),
    ("acoustic", "dispersive_smallness"),
    ("acoustic", "SpectralWaveSolution.s"),
    ("acoustic", "SpectralWaveSolution.grad_phi"),
    ("acoustic", "SpectralWaveSolution.dt_grad_phi"),
    ("acoustic", "SpectralWaveSolution.div_rho_grad_phi"),
    ("relative_energy", "rei_audit"),
    ("relative_energy", "uniform_bounds_report"),
    ("relative_energy", "residual_pressure_value"),
    ("harness", "sweep_epsilon"),
    ("harness", "run_case"),
    ("harness", "limit_norms"),
    ("harness", "acoustic_ansatz"),
    ("harness", "ConvergenceReport.write_csv"),
    ("anelastic", "init_anelastic"),
    ("anelastic", "run_anelastic"),
    ("anelastic", "step_anelastic"),
    ("anelastic", "smoothness_monitor"),
    ("hydrostatics", "build_profile"),
    ("configio", "load_config"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_audit_rei"),
    ("cli", "cmd_simulate_anelastic"),
    ("cli", "cmd_spectrum"),
    ("cli", "cmd_decay"),
    ("cli", "cmd_strichartz"),
    ("cli", "_write_rows"),
)
LAYERS = (
    "primitive",
    "helmholtz",
    "acoustic",
    "relative_energy",
    "harness",
    "anelastic",
    "hydrostatics",
    "configio",
    "cli",
)
ROOT = "flow"
RECONSTRUCT = frozenset(
    f"acoustic.SpectralWaveSolution.{m}" for m in ("s", "grad_phi", "dt_grad_phi", "div_rho_grad_phi")
)
MEASURE = frozenset(
    f"acoustic.{f}" for f in ("measure_local_decay", "measure_strichartz", "dispersive_smallness")
)
WRITES = frozenset(("cli._write_rows", "harness.ConvergenceReport.write_csv"))
SWEEP_EPS = ("0.4", "0.2", "0.1")


def _run_primitive_eps(args, kwargs, result):
    params = kwargs["params"] if "params" in kwargs else args[2]
    return params.eps


def _cg_iterations(args, kwargs, result):
    return result[2]


# span value recorded from a call's arguments or result
VALUE_HOOKS = {
    "primitive.run_primitive": _run_primitive_eps,
    "helmholtz._cg": _cg_iterations,
}


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores.

    A span is the list [name, start_ns, end_ns, parent index, flow, value].
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.flow = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = VALUE_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.flow, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; a missing target is an error, not a silent gap."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(PACKAGE + ".")]
        for mod_name, attr in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def begin_flow(self, flow: int) -> None:
        self.flow = flow
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter_ns(), 0, -1, flow, None])

    def end_flow(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def flow_spans(self, flow: int) -> list[list]:
        """Spans of one flow, with parents re-indexed into the returned list."""
        index = {}
        out = []
        for i, rec in enumerate(self.spans):
            if rec[4] == flow:
                index[i] = len(out)
                out.append(list(rec))
        for rec in out:
            rec[3] = index.get(rec[3], -1)
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,flow,name,start_ns,end_ns,value\n")
            for i, (name, start, end, parent, flow, value) in enumerate(self.spans):
                fh.write(f"{i},{parent},{flow},{name},{start},{end},{'' if value is None else value}\n")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); 0 for no values."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of one flow's spans (parents index into `spans`).

    Self time is a span's duration minus its direct children's; the self
    times of all spans, the root's included, add up to the root's duration,
    so the layer self times plus `trace.uncovered_s` account for the wall.
    """
    n = len(spans)
    dur = [(rec[2] - rec[1]) * 1e-9 for rec in spans]
    child = [0.0] * n
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += dur[i]
    self_s = [d - c for d, c in zip(dur, child)]
    names = [rec[0] for rec in spans]
    layer = [name.split(".", 1)[0] for name in names]

    def spans_named(name):
        return [i for i in range(n) if names[i] == name]

    def total(idx, series):
        return sum(series[i] for i in idx)

    steps = spans_named("primitive.step_primitive")
    n_steps = len(steps)
    steps_by_eps = {eps: 0 for eps in SWEEP_EPS}
    for i in steps:
        parent = spans[i][3]
        if parent >= 0 and names[parent] == "primitive.run_primitive":
            key = f"{spans[parent][5]:g}"
            if key in steps_by_eps:
                steps_by_eps[key] += 1
    runs = spans_named("primitive.run_primitive")
    cg = spans_named("helmholtz._cg")
    cg_iters = sum(spans[i][5] for i in cg)
    # outermost helmholtz calls: one public solve or projection each
    solves = [
        i for i in range(n)
        if layer[i] == "helmholtz" and (spans[i][3] < 0 or layer[spans[i][3]] != "helmholtz")
    ]
    recon = [i for i in range(n) if names[i] in RECONSTRUCT]
    writes = [i for i in range(n) if names[i] in WRITES]

    def per_step(name):
        return len(spans_named(name)) / n_steps if n_steps else 0.0

    out = {
        "primitive.steps": n_steps,
        **{f"primitive.steps.eps{eps}": count for eps, count in steps_by_eps.items()},
        "primitive.step_us.p50": percentile([dur[i] * 1e6 for i in steps], 50),
        "primitive.step_us.p99": percentile([dur[i] * 1e6 for i in steps], 99),
        "primitive.busy_s": total(runs, dur),
        "primitive.loop_self_s": total(runs, self_s),
        "primitive.dt_calls_per_step": per_step("primitive.suggested_dt"),
        "primitive.diss_calls_per_step": per_step("primitive.viscous_dissipation_rate"),
        "helmholtz.solves": len(cg),
        "helmholtz.solve_ms.p50": percentile([dur[i] * 1e3 for i in solves], 50),
        "helmholtz.solve_ms.p90": percentile([dur[i] * 1e3 for i in solves], 90),
        "helmholtz.busy_s": total(solves, dur),
        # None when no CG ran: the ratio has no base
        "helmholtz.cg_iters_per_solve": cg_iters / len(cg) if cg else None,
        "acoustic.assemblies": len(spans_named("acoustic.assemble_operator")),
        "acoustic.assemble_s": total(spans_named("acoustic.assemble_operator"), dur),
        "acoustic.measure_s": total([i for i in range(n) if names[i] in MEASURE], dur),
        "acoustic.reconstruct_calls": len(recon),
        "acoustic.reconstruct_s": total(recon, dur),
        "relative_energy.audit_self_s": total(spans_named("relative_energy.rei_audit"), self_s),
        "relative_energy.bounds_s": total(spans_named("relative_energy.uniform_bounds_report"), dur),
        "relative_energy.residual_pressure_s": total(
            spans_named("relative_energy.residual_pressure_value"), dur
        ),
        "harness.cases": len(spans_named("harness.run_case")),
        "harness.limit_norms_s": total(spans_named("harness.limit_norms"), dur),
        "anelastic.steps": len(spans_named("anelastic.step_anelastic")),
        "hydrostatics.profiles": len(spans_named("hydrostatics.build_profile")),
        "cli.write_s": total(writes, dur),
    }
    for name in LAYERS:
        out[f"{name}.self_s"] = total([i for i in range(n) if layer[i] == name], self_s)
    roots = spans_named(ROOT)
    out["trace.wall_s"] = total(roots, dur)
    out["trace.uncovered_s"] = total(roots, self_s)
    out["trace.spans"] = n - len(roots)
    return out


def unaccounted_s(metrics: dict) -> float:
    """Traced wall minus (layer self times + uncovered); 0 up to rounding."""
    covered = sum(metrics[f"{name}.self_s"] for name in LAYERS) + metrics["trace.uncovered_s"]
    return metrics["trace.wall_s"] - covered


# counts that must repeat exactly for one commit and seed
COUNT_KEYS = (
    "primitive.steps",
    *(f"primitive.steps.eps{eps}" for eps in SWEEP_EPS),
    "primitive.dt_calls_per_step",
    "primitive.diss_calls_per_step",
    "helmholtz.solves",
    "helmholtz.cg_iters_per_solve",
    "acoustic.assemblies",
    "acoustic.reconstruct_calls",
    "harness.cases",
    "anelastic.steps",
    "hydrostatics.profiles",
    "trace.spans",
)


def median_flow(walls: list[float]) -> int:
    """Index of the flow with the (lower) median wall time."""
    order = sorted(range(len(walls)), key=walls.__getitem__)
    return order[(len(order) - 1) // 2]

