"""The workload process: one caller, a closed loop of flows, one JSON result.

    python3 perfbench/worker.py SPEC_JSON

`perfbench/run.py` starts this process with `PYTHONPATH` pointing at the
program's `src/` and the BLAS thread count capped.  It runs one untimed
warm-up flow, then repeats the flow back to back until the time is up,
measuring set-up in fresh interpreters between flows.  With tracing,
untraced and traced flows alternate, so the traced run also measures its
own overhead.  Every flow is checked; the result (per-flow
times and failures, peak RSS, versions, per-layer metrics) is written as
JSON to the path named in the spec.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

import numpy as np

from anelastic_lab import cli
from tracing import COUNT_KEYS, Tracer, layer_metrics, median_flow, unaccounted_s
from workloads import WORKLOADS, grid_n

MIN_ROUNDS = 3  # flows (or untraced/traced pairs) measured at least, time permitting
SETUP_PROBES = 15

# A fresh interpreter until `anelastic_lab.cli` is imported and the config of
# the flow's first command is resolved; prints the monotonic clock, which
# the parent shares, at that moment.
SETUP_PROBE = """\
import sys, time
from anelastic_lab import cli, configio
args = cli.build_parser().parse_args(sys.argv[1:])
configio.load_config(args.config, args.set)
print(time.perf_counter_ns())
"""


def run_flow(workload, argvs, outdir, n, tracer=None, flow_id=0, check=None) -> dict:
    """Run one flow through `cli.main`, then check its outputs."""
    check = check or workload.check
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    stdout = io.StringIO()
    failures = []
    if tracer is not None:
        tracer.install()
        tracer.begin_flow(flow_id)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout):
            for argv in argvs:
                code = cli.main(argv)
                if code != 0:
                    failures.append(f"{argv[0]} exited with code {code}")
                    break
    except (Exception, SystemExit) as exc:  # a failed flow is counted, not fatal
        failures.append(f"{argv[0]} raised {exc!r}")
        traceback.print_exc()
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.end_flow()
            tracer.uninstall()
    if not failures:
        try:
            failures.extend(check(outdir, stdout.getvalue(), n))
        except (OSError, KeyError, ValueError) as exc:
            failures.append(f"outputs unreadable: {exc!r}")
    nbytes = sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(outdir) for f in files
    )
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "traced": tracer is not None,
        "failures": failures,
        "artifact_bytes": nbytes,
    }


def probe_setup(argv: list[str]) -> float:
    """One fresh interpreter's set-up time (see SETUP_PROBE)."""
    t0 = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, *argv],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return (int(proc.stdout.strip().splitlines()[-1]) - t0) * 1e-9


def measure(workload, argvs, n, seconds, outdir, tracer=None, check=None, probe=None):
    """Warm-up flow, then rounds of flows until `seconds` have been measured.

    With a tracer, each round is an untraced and a traced flow.  `probe()`, when given, measures set-up once; SETUP_PROBES of them are
    spread over the run between flows (after one untimed probe), so set-up
    samples the same machine state as the flows.  Returns (flows, set-up
    times).
    """
    if probe is not None:
        probe()
    warm = run_flow(workload, argvs, outdir, n, check=check)
    warm["warmup"] = True
    flows = [warm]
    setup = []
    kinds = (False, True) if tracer is not None else (False,)
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in kinds:
            flow = run_flow(
                workload, argvs, outdir, n,
                tracer=tracer if traced else None, flow_id=len(flows), check=check,
            )
            flow["warmup"] = False
            flows.append(flow)
        rounds += 1
        if probe is not None:
            due = math.ceil(SETUP_PROBES * min(1.0, (time.perf_counter() - start) / seconds))
            setup.extend(probe() for _ in range(due - len(setup)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds and (rounds >= MIN_ROUNDS or elapsed >= seconds):
            break
    if probe is not None:
        setup.extend(probe() for _ in range(SETUP_PROBES - len(setup)))
    return flows, setup


def blas_info() -> dict:
    """BLAS library, version and live thread count (None where unknown)."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "library": None, "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    if libs:
        info["library"] = os.path.basename(libs[0])
        lib = ctypes.CDLL(libs[0])
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    return info


def main(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    outdir = spec["outdir"]
    argvs = workload.argvs(spec["overrides"], outdir)
    tracer = Tracer() if spec["trace"] else None
    probe = None if spec["trace"] else functools.partial(probe_setup, argvs[0])
    flows, setup = measure(
        workload, argvs, grid_n(spec["overrides"]), spec["seconds"], outdir,
        tracer=tracer, probe=probe,
    )
    shutil.rmtree(outdir, ignore_errors=True)
    result = {
        "flows": flows,
        "setup_s": setup,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "argv": argvs,
    }
    if tracer is not None:
        traced = [i for i, f in enumerate(flows) if f["traced"]]
        per_flow = [layer_metrics(tracer.flow_spans(i)) for i in traced]
        mismatches = [
            f"{key}: flow {traced[j]} has {m[key]}, flow {traced[0]} has {per_flow[0][key]}"
            for j, m in enumerate(per_flow)
            for key in COUNT_KEYS
            if m[key] != per_flow[0][key]
        ]
        chosen = per_flow[median_flow([flows[i]["wall_s"] for i in traced])]
        result["layers"] = chosen
        result["layer_unaccounted_s"] = unaccounted_s(chosen)
        result["count_mismatches"] = mismatches
        tracer.write_csv(spec["spans_path"])
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    out = main(spec)
    with open(spec["result_path"], "w") as fh:
        json.dump(out, fh)
