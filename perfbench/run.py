#!/usr/bin/env python3
"""The laboratory's benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Workloads (see perfbench/README.md):
`sweep`, `audit`, `anelastic`, `dispersion`.  The seed jitters the
Gaussian data by up to 10% (seed 0 is the default configuration).

With `--trace 0` the run reports the end-to-end metrics `wall_s`,
`cpu_s`, `setup_s` and `peak_rss_mb`; with `--trace 1` it reports the
per-layer metrics of a traced run.  A human-readable table goes first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Each run also writes a run record,
`perfbench/out/record-<source digest>-<workload>-s<seed>-t<trace>.json`,
made to be diffed against another commit's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import COUNT_KEYS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # the workload process, set-up probes included, ends within this


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="measured time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced problem sizes (for tests)")
    p.add_argument("--out", default=str(BENCH_DIR / "out"), help="records, spans and scratch")
    return p.parse_args(argv)


def source_digest() -> str:
    """sha256 over the program's source files: names the code that ran."""
    h = hashlib.sha256()
    for path in sorted((SRC / "anelastic_lab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def worker_env(nproc: int) -> tuple[dict, int]:
    """Environment of the workload process: program on the path, BLAS capped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = nproc
    requested = env.get("OPENBLAS_NUM_THREADS", "")
    if requested.isdigit() and int(requested) >= 1:
        threads = min(threads, int(requested))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_units(kind: str) -> dict:
    """name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_worker(spec: dict, env: dict) -> None:
    """Run the workload process; on timeout or termination, kill its whole
    process group (set-up probes included) and wait for it."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)


def flow_problems(flows: list[dict]) -> tuple[int, list[str]]:
    """Failed flows (the numerator of error_rate) and every problem found."""
    failed = sum(1 for f in flows if f["failures"])
    problems = [f"flow {i}: {msg}" for i, f in enumerate(flows) for msg in f["failures"]]
    if len({f["artifact_bytes"] for f in flows if not f["failures"]}) > 1:
        problems.append("artifact bytes differ between flows")
    return failed, problems


def previous_counts(out: Path, stem: str) -> dict:
    """Counts of earlier records of the same source, workload and seed."""
    found = {}
    for trace in (0, 1):
        path = out / f"{stem}-t{trace}.json"
        if path.is_file():
            found[path.name] = json.loads(path.read_text())["counts"]
    return found


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "anelastic_lab" / "cli.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    overrides = workload.overrides(args.seed, args.smoke)
    nproc = len(os.sched_getaffinity(0))
    env, threads = worker_env(nproc)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    workdir = out / f"work-{args.workload}-{os.getpid()}"
    digest = source_digest()
    stem = f"record-{digest[:12]}-{args.workload}-s{args.seed}{'-smoke' if args.smoke else ''}"

    result_path = out / f"result-{os.getpid()}.json"
    spec = {
        "workload": args.workload,
        "overrides": overrides,
        "seconds": args.seconds,
        "trace": args.trace,
        "outdir": str(workdir),
        "result_path": str(result_path),
        "spans_path": str(out / f"spans-{stem[7:]}.csv"),
    }
    try:
        run_worker(spec, env)
        result = json.loads(result_path.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        result_path.unlink(missing_ok=True)

    flows = result["flows"]
    measured = [f for f in flows if not f["warmup"] and not f["traced"]]
    failed, problems = flow_problems(flows)

    counts = {"cli.artifact_bytes": flows[0]["artifact_bytes"]}
    if args.trace:
        layers = dict(result["layers"])
        traced_walls = [f["wall_s"] for f in flows if f["traced"]]
        layers["trace.overhead"] = (
            statistics.fmean(traced_walls) / statistics.fmean([f["wall_s"] for f in measured]) - 1.0
        )
        layers["cli.artifact_bytes"] = counts["cli.artifact_bytes"]
        counts.update({k: layers[k] for k in COUNT_KEYS})
        problems += result["count_mismatches"]
        if abs(result["layer_unaccounted_s"]) > 1.0e-6:
            problems.append(f"layer self times miss the wall by {result['layer_unaccounted_s']:.3g} s")
        values = layers
        units = metric_units("per_layer")
    else:
        # Flow times are means over the measured flows, set-up is a median:
        # see "Measured noise" in perfbench/README.md for why.
        values = {
            "wall_s": statistics.fmean(f["wall_s"] for f in measured),
            "cpu_s": statistics.fmean(f["cpu_s"] for f in measured),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = metric_units("end_to_end")
    for name, before in previous_counts(out, stem).items():
        for key in counts.keys() & before.keys():
            if counts[key] != before[key]:
                problems.append(f"count {key} = {counts[key]} differs from {before[key]} in {name}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "overrides": overrides,
        "argv": result["argv"],
        "git_commit": git_commit(),
        "source_sha256": digest,
        "python": result["python"],
        "numpy": result["numpy"],
        "blas": result["blas"],
        "blas_threads_requested": threads,
        "nproc": nproc,
        "counts": counts,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "flows": flows,
        "setup_s": result["setup_s"],
        "problems": problems,
    }
    record_path = out / f"{stem}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} flows={len(measured)} "
          f"(+1 warm-up) blas={result['blas']['name']} threads={result['blas']['threads']} "
          f"nproc={nproc}")
    if not args.trace:
        for key, series in (("wall_s", [f["wall_s"] for f in measured]),
                            ("cpu_s", [f["cpu_s"] for f in measured]),
                            ("setup_s", result["setup_s"])):
            q1, q2, q3 = quartiles(series)
            print(f"  {key:<12} {values[key]:10.4f} s   median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"max {max(series):.4f} n={len(series)}")
        print(f"  {'peak_rss_mb':<12} {values['peak_rss_mb']:10.1f} MB")
    else:
        for key, unit in units.items():
            value = values[key]
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {key:<38} {shown:>12} {unit}")
    print(f"  {'error_rate':<12} {failed / len(flows):10.4f}   ({failed} of {len(flows)} flows failed)")
    print(f"  record: {record_path}")
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)

    # The result line needs a number for every metric; a ratio without a
    # base (no CG solve ran) reads 0 here and null in the run record.
    metrics = {
        k: {"value": 0.0 if values[k] is None else values[k], "unit": units[k]} for k in units
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(flows),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
