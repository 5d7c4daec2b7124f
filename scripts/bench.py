#!/usr/bin/env python3
"""Run the benchmark and fold its results into BENCH_<label>.json at the root.

    python3 scripts/bench.py LABEL [--workload NAME[:SEEDS] ...] [--trace NAME ...]
                             [--against REF]

Each --workload runs `perfbench/run.py --workload NAME --seed N --trace 0`
for every seed N of SEEDS (`1-10`, `1,4,7` or `3`; default `1-10`); the
default is all four workloads of BENCHMARK.json on seeds 1-10.  Each
--trace NAME adds one traced (`--trace 1`) seed-0 run of that workload.
Every run lasts BENCHMARK.json's run_seconds, so all recorded pairs share
one run length.

The script measures committed code only: it refuses to run while `src/`,
`perfbench/` or `BENCHMARK.json` differ from HEAD, so the checkout's side
is the commit named in the BENCH file.

With --against REF every run is a pair: the same command on this checkout
and on the git ref REF, exported with `git archive` into a temporary
directory, in alternating order (REF first in even pairs).  The script
refuses to run if REF's `perfbench/` or `BENCHMARK.json` differ from this
checkout's, since the pairs would then measure different benchmarks.

The BENCH file holds the git sha of each side, a host fingerprint (nproc,
BLAS threads, python and numpy versions, sys.dont_write_bytecode), every
run's metrics and, per workload and metric, each side's median and
quartiles and the number of pairs the checkout won.  Standard library
only; the runs share nothing but the host.
"""

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def git(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=check)


def seeds_of(text: str) -> list[int]:
    """`1-10` -> 1..10, `1,4,7` -> [1, 4, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def plan_of(args) -> list[tuple[str, int, int]]:
    """(workload, seed, trace) of every run, in order."""
    plan = []
    for item in args.workload or WORKLOADS:
        name, _, seeds = item.partition(":")
        if name not in WORKLOADS:
            raise SystemExit(f"bench: unknown workload {name!r}; BENCHMARK.json has {WORKLOADS}")
        plan += [(name, seed, 0) for seed in seeds_of(seeds or "1-10")]
    return plan + [(name, 0, 1) for name in args.trace]


def refusal(ref: str | None) -> str | None:
    """Why the runs would not measure committed code under one benchmark, or None."""
    dirty = git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json").stdout
    if dirty.strip():
        return f"src/, perfbench/ or BENCHMARK.json differ from HEAD:\n{dirty.decode()}"
    if ref and git("diff", "--quiet", ref, "--", "perfbench", "BENCHMARK.json",
                   check=False).returncode:
        return f"perfbench/ or BENCHMARK.json differ between {ref} and this checkout"
    return None


def run_one(root: Path, out: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run from the checkout at root: its JSON line plus its run record."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
           "--out", str(out)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench: {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    [record] = [line.split("record: ", 1)[1] for line in lines if line.startswith("  record: ")]
    record = json.loads(Path(record).read_text())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "source_sha256": record["source_sha256"], "problems": record["problems"],
        "host": {k: record[k]
                 for k in ("nproc", "python", "numpy", "blas", "blas_threads_requested")},
    }


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                  else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    """Per untraced workload and metric: each side's quartiles and the pairs the checkout won."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if not r["trace"]):
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        sides = sorted({r["side"] for r in mine})
        per = summary[workload] = {}
        for metric in mine[0]["metrics"]:
            entry = {side: quartiles([r["metrics"][metric] for r in mine if r["side"] == side])
                     for side in sides}
            if len(sides) == 2:
                sign = 1.0 if BETTER.get(metric, "lower") == "lower" else -1.0
                pairs = {}
                for r in mine:
                    pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"][metric]
                entry["pairs"] = len(pairs)
                entry["wins"] = sum(sign * (p["change"] - p["ref"]) < 0 for p in pairs.values())
                entry["median_gap"] = entry["change"]["median"] - entry["ref"]["median"]
            per[metric] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the file written is BENCH_<label>.json at the root")
    parser.add_argument("--workload", action="append", metavar="NAME[:SEEDS]")
    parser.add_argument("--trace", action="append", default=[], metavar="NAME",
                        help="add one traced seed-0 run of NAME")
    parser.add_argument("--against", metavar="REF", help="alternate each run with one at REF")
    args = parser.parse_args(argv)
    plan = plan_of(args)
    why = refusal(args.against)
    if why:
        print(f"bench: refusing to run: {why}", file=sys.stderr)
        return 2
    sides = {"change": {"git_sha": git("rev-parse", "HEAD").stdout.decode().strip()}}
    if args.against:
        sha = git("rev-parse", "--verify", f"{args.against}^{{commit}}").stdout.decode().strip()
        sides["ref"] = {"ref": args.against, "git_sha": sha}

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"change": ROOT}
        if args.against:
            roots["ref"] = Path(tmp) / "ref"
            archive = git("archive", args.against, "src", "perfbench", "BENCHMARK.json").stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(roots["ref"], filter="data")
        for pair, (workload, seed, trace) in enumerate(plan):
            order = ["ref", "change"] if pair % 2 == 0 else ["change", "ref"]
            for side in order if args.against else ["change"]:
                out = Path(tmp) / f"out-{side}"
                run = run_one(roots[side], out, workload, seed, trace)
                runs.append({"side": side, "pair": pair, **run})
                shown = run["metrics"].get("wall_s", run["metrics"].get("primitive.steps"))
                print(f"{workload:<10} seed {seed:>2} trace {trace} {side:<6} {shown:.4g} "
                      f"correct={run['correct']}", flush=True)

    hosts = {json.dumps(r.pop("host"), sort_keys=True) for r in runs}
    bench = {
        "label": args.label,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "argv": sys.argv[1:] if argv is None else argv,
        "seconds": SPEC["run_seconds"],
        "sides": sides,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "dont_write_bytecode": sys.dont_write_bytecode,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "workers": [json.loads(h) for h in sorted(hosts)],
        },
        "runs": runs,
        "summary": summarize(runs),
        "traced": {f"{r['workload']}/{r['side']}": r["metrics"] for r in runs if r["trace"]},
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    for workload, metrics in bench["summary"].items():
        for metric in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
            e = metrics.get(metric)
            if e:
                cells = "  ".join(f"{s} {e[s]['median']:.4g} [{e[s]['q1']:.4g}, {e[s]['q3']:.4g}]"
                                  for s in ("ref", "change") if s in e)
                wins = f"  wins {e['wins']}/{e['pairs']}" if "wins" in e else ""
                print(f"  {workload:<10} {metric:<12} {cells}{wins}")
    return 1 if any(not r["correct"] or r["failed"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
