"""The benchmark's own tests: reduced-size runs through the same code path.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import BASE_DATA, WORKLOADS, grid_n, jitter_overrides  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in run.metric_units("end_to_end")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    proc = bench("--workload", name, "--seed", "0", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    (record,) = tmp_path.glob(f"record-*-{name}-s0-smoke-t{trace}.json")
    record = json.loads(record.read_text())
    assert record["blas_threads_requested"] <= record["nproc"]
    assert record["problems"] == []


def test_counts_repeat_between_runs_of_one_seed(tmp_path):
    for _ in range(2):
        proc = bench("--workload", "anelastic", "--seed", "3", "--seconds", "0.2",
                     "--trace", "1", "--smoke", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"], proc.stderr
    (path,) = tmp_path.glob("record-*-anelastic-s3-smoke-t1.json")
    counts = json.loads(path.read_text())["counts"]
    assert counts["helmholtz.solves"] == counts["anelastic.steps"] + 1
    # a doctored earlier record is flagged as a count mismatch
    record = json.loads(path.read_text())
    record["counts"]["anelastic.steps"] += 1
    path.write_text(json.dumps(record))
    proc = bench("--workload", "anelastic", "--seed", "3", "--seconds", "0.2",
                 "--trace", "1", "--smoke", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    assert "anelastic.steps" in proc.stderr


def _smoke_flows(tmp_path, check=None, argvs=None):
    wl = WORKLOADS["anelastic"]
    overrides = wl.overrides(0, smoke=True)
    outdir = str(tmp_path / "work")
    argvs = argvs or wl.argvs(overrides, outdir)
    flows, _ = worker.measure(wl, argvs, grid_n(overrides), 0.05, outdir, check=check)
    return flows


def test_failed_check_counts_toward_error_rate(tmp_path):
    flows = _smoke_flows(tmp_path, check=lambda outdir, stdout, n: ["forced failure"])
    failed, problems = run.flow_problems(flows)
    assert failed == len(flows) >= 2
    assert all("forced failure" in p for p in problems)


def test_nonzero_exit_counts_toward_error_rate(tmp_path):
    argvs = [["simulate-anelastic", "--set", "no.such_key=1", "--output", str(tmp_path / "w")]]
    flows = _smoke_flows(tmp_path, argvs=argvs)
    failed, problems = run.flow_problems(flows)
    assert failed == len(flows)
    assert "exited with code 2" in problems[0]


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_zero_is_the_default_and_jitter_stays_within_ten_percent():
    assert jitter_overrides(0) == []
    assert jitter_overrides(7) == jitter_overrides(7) != jitter_overrides(8)
    for item in jitter_overrides(7):
        key, _, value = item.partition("=")
        assert 0.9 <= float(value) / BASE_DATA[key] <= 1.1


def test_layer_self_times_account_for_the_wall():
    # root 0..100 ns; a 10..60 with child b 20..50; c 70..80
    spans = [
        ["flow", 0, 100, -1, 1, None],
        ["primitive.run_primitive", 10, 60, 0, 1, 0.2],
        ["primitive.step_primitive", 20, 50, 1, 1, None],
        ["helmholtz._cg", 70, 80, 0, 1, 12],
    ]
    m = tracing.layer_metrics(spans)
    assert m["primitive.steps"] == m["primitive.steps.eps0.2"] == 1
    assert m["primitive.loop_self_s"] == pytest.approx(20e-9)
    assert m["helmholtz.cg_iters_per_solve"] == 12
    assert m["trace.uncovered_s"] == pytest.approx(40e-9)
    assert tracing.unaccounted_s(m) == pytest.approx(0.0, abs=1e-15)
