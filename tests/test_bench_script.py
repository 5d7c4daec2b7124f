"""scripts/bench.py measures committed code under one benchmark, or nothing.

Its pairs compare two sources under one `perfbench/` and `BENCHMARK.json`,
and its BENCH file names the commit measured.  So a ref whose benchmark
differs, or a checkout whose `src/`, `perfbench/` or `BENCHMARK.json` differ
from HEAD, must be refused before anything runs, and no BENCH file may be
written.  Both cases are made in a clone, so the refusal never depends on
this repository's history and no run can start in it.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench.py"
LABEL = "refused-by-test"


def git(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    config = ["-c", "user.name=bench-test", "-c", "user.email=bench-test@example.invalid",
              "-c", "commit.gpgsign=false"]
    return subprocess.run(["git", *config, "-C", str(cwd), *args], capture_output=True, text=True)


def in_git_checkout() -> bool:
    try:
        return git(ROOT, "rev-parse", "--verify", "HEAD").returncode == 0
    except OSError:
        return False


@pytest.fixture
def clone(tmp_path: Path) -> Path:
    """A clone of HEAD running this checkout's bench.py, one commit ahead in perfbench/."""
    repo = tmp_path / "repo"
    assert git(tmp_path, "clone", "-q", str(ROOT), str(repo)).returncode == 0
    shutil.copy(SCRIPT, repo / "scripts" / "bench.py")
    with (repo / "perfbench" / "README.md").open("a") as f:
        f.write("\nA line that only this clone's benchmark has.\n")
    assert git(repo, "commit", "-q", "-am", "Change the benchmark").returncode == 0
    return repo


def refused(repo: Path, *args: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, str(repo / "scripts" / "bench.py"), LABEL, *args],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "refusing to run" in done.stderr, done.stderr
    assert not (repo / f"BENCH_{LABEL}.json").exists()
    return done


pytestmark = pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout")


def test_refuses_a_ref_with_another_benchmark(clone):
    done = refused(clone, "--against", "HEAD~1")
    assert "differ between HEAD~1 and this checkout" in done.stderr


def test_refuses_uncommitted_source(clone):
    with (clone / "src" / "anelastic_lab" / "__init__.py").open("a") as f:
        f.write("\n")
    done = refused(clone)
    assert "differ from HEAD" in done.stderr and "__init__.py" in done.stderr
