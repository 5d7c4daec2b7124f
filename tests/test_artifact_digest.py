"""The artifact digest: two runs of the same source give the same bytes.

The README promises deterministic artifacts for a given configuration;
this runs scripts/artifact_digest.py twice, each in a fresh interpreter,
at a reduced size and compares the digests line for line.  With
--against HEAD it compares this checkout's source with the last commit's.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "artifact_digest.py"
SMALL = ["--set", "grid.n=64", "--set", "sweep.samples=17"]

EXPECTED = {
    "profile": ("flatness.txt", "profile.csv"),
    "sweep": ("bounds.csv", "convergence.csv", "summary.txt"),
    "audit-rei": ("rei.csv", "rei_summary.txt"),
    "simulate-primitive": ("diagnostics.csv", "final_state.npz"),
    "simulate-anelastic": ("anelastic.csv",),
    "simulate-acoustic": ("acoustic.csv",),
    "spectrum": ("spectrum.csv",),
    "decay": ("decay.csv",),
    "strichartz": ("strichartz.csv",),
    "simulate-anelastic-cartesian": ("anelastic.csv",),
}


def run_digest() -> list[str]:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *SMALL], capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()


def test_digest_is_reproducible_and_covers_every_artifact():
    first, second = run_digest(), run_digest()
    assert first == second
    names = [line.split("  ", 1)[1] for line in first]
    expected = [
        f"{command}/{name}"
        for command, files in EXPECTED.items()
        for name in (*files, "stdout")
    ]
    assert names == expected
    assert all(len(line.split("  ", 1)[0]) == 64 for line in first)


def in_git_checkout() -> bool:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True
        )
    except OSError:
        return False
    return done.returncode == 0


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a commit")
def test_digest_against_head_prints_nothing_for_unchanged_artifacts():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--against", "HEAD", *SMALL], capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, ""), done.stderr
