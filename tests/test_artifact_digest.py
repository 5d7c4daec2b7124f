"""The artifact digest: two runs of the same source give the same bytes.

The README promises deterministic artifacts for a given configuration;
this runs scripts/artifact_digest.py twice, each in a fresh interpreter,
at a reduced size and compares the digests line for line.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digest.py"
SMALL = ["--set", "grid.n=64", "--set", "sweep.samples=17"]

EXPECTED = {
    "profile": ("flatness.txt", "profile.csv"),
    "sweep": ("bounds.csv", "convergence.csv", "summary.txt"),
    "audit-rei": ("rei.csv", "rei_summary.txt"),
    "simulate-primitive": ("diagnostics.csv", "final_state.bin"),
    "simulate-anelastic": ("anelastic.csv",),
    "simulate-acoustic": ("acoustic.csv",),
    "spectrum": ("spectrum.csv",),
    "decay": ("decay.csv",),
    "strichartz": ("strichartz.csv",),
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
