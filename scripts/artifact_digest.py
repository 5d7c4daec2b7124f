#!/usr/bin/env python3
"""Fingerprint every artifact and stdout of the nine computing commands.

    python3 scripts/artifact_digest.py [--set SECTION.KEY=VALUE ...] > digest.txt
    python3 scripts/artifact_digest.py --against REF [--set SECTION.KEY=VALUE ...]

Runs profile, sweep, audit-rei, simulate-primitive, simulate-anelastic,
simulate-acoustic, spectrum, decay and strichartz through cli.main, each
into its own directory under one temporary directory, with every --set
passed on to every command.  A tenth run, simulate-anelastic-cartesian,
is `simulate-anelastic --experimental` on the cartesian staggered grid at
n = 8 with 9 samples (under a second); its three --sets come after the
user's, so they win.  Prints `sha256  run/file` for each file a run
writes and `sha256  run/stdout` for its captured standard output followed
by its exit status.  BLAS runs on one thread, so the digest depends only
on the source and the overrides; that includes simulate-primitive's
final_state.npz, whose zip entries np.savez writes with a fixed date.
anelastic_lab.lapack sets that thread count at import, but the script
still sets OPENBLAS_NUM_THREADS=1: --against REF may export a ref older
than that setting.

The default configuration has no bulk viscosity (params.lam = 0), so the
bulk branches of the dissipation rate, the bounds and the audit do not
reach the digest; check a change to them with `--set params.lam=0.5`.
A run hands its samples to the measurements in blocks of 8 rows, and a
one-row remainder joins the last block; check a change to that partition
with a short run too, `--set sweep.samples=17` (blocks of 8 and 9 rows).
The acoustic measurements' edge cases need their own runs too:
`--set grid.n=2048` (Strichartz blocks of 8 time rows, the last one
ragged); `--set acoustic.p=inf --set acoustic.q=6` and `--set
acoustic.p=2 --set acoustic.q=inf` (the two Strichartz endpoints); and
`--set grid.n=128 --set acoustic.delta=0.05` (every mode of the operator
in the window, so the eigenvector buffer is n columns wide).

With --against REF the digest is taken twice with the same overrides, in
fresh interpreters: once with this checkout's `src/` and once with the
`src/` of the git ref REF, exported into a temporary directory.  Only the
lines that differ are printed (`- ` the ref's, `+ ` this checkout's), and
the exit status is 1 if any does.
"""

import os

# before numpy loads: one summation order also for refs whose lapack.py does
# not yet set the thread count itself
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = (
    "profile",
    "sweep",
    "audit-rei",
    "simulate-primitive",
    "simulate-anelastic",
    "simulate-acoustic",
    "spectrum",
    "decay",
    "strichartz",
)
# (digest label, leading arguments, trailing --sets) of every run
RUNS = tuple((command, [command], []) for command in COMMANDS) + (
    (
        "simulate-anelastic-cartesian",
        ["simulate-anelastic", "--experimental"],
        ["--set", "grid.geometry=cartesian", "--set", "grid.n=8", "--set", "run.samples=9"],
    ),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(overrides: list[str], src: Path = ROOT / "src") -> list[str]:
    """The digest lines of every run from src with the given --set overrides."""
    sys.path.insert(0, str(src))
    from anelastic_lab.cli import main

    sets = [arg for item in overrides for arg in ("--set", item)]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, head, tail in RUNS:
            outdir = Path(tmp) / label
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = main([*head, *sets, *tail, "--output", str(outdir)])
            captured.write(f"exit status {code}\n")
            for path in sorted(outdir.iterdir()):
                lines.append(f"{_sha256(path.read_bytes())}  {label}/{path.name}")
            lines.append(f"{_sha256(captured.getvalue().encode())}  {label}/stdout")
    return lines


def against(ref: str, overrides: list[str]) -> list[str]:
    """The digest lines that differ between REF's src/ and this checkout's."""
    sets = [arg for item in overrides for arg in ("--set", item)]

    def run(src: Path) -> list[str]:
        cmd = [sys.executable, __file__, "--src", str(src), *sets]
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", ref, "src"], capture_output=True, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        theirs = run(Path(tmp) / "src")
    ours = run(ROOT / "src")
    return [f"- {line}" for line in theirs if line not in ours] + [
        f"+ {line}" for line in ours if line not in theirs
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
    parser.add_argument("--against", metavar="REF", help="print only the lines that differ at REF")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.against:
        changed = against(args.against, args.set)
        if changed:
            print("\n".join(changed))
        sys.exit(1 if changed else 0)
    print("\n".join(digest(args.set, args.src)))
