#!/usr/bin/env python3
"""Fingerprint every artifact and stdout of the nine computing commands.

    python3 scripts/artifact_digest.py [--set SECTION.KEY=VALUE ...] > digest.txt

Runs profile, sweep, audit-rei, simulate-primitive, simulate-anelastic,
simulate-acoustic, spectrum, decay and strichartz through cli.main, each
into its own directory under one temporary directory, with every --set
passed on to every command.  Prints `sha256  command/file` for each file
a command writes and `sha256  command/stdout` for its captured standard
output followed by its exit status.  BLAS runs on one thread, so the
digest depends only on the source and the overrides: diffing the digests
of two checkouts lists the artifacts a change moved.  The checkout's own
`src/` is imported, so a copy of this file measures the checkout it sits in.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: one summation order

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from anelastic_lab.cli import main  # noqa: E402

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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(overrides: list[str]) -> list[str]:
    """The digest lines of all nine commands run with the given --set overrides."""
    sets = [arg for item in overrides for arg in ("--set", item)]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            outdir = Path(tmp) / command
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = main([command, *sets, "--output", str(outdir)])
            captured.write(f"exit status {code}\n")
            for path in sorted(outdir.iterdir()):
                lines.append(f"{_sha256(path.read_bytes())}  {command}/{path.name}")
            lines.append(f"{_sha256(captured.getvalue().encode())}  {command}/stdout")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
    print("\n".join(digest(parser.parse_args().set)))
