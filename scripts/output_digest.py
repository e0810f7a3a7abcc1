#!/usr/bin/env python3
"""Digest the program's outputs, to check that a change keeps them byte-identical.

Runs ``platoonsec simulate`` on every ``configs/*.json`` at seeds 0-3 and the
benchmark's sweep grid (crash_defended, ``--xi-grid 1 2.5 4 --eps-grid 2 4
--runs 4 --seed 0 --jobs 1``) into a temporary directory, then prints each
output file's sha256 in ``sha256sum`` format and, last, the sha256 of that
whole listing.  Run it on two trees and compare the last lines; equal listing
digests mean equal bytes in all 65 files.

The digests hold per machine, not across machines: the traces go through
BLAS matrix-vector products, and BLAS libraries pick their kernels by CPU,
so another CPU (or another numpy/BLAS build) may round differently.

Usage: python scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from platoonsec import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS = range(4)
RUN_FILES = ("trace.csv", "metrics.json", "spacing.dat", "velocity.dat")
SWEEP = ["--config", str(CONFIGS / "crash_defended.json"), "--xi-grid", "1", "2.5", "4",
         "--eps-grid", "2", "4", "--runs", "4", "--seed", "0", "--jobs", "1"]


def run(argv) -> None:
    """One command in-process, its report to stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code not in (cli.EXIT_OK, cli.EXIT_OUTCOME):  # a collision is an outcome, not a failure
        raise SystemExit(f"{' '.join(argv)} exited {code}")


def listing(root: Path) -> list[str]:
    """``sha256sum */trace.csv */metrics.json */spacing.dat */velocity.dat
    sweep/sweep.csv`` run in ``root``."""
    files = [p for name in RUN_FILES for p in sorted(root.glob(f"*/{name}"))]
    files.append(root / "sweep" / "sweep.csv")
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root)}"
            for p in files]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for config in sorted(CONFIGS.glob("*.json")):
            for seed in SEEDS:
                run(["simulate", "--config", str(config), "--seed", str(seed),
                     "--out", str(root / f"{config.stem}-{seed}")])
        run(["sweep", *SWEEP, "--out", str(root / "sweep")])
        lines = listing(root)
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    print(f"listing sha256 {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
