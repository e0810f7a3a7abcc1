#!/usr/bin/env python3
"""Digest the program's outputs, to check that a change keeps them byte-identical.

Runs ``platoonsec simulate`` on every ``configs/*.json`` at seeds 0-3 and the
benchmark's sweep grid (crash_defended, ``--xi-grid 1 2.5 4 --eps-grid 2 4
--runs 4 --seed 0 --jobs 1``) into a temporary directory, then prints each
output file's sha256 in ``sha256sum`` format and then the sha256 of that
whole listing.  Run it on two trees and compare the last six lines; equal
listing digests mean equal bytes in all 65 files.

A second line, ``trace sha256``, digests the in-memory traces of
benign_switching at seeds 0-49 and crash_defended at seeds 0-7: every array's
shape, dtype and bytes, then the reports, decisions, mode events and
collision by their ``repr``.  The files above hold no reports or decisions,
so this line is what pins them, over an ensemble as large as the
benchmark's.

A third line, ``varying sha256``, digests the same way the in-memory traces
of crash_defended at seeds 0-3 under a ramp and under a sinusoid attack,
each in message-level and in lumped-acceleration mode.  Those signals take a
new value every row, so every row inside their window is an input edge and
runs as a segment of its own, which no shipped config does.

A fourth line, ``events sha256``, digests what rounding cannot move, over
every run above: the simulate runs' and the traces' reports, decision
records and mode records (by row), and their collision's row and follower
(not its gap), then the bytes of ``sweep.csv``.  A change that moves the
floats in their last bits changes the first three lines; this one must
hold.

A fifth line, ``odd events sha256``, digests the same records of
crash_defended with 5 vehicles at seeds 0-3.  Every run above has an even
vehicle count, and a power table's items and the state rows of an odd one
are padded (see ``engine._padded``), so only this line sees the rows an odd
platoon computes.

A last line, ``cli sha256``, digests the exit code, stdout and stderr of
``stability``, ``game``, ``string-check --mode ACC`` and ``string-check
--mode CACC``, each run with no config and with every ``configs/*.json``,
and of ``string-check --num -1 -0.25 --den 1 1 0.25`` (acceptance criterion
3).  The closed-loop matrices A and the transfer functions H(s) reach users
only through this output.

The digests hold per machine, not across machines: the traces go through
BLAS matrix-vector products, and BLAS libraries pick their kernels by CPU,
so another CPU (or another numpy/BLAS build) may round differently.

Usage: python scripts/output_digest.py
"""

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from platoonsec import AttackSignal, cli, load_scenario, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS = range(4)
RUN_FILES = ("trace.csv", "metrics.json", "spacing.dat", "velocity.dat")
SWEEP = ["--config", str(CONFIGS / "crash_defended.json"), "--xi-grid", "1", "2.5", "4",
         "--eps-grid", "2", "4", "--runs", "4", "--seed", "0", "--jobs", "1"]
TRACE_RUNS = (("benign_switching", range(50)), ("crash_defended", range(8)))
VARYING_SEEDS = range(4)
VARYING_SIGNALS = (AttackSignal(kind="ramp", rate=0.3),
                   AttackSignal(kind="sinusoid", amplitude=2.5, frequency=0.15, phase=0.4))
VARYING_MODES = ("message-level", "lumped-acceleration")
ODD_VEHICLES = 5
TRACE_ARRAYS = ("times", "positions", "velocities", "commands", "modes",
                "spacing_errors", "attack_xi")
CLI_COMMANDS = (["stability"], ["game"], ["string-check", "--mode", "ACC"],
                ["string-check", "--mode", "CACC"])
CLI_FIXTURE = ["string-check", "--num", "-1", "-0.25", "--den", "1", "1", "0.25"]


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


def event_bytes(trace) -> bytes:
    """A run's records that rounding cannot move: its reports, decision
    records and mode records, and its collision's row and follower."""
    collision = (None if trace.collision is None
                 else (trace.times.size - 1, trace.collision.follower))
    return repr((trace.reports, trace.decision_records, trace.mode_records,
                 collision)).encode()


def traces_digest(configs, events) -> str:
    """sha256 over the traces of ``configs``, run in-process in that order;
    each run's event bytes go to ``events``."""
    digest = hashlib.sha256()
    for config in configs:
        trace = run_scenario(config)
        for name in TRACE_ARRAYS:
            array = getattr(trace, name)
            digest.update(f"{name} {array.shape} {array.dtype}".encode())
            digest.update(array.tobytes())
        digest.update(repr((trace.reports, trace.decisions, trace.mode_events,
                            trace.collision)).encode())
        events.update(event_bytes(trace))
    return digest.hexdigest()


def trace_digest(events) -> str:
    """sha256 over the traces of TRACE_RUNS."""
    return traces_digest((dataclasses.replace(load_scenario(CONFIGS / f"{stem}.json"), seed=seed)
                          for stem, seeds in TRACE_RUNS for seed in seeds), events)


def varying_digest(events) -> str:
    """sha256 over the traces of crash_defended under each of VARYING_SIGNALS
    in each of VARYING_MODES, at VARYING_SEEDS."""
    base = load_scenario(CONFIGS / "crash_defended.json")
    return traces_digest(
        (dataclasses.replace(base, seed=seed,
                             attack=dataclasses.replace(base.attack, signal=signal, mode=mode))
         for signal in VARYING_SIGNALS for mode in VARYING_MODES for seed in VARYING_SEEDS),
        events)


def odd_events_digest() -> str:
    """sha256 over the event bytes of crash_defended with ODD_VEHICLES
    vehicles at SEEDS."""
    base = load_scenario(CONFIGS / "crash_defended.json")
    base = dataclasses.replace(
        base, platoon=dataclasses.replace(base.platoon, vehicle_count=ODD_VEHICLES))
    digest = hashlib.sha256()
    for seed in SEEDS:
        digest.update(event_bytes(run_scenario(dataclasses.replace(base, seed=seed))))
    return digest.hexdigest()


def cli_digest() -> str:
    """sha256 over the exit code, stdout and stderr of CLI_COMMANDS with no
    config and with each config, then of CLI_FIXTURE, run in-process.  A
    config enters the digest by its file name, so the tree's path does not."""
    digest = hashlib.sha256()
    configs = [None, *sorted(CONFIGS.glob("*.json"))]
    runs = [(argv, config) for config in configs for argv in CLI_COMMANDS]
    for argv, config in [*runs, (CLI_FIXTURE, None)]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ([] if config is None else ["--config", str(config)]))
        name = "-" if config is None else config.name
        digest.update(f"{' '.join(argv)} {name} -> {code}\n".encode())
        digest.update(f"{out.getvalue()}\0{err.getvalue()}\0".encode())
    return digest.hexdigest()


def main() -> None:
    events = hashlib.sha256()
    simulate = cli.run_scenario

    def recorded(config):  # each simulate run's events, from the trace it writes
        trace = simulate(config)
        events.update(event_bytes(trace))
        return trace

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cli.run_scenario = recorded
        try:
            for config in sorted(CONFIGS.glob("*.json")):
                for seed in SEEDS:
                    run(["simulate", "--config", str(config), "--seed", str(seed),
                         "--out", str(root / f"{config.stem}-{seed}")])
        finally:
            cli.run_scenario = simulate
        run(["sweep", *SWEEP, "--out", str(root / "sweep")])
        lines = listing(root)
        events.update((root / "sweep" / "sweep.csv").read_bytes())
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    print(f"listing sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"trace sha256 {trace_digest(events)}")
    print(f"varying sha256 {varying_digest(events)}")
    print(f"events sha256 {events.hexdigest()}")
    print(f"odd events sha256 {odd_events_digest()}")
    print(f"cli sha256 {cli_digest()}")


if __name__ == "__main__":
    main()
