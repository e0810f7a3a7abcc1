#!/usr/bin/env python3
"""platoonsec benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {simulate_defended,ensemble_benign,sweep_grid}
                         --seed N --seconds S --trace {0,1}

Load is a closed loop with one caller: a pass of the workload starts when the
previous one has ended, and passes repeat for ``--seconds``.  Every pass's
outputs are checked.  ``--trace 0`` prints the end-to-end metrics, measured
with no wrapper installed; ``--trace 1`` adds one to three traced passes and
prints the per-layer metrics instead.  The last line of standard output is one JSON
object; the full result, with a manifest of the machine and versions, is
written to ``.bench_out/<workload>/``, and the traced pass's spans next to it.

Every time is reported in seconds at reference speed (see
``bench/reference.py``): a timed operation's seconds are scaled by REF_S
over the mean of two bursts of the reference kernel, one just before and
one just after it, and a set-up sample by the kernel timed in the same
fresh interpreter right after.  Raw seconds and the kernel's own time are
reported among the per-layer metrics and in the result file.

End-to-end metrics:

* ``setup_s`` -- median over the run of fresh interpreters that import
  platoonsec and load the workload's config, one after each timed pass and
  at least MIN_SETUPS in all;
* ``wall_s`` -- the median timed pass; for the ensemble and the sweep, the
  sum over seeds or grid cells of each one's median time across passes;
* ``runs_per_s``, ``steps_per_s`` -- scenario runs and integrator steps of
  one pass over ``wall_s``;
* ``peak_rss_mb`` -- peak resident set of this process plus its largest
  child;
* ``checks_ok_frac`` -- output checks passed over checks attempted.

Per-layer metrics are self times and call counts of the traced spans,
counts read exactly from the runs' outputs (steps, step-map builds,
reports, decisions, mode changes), output sizes, the sweep pool's wall time
and scaling, the share of traced time the layer spans cover, the median and
90th-percentile latency of one operation (a ``simulate`` command, an
ensemble seed, a one-cell ``sweep`` command), the raw seconds of
``wall_s`` and the reference kernel's median raw time.

Workload sizes are shares of the program's own callers: an ensemble pass
runs ENSEMBLE_SEEDS seeds, half of the 100 of ``scripts/dwell_study.py``'s
default and of acceptance criterion 7; a sweep pass runs SWEEP_RUNS seeds a
cell, a fifth of the ``sweep`` command's default of 20.  The full sizes
would make one run take over a minute when the machine is slow, and the
benchmark's runs must fit a fixed time budget.

The program is driven only through its public entry points
(``platoonsec.cli.main``, ``load_scenario``, ``run_scenario``,
``trace_metrics``, ``cacc_entry_values``), imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import platoonsec  # noqa: E402
import platoonsec.cli  # noqa: E402
from platoonsec import (cacc_entry_values, load_scenario, run_scenario,  # noqa: E402
                        trace_metrics)
from reference import REF_S, ReferenceKernel  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT = ROOT / ".bench_out"
DEFENDED = "configs/crash_defended.json"
BENIGN = "configs/benign_switching.json"
NPROC = len(os.sched_getaffinity(0))

MIN_PASSES = 2          # timed passes per run, even when --seconds is short
# Reference-kernel calls in one burst, so that a burst is about 5-15% of the
# operation it brackets: a simulate command takes ~0.6 s, an ensemble seed
# ~0.15 s, a one-cell sweep command ~1 s, on a quiet host.
REF_CALLS = {"simulate_defended": 3, "ensemble_benign": 1, "sweep_grid": 3}
MIN_SETUPS = 11         # set-up samples per run
SETUP_REF_CALLS = 5     # reference-kernel calls after each set-up sample
ENSEMBLE_SEEDS = 50     # seeds per ensemble pass: half of scripts/dwell_study.py's 100
# The verdict is the scenario's outcome, not a property every seed must
# have: seed 119 breaks the sup-norm ordering by 2 mm, the only seed of
# 0..399 that does (acceptance criterion 7 pins 0..99).  More failing seeds
# in one pass than this marks the pass wrong.
MAX_UNSTABLE = 2
# The grid spans surviving cells (xi = 1, and eps = 2 up to xi = 2.5),
# colliding ones (xi = 4) and one whose outcome depends on the seed
# (xi = 2.5, eps = 4: 7 of seeds 0..23 collide), so full-length runs mix with
# collision early exits inside one pool, and a pool that ran the wrong seeds
# changes the counts.
SWEEP_XI = ("1", "2.5", "4")
SWEEP_EPS = ("2", "4")
SWEEP_RUNS = 4          # seeds per cell
TRACED_PASSES = 3       # at most, per --trace 1 run; the fastest is reported
FINAL_EPS3 = 0.1        # m: the defended victim must re-converge this close

WORKLOADS = ("simulate_defended", "ensemble_benign", "sweep_grid")

# The child times its own reference burst after the set-up: it may run on
# another processor than this one, whose speed drifts on its own.
SETUP_CODE = (
    "import statistics, sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import platoonsec\n"
    "platoonsec.load_scenario(sys.argv[1])\n"
    "setup = time.perf_counter() - t0\n"
    "sys.path.insert(0, 'bench')\n"
    "from reference import ReferenceKernel\n"
    "kernel = ReferenceKernel()\n"
    "print(setup, statistics.median(kernel() for _ in range(int(sys.argv[2]))))\n"
)

# name -> unit, in output order; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "runs_per_s": "1/s", "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "checks_ok_frac": "ratio",
}
PER_LAYER = {
    "engine.runs": "count", "engine.steps": "count",
    "engine.step_self_s": "s", "engine.us_per_step": "us",
    "engine.stepmap_builds": "count", "engine.stepmap_hit_ratio": "ratio",
    "engine.reports": "count", "engine.decisions": "count",
    "engine.mode_changes": "count",
    "engine.metrics_s": "s", "engine.metrics_calls": "count",
    "stability.cert_search_s": "s", "stability.cert_search_calls": "count",
    "stability.constants_s": "s", "stability.constants_calls": "count",
    "stability.dwell_s": "s", "stability.dwell_calls": "count",
    "game.solve_s": "s", "game.solve_calls": "count",
    "config.load_s": "s", "config.load_calls": "count",
    "threat.detector_s": "s", "threat.detector_calls": "count",
    "threat.signal_s": "s", "threat.signal_calls": "count",
    "supervisor.decide_s": "s", "supervisor.decide_calls": "count",
    "output.csv_s": "s", "output.csv_bytes": "count",
    "output.json_s": "s", "output.dat_bytes": "count", "output.mb": "MB",
    "cli.self_s": "s", "bench.self_s": "s",
    "sweep.parallel_wall_s": "s", "sweep.scaling_eff": "ratio",
    "trace.wall_s": "s", "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "latency.run_ms_p50": "ms", "latency.run_ms_p90": "ms",
    "ensemble.unstable_seeds": "count",
    "raw.wall_s": "s", "host.ref_kernel_ms": "ms",
}
# Spans whose self time has its own metric name; every other span "x" maps
# to "x_s" and, where PER_LAYER lists it, "x_calls".
SELF_TIME_NAMES = {"engine.run": "engine.step_self_s", "cli.main": "cli.self_s",
                   "bench.seed": "bench.self_s"}
# Root spans: their self time is whatever no layer span covers, so it is left
# out of trace.accounted_frac.
ROOT_SPANS = ("cli.main", "bench.seed")


def _timed(fn, *args):
    """(result, seconds) of a call, with the program's stdout captured so that
    our last line stays the JSON result."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _trace_counts(trace) -> tuple:
    """What the exact counts need from one run's trace: steps, the modes
    array (its distinct rows are the step-map builds), reports, decisions
    and mode changes."""
    return (trace.times.size - 1, trace.modes, len(trace.reports), len(trace.decisions),
            sum(e.cause != "initial" for e in trace.mode_events))


class Run:
    """One benchmark run: timed passes, output checks, optional traced pass."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.config = BENIGN if workload == "ensemble_benign" else DEFENDED
        self.seed = seed
        self.seconds = seconds
        self.ref_calls = REF_CALLS[workload]
        self.kernel = ReferenceKernel()
        self.out = OUT / workload
        self.out.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []      # one per timed pass, at reference speed
        self.raw_walls: list[float] = []  # the same passes in raw seconds
        self.setups: list[float] = []     # one fresh interpreter per sample
        self.latencies: list[float] = []  # one per operation (run_ms_*)
        self.op_seconds: list[list] = []  # ensemble seeds, sweep cells: each pass's latencies
        self.bursts: list[float] = []     # raw seconds of each reference burst
        self.before = None                # the last burst, if nothing has run since
        self.runs_per_pass = 0
        self.steps_per_pass = 0
        self.extras: dict = {}            # per-layer figures set by the workload
        self.reference = None             # outputs every later pass must match

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def burst(self) -> float:
        """Median raw seconds of one reference-kernel call, over a burst."""
        self.bursts.append(statistics.median(self.kernel() for _ in range(self.ref_calls)))
        return self.bursts[-1]

    def normalized(self, timed_call):
        """(result, raw seconds, seconds at reference speed) of
        ``timed_call() -> (result, raw seconds)``, between two bursts; a
        burst ends one operation's bracket and starts the next one's
        unless a set-up sample runs in between."""
        before = self.before if self.before is not None else self.burst()
        result, seconds = timed_call()
        self.before = self.burst()
        return result, seconds, seconds * REF_S * 2 / (before + self.before)

    def timed_window(self, one_pass) -> None:
        """Passes for --seconds, each followed by one set-up sample.

        ``one_pass`` returns its raw and normalized seconds.  A pass starts
        only if it is expected to end within the window.
        """
        _setup_sample(self.config)  # compiles the bytecode caches; not counted
        for _ in range(3):  # warms the kernel's code and allocations; not counted
            self.kernel()
        start = time.perf_counter()
        while (len(self.walls) < MIN_PASSES
               or time.perf_counter() - start + self.raw_walls[-1] <= self.seconds):
            raw, wall = one_pass()
            self.raw_walls.append(raw)
            self.walls.append(wall)
            self.setup_sample()
        while len(self.setups) < MIN_SETUPS:
            self.setup_sample()

    def setup_sample(self) -> None:
        setup, kernel = _setup_sample(self.config)
        self.setups.append(setup * REF_S / kernel)
        self.before = None

    # ---- simulate_defended ----------------------------------------------

    def _simulate_argv(self, out: Path):
        return ["simulate", "--config", DEFENDED, "--out", str(out), "--seed", str(self.seed)]

    def _simulate_outputs(self, out: Path) -> dict:
        data = (out / "trace.csv").read_bytes()
        lines = data.split(b"\n")
        header = lines[0].split(b",")
        last = lines[-2].split(b",")
        metrics = json.loads((out / "metrics.json").read_text())
        return {
            "digest": hashlib.sha256(data).hexdigest(),
            "steps": len(lines) - 3,  # header, initial row, trailing newline
            "eps3": float(last[header.index(b"eps3")]),
            "collision": metrics["collision"],
            "csv_bytes": len(data),
            "json_bytes": (out / "metrics.json").stat().st_size,
            "dat_bytes": sum((out / f).stat().st_size for f in ("spacing.dat", "velocity.dat")),
        }

    def _simulate_ok(self, rc, outputs, reference) -> None:
        self.check(rc == 0 and not outputs["collision"]
                   and abs(outputs["eps3"]) < FINAL_EPS3
                   and outputs["digest"] == reference["digest"])

    def simulate_defended(self) -> None:
        main = platoonsec.cli.main
        rc, _ = _timed(main, self._simulate_argv(self.out))
        reference = self._simulate_outputs(self.out)
        self._simulate_ok(rc, reference, reference)
        self.runs_per_pass = 1
        self.steps_per_pass = reference["steps"]
        self.reference = reference

        def one_pass():
            rc, raw, wall = self.normalized(lambda: _timed(main, self._simulate_argv(self.out)))
            self._simulate_ok(rc, self._simulate_outputs(self.out), reference)
            self.latencies.append(wall)
            return raw, wall

        self.timed_window(one_pass)

    def traced_simulate_defended(self, tracer):
        out = self.out / "traced"
        with tracer.installed():
            rc, _, wall = self.normalized(lambda: _timed(
                tracer.wrap("cli.main", platoonsec.cli.main), self._simulate_argv(out)))
        outputs = self._simulate_outputs(out)
        self._simulate_ok(rc, outputs, self.reference)
        self.extras.update({
            "output.csv_bytes": outputs["csv_bytes"], "output.dat_bytes": outputs["dat_bytes"],
            "output.mb": (outputs["csv_bytes"] + outputs["dat_bytes"] + outputs["json_bytes"]) / 1e6})
        return wall, tracer

    # ---- ensemble_benign -------------------------------------------------

    def _ensemble_pass(self, api, measure) -> tuple[list, list]:
        """dwell_study arm A: seeds seed..seed+N-1, no file output.  Each
        seed is timed by ``measure(timed_call)`` -> (result, seconds).
        Returns one checked row and one latency per seed."""
        base = api.load_scenario(BENIGN)
        P = base.lyapunov

        def one_seed(s):
            t0 = time.perf_counter()
            trace = api.run_scenario(dataclasses.replace(base, seed=s))
            metrics = api.trace_metrics(trace)
            entries = api.cacc_entry_values(trace, P)
            row = (trace.collision is None, metrics.string_stable, trace.times.size - 1,
                   metrics.sup_spacing_errors, len(entries))
            return row, time.perf_counter() - t0

        rows, seconds = [], []
        for s in range(self.seed, self.seed + ENSEMBLE_SEEDS):
            row, wall = measure(lambda: one_seed(s))
            rows.append(row)
            seconds.append(wall)
        return rows, seconds

    def _ensemble_ok(self, rows, reference) -> None:
        """Every seed collision-free and as in the reference pass; at most
        MAX_UNSTABLE seeds of the pass fail the string-stability verdict."""
        for row, ref in zip(rows, reference):
            self.check(row[0] and row == ref)
        self.check(sum(not row[1] for row in rows) <= MAX_UNSTABLE)

    def ensemble_benign(self) -> None:
        """The first timed pass is the reference every later pass must match;
        a pass is long enough that a separate untimed one would cost a third
        of the window.  Each seed is bracketed by its own reference bursts."""
        api = SimpleNamespace(load_scenario=load_scenario, run_scenario=run_scenario,
                              trace_metrics=trace_metrics, cacc_entry_values=cacc_entry_values)
        self.runs_per_pass = ENSEMBLE_SEEDS

        def measure(timed_call):
            row, _, wall = self.normalized(timed_call)
            return row, wall

        def one_pass():
            t0 = time.perf_counter()
            rows, seconds = self._ensemble_pass(api, measure)
            raw = time.perf_counter() - t0
            self.op_seconds.append(seconds)
            self.latencies.extend(seconds)
            if self.reference is None:
                self.reference = rows
                self.steps_per_pass = sum(row[2] for row in rows)
            self._ensemble_ok(rows, self.reference)
            return raw, sum(seconds)

        self.timed_window(one_pass)

    def traced_ensemble_benign(self, tracer):
        """Each seed is a root span, bracketed by reference bursts as in the
        timed passes; the bursts fall outside every span."""
        api = SimpleNamespace(
            load_scenario=tracer.wrap("config.load", load_scenario),
            run_scenario=tracer.wrap("engine.run", run_scenario),
            trace_metrics=tracer.wrap("engine.metrics", trace_metrics),
            cacc_entry_values=tracer.wrap("engine.metrics", cacc_entry_values))

        def measure(timed_call):
            row, _, wall = self.normalized(tracer.wrap("bench.seed", timed_call))
            return row, wall

        with tracer.installed():
            rows, seconds = self._ensemble_pass(api, measure)
        self._ensemble_ok(rows, self.reference)
        self.extras["ensemble.unstable_seeds"] = sum(not row[1] for row in rows)
        return sum(seconds), tracer

    # ---- sweep_grid ------------------------------------------------------

    def _sweep_argv(self, out: Path, jobs: int, xi_grid=SWEEP_XI, eps_grid=SWEEP_EPS):
        return ["sweep", "--config", DEFENDED, "--xi-grid", *xi_grid,
                "--eps-grid", *eps_grid, "--runs", str(SWEEP_RUNS),
                "--jobs", str(jobs), "--out", str(out), "--seed", str(self.seed)]

    def _sweep_command(self, main, argv, out: Path):
        """(rc, raw seconds, seconds at reference speed, collision counts)."""
        rc, raw, wall = self.normalized(lambda: _timed(main, argv))
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        counts = tuple(tuple(row.split(",")[:4]) for row in rows)
        return rc, raw, wall, counts

    def _sweep_cells(self, main, out: Path) -> tuple:
        """One --jobs 1 sweep command per grid cell, in grid order:
        (all exited 0, raw seconds, seconds at reference speed per cell,
        collision counts of the grid)."""
        cells = [self._sweep_command(main, self._sweep_argv(out, 1, (xi,), (eps,)), out)
                 for xi in SWEEP_XI for eps in SWEEP_EPS]
        return (all(cell[0] == 0 for cell in cells), sum(cell[1] for cell in cells),
                [cell[2] for cell in cells], sum((cell[3] for cell in cells), ()))

    def sweep_grid(self) -> None:
        """A timed pass runs the grid as one --jobs 1 sweep command per
        cell; its time is their sum.

        A whole-grid command takes ~5 s, so reference bursts around it would
        follow the host's speed, which changes within seconds, too coarsely.
        A single-cell command does the same per-cell work: config load,
        certificate search and solve for each of its runs.  A pool pass
        needs both of a small machine's processors quiet at once, so its
        wall time swings with co-tenant load far more than a serial pass
        does: after the window one whole-grid pool pass of nproc workers,
        the sweep command's default, gives the scaling figures.  Every
        pass's counts are checked against the traced pass's.
        """
        main = platoonsec.cli.main
        self.workers = min(len(SWEEP_XI) * len(SWEEP_EPS), NPROC)
        self.runs_per_pass = len(SWEEP_XI) * len(SWEEP_EPS) * SWEEP_RUNS
        self.results = []

        def one_pass():
            ok, raw, cells, counts = self._sweep_cells(main, self.out / "cell")
            self.results.append((ok, counts))
            self.op_seconds.append(cells)
            self.latencies.extend(cells)
            return raw, sum(cells)

        self.timed_window(one_pass)
        pool = self.out / "pool"
        rc, _, pool_wall, counts = self._sweep_command(
            main, self._sweep_argv(pool, self.workers), pool)
        self.results.append((rc == 0, counts))
        self.extras.update({"sweep.parallel_wall_s": pool_wall,
                            "sweep.scaling_eff": statistics.median(self.walls)
                            / (pool_wall * self.workers)})

    def traced_sweep_grid(self, tracer):
        """A traced pass shaped like the timed ones, each cell's command a
        root span; the first one is the reference for every pass's
        collision counts, the pool pass's among them."""
        main = tracer.wrap("cli.main", platoonsec.cli.main)
        with tracer.installed():
            ok, _, cells, counts = self._sweep_cells(main, self.out / "traced")
        if self.reference is None:
            self.reference = counts
            self.check(len(counts) == len(SWEEP_XI) * len(SWEEP_EPS))
            for passed, other in self.results:
                self.check(passed and other == counts)
        self.check(ok and counts == self.reference)
        self.steps_per_pass = sum(kept[0] for kept in tracer.kept)
        # the whole grid's table, as the pool pass wrote it
        self.extras["output.mb"] = (self.out / "pool" / "sweep.csv").stat().st_size / 1e6
        return sum(cells), tracer

    # ---- metrics ---------------------------------------------------------

    def wall(self) -> float:
        if self.op_seconds:
            return sum(map(statistics.median, zip(*self.op_seconds)))
        return statistics.median(self.walls)

    def end_to_end(self, peak_rss_mb: float) -> dict:
        wall = self.wall()
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": wall,
            "runs_per_s": self.runs_per_pass / wall,
            "steps_per_s": self.steps_per_pass / wall,
            "peak_rss_mb": peak_rss_mb,
            "checks_ok_frac": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self, traced_wall: float, tracer) -> dict:
        """Layer times are the traced spans' raw seconds scaled so that they
        sum to the traced pass's time at reference speed."""
        seconds, calls = tracer.self_times()
        scale = traced_wall / sum(seconds.values())
        values = dict.fromkeys(PER_LAYER, 0)
        for span, self_s in seconds.items():
            values[SELF_TIME_NAMES.get(span, span + "_s")] = self_s * scale
            if span + "_calls" in values:
                values[span + "_calls"] = calls[span]
        runs = tracer.kept
        steps = sum(run[0] for run in runs)
        builds = sum(len(np.unique(run[1], axis=0)) for run in runs)
        layers_s = sum(s for span, s in seconds.items() if span not in ROOT_SPANS) * scale
        values.update({
            "engine.runs": len(runs),
            "engine.steps": steps,
            "engine.us_per_step": values["engine.step_self_s"] / steps * 1e6,
            "engine.stepmap_builds": builds,
            "engine.stepmap_hit_ratio": 1.0 - builds / steps,
            "engine.reports": sum(run[2] for run in runs),
            "engine.decisions": sum(run[3] for run in runs),
            "engine.mode_changes": sum(run[4] for run in runs),
            "trace.wall_s": traced_wall,
            "trace.accounted_frac": layers_s / traced_wall,
            "trace.overhead_frac": traced_wall / self.wall() - 1.0,
            "latency.run_ms_p50": statistics.median(self.latencies) * 1e3,
            "latency.run_ms_p90": _p90(self.latencies) * 1e3,
            "raw.wall_s": statistics.median(self.raw_walls),
            "host.ref_kernel_ms": statistics.median(self.bursts) * 1e3,
        })
        values.update(self.extras)
        return values


def _setup_sample(config: str) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import platoonsec and load the
    config, and its reference kernel's median seconds right after."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, config, str(SETUP_REF_CALLS)],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    setup, kernel = map(float, proc.stdout.split())
    return setup, kernel


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
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
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(args.workload, args.seed, args.seconds)
    getattr(run, args.workload)()
    peak_rss_mb = _peak_rss_mb()
    # The sweep's counts and steps come from a traced --jobs 1 pass even untraced.
    # Traced passes together take at most about a third of --seconds.
    if args.trace:
        passes = max(1, min(TRACED_PASSES, int(args.seconds / 3 / min(run.raw_walls))))
    else:
        passes = int(args.workload == "sweep_grid")
    traced = [getattr(run, "traced_" + args.workload)(Tracer(_trace_counts))
              for _ in range(passes)]

    if args.trace:
        traced_wall, tracer = min(traced, key=lambda pair: pair[0])
        values = run.per_layer(traced_wall, tracer)
        units = PER_LAYER
        tracer.write(run.out / f"spans-seed{args.seed}.csv")
    else:
        values = run.end_to_end(peak_rss_mb)
        units = END_TO_END

    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "platoonsec": platoonsec.__version__, "git_commit": _git_commit(),
        "sweep_workers": getattr(run, "workers", None), "pass_walls_s": run.walls,
        "raw_pass_walls_s": run.raw_walls, "ref_s": REF_S,
        "ref_kernel_ms": statistics.median(run.bursts) * 1e3,
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (run.out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"manifest": manifest, **result}, indent=2) + "\n")
    print("manifest " + json.dumps(manifest))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
