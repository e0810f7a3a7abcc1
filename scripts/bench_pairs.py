#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs, into BENCH_*.json.

Usage (from the repository root):

    python scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json
        [--first-seed 100] [--commits PARENT CHANGE]

For each workload in the change's ``BENCHMARK.json``, pair i of ten runs
``bench/run.py --trace 0`` once in each checkout, for the benchmark's
``run_seconds``, with seed ``first_seed + i``, the parent first in even pairs
and the change first in odd ones.  No run writes bytecode, and the script
refuses to start while either checkout holds a ``__pycache__`` directory, so
both sides compile their own modules from source and read the installed
packages' caches alike.  It also refuses two checkouts whose absolute paths
differ in length, which moves ``ensemble_benign``'s ``wall_s`` by up to 10%
at identical code: use sibling directories such as ``.../parent`` and
``.../change``.  Then one traced pass (``--trace 1``) a side, with the first
seed, gives the per-layer metrics that show where a difference went.

The output holds, per workload and end-to-end metric, each side's median and
quartiles (``statistics.quantiles``, inclusive method), the change's wins out
of the pairs in the metric's better direction (ties count for neither), every
run's value and a verdict; then both sides' traced per-layer metrics, the
seeds, each side's manifest (machine and versions, as ``bench/run.py``
reports it) and the commits.  A checkout without ``.git`` reports its commit
as unknown; name it with ``--commits PARENT CHANGE``.

The verdict is ``gain`` when the change wins at least nine tenths of the
pairs and its median is better than the parent's by more than the parent's
interquartile range; ``worse`` when its median is worse than the parent's by
more than the metric's ``bound`` in ``BENCHMARK.json``, a fraction of the
parent's median; else ``unresolved``.  Each verdict is also printed to
stderr, one line a workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(manifest, result) of one ``bench/run.py`` run in ``checkout``.

    The run writes no bytecode and has no cache prefix: it reads the
    installed packages' ``__pycache__`` directories (an empty prefix would
    compile numpy from source in every ``setup_s`` sample), and the checkout
    holds none (see ``refusal``), so both sides compile platoonsec from source.
    """
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    manifest = json.loads(lines[-2].removeprefix("manifest "))
    return manifest, json.loads(lines[-1])


def refusal(checkouts: dict) -> str | None:
    """Why the two checkouts cannot be compared fairly, or None."""
    paths = {side: checkout.resolve() for side, checkout in checkouts.items()}
    if len(str(paths["parent"])) != len(str(paths["change"])):
        return (f"the checkouts' absolute paths differ in length ({paths['parent']}, "
                f"{paths['change']}), which moves wall_s; use sibling directories such as "
                f".../parent and .../change")
    for path in paths.values():
        cache = next(path.rglob("__pycache__"), None)
        if cache is not None:
            return f"{cache} holds bytecode that the other checkout may lack; remove it"
    return None


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: dict, change: dict, wins: int, pairs: int, sign: int,
            bound: float) -> str:
    """``gain``, ``worse`` or ``unresolved`` (see the module docstring);
    ``sign`` is 1 where lower is better, -1 where higher is."""
    lead = sign * (parent["median"] - change["median"])  # > 0: the change is better
    if 10 * wins >= 9 * pairs and lead > parent["q3"] - parent["q1"]:
        return "gain"
    if -lead > bound * abs(parent["median"]):
        return "worse"
    return "unresolved"


def compare(runs: dict, metrics: list) -> dict:
    """Per end-to-end metric: both sides' summaries, wins, values and verdict."""
    out = {}
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        sides = {side: {**summary(values[side]), "values": values[side]} for side in SIDES}
        pairs = len(values["parent"])
        out[name] = {"unit": runs["change"][0]["metrics"][name]["unit"],
                     "better": direction, **sides, "change_wins": wins, "pairs": pairs,
                     "verdict": verdict(sides["parent"], sides["change"], wins, pairs, sign,
                                        metric["bound"])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--commits", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent, "change": args.change}
    reason = refusal(checkouts)
    if reason is not None:
        print(f"bench_pairs: refusing to start: {reason}", file=sys.stderr)
        return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    report = {"pairs": PAIRS, "seconds": seconds, "seeds": seeds,
              "order": "parent first in even pairs, change first in odd pairs",
              "workloads": {}}
    manifests = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                manifests[side], result = bench(checkouts[side], workload, seed,
                                                seconds, 0)
                runs[side].append(result)
                print(f"{workload} pair {i} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
        traced = {side: bench(checkouts[side], workload, seeds[0], seconds, 1)[1]
                  for side in SIDES}
        end_to_end = compare(runs, spec["end_to_end"])
        for name, m in end_to_end.items():
            print(f"{workload} {name}: {m['verdict']} (median {m['parent']['median']:.6g} "
                  f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}] -> "
                  f"{m['change']['median']:.6g} [{m['change']['q1']:.6g}, "
                  f"{m['change']['q3']:.6g}] {m['unit']}, change better in "
                  f"{m['change_wins']} of {m['pairs']} pairs)", file=sys.stderr)
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
            "end_to_end": end_to_end,
            "traced_per_layer": {side: {name: m["value"] for name, m in
                                        traced[side]["metrics"].items()} for side in SIDES},
        }
    report["manifest"] = manifests
    report["commits"] = dict(zip(SIDES, args.commits or
                                 [manifests[side]["git_commit"] for side in SIDES]))
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
