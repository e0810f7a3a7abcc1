"""The experiment scripts that README documents run end to end.

Each runs in its own process, as a user runs it, with the package on its
path; a test checks the exit code and the lines the script prints.  The rule
that ``bench_pairs.py`` gives each ``BENCH_*.json`` verdict by, and the
environment it runs each side in, are tested in-process, on hand-made runs.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                            cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_dwell_study_runs(tmp_path):
    # arm B pins the policy to radar-only, which amplifies the pulse down the chain
    lines = _run("dwell_study.py", "--runs", "2", cwd=tmp_path)
    assert "  sup-norm ordering holds: False" in lines


def test_output_digest_runs(tmp_path):
    # the digests hold per machine (BLAS rounding), so only their form is checked
    lines = _run("output_digest.py", cwd=tmp_path)
    names = ("listing", "trace", "varying", "events", "odd events", "cli")
    assert [line.rsplit(" ", 1)[0] for line in lines[-6:]] == [f"{n} sha256" for n in names]
    assert all(re.fullmatch("[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in lines[-6:])


# ----------------------------------------------- bench_pairs' verdict rule

def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _bench_pairs()


def _compared(parent, change, better="lower", bound=0.25):
    """``compare`` on one metric whose runs take the values given, pair by pair."""
    runs = {side: [{"metrics": {"m": {"value": v, "unit": "s"}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    return bench_pairs.compare(runs, [{"name": "m", "better": better, "bound": bound}])["m"]


def test_bench_pairs_gain_needs_nine_of_ten_wins():
    gain = _compared([1.0] * 10, [0.9] * 9 + [1.1])
    assert (gain["change_wins"], gain["pairs"], gain["verdict"]) == (9, 10, "gain")
    eight = _compared([1.0] * 10, [0.9] * 8 + [1.1] * 2)
    assert (eight["change_wins"], eight["verdict"]) == (8, "unresolved")


def test_bench_pairs_gain_needs_a_lead_past_the_parents_iqr():
    parent = [1.0, 1.2] * 5  # quartiles 1.0 and 1.2
    assert _compared(parent, [v - 0.15 for v in parent])["verdict"] == "unresolved"
    assert _compared(parent, [v - 0.25 for v in parent])["verdict"] == "gain"


def test_bench_pairs_ties_count_for_neither_side():
    ties = _compared([1.0] * 10, [1.0] * 10)
    assert (ties["change_wins"], ties["verdict"]) == (0, "unresolved")
    # the tied pair is no win: nine wins need nine strictly better pairs
    assert _compared([1.0] * 10, [0.9] * 9 + [1.0])["change_wins"] == 9
    assert _compared([1.0] * 10, [0.9] * 8 + [1.0] * 2)["verdict"] == "unresolved"


def test_bench_pairs_worse_past_the_bound():
    assert _compared([1.0] * 10, [1.3] * 10)["verdict"] == "worse"
    assert _compared([1.0] * 10, [1.2] * 10)["verdict"] == "unresolved"
    assert _compared([1.0] * 10, [1.2] * 10, bound=0.1)["verdict"] == "worse"


def test_bench_pairs_higher_is_better():
    gain = _compared([10.0] * 10, [11.0] * 9 + [9.0], better="higher")
    assert (gain["change_wins"], gain["verdict"]) == (9, "gain")
    lower = _compared([10.0] * 10, [9.0] * 10, better="higher")
    assert (lower["change_wins"], lower["verdict"]) == (0, "unresolved")
    assert _compared([10.0] * 10, [7.0] * 10, better="higher")["verdict"] == "worse"


def test_bench_pairs_verdict_rule():
    parent = {"median": 1.0, "q1": 0.9, "q3": 1.1}
    better = {"median": 0.75, "q1": 0.7, "q3": 0.8}
    assert bench_pairs.verdict(parent, better, 9, 10, 1, 0.25) == "gain"
    assert bench_pairs.verdict(parent, better, 8, 10, 1, 0.25) == "unresolved"
    # the same medians where higher is better: the change is 25% worse
    assert bench_pairs.verdict(parent, better, 10, 10, -1, 0.3) == "unresolved"
    assert bench_pairs.verdict(parent, better, 10, 10, -1, 0.2) == "worse"


def _checkouts(tmp_path, change="change"):
    """Two checkouts for ``bench_pairs.main``; the change's holds the spec."""
    checkouts = {"parent": tmp_path / "parent", "change": tmp_path / change}
    for checkout in checkouts.values():
        checkout.mkdir(parents=True)
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    return checkouts


def _main(checkouts, tmp_path):
    return bench_pairs.main(["--parent", str(checkouts["parent"]),
                             "--change", str(checkouts["change"]),
                             "--out", str(tmp_path / "bench.json")])


def test_bench_pairs_runs_both_sides_without_bytecode_caches(tmp_path, monkeypatch):
    """Each run writes no bytecode and has no cache prefix, not even one set
    in the caller's environment, so it reads the installed packages' caches."""
    checkouts = _checkouts(tmp_path)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))
    seen = {side: [] for side in bench_pairs.SIDES}

    def fake_run(argv, cwd, **kwargs):
        env = kwargs["env"]
        seen[Path(cwd).name].append((env["PYTHONDONTWRITEBYTECODE"],
                                     env.get("PYTHONPYCACHEPREFIX")))
        result = {"correct": True, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        return subprocess.CompletedProcess(argv, 0, stdout="manifest {\"git_commit\": null}\n"
                                                           + json.dumps(result) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert _main(checkouts, tmp_path) == 0
    assert len(seen["parent"]) == len(seen["change"]) == bench_pairs.PAIRS + 1
    assert set(seen["parent"] + seen["change"]) == {("1", None)}


def _refused(checkouts, tmp_path, monkeypatch, capsys):
    """The one stderr line of a refused start; no run was made."""
    monkeypatch.setattr(bench_pairs.subprocess, "run", None)
    assert _main(checkouts, tmp_path) == 2
    assert not (tmp_path / "bench.json").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bench_pairs: refusing to start: ")
    return err


def test_bench_pairs_refuses_a_checkout_with_bytecode(tmp_path, monkeypatch, capsys):
    """A ``__pycache__`` in either checkout would let one side read compiled
    modules the other compiles; the refusal names it."""
    for side in bench_pairs.SIDES:
        checkouts = _checkouts(tmp_path / side)
        cache = checkouts[side] / "src" / "platoonsec" / "__pycache__"
        cache.mkdir(parents=True)
        assert str(cache.resolve()) in _refused(checkouts, tmp_path, monkeypatch, capsys)


def test_bench_pairs_refuses_checkout_paths_of_unequal_length(tmp_path, monkeypatch, capsys):
    err = _refused(_checkouts(tmp_path, change="changed"), tmp_path, monkeypatch, capsys)
    assert "differ in length" in err and ".../parent and .../change" in err
