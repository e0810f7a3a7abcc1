"""The experiment scripts that README documents run end to end.

Each runs in its own process, as a user runs it, with the package on its
path; a test checks the exit code and one line the script prints.
"""

import os
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


def test_crash_pair_runs(tmp_path):
    lines = _run("run_crash_pair.py", "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert any(line.startswith("crash_baseline: COLLISION at t=12.71 s") for line in lines)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "crash_baseline.csv", "crash_defended.csv"]
