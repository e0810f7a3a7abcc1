"""Command-line interface: subcommands, exit codes, output files.

The tests drive ``main(argv)`` in-process so stdout/stderr and the exit code
can be asserted without spawning interpreters; only the check of what
importing the module loads runs in a fresh one, and one sweep starts a
two-process worker pool.
"""

import concurrent.futures
import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import platoonsec.cli
import platoonsec.engine
import platoonsec.stability
from platoonsec.cli import EXIT_INPUT, EXIT_OK, EXIT_OUTCOME, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CRASH = str(CONFIG_DIR / "crash_baseline.json")
DEFENDED = str(CONFIG_DIR / "crash_defended.json")


def write_config(tmp_path, name="scenario.json", **over):
    data = {
        "platoon": {"vehicle_count": 4, "desired_gap": 10.0,
                    "vehicle_length": 4.5, "epsilon_max": 4.0},
        "integration": {"step": 0.01, "duration": 5.0},
    }
    data.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ------------------------------------------------------------------ simulate

def test_simulate_benign_scenario(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", config, "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "no collision" in stdout
    for name in ("trace.csv", "metrics.json", "spacing.dat", "velocity.dat"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["collision"] is False
    assert metrics["seed"] == 0
    # gnuplot-style data files carry a commented header
    assert (out / "spacing.dat").read_text().startswith("# t eps2 eps3 eps4\n")
    assert (out / "velocity.dat").read_text().startswith("# t v1 v2 v3 v4\n")


def test_simulate_collision_exit_code(tmp_path, capsys):
    code = main(["simulate", "--config", CRASH, "--out", str(tmp_path)])
    assert code == EXIT_OUTCOME
    stdout = capsys.readouterr().out
    assert "collision: follower 3 at t=" in stdout
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["collision"] is True


def test_simulate_defended_scenario_survives(tmp_path, capsys):
    code = main(["simulate", "--config", DEFENDED, "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "no collision" in capsys.readouterr().out


def test_simulate_reruns_are_byte_identical(tmp_path):
    config = write_config(
        tmp_path,
        attack={"targets": [3], "window": [1.0, 4.0]},
    )
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
        digests.append(tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "metrics.json", "spacing.dat", "velocity.dat")))
    assert digests[0] == digests[1]


def test_simulate_tolerance_reaches_the_metrics(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out), "--tol", "0.5"]) == EXIT_OK
    assert json.loads((out / "metrics.json").read_text())["tol"] == 0.5


def test_simulate_seed_override(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    main(["simulate", "--config", config, "--out", str(out), "--seed", "5"])
    assert json.loads((out / "metrics.json").read_text())["seed"] == 5


def test_out_env_variable(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    target = tmp_path / "from-env"
    monkeypatch.setenv("PLATOONSEC_OUT", str(target))
    assert main(["simulate", "--config", config]) == EXIT_OK
    assert (target / "trace.csv").exists()


# --------------------------------------------------------------- bad inputs

def test_missing_config_flag_is_input_error(capsys):
    assert main(["simulate"]) == EXIT_INPUT
    assert "--config" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_json_syntax_error_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"platoon": }')
    assert main(["simulate", "--config", str(bad)]) == EXIT_INPUT
    assert "invalid JSON at line 1" in capsys.readouterr().err


def test_semantic_error_carries_dotted_path(tmp_path, capsys):
    config = write_config(tmp_path, switching={"scope": "galaxy"})
    assert main(["simulate", "--config", config]) == EXIT_INPUT
    assert "switching" in capsys.readouterr().err


@pytest.mark.parametrize("duration", [1.005, 0.015, 0.004])
def test_duration_off_the_step_is_input_error(tmp_path, capsys, duration):
    config = write_config(tmp_path, integration={"step": 0.01, "duration": duration})
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: integration.duration: ")
    assert not (tmp_path / "trace.csv").exists()


def test_non_finite_input_is_input_error(tmp_path, capsys):
    # json writes the float as the literal Infinity, which json also reads back
    config = write_config(tmp_path, gap_offsets=[float("inf"), 0.0, 0.0])
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: gap_offsets[0]: expected a finite")


def test_sign_flipped_gains_are_one_error_line(tmp_path, capsys):
    config = write_config(tmp_path, gains={"acc": {"alpha": 0.25, "beta": -1.0}})
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: gains.acc: ACC gains must be finite, and the sums")
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("argv", [
    ["simulate"], ["stability"], ["string-check", "--mode", "ACC"],
    ["sweep", "--xi-grid", "1", "--eps-grid", "4", "--runs", "1", "--jobs", "1"],
    ["game"], ["string-check", "--mode", "CACC"]])
def test_gains_that_are_not_hurwitz_are_one_error_line_everywhere(tmp_path, capsys, argv):
    """Every subcommand that reads a config rejects CACC (1.58, -2.51) and
    ACC (0.25, -1) the same way, whichever law it reads or none: exit 1 and
    one error line at the gains' path, before any output."""
    for mode, gains in (("cacc", {"k1": 1.58, "k2": -2.51}),
                        ("acc", {"alpha": 0.25, "beta": -1.0})):
        config = write_config(tmp_path, attack={"targets": [3]}, gains={mode: gains})
        assert main([*argv, "--config", config, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: gains.{mode}: {mode.upper()} gains must")
        assert err.count("error:") == 1 and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["stability"], ["game"],
    ["string-check", "--mode", "ACC"], ["string-check", "--mode", "CACC"]])
def test_no_config_reads_the_crash_configs_scenario(capsys, argv):
    """Without --config these subcommands read the default scenario, which
    answers as ``crash_defended.json`` does: same exit code, stdout and
    stderr."""
    runs = []
    for extra in ([], ["--config", DEFENDED]):
        code = main([*argv, *extra])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]


def test_lyapunov_overflow_is_input_error(tmp_path, capsys):
    config = write_config(tmp_path, lyapunov={"p11": 1, "p12": 1e300, "p22": 1})
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: lyapunov: ")


def test_period_overflowing_the_step_count_is_one_error_line(tmp_path, capsys):
    data = json.loads(Path(DEFENDED).read_text())
    data["switching"]["decision_period"] = 1e308
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == EXIT_INPUT
    assert capsys.readouterr().err == ("error: switching.decision_period: 1e+308 spans "
                                       "more steps of 0.01 than a run can index\n")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("step, duration, rows", [(1e-9, 30.0, 30_000_000_001),
                                                   (0.01, 1e9, 100_000_000_001)],
                         ids=["small-step", "long-duration"])
def test_a_run_too_large_to_hold_is_one_error_line(tmp_path, capsys, step, duration, rows):
    """A grid whose rows would pass the bytes a run may hold is rejected when
    the scenario is built, at ``integration.step``, before any of its
    arrays is allocated.  Both grids need over 17 TB, more than any
    machine's memory."""
    config = write_config(tmp_path, integration={"step": step, "duration": duration})
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: integration.step: integrator step {step!r} over "
                            f"{duration!r} s makes {rows} rows, which at 592 bytes a row "
                            f"for 4 vehicles exceed the machine's "
                            f"{platoonsec.engine._RUN_BYTES} bytes of memory\n")
    assert peak < 1 << 20
    assert not (tmp_path / "out").exists()


def test_a_platoon_too_large_to_hold_is_one_error_line(tmp_path, capsys):
    """A 100,000-vehicle platoon over one step: its rows would fit, but one
    mode pattern's closed loop and power-table item grow as the square of
    the count, 3.2 TB here, so the scenario is refused when it is built, at
    ``platoon.vehicle_count``, before any of its arrays is allocated."""
    config = write_config(tmp_path, platoon={"vehicle_count": 100_000, "desired_gap": 10.0,
                                             "vehicle_length": 4.5, "epsilon_max": 4.0},
                          integration={"step": 0.01, "duration": 0.01})
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: platoon.vehicle_count: a platoon of 100000 vehicles needs "
                            "3200000004096 bytes for one mode pattern's closed loop, its step "
                            "map and a power-table item, more than the machine's "
                            f"{platoonsec.engine._RUN_BYTES} bytes of memory\n")
    assert peak < 1 << 20
    assert not (tmp_path / "out").exists()


def _entries(value, path=()):
    """The path of every entry in a parsed JSON value, containers included."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _entries(item, path + (key,))


_SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}
_ENTRIES = [(name, path) for name, data in _SHIPPED.items() for path in _entries(data)]
# nothing here makes a small step or a large count that a run would accept
_POOL = [None, True, False, "x", [], {}, 0, -1, 2, 0.5, 1e308, -1e308, 1e-300, 10 ** 400]
_SUBCOMMANDS = [["stability"], ["game"], ["string-check"], ["simulate"],
                ["sweep", "--xi-grid", "1", "--eps-grid", "2", "--runs", "1", "--jobs", "1"]]


@settings(max_examples=100, deadline=None)
@given(entry=st.sampled_from(_ENTRIES), value=st.sampled_from(_POOL))
@example(entry=("crash_defended.json", ("switching", "decision_period")), value=1e308)
@example(entry=("crash_defended.json", ("platoon", "vehicle_count")), value=10 ** 400)
@example(entry=("benign_switching.json", ("lyapunov", "p22")), value=1e308)  # A'P overflows
def test_every_subcommand_keeps_the_exit_code_contract(entry, value):
    """Any one entry of a shipped config replaced by an odd value: every
    subcommand returns 0, 1 or 2, and says nothing on stderr, or one
    ``error:`` line, and warns nothing."""
    name, path = entry
    data = copy.deepcopy(_SHIPPED[name])
    data["integration"]["duration"] = 2.0  # a short run, unless the entry is it
    parent = functools.reduce(lambda node, key: node[key], path[:-1], data)
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(data))
        for argv in _SUBCOMMANDS:
            err = io.StringIO()
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                warnings.simplefilter("always")
                code = main([*argv, "--config", str(config), "--out", str(Path(tmp) / "out")])
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_OUTCOME), argv
            assert [str(w.message) for w in caught] == [], argv
            lines = err.getvalue().splitlines()
            assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), argv


@pytest.mark.parametrize("extra", [
    ["simulate"], ["stability"], ["game"], ["string-check"],
    ["sweep", "--xi-grid", "1", "--eps-grid", "4", "--runs", "1", "--jobs", "1"]])
def test_negative_seed_is_input_error(tmp_path, capsys, extra):
    argv = [*extra, "--config", DEFENDED, "--out", str(tmp_path), "--seed", "-1"]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", DEFENDED, "--bogus"],
    ["sweep", "--config", DEFENDED, "--eps-grid", "4.0"],
    ["simulate", "--config", DEFENDED, "--seed", "x"],
    ["stability", "--tol", "1e-3"],
    ["game", "-v"],
    [],
    ["simulate", "--config", DEFENDED, "-v"],  # simulate's --verbose is gone
])
def test_usage_errors_are_input_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "usage: platoonsec" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--config", DEFENDED, "--tol"],
    ["game", "--tol"],
    ["sweep", "--config", DEFENDED, "--eps-grid", "4", "--xi-grid", "1"],
    ["sweep", "--config", DEFENDED, "--xi-grid", "1", "--eps-grid"],
    ["string-check", "--den", "1", "1", "--num"],
    ["string-check", "--num", "1", "--den", "1"],
])
def test_non_finite_flag_values_are_input_errors(tmp_path, capsys, argv, value):
    """nan and inf parse as floats; as a tolerance, a grid value or a
    coefficient they are an input error, not a run that ends in a verdict."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_INPUT
    assert f"expected a finite number, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["-1", "-0.001"])
@pytest.mark.parametrize("argv", [["simulate", "--config", DEFENDED], ["game"]],
                         ids=["simulate", "game"])
def test_negative_tolerance_is_input_error(tmp_path, capsys, argv, value):
    """A tolerance below 0 reads every verdict as failed: an input error,
    reported before anything is run or written."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", value, "--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_INPUT
    assert f"expected a tolerance >= 0, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--xi-grid" in capsys.readouterr().out


# ---------------------------------------------------------- domain outcomes

@pytest.mark.parametrize("certificate", [
    # a Hurwitz pair that the certificate search finds no common P for
    {"gains": {"cacc": {"k1": -100.0, "k2": -0.1}, "acc": {"alpha": -0.01, "beta": -20.0}}},
    # a given P that does not certify the default pair
    {"lyapunov": {"p11": 1.0, "p12": 0.0, "p22": 1.0}},
])
@pytest.mark.parametrize("argv", [
    ["stability"],
    ["simulate"],
    ["sweep", "--xi-grid", "1.0", "--eps-grid", "4.0", "--runs", "1", "--jobs", "1"],
])
def test_missing_certificate_is_outcome(tmp_path, capsys, argv, certificate):
    config = write_config(tmp_path, attack={"targets": [3]}, **certificate)
    assert main(argv + ["--config", config, "--out", str(tmp_path)]) == EXIT_OUTCOME
    captured = capsys.readouterr()
    assert "certificate" in captured.out + captured.err


def test_non_finite_state_is_outcome(tmp_path, capsys):
    huge = -1e160
    config = write_config(
        tmp_path,
        gains={"cacc": {name: huge for name in ("alpha_pred", "beta_pred", "gamma_pred",
                                                "alpha_lead", "beta_lead", "gamma_lead")},
               "acc": {"alpha": huge, "beta": huge}},
        switching={"dwell_enforced": False},
        integration={"step": 0.1, "duration": 5.0},
    )
    assert main(["simulate", "--config", config, "--out", str(tmp_path)]) == EXIT_OUTCOME
    err = capsys.readouterr().err
    assert err.startswith("error: integration produced a non-finite state at t=")
    assert err.count("\n") == 1


# ----------------------------------------------------------------- stability

def test_stability_default_gains_certify(capsys):
    assert main(["stability"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "cooperative gains: k1=-1.58 k2=-2.51" in stdout
    assert "radar gains: k3=-0.25 k4=-1" in stdout
    assert "  cooperative: real-pole criterion=False\n" in stdout
    assert "  radar-only: real-pole criterion=True\n" in stdout
    assert "hurwitz" not in stdout  # every config that loads has Hurwitz gains
    assert "certificate P (searched):" in stdout
    assert "verdict: certified" in stdout


def test_stability_with_pinned_certificate(tmp_path, capsys):
    config = write_config(
        tmp_path, lyapunov={"p11": 1.0, "p12": 0.154297, "p22": 1.57813})
    assert main(["stability", "--config", config]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "certificate P (given): p11=1 p12=0.154297 p22=1.57813" in stdout
    assert "residual max eigenvalues: -0.0216706119, -0.00552818003" in stdout
    assert "min dwell at |z|=4:" in stdout


def test_stability_states_a_badly_scaled_certificate_exactly(tmp_path, capsys):
    """P = (1, 0.759, 1e308) is positive definite, and its smaller
    eigenvalue is 1 to double precision (mean - radius would cancel to 0).
    Its residuals overflow, so it certifies nothing."""
    config = write_config(tmp_path, lyapunov={"p11": 1, "p12": 0.759, "p22": 1e308})
    assert main(["stability", "--config", config]) == EXIT_OUTCOME
    stdout = capsys.readouterr().out
    assert "  P eigenvalues: 1, 1e+308\n" in stdout
    assert "  residual max eigenvalues: nan, nan\n" in stdout
    assert stdout.endswith("verdict: not certified\n")


@pytest.mark.parametrize("argv", [["stability"], ["stability", "--config", DEFENDED]])
def test_stability_checks_the_certificate_once(monkeypatch, capsys, argv):
    """The report printed is the one ``resolve_certificate`` made."""
    monkeypatch.setattr(platoonsec.engine, "_CERTIFICATES", platoonsec.engine._Memo(128))
    checks = []
    check = platoonsec.stability.check_common_lyapunov

    def counting(P, A_list):
        checks.append(P)
        return check(P, A_list)

    for module in (platoonsec.engine, platoonsec.cli):
        monkeypatch.setattr(module, "check_common_lyapunov", counting, raising=False)
    assert main(argv) == EXIT_OK
    assert "residual max eigenvalues: " in capsys.readouterr().out
    assert len(checks) == 1


def test_stability_reports_a_kept_failed_search(monkeypatch, tmp_path, capsys):
    """A search that finds nothing is kept like one that finds a P: a second
    ``stability`` command on the same gains searches no more, and says the
    same."""
    monkeypatch.setattr(platoonsec.engine, "_CERTIFICATES", platoonsec.engine._Memo(128))
    searches = []
    search = platoonsec.engine.find_common_lyapunov
    monkeypatch.setattr(platoonsec.engine, "find_common_lyapunov",
                        lambda A_list: searches.append(A_list) or search(A_list))
    # a lightly damped radar loop shares no quadratic certificate with the default CACC
    config = write_config(tmp_path, gains={"acc": {"alpha": -0.25, "beta": -0.05}})
    outputs = []
    for _ in range(2):
        assert main(["stability", "--config", config]) == EXIT_OUTCOME
        outputs.append(capsys.readouterr())
    assert len(searches) == 1
    assert outputs[0] == outputs[1]
    assert outputs[0].out.endswith(
        "no certificate found: no P of the searched region clears the 1e-9 margin\n")


def test_certifiable_gains_certify_and_simulate(tmp_path, capsys):
    """CACC (-0.8464, -4.3215) and ACC (-2.0865, -0.0771) share a
    certificate (A1 A2 has eigenvalues -1.30 +/- 0.28j, A1 A2^-1 has 0.41
    and 1), though few P certify them: the search finds one, so
    ``stability`` certifies and ``simulate`` runs, with no error line."""
    config = write_config(tmp_path, gains={"cacc": {"k1": -0.8464, "k2": -4.3215},
                                           "acc": {"alpha": -2.0865, "beta": -0.0771}})
    assert main(["stability", "--config", config]) == EXIT_OK
    assert capsys.readouterr().out.endswith("verdict: certified\n")
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("no collision") and err == ""


def test_stability_rejects_destabilizing_gains(tmp_path, capsys):
    """Gains that are not Hurwitz are an input error when the scenario is
    built: one error line names the law's entry, and no report line comes
    before it."""
    config = write_config(tmp_path, gains={"acc": {"alpha": 0.25, "beta": -1.0}})
    assert main(["stability", "--config", config]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gains.acc: ACC gains must be finite, and the sums")


# --------------------------------------------------------------------- game

def test_game_default_equilibrium(capsys):
    assert main(["game"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "P(report|attack)=0.7 P(report|benign)=0.1" in stdout
    assert "P(attack) = 9/17 = 0.529411765" in stdout
    assert "P(downgrade | report) = 1 = 1" in stdout
    assert "P(downgrade | no report) = 1/6 = 0.166666667" in stdout
    assert "best-response gaps: attacker 0, defender 0" in stdout
    assert "1 equilibria; worst gap 0" in stdout


def test_game_zero_tolerance_accepts_an_exact_equilibrium(capsys):
    assert main(["game", "--tol", "0"]) == EXIT_OK
    assert "1 equilibria; worst gap 0 (tolerance 0)" in capsys.readouterr().out


def test_game_with_custom_spec(tmp_path, capsys):
    config = write_config(tmp_path, game={"leaf_utilities":
        [[1, -2], [3, -10], [1, -2], [3, -10], [0, -3], [0, 0], [0, -3], [0, 0]]})
    assert main(["game", "--config", config]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "P(attack) = 1 = 1" in stdout  # dominant attack


def test_game_lists_every_extreme_point_of_a_degenerate_game(tmp_path, capsys):
    """A game with payoff ties has sets of equilibria; the command prints each
    set's extreme points, every one tagged and verified."""
    config = write_config(
        tmp_path,
        game={"leaf_utilities": [[1, -1], [3, -1], [2, 0], [5, 1],
                                 [-1, 1], [4, 1], [-5, 1], [-3, -2]]},
        detector={"p_report_given_attack": 0.1, "p_report_given_benign": 0.8})
    assert main(["game", "--config", config]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "7 equilibria; worst gap 0" in stdout
    assert stdout.count("(degenerate: a payoff tie)") == 7
    assert "P(downgrade | report) = 1/38 = " in stdout


# ------------------------------------------------------------- string-check

def test_string_check_radar_law_fails(capsys):
    assert main(["string-check"]) == EXIT_OUTCOME
    stdout = capsys.readouterr().out
    assert "H(s) [ACC spacing-error propagation] = (s + 0.25) / (s^2 + s + 0.25)" in stdout
    assert "peak gain 1.15470054" in stdout
    assert "> 1" in stdout
    assert "impulse response nonnegative: False" in stdout
    assert "verdict: not string stable" in stdout


def test_string_check_fixture_passes(capsys):
    assert main(["string-check", "--num", "1", "--den", "1", "1"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "peak gain 1 at omega=0" in stdout
    assert "verdict: string stable" in stdout


def test_string_check_reports_a_narrow_resonance(capsys):
    """|H(2j)| = 2.204: the peak line says so, though the verdict needs no
    peak, since the impulse response changes sign."""
    assert main(["string-check", "--num", "0.5", "0.00018", "2.00016",
                 "--den", "1", "1.00004", "4.00004", "4"]) == EXIT_OUTCOME
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("  peak gain 2.204160") and lines[1].endswith(" -> > 1")
    assert lines[-1] == "verdict: not string stable"


def test_string_check_constant_fixture_passes(capsys):
    """H = -1 is string stable whether written as -1 / 1 or (-s - 1) / (s + 1)."""
    for argv in (["--num", "-1", "--den", "1"], ["--num", "-1", "-1", "--den", "1", "1"]):
        assert main(["string-check", *argv]) == EXIT_OK
        assert capsys.readouterr().out.endswith("verdict: string stable\n")


def test_string_check_prints_no_zero_coefficient(capsys):
    main(["string-check", "--num", "1", "0", "1", "--den", "1", "2", "1"])
    assert capsys.readouterr().out.startswith(
        "H(s) [fixture] = (s^2 + 1) / (s^2 + 2 s + 1)\n")


def test_string_check_fixture_needs_both_polynomials(capsys):
    assert main(["string-check", "--num", "1"]) == EXIT_INPUT
    assert "--num and --den" in capsys.readouterr().err


def test_string_check_unstable_fixture_is_input_error(capsys):
    assert main(["string-check", "--num", "1", "--den", "1", "-1"]) == EXIT_INPUT
    assert "not Hurwitz" in capsys.readouterr().err


def test_string_check_cacc_leader_coupling_rejected(capsys):
    # the default cooperative law has leader terms: no single-hop relation
    assert main(["string-check", "--mode", "CACC"]) == EXIT_INPUT
    assert "leader" in capsys.readouterr().err


def test_string_check_divergence_is_one_error_line(capsys):
    # the step matrix overflows: one error line, no numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["string-check", "--num", "1e160", "1e160",
                     "--den", "1", "1e160", "1e160"])
    assert code == EXIT_OUTCOME
    assert capsys.readouterr().err == "error: impulse-response integration diverged\n"


# -------------------------------------------------------------------- sweep

def test_sweep_grid(tmp_path, capsys):
    config = write_config(
        tmp_path,
        integration={"step": 0.01, "duration": 30.0},
        attack={"targets": [3], "window": [10.0, 25.0],
                "signal": {"kind": "constant", "amplitude": 2.0}, "xi_max": 2.0},
        switching={"enabled": False},
    )
    out = tmp_path / "sweep-out"
    code = main(["sweep", "--config", config, "--out", str(out),
                 "--xi-grid", "0.1", "2.0", "--eps-grid", "4.0",
                 "--runs", "2", "--jobs", "1"])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "xi_max,epsilon_max,runs,collisions,collision_rate"
    cells = {tuple(line.split(",")[:2]): line.split(",")[3:] for line in lines[1:]}
    assert cells[("0.1", "4.0")] == ["0", "0.0"]   # weak attack never collides
    assert cells[("2.0", "4.0")] == ["2", "1.0"]   # forged +2 always collides
    assert "wrote" in capsys.readouterr().out


def test_sweep_pool_writes_what_one_process_writes(tmp_path):
    """Two worker processes write the same sweep.csv bytes as one."""
    data = json.loads(Path(DEFENDED).read_text())
    data["integration"]["duration"] = 20.0
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(data))
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs-{jobs}"
        assert main(["sweep", "--config", str(config), "--out", str(out),
                     "--xi-grid", "1", "4", "--eps-grid", "2", "4", "--runs", "2",
                     "--jobs", jobs]) == EXIT_OK
        written.append((out / "sweep.csv").read_bytes())
    assert written[0] == written[1]
    assert len(written[0].splitlines()) == 5


def test_sweep_default_workers_count_the_cpus_it_may_use(tmp_path, monkeypatch):
    """Without --jobs a sweep sizes its pool by the CPUs its process may run
    on, not by the host's count: on one allowed CPU of 64, no pool starts."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(platoonsec.cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(platoonsec.cli.os, "cpu_count", lambda: 64)
    config = write_config(tmp_path, integration={"step": 0.1, "duration": 2.0},
                          attack={"targets": [3]}, switching={"enabled": False})
    out = tmp_path / "sweep-out"
    assert main(["sweep", "--config", config, "--out", str(out), "--xi-grid", "1.0", "2.0",
                 "--eps-grid", "4.0", "--runs", "1"]) == EXIT_OK
    assert len((out / "sweep.csv").read_text().splitlines()) == 3


def test_importing_the_cli_starts_no_process_pool_machinery():
    """Only ``sweep`` runs a worker pool, so it alone imports one: importing
    the command line leaves ``concurrent.futures.process`` unloaded."""
    src = str(Path(platoonsec.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, platoonsec.cli; "
                               "print('concurrent.futures.process' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def test_sweep_requires_attack(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["sweep", "--config", config, "--xi-grid", "1.0",
                 "--eps-grid", "4.0", "--runs", "1", "--jobs", "1"])
    assert code == EXIT_INPUT
    assert "attack" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--runs", "-2"),
                                         ("--jobs", "0"), ("--jobs", "-1")])
def test_sweep_rejects_counts_below_one(tmp_path, capsys, flag, value):
    """A sweep needs at least one run a cell and one worker: anything less
    is an input error on one line, before any cell runs or file is written."""
    config = write_config(tmp_path, attack={"targets": [3]})
    out = tmp_path / "sweep-out"
    argv = ["sweep", "--config", config, "--out", str(out), "--xi-grid", "1.0",
            "--eps-grid", "4.0", "--runs", "1", "--jobs", "1"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be at least 1, got {value}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("flag, value, message", [
    ("--eps-grid", "9.0", "epsilon_max must lie in (0, desired_gap - vehicle_length) so a "
                          "triggered safety surface still precedes physical contact"),
    ("--eps-grid", "0", "epsilon_max must lie in (0, desired_gap - vehicle_length) so a "
                        "triggered safety surface still precedes physical contact"),
    ("--xi-grid", "-1", "xi_max must be nonnegative"),
])
def test_sweep_grid_value_errors_name_their_flag(tmp_path, capsys, monkeypatch, jobs,
                                                 flag, value, message):
    """A grid value the scenario rejects is an input error on one line that
    names its flag and the value, raised in the command, before any cell
    runs or file is written, whatever the worker count."""
    def no_run(config):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(platoonsec.cli, "run_scenario", no_run)
    config = write_config(tmp_path, attack={"targets": [3]})
    out = tmp_path / "sweep-out"
    grids = {"--xi-grid": ["1.0"], "--eps-grid": ["2.0", "4.0"]}
    grids[flag].append(value)
    argv = ["sweep", "--config", config, "--out", str(out), "--runs", "1", "--jobs", jobs]
    for name, values in grids.items():
        argv += [name, *values]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} {float(value)!r}: {message}\n"
    assert captured.out == ""
    assert not out.exists()
