"""Scenario-file parsing: defaults, dotted-path diagnostics, shipped files."""

import copy
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from platoonsec.config import ConfigError, load_scenario, scenario_from_dict
from platoonsec.control import DEFAULT_ACC_GAINS, DEFAULT_CACC_GAINS
from platoonsec.engine import ScenarioConfig, run_scenario
from platoonsec.game import DEFAULT_GAME, GameSpec
from platoonsec.platoon import PlatoonConfig
from platoonsec.stability import LyapunovCandidate

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def base_scenario() -> dict:
    return {
        "platoon": {"vehicle_count": 4, "desired_gap": 10.0,
                    "vehicle_length": 4.5, "epsilon_max": 4.0},
        "integration": {"step": 0.01, "duration": 5.0},
    }


def with_patch(**sections) -> dict:
    data = copy.deepcopy(base_scenario())
    data.update(sections)
    return data


def error_path(data) -> str:
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(data)
    return err.value.path


# ----------------------------------------------------------------- defaults

def test_minimal_scenario_uses_package_defaults():
    config = scenario_from_dict(base_scenario())
    assert config.cacc_gains == DEFAULT_CACC_GAINS
    assert config.acc_gains == DEFAULT_ACC_GAINS
    assert config.lyapunov is None          # certificate search at run time
    assert config.attack is None
    assert config.game == DEFAULT_GAME
    assert config.switching.enabled and config.switching.scope == "per-vehicle"
    assert config.seed == 0 and config.step == 0.01 and config.duration == 5.0


def test_minimal_scenario_is_the_dataclass_defaults():
    assert scenario_from_dict(base_scenario()) == ScenarioConfig(
        platoon=PlatoonConfig(4, 10.0, 4.5, 4.0), step=0.01, duration=5.0)


def test_full_scenario_round_trip():
    data = with_patch(
        gains={"cacc": {"k1": -1.58, "k2": -2.51}, "acc": {"alpha": -0.25, "beta": -1.0}},
        lyapunov={"p11": 1.0, "p12": 0.154297, "p22": 1.57813},
        attack={"targets": [3], "mode": "message-level",
                "signal": {"kind": "constant", "amplitude": 2.0},
                "xi_max": 2.0, "window": [10.0, 40.0]},
        detector={"p_report_given_attack": 0.8, "p_report_given_benign": 0.2,
                  "sampling_period": 0.05},
        switching={"enabled": True, "scope": "platoon", "decision_period": 0.5,
                   "dwell_enforced": True, "hysteresis_release": 0.4,
                   "initial_mode": "ACC"},
        seed=17,
        gap_offsets=[0.5, -0.5, 0.0],
    )
    config = scenario_from_dict(data)
    assert config.cacc_gains == DEFAULT_CACC_GAINS
    assert config.lyapunov == LyapunovCandidate(1.0, 0.154297, 1.57813)
    assert config.attack.targets == frozenset({3})
    assert config.attack.window == (10.0, 40.0)
    # detector probabilities are the game's chance node, read as decimal literals
    assert config.game.p_report_given_attack == Fraction(4, 5)
    assert config.game.p_report_given_benign == Fraction(1, 5)
    assert config.game.leaf_utilities == DEFAULT_GAME.leaf_utilities
    assert config.sampling_period == 0.05
    assert config.switching.scope == "platoon"
    assert config.switching.initial_mode == "ACC"
    assert config.seed == 17
    assert config.gap_offsets == (0.5, -0.5, 0.0)


def test_explicit_six_gain_form():
    data = with_patch(gains={"cacc": {
        "alpha_pred": -0.79, "beta_pred": -1.255, "gamma_pred": 0.5,
        "alpha_lead": -0.79, "beta_lead": -1.255, "gamma_lead": 0.5,
    }})
    config = scenario_from_dict(data)
    assert config.cacc_gains == DEFAULT_CACC_GAINS


def test_aggregate_gains_with_custom_split():
    data = with_patch(gains={"cacc": {"k1": -2.0, "k2": -3.0, "split": 0.25,
                                      "gamma_pred": 0.7, "gamma_lead": 0.3}})
    g = scenario_from_dict(data).cacc_gains
    assert g.alpha_pred + g.alpha_lead == pytest.approx(-2.0)
    assert g.beta_pred + g.beta_lead == pytest.approx(-3.0)
    assert g.gamma_pred == 0.7 and g.gamma_lead == 0.3


def test_custom_game_utilities():
    leaves = [[-1, -2], [3, -10], [-1, -2], [3, -10],
              [0, -3], [0, 0], [0, -3], [0, 0]]
    config = scenario_from_dict(with_patch(game={"leaf_utilities": leaves}))
    assert config.game == DEFAULT_GAME
    assert config.game.leaf_utilities[1] == (Fraction(3), Fraction(-10))


def test_detector_and_game_sections_make_one_game():
    """The detector's report probabilities and the game's leaf utilities
    build the one game a run samples and solves; the period stays apart."""
    leaves = [[0, -1]] * 8
    config = scenario_from_dict(with_patch(
        game={"leaf_utilities": leaves},
        detector={"p_report_given_benign": 0.05, "sampling_period": 0.2}))
    assert config.game == GameSpec(leaves, Fraction(7, 10), Fraction(1, 20))
    assert config.sampling_period == 0.2


def test_lyapunov_auto_means_search():
    assert scenario_from_dict(with_patch(lyapunov="auto")).lyapunov is None
    assert scenario_from_dict(with_patch(lyapunov=None)).lyapunov is None


def test_leader_pulses_parse():
    data = with_patch(platoon={
        "vehicle_count": 4, "desired_gap": 10.0, "vehicle_length": 4.5,
        "epsilon_max": 4.0,
        "leader": {"initial_velocity": 25.0, "pulses": [[1.0, 2.0, -1.5]]},
    })
    profile = scenario_from_dict(data).platoon.leader_profile
    assert profile.initial_velocity == 25.0
    assert profile.pulses == ((1.0, 2.0, -1.5),)


def test_table_signal_parses():
    data = with_patch(attack={"targets": [2], "signal": {
        "kind": "table", "times": [0.0, 1.0], "values": [0.5, -0.5]}})
    sig = scenario_from_dict(data).attack.signal
    assert sig.kind == "table"
    assert sig.times == (0.0, 1.0) and sig.values == (0.5, -0.5)


# -------------------------------------------------------------- diagnostics

def test_missing_required_sections():
    assert error_path({"integration": {"duration": 1.0}}) == "platoon"
    assert error_path({"platoon": base_scenario()["platoon"]}) == "integration"


def test_unknown_top_level_key():
    assert error_path(with_patch(extra={})) == "extra"


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d["platoon"].update(vehicle_count="four"), "platoon.vehicle_count"),
    (lambda d: d["platoon"].update(vehicle_count=1), "platoon.vehicle_count"),
    (lambda d: d["platoon"].update(desired_gap=0.0), "platoon.desired_gap"),
    (lambda d: d["platoon"].update(epsilon_max=True), "platoon.epsilon_max"),
    (lambda d: d["integration"].update(step=0.0), "integration.step"),
    (lambda d: d["integration"].update(cadence=1), "integration.cadence"),
    (lambda d: d.update(seed=1.5), "seed"),
    # event periods must be whole multiples of the 0.01 s step
    (lambda d: d.update(detector={"sampling_period": 0.015}), "detector.sampling_period"),
    (lambda d: d.update(detector={"sampling_period": 0.005}), "detector.sampling_period"),
    (lambda d: d.update(switching={"decision_period": 0.025}), "switching.decision_period"),
    # and so must the duration: each of these would run to another end
    (lambda d: d["integration"].update(duration=1.005), "integration.duration"),
    (lambda d: d["integration"].update(duration=0.015), "integration.duration"),
    (lambda d: d["integration"].update(duration=0.004), "integration.duration"),
    (lambda d: d["platoon"].update(leader={"pulses": [[2.0, 2.0, -1.0]]}),
     "platoon.leader.pulses[0]"),
    (lambda d: d.update(attack={"window": [-1.0, 5.0]}), "attack.window[0]"),
    (lambda d: d.update(attack={"signal": {"kind": "table", "values": [1.0]}}),
     "attack.signal.times"),
    (lambda d: d.update(gains={"cacc": {"k1": -1.58, "k2": -2.51, "split": 1.5}}),
     "gains.cacc.split"),
    (lambda d: d.update(switching={"hysteresis_release": -0.1}),
     "switching.hysteresis_release"),
    pytest.param(lambda d: d.update(switching={"hysteresis_release": 1.5}),
                 "switching.hysteresis_release", id="<lambda>-hysteresis_release-above-1"),
    (lambda d: d.update(attack={"window": [5.0, 5.0]}), "attack.window"),
    (lambda d: d.update(attack={"targets": "3"}), "attack.targets"),
    (lambda d: d.update(attack={"message_fields": []}), "attack.message_fields"),
    # a period whose count of steps overflows, and a count no array can index
    pytest.param(lambda d: d.update(switching={"decision_period": 1e308}),
                 "switching.decision_period", id="<lambda>-decision_period-overflows"),
    pytest.param(lambda d: d.update(detector={"sampling_period": 1e308}),
                 "detector.sampling_period", id="<lambda>-sampling_period-overflows"),
    pytest.param(lambda d: d["integration"].update(duration=1e308),
                 "integration.duration", id="<lambda>-duration-overflows"),
    pytest.param(lambda d: d["platoon"].update(vehicle_count=10 ** 400),
                 "platoon.vehicle_count", id="<lambda>-vehicle_count-beyond-maxsize"),
])
def test_dotted_paths_name_the_bad_entry(mutate, path):
    data = base_scenario()
    mutate(data)
    assert error_path(data) == path


def test_negative_seed_is_rejected():
    assert error_path(with_patch(seed=-1)) == "seed"


def test_non_table_signal_entries_are_still_checked():
    # only a table signal reads times and values, but a bad one is an error
    assert error_path(with_patch(attack={"signal": {"kind": "constant", "times": "x"}})
                      ) == "attack.signal.times"
    assert error_path(with_patch(attack={"signal": {"values": [1.0, None]}})
                      ) == "attack.signal.values[1]"


def test_periods_that_fit_the_step_are_accepted():
    # 0.3 / 0.1 is 2.9999999999999996 in floating point, yet 0.3 s is 3 steps
    data = with_patch(integration={"step": 0.1, "duration": 5.0},
                      detector={"sampling_period": 0.3},
                      switching={"decision_period": 0.7})
    config = scenario_from_dict(data)
    assert config.sampling_period == 0.3
    assert config.switching.decision_period == 0.7


def test_geometry_contradiction_points_at_platoon():
    data = base_scenario()
    data["platoon"]["epsilon_max"] = 6.0  # >= gap - length: surface unreachable
    assert error_path(data) == "platoon"


def test_attack_paths():
    assert error_path(with_patch(attack={"targets": [1]})) == "attack.targets[0]"
    assert error_path(with_patch(attack={"targets": [9]})) == "attack.targets"
    assert error_path(with_patch(attack={"targets": [3], "window": [5.0]})) == "attack.window"
    assert error_path(with_patch(attack={"targets": [3], "mode": "spoof"})) == "attack.mode"
    assert error_path(
        with_patch(attack={"targets": [3], "message_fields": ["jerk"]})
    ) == "attack.message_fields[0]"
    assert error_path(
        with_patch(attack={"targets": [3], "signal": {"kind": "noise"}})
    ) == "attack.signal.kind"


def test_gain_paths():
    assert error_path(with_patch(gains={"cacc": {"k1": -1.58}})) == "gains.cacc"
    assert error_path(with_patch(gains={"cacc": {"k1": -1.58, "k2": -2.51,
                                                 "alpha_pred": -1.0}})) == "gains.cacc"
    assert error_path(with_patch(gains={"acc": {"alpha": -0.25}})) == "gains.acc.beta"
    # the sign rule (each law's A Hurwitz) is ScenarioConfig's, so a scenario
    # is judged when it is built, in every subcommand, and the rule's error
    # is reported at the gains it names
    assert error_path(with_patch(gains={"acc": {"alpha": 0.25, "beta": -1.0}})) == "gains.acc"
    assert error_path(with_patch(gains={"cacc": {"k1": 1.58, "k2": -2.51}})) == "gains.cacc"


def test_lyapunov_must_be_definite():
    assert error_path(with_patch(lyapunov={"p11": 1.0, "p12": 2.0,
                                           "p22": 1.0})) == "lyapunov"


@pytest.mark.parametrize("entries", [
    {"p11": 1.0, "p12": 1e300, "p22": 1.0},      # p12 ** 2 overflows
    {"p11": 1e170, "p12": 1e160, "p22": 1e170},  # p11 * p22 overflows too
])
def test_lyapunov_overflow_is_an_input_error(entries):
    assert error_path(with_patch(lyapunov=entries)) == "lyapunov"


def test_lyapunov_with_overflowing_determinant_is_rejected_not_misjudged():
    # p12 ** 2 is finite and the matrix looks definite (inf - 1e200 > 0), but
    # the inequality brackets then take the square root of an infinite
    # argument and call every velocity gain inside them, while the
    # scale-equivalent {1, 1e-100, 1} violates k2_below_upper and
    # k4_below_upper
    with pytest.raises(ConfigError, match="p11 \\* p22 overflows") as err:
        scenario_from_dict(with_patch(lyapunov={"p11": 1e200, "p12": 1e100,
                                                "p22": 1e200}))
    assert err.value.path == "lyapunov"
    scaled = scenario_from_dict(with_patch(lyapunov={"p11": 1.0, "p12": 1e-100,
                                                     "p22": 1.0})).lyapunov
    assert scaled.is_positive_definite()


def test_switching_paths():
    assert error_path(with_patch(switching={"scope": "fleet"})) == "switching.scope"
    assert error_path(with_patch(switching={"enabled": "yes"})) == "switching.enabled"
    assert error_path(
        with_patch(switching={"policy_override": [0.5]})
    ) == "switching.policy_override"
    assert error_path(
        with_patch(switching={"policy_override": [0.5, 1.5]})
    ) == "switching.policy_override[1]"


def test_null_policy_override_means_the_game():
    config = scenario_from_dict(with_patch(switching={"policy_override": None}))
    assert config.switching.policy_override is None


def test_game_paths():
    assert error_path(with_patch(game={"leaf_utilities": [[0, 0]] * 7})) == "game.leaf_utilities"
    assert error_path(
        with_patch(game={"leaf_utilities": [[0, 0]] * 7 + [[0]]})
    ) == "game.leaf_utilities[7]"


def test_gap_offsets_validation():
    assert error_path(with_patch(gap_offsets=[0.1, "x", 0.0])) == "gap_offsets[1]"
    assert error_path(with_patch(gap_offsets=[0.1])) == "gap_offsets"


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.update(gap_offsets=[math.inf, 0.0, 0.0]), "gap_offsets[0]"),
    (lambda d: d["integration"].update(duration=math.inf), "integration.duration"),
    (lambda d: d["integration"].update(step=math.nan), "integration.step"),
    (lambda d: d.update(detector={"p_report_given_attack": math.nan}),
     "detector.p_report_given_attack"),
    (lambda d: d.update(game={"leaf_utilities": [[math.nan, 0]] + [[0, 0]] * 7}),
     "game.leaf_utilities[0].0"),
    (lambda d: d.update(attack={"xi_max": math.inf}), "attack.xi_max"),
    (lambda d: d.update(attack={"window": [0.0, -math.inf]}), "attack.window[1]"),
    (lambda d: d["platoon"].update(leader={"pulses": [[1.0, math.nan, -1.0]]}),
     "platoon.leader.pulses[0].1"),
    (lambda d: d["platoon"].update(leader={"initial_velocity": 10 ** 400}),
     "platoon.leader.initial_velocity"),
])
def test_non_finite_numbers_are_rejected_at_their_path(mutate, path):
    data = base_scenario()
    mutate(data)
    assert error_path(data) == path


def test_infinity_ends_an_open_interval():
    data = with_patch(attack={"window": [1.0, math.inf]})
    data["platoon"]["leader"] = {"pulses": [[2.0, math.inf, -0.5]]}
    config = scenario_from_dict(data)
    assert config.attack.window == (1.0, math.inf)
    assert config.platoon.leader_profile.pulses == ((2.0, math.inf, -0.5),)


def test_config_error_is_value_error():
    with pytest.raises(ValueError):
        scenario_from_dict({"platoon": 3})


# -------------------------------------------------------------------- files

def test_json_syntax_error_reports_line_and_column(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "platoon": {,}\n}\n')
    with pytest.raises(ConfigError, match=r"line 2, column 15"):
        load_scenario(bad)


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scenario(tmp_path / "nope.json")


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base_scenario()))
    config = load_scenario(path)
    assert config.platoon.vehicle_count == 4


# ----------------------------------------------------------- shipped files

def test_shipped_crash_pair():
    baseline = load_scenario(CONFIG_DIR / "crash_baseline.json")
    defended = load_scenario(CONFIG_DIR / "crash_defended.json")
    assert not baseline.switching.enabled
    assert defended.switching.enabled
    for config in (baseline, defended):
        assert config.attack.targets == frozenset({3})
        assert config.attack.window == (10.0, 40.0)
        assert config.attack.message_fields == frozenset(
            {"position", "velocity", "acceleration"})
        assert config.platoon.epsilon_max == 4.0


def test_shipped_benign_switching():
    config = load_scenario(CONFIG_DIR / "benign_switching.json")
    assert config.platoon.vehicle_count == 6
    assert config.switching.scope == "platoon"
    assert config.switching.dwell_enforced
    assert config.attack is None
    assert config.lyapunov is not None and config.lyapunov.is_positive_definite()


def test_shipped_game_default():
    config = load_scenario(CONFIG_DIR / "game_default.json")
    assert config.game == DEFAULT_GAME


def test_shipped_configs_run(tmp_path):
    """Every shipped scenario must at least start up and integrate briefly."""
    import dataclasses

    for name in ("crash_baseline.json", "crash_defended.json",
                 "benign_switching.json", "game_default.json"):
        config = load_scenario(CONFIG_DIR / name)
        short = dataclasses.replace(config, duration=2.0)
        run_scenario(short)
