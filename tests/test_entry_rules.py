"""Each rule on a scenario value lives in the dataclass that holds the value.

A scenario file and an API caller given the same numbers get the same
verdict, and an entry the dataclass rejects is named at the same path both
ways: the file's dotted path is the section's path joined to the entry the
dataclass names.
"""

import math
import sys

import numpy as np
import pytest

from platoonsec.config import ConfigError, scenario_from_dict
from platoonsec.control import AccGains, CaccGains
from platoonsec.engine import ScenarioConfig, SwitchingConfig
from platoonsec.platoon import LeaderProfile, PlatoonConfig
from platoonsec.threat import AttackSignal, AttackSpec


def base_scenario() -> dict:
    return {
        "platoon": {"vehicle_count": 4, "desired_gap": 10.0,
                    "vehicle_length": 4.5, "epsilon_max": 4.0},
        "integration": {"step": 0.01, "duration": 5.0},
    }


# the six inputs on which the file's rule and the dataclass's once differed,
# then the rules that the file once reported at their section alone
@pytest.mark.parametrize("mutate, make, section, entry", [
    pytest.param(lambda d: d.update(attack={"window": [-1.0, 5.0]}),
                 lambda: AttackSpec(window=(-1.0, 5.0)), "attack", "window[0]",
                 id="window-opens-before-zero"),
    pytest.param(lambda d: d["platoon"].update(leader={"pulses": [[-1.0, 2.0, -1.0]]}),
                 lambda: LeaderProfile(pulses=((-1.0, 2.0, -1.0),)), "platoon.leader",
                 "pulses[0].0", id="pulse-starts-before-zero"),
    pytest.param(lambda d: d.update(attack={"targets": []}),
                 lambda: AttackSpec(targets=()), "attack", "targets", id="no-targets"),
    pytest.param(lambda d: d.update(attack={"message_fields": []}),
                 lambda: AttackSpec(message_fields=()), "attack", "message_fields",
                 id="no-message-fields"),
    pytest.param(lambda d: d["platoon"].update(vehicle_count=sys.maxsize + 1),
                 lambda: PlatoonConfig(sys.maxsize + 1, 10.0, 4.5, 4.0), "platoon",
                 "vehicle_count", id="vehicle-count-beyond-maxsize"),
    pytest.param(lambda d: d.update(attack={"xi_max": 0}),
                 lambda: AttackSpec(xi_max=0), "attack", None, id="xi_max-zero-loads"),
    pytest.param(lambda d: d.update(switching={"scope": "fleet"}),
                 lambda: SwitchingConfig(scope="fleet"), "switching", "scope", id="scope"),
    pytest.param(lambda d: d.update(switching={"initial_mode": "manual"}),
                 lambda: SwitchingConfig(initial_mode="manual"), "switching", "initial_mode",
                 id="initial-mode"),
    pytest.param(lambda d: d.update(attack={"mode": "spoof"}),
                 lambda: AttackSpec(mode="spoof"), "attack", "mode", id="attack-mode"),
    pytest.param(lambda d: d.update(attack={"signal": {"kind": "table", "times": [],
                                                       "values": []}}),
                 lambda: AttackSignal(kind="table"), "attack.signal", "times",
                 id="table-without-times"),
    pytest.param(lambda d: d.update(attack={"signal": {"kind": "table", "times": [2.0, 1.0],
                                                       "values": [0.0, 0.0]}}),
                 lambda: AttackSignal(kind="table", times=(2.0, 1.0), values=(0.0, 0.0)),
                 "attack.signal", "times", id="table-times-unsorted"),
    pytest.param(lambda d: d.update(attack={"signal": {"kind": "table", "times": [1.0],
                                                       "values": []}}),
                 lambda: AttackSignal(kind="table", times=(1.0,)), "attack.signal", "values",
                 id="table-values-short"),
    pytest.param(lambda d: d.update(attack={"signal": {"kind": "table", "values": [1.0]}}),
                 lambda: AttackSignal(kind="table", values=(1.0,)), "attack.signal", "times",
                 id="table-without-times-key"),
    pytest.param(lambda d: d.update(attack={"signal": {"kind": "table", "times": [1.0]}}),
                 lambda: AttackSignal(kind="table", times=(1.0,)), "attack.signal", "values",
                 id="table-without-values-key"),
])
def test_file_and_dataclass_give_one_verdict(mutate, make, section, entry):
    data = base_scenario()
    mutate(data)
    if entry is None:
        assert scenario_from_dict(data).attack == make()
        return
    with pytest.raises(ConfigError) as from_file:
        scenario_from_dict(data)
    with pytest.raises(ValueError) as from_api:
        make()
    assert from_api.value.path == entry
    assert str(from_file.value) == f"{section}.{entry}: {from_api.value}"


@pytest.mark.parametrize("make, entry", [
    (lambda nan: AttackSpec(xi_max=nan), "xi_max"),
    # a clamp at inf bounds nothing; a file's Infinity is rejected as attack.xi_max
    pytest.param(lambda nan: AttackSpec(xi_max=math.inf), "xi_max", id="xi_max-inf"),
    (lambda nan: AttackSpec(window=(nan, 5.0)), "window[0]"),
    (lambda nan: AttackSpec(window=(0.0, nan)), "window"),
    (lambda nan: AttackSpec(targets=(3, nan)), "targets[1]"),
    (lambda nan: LeaderProfile(pulses=((nan, 2.0, -1.0),)), "pulses[0].0"),
    (lambda nan: LeaderProfile(pulses=((1.0, nan, -1.0),)), "pulses[0]"),
    (lambda nan: PlatoonConfig(nan, 10.0, 4.5, 4.0), "vehicle_count"),
    (lambda nan: PlatoonConfig(4, nan, 4.5, 4.0), "desired_gap"),
    (lambda nan: PlatoonConfig(4, 10.0, nan, 4.0), "vehicle_length"),
    pytest.param(lambda nan: PlatoonConfig(4, math.inf, 4.5, 4.0), "desired_gap",
                 id="desired_gap-inf"),
    pytest.param(lambda nan: PlatoonConfig(4, 10.0, math.inf, 4.0), "vehicle_length",
                 id="vehicle_length-inf"),
    (lambda nan: PlatoonConfig(4, 10.0, 4.5, nan), "epsilon_max"),
    (lambda nan: CaccGains.from_aggregate(-1.58, -2.51, split=nan), "split"),
    (lambda nan: SwitchingConfig(hysteresis_release=nan), "hysteresis_release"),
    (lambda nan: SwitchingConfig(policy_override=(0.5, nan)), "policy_override[1]"),
    (lambda nan: ScenarioConfig(PlatoonConfig(4, 10.0, 4.5, 4.0), sampling_period=nan),
     "sampling_period"),
    (lambda nan: AttackSignal(amplitude=nan), "amplitude"),
    (lambda nan: AttackSignal(kind="ramp", rate=nan), "rate"),
    (lambda nan: AttackSignal(kind="sinusoid", frequency=nan), "frequency"),
    (lambda nan: AttackSignal(kind="sinusoid", phase=nan), "phase"),
    (lambda nan: AttackSignal(amplitude=-math.inf), "amplitude"),
    (lambda nan: AttackSignal(kind="table", times=(0.0, nan), values=(1.0, 2.0)), "times[1]"),
    (lambda nan: AttackSignal(kind="table", times=(0.0,), values=(nan,)), "values[0]"),
    (lambda nan: LeaderProfile(initial_velocity=nan), "initial_velocity"),
    (lambda nan: LeaderProfile(pulses=((1.0, 2.0, nan),)), "pulses[0].2"),
    (lambda nan: ScenarioConfig(PlatoonConfig(4, 10.0, 4.5, 4.0), gap_offsets=(0.0, nan, 0.0)),
     "gap_offsets[1]"),
])
def test_nan_fails_every_rule_and_is_named(make, entry):
    """A NaN passes a ``< 0`` test; every rule on a value rejects it when the
    dataclass is built, naming the entry, not later as a non-finite state."""
    with pytest.raises(ValueError) as err:
        make(math.nan)
    assert err.value.path == entry


def test_xi_max_nan_is_rejected_when_built():
    with pytest.raises(ValueError, match="^xi_max must be nonnegative$"):
        AttackSpec(xi_max=math.nan)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
def test_seed_must_be_an_integer(seed):
    """numpy's generators take only an integer seed; any other is rejected
    when the config is built, as ``seed``."""
    with pytest.raises(ValueError, match="^seed must be an integer") as err:
        ScenarioConfig(PlatoonConfig(4, 10.0, 4.5, 4.0), seed=seed)
    assert err.value.path == "seed"


def test_attack_sets_may_be_given_as_one_pass_iterables():
    """Each item is judged and kept from one pass over what the caller gave."""
    spec = AttackSpec(targets=(i for i in [3, 4]), message_fields=iter(["velocity"]))
    assert spec.targets == {3, 4} and spec.message_fields == {"velocity"}
    with pytest.raises(ValueError) as err:
        AttackSpec(targets=(i for i in [3, 1]))
    assert err.value.path == "targets[1]"


@pytest.mark.parametrize("gains, make, entry, path", [
    ({"cacc": {"k1": 1.58, "k2": -2.51}}, lambda: CaccGains.from_aggregate(1.58, -2.51),
     "cacc_gains", "gains.cacc"),
    ({"acc": {"alpha": 0.25, "beta": -1.0}}, lambda: AccGains(0.25, -1.0),
     "acc_gains", "gains.acc"),
])
def test_gains_that_are_not_hurwitz_get_one_verdict(gains, make, entry, path):
    """The scenario judges its gains when it is built, from a file or not;
    the file names the entry at its own path."""
    data = base_scenario()
    data["gains"] = gains
    with pytest.raises(ConfigError) as from_file:
        scenario_from_dict(data)
    with pytest.raises(ValueError) as from_api:
        ScenarioConfig(PlatoonConfig(4, 10.0, 4.5, 4.0), **{entry: make()})
    assert from_api.value.path == entry
    assert str(from_file.value) == f"{path}: {from_api.value}"


@pytest.mark.parametrize("override", [(), (0.1,), (0.1, 0.2, 0.3), 0.5, 1])
def test_policy_override_is_a_pair(override):
    with pytest.raises(ValueError, match="^policy_override is a pair") as err:
        SwitchingConfig(policy_override=override)
    assert err.value.path == "policy_override"


@pytest.mark.parametrize("override, path", [
    (("a", 1), "policy_override[0]"), ("ab", "policy_override[0]"),
    ((0.5, None), "policy_override[1]"), ((0.5, [0.5]), "policy_override[1]")])
def test_policy_override_entries_are_numbers(override, path):
    """An entry that is no number is the entry's error, as a number out of
    [0, 1] is, not a ``TypeError`` from comparing it."""
    with pytest.raises(ValueError, match="^policy_override entries must be probabilities$") as err:
        SwitchingConfig(policy_override=override)
    assert err.value.path == path


@pytest.mark.parametrize("P", [
    np.array([[1.0, 0.759], [0.759, 1.2]]), [[1.0, 0.759], [0.759, 1.2]], (1.0, 0.759, 1.2)])
def test_lyapunov_is_a_candidate(P):
    """A given P is a ``LyapunovCandidate``: an array or a list names the
    entry, since the run keeps its certificate by P's repr, which would
    round an array's entries."""
    with pytest.raises(ValueError, match="^lyapunov is a LyapunovCandidate or None, got ") as err:
        ScenarioConfig(platoon=PlatoonConfig(4, 10.0, 4.5, 4.0), lyapunov=P)
    assert err.value.path == "lyapunov"
