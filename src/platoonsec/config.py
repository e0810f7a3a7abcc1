"""Scenario files: JSON in, validated ScenarioConfig out.

A scenario file is a single JSON object.  Required sections are ``platoon``
and ``integration``; everything else falls back to the package defaults
(certified gains, the default detector and game, per-vehicle switching).
Validation errors carry the dotted path of the offending entry so a typo in
a large sweep file is findable without bisecting it.
"""

from __future__ import annotations

import json

from .control import AccGains, CaccGains, DEFAULT_ACC_GAINS, DEFAULT_CACC_GAINS
from .engine import ScenarioConfig, SwitchingConfig, _steps_per_period
from .game import DEFAULT_GAME
from .platoon import LeaderProfile, PlatoonConfig
from .stability import LyapunovCandidate
from .threat import (AttackSignal, AttackSpec, DetectorModel, MESSAGE_FIELDS)

__all__ = ["ConfigError", "load_scenario", "scenario_from_dict"]


class ConfigError(ValueError):
    """Invalid scenario input; ``path`` names the offending JSON entry."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _get(obj: dict, path: str, key: str, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise ConfigError(_join(path, key), "missing required entry")
        return default
    return obj[key]


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _number(value, path: str, minimum=None, maximum=None,
            exclusive_min=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    v = float(value)
    if minimum is not None and (v <= minimum if exclusive_min else v < minimum):
        cmp = ">" if exclusive_min else ">="
        raise ConfigError(path, f"expected a value {cmp} {minimum}, got {value!r}")
    if maximum is not None and v > maximum:
        raise ConfigError(path, f"expected a value <= {maximum}, got {value!r}")
    return v


def _integer(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"expected an integer >= {minimum}, got {value!r}")
    return value


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, path: str, allowed) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(_join(path, unknown[0]), "unknown entry")


def _leader(obj, path: str) -> LeaderProfile:
    obj = _mapping(obj, path)
    _check_keys(obj, path, ("initial_velocity", "pulses"))
    v0 = _number(_get(obj, path, "initial_velocity", 20.0), _join(path, "initial_velocity"))
    raw = _get(obj, path, "pulses", [])
    if not isinstance(raw, list):
        raise ConfigError(_join(path, "pulses"), "expected a list of [start, end, accel]")
    pulses = []
    for idx, item in enumerate(raw):
        p = _join(path, f"pulses[{idx}]")
        if not isinstance(item, list) or len(item) != 3:
            raise ConfigError(p, "expected [start, end, accel]")
        start = _number(item[0], _join(p, 0), minimum=0.0)
        end = _number(item[1], _join(p, 1))
        if end <= start:
            raise ConfigError(p, f"pulse must end after it starts, got {item!r}")
        pulses.append((start, end, _number(item[2], _join(p, 2))))
    return LeaderProfile(initial_velocity=v0, pulses=tuple(pulses))


def _platoon(obj, path: str) -> PlatoonConfig:
    obj = _mapping(obj, path)
    _check_keys(obj, path, ("vehicle_count", "desired_gap", "vehicle_length",
                            "epsilon_max", "leader"))
    try:
        return PlatoonConfig(
            vehicle_count=_integer(_get(obj, path, "vehicle_count", required=True),
                                   _join(path, "vehicle_count"), minimum=2),
            desired_gap=_number(_get(obj, path, "desired_gap", required=True),
                                _join(path, "desired_gap"), minimum=0.0, exclusive_min=True),
            vehicle_length=_number(_get(obj, path, "vehicle_length", required=True),
                                   _join(path, "vehicle_length"), minimum=0.0,
                                   exclusive_min=True),
            epsilon_max=_number(_get(obj, path, "epsilon_max", required=True),
                                _join(path, "epsilon_max"), minimum=0.0, exclusive_min=True),
            leader_profile=_leader(_get(obj, path, "leader", {}), _join(path, "leader")),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _cacc_gains(obj, path: str) -> CaccGains:
    obj = _mapping(obj, path)
    aggregate = {"k1", "k2", "split", "gamma_pred", "gamma_lead"}
    explicit = {"alpha_pred", "beta_pred", "gamma_pred", "alpha_lead",
                "beta_lead", "gamma_lead"}
    keys = set(obj)
    try:
        if keys <= aggregate and {"k1", "k2"} <= keys:
            return CaccGains.from_aggregate(
                k1=_number(obj["k1"], _join(path, "k1")),
                k2=_number(obj["k2"], _join(path, "k2")),
                split=_number(_get(obj, path, "split", 0.5), _join(path, "split"),
                              minimum=0.0, maximum=1.0),
                gamma_pred=_number(_get(obj, path, "gamma_pred", 0.5),
                                   _join(path, "gamma_pred")),
                gamma_lead=_number(_get(obj, path, "gamma_lead", 0.5),
                                   _join(path, "gamma_lead")),
            )
        if keys == explicit:
            return CaccGains(**{k: _number(obj[k], _join(path, k)) for k in explicit})
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, "use either {k1, k2[, split, gamma_pred, gamma_lead]} "
                            "or all six explicit per-neighbor gains")


def _acc_gains(obj, path: str) -> AccGains:
    obj = _mapping(obj, path)
    _check_keys(obj, path, ("alpha", "beta"))
    try:
        return AccGains(alpha=_number(_get(obj, path, "alpha", required=True),
                                      _join(path, "alpha")),
                        beta=_number(_get(obj, path, "beta", required=True),
                                     _join(path, "beta")))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _lyapunov(obj, path: str):
    if obj == "auto" or obj is None:
        return None
    obj = _mapping(obj, path)
    _check_keys(obj, path, ("p11", "p12", "p22"))
    cand = LyapunovCandidate(
        p11=_number(_get(obj, path, "p11", required=True), _join(path, "p11")),
        p12=_number(_get(obj, path, "p12", required=True), _join(path, "p12")),
        p22=_number(_get(obj, path, "p22", required=True), _join(path, "p22")),
    )
    if not cand.is_positive_definite():
        raise ConfigError(path, "matrix is not positive definite")
    return cand


def _signal(obj, path: str) -> AttackSignal:
    obj = _mapping(obj, path)
    _check_keys(obj, path, ("kind", "amplitude", "rate", "frequency", "phase",
                            "times", "values"))
    kind = _get(obj, path, "kind", "constant")
    if kind not in ("constant", "ramp", "sinusoid", "table"):
        raise ConfigError(_join(path, "kind"), f"unknown signal kind {kind!r}")
    kwargs = {"kind": kind}
    for name in ("amplitude", "rate", "frequency", "phase"):
        if name in obj:
            kwargs[name] = _number(obj[name], _join(path, name))
    if kind == "table":
        times = _get(obj, path, "times", required=True)
        values = _get(obj, path, "values", required=True)
        if (not isinstance(times, list) or not isinstance(values, list)
                or len(times) != len(values) or not times):
            raise ConfigError(path, "table signals need equal-length, non-empty "
                                    "'times' and 'values' lists")
        kwargs["times"] = tuple(_number(x, _join(path, f"times[{i}]"))
                                for i, x in enumerate(times))
        kwargs["values"] = tuple(_number(x, _join(path, f"values[{i}]"))
                                 for i, x in enumerate(values))
    try:
        return AttackSignal(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _attack(obj, path: str, vehicle_count: int):
    if obj is None:
        return None
    obj = _mapping(obj, path)
    _check_keys(obj, path, ("targets", "mode", "signal", "xi_max", "window",
                            "message_fields"))
    raw_targets = _get(obj, path, "targets", [3])
    if not isinstance(raw_targets, list) or not raw_targets:
        raise ConfigError(_join(path, "targets"), "expected a non-empty list of "
                                                  "follower indices")
    targets = frozenset(_integer(x, _join(path, f"targets[{i}]"), minimum=2)
                        for i, x in enumerate(raw_targets))
    for x in sorted(targets):
        if x > vehicle_count:
            raise ConfigError(_join(path, "targets"),
                              f"vehicle {x} is outside the platoon (N={vehicle_count})")
    mode = _get(obj, path, "mode", "message-level")
    window = _get(obj, path, "window", [0.0, float("inf")])
    if not isinstance(window, list) or len(window) != 2:
        raise ConfigError(_join(path, "window"), "expected [start, end]")
    fields = _get(obj, path, "message_fields", list(MESSAGE_FIELDS))
    if not isinstance(fields, list) or not fields:
        raise ConfigError(_join(path, "message_fields"), "expected a non-empty list")
    for i, f in enumerate(fields):
        if f not in MESSAGE_FIELDS:
            raise ConfigError(_join(path, f"message_fields[{i}]"),
                              f"unknown field {f!r}; valid: {', '.join(MESSAGE_FIELDS)}")
    try:
        return AttackSpec(
            targets=targets,
            mode=mode,
            signal=_signal(_get(obj, path, "signal", {}), _join(path, "signal")),
            xi_max=_number(_get(obj, path, "xi_max", 2.0), _join(path, "xi_max"),
                           minimum=0.0, exclusive_min=True),
            window=(_number(window[0], _join(path, "window[0]"), minimum=0.0),
                    _number(window[1], _join(path, "window[1]"))),
            message_fields=frozenset(fields),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _detector(obj, path: str) -> DetectorModel:
    obj = _mapping(obj, path)
    _check_keys(obj, path, ("p_report_given_attack", "p_report_given_benign",
                            "sampling_period"))
    return DetectorModel(
        p_report_given_attack=_number(
            _get(obj, path, "p_report_given_attack", 0.7),
            _join(path, "p_report_given_attack"), minimum=0.0, maximum=1.0),
        p_report_given_benign=_number(
            _get(obj, path, "p_report_given_benign", 0.1),
            _join(path, "p_report_given_benign"), minimum=0.0, maximum=1.0),
        sampling_period=_number(_get(obj, path, "sampling_period", 0.1),
                                _join(path, "sampling_period"),
                                minimum=0.0, exclusive_min=True),
    )


def _game(obj, path: str) -> tuple:
    """The game's leaf utilities; its report probabilities are the detector's."""
    if obj is None or obj == "default":
        return DEFAULT_GAME.leaf_utilities
    obj = _mapping(obj, path)
    _check_keys(obj, path, ("leaf_utilities",))
    raw = _get(obj, path, "leaf_utilities", required=True)
    if not isinstance(raw, list) or len(raw) != 8:
        raise ConfigError(_join(path, "leaf_utilities"),
                          "expected 8 [attacker, defender] pairs")
    leaves = []
    for i, pair in enumerate(raw):
        p = _join(path, f"leaf_utilities[{i}]")
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(p, "expected [attacker_utility, defender_utility]")
        leaves.append((_number(pair[0], _join(p, 0)), _number(pair[1], _join(p, 1))))
    return tuple(leaves)


def _switching(obj, path: str) -> SwitchingConfig:
    obj = _mapping(obj, path)
    _check_keys(obj, path, ("enabled", "decision_period", "scope", "dwell_enforced",
                            "hysteresis_release", "policy_override", "initial_mode"))
    override = _get(obj, path, "policy_override")
    if override is not None:
        if not isinstance(override, list) or len(override) != 2:
            raise ConfigError(_join(path, "policy_override"),
                              "expected [p_acc_given_report, p_acc_given_no_report]")
        override = (_number(override[0], _join(path, "policy_override[0]"),
                            minimum=0.0, maximum=1.0),
                    _number(override[1], _join(path, "policy_override[1]"),
                            minimum=0.0, maximum=1.0))
    kwargs = {}
    for name, conv in (("enabled", bool), ("scope", str), ("dwell_enforced", bool),
                       ("initial_mode", str)):
        if name in obj:
            value = obj[name]
            if not isinstance(value, conv):
                raise ConfigError(_join(path, name),
                                  f"expected {conv.__name__}, got {value!r}")
            kwargs[name] = value
    for name in ("decision_period", "hysteresis_release"):
        if name in obj:
            kwargs[name] = _number(obj[name], _join(path, name),
                                   minimum=0.0, exclusive_min=(name == "decision_period"))
    try:
        return SwitchingConfig(policy_override=override, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def scenario_from_dict(data: dict, path: str = "") -> ScenarioConfig:
    """Validate a parsed scenario object and build the runnable config."""
    data = _mapping(data, path)
    _check_keys(data, path, ("platoon", "gains", "lyapunov", "attack", "detector",
                             "game", "switching", "integration", "seed",
                             "gap_offsets"))
    platoon = _platoon(_get(data, path, "platoon", required=True),
                       _join(path, "platoon"))

    gains = _get(data, path, "gains", {})
    gains = _mapping(gains, _join(path, "gains"))
    _check_keys(gains, _join(path, "gains"), ("cacc", "acc"))
    cacc = (DEFAULT_CACC_GAINS if "cacc" not in gains
            else _cacc_gains(gains["cacc"], _join(path, "gains.cacc")))
    acc = (DEFAULT_ACC_GAINS if "acc" not in gains
           else _acc_gains(gains["acc"], _join(path, "gains.acc")))

    integ = _mapping(_get(data, path, "integration", required=True),
                     _join(path, "integration"))
    _check_keys(integ, _join(path, "integration"), ("step", "duration"))
    step = _number(_get(integ, _join(path, "integration"), "step", 0.01),
                   _join(path, "integration.step"), minimum=0.0, exclusive_min=True)
    duration = _number(_get(integ, _join(path, "integration"), "duration", required=True),
                       _join(path, "integration.duration"), minimum=0.0,
                       exclusive_min=True)

    detector = _detector(_get(data, path, "detector", {}), _join(path, "detector"))
    switching = _switching(_get(data, path, "switching", {}), _join(path, "switching"))
    for name, period in (("switching.decision_period", switching.decision_period),
                         ("detector.sampling_period", detector.sampling_period)):
        try:
            _steps_per_period(period, step)
        except ValueError as exc:
            raise ConfigError(_join(path, name), str(exc)) from exc

    offsets = _get(data, path, "gap_offsets", [])
    if not isinstance(offsets, list):
        raise ConfigError(_join(path, "gap_offsets"), "expected a list")
    offsets = tuple(_number(x, _join(path, f"gap_offsets[{i}]"))
                    for i, x in enumerate(offsets))

    try:
        return ScenarioConfig(
            platoon=platoon,
            cacc_gains=cacc,
            acc_gains=acc,
            lyapunov=_lyapunov(_get(data, path, "lyapunov", "auto"),
                               _join(path, "lyapunov")),
            attack=_attack(_get(data, path, "attack"), _join(path, "attack"),
                           platoon.vehicle_count),
            detector=detector,
            leaf_utilities=_game(_get(data, path, "game"), _join(path, "game")),
            switching=switching,
            step=step,
            duration=duration,
            seed=_integer(_get(data, path, "seed", 0), _join(path, "seed")),
            gap_offsets=offsets,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path or "scenario", str(exc)) from exc


def load_scenario(filename) -> ScenarioConfig:
    """Read and validate a scenario file.

    Syntax errors surface with their line and column; semantic errors with
    the dotted path of the bad entry.
    """
    with open(filename) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"{filename}: invalid JSON at line {exc.lineno}, "
                                  f"column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(data)
