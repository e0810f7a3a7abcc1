"""Scenario files: JSON in, validated ScenarioConfig out.

A scenario file is a single JSON object.  Required sections are ``platoon``
and ``integration``; everything else falls back to the package defaults
(certified gains, the default game and its detector, per-vehicle switching).

This module holds no defaults: an entry the file omits is not passed on, so
the dataclass default applies.  Nor does it judge values: it checks only what
the dataclasses cannot see -- JSON types, list shapes, unknown and missing
entries, finite numbers, a given P's definiteness -- and reports every error,
its own or a dataclass's, at the dotted path of the offending entry, so a
typo in a large sweep file is findable without bisecting it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import partial

from ._entry import EntryError
from .control import AccGains, CaccGains
from .engine import ScenarioConfig, SwitchingConfig
from .platoon import LeaderProfile, PlatoonConfig
from .stability import LyapunovCandidate
from .threat import AttackSignal, AttackSpec

__all__ = ["ConfigError", "load_scenario", "scenario_from_dict"]


class ConfigError(ValueError):
    """Invalid scenario input; ``path`` names the offending JSON entry."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


# A parser reads one JSON value at its dotted path: parse(value, path).

def _number(open_end=False):
    """Parser for a finite number; ``open_end`` also admits +Infinity, which
    ends an interval that never closes."""
    def parse(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        try:
            v = float(value)
        except OverflowError:  # an integer literal beyond the float range
            v = math.nan
        if not (math.isfinite(v) or open_end and v == math.inf):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return v
    return parse


_REAL = _number()


def _is(kind):
    """Parser for a JSON value of type ``kind``; true and false are no int."""
    def parse(value, path):
        if not isinstance(value, kind) or kind is int and isinstance(value, bool):
            raise ConfigError(path, f"expected {kind.__name__}, got {value!r}")
        return value
    return parse


_DEFAULT = object()  # a parser's result meaning "leave the dataclass default"


def _or_none(parse, *aliases):
    """``parse``, except that null (or an alias such as "auto") keeps the default."""
    return lambda value, path: (_DEFAULT if value is None or value in aliases
                                else parse(value, path))


def _list(parse, item="{}[{}]"):
    """Parser for a JSON list whose item i is read at ``item.format(path, i)``.

    ``parse`` reads every item, or is a tuple of one parser per position,
    which fixes the length.
    """
    length = len(parse) if isinstance(parse, tuple) else None

    def read(value, path):
        if not isinstance(value, list) or length not in (None, len(value)):
            shape = f" of {length} entries" if length is not None else ""
            raise ConfigError(path, f"expected a list{shape}, got {value!r}")
        each = parse if isinstance(parse, tuple) else (parse,) * len(value)
        return tuple(p(x, item.format(path, i)) for i, (p, x) in enumerate(zip(each, value)))
    return read


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _fields(obj, path: str, parsers: dict, required=()) -> dict:
    """The entries a JSON object gives, each read at its own dotted path.

    Unknown and missing required entries are errors.  Omitted entries, and
    those a parser maps to ``_DEFAULT``, are left out of the result.
    """
    obj = _mapping(obj, path)
    unknown = sorted(set(obj) - set(parsers))
    if unknown:
        raise ConfigError(_join(path, unknown[0]), "unknown entry")
    for key in required:
        if key not in obj:
            raise ConfigError(_join(path, key), "missing required entry")
    read = {key: parse(obj[key], _join(path, key))
            for key, parse in parsers.items() if key in obj}
    return {key: value for key, value in read.items() if value is not _DEFAULT}


def _build(make, path: str, paths={}, **kwargs):
    """``make(**kwargs)``, with a rule it enforces reported at ``path`` or at
    the entry under it that an ``EntryError`` names, at the file path that
    ``paths`` maps that entry to, if any."""
    try:
        return make(**kwargs)
    except EntryError as exc:
        raise ConfigError(_join(path, paths.get(exc.path, exc.path)), exc.reason) from exc
    except ValueError as exc:
        raise ConfigError(path or "scenario", str(exc)) from exc


def _section(make, parsers: dict, required=()):
    """Parser for a JSON object that builds ``make`` from the entries it gives."""
    return lambda obj, path: _build(make, path, **_fields(obj, path, parsers, required))


_INTERVAL = (_REAL, _number(open_end=True))
_leader = _section(LeaderProfile, {"initial_velocity": _REAL,
                                   "pulses": _list(_list((*_INTERVAL, _REAL), item="{}.{}"))})
_PLATOON = {"vehicle_count": _is(int), "desired_gap": _REAL,
            "vehicle_length": _REAL, "epsilon_max": _REAL}


def _platoon(obj, path: str) -> PlatoonConfig:
    kwargs = _fields(obj, path, {**_PLATOON, "leader": _leader}, required=tuple(_PLATOON))
    if "leader" in kwargs:
        kwargs["leader_profile"] = kwargs.pop("leader")
    return _build(PlatoonConfig, path, **kwargs)


_AGGREGATE = {"k1": _REAL, "k2": _REAL, "split": _REAL,
              "gamma_pred": _REAL, "gamma_lead": _REAL}
_EXPLICIT = dict.fromkeys(("alpha_pred", "beta_pred", "gamma_pred", "alpha_lead",
                           "beta_lead", "gamma_lead"), _REAL)


def _cacc_gains(obj, path: str) -> CaccGains:
    keys = set(_mapping(obj, path))
    if {"k1", "k2"} <= keys <= _AGGREGATE.keys():
        return _build(CaccGains.from_aggregate, path, **_fields(obj, path, _AGGREGATE))
    if keys == _EXPLICIT.keys():
        return _build(CaccGains, path, **_fields(obj, path, _EXPLICIT))
    raise ConfigError(path, "use either {k1, k2[, split, gamma_pred, gamma_lead]} "
                            "or all six explicit per-neighbor gains")


def _lyapunov(obj, path: str) -> LyapunovCandidate:
    entries = ("p11", "p12", "p22")
    cand = LyapunovCandidate(**_fields(obj, path, dict.fromkeys(entries, _REAL), entries))
    if cand.p11 > 0 and cand.p11 * cand.p22 == math.inf:  # no determinant is computable
        raise ConfigError(path, "p11 * p22 overflows; a certificate is scale "
                                "invariant, so scale the matrix down")
    if not cand.is_positive_definite():
        raise ConfigError(path, "matrix is not positive definite")
    return cand


_attack = _section(AttackSpec, {
    "targets": _list(_is(int)),
    "mode": lambda value, path: value,  # AttackSpec judges it
    "window": _list(_INTERVAL),
    "message_fields": _list(_is(str)),
    "signal": _section(AttackSignal, {"kind": _is(str), "amplitude": _REAL, "rate": _REAL,
                                      "frequency": _REAL, "phase": _REAL,
                                      "times": _list(_REAL), "values": _list(_REAL)}),
    "xi_max": _REAL,
})

_switching = _section(SwitchingConfig, {
    "policy_override": _or_none(_list((_REAL, _REAL))),
    "enabled": _is(bool), "scope": _is(str), "dwell_enforced": _is(bool),
    "initial_mode": _is(str), "decision_period": _REAL, "hysteresis_release": _REAL,
})

# the game's leaf utilities; its report probabilities are in ``detector``
_game = _section(dict, {"leaf_utilities": _list(_list((_REAL, _REAL), item="{}.{}"))},
                 required=("leaf_utilities",))

_SCENARIO = {
    "platoon": _platoon,
    "gains": _section(dict, {"cacc": _cacc_gains,
                             "acc": _section(AccGains, {"alpha": _REAL, "beta": _REAL},
                                             required=("alpha", "beta"))}),
    "integration": _section(dict, {"step": _REAL, "duration": _REAL}, required=("duration",)),
    "detector": _section(dict, {"p_report_given_attack": _REAL,
                                "p_report_given_benign": _REAL, "sampling_period": _REAL}),
    "switching": _switching,
    "gap_offsets": _list(_REAL),
    "lyapunov": _or_none(_lyapunov, "auto"),
    "attack": _or_none(_attack),
    "game": _or_none(_game, "default"),
    "seed": _is(int),
}

# the file path of each ScenarioConfig or game field the file names otherwise
_PATH_OF = {"step": "integration.step", "duration": "integration.duration",
            "cacc_gains": "gains.cacc", "acc_gains": "gains.acc",
            "leaf_utilities": "game.leaf_utilities",
            "sampling_period": "detector.sampling_period",
            "p_report_given_attack": "detector.p_report_given_attack",
            "p_report_given_benign": "detector.p_report_given_benign"}


def scenario_from_dict(data: dict, path: str = "") -> ScenarioConfig:
    """Validate a parsed scenario object and build the runnable config."""
    kwargs = _fields(data, path, _SCENARIO, required=("platoon", "integration"))
    kwargs.update(kwargs.pop("integration"))  # its entries are ScenarioConfig fields
    kwargs.update((f"{key}_gains", gains) for key, gains in kwargs.pop("gains", {}).items())
    # the detector's report probabilities and the leaf utilities change the default game
    game = {**kwargs.pop("detector", {}), **kwargs.pop("game", {})}
    if "sampling_period" in game:
        kwargs["sampling_period"] = game.pop("sampling_period")
    game = _build(partial(dataclasses.replace, ScenarioConfig.game), path, _PATH_OF, **game)
    return _build(ScenarioConfig, path, _PATH_OF, game=game, **kwargs)


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
