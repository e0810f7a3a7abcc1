"""Message-falsification attack models and the imperfect anomaly detector.

The attacker compromises the V2V channel of a set of victim vehicles and
perturbs what they receive.  Two equivalent views are supported:

* ``lumped-acceleration`` -- the net effect of the falsified messages is a
  bounded additive disturbance xi(t) on the victim's acceleration channel
  (only meaningful while the victim runs the communication-based controller;
  radar-based control has no communication path, so the disturbance vanishes
  there).
* ``message-level`` -- individual message fields (position, velocity,
  acceleration) are offset by the signal before the victim's controller sees
  them: the engine adds the offset to what each V2V term of the victim's law
  reads.  Offsetting only the acceleration field by xi reproduces the lumped
  model exactly when the controller's acceleration feed-through gains sum
  to one.

This module holds the attack's description and its signal; the engine
applies it.

The detector is the chance player of the security game: at each sampling
instant it reports "attack" with one probability under attack and another
(false-alarm) probability under benign traffic.  That confusion matrix is
the game's own (``game.GameSpec``), so the policy is solved for the detector
that is simulated; this module samples it, with a seeded generator for
reproducibility.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._entry import EntryError

if TYPE_CHECKING:
    from .game import GameSpec

__all__ = [
    "REPORT_ATTACK",
    "REPORT_NONE",
    "MESSAGE_FIELDS",
    "AttackSignal",
    "AttackSpec",
    "attack_signal",
    "detector_sample",
]

REPORT_ATTACK = "r"
REPORT_NONE = "nr"
_REPORTS = np.array([REPORT_NONE, REPORT_ATTACK], dtype=object)  # by "reported?"

MESSAGE_FIELDS = ("position", "velocity", "acceleration")
SIGNAL_KINDS = ("constant", "ramp", "sinusoid", "table")


@dataclass(frozen=True)
class AttackSignal:
    """Scripted disturbance waveform, evaluated relative to the attack window.

    kinds:
      constant  -- amplitude
      ramp      -- rate * (t - window start)
      sinusoid  -- amplitude * sin(2 pi frequency (t - window start) + phase)
      table     -- zero-order hold over (times, values) sample pairs
    (an unknown kind or a non-finite number is an ``EntryError`` naming it)
    """

    kind: str = "constant"
    amplitude: float = 2.0
    rate: float = 0.0
    frequency: float = 0.1
    phase: float = 0.0
    times: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise EntryError("kind", f"unknown attack signal kind {self.kind!r}")
        # min(xi_max, nan) is xi_max: a NaN value would run as a full-strength attack
        entries = [("amplitude", self.amplitude), ("rate", self.rate),
                   ("frequency", self.frequency), ("phase", self.phase)]
        entries += [(f"{name}[{i}]", value) for name in ("times", "values")
                    for i, value in enumerate(getattr(self, name))]
        for path, value in entries:
            if not math.isfinite(value):
                raise EntryError(path, f"{path} must be finite, got {value}")
        if self.kind == "table":
            if not self.times or list(self.times) != sorted(self.times):
                raise EntryError("times", "table times must be nonempty and sorted")
            if len(self.values) != len(self.times):
                raise EntryError("values", "a table signal needs one value per time")

    def value(self, elapsed: float, absolute: float) -> float:
        if self.kind == "constant":
            return self.amplitude
        if self.kind == "ramp":
            return self.rate * elapsed
        if self.kind == "sinusoid":
            return self.amplitude * math.sin(2.0 * math.pi * self.frequency * elapsed + self.phase)
        idx = bisect.bisect_right(self.times, absolute) - 1
        return self.values[idx] if idx >= 0 else 0.0


@dataclass(frozen=True)
class AttackSpec:
    """Who is attacked, how, with what waveform, and when.

    ``targets`` are the victim vehicles whose *inbound* messages are
    falsified; the leader takes no V2V input and cannot be a target.
    ``message_fields`` selects which fields are offset in message-level mode
    (all three by default -- a consistent forged kinematic state).
    ``xi_max`` clamps the signal magnitude: the attacker stays bounded to
    evade trivial plausibility checks.  The window opens at t >= 0.  A bad
    entry raises an ``EntryError`` naming it, an item by its place as given.
    """

    targets: frozenset[int] = frozenset({3})
    mode: str = "message-level"
    signal: AttackSignal = field(default_factory=AttackSignal)
    xi_max: float = 2.0
    window: tuple[float, float] = (0.0, math.inf)
    message_fields: frozenset[str] = frozenset(MESSAGE_FIELDS)

    def __post_init__(self):
        targets, message_fields = tuple(self.targets), tuple(self.message_fields)
        for k, i in enumerate(targets):
            if not i > 1:
                raise EntryError(f"targets[{k}]", "the leader takes no V2V input and cannot "
                                 "be attacked" if i == 1 else "vehicle indices are 1-based")
        for k, name in enumerate(message_fields):
            if name not in MESSAGE_FIELDS:
                raise EntryError(f"message_fields[{k}]", f"unknown message field {name!r}")
        object.__setattr__(self, "targets", frozenset(int(i) for i in targets))
        object.__setattr__(self, "message_fields", frozenset(message_fields))
        for name in ("targets", "message_fields"):
            if not getattr(self, name):
                raise EntryError(name, f"an attack needs at least one of its {name}")
        if self.mode not in ("lumped-acceleration", "message-level"):
            raise EntryError("mode", f"unknown attack mode {self.mode!r}")
        if not self.xi_max >= 0:  # NaN too
            raise EntryError("xi_max", "xi_max must be nonnegative")
        if self.xi_max == math.inf:  # a clamp at inf bounds nothing
            raise EntryError("xi_max", "xi_max must be finite, got inf")
        if not self.window[0] >= 0:
            raise EntryError("window[0]", "the attack window opens at t >= 0, "
                                          f"got {self.window[0]}")
        if not self.window[1] > self.window[0]:
            raise EntryError("window", "attack window must have positive length")

    def active(self, t):
        """Is the window open at time ``t``, a float or an array of them?"""
        return (self.window[0] <= t) & (t < self.window[1])


def attack_signal(spec: AttackSpec, t: float) -> float:
    """xi(t): the disturbance value, zero outside the window, clamped inside."""
    if not spec.active(t):
        return 0.0
    raw = spec.signal.value(t - spec.window[0], t)
    return max(-spec.xi_max, min(spec.xi_max, raw))


def detector_sample(attacked, spec: GameSpec, rng) -> list[str]:
    """Draw one report, REPORT_ATTACK or REPORT_NONE, per attack flag in
    ``attacked`` (a sequence or array of bools) from the confusion matrix of
    the game ``spec`` with the caller's generator.  Each exact probability
    is drawn against as its nearest double, which for one read from a float
    is that float.

    The draws are one ``rng.random(len(attacked))`` call, which yields the
    same doubles as that many successive single draws, so a batch gives the
    reports of drawing one flag at a time, in order: each draw is compared
    with its flag's probability, as the scalar ``draw < p`` would be.
    """
    attacked = np.asarray(attacked, dtype=bool)
    p = np.where(attacked, float(spec.p_report_given_attack),
                 float(spec.p_report_given_benign))
    reported = rng.random(attacked.size) < p
    return _REPORTS[reported.view(np.uint8)].tolist()
