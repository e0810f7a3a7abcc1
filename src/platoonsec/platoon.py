"""Static description of a longitudinal vehicle platoon.

Vehicles are numbered 1..N with vehicle 1 the (human-driven) leader; followers
hold a constant desired gap L behind their predecessor.  Under the
predecessor-leader information topology each follower i receives V2V messages
from vehicle 1 and vehicle i-1.  All coordinates are absolute 1-D road
positions in meters.  Follower i's spacing error is x_i - x_{i-1} + L: zero
at the desired gap, positive when the follower is too close.

This module holds the geometry, the safety threshold and the leader's
profile; the simulation engine integrates the whole platoon as one affine map
and holds its state itself.  Vehicle indices are 1-based.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from ._entry import EntryError

__all__ = [
    "LeaderProfile",
    "PlatoonConfig",
    "desired_distance",
]


@dataclass(frozen=True)
class LeaderProfile:
    """Leader velocity profile: an initial speed plus acceleration pulses.

    Each pulse is a (start, end, acceleration) triple; the leader acceleration
    at time t is the sum of all pulses whose half-open window [start, end)
    contains t, and zero otherwise.  Piecewise-constant acceleration is enough
    to express the braking / speed-up disturbances used in string-stability
    experiments.  A pulse starts at t >= 0, and the speed and each pulse's
    acceleration are finite; an ``EntryError`` names a bad entry.
    """

    initial_velocity: float = 20.0
    pulses: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.initial_velocity):
            raise EntryError("initial_velocity",
                             f"initial_velocity must be finite, got {self.initial_velocity}")
        for i, (start, end, accel) in enumerate(self.pulses):
            if not start >= 0:  # NaN too
                raise EntryError(f"pulses[{i}].0", f"a pulse starts at t >= 0, got {start}")
            if not end > start:
                raise EntryError(f"pulses[{i}]", f"pulse window [{start}, {end}) is empty")
            if not math.isfinite(accel):
                raise EntryError(f"pulses[{i}].2", f"acceleration must be finite, got {accel}")

    def acceleration(self, t: float) -> float:
        return sum(a for (s, e, a) in self.pulses if s <= t < e)


@dataclass(frozen=True)
class PlatoonConfig:
    """Static description of the platoon geometry and safety threshold; a
    bad field raises an ``EntryError`` naming it."""

    vehicle_count: int
    desired_gap: float
    vehicle_length: float
    epsilon_max: float
    leader_profile: LeaderProfile = field(default_factory=LeaderProfile)

    def __post_init__(self):
        # a count beyond the platform's index range could size no array
        if not 2 <= self.vehicle_count <= sys.maxsize:
            raise EntryError("vehicle_count", "a platoon needs at least two vehicles and no more "
                                              f"than an index can count, got {self.vehicle_count}")
        for name in ("desired_gap", "vehicle_length"):
            if not getattr(self, name) > 0:
                raise EntryError(name, f"{name} must be positive, got {getattr(self, name)}")
            if getattr(self, name) == math.inf:  # no finite state has an infinite gap or length
                raise EntryError(name, f"{name} must be finite, got inf")
        if not self.desired_gap > self.vehicle_length:
            raise ValueError("desired_gap must exceed vehicle_length")
        if not 0 < self.epsilon_max < self.desired_gap - self.vehicle_length:
            message = ("epsilon_max must lie in (0, desired_gap - vehicle_length) so a "
                       "triggered safety surface still precedes physical contact")
            if self.epsilon_max > 0:  # the geometry, not the entry, is at fault
                raise ValueError(message)
            raise EntryError("epsilon_max", message)


def desired_distance(i: int, j: int, L: float) -> float:
    """Desired separation between vehicles i and j: L times the hop count."""
    if i == j:
        raise ValueError("desired distance is defined only for distinct vehicles")
    return L * abs(i - j)
