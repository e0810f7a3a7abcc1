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

from dataclasses import dataclass, field

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
    experiments.
    """

    initial_velocity: float = 20.0
    pulses: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        for start, end, _ in self.pulses:
            if not end > start:
                raise ValueError(f"pulse window [{start}, {end}) is empty")

    def acceleration(self, t: float) -> float:
        return sum(a for (s, e, a) in self.pulses if s <= t < e)


@dataclass(frozen=True)
class PlatoonConfig:
    """Static description of the platoon geometry and safety threshold."""

    vehicle_count: int
    desired_gap: float
    vehicle_length: float
    epsilon_max: float
    leader_profile: LeaderProfile = field(default_factory=LeaderProfile)

    def __post_init__(self):
        if self.vehicle_count < 2:
            raise ValueError("a platoon needs at least two vehicles")
        if not self.desired_gap > self.vehicle_length > 0:
            raise ValueError("desired_gap must exceed vehicle_length > 0")
        if not 0 < self.epsilon_max < self.desired_gap - self.vehicle_length:
            raise ValueError(
                "epsilon_max must lie in (0, desired_gap - vehicle_length) so a "
                "triggered safety surface still precedes physical contact"
            )


def desired_distance(i: int, j: int, L: float) -> float:
    """Desired separation between vehicles i and j: L times the hop count."""
    if i == j:
        raise ValueError("desired distance is defined only for distinct vehicles")
    return L * abs(i - j)
