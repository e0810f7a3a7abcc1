"""Upper-level longitudinal control laws and their closed-loop matrix forms.

Two controller families are implemented:

* CACC -- cooperative control using V2V messages from the predecessor and the
  platoon leader.  For follower i:

      u_i = sum_j alpha_j (x_i - x_j + L_ij) + sum_j beta_j (v_i - v_j)
            + sum_j gamma_j a_j,            j in {leader, predecessor}

* ACC -- radar-only control using relative position/velocity of the
  predecessor (no acceleration feed-through, hence immune to falsified
  acceleration messages):

      u_i = alpha (x_i - x_{i-1} + L) + beta (v_i - v_{i-1})

In the spacing-error state z = (eps_i, eps_i') of a follower whose neighbors
hold the desired gaps and steady speed, either law closes to zdot = A z with
the aggregate position/velocity gains k1..k4 in A's bottom row; these A
matrices are what the stability certificate is computed for.  Vehicle 2's
predecessor *is* the leader, so it applies both gain sets to vehicle 1's
message; this keeps the aggregates (and hence A) identical for every follower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .platoon import NeighborMessage, RadarMeasurement, VehicleState, desired_distance

__all__ = [
    "CACC",
    "ACC",
    "CaccGains",
    "AccGains",
    "cacc_accel",
    "acc_accel",
    "assemble_closed_loop",
    "DEFAULT_CACC_GAINS",
    "DEFAULT_ACC_GAINS",
]

CACC = "CACC"
ACC = "ACC"


@dataclass(frozen=True)
class CaccGains:
    """Cooperative controller gains toward the predecessor and the leader.

    The aggregates k1 = alpha_pred + alpha_lead and k2 = beta_pred + beta_lead
    are what the stability conditions constrain; both must be negative for a
    Hurwitz closed loop (see the stability module for the full check).
    """

    alpha_pred: float
    beta_pred: float
    gamma_pred: float
    alpha_lead: float
    beta_lead: float
    gamma_lead: float

    @property
    def k1(self) -> float:
        return self.alpha_pred + self.alpha_lead

    @property
    def k2(self) -> float:
        return self.beta_pred + self.beta_lead

    @classmethod
    def from_aggregate(cls, k1: float, k2: float, split: float = 0.5,
                       gamma_pred: float = 0.5, gamma_lead: float = 0.5):
        """Build gains from the aggregates, splitting them predecessor/leader.

        ``split`` is the fraction assigned to the predecessor; the default
        50/50 split is a free design choice (the aggregates are what matter
        for stability).
        """
        if not 0.0 <= split <= 1.0:
            raise ValueError("split must lie in [0, 1]")
        return cls(
            alpha_pred=split * k1, beta_pred=split * k2, gamma_pred=gamma_pred,
            alpha_lead=(1.0 - split) * k1, beta_lead=(1.0 - split) * k2,
            gamma_lead=gamma_lead,
        )

    def validate(self):
        if not (self.k1 < 0 and self.k2 < 0):
            raise ValueError(
                f"CACC aggregates must be negative (k1={self.k1}, k2={self.k2})"
            )


@dataclass(frozen=True)
class AccGains:
    """Radar-following controller gains."""

    alpha: float
    beta: float

    @property
    def k3(self) -> float:
        return self.alpha

    @property
    def k4(self) -> float:
        return self.beta

    def validate(self):
        if not (self.alpha < 0 and self.beta < 0):
            raise ValueError(
                f"ACC gains must be negative (alpha={self.alpha}, beta={self.beta})"
            )


DEFAULT_CACC_GAINS = CaccGains.from_aggregate(-1.58, -2.51)
DEFAULT_ACC_GAINS = AccGains(-0.25, -1.0)


def cacc_accel(i: int, own_state: VehicleState, pred_msg: NeighborMessage,
               leader_msg: NeighborMessage, gains: CaccGains, L: float) -> float:
    """Cooperative acceleration command for follower i from its two messages.

    For i == 2 both messages come from vehicle 1 (the predecessor is the
    leader); both gain sets still apply so the closed loop matches every other
    follower.
    """
    if i < 2:
        raise ValueError("only followers (i >= 2) run a controller")
    u = 0.0
    for msg, alpha, beta, gamma, j in (
        (pred_msg, gains.alpha_pred, gains.beta_pred, gains.gamma_pred, i - 1),
        (leader_msg, gains.alpha_lead, gains.beta_lead, gains.gamma_lead, 1),
    ):
        L_ij = desired_distance(i, j, L)
        u += alpha * (own_state.position - msg.position + L_ij)
        u += beta * (own_state.velocity - msg.velocity)
        u += gamma * msg.acceleration
    return u


def acc_accel(i: int, own_state: VehicleState, radar: RadarMeasurement,
              gains: AccGains, L: float) -> float:
    """Radar-only acceleration command for follower i."""
    if i < 2:
        raise ValueError("only followers (i >= 2) run a controller")
    eps = own_state.position - radar.position + L
    deps = own_state.velocity - radar.velocity
    return gains.alpha * eps + gains.beta * deps


def assemble_closed_loop(mode: str, gains) -> np.ndarray:
    """The 2x2 matrix A of the selected law's spacing-error dynamics."""
    if mode == CACC:
        if not isinstance(gains, CaccGains):
            raise TypeError("CACC mode requires CaccGains")
        return np.array([[0.0, 1.0], [gains.k1, gains.k2]])
    if mode == ACC:
        if not isinstance(gains, AccGains):
            raise TypeError("ACC mode requires AccGains")
        return np.array([[0.0, 1.0], [gains.k3, gains.k4]])
    raise ValueError(f"unknown control mode {mode!r}")
