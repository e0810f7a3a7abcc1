"""Upper-level longitudinal control laws and their closed-loop matrix forms.

Both controllers are one law form over a table of terms, each reading one
neighbour j of follower i over one channel:

    u_i = sum over terms of alpha (x_i - x_j + L_ij) + beta (v_i - v_j) + gamma a_j

with L_ij the desired distance (L times the hop count).  ``law_terms`` holds
the table, the only map from a mode to coefficients:

    CACC   predecessor  V2V    alpha_pred  beta_pred  gamma_pred
           leader       V2V    alpha_lead  beta_lead  gamma_lead
    ACC    predecessor  radar  alpha       beta       0

Radar measures no acceleration, hence gamma = 0, and falsified content enters
only through a V2V term: the radar law (ACC) is immune to the channel.

In the spacing-error state z = (eps_i, eps_i') of a follower whose neighbors
hold the desired gaps and steady speed, either law closes to zdot = A z with
A's bottom row the sums of its alphas and betas, (k1, k2) or (k3, k4); the
certificate is computed for these A.  Vehicle 2's predecessor *is* the
leader, so it applies both CACC terms to vehicle 1's message, which keeps
the sums (and hence A) the same for every follower.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


__all__ = [
    "CACC",
    "ACC",
    "PREDECESSOR",
    "LEADER",
    "V2V",
    "RADAR",
    "CaccGains",
    "AccGains",
    "LawTerm",
    "law_terms",
    "assemble_closed_loop",
    "DEFAULT_CACC_GAINS",
    "DEFAULT_ACC_GAINS",
]

CACC = "CACC"
ACC = "ACC"
PREDECESSOR = "predecessor"
LEADER = "leader"
V2V = "V2V"
RADAR = "radar"


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

    def validate(self):
        if not (self.alpha < 0 and self.beta < 0):
            raise ValueError(
                f"ACC gains must be negative (alpha={self.alpha}, beta={self.beta})"
            )


DEFAULT_CACC_GAINS = CaccGains.from_aggregate(-1.58, -2.51)
DEFAULT_ACC_GAINS = AccGains(-0.25, -1.0)


class LawTerm(NamedTuple):
    """One row of a law's table (see the module docstring)."""

    neighbour: str  # PREDECESSOR or LEADER
    channel: str  # V2V or RADAR
    alpha: float
    beta: float
    gamma: float

    def sender(self, i: int) -> int:
        """The 1-based vehicle this term reads for follower i."""
        return i - 1 if self.neighbour == PREDECESSOR else 1


def law_terms(mode: str, gains) -> tuple[LawTerm, ...]:
    """The terms of the law ``mode`` runs with ``gains``, predecessor first."""
    if mode == CACC:
        if not isinstance(gains, CaccGains):
            raise TypeError("CACC mode requires CaccGains")
        return (LawTerm(PREDECESSOR, V2V, gains.alpha_pred, gains.beta_pred,
                        gains.gamma_pred),
                LawTerm(LEADER, V2V, gains.alpha_lead, gains.beta_lead, gains.gamma_lead))
    if mode == ACC:
        if not isinstance(gains, AccGains):
            raise TypeError("ACC mode requires AccGains")
        return (LawTerm(PREDECESSOR, RADAR, gains.alpha, gains.beta, 0.0),)
    raise ValueError(f"unknown control mode {mode!r}")


def assemble_closed_loop(mode: str, gains) -> np.ndarray:
    """The 2x2 matrix A of the selected law's spacing-error dynamics:
    bottom row (sum of alphas, sum of betas) over the law's terms."""
    terms = law_terms(mode, gains)
    k = functools.reduce(operator.add, (term.alpha for term in terms))
    m = functools.reduce(operator.add, (term.beta for term in terms))
    return np.array([[0.0, 1.0], [k, m]])
