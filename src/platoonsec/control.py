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
the sums (and hence A) the same for every follower.  ``closed_loop``, the
one model of the whole platoon the engine integrates, takes each
follower's own entries from its A: in error coordinates it is a cascade
whose diagonal blocks are the followers' A.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._entry import EntryError

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
    "closed_loop",
    "step_map",
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
    (A's bottom row) are what the stability conditions constrain; both must
    be negative for a Hurwitz closed loop (``stability.check_bibo_lemma1``).
    """

    alpha_pred: float
    beta_pred: float
    gamma_pred: float
    alpha_lead: float
    beta_lead: float
    gamma_lead: float

    @classmethod
    def from_aggregate(cls, k1: float, k2: float, split: float = 0.5,
                       gamma_pred: float = 0.5, gamma_lead: float = 0.5):
        """Build gains from the aggregates, splitting them predecessor/leader.

        ``split`` is the fraction assigned to the predecessor; the default
        50/50 split is a free design choice (the aggregates are what matter
        for stability); one outside [0, 1] is an ``EntryError`` naming it.
        """
        if not 0.0 <= split <= 1.0:  # NaN too
            raise EntryError("split", "split must lie in [0, 1]")
        return cls(
            alpha_pred=split * k1, beta_pred=split * k2, gamma_pred=gamma_pred,
            alpha_lead=(1.0 - split) * k1, beta_lead=(1.0 - split) * k2,
            gamma_lead=gamma_lead,
        )


@dataclass(frozen=True)
class AccGains:
    """Radar-following controller gains."""

    alpha: float
    beta: float


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


def closed_loop(pattern, cacc: CaccGains, acc: AccGains) -> np.ndarray:
    """The platoon's matrix M under ``pattern``, each follower's mode code
    front to back (0 CACC, 1 ACC, as in ``SimTrace.modes``): with
    n = len(pattern) + 1 and x = (positions, velocities), xdot = M x + [0; g]
    for constant accelerations g.  Row n + i, the command law, gives vehicle
    i+1's acceleration (the leader's is zero): its own entries are its
    mode's A bottom row, and each term subtracts its gains on its
    neighbour's entries and chains its feed-forward through that row.
    """
    laws = [(law_terms(mode, gains), assemble_closed_loop(mode, gains)[1])
            for mode, gains in ((CACC, cacc), (ACC, acc))]
    n = len(pattern) + 1
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = np.eye(n)
    R = M[n:]
    for i in range(1, n):
        row = R[i]
        terms, bottom = laws[pattern[i - 1]]
        row[[i, n + i]] = bottom
        for term in terms:
            j = term.sender(i + 1) - 1
            row[j] -= term.alpha
            row[n + j] -= term.beta
            row += term.gamma * R[j]
    return M


def step_map(M: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The one fourth-order step of xdot = M x + b over ``h``: the Taylor
    polynomials (Phi, Psi) with x' = Phi x + Psi b, for a constant b."""
    ident = np.eye(len(M))
    M2 = M @ M
    M3 = M2 @ M
    M4 = M3 @ M
    phi = (ident + h * M + (h * h / 2.0) * M2
           + (h ** 3 / 6.0) * M3 + (h ** 4 / 24.0) * M4)
    psi = h * (ident + (h / 2.0) * M + (h * h / 6.0) * M2
               + (h ** 3 / 24.0) * M3)
    return phi, psi
