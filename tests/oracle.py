"""Readable references the package's fast paths are held against.

The control law and the attack injection through message objects.  The
engine integrates the whole platoon as one affine map, whose matrix
``control.closed_loop`` builds from ``control.law_terms``.  This module
evaluates the same law one follower at a time, the readable way: it builds each
follower's inbound traffic -- a ``NeighborMessage`` from the sender of each
V2V term (forged by ``falsify_message`` when the attack targets the
receiver), a ``RadarMeasurement`` for a radar term -- and applies the law's
terms to those readings in ``law_accel``.  It reads the engine's table of
terms and attack signal, but builds every message and reading itself, apart
from the engine's affine map, so the tests hold that map against it.

The engine's step, one row at a time (``run_row_by_row``).  The engine
computes each row from an anchor, as a power of the step map; this steps
each row from the row before it, x_{k+1} = Phi x_k + c, with the engine's
own Phi and c, so only the order of the arithmetic differs.  The tests hold
the anchored rows within a set tolerance of it, and its decisions and mode
events equal.

Whether two modes share a quadratic certificate, decided exactly
(``common_lyapunov_exists``): Shorten & Narendra's criterion for two stable
second-order systems (IJACSP 2002), read off the traces and determinants of
two matrix products in ``Fraction``.  ``stability.find_common_lyapunov``
searches for a certificate in floats, by a score it maximizes; the tests
hold its verdict to this one away from the criterion's boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

from platoonsec.control import ACC, CACC, V2V, law_terms
from platoonsec.engine import ScenarioConfig, _Integrator, run_scenario
from platoonsec.platoon import desired_distance
from platoonsec.threat import AttackSpec, attack_signal


@dataclass(frozen=True)
class VehicleState:
    """Longitudinal state of one vehicle: absolute position and velocity."""

    position: float
    velocity: float


@dataclass(frozen=True)
class NeighborMessage:
    """Content of a V2V broadcast: the sender's kinematic triple.

    ``sender_id`` is the 1-based index of the transmitting vehicle.  Under the
    predecessor-leader topology a follower i only consumes messages with
    sender_id in {1, i-1}.
    """

    position: float
    velocity: float
    acceleration: float
    sender_id: int


@dataclass(frozen=True)
class RadarMeasurement:
    """On-board ranging measurement of the predecessor.

    Deliberately carries no acceleration field: radar-based control cannot be
    influenced by transmitted (and therefore falsifiable) acceleration values.
    """

    position: float
    velocity: float


def law_accel(i: int, own_state: VehicleState, terms, readings, L: float) -> float:
    """Acceleration command for follower i from one reading per term: a
    ``NeighborMessage`` from the sender of a V2V term, a ``RadarMeasurement``
    (no acceleration to feed through) for a radar term."""
    if i < 2:
        raise ValueError("only followers (i >= 2) run a controller")
    u = 0.0
    for term, reading in zip(terms, readings, strict=True):
        L_ij = desired_distance(i, term.sender(i), L)
        u += term.alpha * (own_state.position - reading.position + L_ij)
        u += term.beta * (own_state.velocity - reading.velocity)
        if term.channel == V2V:
            u += term.gamma * reading.acceleration
    return u


def falsify_message(msg: NeighborMessage, spec: AttackSpec, t: float) -> NeighborMessage:
    """Forge a message bound for a victim by offsetting the selected fields.

    The caller routes messages: only traffic inbound to a vehicle in
    ``spec.targets`` should pass through here.  Outside the attack window (or
    in lumped mode, which never touches message content) messages pass
    unchanged.
    """
    if spec.mode != "message-level" or not spec.active(t):
        return msg
    offset = attack_signal(spec, t)
    return replace(msg, **{name: getattr(msg, name) + offset for name in spec.message_fields})


def commanded_accelerations(config: ScenarioConfig, pos, vel, modes, t: float):
    """Controller evaluation through the message-object interface.

    Builds each follower's inbound traffic explicitly -- a message from the
    sender of each V2V term (falsified when the attack targets the
    receiver), a radar measurement for a radar term -- and chains
    transmitted accelerations front to back.  ``run_scenario`` integrates an
    algebraically identical affine form; this is the readable reference the
    property tests hold it against.

    ``modes`` is the follower mode row (0 cooperative, 1 radar-only).
    Returns (commands, physical accelerations), leader entries included.
    """
    plat = config.platoon
    n = plat.vehicle_count
    attack = config.attack
    lumped = attack is not None and attack.mode == "lumped-acceleration"
    xi = attack_signal(attack, t) if attack is not None else 0.0
    laws = (law_terms(CACC, config.cacc_gains), law_terms(ACC, config.acc_gains))
    u = np.empty(n)
    dv = np.empty(n)
    u[0] = dv[0] = plat.leader_profile.acceleration(t)
    for i in range(2, n + 1):
        own = VehicleState(float(pos[i - 1]), float(vel[i - 1]))
        targeted = attack is not None and i in attack.targets
        terms = laws[modes[i - 2]]
        readings = []
        for term in terms:
            j = term.sender(i) - 1
            if term.channel == V2V:
                msg = NeighborMessage(float(pos[j]), float(vel[j]), float(dv[j]), j + 1)
                readings.append(falsify_message(msg, attack, t) if targeted else msg)
            else:
                readings.append(RadarMeasurement(float(pos[j]), float(vel[j])))
        u[i - 1] = law_accel(i, own, terms, readings, plat.desired_gap)
        disturbed = lumped and targeted and attack.active(t) and any(
            term.channel == V2V for term in terms)
        dv[i - 1] = u[i - 1] + (xi if disturbed else 0.0)
    return u, dv


def _advance_row_by_row(self, k, end, pattern, interval, supervisor):
    """``_Integrator.advance`` stepping each row from the one before it:
    x_{k+1} = Phi x_k + c, from the first item [Phi | Psi_g] of the
    pattern's table and c = Psi_g g, over the whole segment, then the checks
    on its rows."""
    R, g, disturbed, xi = self._segment_map(pattern, k, interval)
    step = self._table(pattern).items[0, :2 * self.n]  # its state rows
    phi, psi_g = step[:, :step.shape[0]], step[:, step.shape[0]:]
    c = psi_g @ g
    x = self.states[k]
    for x_next in self.states[k + 1:end + 1]:  # row views
        phi.dot(x, out=x_next)
        x_next += c
        x = x_next
    cut, collision, flips = self.check(k + 1, end, supervisor)
    if self.spans and self.spans[-1][3] is g:  # the same constant inputs go on
        self.spans[-1][1] = cut
    else:
        self.spans.append([k, cut, R, g, xi, disturbed, pattern])
    return cut, collision, flips


def run_row_by_row(config: ScenarioConfig):
    """``run_scenario`` with every row stepped from the row before it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Integrator, "advance", _advance_row_by_row)
        return run_scenario(config)


def _product(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _inverse(X):
    det = X[0][0] * X[1][1] - X[0][1] * X[1][0]
    return [[X[1][1] / det, -X[0][1] / det], [-X[1][0] / det, X[0][0] / det]]


def pair_products(A1, A2) -> list[tuple[Fraction, Fraction]]:
    """The (trace, determinant) of A1 A2 and of A1 A2^-1, exact in the
    entries' values."""
    A1, A2 = ([[Fraction(float(x)) for x in row] for row in A] for A in (A1, A2))
    products = (_product(A1, A2), _product(A1, _inverse(A2)))
    return [(M[0][0] + M[1][1], M[0][0] * M[1][1] - M[0][1] * M[1][0]) for M in products]


def common_lyapunov_exists(A1, A2) -> bool:
    """Whether two Hurwitz 2x2 matrices share a quadratic Lyapunov function:
    iff neither A1 A2 nor A1 A2^-1 has a negative real eigenvalue.  The roots
    of x^2 - t x + d hold a negative real one iff d < 0, or t < 0 and
    t^2 >= 4 d (d = 0 included: its roots are 0 and t)."""
    return not any(d < 0 or (t < 0 and t * t >= 4 * d) for t, d in pair_products(A1, A2))
