"""Simulation engine: the switched closed-loop platoon under attack.

One run integrates the platoon with a fixed-step fourth-order scheme while a
supervisor drives each follower's controller mode.  Three rules apply, in
strict priority order:

1. safety surface -- a follower whose spacing error magnitude reaches
   epsilon_max is forced to radar-only control (and latched there until the
   error re-enters a hysteresis band);
2. dwell hold -- once the cooperative controller is (re)activated it must
   stay active for the certificate-derived minimum dwell time, recomputed
   from the state at every activation;
3. game policy -- otherwise, at each decision instant the supervisor samples
   "downgrade / don't" from the equilibrium behavioral strategy conditioned
   on the latest detector report.

Switching scope is configurable: ``per-vehicle`` gives every follower its own
detector stream and supervisor (a distributed deployment); ``platoon`` runs
one supervisor with a single switching signal applied to all followers,
which is the setting the dwell-time guarantee speaks about.  The safety
surface is always per vehicle, evaluated every integrator step.

Discontinuities (attack window edges, leader profile pulses, mode changes)
take effect only at step boundaries, so every integration step sees a smooth
vector field and the integrator keeps its order.  Attack injection follows
the communication structure: falsified content can only influence a victim
while it runs the communication-based controller; radar-only followers are
immune by construction.

The run advances in segments.  A mode can change only at a decision tick or
at a safety-surface crossing, and an input only at an edge (a leader pulse,
the attack window, a step of a table signal); between those events the
closed loop is one affine map x' = Phi x + c.  So the supervisor acts once
at a segment's first row, Phi and c are built once a run for each set of
frozen inputs, and the segment runs to the next decision tick or input edge
with one matrix-vector product per step, for the state alone.  (A ramp or
sinusoid attack has a new value every step; its segments rebuild c for
each step, as a per-step loop would.)  The per-row checks (a non-finite
state, a collision, a safety-surface crossing) then act on the segment's
rows at once.  A quiet segment passes a test of the whole block that is
exact for floats: its last row is finite (a non-finite entry stays
non-finite under the step), its smallest gap exceeds the vehicle length,
the spacing errors of its two extreme gaps lie inside epsilon_max (fl(L -
gap) is monotone in the gap), and no follower is latched.  Any other
segment is scanned row by row and cut at the first row a check acts on;
the supervisor handles that row as the next segment's first, latching and
releasing the followers the scan found there.  No step reads the recorded
command u = R x + g, so the commands are computed after the run, one
stacked matmul over each span of rows that shares a map: numpy runs the
same BLAS matrix-vector kernel on each row as ``np.dot(R, x)``, where a
matrix-matrix product over the rows would round differently.  A detector
report depends on time alone (the attack window, the targets and the
detector's own generator), never on the state, so every sampling tick's
reports are drawn before the run, in (tick, unit) order, in one batch from
that generator; a decision reads the latest one by index, and the report
records of the ticks before the final row are built after the run.  Every
row is therefore computed by the same floating-point operations, on the
same values and in the same order, as when the supervisor ran on every
step: the trace and its outputs are bit-identical to per-step supervision.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .control import (ACC, CACC, AccGains, CaccGains, DEFAULT_ACC_GAINS,
                      DEFAULT_CACC_GAINS, acc_accel, assemble_closed_loop,
                      cacc_accel)
from .game import BehavioralStrategy, GameSpec, DEFAULT_GAME, equilibrium_strategy
from .platoon import (NeighborMessage, PlatoonConfig, RadarMeasurement,
                      VehicleState)
from .stability import (LyapunovCandidate, LyapunovConstants, check_common_lyapunov,
                        find_common_lyapunov, lyapunov_constants, min_dwell_time)
from .threat import (AttackSpec, DetectorModel, attack_signal, detector_sample,
                     falsify_message)

__all__ = [
    "PLATOON_UNIT",
    "SwitchingConfig",
    "ScenarioConfig",
    "DwellState",
    "ModeEvent",
    "DecisionEvent",
    "ReportEvent",
    "CollisionInfo",
    "SimTrace",
    "TraceMetrics",
    "CertificateError",
    "switching_decision",
    "commanded_accelerations",
    "resolve_certificate",
    "run_scenario",
    "trace_metrics",
    "cacc_entry_values",
    "write_trace_csv",
    "write_metrics_json",
]

PLATOON_UNIT = 0  # unit id used for platoon-scope events (vehicles are 1-based)

_CAUSE_INITIAL = "initial"
_CAUSE_GAME = "game"
_CAUSE_DWELL = "dwell-hold"
_CAUSE_SAFETY = "safety-surface"
_CAUSE_RELEASE = "safety-release"


@dataclass(frozen=True)
class SwitchingConfig:
    """Supervisor behavior: cadence, scope, dwell enforcement, hysteresis.

    ``policy_override`` replaces the game equilibrium with fixed downgrade
    probabilities (given report, given no report) -- useful for ablations
    such as "never switch" or "always radar".  ``enabled=False`` disables the
    supervisor entirely (no safety surface, no game): the platoon stays in
    ``initial_mode``.
    """

    enabled: bool = True
    decision_period: float = 1.0
    scope: str = "per-vehicle"
    dwell_enforced: bool = True
    hysteresis_release: float = 0.5
    policy_override: tuple[float, float] | None = None
    initial_mode: str = CACC

    def __post_init__(self):
        if self.decision_period <= 0:
            raise ValueError("decision_period must be positive")
        if self.scope not in ("per-vehicle", "platoon"):
            raise ValueError(f"unknown switching scope {self.scope!r}")
        if not 0.0 <= self.hysteresis_release <= 1.0:
            raise ValueError("hysteresis_release is a fraction of epsilon_max")
        if self.policy_override is not None:
            pr, pnr = self.policy_override
            if not (0.0 <= pr <= 1.0 and 0.0 <= pnr <= 1.0):
                raise ValueError("policy_override entries must be probabilities")
        if self.initial_mode not in (CACC, ACC):
            raise ValueError(f"unknown initial mode {self.initial_mode!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one deterministic run needs.

    The security game is not stored: ``game`` pairs ``leaf_utilities`` with
    the report probabilities of ``detector``, so the policy is always solved
    for the detector that is simulated.
    """

    platoon: PlatoonConfig
    cacc_gains: CaccGains = DEFAULT_CACC_GAINS
    acc_gains: AccGains = DEFAULT_ACC_GAINS
    lyapunov: LyapunovCandidate | None = None  # None: search for a certificate
    attack: AttackSpec | None = None
    detector: DetectorModel = field(default_factory=DetectorModel)
    leaf_utilities: tuple = DEFAULT_GAME.leaf_utilities
    switching: SwitchingConfig = field(default_factory=SwitchingConfig)
    step: float = 0.01
    duration: float = 60.0
    seed: int = 0
    gap_offsets: tuple[float, ...] = ()

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("integrator step must be positive")
        for name, period in (("switching.decision_period", self.switching.decision_period),
                             ("detector.sampling_period", self.detector.sampling_period)):
            try:
                _steps_per_period(period, self.step)
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.gap_offsets and len(self.gap_offsets) != self.platoon.vehicle_count - 1:
            raise ValueError("gap_offsets needs one entry per follower")
        if self.attack is not None:
            bad = [i for i in self.attack.targets if i > self.platoon.vehicle_count]
            if bad:
                raise ValueError(f"attack targets {bad} exceed the platoon size")

    @property
    def game(self) -> GameSpec:
        return GameSpec.with_detector(self.leaf_utilities, self.detector)


@dataclass
class DwellState:
    """Mutable supervisor state for one switching unit."""

    mode: str
    entry_time: float = 0.0
    required: float = 0.0
    constants: LyapunovConstants | None = None

    def enter(self, mode: str, now: float, error_state=None, dwell_enforced: bool = True):
        self.mode = mode
        self.entry_time = now
        if mode == CACC and dwell_enforced and self.constants is not None \
                and error_state is not None:
            self.required = min_dwell_time(error_state, error_state, self.constants).enforced
        else:
            self.required = 0.0

    def holding(self, now: float) -> bool:
        return self.mode == CACC and (now - self.entry_time) < self.required


@dataclass(frozen=True)
class ModeEvent:
    time: float
    vehicle: int
    mode: str
    cause: str


@dataclass(frozen=True)
class DecisionEvent:
    time: float
    unit: int
    report: str
    mode: str
    cause: str


@dataclass(frozen=True)
class ReportEvent:
    time: float
    unit: int
    value: str


@dataclass(frozen=True)
class CollisionInfo:
    time: float
    follower: int
    gap: float


@dataclass
class SimTrace:
    """Time-indexed record of one run; all series share the time grid."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    commands: np.ndarray
    modes: np.ndarray  # follower columns, "CACC"/"ACC" codes 0/1
    spacing_errors: np.ndarray
    attack_xi: np.ndarray
    reports: tuple[ReportEvent, ...]
    decisions: tuple[DecisionEvent, ...]
    mode_events: tuple[ModeEvent, ...]
    collision: CollisionInfo | None
    config: ScenarioConfig

    def mode_trace(self, vehicle: int) -> tuple[ModeEvent, ...]:
        """Per-vehicle (timestamp, mode, cause) event sequence."""
        return tuple(e for e in self.mode_events if e.vehicle == vehicle)


@dataclass(frozen=True)
class TraceMetrics:
    """Summary statistics of a run."""

    min_spacing: float
    sup_spacing_errors: tuple[float, ...]
    mode_occupancy: tuple[dict, ...]
    collision: bool
    collision_time: float | None
    string_stable: bool
    string_vacuous: bool
    tol: float

    def as_dict(self) -> dict:
        return {
            "min_spacing": self.min_spacing,
            "sup_spacing_errors": list(self.sup_spacing_errors),
            "mode_occupancy": list(self.mode_occupancy),
            "collision": self.collision,
            "collision_time": self.collision_time,
            "string_stable": self.string_stable,
            "string_vacuous": self.string_vacuous,
            "tol": self.tol,
        }


def switching_decision(spacing_error, report, equilibrium, dwell_state, config, rng,
                       now: float = 0.0, error_rate: float = 0.0, entry_state=None):
    """Mode for one switching unit at a decision instant, with its cause.

    Priority: safety surface (|eps| >= epsilon_max forces radar-only), then
    the dwell hold on an active cooperative interval, then a sample from the
    downgrade policy conditioned on the report.  On a transition into the
    cooperative mode the required dwell is recomputed from the current error
    state -- (spacing_error, error_rate) unless the caller supplies a
    platoon-level ``entry_state`` -- and the online bound estimates the next
    switching state by the current one.  Returns (mode, cause) and updates
    ``dwell_state``.
    """
    eps_max = config.platoon.epsilon_max
    sw = config.switching
    if abs(spacing_error) >= eps_max:
        if dwell_state.mode != ACC:
            dwell_state.enter(ACC, now)
        return ACC, _CAUSE_SAFETY
    if sw.dwell_enforced and dwell_state.holding(now):
        return CACC, _CAUSE_DWELL
    if sw.policy_override is not None:
        p_acc = sw.policy_override[0] if report == "r" else sw.policy_override[1]
    else:
        p_acc = float(equilibrium.defender_p_downgrade_given_r if report == "r"
                      else equilibrium.defender_p_downgrade_given_nr)
    mode = ACC if rng.random() < p_acc else CACC
    if mode != dwell_state.mode:
        dwell_state.enter(mode, now,
                          error_state=entry_state or (spacing_error, error_rate),
                          dwell_enforced=sw.dwell_enforced)
    return mode, _CAUSE_GAME


# Steps in one segment at most.  A collision or a non-finite state is found
# only after the segment is stepped, so this bounds the steps computed past
# one on a run whose inputs rarely change (an unsupervised one, say).
_MAX_SEGMENT = 128


def _steps_per_period(period: float, step: float) -> int:
    """``period`` as a whole number of integrator steps.

    Detector samples and decisions fall on step ticks, so a period that is
    not a whole multiple of the step would silently be rounded to one that is.
    """
    ticks = round(period / step)
    if ticks < 1 or not math.isclose(period, ticks * step, rel_tol=1e-9):
        raise ValueError(f"{period!r} is not a whole multiple of the integrator "
                         f"step {step!r}")
    return ticks


def _first_tick(t: float, h: float) -> int:
    """Smallest step index k >= 0 whose time k * h is at or after ``t``.

    Computed on the same floating-point products the run compares event
    edges against, so an edge such as 0.3 with h = 0.1 lands where
    ``3 * 0.1 >= 0.3`` says it does.
    """
    if t <= 0.0:
        return 0
    k = math.ceil(t / h)
    while k > 0 and (k - 1) * h >= t:
        k -= 1
    while k * h < t:
        k += 1
    return k


def _input_edges(config: ScenarioConfig, steps: int) -> tuple[list[int], range]:
    """Where the exogenous inputs may change value.

    Returns the sorted step ticks in 1..steps at which the leader
    acceleration, the attack window's activity or a table signal's value can
    change, and the range of ticks inside the attack window at which a ramp
    or sinusoid takes a new value every step.
    """
    def tick(t: float) -> int:  # steps + 1 for an edge after the run's end
        return _first_tick(t, config.step) if t <= steps * config.step else steps + 1

    times = [edge for start, end, _ in config.platoon.leader_profile.pulses
             for edge in (start, end)]
    varying = range(0)
    attack = config.attack
    if attack is not None:
        times += attack.window
        if attack.signal.kind == "table":
            times += attack.signal.times
        elif attack.signal.kind in ("ramp", "sinusoid"):
            varying = range(tick(attack.window[0]), tick(attack.window[1]))
    return sorted({tick(t) for t in times} - {0, steps + 1}), varying


class CertificateError(ValueError):
    """Dwell enforcement needs a common Lyapunov certificate and has none."""


def resolve_certificate(cacc: CaccGains, acc: AccGains, lyapunov=None):
    """The two modes' closed-loop matrices, the certificate and its constants.

    P is ``lyapunov`` when given, else the result of the certificate search
    (None when the search finds nothing).  The constants are the worst case,
    the smallest decay rate, over both modes; they are None unless P
    certifies both.  Returns (A_list, P, constants).
    """
    A_list = [assemble_closed_loop(CACC, cacc), assemble_closed_loop(ACC, acc)]
    P = find_common_lyapunov(A_list) if lyapunov is None else lyapunov
    if P is None or not check_common_lyapunov(P, A_list).passed:
        return A_list, P, None
    constants = min((lyapunov_constants(P, A) for A in A_list), key=lambda c: c.lam)
    return A_list, P, constants


# a diverging run is reported once, by the non-finite check on its rows,
# not by a numpy warning from each operation on the overflowed values
@np.errstate(over="ignore", invalid="ignore")
def run_scenario(config: ScenarioConfig) -> SimTrace:
    """Integrate one scenario deterministically.

    The returned trace records every state sample, every detector report,
    every supervisor decision with its cause, and every mode change.  The
    run ends early with a collision marker if any follower's front-to-rear
    gap closes to the vehicle length, and raises FloatingPointError if the
    state leaves the floats.
    """
    config.cacc_gains.validate()
    config.acc_gains.validate()
    platoon = config.platoon
    n = platoon.vehicle_count
    L = platoon.desired_gap
    vehicle_length = platoon.vehicle_length
    h = config.step
    sw = config.switching
    steps = max(1, int(round(config.duration / h)))
    dec_every = _steps_per_period(sw.decision_period, h)
    det_every = _steps_per_period(config.detector.sampling_period, h)
    edges, varying = _input_edges(config, steps)
    eps_max = platoon.epsilon_max
    release_level = sw.hysteresis_release * eps_max

    _, _, constants = resolve_certificate(config.cacc_gains, config.acc_gains,
                                          config.lyapunov)
    if constants is None and sw.enabled and sw.dwell_enforced:
        raise CertificateError("no common Lyapunov certificate for the configured "
                               "gains (none found, or the given one fails); supply "
                               "one or disable dwell enforcement")

    if sw.enabled and sw.policy_override is None:
        equilibrium = equilibrium_strategy(config.game)
    else:
        equilibrium = BehavioralStrategy(None, Fraction(0), Fraction(0))

    seq = np.random.SeedSequence(config.seed)
    detector_rng, decision_rng = [np.random.default_rng(s) for s in seq.spawn(2)]

    # row k of ``states`` is (positions, velocities) at t = k*h; column i of
    # each half is vehicle i+1
    states = np.empty((steps + 1, 2 * n))
    commands = np.empty((steps + 1, n))
    modes_grid = np.empty((steps + 1, n - 1), dtype=np.uint8)
    xi_grid = np.empty(steps + 1)
    pos = states[0, :n]
    pos[0] = 0.0
    offsets = config.gap_offsets or (0.0,) * (n - 1)
    for i in range(1, n):
        pos[i] = pos[i - 1] - L + offsets[i - 1]
    states[0, n:] = platoon.leader_profile.initial_velocity

    per_vehicle = sw.scope == "per-vehicle"
    unit_ids = tuple(range(2, n + 1)) if per_vehicle else (PLATOON_UNIT,)
    units = [DwellState(sw.initial_mode, constants=constants) for _ in unit_ids]
    # the switching unit of each follower column
    unit_of = [units[i if per_vehicle else 0] for i in range(n - 1)]
    latched = np.zeros(n - 1, dtype=bool)  # per-follower safety latch

    attack = config.attack
    cacc = config.cacc_gains
    acc = config.acc_gains
    targeted = [attack is not None and i + 1 in attack.targets for i in range(n)]

    decisions: list[DecisionEvent] = []
    mode_events: list[ModeEvent] = [
        ModeEvent(0.0, i, sw.initial_mode, _CAUSE_INITIAL) for i in range(2, n + 1)
    ]
    collision: CollisionInfo | None = None

    # A report depends on time alone (the attack window, the targets and the
    # detector's own generator), never on the state, so every sampling
    # tick's reports are drawn here, in (tick, unit) order, in one batch:
    # unit u's report at tick j * det_every is drawn[j * len(unit_ids) + u].
    report_ticks = range(0, steps, det_every) if sw.enabled else range(0)
    reached = [attack is not None and (unit == PLATOON_UNIT or unit in attack.targets)
               for unit in unit_ids]  # by the attack, while its window is open
    attacked = [hit and attack.active(j * h) for j in report_ticks for hit in reached]
    drawn = detector_sample(attacked, config.detector, detector_rng) if attacked else []

    def effective_modes() -> np.ndarray:
        """uint8 mode per follower column (0 = cooperative, 1 = radar-only)."""
        radar = np.array([unit.mode == ACC for unit in units])
        return (latched | radar).view(np.uint8)  # one platoon unit broadcasts

    prev_eff = effective_modes()

    def emit_mode_changes(t, cause_map):
        nonlocal prev_eff
        new_eff = effective_modes()
        for idx in (new_eff != prev_eff).nonzero()[0].tolist():
            vehicle = idx + 2
            mode = ACC if new_eff[idx] else CACC
            mode_events.append(ModeEvent(t, vehicle, mode, cause_map.get(vehicle, _CAUSE_GAME)))
        prev_eff = new_eff

    def surface_flags(ahead) -> np.ndarray:
        """Per row of positions and follower: does the safety surface act,
        latching a free follower or releasing a latched one?"""
        e = np.abs(ahead[:, 1:] - ahead[:, :-1] + L)
        return np.where(latched, e <= release_level, e >= eps_max)

    lumped = attack is not None and attack.mode == "lumped-acceleration"
    offset_fields = (attack.message_fields
                     if attack is not None and attack.mode == "message-level"
                     else frozenset())
    off_x = "position" in offset_fields
    off_v = "velocity" in offset_fields
    off_a = "acceleration" in offset_fields

    # Within one step every gated quantity (modes, attack value, leader
    # acceleration) is frozen, so the closed loop is affine: xdot = M x + b
    # with x = (positions, velocities).  The classical fourth-order step on
    # an affine field collapses to x' = Phi x + Psi b with the degree-4
    # Taylor polynomials below, so integration is one cached matrix-vector
    # product per step instead of four controller-chain evaluations.
    ident = np.eye(2 * n)
    step_maps: dict[bytes, tuple] = {}
    segment_maps: dict[tuple, tuple] = {}

    def _accel_rows(pattern) -> np.ndarray:
        """Linear part of the physical-acceleration chain, front to back.

        Row i gives follower i+1's acceleration as a functional of the full
        state; the cooperative feed-forward term chains through the
        predecessor's row, whatever that vehicle's own mode is.
        """
        R = np.zeros((n, 2 * n))
        for i in range(1, n):
            row = R[i]
            if pattern[i - 1] == 0:  # cooperative
                row[i] = cacc.alpha_pred + cacc.alpha_lead
                row[i - 1] -= cacc.alpha_pred
                row[0] -= cacc.alpha_lead
                row[n + i] = cacc.beta_pred + cacc.beta_lead
                row[n + i - 1] -= cacc.beta_pred
                row[n] -= cacc.beta_lead
                row += cacc.gamma_pred * R[i - 1]
            else:  # radar-only
                row[i] = acc.alpha
                row[i - 1] -= acc.alpha
                row[n + i] = acc.beta
                row[n + i - 1] -= acc.beta
        return R

    def _step_map(pattern):
        key = pattern.tobytes()
        cached = step_maps.get(key)
        if cached is None:
            R = _accel_rows(pattern)
            M = np.zeros((2 * n, 2 * n))
            M[:n, n:] = np.eye(n)
            M[n:, :] = R
            M2 = M @ M
            M3 = M2 @ M
            M4 = M3 @ M
            phi = (ident + h * M + (h * h / 2.0) * M2
                   + (h ** 3 / 6.0) * M3 + (h ** 4 / 24.0) * M4)
            psi = h * (ident + (h / 2.0) * M + (h * h / 6.0) * M2
                       + (h ** 3 / 24.0) * M3)
            # b is zero on the position block, so only Psi's velocity columns act
            cached = (R, phi, np.ascontiguousarray(psi[:, n:]))
            step_maps[key] = cached
        return cached

    def _accel_consts(pattern, lead_acc, xi, active) -> np.ndarray:
        """Constant part of the chain for the segment's frozen inputs.

        Message falsification adds the attack value to the selected fields of
        both inbound messages of each victim; a lumped-disturbance attack
        adds it to the victim's physical acceleration instead.  Either way
        the contribution is constant over the segment.
        """
        g = np.empty(n)
        g[0] = lead_acc
        for i in range(1, n):
            hit = active and targeted[i]
            if pattern[i - 1] == 0:  # cooperative
                if hit:
                    ox = xi if off_x else 0.0
                    ov = xi if off_v else 0.0
                    oa = xi if off_a else 0.0
                else:
                    ox = ov = oa = 0.0
                g[i] = (cacc.alpha_pred * (L - ox) - cacc.beta_pred * ov
                        + cacc.gamma_pred * (g[i - 1] + oa)
                        + cacc.alpha_lead * (i * L - ox) - cacc.beta_lead * ov
                        + cacc.gamma_lead * (lead_acc + oa))
                if lumped and hit:
                    g[i] += xi
            else:  # radar-only: immune to transmitted content
                g[i] = acc.alpha * L
        return g

    def _segment_map(pattern, lead_acc, xi, active):
        """(R, Phi, Psi_g, g, Psi_g g, disturbed, pattern, xi) for one set of
        frozen inputs, built once per run.  ``disturbed`` lists the followers
        whose recorded command excludes a nonzero lumped disturbance.  The
        key tells 0.0 from -0.0, which can round a sum differently."""
        key = (pattern.tobytes(), lead_acc, math.copysign(1.0, lead_acc),
               xi, math.copysign(1.0, xi), active)
        cached = segment_maps.get(key)
        if cached is None:
            R, phi, psi_g = _step_map(pattern)
            g = _accel_consts(pattern, lead_acc, xi, active)
            disturbed = [i for i in range(1, n)
                         if lumped and active and targeted[i] and pattern[i - 1] == 0]
            cached = (R, phi, psi_g, g, psi_g @ g, disturbed, pattern, xi)
            segment_maps[key] = cached
        return cached

    # Kept rows, as [first row, end row, segment map, per-row (g, xi) or
    # None]: no step reads a recorded command, so the commands, modes and
    # attack values are written after the run, one span of rows at a time,
    # where consecutive segments with the same map share one span.
    spans: list[list] = []

    def keep(start, stop, segment, per_row=None):
        """Rows start..stop-1 were stepped under ``segment``; each segment
        starts where the last one was cut."""
        if per_row is None and spans and spans[-1][2] is segment and spans[-1][3] is None:
            spans[-1][1] = stop
        else:
            spans.append([start, stop, segment, per_row])

    flips: list[int] = (surface_flags(states[:1, :n])[0].nonzero()[0].tolist()
                        if sw.enabled else [])
    none_latched = True
    k = 0
    while True:
        # -- segment start: the supervisor acts on row k
        final = (k == steps) or (collision is not None)
        if final:
            flips = []  # the final row is recorded before supervision
        t = k * h
        x = states[k]
        decide = sw.enabled and not final and k > 0 and k % dec_every == 0
        if flips or decide:
            pos = x[:n]
            vel = x[n:]
            eps_now = pos[1:] - pos[:-1] + L
            deps_now = vel[1:] - vel[:-1]

        if flips:
            # the safety surface with hysteresis: ``flips`` are the followers
            # the cut scan (or, at t = 0, the first row's test) found acting
            cause_map = {}
            for col in flips:
                if latched[col]:
                    latched[col] = False
                    cause_map[col + 2] = _CAUSE_RELEASE
                    unit = unit_of[col]
                    if unit.mode == CACC:
                        # re-entering the cooperative mode: restart its dwell
                        unit.enter(CACC, t, error_state=(eps_now[col], deps_now[col]),
                                   dwell_enforced=sw.dwell_enforced)
                else:
                    latched[col] = True
                    cause_map[col + 2] = _CAUSE_SAFETY
            none_latched = not latched.any()
            emit_mode_changes(t, cause_map)

        if decide:
            # game/dwell decisions at the decision cadence, on the latest reports
            at = (k // det_every) * len(unit_ids)
            before = [unit.mode for unit in units]
            cause_map = {}
            for u, (unit, state) in enumerate(zip(unit_ids, units)):
                report = drawn[at + u]
                if unit == PLATOON_UNIT:
                    worst = int(abs(eps_now).argmax())
                    s_err = float(eps_now[worst])
                    s_rate = float(deps_now[worst])
                    z = float(np.hypot(eps_now, deps_now).max())
                    entry = (z, 0.0)
                else:
                    s_err = float(eps_now[unit - 2])
                    s_rate = float(deps_now[unit - 2])
                    entry = None
                mode, cause = switching_decision(
                    s_err, report, equilibrium, state,
                    config, decision_rng, now=t, error_rate=s_rate,
                    entry_state=entry,
                )
                decisions.append(DecisionEvent(t, unit, report, mode, cause))
                if unit == PLATOON_UNIT:
                    for i in range(2, n + 1):
                        cause_map[i] = cause
                else:
                    cause_map[unit] = cause
            if [unit.mode for unit in units] != before:
                emit_mode_changes(t, cause_map)

        lead_acc = platoon.leader_profile.acceleration(t)
        xi = attack_signal(attack, t) if attack is not None else 0.0
        active = attack is not None and attack.active(t)
        segment = _segment_map(prev_eff, lead_acc, xi, active)
        if final:
            keep(k, k + 1, segment)
            break
        _, phi, psi_g, g, c, _, frozen, _ = segment

        # -- the segment: no mode changes and no input edge comes before the
        # next decision tick or input edge, so step the affine map alone
        end = min(steps, k + _MAX_SEGMENT)
        if sw.enabled:
            end = min(end, (k // dec_every + 1) * dec_every)
        nxt = bisect.bisect_right(edges, k)
        if nxt < len(edges):
            end = min(end, edges[nxt])
        if k in varying:
            # a ramp or sinusoid takes a new value every step, and the
            # constant part of the map with it
            xis = [xi] + [attack_signal(attack, j * h) for j in range(k + 1, end)]
            gs = [g] + [_accel_consts(frozen, lead_acc, v, active) for v in xis[1:]]
            consts = [c] + [psi_g @ g_j for g_j in gs[1:]]
        else:
            consts = itertools.repeat(c, end - k)
        for x_next, c_j in zip(states[k + 1:end + 1], consts):  # row views
            phi.dot(x, out=x_next)
            x_next += c_j
            x = x_next

        # -- cut the segment at the first row a per-row check acts on; the
        # checks run in this order on each row: finiteness, collision, then
        # (on a supervised run) the safety surface.  A quiet block passes
        # the whole-block test first (see the module docstring); any other
        # is scanned row by row.
        block = states[k + 1:end + 1]
        ahead = block[:, :n]
        gaps = ahead[:, :-1] - ahead[:, 1:]
        low = float(gaps.min())
        high = float(gaps.max())
        flips = []
        if (low > vehicle_length and math.isfinite(x.sum()) and none_latched
                and (not sw.enabled or max(abs(L - low), abs(L - high)) < eps_max)):
            cut = end
        else:
            flags = [~np.isfinite(block).all(axis=1),
                     (gaps <= vehicle_length).any(axis=1)]
            if sw.enabled:
                surface = surface_flags(ahead)
                flags.append(surface.any(axis=1))
            nrows = end - k  # a check that flags no row reads as this
            first = [int(f.argmax()) if f.any() else nrows for f in flags]
            cut = min(first)
            if cut < nrows:
                if first[0] == cut:
                    raise FloatingPointError("integration produced a non-finite state "
                                             f"at t={(k + 1 + cut) * h:.9g} s")
                if first[1] == cut:
                    tight = np.flatnonzero(gaps[cut] <= vehicle_length)
                    worst = int(tight[np.argmin(gaps[cut, tight])])
                    collision = CollisionInfo(time=(k + 1 + cut) * h, follower=worst + 2,
                                              gap=float(gaps[cut, worst]))
                else:
                    flips = surface[cut].nonzero()[0].tolist()
            cut = min(k + 1 + cut, end)
        keep(k, cut, segment, (gs[:cut - k], xis[:cut - k]) if k in varying else None)
        k = cut

    # the kept rows' commands, one matrix-vector product a row: stacked
    # matmul runs the gemv kernel of ``dot`` on each row (a GEMM over the
    # rows would not round the same way); then the frozen inputs
    for start, stop, (R, _, _, g, _, disturbed, frozen, xi), per_row in spans:
        kept = commands[start:stop]
        np.matmul(R, states[start:stop, :, None], out=kept[:, :, None])
        modes_grid[start:stop] = frozen
        if per_row is None:
            kept += g
            xi_grid[start:stop] = xi
            if disturbed and xi != 0.0:
                kept[:, disturbed] -= xi
        else:
            kept += np.array(per_row[0])
            xi_rows = np.array(per_row[1])
            xi_grid[start:stop] = xi_rows
            if disturbed:
                hit_rows = np.flatnonzero(xi_rows != 0.0)
                commands[np.ix_(hit_rows + start, disturbed)] -= xi_rows[hit_rows, None]

    # the reports of the sampling ticks before the final row
    report_keys = itertools.product(range(0, k, det_every), unit_ids)
    reports = tuple(ReportEvent(j * h, unit, value)
                    for (j, unit), value in zip(report_keys, drawn))
    last = k + 1
    positions = states[:last, :n]
    return SimTrace(
        times=np.arange(last) * h,
        positions=positions,
        velocities=states[:last, n:],
        commands=commands[:last],
        modes=modes_grid[:last],
        spacing_errors=positions[:, 1:] - positions[:, :-1] + L,
        attack_xi=xi_grid[:last],
        reports=reports,
        decisions=tuple(decisions),
        mode_events=tuple(mode_events),
        collision=collision,
        config=config,
    )


def commanded_accelerations(config: ScenarioConfig, pos, vel, modes, t: float):
    """Controller evaluation through the message-object interface.

    Builds each follower's inbound traffic explicitly -- predecessor and
    leader messages (falsified when the attack targets the receiver), or a
    radar measurement -- and chains transmitted accelerations front to back.
    ``run_scenario`` integrates an algebraically identical affine form; this
    is the readable reference the property tests hold it against.

    ``modes`` is the follower mode row (0 cooperative, 1 radar-only).
    Returns (commands, physical accelerations), leader entries included.
    """
    plat = config.platoon
    n = plat.vehicle_count
    L = plat.desired_gap
    attack = config.attack
    lumped = attack is not None and attack.mode == "lumped-acceleration"
    xi = attack_signal(attack, t) if attack is not None else 0.0
    u = np.empty(n)
    dv = np.empty(n)
    u[0] = dv[0] = plat.leader_profile.acceleration(t)
    for i in range(2, n + 1):
        own = VehicleState(position=float(pos[i - 1]), velocity=float(vel[i - 1]))
        targeted = attack is not None and i in attack.targets
        if modes[i - 2] == 0:
            pred = NeighborMessage(position=float(pos[i - 2]), velocity=float(vel[i - 2]),
                                   acceleration=float(dv[i - 2]), sender_id=i - 1)
            lead = NeighborMessage(position=float(pos[0]), velocity=float(vel[0]),
                                   acceleration=float(dv[0]), sender_id=1)
            if targeted:
                pred = falsify_message(pred, attack, t)
                lead = falsify_message(lead, attack, t)
            u[i - 1] = cacc_accel(i, own, pred, lead, config.cacc_gains, L)
            dv[i - 1] = u[i - 1] + (xi if (lumped and targeted and attack.active(t))
                                    else 0.0)
        else:
            radar = RadarMeasurement(position=float(pos[i - 2]),
                                     velocity=float(vel[i - 2]))
            u[i - 1] = acc_accel(i, own, radar, config.acc_gains, L)
            dv[i - 1] = u[i - 1]
    return u, dv


def trace_metrics(trace: SimTrace, tol: float = 1e-6) -> TraceMetrics:
    """Exact max/min summaries over the stored grid plus the string verdict.

    The string-stability verdict checks the hop-wise sup-norm ordering
    sup|eps_i| <= sup|eps_{i-1}| + tol for i = 3..N.  A run whose errors
    never exceed tol is a vacuous pass (nothing propagated to compare).
    """
    if trace.times.size == 0:
        raise ValueError("empty trace")
    gaps = trace.positions[:, :-1] - trace.positions[:, 1:]
    sups = tuple(float(s) for s in np.max(np.abs(trace.spacing_errors), axis=0))
    occupancy = tuple(
        {
            CACC: float(np.mean(trace.modes[:, i] == 0)),
            ACC: float(np.mean(trace.modes[:, i] == 1)),
        }
        for i in range(trace.modes.shape[1])
    )
    vacuous = all(s <= tol for s in sups)
    stable = vacuous or all(sups[i] <= sups[i - 1] + tol for i in range(1, len(sups)))
    return TraceMetrics(
        min_spacing=float(np.min(gaps)),
        sup_spacing_errors=sups,
        mode_occupancy=occupancy,
        collision=trace.collision is not None,
        collision_time=None if trace.collision is None else trace.collision.time,
        string_stable=stable,
        string_vacuous=vacuous,
        tol=tol,
    )


def cacc_entry_values(trace: SimTrace, P) -> list[tuple[float, np.ndarray]]:
    """Per-follower V(z) = z'Pz at each cooperative (re)activation instant.

    z is the follower's spacing-error state (eps, eps_rate) sampled on the
    stored grid at the event time.  Activation events are mode changes into
    the cooperative mode caused by the supervisor (not the initial mode).
    """
    P = P.as_matrix() if isinstance(P, LyapunovCandidate) else np.asarray(P, float)
    h = float(trace.times[1] - trace.times[0]) if trace.times.size > 1 else 1.0
    entry_times = sorted({
        e.time for e in trace.mode_events
        if e.mode == CACC and e.cause in (_CAUSE_GAME, _CAUSE_RELEASE)
    })
    out = []
    for t in entry_times:
        idx = int(round(t / h))
        if idx >= trace.times.size:
            continue
        eps = trace.spacing_errors[idx]
        deps = trace.velocities[idx, 1:] - trace.velocities[idx, :-1]
        v = (P[0, 0] * eps * eps + 2.0 * P[0, 1] * eps * deps
             + P[1, 1] * deps * deps)
        out.append((float(trace.times[idx]), v))
    return out


_CSV_FLOAT = repr  # shortest round-trip representation: byte-stable given a seed


def _row_lists(*arrays):
    """The arrays' rows side by side as Python values, converted a block of
    rows at a time so that a writer never holds a whole trace as objects."""
    for k in range(0, len(arrays[0]), 1024):
        yield from zip(*(a[k:k + 1024].tolist() for a in arrays))


def write_trace_csv(trace: SimTrace, path):
    """One row per time step.

    Column order: t; per vehicle i = 1..N: x{i}, v{i}, u{i}; per follower
    i = 2..N: mode{i}; per follower i = 2..N: eps{i}; xi.
    """
    n = trace.positions.shape[1]
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"x{i}", f"v{i}", f"u{i}"]
    header += [f"mode{i}" for i in range(2, n + 1)]
    header += [f"eps{i}" for i in range(2, n + 1)]
    header.append("xi")
    kinematics = np.empty((trace.times.size, 3 * n))
    kinematics[:, 0::3] = trace.positions
    kinematics[:, 1::3] = trace.velocities
    kinematics[:, 2::3] = trace.commands
    mode_names = (CACC, ACC)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for t, xvu, modes, eps, xi in _row_lists(trace.times, kinematics, trace.modes,
                                                 trace.spacing_errors, trace.attack_xi):
            f.write(",".join([_CSV_FLOAT(t), *map(_CSV_FLOAT, xvu),
                              *(mode_names[m] for m in modes),
                              *map(_CSV_FLOAT, eps), _CSV_FLOAT(xi)]) + "\n")


def write_metrics_json(metrics: TraceMetrics, path, extra: dict | None = None):
    payload = metrics.as_dict()
    if extra:
        payload.update(extra)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
