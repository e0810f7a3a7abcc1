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

A mode change records its cause: ``initial``, ``safety-surface`` (the
follower's own error reached the surface), ``safety-release``, ``dwell-hold``,
``game``, or ``safety-broadcast`` for a follower inside the surface moved by a
platoon-scope decision that cites the surface (as that decision does).

Discontinuities (attack window edges, leader profile pulses, mode changes)
take effect only at step boundaries, so every integration step sees a smooth
vector field and the integrator keeps its order.  Attack injection follows
the communication structure: falsified content can only influence a victim
while it runs the communication-based controller; radar-only followers are
immune by construction.

The run advances in segments, split between a supervisor, the switching
signal, and an integrator, the closed loop the signal selects.  A mode can
change only at a decision tick or at a safety-surface crossing, and an
input only at an edge (a leader pulse, the attack window, a step of a table
signal, and every tick inside the window of a ramp or sinusoid, which takes
a new value every step); between those events the closed loop is one affine
map x' = Phi x + c.  So the supervisor acts once at a segment's first row
(latching and releasing followers, then deciding on a decision tick) and
returns the mode pattern, and the segment runs to the first decision tick
whose decision changes a mode, to the next input edge, or to the tick after
the last of ``_MAX_AHEAD`` ticks decided ahead.  The supervisor reads a
row's state as a handful of Python floats, and keeps each decision and mode
event as the tuple of its row and its fields.  The decision rule is pure:
it judges a unit's dwell state and its next decision draw and changes
neither, so the supervisor decides the ticks inside a segment ahead, with
the judge that decides a row, on the pre-drawn reports and decision draws
and on zero spacing errors for the state: a tick that keeps every mode
needs no state, because a dwell hold depends only on its entry time and the
checks below prove every row before a cut inside epsilon_max.  No follower
may be latched while it looks ahead (a latched unit's rule reads the
state).  The decisions made ahead are recorded, with their draws, only once
the run reaches their rows; those at or after the row where the checks cut
the segment are dropped unrecorded, and that row is supervised afresh.

The integrator steps a segment a block of rows at a time, each row from an
anchor rather than from the row before it.  With c = Psi_g g, a run of rows
under one map (one mode pattern and one input interval), from its first
row s0, has the rows x_q = Phi^j x_s + C_j, where j = q - s and
C_j = sum_{i<j} Phi^i c = S_j g, from the anchor
s = max(s0, B * floor((q - 1) / B)), B the capacity of the pattern's power
table: ``_BLOCK`` items, fewer for a large platoon (and a row past the
table's last finite item, on a loop unstable enough to leave the floats
within a block, is anchored that many rows back).  Item j of the table is
T_j = [Phi^j | S_j], so a row is T_j (x_s, g), one matrix-vector product.
A table is built whole, by doubling, when a run first needs its pattern,
and kept for the process.  A block, the rows up to the next multiple of
B, is one BLAS matrix-vector product: the block's items, read
as one matrix of stacked rows, on its anchor's (x_s, g), written in place
into the rows of the state buffer.  BLAS computes the rows of that product
in groups of four, so each item is padded with zero rows to a multiple of
four rows (as is each row of the state buffer, whose state columns are the
trace's): then no group straddles two items, and each item rounds as its
own product whatever the block.  The rows differ in their last bits from
stepping each row from the one before (``tests/oracle.py`` keeps that
recursion as the reference the rows are held to).

The per-row checks (a non-finite state, a collision, a safety-surface
crossing) act on a check span of rows at once, as on the initial row
before the first segment: every row stepped since they last ran, once the
segment ends, or sooner, before a block could take the span past
``_SPAN`` rows (four blocks).  A quiet span passes a test of the whole
span that is exact for floats: the sum of its entries is finite (a span
whose finite entries overflow their sum is only sent to the row scan,
which decides the same), its smallest gap exceeds the vehicle length, the
spacing errors of its two extreme gaps lie inside epsilon_max
(fl(L - gap) is monotone in the gap), and no follower is latched.  Any
other span is scanned row by row and cut at the first row a check acts
on, which the supervisor handles as the next segment's first; the rows
computed past a cut are fewer than ``_SPAN``.  No step reads the recorded
command u = R x + g, so the trace keeps each command span, the rows that
share a map, and builds the commands on first read, one stacked matmul a
command span: numpy runs the same BLAS matrix-vector kernel on each row as
``np.dot(R, x)``, where a matrix-matrix product over the rows would round
differently.  A detector report depends on time alone (the attack window,
the targets and the detector's own generator), never on the state, so
every sampling tick's reports are drawn before the run, in (tick, unit)
order, in one batch from that generator; a decision reads the latest one
by index, and the trace builds its report, decision and mode-event
records on first read, as it does its commands.

A row's anchor, and so its bits, depend on the run's maps alone, not on
where the supervisor cuts the run into segments or the checks into check
spans, and a padded item rounds as its own matrix-vector product whatever
the block.  So every row is computed by the same floating-point
operations, on the same values and in the same order, as when the
supervisor ran on every row: the trace and its outputs are bit-identical
to per-row supervision.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
import math
import numbers
import os
import sys
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from ._entry import EntryError
from .control import (ACC, CACC, V2V, AccGains, CaccGains, DEFAULT_ACC_GAINS,
                      DEFAULT_CACC_GAINS, assemble_closed_loop, closed_loop, law_terms,
                      step_map)
from .game import GameSpec, DEFAULT_GAME, equilibrium_strategy
from .platoon import PlatoonConfig, desired_distance
from .stability import (LyapunovCandidate, LyapunovConstants, check_bibo_lemma1,
                        check_common_lyapunov, find_common_lyapunov, lyapunov_constants,
                        min_dwell_time)
from .threat import REPORT_ATTACK, REPORT_NONE, AttackSpec, attack_signal, detector_sample

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
    "resolve_certificate",
    "run_scenario",
    "trace_metrics",
    "cacc_entry_values",
    "write_trace_csv",
    "write_metrics_json",
    "usable_cpus",
]

PLATOON_UNIT = 0  # unit id used for platoon-scope events (vehicles are 1-based)

_CAUSE_INITIAL = "initial"
_CAUSE_GAME = "game"
_CAUSE_DWELL = "dwell-hold"
_CAUSE_SAFETY = "safety-surface"
_CAUSE_RELEASE = "safety-release"
_CAUSE_BROADCAST = "safety-broadcast"


@dataclass(frozen=True)
class SwitchingConfig:
    """Supervisor behavior: cadence, scope, dwell enforcement, hysteresis.

    ``policy_override`` replaces the game equilibrium with fixed downgrade
    probabilities (given report, given no report) -- useful for ablations
    such as "never switch" or "always radar".  Either way the policy is
    fixed once a run, when the supervisor starts.  ``enabled=False``
    disables the supervisor entirely (no safety surface, no game, so no
    policy is needed): the platoon stays in ``initial_mode``.  A bad
    number raises an ``EntryError`` that names it.
    """

    enabled: bool = True
    decision_period: float = 1.0
    scope: str = "per-vehicle"
    dwell_enforced: bool = True
    hysteresis_release: float = 0.5
    policy_override: tuple[float, float] | None = None
    initial_mode: str = CACC

    def __post_init__(self):
        if not self.decision_period > 0:  # NaN too
            raise EntryError("decision_period",
                             f"decision_period must be positive, got {self.decision_period}")
        if self.scope not in ("per-vehicle", "platoon"):
            raise EntryError("scope", f"unknown switching scope {self.scope!r}")
        if not 0.0 <= self.hysteresis_release <= 1.0:
            raise EntryError("hysteresis_release",
                             "hysteresis_release is a fraction of epsilon_max")
        if self.policy_override is not None:
            try:
                pair = len(self.policy_override) == 2
            except TypeError:  # a bare number, say
                pair = False
            if not pair:
                raise EntryError("policy_override", "policy_override is a pair of "
                                 "probabilities: given a report, given none")
            for k, p in enumerate(self.policy_override):
                if not (isinstance(p, numbers.Real) and 0.0 <= p <= 1.0):
                    raise EntryError(f"policy_override[{k}]",
                                     "policy_override entries must be probabilities")
        if self.initial_mode not in (CACC, ACC):
            raise EntryError("initial_mode", f"unknown initial mode {self.initial_mode!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one deterministic run needs.

    ``game`` is the security game the policy is solved for, and its report
    probabilities are the simulated detector's confusion matrix, so the run
    samples the game it solves.  The detector reports every
    ``sampling_period`` seconds.  Each period and the duration are whole
    multiples of ``step``, and each law's gains are finite with its A
    Hurwitz (``stability.check_bibo_lemma1``); a bad entry raises an
    ``EntryError`` naming it.

    A run's size is judged here too, against ``_RUN_BYTES``, the machine's
    physical memory, since a run that needs more could complete only by
    swapping, if at all; nothing is allocated before.  Whatever its length,
    a run builds at least one mode pattern's closed loop and power table,
    whose bytes (``_pattern_bytes``) grow as the square of the vehicle
    count: a platoon whose one pattern needs more is rejected at
    ``platoon.vehicle_count`` (on 8 GiB, above 5,181 vehicles).  Then
    its duration / step + 1 rows, at the bytes a row costs for the platoon
    (``_row_bytes``), may hold at most ``_RUN_BYTES`` too.  On 8 GiB that
    is about 14.5 million rows of a 4-vehicle platoon (40 hours at a
    0.01 s step).  A larger grid is rejected at ``step``, naming its row
    count.  The two are judged apart: the rows' bound has the margin of an
    upper bound over runs that built their tables, far above a small
    platoon's pattern.
    """

    platoon: PlatoonConfig
    cacc_gains: CaccGains = DEFAULT_CACC_GAINS
    acc_gains: AccGains = DEFAULT_ACC_GAINS
    lyapunov: LyapunovCandidate | None = None  # None: search for a certificate
    attack: AttackSpec | None = None
    game: GameSpec = DEFAULT_GAME
    sampling_period: float = 0.1
    switching: SwitchingConfig = field(default_factory=SwitchingConfig)
    step: float = 0.01
    duration: float = 60.0
    seed: int = 0
    gap_offsets: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.step > 0:  # NaN too
            raise EntryError("step", f"integrator step must be positive, got {self.step}")
        for name in ("duration", "sampling_period"):
            if not getattr(self, name) > 0:
                raise EntryError(name, f"{name} must be positive, got {getattr(self, name)}")
        for name, period in (("switching.decision_period", self.switching.decision_period),
                             ("sampling_period", self.sampling_period),
                             ("duration", self.duration)):
            try:
                _steps_per_period(period, self.step)
            except ValueError as exc:
                raise EntryError(name, f"{name} {exc}", str(exc)) from None
        n = self.platoon.vehicle_count
        pattern = _pattern_bytes(n)
        if pattern > _RUN_BYTES:
            raise EntryError("platoon.vehicle_count",
                             f"a platoon of {n} vehicles needs {pattern} bytes for "
                             f"one mode pattern's closed loop, its step map and a power-table "
                             f"item, more than the machine's {_RUN_BYTES} bytes of memory")
        rows, row = _steps_per_period(self.duration, self.step) + 1, _row_bytes(n)
        if rows * row > _RUN_BYTES:
            raise EntryError("step", f"integrator step {self.step!r} over {self.duration!r} s "
                                     f"makes {rows} rows, which at {row} bytes a row "
                                     f"for {n} vehicles exceed the machine's "
                                     f"{_RUN_BYTES} bytes of memory")
        if self.lyapunov is not None and not isinstance(self.lyapunov, LyapunovCandidate):
            raise EntryError("lyapunov", "lyapunov is a LyapunovCandidate or None, got "
                                         f"{type(self.lyapunov).__name__}")
        if not isinstance(self.seed, numbers.Integral):
            raise EntryError("seed", f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise EntryError("seed", f"seed must be >= 0, got {self.seed}")
        if self.gap_offsets and len(self.gap_offsets) != self.platoon.vehicle_count - 1:
            raise EntryError("gap_offsets", "gap_offsets needs one entry per follower")
        for i, offset in enumerate(self.gap_offsets):
            if not math.isfinite(offset):
                raise EntryError(f"gap_offsets[{i}]", f"gap offsets must be finite, got {offset}")
        if self.attack is not None:
            bad = sorted(i for i in self.attack.targets if i > self.platoon.vehicle_count)
            if bad:
                raise EntryError("attack.targets",
                                 f"attack targets {bad} exceed the platoon size")
        for mode, gains in ((CACC, self.cacc_gains), (ACC, self.acc_gains)):
            k, m = assemble_closed_loop(mode, gains)[1].tolist()
            coefficients = (c for term in law_terms(mode, gains) for c in term[2:])
            if not (all(map(math.isfinite, (k, m, *coefficients)))
                    and check_bibo_lemma1(k, m)["hurwitz"]):
                raise EntryError(f"{mode.lower()}_gains",
                                 f"{mode} gains must be finite, and the sums of the law's "
                                 f"alphas and betas (k={k}, m={m}) both negative: {gains!r}")


@dataclass
class DwellState:
    """Mutable supervisor state for one switching unit.  Entering the
    cooperative mode at error state z holds it for ``min_dwell_time(z)``
    under the certificate's ``constants``; a unit without them (dwell not
    enforced) never holds."""

    mode: str
    entry_time: float = 0.0
    required: float = 0.0
    constants: LyapunovConstants | None = None

    def enter(self, mode: str, now: float, error_state=None):
        self.mode = mode
        self.entry_time = now
        if mode == CACC and self.constants is not None and error_state is not None:
            self.required = min_dwell_time(error_state, self.constants)
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
    """Row-indexed record of one run; all series share the time grid, row k
    at time k * step.

    The commanded accelerations, the report records, the decisions and the
    mode events are built on first read, from ``command_spans``,
    ``drawn_reports``, ``decision_records`` and ``mode_records``, so a run
    that never reads them does not pay for them.  A trace built from arrays
    has no spans; assigning ``commands`` sets them directly.
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    modes: np.ndarray  # follower columns, "CACC"/"ACC" codes 0/1
    spacing_errors: np.ndarray
    attack_xi: np.ndarray
    drawn_reports: list[str]  # every sampling tick's, in (tick, unit) order
    # each decision's and mode event's row k, whose time is k * step, then
    # its other fields, as a tuple in the DecisionEvent and ModeEvent order
    decision_records: tuple[tuple, ...]
    mode_records: tuple[tuple, ...]
    collision: CollisionInfo | None
    config: ScenarioConfig
    # (first row, end row, R, g, disturbed) of each span of rows that shares
    # one command law u = R x + g
    command_spans: tuple

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")  # as in run_scenario
    def commands(self) -> np.ndarray:
        """Each row's commanded accelerations, one column a vehicle.

        One matrix-vector product a row: stacked matmul runs the gemv kernel
        of ``dot`` on each row (a GEMM over the rows would not round the same
        way); then the frozen inputs.  A follower in ``disturbed`` feels a
        lumped disturbance, which acts on the vehicle, not on its command.
        """
        states = np.hstack((self.positions, self.velocities))
        commands = np.empty(self.positions.shape)
        for start, stop, R, g, disturbed in self.command_spans:
            kept = commands[start:stop]
            np.matmul(R, states[start:stop, :, None], out=kept[:, :, None])
            kept += g
            if disturbed:
                # a zero is taken as +0.0, whose subtraction changes no float
                xi = self.attack_xi[start:stop]
                kept[:, disturbed] -= np.where(xi != 0.0, xi, 0.0)[:, None]
        return commands

    @functools.cached_property
    def decisions(self) -> tuple[DecisionEvent, ...]:
        """Every supervisor decision, in order, with its report and cause."""
        h = self.config.step
        return tuple(DecisionEvent(k * h, *fields) for k, *fields in self.decision_records)

    @functools.cached_property
    def mode_events(self) -> tuple[ModeEvent, ...]:
        """Every follower's initial mode, then every mode change, with its cause."""
        h = self.config.step
        return tuple(ModeEvent(k * h, *fields) for k, *fields in self.mode_records)

    @functools.cached_property
    def reports(self) -> tuple[ReportEvent, ...]:
        """Each switching unit's detector report at each sampling tick
        before the final row, built from ``drawn_reports`` on first read."""
        h = self.config.step
        every = _steps_per_period(self.config.sampling_period, h)
        keys = itertools.product(range(0, self.times.size - 1, every), _unit_ids(self.config))
        return tuple(ReportEvent(j * h, unit, value)
                     for (j, unit), value in zip(keys, self.drawn_reports))


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


def switching_decision(spacing_error: float, p_downgrade: float, dwell_state: DwellState,
                       eps_max: float, draw: float, now: float):
    """Mode for one switching unit at a decision instant, with its cause.

    Priority: safety surface (|eps| >= ``eps_max`` forces radar-only), then
    the dwell hold on an active cooperative interval, then the game, which
    downgrades when ``draw``, the unit's next decision draw, falls below
    ``p_downgrade``, the run's policy for the unit's latest report.  Only
    the game consumes the draw.  A pure rule: returns (mode, cause) and
    changes nothing; entering a changed mode is the caller's.
    """
    if abs(spacing_error) >= eps_max:
        return ACC, _CAUSE_SAFETY
    if dwell_state.holding(now):
        return CACC, _CAUSE_DWELL
    return (ACC if draw < p_downgrade else CACC), _CAUSE_GAME


# Rows stepped from one anchor at most: the length of a full power table.
_BLOCK = 128

# Rows stepped before the checks run on them at most, a whole number of
# blocks.  A collision or a non-finite state is found only when they run,
# so this also bounds the rows computed past one.
_SPAN = 4 * _BLOCK

# Decision ticks the supervisor decides ahead of a segment at most.  A check
# that cuts the segment drops those past the cut, so on a run whose every
# row is a tick this bounds the ticks judged in vain.
_MAX_AHEAD = 128

# Bytes of power tables a process keeps, every pattern's together.  One
# table takes at most 1/128 of it (fewer items for a platoon of more than
# six vehicles), unless one item alone is larger: then the table is that
# one item.  So the process keeps about the 128 latest tables, about
# what one run of a 16-vehicle per-vehicle platoon visits, and a table
# costs less to build the larger its platoon.
_TABLE_BYTES = 32 << 20


# Bytes a run may hold at most, its rows costing ``_row_bytes`` each and a
# mode pattern ``_pattern_bytes`` (see ScenarioConfig): the machine's
# physical memory, where the platform reports it, and no bound where it
# does not.
_RUN_BYTES = (os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
              if hasattr(os, "sysconf") else math.inf)


def _row_bytes(n: int) -> int:
    """The bytes a row of a run of n vehicles costs at most: 8 a float of
    its time and attack value, of its padded state row, and of four a
    vehicle (a spacing error, a command, and the copies that reading the
    commands and the metrics make); then 128 a follower, for a decision
    draw, a detector report and a decision record when every row is a tick
    of each.  That is 1.1 to 1.2 times the peak bytes a row ``tracemalloc``
    measured on 4,001-row runs of 2 to 12 vehicles, every row a tick, their
    commands and metrics read."""
    return 8 * (2 + _padded(n) + 4 * n) + 128 * (n - 1)


def _pattern_bytes(n: int) -> int:
    """The bytes one mode pattern of n vehicles costs at most, however long
    the run: its closed loop M, 2n by 2n, the temporaries ``step_map``
    makes on it, and its power table's one item, 2n padded rows by 3n
    columns; 320 bytes a vehicle squared, and 4 KiB.  That is 1.1 to 1.3
    times the peak ``tracemalloc`` measured building them for 8 to 256
    vehicles (about 290 n² bytes, falling to 256 n², the eight 2n-square
    matrices of ``step_map``, as n grows)."""
    return 320 * n * n + 4096


def _padded(n: int) -> int:
    """The rows of a power table's item and of the integrator's state buffer
    for n vehicles: the 2n state rows, then zero rows up to a multiple of
    four.  OpenBLAS's matrix-vector kernel computes the rows of a product in
    groups of four, so only then does no group straddle two items, and each
    item of a block rounds as its own product whatever the block."""
    return -(-2 * n // 4) * 4


def _steps_per_period(period: float, step: float) -> int:
    """``period`` as a whole number of integrator steps.

    Detector samples, decisions and the run's end fall on step ticks, so a
    period (or duration) that is not a whole multiple of the step would
    silently be rounded to one that is; and one of more steps than an index
    can count (an overflowing ratio among them) could size no run.
    """
    if not period / step < sys.maxsize:
        raise ValueError(f"{period!r} spans more steps of {step!r} than a run can index")
    ticks = round(period / step)
    if ticks < 1 or not math.isclose(period, ticks * step, rel_tol=1e-9):
        raise ValueError(f"{period!r} is not a whole multiple of the integrator "
                         f"step {step!r}")
    return ticks


def _input_edges(config: ScenarioConfig, times: np.ndarray) -> list[int]:
    """Where the exogenous inputs may change value: the sorted rows in
    1..steps of the run's grid ``times`` (row k at ``k * step`` up to row
    steps, the times the trace records) at which the leader acceleration,
    the attack window's activity or a table signal's value can change, and
    every row inside the attack window of a ramp or sinusoid, which takes a
    new value every step; the last is ``steps`` itself.

    An instant lands on the first row whose recorded time is at or after it,
    so an edge such as 0.3 with a step of 0.1 lands where ``3 * 0.1 >= 0.3``
    says it does; one after the run's end lands past its last row.
    """
    attack = config.attack
    instants = [*(attack.window if attack is not None else ()),
                *(edge for start, end, _ in config.platoon.leader_profile.pulses
                  for edge in (start, end))]
    if attack is not None and attack.signal.kind == "table":
        instants += attack.signal.times
    rows = np.searchsorted(times, instants).tolist()
    if attack is not None and attack.signal.kind in ("ramp", "sinusoid"):
        rows += range(rows[0], rows[1])  # the window's rows
    return sorted(set(rows) - {0, len(times)} | {len(times) - 1})


class CertificateError(ValueError):
    """Dwell enforcement needs a common Lyapunov certificate and has none."""


class _Memo:
    """Values kept for the process by key, each a function of its key
    alone, so which caller built it changes no bit.  Once the values kept
    cost more than ``limit`` in all, each counted by ``cost``, the oldest
    built go first; the newest always stays."""

    def __init__(self, limit: int, cost=lambda value: 1):
        self.limit = limit
        self.cost = cost
        self.values: dict = {}  # oldest first
        self.total = 0

    def get(self, key, build):
        value = self.values.get(key)
        if value is None:
            value = self.values[key] = build()
            self.total += self.cost(value)
            while self.total > self.limit and len(self.values) > 1:
                self.total -= self.cost(self.values.pop(next(iter(self.values))))
        return value


# Certificates a process keeps, by the reprs of (cacc_gains, acc_gains,
# lyapunov): the latest 128.
_CERTIFICATES = _Memo(128)


def resolve_certificate(config: ScenarioConfig):
    """The certificate of the scenario's two closed loops, its check and its
    constants.

    P is the scenario's ``lyapunov`` when not None, else the result of the
    certificate search (None when the search finds nothing).  The report is
    P checked against both modes' matrices A (None without a P).  The
    constants are the worst case, the smallest decay rate, over both modes;
    they are None unless P certifies both.  Returns (P, report, constants).

    The triple depends on the gains and the given P alone and is made of
    frozen objects, so the process keeps it, a failed search's too, by the
    reprs of the three (which tell apart the signed zeros and the ints that
    == would not), the latest 128 (``_CERTIFICATES``): a ``sweep``'s cells
    and an ensemble's seeds check P and derive its constants once, and
    commands run in one process (``cli.main`` called in a loop) search
    once for their gains.
    """
    key = (repr(config.cacc_gains), repr(config.acc_gains), repr(config.lyapunov))
    return _CERTIFICATES.get(key, lambda: _resolve(config))


def _resolve(config: ScenarioConfig) -> tuple:
    """``resolve_certificate``'s triple, searched and checked afresh."""
    A_list = [assemble_closed_loop(CACC, config.cacc_gains),
              assemble_closed_loop(ACC, config.acc_gains)]
    P = find_common_lyapunov(A_list) if config.lyapunov is None else config.lyapunov
    report = None if P is None else check_common_lyapunov(P, A_list)
    if report is None or not report.passed:
        return P, report, None
    constants = min((lyapunov_constants(P, A) for A in A_list), key=lambda c: c.lam)
    return P, report, constants


def _unit_ids(config: ScenarioConfig) -> tuple[int, ...]:
    """The switching units: one a follower, or the one platoon unit."""
    n = config.platoon.vehicle_count
    return tuple(range(2, n + 1)) if config.switching.scope == "per-vehicle" else (PLATOON_UNIT,)


class _Supervisor:
    """The switching signal of one run: the safety latches, the dwell units,
    the game decisions on the pre-drawn detector reports, and the events
    they emit.  ``act`` supervises a segment's first row and decides the
    ticks after it ahead; ``reach`` records those the run has reached.
    ``quiet`` and ``surface_flags`` give the integrator's checks the safety
    surface.  The state it reads at a row is a handful of floats, so it
    works on Python lists and tuples, and records each event as the tuple
    of its row and its fields."""

    def __init__(self, config: ScenarioConfig, steps: int):
        sw = config.switching
        n = config.platoon.vehicle_count
        constants = None  # only a supervised run with the hold on needs them
        if sw.enabled and sw.dwell_enforced:
            _, _, constants = resolve_certificate(config)
            if constants is None:
                raise CertificateError("no common Lyapunov certificate for the configured "
                                       "gains (none found, or the given one fails); "
                                       "supply one or disable dwell enforcement")
        policy = sw.policy_override
        if policy is None and sw.enabled:
            eq = equilibrium_strategy(config.game)
            policy = (eq.defender_p_downgrade_given_r, eq.defender_p_downgrade_given_nr)
        # report -> downgrade probability; an unsupervised run decides nothing
        self.p_downgrade = ({} if policy is None else
                            {REPORT_ATTACK: float(policy[0]), REPORT_NONE: float(policy[1])})
        self.enabled = sw.enabled
        self.n = n
        self.h = config.step
        self.L = config.platoon.desired_gap
        self.eps_max = config.platoon.epsilon_max
        self.release = sw.hysteresis_release * self.eps_max
        self.dec_every = _steps_per_period(sw.decision_period, self.h)
        self.det_every = _steps_per_period(config.sampling_period, self.h)
        self.unit_ids = _unit_ids(config)
        self.units = [DwellState(sw.initial_mode, constants=constants)
                      for _ in self.unit_ids]
        # the unit that sets each follower column's mode: its own, or the platoon's
        self.column_units = [self.units[min(col, len(self.units) - 1)] for col in range(n - 1)]
        self.latched = [False] * (n - 1)  # per-follower safety latch
        # the effective mode code of each follower column, 1 = radar-only
        self.pattern = (int(sw.initial_mode == ACC),) * (n - 1)
        # (row, unit, report, mode, cause) of each decision and (row,
        # follower, mode, cause) of each mode event
        self.decision_records: list[tuple] = []
        self.mode_records = [(0, i, sw.initial_mode, _CAUSE_INITIAL) for i in range(2, n + 1)]
        # (decision records, draws used after them) of each tick decided
        # ahead by the last ``act``
        self.ahead: list[tuple[list, int]] = []

        seq = np.random.SeedSequence(config.seed)
        detector_rng, decision_rng = [np.random.default_rng(s) for s in seq.spawn(2)]
        # decision ticks are the rows 1..steps-1 that are whole periods
        ticks = (steps - 1) // self.dec_every if sw.enabled else 0
        # one decision draw per (decision tick, unit) bounds the draws a
        # run makes; ``used`` counts those the recorded decisions consumed
        self.draws = decision_rng.random(ticks * len(self.unit_ids)).tolist()
        self.used = 0
        # unit u's report at tick j * det_every is drawn[j * len(unit_ids) + u]:
        # an attack flag per (tick, unit), set while the attack's window is
        # open at the tick's time (the products j * h) and reaches the unit
        attack = config.attack
        times = np.arange(0, steps if sw.enabled else 0, self.det_every) * self.h
        if attack is None:
            attacked = np.zeros(times.size * len(self.unit_ids), dtype=bool)
        else:
            reached = [unit == PLATOON_UNIT or unit in attack.targets for unit in self.unit_ids]
            attacked = np.logical_and.outer(attack.active(times), reached).ravel()
        self.drawn = (detector_sample(attacked, config.game, detector_rng)
                      if attacked.size else [])

    def quiet(self, low: float, high: float) -> bool:
        """Does the safety surface act on no row whose gaps all lie in
        [low, high]?  Exact for floats: fl(L - gap) is monotone in the gap."""
        return not self.enabled or (not any(self.latched) and max(
            abs(self.L - low), abs(self.L - high)) < self.eps_max)

    def surface_flags(self, ahead) -> np.ndarray:
        """Per row of positions and follower: does the safety surface act,
        latching a free follower or releasing a latched one?  It never acts
        on an unsupervised run."""
        e = np.abs(ahead[:, 1:] - ahead[:, :-1] + self.L)
        return np.where(self.latched, e <= self.release, e >= self.eps_max) & self.enabled

    def reach(self, k: int):
        """Record the decisions made ahead at the ticks before row k, which
        the run has reached, with their draws; the rest are never recorded."""
        for records, used in self.ahead:
            if records[0][0] >= k:
                break
            self.decision_records += records
            self.used = used
        self.ahead.clear()

    def act(self, k: int, x, flips: list[int], horizon: int) -> tuple[tuple, int]:
        """Supervise row k, state ``x``: the safety surface with hysteresis
        on the followers in ``flips`` (those the integrator's checks found
        acting on row k), then, on a decision tick, every unit's dwell or
        game decision on its latest report.  Returns the effective mode
        pattern (a code per follower column, 1 = radar-only) the segment
        from row k runs under, and the row where it ends: the first decision
        tick before ``horizon`` whose decision changes a mode, else
        ``horizon``.  The decisions of the ticks before that one are made
        here, ahead."""
        self.reach(k)
        decide = self.enabled and k > 0 and k % self.dec_every == 0
        if flips or decide:
            t = k * self.h
            n, L = self.n, self.L
            row = x.tolist()
            pos, vel = row[:n], row[n:]
            # each entry as the arrays x[1:n] - x[:n - 1] + L and
            # x[n + 1:] - x[n:-1] compute it
            eps = [b - a + L for a, b in zip(pos, pos[1:])]
            deps = [b - a for a, b in zip(vel, vel[1:])]
        causes = {}  # follower -> the cause of the last move of its mode here
        for col in flips:
            if self.latched[col]:
                self.latched[col] = False
                causes[col + 2] = _CAUSE_RELEASE
                unit = self.column_units[col]
                if unit.mode == CACC:
                    # re-entering the cooperative mode: restart its dwell
                    unit.enter(CACC, t, error_state=self._cacc_entry(col, eps, deps))
            else:
                self.latched[col] = True
                causes[col + 2] = _CAUSE_SAFETY
        if decide:
            # each follower's error, or the platoon's worst, the first of equals
            errors = [max(eps, key=abs)] if self.unit_ids[0] == PLATOON_UNIT else eps
            records, self.used = self._judge(k, errors, self.used)
            self.decision_records += records
            for (_, unit, _, mode, cause), state in zip(records, self.units):
                if mode == state.mode:
                    continue
                # the platoon's entry state reads no column
                state.enter(mode, t, error_state=(self._cacc_entry(unit - 2, eps, deps)
                                                  if mode == CACC else None))
                for i in range(2, n + 1) if unit == PLATOON_UNIT else (unit,):
                    inside = cause == _CAUSE_SAFETY and abs(eps[i - 2]) < self.eps_max
                    causes[i] = _CAUSE_BROADCAST if inside else cause
        if causes:  # one record a follower whose mode the row changed
            self._emit(k, causes)
        return self.pattern, self._decide_ahead(k, horizon)

    def _judge(self, k: int, errors, used: int) -> tuple[list, int]:
        """Every unit's decision record at decision tick k, on its spacing
        error in ``errors``, its latest report and its draw after the
        ``used`` ones; and the draws used after them.  Changes no unit."""
        t = k * self.h
        at = (k // self.det_every) * len(self.unit_ids)  # the latest reports
        records = []
        for u, (unit, state, error) in enumerate(zip(self.unit_ids, self.units, errors)):
            report = self.drawn[at + u]
            mode, cause = switching_decision(error, self.p_downgrade[report], state,
                                             self.eps_max, self.draws[used], t)
            if cause == _CAUSE_GAME:
                used += 1
            records.append((k, unit, report, mode, cause))
        return records, used

    def _cacc_entry(self, col: int, eps, deps) -> tuple[float, float]:
        """The error state a unit's move into CACC holds it from: follower
        column ``col``'s own (eps, deps), or for the platoon unit the largest
        of its followers' norms |(eps, deps)| with a zero rate."""
        if self.unit_ids[0] == PLATOON_UNIT:
            return float(np.hypot(eps, deps).max()), 0.0
        return eps[col], deps[col]

    def _decide_ahead(self, k: int, horizon: int) -> int:
        """Decide the ticks after row k and before ``horizon``, at most
        ``_MAX_AHEAD`` of them, until one would change a unit's mode, and
        return that tick, else the tick after the last decided or
        ``horizon``, whichever comes first.

        Each tick's decisions are those its own row would make, unless the
        run is cut before it: a row the checks let stand is inside
        epsilon_max, so the surface rule does not fire, and no mode changes
        before the tick, so each unit's hold and draw are as they will be.
        ``_judge`` changes nothing, so it judges the units themselves.  The
        tick that would change a mode is judged only to end the segment
        there, and decided, from the state, at its own row.  The ticks
        before it wait in ``ahead`` for ``reach``.  A latched follower's rule
        reads the state, so nothing is decided ahead while one is latched.
        """
        if not self.enabled:  # an unsupervised run has no decision tick
            return horizon
        tick = (k // self.dec_every + 1) * self.dec_every
        if any(self.latched):
            return min(tick, horizon)
        horizon = min(horizon, tick + _MAX_AHEAD * self.dec_every)
        used, modes = self.used, [state.mode for state in self.units]
        zeros = [0.0] * len(modes)  # every row before a cut is inside the surface
        for tick in range(tick, horizon, self.dec_every):
            records, used = self._judge(tick, zeros, used)
            if [r[3] for r in records] != modes:
                return tick
            self.ahead.append((records, used))
        return horizon

    def _emit(self, k: int, causes: dict):
        """A mode record for each follower whose effective mode changed on
        row k, with its cause from ``causes``: only a latch, a release or a
        unit's move changes a follower's mode, and each writes its cause."""
        pattern = tuple([int(latched or unit.mode == ACC)
                         for latched, unit in zip(self.latched, self.column_units)])
        for col, (old, new) in enumerate(zip(self.pattern, pattern)):
            if old != new:
                self.mode_records.append((k, col + 2, ACC if new else CACC, causes[col + 2]))
        self.pattern = pattern


class _PowerTable:
    """The powers of one mode pattern's step map, all built at once.

    The fourth-order step on the affine field xdot = M x + b collapses to
    x' = Phi x + Psi b (``control.step_map``); b is zero on the position
    block, so only Psi's velocity columns Psi_g act.  Item j - 1 of
    ``items`` holds T_j = [Phi^j | S_j], S_j = sum_{i<j} Phi^i Psi_g, in its
    2n state rows, so the state j steps after x is T_j (x, g), for the
    constant accelerations g of a segment.  Zero rows pad each item to
    ``_padded(n)`` rows: a block of rows is then one matrix-vector product
    of the block's items, read as one matrix, on the anchor's (x, g), and
    each item rounds in it as its own product.  The constructor builds the
    items by doubling, on their state rows, one stacked matmul a level,
    T_(m+j) = Phi^m T_j + [0 | S_m] for j = 1..m, so each item is a
    function of the pattern's map alone.  The table holds ``_BLOCK`` items,
    or fewer where so many would pass a table's share of ``_TABLE_BYTES``
    (padding counted), and the doubling stops at the first level with an
    entry that is not finite; ``finite`` counts the items before the first
    such item (T_1 is always used).  ``M`` is the pattern's
    ``control.closed_loop`` matrix, and ``R``, its last n rows, the command
    law.
    """

    def __init__(self, M: np.ndarray, h: float):
        n = len(M) // 2
        self.R = M[n:]
        phi, psi = step_map(M, h)
        item = 8 * _padded(n) * 3 * n
        self.items = np.zeros((max(1, min(_BLOCK, _TABLE_BYTES // 128 // item)),
                               _padded(n), 3 * n))
        self.items[0, :2 * n, :2 * n] = phi
        self.items[0, :2 * n, 2 * n:] = psi[:, n:]
        self.nbytes = self.items.nbytes + M.nbytes  # R is a view of M
        items = self.items[:, :2 * n]  # the state rows
        m = 1  # T_1 is always used
        while m < len(items):
            top = min(2 * m, len(items))
            level = items[m:top]
            np.matmul(items[m - 1, :, :2 * n], items[:top - m], out=level)
            level[:, :, 2 * n:] += items[m - 1, :, 2 * n:]
            finite = np.isfinite(level).all(axis=(1, 2))
            if not finite.all():
                m += int(finite.argmin())
                break
            m = top
        self.finite = m


# Power tables kept for the process, by (gains, step, vehicle count, mode
# pattern), within ``_TABLE_BYTES`` counting every item a table holds.
_TABLES = _Memo(_TABLE_BYTES, lambda table: table.nbytes)


class _Integrator:
    """The closed loop a mode pattern selects, stepped a block of rows at a
    time.

    Within one step every gated quantity (modes, attack value, leader
    acceleration) is frozen, so the closed loop is affine: xdot = M x + b
    with x = (positions, velocities).  M is the pattern's
    ``control.closed_loop``, in error coordinates a cascade of the
    certificate's A, and b sums each follower's constant terms from
    ``control.law_terms``.  The fourth-order step on an affine field
    collapses to x' = Phi x + Psi b, and a row is a power of that map
    applied to its anchor (see the module docstring).
    """

    def __init__(self, config: ScenarioConfig, steps: int):
        platoon = config.platoon
        attack = config.attack
        n = platoon.vehicle_count
        self.n = n
        self.h = config.step
        self.L = platoon.desired_gap
        self.vehicle_length = platoon.vehicle_length
        self.leader = platoon.leader_profile
        # per mode code (0 cooperative, 1 radar-only): the law's terms, and
        # whether it reads V2V (and so feels an attack)
        self.gains = (config.cacc_gains, config.acc_gains)
        self.laws = [law_terms(mode, gains) for mode, gains in zip((CACC, ACC), self.gains)]
        self.exposed = [any(term.channel == V2V for term in terms) for terms in self.laws]
        # repr tells apart the signed zeros and the ints that == would not
        self.table_key = (repr(config.cacc_gains), repr(config.acc_gains), self.h, n)
        self.attack = attack
        self.times = np.arange(steps + 1) * self.h  # row k's time, as the trace records it
        self.edges = _input_edges(config, self.times)
        self.targeted = [attack is not None and i + 1 in attack.targets for i in range(n)]
        self.lumped = attack is not None and attack.mode == "lumped-acceleration"
        fields = (attack.message_fields
                  if attack is not None and attack.mode == "message-level" else ())
        self.offsets = tuple(f in fields for f in ("position", "velocity", "acceleration"))
        self.segment_maps: dict[tuple, tuple] = {}
        # Kept rows, as [first row, end row, R, g, xi, disturbed, pattern]
        self.spans: list[list] = []

        # row k of ``states`` is (positions, velocities) at t = k*h; column i
        # of each half is vehicle i+1.  It is the state columns of
        # ``buffer``, whose rows are as long as a power table's items, so a
        # block's product writes its rows there in place.
        self.buffer = np.empty((steps + 1, _padded(n)))
        self.states = self.buffer[:, :2 * n]
        pos = self.states[0, :n]
        pos[0] = 0.0
        offsets = config.gap_offsets or (0.0,) * (n - 1)
        for i in range(1, n):
            pos[i] = pos[i - 1] - self.L + offsets[i - 1]
        self.states[0, n:] = self.leader.initial_velocity

    def _accel_consts(self, pattern, lead_acc, xi, active, disturbed) -> np.ndarray:
        """Constant part of the chain for the segment's frozen inputs.

        Message falsification adds the attack value to the selected fields of
        a victim's V2V readings; a lumped-disturbance attack adds it to the
        acceleration of each follower in ``disturbed``.  A radar term is
        immune.  Each sum starts from its first product, in the law's term
        order.
        """
        L = self.L
        forged = tuple(xi if on else 0.0 for on in self.offsets)
        g = [float(lead_acc)]  # floats round as the array's float64 entries do
        for i, code in enumerate(pattern, start=1):
            terms = self.laws[code]
            hit = active and self.targeted[i]
            u = None
            for term in terms:
                j = term.sender(i + 1) - 1
                ox, ov, oa = forged if hit and term.channel == V2V else (0.0, 0.0, 0.0)
                part = term.alpha * (desired_distance(i, j, L) - ox)
                u = part if u is None else u + part
                u -= term.beta * ov
                u += term.gamma * (g[j] + oa)
            g.append(u + xi if i in disturbed else u)
        return np.array(g)

    def _table(self, pattern) -> _PowerTable:
        """The pattern's power table, from the process's tables.  A run
        looks it up a segment at a time and keeps no table: a run through
        many patterns would otherwise hold every table it used."""
        return _TABLES.get((*self.table_key, pattern),
                           lambda: _PowerTable(closed_loop(pattern, *self.gains), self.h))

    def _segment_map(self, pattern, k: int, interval: int):
        """(R, g, disturbed, xi) for the inputs of row k, which hold from
        the input edge before it to the next (``interval`` counts the edges
        at or before row k); built once per run for each pattern and
        interval.  ``disturbed`` lists the followers whose recorded command
        excludes a nonzero lumped disturbance."""
        key = (pattern, interval)
        cached = self.segment_maps.get(key)
        if cached is None:
            t = k * self.h
            attack = self.attack
            active = attack is not None and attack.active(t)
            # a lumped attack acts on a targeted follower whose law reads V2V
            disturbed = [i for i in range(1, self.n) if self.lumped and active
                         and self.targeted[i] and self.exposed[pattern[i - 1]]]
            xi = attack_signal(attack, t) if attack is not None else 0.0
            g = self._accel_consts(pattern, self.leader.acceleration(t), xi, active,
                                   disturbed)
            cached = (self._table(pattern).R, g, disturbed, xi)
            self.segment_maps[key] = cached
        return cached

    def check(self, first: int, last: int, supervisor: _Supervisor):
        """The per-row checks on rows first..last: finiteness, collision,
        then the safety surface, in this order on each row (see the module
        docstring).  Raises FloatingPointError on a non-finite row; returns
        the first row a check acts on, else ``last``, with the collision
        there (or None) and the followers the surface acts on there."""
        block = self.states[first:last + 1]
        ahead = block[:, :self.n]
        gaps = ahead[:, :-1] - ahead[:, 1:]
        # a row from an anchor may leave the floats while later rows do not,
        # so the whole block is summed; a finite block whose sum overflows
        # only goes to the row scan, which decides the same
        low = float(gaps.min())
        if (low > self.vehicle_length and supervisor.quiet(low, float(gaps.max()))
                and math.isfinite(block.sum())):
            return last, None, []
        surface = supervisor.surface_flags(ahead)
        flags = (~np.isfinite(block).all(axis=1), (gaps <= self.vehicle_length).any(axis=1),
                 surface.any(axis=1))
        hits = [int(f.argmax()) if f.any() else len(block) for f in flags]
        cut = min(hits + [len(block) - 1])  # with no flag, the last row and no event
        row = first + cut
        if hits[0] == cut:
            raise FloatingPointError("integration produced a non-finite state "
                                     f"at t={row * self.h:.9g} s")
        if hits[1] == cut:
            tight = np.flatnonzero(gaps[cut] <= self.vehicle_length)
            worst = int(tight[np.argmin(gaps[cut, tight])])
            return row, CollisionInfo(time=row * self.h, follower=worst + 2,
                                      gap=float(gaps[cut, worst])), []
        return row, None, surface[cut].nonzero()[0].tolist()

    def horizon(self, k: int) -> tuple[int, int]:
        """The input interval of row k (the count of input edges at or
        before it) and the last row a segment from row k may reach: the
        next input edge."""
        interval = bisect.bisect_right(self.edges, k)
        return interval, self.edges[interval]

    def advance(self, k: int, end: int, pattern, interval: int, supervisor: _Supervisor):
        """Step from row k toward row ``end`` under ``pattern`` and row k's
        inputs, in input interval ``interval``, a block at a time, keep the
        rows ``check`` lets stand, and return its (row, collision, flips):
        the next segment starts there.  A block runs to the next multiple of
        the table's length, each row from its anchor: that multiple before
        it, or the first row of the run of rows under this map if later.
        Past a table's last finite item, a row's anchor is as many rows
        back as the table has finite items, so each is a block of its own.
        The checks run once on all the rows stepped since they last ran:
        at ``end``, or before the next block could take those rows past
        ``_SPAN``.
        """
        R, g, disturbed, xi = self._segment_map(pattern, k, interval)
        span = self.spans[-1] if self.spans and self.spans[-1][3] is g else None
        first = k if span is None else span[0]  # the same constant inputs go on
        table = self._table(pattern)
        items = table.items
        block, reach = len(items), table.finite
        row = checked = k
        while True:
            base = row - row % block
            anchor = max(first, base, row + 1 - reach)
            stop = min(end, base + block, anchor + reach)
            z = np.concatenate((self.states[anchor], g))
            np.dot(items[row - anchor:stop - anchor].reshape(-1, z.size), z,
                   out=self.buffer[row + 1:stop + 1].reshape(-1))
            row = stop
            if row == end or row + block - checked > _SPAN:
                cut, collision, flips = self.check(checked + 1, row, supervisor)
                if cut < row or collision is not None or flips or row == end:
                    break
                checked = row
        if span is None:
            self.spans.append([k, cut, R, g, xi, disturbed, pattern])
        else:
            span[1] = cut
        return cut, collision, flips

    def record(self, last: int, pattern) -> dict:
        """Keep the final row under ``pattern``, then return the trace's
        series over rows 0..last and its command law on each span of them
        (``SimTrace.commands`` builds the commands from it)."""
        R, g, disturbed, xi = self._segment_map(
            pattern, last, bisect.bisect_right(self.edges, last))
        self.spans.append([last, last + 1, R, g, xi, disturbed, pattern])
        states = self.states[:last + 1]
        # the spans run back to back from row 0, each under one pattern and xi
        lengths = [stop - start for start, stop, *_ in self.spans]
        modes = np.repeat(np.array([span[6] for span in self.spans], np.uint8), lengths, axis=0)
        xis = np.repeat(np.array([span[4] for span in self.spans], np.float64), lengths)
        positions = states[:, :self.n]
        # the differences one long loop a column, over the rows of a C-ordered
        # transpose, not a short loop a row
        columns = positions.T
        spacing_errors = np.subtract(columns[1:], columns[:-1], order="C")
        spacing_errors += self.L
        return dict(times=self.times[:last + 1], positions=positions,
                    velocities=states[:, self.n:], modes=modes,
                    spacing_errors=spacing_errors.T,
                    attack_xi=xis,
                    command_spans=tuple((start, stop, R, g, disturbed)
                                        for start, stop, R, g, _, disturbed, _ in self.spans))


# a diverging run is reported once, by the non-finite check on its rows,
# not by a numpy warning from each operation on the overflowed values
@np.errstate(over="ignore", invalid="ignore")
def run_scenario(config: ScenarioConfig) -> SimTrace:
    """Integrate one scenario deterministically.

    The returned trace records every state sample, every detector report,
    every supervisor decision with its cause, and every mode change.  The
    run ends early with a collision marker if any follower's front-to-rear
    gap closes to the vehicle length, and raises FloatingPointError if the
    state leaves the floats.  It judges no input: the config did when it was
    built.
    """
    steps = _steps_per_period(config.duration, config.step)
    supervisor = _Supervisor(config, steps)
    integrator = _Integrator(config, steps)
    k, collision, flips = integrator.check(0, 0, supervisor)
    while k < steps and collision is None:
        interval, horizon = integrator.horizon(k)
        pattern, end = supervisor.act(k, integrator.states[k], flips, horizon)
        k, collision, flips = integrator.advance(k, end, pattern, interval, supervisor)
    # the final row is recorded before supervision, and decides nothing
    supervisor.reach(k)
    return SimTrace(
        **integrator.record(k, supervisor.pattern),
        drawn_reports=supervisor.drawn,
        decision_records=tuple(supervisor.decision_records),
        mode_records=tuple(supervisor.mode_records),
        collision=collision,
        config=config,
    )


def trace_metrics(trace: SimTrace, tol: float = 1e-6) -> TraceMetrics:
    """Exact max/min summaries over the stored grid plus the string verdict.

    The string-stability verdict checks the hop-wise sup-norm ordering
    sup|eps_i| <= sup|eps_{i-1}| + tol for i = 3..N.  A run whose errors
    never exceed tol is a vacuous pass (nothing propagated to compare).
    """
    if trace.times.size == 0:
        raise ValueError("empty trace")
    # Each reduction runs over the columns as rows of a C-ordered transpose:
    # one long loop a column, where a reduction over axis 0 runs a short
    # loop a row.  A minimum, a maximum or a count does not depend on order.
    positions = trace.positions.T
    gaps = np.subtract(positions[:-1], positions[1:], order="C")
    sups = tuple(np.abs(trace.spacing_errors.T, order="C").max(axis=1).tolist())
    # a share is a count of mode codes 1 (radar-only) or 0 over the rows,
    # as exact as the mean of 0s and 1s it equals
    rows = trace.modes.shape[0]
    radar = [int(np.count_nonzero(column)) for column in trace.modes.T]
    occupancy = tuple({CACC: (rows - r) / rows, ACC: r / rows} for r in radar)
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


def cacc_entry_values(trace: SimTrace, P: LyapunovCandidate) -> list[tuple[float, np.ndarray]]:
    """Per-follower V(z) = z'Pz at each cooperative (re)activation instant.

    z is the follower's spacing-error state (eps, eps_rate) at the event's
    row.  Activation events are mode changes into the cooperative mode
    caused by the supervisor (not the initial mode).
    """
    P = P.as_matrix()
    rows = sorted({k for k, _, mode, cause in trace.mode_records
                   if mode == CACC and cause in (_CAUSE_GAME, _CAUSE_RELEASE)})
    # every entry row at once, each entry by the same operations in the same order
    eps = trace.spacing_errors[rows]
    vel = trace.velocities[rows]
    deps = vel[:, 1:] - vel[:, :-1]
    v = (P[0, 0] * eps * eps + 2.0 * P[0, 1] * eps * deps
         + P[1, 1] * deps * deps)
    return list(zip(trace.times[rows].tolist(), v))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (a container or ``taskset`` may allow fewer than the host has),
    else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _one_ahead(stage, items):
    """Yield ``stage(item)`` for each of ``items``, in order.

    With two or more items and CPUs, one worker thread runs the stage on the
    next item while the caller uses the current one's result, never more
    than one item ahead; an exception the stage raises is raised here, at
    its item, and the worker has ended by the time this generator is done or
    closed.  On one CPU the threads could only take turns, so the stage runs
    in the calling thread.
    """
    if len(items) < 2 or usable_cpus() < 2:
        yield from map(stage, items)
        return
    go, done = threading.Semaphore(0), threading.Semaphore(0)
    slot = [None]  # the worker's latest (result, exception)
    stop = False

    def work():
        for item in items:
            go.acquire()
            if stop:
                return
            try:
                slot[0] = stage(item), None
            except BaseException as exc:  # raised in the caller's thread
                slot[0] = None, exc
            done.release()

    worker = threading.Thread(target=work, name="platoonsec-writer", daemon=True)
    worker.start()
    go.release()
    try:
        for i in range(len(items)):
            done.acquire()
            result, exc = slot[0]
            slot[0] = None
            if exc is not None:
                raise exc
            if i + 1 < len(items):
                go.release()
            yield result
            del result  # before the next result arrives
    finally:
        stop = True
        go.release()
        worker.join()


# Rows formatted and written at a time.  A batch's distinct floats go through
# the formatter in one call, whose fixed cost (about 0.2 ms) wants large
# batches; its arrays (about 100 bytes a value, and the gather's index, 192
# bytes a value in chunks of 1,024) and a file's padded cells (25 bytes each)
# want small ones, as the heap keeps the first batch's high-water mark for the
# process.  On crash_defended at seed 0 (2 vCPUs), with the two stages run
# one after the other, 1,024-row batches wrote the files in 0.82 of the time
# of 256-row ones; 512-row batches took 0.86 and 2,048-row batches 0.82, at
# a traced peak of 3.70 MB.  With one batch formatted while the one before
# is written, two batches are alive at once: the writer's traced peak there
# is 2.5 to 2.7 MB, against 1.9 to 2.0 MB with the stages in one thread.
_FORMAT_ROWS = 1024
# Cells the output stage assembles and writes at a time, 200 KB of padded
# text (409 rows of a 4-vehicle trace.csv, a whole batch of a .dat file).
# Whole batches of trace.csv, beside the next batch's formatting, peaked at
# 3.5 MB; blocks of 4,096 cells peaked at 2.6 MB, but took 5% longer, as
# each numpy call of the output stage may wait for the interpreter lock.
_OUTPUT_CELLS = 8192
# a cell's bytes: its text, NUL-padded to 24 (the longest repr), then its separator
_CELL = 25


def write_trace_csv(trace: SimTrace, path, spacing_path=None, velocity_path=None):
    """Write the trace as CSV, one row per time step, and, when their paths
    are given, the gnuplot-style spacing (t, eps{i}) and velocity (t, v{i})
    files: space-separated, under a ``#`` header.

    CSV column order: t; per vehicle i = 1..N: x{i}, v{i}, u{i}; per follower
    i = 2..N: mode{i}; per follower i = 2..N: eps{i}; xi.

    Every float is written as its ``repr``, the shortest string that reads
    back to the same double, so the files are byte-stable given a seed.  The
    files are written together, a batch of ``_FORMAT_ROWS`` = 1,024 rows at
    a time, in two stages.  The formatting stage deduplicates the batch's
    floats by bit pattern (which keeps 0.0 and -0.0 apart), formats each
    distinct value once into one table of bytes, and finds each cell's row
    in it.  The output stage assembles the batch's lines of each of the
    three files from that table and writes them, ``_OUTPUT_CELLS`` = 8,192
    cells at a time.  Most printed floats are repeats: the spacing and
    velocity files repeat CSV columns, and the leader's speed and command,
    the attack value and converged followers stay the same from row to
    row.  (A ``crash_defended`` run prints 312,026 floats, of which 102,032
    are distinct within their batch.)

    The stages of one batch depend on nothing of another's, so one worker
    thread runs the formatting stage of the next batch while the calling
    thread runs the output stage of the current one (``_one_ahead``), at
    most one batch ahead: the files are written in batch order, byte for
    byte as when the stages run one after the other, and an exception in
    either stage is raised here.  Where the process may use one CPU only,
    both stages run in the calling thread, one after the other.

    The table is built as bytes, with no Python object for any value or
    line: one ``_CELL`` = 25-byte row a text, the two mode names and then
    the distinct floats, each NUL-padded to 24 bytes, the longest ``repr``.
    A file's batch is the gather of its cells' rows, with each cell's last
    byte set to the separator (``\n`` for a line's last cell); no text holds
    a NUL, so dropping the NULs leaves the batch's lines.

    A batch's distinct floats are formatted in one numpy pass,
    ``_floatfmt.shortest``, byte-equal to ``repr``.  It is exact by
    construction: each value is scaled by a power of ten into [1e16, 2e17)
    as a double-double whose error is below 1e-13, its rounding interval
    (half an ulp on each side) is scaled the same way, and the shortest
    digits are the multiple of the largest power of ten inside that
    interval, the one nearest the value, found on ``int64``.  Only two
    comparisons of a real with an integer could go either way: a bound of
    the interval and a tie between two nearest multiples.  A value that
    comes within 1e-7 of either (where the scaling is inexact; an exact
    bound on an integer is decided by the significand's parity, as ``repr``
    decides it), and every 0.0, -0.0, inf, nan, subnormal and magnitude
    outside about 1e-38..1e38, goes to ``repr`` instead (12 of the 102,032
    above: each batch's 0.0).
    """
    # imported on first use, so that a caller that writes no trace does not
    # load (and, without bytecode caches, compile) the formatter
    from ._floatfmt import shortest

    n = trace.positions.shape[1]
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"x{i}", f"v{i}", f"u{i}"]
    header += [f"mode{i}" for i in range(2, n + 1)]
    header += [f"eps{i}" for i in range(2, n + 1)]
    header.append("xi")
    # A batch's cells: its float columns t, x/v/u per vehicle, eps, xi, then
    # the follower modes.  Each file's lines pick their columns from these.
    floats = 4 * n + 1
    eps = slice(3 * n + 1, floats - 1)
    files = [(path, ",", ",".join(header),
              np.r_[0:3 * n + 1, floats:floats + n - 1, eps, floats - 1]),
             (spacing_path, " ", "# t " + " ".join(header[-n:-1]), np.r_[0, eps]),
             (velocity_path, " ", "# t " + " ".join(header[2:3 * n + 1:3]),
              np.r_[0, 2:3 * n + 1:3])]
    names = np.zeros((2, _CELL), np.uint8)  # the mode names, codes 0 and 1
    for code, name in enumerate((CACC, ACC)):
        names[code, :len(name)] = np.frombuffer(name.encode(), np.uint8)
    # the files written, each with the last byte of each of a line's cells
    files = [(p, head, cols, np.r_[np.full(len(cols) - 1, ord(sep)), ord("\n")].astype(np.uint8))
             for p, sep, head, cols in files if p is not None]
    # built on first read, so read here: the worker only reads arrays
    commands = trace.commands

    def formatted(k: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """The formatting stage of the batch from row k: its table of
        texts, and for each file the rows in it of the file's cells."""
        rows = slice(k, k + _FORMAT_ROWS)
        t = trace.times[rows]
        batch = np.empty((t.size, floats))
        batch[:, 0] = t
        batch[:, 1:3 * n + 1:3] = trace.positions[rows]
        batch[:, 2:3 * n + 1:3] = trace.velocities[rows]
        batch[:, 3:3 * n + 1:3] = commands[rows]
        batch[:, eps] = trace.spacing_errors[rows]
        batch[:, -1] = trace.attack_xi[rows]
        bits, index = np.unique(batch.view(np.int64).ravel(), return_inverse=True)
        cells = np.empty((t.size, floats + n - 1), np.intp)
        np.add(index.reshape(batch.shape), 2, out=cells[:, :floats])
        cells[:, floats:] = trace.modes[rows]
        del batch, index  # before the formatter's arrays
        # one NUL-padded text a row: the mode names, then the distinct floats
        table = np.zeros((2 + bits.size, _CELL), np.uint8)
        table[:2] = names
        shortest(bits.view(np.float64), table[2:])
        return table, [cells[:, cols] for _, _, cols, _ in files]

    with contextlib.ExitStack() as stack:
        outs = []
        for p, head, cols, seps in files:
            f = stack.enter_context(open(p, "wb"))
            f.write(head.encode() + b"\n")
            # the rows of a block of at most _OUTPUT_CELLS cells
            outs.append((f, seps, max(1, _OUTPUT_CELLS // len(cols))))
        batches = stack.enter_context(contextlib.closing(
            _one_ahead(formatted, range(0, trace.times.size, _FORMAT_ROWS))))
        for table, cells in batches:
            # the output stage, a file a block of rows at a time
            for (f, seps, block), lines in zip(outs, cells):
                for b in range(0, len(lines), block):
                    text = np.take(table, lines[b:b + block], axis=0)
                    text[:, :, -1] = seps
                    # text holds no NUL, so dropping the padding joins the cells
                    f.write(text[text != 0])
            del table, cells, lines  # before the worker's next batch arrives


def write_metrics_json(metrics: TraceMetrics, path, extra: dict):
    """Write the metrics and the ``extra`` entries as one JSON object, keys sorted."""
    payload = asdict(metrics)
    payload.update(extra)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
