"""End-to-end behavior of the switched-platoon simulation engine."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import platoonsec.cli
import platoonsec.engine
from platoonsec._entry import EntryError
from platoonsec.control import ACC, CACC, DEFAULT_CACC_GAINS, AccGains, CaccGains, closed_loop
from platoonsec.config import load_scenario
from platoonsec.engine import (PLATOON_UNIT, CertificateError, CollisionInfo, DwellState,
                               ReportEvent, ScenarioConfig, SwitchingConfig, _Supervisor,
                               _input_edges, cacc_entry_values, resolve_certificate,
                               run_scenario, switching_decision,
                               trace_metrics, write_metrics_json, write_trace_csv)
from platoonsec.game import DEFAULT_GAME, BehavioralStrategy, equilibrium_strategy
from platoonsec.platoon import LeaderProfile, PlatoonConfig
from platoonsec.stability import (LyapunovCandidate, lyapunov_constants,
                                  min_dwell_time)
from platoonsec.threat import (AttackSignal, AttackSpec, attack_signal,
                              detector_sample)

from oracle import commanded_accelerations, run_row_by_row

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
P_REF = LyapunovCandidate(1.0, 0.154297, 1.57813)
A_CACC = np.array([[0.0, 1.0], [-1.58, -2.51]])

NO_SWITCH = SwitchingConfig(enabled=False)


def make_platoon(n=4, eps_max=4.0, pulses=(), v0=20.0):
    return PlatoonConfig(
        vehicle_count=n, desired_gap=10.0, vehicle_length=4.5,
        epsilon_max=eps_max,
        leader_profile=LeaderProfile(initial_velocity=v0, pulses=tuple(pulses)),
    )


def crash_attack(window=(10.0, 40.0)):
    """Forged kinematics: +2 on every field of both inbound message streams."""
    return AttackSpec(targets={3}, mode="message-level",
                      signal=AttackSignal(kind="constant", amplitude=2.0),
                      xi_max=2.0, window=window)


# ------------------------------------------------------------------ stepper

def leading_hop_error(step, duration=1.0, offset=3.0):
    """Vehicle 2's spacing-error state behind a cruising leader, integrated by
    the engine and in closed form: it follows zdot = A z exactly."""
    trace = run_scenario(ScenarioConfig(
        platoon=make_platoon(n=2, eps_max=5.0), gap_offsets=(offset,),
        switching=NO_SWITCH, step=step, duration=duration))
    z = np.array([trace.spacing_errors[-1, 0],
                  trace.velocities[-1, 1] - trace.velocities[-1, 0]])
    w, V = np.linalg.eig(A_CACC)
    exact = (V @ np.diag(np.exp(w * duration)) @ np.linalg.inv(V)).real @ [offset, 0.0]
    return np.linalg.norm(z - exact)


def test_engine_step_exponential_accuracy():
    assert leading_hop_error(0.1) < 1e-5 * 3.0


def test_engine_step_is_fourth_order():
    ratio = leading_hop_error(0.1) / leading_hop_error(0.05)
    assert 12.0 < ratio < 20.0  # halving h divides the error by ~2^4


def test_row_zero_is_checked_like_every_other_row():
    """The initial state goes through the per-row checks: a follower that
    starts within the vehicle length has collided at t = 0, and a
    non-finite initial state is reported at t = 0."""
    config = ScenarioConfig(platoon=make_platoon(n=2), gap_offsets=(5.8,),
                            step=0.1, duration=5.0)
    trace = run_scenario(config)
    assert trace.times.size == 1
    assert trace.collision == CollisionInfo(time=0.0, follower=2,
                                            gap=float(trace.positions[0, 0]
                                                      - trace.positions[0, 1]))
    assert trace.collision.gap == pytest.approx(4.2)
    assert trace.reports == () and trace.decisions == ()
    assert {e.cause for e in trace.mode_events} == {"initial"}
    # each offset is finite, but the third vehicle's position overflows
    with pytest.raises(FloatingPointError, match=r"non-finite state at t=0 s"):
        run_scenario(dataclasses.replace(config, platoon=make_platoon(n=3),
                                         gap_offsets=(1e308, 1e308)))


def _traced_names():
    """``bench/tracer.py``'s WRAPPED table, loaded by path: module -> the
    names its traced pass wraps."""
    spec = importlib.util.spec_from_file_location(
        "tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def _count_calls(monkeypatch, module):
    """Wrap each traced name of ``module`` with a call counter."""
    calls = dict.fromkeys(_traced_names()[module], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_run_looks_up_the_traced_engine_names_at_call_time(monkeypatch):
    """``bench/tracer.py`` times the layers of a run by wrapping these
    ``engine`` module globals, so a run must call each of them through the
    module: a name bound at import time would read as zero time, and a
    renamed one would fail the traced pass."""
    monkeypatch.setattr(platoonsec.engine, "_CERTIFICATES",
                        platoonsec.engine._Memo(128))  # a search to count
    calls = _count_calls(monkeypatch, platoonsec.engine)
    run_scenario(load_scenario(CONFIGS / "crash_defended.json"))
    assert calls and all(calls.values()), calls


def test_simulate_looks_up_the_traced_cli_names_at_call_time(monkeypatch, tmp_path):
    """The ``cli`` half of the same table: a ``simulate`` command calls each
    wrapped name through the ``cli`` module."""
    calls = _count_calls(monkeypatch, platoonsec.cli)
    assert platoonsec.cli.main(["simulate", "--config", str(CONFIGS / "crash_defended.json"),
                                "--out", str(tmp_path)]) == 0
    assert calls and all(calls.values()), calls


def test_a_run_that_holds_no_dwell_resolves_no_certificate(monkeypatch):
    """Only the dwell hold of a supervised run reads the certificate, so a
    run without one does not search for it."""
    def no_search(A_list):
        raise AssertionError("certificate search on a run that holds no dwell")

    monkeypatch.setattr(platoonsec.engine, "_CERTIFICATES",
                        platoonsec.engine._Memo(128))  # none resolved yet
    monkeypatch.setattr(platoonsec.engine, "find_common_lyapunov", no_search)
    baseline = load_scenario(CONFIGS / "crash_baseline.json")  # unsupervised
    defended = load_scenario(CONFIGS / "crash_defended.json")
    assert baseline.lyapunov is None and defended.lyapunov is None
    no_hold = dataclasses.replace(
        defended, duration=20.0,
        switching=dataclasses.replace(defended.switching, dwell_enforced=False))
    assert run_scenario(baseline).collision is not None
    assert run_scenario(no_hold).decisions
    with pytest.raises(AssertionError, match="certificate search"):
        run_scenario(dataclasses.replace(defended, duration=1.0))


def test_engine_rejects_bad_step_and_divergence():
    with pytest.raises(ValueError):
        ScenarioConfig(platoon=make_platoon(), step=0.0)
    stiff = ScenarioConfig(platoon=make_platoon(), acc_gains=AccGains(-1e160, -1e160),
                           switching=SwitchingConfig(enabled=False, initial_mode=ACC),
                           gap_offsets=(1.0, 0.0, 0.0), step=0.1, duration=5.0)
    with pytest.raises(FloatingPointError, match="non-finite state at t="):
        run_scenario(stiff)


@pytest.mark.parametrize("mode, gains", [
    (CACC, {"cacc_gains": dataclasses.replace(DEFAULT_CACC_GAINS, gamma_pred=math.inf)}),
    (CACC, {"cacc_gains": dataclasses.replace(DEFAULT_CACC_GAINS, gamma_lead=math.nan)}),
    (ACC, {"acc_gains": AccGains(-math.inf, -1.0)}),
    # each term finite, but k1 = alpha_pred + alpha_lead overflows to -inf
    (CACC, {"cacc_gains": CaccGains(-1e308, -1.0, 0.5, -1e308, -1.0, 0.5)}),
], ids=["gamma_pred-inf", "gamma_lead-nan", "alpha-inf", "k1-overflow"])
def test_non_finite_gains_are_blamed_on_their_mode(mode, gains):
    """An API caller's non-finite gain is rejected when the config is built,
    naming its mode, not blamed on the integrator or the certificate search."""
    base = load_scenario(CONFIGS / "benign_switching.json")
    with pytest.raises(ValueError, match=f"^{mode} gains must be finite") as err:
        dataclasses.replace(base, **gains)
    assert err.value.path == f"{mode.lower()}_gains"


@pytest.mark.parametrize("n", range(2, 9))
@np.errstate(over="ignore", invalid="ignore")  # as in run_scenario
def test_stacked_matmul_rounds_like_per_row_dot(n):
    """The engine records a segment's commands with one stacked matmul over
    its rows; each row must hold the bytes of ``np.dot(R, x)``, the product
    a per-step loop computes.  A numpy or BLAS build whose stacked matmul
    takes another kernel fails here instead of changing traces silently."""
    rng = np.random.default_rng(n)
    R = rng.normal(size=(n, 2 * n)) * 10.0 ** rng.integers(-3, 4, size=(n, 2 * n))
    for rows in (1, 2, 5, 50, 128):
        # the engine's layout: a block of rows inside a longer state array
        states = rng.normal(scale=50.0, size=(rows + 3, 2 * n))
        states[1 + rows // 2, n - 1] = np.inf
        states[rows, 0] = np.nan
        states[1, 2 * n - 1] = -np.inf
        block = states[1:1 + rows]
        commands = np.zeros((rows + 3, n))
        np.matmul(R, block[:, :, None], out=commands[1:1 + rows, :, None])
        stacked = np.stack([np.dot(R, x) for x in block])
        assert commands[1:1 + rows].tobytes() == stacked.tobytes(), rows


@pytest.mark.parametrize("n", range(2, 17))
@np.errstate(over="ignore", invalid="ignore")  # as in run_scenario
def test_stacked_powers_round_like_per_row_dot(n):
    """A block's rows are one matrix-vector product of the table's items,
    read as one matrix, on its anchor's state and the segment's constants,
    written in place into rows of the padded state buffer.  Each item must
    hold the bytes of its own ``np.dot``, whatever the block's first item
    and length: else a row's bits would depend on where a segment is cut.
    BLAS computes the rows in groups of four, so this holds for an odd
    vehicle count only because the items are padded."""
    rows = platoonsec.engine._padded(n)
    assert rows % 4 == 0 and 0 <= rows - 2 * n < 4
    rng = np.random.default_rng(n)
    scale = 10.0 ** rng.integers(-3, 4, size=(128, 1, 1))
    items = np.zeros((128, rows, 3 * n))
    items[:, :2 * n] = rng.normal(size=(128, 2 * n, 3 * n)) * scale
    items[7, 1, 2] = np.nan
    z = rng.normal(scale=50.0, size=3 * n)
    z[n] = np.inf
    states = np.zeros((130, rows))  # the engine's layout: rows of a longer array
    for anchor in (z, rng.normal(size=3 * n)):
        for a, b in ((0, 1), (0, 128), (5, 77), (76, 77), (127, 128)):
            block = states[2:2 + b - a]
            np.dot(items[a:b].reshape(-1, 3 * n), anchor, out=block.reshape(-1))
            own = np.stack([np.dot(item, anchor) for item in items[a:b]])
            assert block.tobytes() == own.tobytes(), (a, b)


def _table(config, pattern):
    """A fresh power table of ``config``'s gains and step."""
    return platoonsec.engine._PowerTable(
        closed_loop(pattern, config.cacc_gains, config.acc_gains), config.step)


@np.errstate(over="ignore", invalid="ignore")  # as in run_scenario
def test_power_table_ends_at_its_last_finite_power():
    """A pattern's table counts its items only up to the first that leaves
    the floats, so a diverging run still names the first row that does:
    row 47 here, as in the oracle test's example; a step map that is not
    finite itself is used, and the run stops on its first row.  A stable
    pattern's table is finite in every item once it is built."""
    stable = _table(ScenarioConfig(platoon=make_platoon(n=3)), (0, 1))
    assert stable.finite == len(stable.items) == platoonsec.engine._BLOCK
    assert np.isfinite(stable.items).all()
    diverging = ScenarioConfig(
        platoon=make_platoon(n=2, pulses=[(4.7, 5.0, -1.0)]), acc_gains=AccGains(-1e3, -1e3),
        gap_offsets=(1.0,), switching=SwitchingConfig(enabled=False, initial_mode=ACC),
        step=0.1, duration=30.0)
    table = _table(diverging, (1,))
    finite = table.finite
    assert 16 < finite < len(table.items)
    assert np.isfinite(table.items[:finite]).all()
    assert not np.isfinite(table.items[finite]).all()
    with pytest.raises(FloatingPointError, match=r"non-finite state at t=4.7 s"):
        run_scenario(diverging)
    stiff = dataclasses.replace(diverging, acc_gains=AccGains(-1e160, -1e160))
    table = _table(stiff, (1,))
    assert table.finite == 1 and not np.isfinite(table.items[0]).all()
    with pytest.raises(FloatingPointError, match=r"non-finite state at t=0.1 s"):
        run_scenario(stiff)


def test_a_quiet_block_is_finite_in_every_row(monkeypatch):
    """The quiet test sums the whole block: a row computed from an anchor
    can leave the floats while the rows after it are finite again, so the
    last row alone proves nothing.  A finite block whose sum overflows is
    sent to the row scan, which finds nothing to act on."""
    config = ScenarioConfig(platoon=make_platoon(n=3), switching=NO_SWITCH, step=0.1,
                            duration=1.0)
    supervisor = _Supervisor(config, 10)
    integrator = platoonsec.engine._Integrator(config, 10)
    integrator.states[:] = integrator.states[0]  # at rest, every row quiet
    scans = []
    flags = supervisor.surface_flags
    monkeypatch.setattr(supervisor, "surface_flags", lambda ahead: scans.append(1) or flags(ahead))
    assert integrator.check(1, 10, supervisor) == (10, None, []) and not scans
    integrator.states[4, 4] = np.inf
    with pytest.raises(FloatingPointError, match=r"non-finite state at t=0.4 s"):
        integrator.check(1, 10, supervisor)
    integrator.states[4, 4] = integrator.states[0, 4]
    integrator.states[5:7, 3:] = 1e308
    with np.errstate(over="ignore"):
        assert integrator.check(1, 10, supervisor) == (10, None, [])
    assert len(scans) == 2


def test_power_tables_stay_within_their_bound(monkeypatch):
    """The process keeps at most ``_TABLE_BYTES`` of power tables, counting
    every item a table holds: a large per-vehicle platoon, whose
    followers switch into many patterns, each table of fewer than
    ``_BLOCK`` items, passes the bound only by evicting the oldest."""
    memo = platoonsec.engine._Memo(platoonsec.engine._TABLE_BYTES, lambda table: table.nbytes)
    monkeypatch.setattr(platoonsec.engine, "_TABLES", memo)
    peaks = []
    get = memo.get

    def measured(key, build):
        table = get(key, build)
        peaks.append(memo.total)
        return table

    monkeypatch.setattr(memo, "get", measured)
    config = ScenarioConfig(
        platoon=make_platoon(n=40), lyapunov=_P_BENIGN, step=0.01, duration=2.0,
        switching=SwitchingConfig(decision_period=0.01, dwell_enforced=False,
                                  policy_override=(0.5, 0.5)))
    trace = run_scenario(config)
    patterns = len(np.unique(trace.modes, axis=0))
    assert len(memo.values) < patterns
    assert max(peaks) <= platoonsec.engine._TABLE_BYTES
    assert all(len(table.items) < platoonsec.engine._BLOCK for table in memo.values.values())


def test_a_run_does_not_depend_on_the_tables_built_before_it(monkeypatch):
    """Power tables outlive runs.  An item is computed the same way
    whichever run first needed its table, so a run records the same bytes
    from fresh tables as from tables other runs built."""
    config = dataclasses.replace(_DEFENDED, duration=30.0)
    monkeypatch.setattr(platoonsec.engine, "_TABLES",
                        platoonsec.engine._Memo(platoonsec.engine._TABLE_BYTES,
                                                lambda table: table.nbytes))
    fresh = _outcome(config)
    run_scenario(dataclasses.replace(config, seed=7, duration=60.0))
    assert _outcome(config) == fresh


def test_a_run_does_not_depend_on_the_certificates_resolved_before_it(monkeypatch):
    """Certificates outlive runs too: a run that finds its certificate kept
    records the same bytes as one that searches for it."""
    memo = platoonsec.engine._Memo(128)
    monkeypatch.setattr(platoonsec.engine, "_CERTIFICATES", memo)
    fresh = _outcome(_DEFENDED)
    assert len(memo.values) == 1
    assert _outcome(_DEFENDED) == fresh  # a warm memo
    assert len(memo.values) == 1


def _counted_searches(monkeypatch) -> list:
    """Give the process a fresh certificate memo, and list each search."""
    monkeypatch.setattr(platoonsec.engine, "_CERTIFICATES", platoonsec.engine._Memo(128))
    searches = []
    search = platoonsec.engine.find_common_lyapunov

    def counting(A_list):
        searches.append(A_list)
        return search(A_list)

    monkeypatch.setattr(platoonsec.engine, "find_common_lyapunov", counting)
    return searches


def test_a_kept_certificate_is_the_triple_a_search_gives(monkeypatch):
    """Scenarios that share their gains and given P, whatever else differs,
    search once, and each gets the triple a cold resolution gives."""
    searches = _counted_searches(monkeypatch)
    cold = resolve_certificate(_DEFENDED)
    assert cold[2] is not None and len(searches) == 1
    other = dataclasses.replace(_DEFENDED, seed=3, duration=5.0, attack=None)
    assert resolve_certificate(other) is cold
    assert len(searches) == 1
    monkeypatch.setattr(platoonsec.engine, "_CERTIFICATES", platoonsec.engine._Memo(128))
    assert resolve_certificate(other) == cold
    assert len(searches) == 2


def test_certificates_are_kept_by_the_exact_gains_and_given_p(monkeypatch):
    """A signed zero, an int for a float and a given P for a searched one
    each make an entry of their own, as they make a power table of their
    own."""
    searches = _counted_searches(monkeypatch)
    base = ScenarioConfig(platoon=make_platoon())
    found = resolve_certificate(base)[0]
    variants = [
        dataclasses.replace(base, cacc_gains=dataclasses.replace(DEFAULT_CACC_GAINS,
                                                                 gamma_lead=0.0)),
        dataclasses.replace(base, cacc_gains=dataclasses.replace(DEFAULT_CACC_GAINS,
                                                                 gamma_lead=-0.0)),
        dataclasses.replace(base, acc_gains=AccGains(-0.25, -1)),
        dataclasses.replace(base, lyapunov=found),
    ]
    for config in variants:
        resolve_certificate(config)
    assert len(platoonsec.engine._CERTIFICATES.values) == 5
    assert len(searches) == 4  # the given P is checked, not searched for
    assert resolve_certificate(variants[-1])[0] is found


def test_the_certificate_memo_keeps_the_latest_entries(monkeypatch):
    _counted_searches(monkeypatch)
    monkeypatch.setattr(platoonsec.engine, "_CERTIFICATES", platoonsec.engine._Memo(3))
    configs = [ScenarioConfig(platoon=make_platoon(), lyapunov=dataclasses.replace(P_REF, p11=p))
               for p in (1.0, 1.1, 1.2, 1.3, 1.4)]
    for config in configs:
        resolve_certificate(config)
    memo = platoonsec.engine._CERTIFICATES.values
    assert [key[2] for key in memo] == [repr(c.lyapunov) for c in configs[2:]]


# --------------------------------------------------------------- validation

def test_scenario_validation():
    plat = make_platoon()
    with pytest.raises(ValueError):
        ScenarioConfig(platoon=plat, step=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(platoon=plat, step=0.5,
                       switching=SwitchingConfig(decision_period=0.1))
    with pytest.raises(ValueError):
        ScenarioConfig(platoon=plat, duration=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(platoon=plat, gap_offsets=(1.0,))
    with pytest.raises(ValueError):
        ScenarioConfig(platoon=plat, attack=AttackSpec(targets={9}))
    # event periods are counted in whole steps; 0.015 s is not one
    with pytest.raises(ValueError, match="sampling_period"):
        ScenarioConfig(platoon=plat, step=0.01, sampling_period=0.015)
    with pytest.raises(ValueError, match="decision_period"):
        ScenarioConfig(platoon=plat, step=0.01,
                       switching=SwitchingConfig(decision_period=0.025))
    with pytest.raises(ValueError, match="sampling_period"):
        ScenarioConfig(platoon=plat, step=0.2)  # the default 0.1 s is half a step
    # so is the duration: 1.005 s would end at 1.00 s, 0.004 s after a full step
    for duration in (1.005, 0.015, 0.004):
        with pytest.raises(ValueError, match="^duration "):
            ScenarioConfig(platoon=plat, step=0.01, duration=duration)
    # float quotients such as 0.3 / 0.1 = 2.9999999999999996 still fit
    ScenarioConfig(platoon=plat, step=0.1, sampling_period=0.3)


def test_a_run_is_judged_by_the_bytes_its_rows_cost(monkeypatch):
    """A 4-vehicle row costs 592 bytes, so on a machine of 1 GiB a run
    holds 1,813,753 rows: a duration of 1,813,752 steps is accepted, one
    step more is not, and neither is a step of 1e-9 over 30 s."""
    plat = make_platoon()
    monkeypatch.setattr(platoonsec.engine, "_RUN_BYTES", 1 << 30)
    assert platoonsec.engine._row_bytes(4) == 592
    assert platoonsec.engine._RUN_BYTES // 592 == 1_813_753
    ScenarioConfig(platoon=plat, step=0.01, duration=18137.52)
    for step, duration, rows in ((0.01, 18137.53, 1_813_754), (1e-9, 30.0, 30_000_000_001)):
        with pytest.raises(ValueError, match=f"makes {rows} rows, which at 592 bytes") as err:
            ScenarioConfig(platoon=plat, step=step, duration=duration)
        assert err.value.path == "step"
    # more vehicles cost more a row
    with pytest.raises(ValueError, match="for 40 vehicles exceed"):
        ScenarioConfig(platoon=make_platoon(n=40, eps_max=4.0), step=0.01, duration=18137.52)


def test_a_platoon_is_judged_by_the_bytes_a_pattern_costs(monkeypatch):
    """One mode pattern of n vehicles costs 320 n² + 4,096 bytes, however
    short the run: on a machine of 1 GiB a platoon holds 1,831 vehicles and
    not 1,832, and a 100,000-vehicle platoon over one step, whose rows
    alone would fit, is refused at its vehicle count before anything is
    allocated."""
    monkeypatch.setattr(platoonsec.engine, "_RUN_BYTES", 1 << 30)
    assert platoonsec.engine._pattern_bytes(1831) <= 1 << 30 < \
        platoonsec.engine._pattern_bytes(1832)
    ScenarioConfig(platoon=make_platoon(n=1831), step=0.01, duration=0.01)
    for n in (1832, 100_000):
        assert 2 * platoonsec.engine._row_bytes(n) < 1 << 30
        tracemalloc.start()
        try:
            with pytest.raises(EntryError) as err:
                ScenarioConfig(platoon=make_platoon(n=n), step=0.01, duration=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.path == "platoon.vehicle_count"
        assert str(err.value) == (f"a platoon of {n} vehicles needs {320 * n * n + 4096} bytes "
                                  "for one mode pattern's closed loop, its step map and a "
                                  "power-table item, more than the machine's 1073741824 bytes "
                                  "of memory")
        assert peak < 1 << 20


@pytest.mark.parametrize("make, name", [
    (lambda: ScenarioConfig(platoon=make_platoon(), step=float("nan")), "integrator step"),
    (lambda: ScenarioConfig(platoon=make_platoon(), duration=float("nan")), "duration"),
    (lambda: SwitchingConfig(decision_period=float("nan")), "decision_period"),
], ids=["step", "duration", "decision_period"])
def test_a_nan_is_blamed_on_its_field(make, name):
    """A NaN passes a ``<= 0`` check; it must be rejected as the field it is."""
    with pytest.raises(ValueError, match=f"^{name} must be positive, got nan$"):
        make()


def test_switching_validation():
    with pytest.raises(ValueError):
        SwitchingConfig(scope="fleet")
    with pytest.raises(ValueError):
        SwitchingConfig(decision_period=0.0)
    with pytest.raises(ValueError):
        SwitchingConfig(policy_override=(0.5, 1.5))
    with pytest.raises(ValueError):
        SwitchingConfig(hysteresis_release=1.5)
    with pytest.raises(ValueError):
        SwitchingConfig(initial_mode="coast")


def test_unstable_gain_family_needs_explicit_certificate():
    config = ScenarioConfig(
        platoon=make_platoon(),
        cacc_gains=CaccGains.from_aggregate(-100.0, -0.1),
        acc_gains=AccGains(alpha=-0.01, beta=-20.0),
        duration=1.0,
    )
    with pytest.raises(CertificateError, match="no common Lyapunov certificate"):
        run_scenario(config)
    # without dwell enforcement the same scenario runs
    relaxed = dataclasses.replace(
        config, switching=SwitchingConfig(dwell_enforced=False))
    run_scenario(relaxed)
    # a given matrix that does not certify both modes is no certificate either
    with pytest.raises(CertificateError):
        run_scenario(ScenarioConfig(platoon=make_platoon(), duration=1.0,
                                    lyapunov=LyapunovCandidate(1.0, 0.0, 1.0)))


@pytest.mark.parametrize("switching, solves", [
    (SwitchingConfig(), 1),
    (SwitchingConfig(policy_override=(0.5, 0.5)), 0),
    (NO_SWITCH, 0),
], ids=["game", "override", "unsupervised"])
def test_game_is_solved_for_the_simulated_detector(monkeypatch, switching, solves):
    """A game-driven run solves the game its detector samples once; a run
    with a fixed policy, or with no supervisor, never solves it."""
    game = dataclasses.replace(DEFAULT_GAME, p_report_given_attack=0.95,
                               p_report_given_benign=0.01)
    config = ScenarioConfig(platoon=make_platoon(), duration=2.0, switching=switching,
                            game=game)
    assert game.p_report_given_attack == Fraction(19, 20)
    assert game.p_report_given_benign == Fraction(1, 100)
    solved, sampled = [], []
    monkeypatch.setattr(platoonsec.engine, "equilibrium_strategy",
                        lambda spec: solved.append(spec) or equilibrium_strategy(spec))
    monkeypatch.setattr(platoonsec.engine, "detector_sample",
                        lambda attacked, spec, rng: sampled.append(spec)
                        or detector_sample(attacked, spec, rng))
    run_scenario(config)
    assert solved == [game] * solves
    assert sampled == [game] * switching.enabled  # an unsupervised run draws no report


# ----------------------------------------------------------- basic dynamics

def test_equilibrium_start_stays_at_rest():
    config = ScenarioConfig(platoon=make_platoon(), switching=NO_SWITCH,
                            duration=5.0)
    trace = run_scenario(config)
    assert np.max(np.abs(trace.spacing_errors)) < 1e-10
    assert np.max(np.abs(trace.commands[:, 1:])) < 1e-10
    assert trace.collision is None
    # velocities stay at the leader's cruise speed
    assert np.allclose(trace.velocities, 20.0, atol=1e-10)


def test_leader_pulse_tracked_through_feedforward():
    """The acceleration feed-through gains sum to one, so a fully cooperative
    platoon replays the leader's maneuver with essentially zero spacing
    error -- the broadcast acceleration acts as a perfect feedforward."""
    config = ScenarioConfig(
        platoon=make_platoon(pulses=[(2.0, 4.0, -2.0)]),
        switching=NO_SWITCH, duration=60.0,
    )
    trace = run_scenario(config)
    # the pulse slows the leader by 4 m/s and everyone follows
    assert trace.velocities[-1, 0] == pytest.approx(16.0, abs=1e-9)
    assert np.all(np.abs(trace.velocities[-1] - 16.0) < 1e-6)
    assert np.max(np.abs(trace.spacing_errors)) < 1e-6


def test_time_grid_and_shapes():
    config = ScenarioConfig(platoon=make_platoon(n=3), switching=NO_SWITCH,
                            step=0.02, duration=1.0)
    trace = run_scenario(config)
    assert trace.times.shape == (51,)
    assert trace.times[0] == 0.0 and trace.times[-1] == pytest.approx(1.0)
    assert trace.positions.shape == (51, 3)
    assert trace.modes.shape == (51, 2)
    assert trace.spacing_errors.shape == (51, 2)


# -------------------------------------------------------------- determinism

def test_same_seed_reproduces_bitwise():
    config = ScenarioConfig(platoon=make_platoon(), duration=10.0, seed=7,
                            attack=crash_attack(window=(2.0, 8.0)))
    a = run_scenario(config)
    b = run_scenario(config)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.modes, b.modes)
    assert a.reports == b.reports
    assert a.decisions == b.decisions
    assert a.mode_events == b.mode_events


def test_different_seed_changes_stochastic_layers():
    base = ScenarioConfig(platoon=make_platoon(), duration=10.0, seed=0)
    other = dataclasses.replace(base, seed=1)
    a, b = run_scenario(base), run_scenario(other)
    assert [r.value for r in a.reports] != [r.value for r in b.reports]


# ---------------------------------------------------------- attack coupling

def test_radar_only_platoon_ignores_forged_messages():
    """With every follower on radar control the V2V channel is dead: an
    arbitrary message-level attack cannot move a single sample."""
    kw = dict(
        platoon=make_platoon(pulses=[(1.0, 2.0, -1.0)]),
        switching=SwitchingConfig(initial_mode=ACC, policy_override=(1.0, 1.0)),
        duration=15.0, seed=3,
    )
    clean = run_scenario(ScenarioConfig(**kw))
    attacked = run_scenario(ScenarioConfig(attack=crash_attack(window=(0.0, 15.0)), **kw))
    assert np.array_equal(clean.positions, attacked.positions)
    assert np.array_equal(clean.velocities, attacked.velocities)
    assert np.array_equal(clean.commands, attacked.commands)
    assert np.max(np.abs(attacked.attack_xi)) == 2.0  # the attack did run


def test_lumped_disturbance_equals_acceleration_field_forgery():
    """With the feed-forward gains summing to one, offsetting only the
    acceleration field of both inbound messages is the same disturbance as
    adding xi to the victim's physical acceleration."""
    plat = make_platoon()
    sig = AttackSignal(kind="sinusoid", amplitude=1.0, frequency=0.2)
    lumped = AttackSpec(targets={3}, mode="lumped-acceleration", signal=sig,
                        xi_max=1.0, window=(2.0, 18.0))
    forged = AttackSpec(targets={3}, mode="message-level", signal=sig,
                        xi_max=1.0, window=(2.0, 18.0),
                        message_fields={"acceleration"})
    kw = dict(platoon=plat, switching=NO_SWITCH, duration=20.0)
    a = run_scenario(ScenarioConfig(attack=lumped, **kw))
    b = run_scenario(ScenarioConfig(attack=forged, **kw))
    assert np.allclose(a.positions, b.positions, atol=1e-9)
    assert np.allclose(a.velocities, b.velocities, atol=1e-9)


def test_commands_exclude_lumped_disturbance():
    """The recorded command is the controller output; the lumped disturbance
    perturbs the physical acceleration, not the commanded one."""
    plat = make_platoon()
    spec = AttackSpec(targets={3}, mode="lumped-acceleration",
                      signal=AttackSignal(kind="constant", amplitude=1.0),
                      xi_max=1.0, window=(0.0, 5.0))
    trace = run_scenario(ScenarioConfig(platoon=plat, attack=spec,
                                        switching=NO_SWITCH, duration=5.0))
    k = 100  # t = 1.0, mid-attack
    u, dv = commanded_accelerations(trace.config, trace.positions[k],
                                    trace.velocities[k], trace.modes[k],
                                    trace.times[k])
    assert dv[2] - u[2] == pytest.approx(1.0)
    assert np.allclose(trace.commands[k], u, atol=1e-9)


def test_affine_integration_matches_message_interface():
    """The cached affine step must agree with the explicit message-passing
    controller evaluation on every sampled row, attacked rows included."""
    config = ScenarioConfig(
        platoon=make_platoon(pulses=[(1.0, 3.0, -1.5)]),
        attack=crash_attack(window=(5.0, 12.0)),
        duration=15.0, seed=11,
    )
    trace = run_scenario(config)
    for k in range(0, trace.times.size, 157):
        u, _ = commanded_accelerations(config, trace.positions[k],
                                       trace.velocities[k], trace.modes[k],
                                       trace.times[k])
        assert np.allclose(trace.commands[k], u, atol=1e-9), f"row {k}"


# A small platoon over a short horizon, drawn so that every branch of the
# supervisor and every input kind shows up: both scopes, lumped and
# message-level attacks, each signal kind, pulse and window edges off the
# decision and step grids, and initial gaps past the safety surface.
_P_BENIGN = LyapunovCandidate(1.0, 0.7593734335839599, 0.9585116102515634)
_edge_time = st.floats(0.0, 4.0).flatmap(
    lambda t: st.sampled_from([t, round(t, 1)]))


@st.composite
def oracle_scenarios(draw):
    n = draw(st.integers(2, 4))
    step = draw(st.sampled_from([0.02, 0.05, 0.1]))
    eps_max = draw(st.floats(0.5, 5.0))
    pulses = tuple((s, s + d, a) for s, d, a in draw(st.lists(
        st.tuples(_edge_time, st.floats(0.05, 3.0), st.floats(-3.0, 3.0)), max_size=2)))
    attack = None
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["constant", "ramp", "sinusoid", "table"]))
        table = sorted(draw(st.lists(_edge_time, min_size=1, max_size=3)))
        signal = AttackSignal(kind=kind, amplitude=draw(st.floats(-1.0, 4.0)),
                              rate=draw(st.floats(-2.0, 2.0)), frequency=0.4, phase=0.3,
                              times=tuple(table) if kind == "table" else (),
                              values=tuple(draw(st.lists(st.floats(-3.0, 3.0),
                                                         min_size=len(table),
                                                         max_size=len(table))))
                              if kind == "table" else ())
        start = draw(_edge_time)
        attack = AttackSpec(
            targets=draw(st.sets(st.integers(2, n), min_size=1)),
            mode=draw(st.sampled_from(["lumped-acceleration", "message-level"])),
            signal=signal, xi_max=draw(st.floats(0.5, 4.0)),
            window=(start, draw(st.sampled_from([math.inf, start + 2.5, start + 0.01]))),
            message_fields=draw(st.sets(st.sampled_from(["position", "velocity",
                                                         "acceleration"]), min_size=1)))
    switching = SwitchingConfig(
        enabled=draw(st.booleans()),
        decision_period=step * draw(st.integers(1, 15)),
        scope=draw(st.sampled_from(["per-vehicle", "platoon"])),
        dwell_enforced=draw(st.booleans()),
        hysteresis_release=draw(st.floats(0.0, 1.0)),
        policy_override=draw(st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
        initial_mode=draw(st.sampled_from([CACC, ACC])))
    return ScenarioConfig(
        platoon=make_platoon(n=n, eps_max=eps_max, pulses=pulses),
        lyapunov=_P_BENIGN,
        attack=attack,
        game=dataclasses.replace(DEFAULT_GAME, p_report_given_benign=0.3),
        sampling_period=step * draw(st.integers(1, 6)),
        switching=switching, step=step,
        duration=step * draw(st.integers(5, round(4.0 / step))),
        seed=draw(st.integers(0, 2 ** 16)),
        gap_offsets=tuple(draw(st.lists(st.floats(-5.0, 5.45), min_size=n - 1,
                                        max_size=n - 1))))


def _rk4_message_step(config, pos, vel, modes, t):
    """One classical RK4 step of the message-object controller chain with
    the modes, attack value and leader acceleration frozen at ``t``."""
    n = pos.size

    def rhs(s):
        _, dv = commanded_accelerations(config, s[:n], s[n:], modes, t)
        return np.concatenate((s[n:], dv))

    s = np.concatenate((pos, vel))
    h = config.step
    k1 = rhs(s)
    k2 = rhs(s + 0.5 * h * k1)
    k3 = rhs(s + 0.5 * h * k2)
    k4 = rhs(s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _zero_table_attack(mode):
    """A table signal alternating 0.0 and -0.0 on both followers: the
    recorded attack value must keep each zero's sign."""
    return AttackSpec(targets={2, 3}, mode=mode, xi_max=2.0, window=(0.25, 3.0),
                      signal=AttackSignal(kind="table", times=(0.0, 0.5, 1.0, 1.5, 2.0),
                                          values=(0.0, -0.0, 0.0, -0.0, 0.0)))


def _gains_under_message_attack(gains, kind, **switching):
    """Followers 2 and 3 of four read forged V2V fields under ``gains``."""
    attack = AttackSpec(targets={2, 3}, mode="message-level", xi_max=2.0,
                        window=(0.25, 3.0),
                        signal=AttackSignal(kind=kind, amplitude=1.5, frequency=0.4))
    return ScenarioConfig(platoon=make_platoon(n=4), attack=attack, cacc_gains=gains,
                          lyapunov=_P_BENIGN, step=0.05, duration=3.5,
                          switching=SwitchingConfig(decision_period=0.25, **switching))


@settings(max_examples=30, deadline=None)
@given(oracle_scenarios())
@example(_gains_under_message_attack(  # alpha_pred and beta_pred are -0.0
    CaccGains.from_aggregate(-1.58, -2.51, split=0.0), "sinusoid"))
@example(_gains_under_message_attack(  # alpha_lead and beta_lead are -0.0
    CaccGains.from_aggregate(-1.58, -2.51, split=1.0), "constant", scope="platoon"))
@example(_gains_under_message_attack(  # a negative leader feed-through
    CaccGains.from_aggregate(-1.58, -2.51, gamma_pred=1.5, gamma_lead=-0.5), "sinusoid",
    policy_override=(0.5, 0.5)))
@example(ScenarioConfig(  # a collision mid-run
    platoon=make_platoon(n=3), attack=crash_attack(window=(0.3, math.inf)),
    switching=NO_SWITCH, step=0.05, duration=4.0, gap_offsets=(0.0, 2.0)))
@example(ScenarioConfig(  # a latch at t = 0 and its release; a decision citing the surface
    platoon=make_platoon(n=3, eps_max=2.0), gap_offsets=(2.5, 0.0), lyapunov=_P_BENIGN,
    switching=SwitchingConfig(scope="platoon", policy_override=(0.0, 0.0),
                              decision_period=0.5, hysteresis_release=0.9),
    step=0.05, duration=4.0))
@example(ScenarioConfig(  # |eps3| reaches epsilon_max exactly on row 35, a segment's last
    # row (the pulse ends there; no decision tick): the latch is on that row
    platoon=make_platoon(n=3, eps_max=3.5074254575275035, pulses=[(1.0, 1.75, -1.0)]),
    attack=crash_attack(window=(0.3, math.inf)), lyapunov=_P_BENIGN,
    switching=SwitchingConfig(policy_override=(0.0, 0.0), decision_period=2.0),
    step=0.05, duration=4.0))
@example(ScenarioConfig(  # vehicle 2, latched at t = 0, falls to exactly the release
    # level (2.0 * 0.53335823356025) on row 77, between decision ticks
    platoon=make_platoon(n=3, eps_max=2.0), gap_offsets=(2.5, 0.0), lyapunov=_P_BENIGN,
    switching=SwitchingConfig(policy_override=(0.0, 0.0), decision_period=0.5,
                              hysteresis_release=0.53335823356025),
    step=0.05, duration=4.0))
@example(ScenarioConfig(  # the same fall to exactly the release level on row 77, now
    # the last row of a block (a tick every 7 rows): the block's extreme row
    platoon=make_platoon(n=3, eps_max=2.0), gap_offsets=(2.5, 0.0), lyapunov=_P_BENIGN,
    switching=SwitchingConfig(policy_override=(0.0, 0.0), decision_period=0.35,
                              hysteresis_release=0.53335823356025),
    step=0.05, duration=4.0))
@example(ScenarioConfig(  # as above, from a gap too wide: a negative error released
    platoon=make_platoon(n=3, eps_max=2.0), gap_offsets=(-2.5, 0.0), lyapunov=_P_BENIGN,
    switching=SwitchingConfig(policy_override=(0.0, 0.0), decision_period=0.35,
                              hysteresis_release=0.53335823356052),
    step=0.05, duration=4.0))
@example(ScenarioConfig(  # diverges: the velocities leave the floats on row 47
    # (t = 4.7 s), the positions a row later; the pulse ends a segment there
    platoon=make_platoon(n=2, pulses=[(4.7, 5.0, -1.0)]), acc_gains=AccGains(-1e3, -1e3),
    gap_offsets=(1.0,),
    switching=SwitchingConfig(enabled=False, initial_mode=ACC), step=0.1, duration=30.0))
@example(ScenarioConfig(
    platoon=make_platoon(n=3), attack=_zero_table_attack("lumped-acceleration"),
    lyapunov=_P_BENIGN, step=0.05, duration=3.5))
@example(ScenarioConfig(
    platoon=make_platoon(n=3), attack=_zero_table_attack("message-level"),
    switching=SwitchingConfig(scope="platoon", decision_period=0.25),
    lyapunov=_P_BENIGN, step=0.05, duration=3.5))
def test_every_row_matches_the_message_object_oracle(config):
    """Every row of a run against the readable message-object model: the
    recorded command, the step to the next row, the attack value, the
    safety latch and release rows, and the collision row.  A run that
    leaves the floats names the first row with a non-finite entry: the run
    cut one row short of it is finite, and is the one checked."""
    try:
        trace = run_scenario(config)
    except FloatingPointError as exc:
        bad = round(float(str(exc).rsplit("t=", 1)[1].split()[0]) / config.step)
        config = dataclasses.replace(config, duration=(bad - 1) * config.step)
        trace = run_scenario(config)
        with np.errstate(over="ignore", invalid="ignore"):
            step = _rk4_message_step(config, trace.positions[-1], trace.velocities[-1],
                                     trace.modes[-1], trace.times[-1])
        assert not np.isfinite(step).all()
    assert np.isfinite(trace.positions).all() and np.isfinite(trace.velocities).all()
    n = config.platoon.vehicle_count
    xi = [attack_signal(config.attack, t) if config.attack is not None else 0.0
          for t in trace.times.tolist()]
    assert np.array(xi).tobytes() == trace.attack_xi.tobytes()  # signed zeros too
    last = trace.times.size - 1  # the final row is recorded before supervision
    for k in range(last + 1):
        t = trace.times[k]
        u, _ = commanded_accelerations(config, trace.positions[k], trace.velocities[k],
                                       trace.modes[k], t)
        assert np.allclose(trace.commands[k], u, rtol=0.0, atol=1e-9), f"row {k}"
        if k < last:
            want = _rk4_message_step(config, trace.positions[k], trace.velocities[k],
                                     trace.modes[k], t)
            got = np.concatenate((trace.positions[k + 1], trace.velocities[k + 1]))
            assert np.allclose(got, want, rtol=1e-12, atol=1e-9), f"step {k}"

    # the latch replayed from the stored errors: each latch or release is on
    # the first row whose |eps| crosses its threshold
    sw = config.switching
    safety = {(e.time, e.vehicle) for e in trace.mode_events if e.cause == "safety-surface"}
    release = {(e.time, e.vehicle) for e in trace.mode_events if e.cause == "safety-release"}
    want_safety, want_release = set(), set()
    if sw.enabled:
        dec_every = int(round(sw.decision_period / config.step))
        latched = [False] * (n - 1)
        before = [int(sw.initial_mode == ACC)] * (n - 1)
        for k in range(last):
            t = float(trace.times[k])
            for i in range(n - 1):
                e = abs(trace.spacing_errors[k, i])
                if not latched[i] and e >= config.platoon.epsilon_max:
                    latched[i] = True
                    want_safety.add((t, i + 2))
                    if before[i] == 0:
                        assert (t, i + 2) in safety, f"latch of {i + 2} at row {k}"
                elif latched[i] and e <= sw.hysteresis_release * config.platoon.epsilon_max:
                    latched[i] = False
                    want_release.add((t, i + 2))
                    if trace.modes[k, i] == 0 and k % dec_every != 0:
                        assert (t, i + 2) in release, f"release of {i + 2} at row {k}"
                if latched[i]:
                    assert trace.modes[k, i] == 1, f"latched {i + 2} cooperative at row {k}"
            before = trace.modes[k].tolist()
    assert safety <= want_safety
    assert release <= want_release

    gaps = trace.positions[:, :-1] - trace.positions[:, 1:]
    tight = np.flatnonzero((gaps <= config.platoon.vehicle_length).any(axis=1))
    if trace.collision is None:
        assert tight.size == 0
        assert last == int(round(config.duration / config.step))
    else:
        assert tight.tolist() == [last]
        assert trace.collision.time == trace.times[last]


@pytest.mark.parametrize("stem, vehicles", [
    *(pytest.param(p.stem, None, id=p.stem) for p in sorted(CONFIGS.glob("*.json"))),
    # an odd count: the padded items and state rows
    pytest.param("crash_defended", 5, id="crash_defended-5-vehicles")])
def test_anchored_rows_stay_near_the_row_by_row_recursion(stem, vehicles):
    """Rows from anchors against rows stepped each from the one before
    (``oracle.run_row_by_row``), on full-length runs of each shipped config
    at seeds 0-2, and of per-vehicle crash_defended with 5 vehicles: the
    states, spacing errors and commands agree within rtol 1e-12 and atol
    1e-9 (on crash_defended seeds 0-7 the largest deviations are 3.5e-10 m
    in position, 4.8e-11 m/s in velocity and 8.1e-11 m in spacing error),
    and the reports, decision records, mode records and collision row and
    follower are equal."""
    base = load_scenario(CONFIGS / f"{stem}.json")
    if vehicles is not None:
        base = dataclasses.replace(
            base, platoon=dataclasses.replace(base.platoon, vehicle_count=vehicles))
    for seed in range(3):
        config = dataclasses.replace(base, seed=seed)
        trace, ref = run_scenario(config), run_row_by_row(config)
        assert trace.times.tobytes() == ref.times.tobytes()
        assert trace.drawn_reports == ref.drawn_reports
        assert trace.decision_records == ref.decision_records
        assert trace.mode_records == ref.mode_records
        assert trace.modes.tobytes() == ref.modes.tobytes()
        assert (trace.collision is None) == (ref.collision is None)
        if trace.collision is not None:
            assert trace.collision.follower == ref.collision.follower
        for name in ("positions", "velocities", "spacing_errors", "commands"):
            np.testing.assert_allclose(getattr(trace, name), getattr(ref, name),
                                       rtol=1e-12, atol=1e-9, err_msg=f"{name}, seed {seed}")


# -------------------------------------------------------- crash / defense

def test_forged_kinematics_collide_without_switching():
    config = ScenarioConfig(platoon=make_platoon(), attack=crash_attack(),
                            switching=NO_SWITCH, duration=20.0, seed=1)
    trace = run_scenario(config)
    assert trace.collision is not None
    assert trace.collision.follower == 3
    assert 11.0 < trace.collision.time < 14.0
    # truncation: the trace ends at the collision sample
    assert trace.times[-1] == pytest.approx(trace.collision.time)
    assert trace.positions.shape[0] == trace.times.size
    m = trace_metrics(trace)
    assert m.collision and m.collision_time == trace.collision.time
    assert m.min_spacing <= 4.5


def test_switching_defends_the_same_attack():
    config = ScenarioConfig(platoon=make_platoon(), attack=crash_attack(),
                            duration=30.0, seed=1)
    trace = run_scenario(config)
    assert trace.collision is None
    assert np.min(trace.positions[:, :-1] - trace.positions[:, 1:]) > 4.5
    # the victim actually used the radar fallback during the attack
    victim_modes = trace.modes[:, 1]
    assert victim_modes.max() == 1
    # the mode events serialise: every vehicle id is a Python int
    events = json.loads(json.dumps([dataclasses.asdict(e) for e in trace.mode_events]))
    assert len(events) > 3 and {e["vehicle"] for e in events} == {2, 3, 4}


def test_safety_surface_dominates_every_other_rule():
    """No supervised sample leaves a follower cooperative at or beyond the
    safety surface (the final sample is recorded before supervision)."""
    config = ScenarioConfig(platoon=make_platoon(), attack=crash_attack(),
                            duration=30.0, seed=5)
    trace = run_scenario(config)
    eps = np.abs(trace.spacing_errors[:-1])
    coop = trace.modes[:-1] == 0
    assert not np.any(coop & (eps >= 4.0))


def test_hysteresis_release_sequence():
    """Start beyond the surface: latch at t=0, release only once the error
    has shrunk to the hysteresis band, then stay cooperative."""
    config = ScenarioConfig(
        platoon=make_platoon(n=2, eps_max=2.0),
        gap_offsets=(2.5,),
        switching=SwitchingConfig(policy_override=(0.0, 0.0)),
        duration=20.0,
    )
    trace = run_scenario(config)
    events = [e for e in trace.mode_events if e.vehicle == 2]
    assert [(e.mode, e.cause) for e in events] == [
        (CACC, "initial"),
        (ACC, "safety-surface"),
        (CACC, "safety-release"),
    ]
    assert events[1].time == 0.0
    release = events[2].time
    idx = int(round(release / config.step))
    assert abs(trace.spacing_errors[idx, 0]) <= 0.5 * 2.0 + 1e-9
    assert np.all(trace.modes[idx:, 0] == 0)


def test_platoon_safety_decision_cites_the_surface_only_where_it_was_reached():
    """Follower 2 starts beyond the surface and latches at t = 0; the
    platoon decision at t = 0.5 s downgrades follower 3, which is far
    inside the surface, so its mode event names the broadcast."""
    config = ScenarioConfig(
        platoon=make_platoon(n=3, eps_max=2.0), gap_offsets=(2.5, 0.0),
        lyapunov=_P_BENIGN,
        switching=SwitchingConfig(scope="platoon", decision_period=0.5),
        step=0.05, duration=1.0)
    trace = run_scenario(config)
    assert [(e.time, e.vehicle, e.mode, e.cause) for e in trace.mode_events[2:4]] == [
        (0.0, 2, ACC, "safety-surface"), (0.5, 3, ACC, "safety-broadcast")]
    assert trace.spacing_errors[10, 1] == pytest.approx(-0.131, abs=1e-3)
    assert [(d.time, d.unit, d.mode, d.cause) for d in trace.decisions] == [
        (0.5, PLATOON_UNIT, ACC, "safety-surface")]


# ----------------------------------------------------------- dwell behavior

def benign_switching_config(seed=0):
    return ScenarioConfig(
        platoon=make_platoon(n=6, eps_max=5.4, pulses=[(10.0, 13.0, -2.0)]),
        lyapunov=LyapunovCandidate(1.0, 0.7593734335839599, 0.9585116102515634),
        switching=SwitchingConfig(scope="platoon"),
        step=0.02, duration=120.0, seed=seed,
    )


def test_dwell_hold_appears_in_decisions():
    trace = run_scenario(benign_switching_config(seed=1))
    causes = {d.cause for d in trace.decisions}
    assert "dwell-hold" in causes
    assert all(d.unit == PLATOON_UNIT for d in trace.decisions)


def test_certificate_value_decays_across_cacc_entries():
    """V = z'Pz per follower at cooperative (re)entries: with the dwell hold
    active the sequence contracts two entries apart (Lyapunov-level string
    of decreasing peaks), whenever the start value is above noise."""
    P = LyapunovCandidate(1.0, 0.7593734335839599, 0.9585116102515634)
    for seed in (0, 1):
        trace = run_scenario(benign_switching_config(seed=seed))
        entries = cacc_entry_values(trace, P)
        assert len(entries) >= 3
        values = np.array([v for _, v in entries])
        for lag in range(values.shape[0] - 2):
            start = values[lag]
            later = values[lag + 2]
            mask = start > 1e-8
            assert np.all(later[mask] < start[mask])


def test_dwell_state_mechanics():
    consts = lyapunov_constants(P_REF, A_CACC)
    state = DwellState(ACC, constants=consts)
    state.enter(CACC, now=5.0, error_state=(3.0, 0.0))
    expected = min_dwell_time((3.0, 0.0), consts)
    assert state.required == expected and expected > 0
    assert state.holding(5.0 + 0.5 * expected)
    assert not state.holding(5.0 + expected)
    state.enter(ACC, now=9.0)
    assert not state.holding(9.0)  # only the cooperative mode holds


# --------------------------------------------------- decision-rule priority

def _judged(spacing_error, p_downgrade, state, draw, now):
    """``switching_decision`` with epsilon_max 4, asserting that it leaves
    ``state`` as it found it."""
    before = dataclasses.replace(state)
    decision = switching_decision(spacing_error, p_downgrade, state, 4.0, draw, now)
    assert state == before
    return decision


def test_decision_safety_beats_override():
    for mode in (CACC, ACC):
        state = DwellState(mode, entry_time=0.0, required=5.0)
        assert _judged(4.0, 0.0, state, 0.5, 1.0) == (ACC, "safety-surface")
        assert _judged(-4.5, 0.0, state, 0.5, 1.0) == (ACC, "safety-surface")


def test_decision_dwell_beats_game():
    state = DwellState(CACC, entry_time=0.0, required=5.0)
    assert _judged(1.0, 1.0, state, 0.5, 2.0) == (CACC, "dwell-hold")
    # once the hold expires the policy forces the downgrade
    assert _judged(1.0, 1.0, state, 0.5, 6.0) == (ACC, "game")


def test_decision_override_extremes_are_deterministic():
    for draw in np.random.default_rng(0).random(20).tolist() + [0.0]:
        assert _judged(0.0, 1.0, DwellState(CACC), draw, 0.0) == (ACC, "game")
        assert _judged(0.0, 0.0, DwellState(ACC), draw, 0.0) == (CACC, "game")
    # in between, a draw downgrades exactly when it falls below the probability
    assert _judged(0.0, 0.25, DwellState(CACC), 0.2499, 0.0) == (ACC, "game")
    assert _judged(0.0, 0.25, DwellState(ACC), 0.25, 0.0) == (CACC, "game")


def test_decision_samples_equilibrium_policy(monkeypatch):
    """Downgrade iff reported, as the equilibrium or as the override: every
    game decision of the run reads the policy for its own report."""
    monkeypatch.setattr(platoonsec.engine, "equilibrium_strategy",
                        lambda spec: BehavioralStrategy(0, 1, 0))
    for override in (None, (1.0, 0.0)):
        trace = run_scenario(ScenarioConfig(
            platoon=make_platoon(), switching=SwitchingConfig(policy_override=override),
            duration=30.0))
        game = [d for d in trace.decisions if d.cause == "game"]
        assert {d.report for d in game} == {"r", "nr"}
        assert all(d.mode == (ACC if d.report == "r" else CACC) for d in game)


def test_decision_entry_into_cacc_restarts_dwell():
    """A game decision into CACC holds it from the unit's error state: a
    follower's own (eps, deps), or for the platoon the largest follower
    norm |(eps, deps)| with a zero rate.  Here the follower with the largest
    |eps| (vehicle 2) is not the one with the largest norm (vehicle 3)."""
    # eps = (3, -1, 1.5) and deps = (0.5, -4, 0.25), all exact
    x = np.array([0.0, -7.0, -18.0, -26.5, 20.0, 20.5, 16.5, 16.75])
    for scope, states in (("per-vehicle", [(3.0, 0.5), (-1.0, -4.0), (1.5, 0.25)]),
                          ("platoon", [(math.hypot(-1.0, -4.0), 0.0)])):
        config = ScenarioConfig(platoon=make_platoon(n=4), lyapunov=_P_BENIGN,
                                switching=SwitchingConfig(scope=scope, initial_mode=ACC,
                                                          policy_override=(0.0, 0.0)))
        supervisor = _Supervisor(config, 6000)
        assert supervisor.act(100, x, [], 101) == ((0, 0, 0), 101)
        consts = supervisor.units[0].constants
        for unit, z in zip(supervisor.units, states, strict=True):
            assert (unit.mode, unit.entry_time) == (CACC, 1.0)
            assert unit.required == min_dwell_time(z, consts) > 0
        assert supervisor.mode_records[3:] == [(100, i, CACC, "game") for i in (2, 3, 4)]


def test_platoon_release_restarts_dwell_from_platoon_entry_state():
    """A follower's safety release re-enters the platoon unit's CACC hold
    from the platoon's entry state, as a game move into CACC does: the
    largest follower norm |(eps, deps)| with a zero rate, not the released
    follower's own (eps, deps)."""
    config = ScenarioConfig(platoon=make_platoon(n=4), lyapunov=_P_BENIGN,
                            switching=SwitchingConfig(scope="platoon", initial_mode=ACC,
                                                      policy_override=(0.0, 0.0)))
    supervisor = _Supervisor(config, 6000)
    (unit,) = supervisor.units
    consts = unit.constants
    # eps = (3.5, 0, 0) at rest: the game moves the platoon into CACC at 1 s
    entered = np.array([0.0, -6.5, -16.5, -26.5, 20.0, 20.0, 20.0, 20.0])
    assert supervisor.act(100, entered, [], 101) == ((0, 0, 0), 101)
    assert unit.entry_time + unit.required == \
        pytest.approx(1.0 + min_dwell_time((3.5, 0.0), consts)) == pytest.approx(12.48, abs=0.01)
    # follower 2 reaches the surface (eps 4.5), then releases at row 150
    # with eps = (0.5, 3.0, 0.0) and deps = (0.1, 0, 0)
    assert supervisor.act(120, entered + [0, 1, 1, 1, 0, 0, 0, 0], [0], 121)[0] == (1, 0, 0)
    released = np.array([0.0, -9.5, -16.5, -26.5, 20.0, 20.1, 20.1, 20.1])
    assert supervisor.act(150, released, [0], 151) == ((0, 0, 0), 151)
    assert (unit.mode, unit.entry_time) == (CACC, 1.5)
    assert unit.required == min_dwell_time((3.0, 0.0), consts)
    assert unit.entry_time + unit.required == pytest.approx(11.56, abs=0.01)
    assert supervisor.mode_records[-2:] == [(120, 2, ACC, "safety-surface"),
                                            (150, 2, CACC, "safety-release")]


def test_platoon_decision_judges_its_worst_follower():
    """The platoon unit decides on its worst follower's spacing error, here
    vehicle 3's beyond the surface, not on the first follower's: a safety
    decision, which vehicle 3 cites and vehicles 2 and 4 get as a broadcast."""
    config = ScenarioConfig(platoon=make_platoon(n=4), lyapunov=_P_BENIGN,
                            switching=SwitchingConfig(scope="platoon",
                                                      policy_override=(0.0, 0.0)))
    supervisor = _Supervisor(config, 6000)
    # eps = (0.5, -4.5, 0) at rest, all exact: only vehicle 3 is beyond 4 m
    x = np.array([0.0, -9.5, -24.0, -34.0, 20.0, 20.0, 20.0, 20.0])
    assert supervisor.act(100, x, [], 101) == ((1, 1, 1), 101)
    assert [(k, unit, mode, cause) for k, unit, _, mode, cause
            in supervisor.decision_records] == [(100, PLATOON_UNIT, ACC, "safety-surface")]
    assert supervisor.mode_records[3:] == [(100, 2, ACC, "safety-broadcast"),
                                           (100, 3, ACC, "safety-surface"),
                                           (100, 4, ACC, "safety-broadcast")]


# ----------------------------------------------------- exponential envelope

def test_gues_envelope_bounds_leading_hop():
    """Vehicle 2's error state follows zdot = A z exactly (its predecessor is
    the constant-speed leader), so the certificate envelope
    |z(t)| <= sqrt(b/a) exp(-lam t) |z(0)| must hold sample by sample."""
    config = ScenarioConfig(
        platoon=make_platoon(n=2, eps_max=5.0),
        gap_offsets=(3.0,), switching=NO_SWITCH, duration=30.0,
    )
    trace = run_scenario(config)
    consts = lyapunov_constants(P_REF, A_CACC)
    eps = trace.spacing_errors[:, 0]
    deps = trace.velocities[:, 1] - trace.velocities[:, 0]
    norms = np.hypot(eps, deps)
    bound = (math.sqrt(consts.b / consts.a) * norms[0]
             * np.exp(-consts.lam * trace.times))
    assert np.all(norms <= bound * (1.0 + 1e-9))


# ------------------------------------------------------------ event timing

def test_reports_and_decisions_land_on_their_grids():
    config = ScenarioConfig(platoon=make_platoon(), duration=10.0, seed=4)
    trace = run_scenario(config)
    for r in trace.reports:
        assert r.time / 0.1 == pytest.approx(round(r.time / 0.1), abs=1e-9)
    decision_times = sorted({d.time for d in trace.decisions})
    assert decision_times[0] == pytest.approx(1.0)
    for t in decision_times:
        assert t / 1.0 == pytest.approx(round(t), abs=1e-9)
    for e in trace.mode_events:
        assert e.time / config.step == pytest.approx(round(e.time / config.step),
                                                     abs=1e-6)



@pytest.mark.parametrize("signal", [AttackSignal(kind="ramp", rate=0.3),
                                    AttackSignal(kind="sinusoid", amplitude=2.5)])
@pytest.mark.parametrize("window, edges", [
    ((0.5, 1.25), [2, 3, 4, 5, 8]),   # inside the run: every tick in it, its end, steps
    ((1.25, math.inf), [5, 6, 7, 8]),  # open-ended: clipped to steps
    ((1.25, 3.0), [5, 6, 7, 8]),       # ends after the run: clipped to steps
    ((0.0, 0.75), [1, 2, 3, 8]),       # opens at tick 0, which is never an edge
])
def test_input_edges_split_varying_attacks_into_rows(signal, window, edges):
    """A ramp or sinusoid takes a new value every step, so each tick inside
    its window is an input edge, and every segment runs under constant
    inputs; the run's last tick ends the list."""
    config = ScenarioConfig(platoon=make_platoon(),
                            attack=AttackSpec(signal=signal, window=window),
                            sampling_period=0.25,
                            switching=SwitchingConfig(decision_period=0.25),
                            step=0.25, duration=2.0)
    assert _input_edges(config, np.arange(9) * 0.25) == edges


def _edge_case(step, steps, window=(0.0, math.inf), pulses=(), signal=AttackSignal()):
    """(config, step, steps) of a run of ``steps`` rows whose inputs change
    at the given instants."""
    config = ScenarioConfig(platoon=make_platoon(pulses=pulses),
                            attack=AttackSpec(signal=signal, window=window),
                            sampling_period=step, switching=SwitchingConfig(decision_period=step),
                            step=step, duration=steps * step)
    return config, step, steps


@st.composite
def _timed_inputs(draw):
    """A short run on a common step, with pulses, an attack window (open or
    closed) and a waveform whose instants carry 1 to 3 decimals, some of
    them past the run's end."""
    step = draw(st.sampled_from([0.001, 0.003, 0.01, 0.02, 0.03, 0.25]))
    steps = draw(st.integers(1, 400))
    horizon = 1.25 * steps * step
    instant = st.integers(1, 3).flatmap(
        lambda d: st.integers(0, int(horizon * 10 ** d)).map(lambda m: m / 10 ** d))
    interval = st.lists(instant, min_size=2, max_size=2, unique=True).map(sorted)
    pulses = tuple((start, end, -1.0) for start, end in draw(st.lists(interval, max_size=2)))
    start, end = draw(interval)
    window = (start, draw(st.sampled_from([end, math.inf])))
    kind = draw(st.sampled_from(["constant", "ramp", "sinusoid", "table"]))
    times = sorted(draw(st.lists(instant, min_size=1, max_size=5)))
    signal = (AttackSignal(kind="table", times=tuple(times), values=(1.0,) * len(times))
              if kind == "table" else AttackSignal(kind=kind))
    return _edge_case(step, steps, window, pulses, signal)


@settings(max_examples=200, deadline=None)
@given(_timed_inputs())
@example(_edge_case(0.001, 17_000, window=(16.35, math.inf)))  # 16.35 / 0.001 rounds up
@example(_edge_case(0.03, 4_200, pulses=((125.7, 125.8, -1.0),)))  # 4190 * 0.03 < 125.7
def test_every_input_edge_is_the_first_row_at_or_after_its_instant(case):
    """Each instant lands on the least row k whose recorded time k * step is
    at or after it, found here by scanning the products one by one."""
    config, step, steps = case
    attack = config.attack

    def first_row(t):  # steps + 1 past the run's end
        return next((k for k in range(steps + 1) if k * step >= t), steps + 1)

    pulses = config.platoon.leader_profile.pulses
    instants = [*attack.window, *(t for start, end, _ in pulses for t in (start, end)),
                *attack.signal.times]
    expected = {first_row(t) for t in instants}
    if attack.signal.kind in ("ramp", "sinusoid"):
        expected.update(range(first_row(attack.window[0]), first_row(attack.window[1])))
    assert _input_edges(config, np.arange(steps + 1) * step) == sorted(
        expected - {0, steps + 1} | {steps})


_DEFENDED = load_scenario(CONFIGS / "crash_defended.json")


def _reports_one_draw_at_a_time(config, rows):
    """The reports of the sampling ticks before row ``rows``, drawn one
    ``detector_sample`` call per (tick, unit) from a fresh generator seeded
    as the run's detector stream."""
    sw = config.switching
    if not sw.enabled:
        return ()
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[0])
    units = (range(2, config.platoon.vehicle_count + 1) if sw.scope == "per-vehicle"
             else (PLATOON_UNIT,))
    attack = config.attack
    out = []
    for k in range(0, rows, round(config.sampling_period / config.step)):
        t = k * config.step
        for unit in units:
            attacked = (attack is not None and attack.active(t)
                        and (unit == PLATOON_UNIT or unit in attack.targets))
            out.append(ReportEvent(t, unit, detector_sample([attacked], config.game, rng)[0]))
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(oracle_scenarios())
@example(ScenarioConfig(  # collides on row 55, a sampling tick: no report there or after
    platoon=make_platoon(n=3, eps_max=5.4), attack=crash_attack(window=(0.3, math.inf)),
    lyapunov=_P_BENIGN, switching=SwitchingConfig(policy_override=(0.0, 0.0),
                                                  decision_period=0.5),
    game=dataclasses.replace(DEFAULT_GAME, p_report_given_benign=0.3), sampling_period=0.25,
    step=0.05, duration=4.0, gap_offsets=(0.0, 2.0)))
@example(ScenarioConfig(  # a window with edges between sampling ticks, both scopes
    platoon=make_platoon(n=4), attack=crash_attack(window=(0.33, 1.27)), lyapunov=_P_BENIGN,
    switching=SwitchingConfig(scope="platoon"), step=0.05, duration=3.0))
@example(ScenarioConfig(
    platoon=make_platoon(n=4), attack=crash_attack(window=(0.33, 1.27)), lyapunov=_P_BENIGN,
    step=0.05, duration=3.0))
@example(ScenarioConfig(  # no supervisor, no reports
    platoon=make_platoon(n=3), attack=crash_attack(window=(0.33, 1.27)),
    switching=NO_SWITCH, step=0.05, duration=3.0))
@example(dataclasses.replace(  # a tick every row: the surface acts on a tick decided ahead
    _DEFENDED, seed=1, duration=40.0,
    switching=dataclasses.replace(_DEFENDED.switching, decision_period=0.01)))
def test_reports_match_one_draw_at_a_time(config):
    """A run's reports are those of drawing each (tick, unit) report on its
    own, in order, from the detector's stream, for every tick before the
    final row: a report depends on time alone, never on the state.  So do
    the decisions' times: one a unit at each decision tick before the
    final row."""
    trace = run_scenario(config)
    rows = trace.times.size - 1
    assert trace.reports == _reports_one_draw_at_a_time(config, rows)
    if trace.collision is not None:
        assert all(r.time < trace.collision.time for r in trace.reports)
    every = round(config.switching.decision_period / config.step)
    units = sorted({r.unit for r in trace.reports})
    assert [(d.time, d.unit) for d in trace.decisions] == [
        (k * config.step, unit) for k in range(every, rows, every) for unit in units]


def _outcome(config):
    """Everything a run records, by bytes, or the message of its error."""
    try:
        trace = run_scenario(config)
    except FloatingPointError as exc:
        return str(exc)
    arrays = [(a.dtype, a.shape, a.tobytes()) for a in (
        trace.times, trace.positions, trace.velocities, trace.commands, trace.modes,
        trace.spacing_errors, trace.attack_xi)]
    return (arrays, trace.drawn_reports, trace.decisions, trace.mode_events,
            trace.collision)


@settings(max_examples=40, deadline=None)
@given(oracle_scenarios())
@example(dataclasses.replace(_DEFENDED, seed=1, duration=40.0))  # latches at 36.44 s
@example(dataclasses.replace(_DEFENDED, seed=5, duration=40.0))  # latches and releases
@example(dataclasses.replace(load_scenario(CONFIGS / "benign_switching.json"), seed=3))
@example(dataclasses.replace(  # a tick every row: the surface acts on a tick decided ahead
    _DEFENDED, seed=1, duration=40.0,
    switching=dataclasses.replace(_DEFENDED.switching, decision_period=0.01)))
@example(ScenarioConfig(  # a tick every row, and a collision on the row after an edge,
    # with no latch before it: the ticks decided ahead of it are never reached
    platoon=make_platoon(n=3, v0=100.0, pulses=[(2.0, 3.0, -1500.0)]), lyapunov=_P_BENIGN,
    switching=SwitchingConfig(decision_period=0.1, initial_mode=ACC, dwell_enforced=False,
                              policy_override=(1.0, 1.0)),
    step=0.1, duration=4.0))
@example(ScenarioConfig(  # an input interval from row 150, mid-block, across rows 256 and 384
    platoon=make_platoon(n=3, pulses=[(0.5, 1.5, -2.0)]), gap_offsets=(1.0, -0.5),
    lyapunov=_P_BENIGN, switching=SwitchingConfig(policy_override=(0.0, 0.0)),
    step=0.01, duration=4.5))
@example(ScenarioConfig(  # follower 2, already radar-only, latches on row 177, mid-block:
    # the segment is cut there and the same map goes on (follower 3 latches on row 263)
    platoon=make_platoon(n=3, eps_max=1.0, pulses=[(0.5, 1.5, -2.0)]), lyapunov=_P_BENIGN,
    switching=SwitchingConfig(initial_mode=ACC, policy_override=(1.0, 1.0),
                              decision_period=2.0),
    step=0.01, duration=6.0))
@example(ScenarioConfig(  # 600 rows, more than four blocks, under one map: no mode changes
    platoon=make_platoon(n=3), gap_offsets=(1.0, -0.5), lyapunov=_P_BENIGN,
    switching=SwitchingConfig(policy_override=(0.0, 0.0)), step=0.01, duration=6.0))
@example(ScenarioConfig(  # one segment of 600 rows collides on row 310, in its third
    # block: the checks of the span of rows 1-512 must reach it
    platoon=make_platoon(n=3, pulses=[(0.0, 10.0, -3.0)]),
    switching=SwitchingConfig(enabled=False, initial_mode=ACC), step=0.01, duration=6.0))
def test_segment_boundaries_change_nothing(config):
    """A run whose segments are one row each, where every tick is decided
    on its own row from the state (per-row supervision), records the same
    bytes, reports, decisions, mode events and collision as a run whose
    segments run to the next input edge or mode change, and whose
    supervisor decides the ticks inside a segment ahead: a row's anchor
    depends on the run's maps, not on where its segments are cut."""
    horizon = platoonsec.engine._Integrator.horizon
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(platoonsec.engine._Integrator, "horizon",
                      lambda self, k: (horizon(self, k)[0], k + 1))
        per_row = _outcome(config)
    assert _outcome(config) == per_row


def test_the_look_ahead_judges_few_ticks_in_vain(monkeypatch):
    """A segment decides at most ``_MAX_AHEAD`` ticks ahead, and a check
    that cuts it drops those past the cut.  On crash_defended with a tick
    every row and a policy that never downgrades, the safety latches cut
    often: a look-ahead to the next input edge judged 19,923 ticks for the
    run's 11,999; the bound keeps the ticks judged in vain under a tenth."""
    judge = _Supervisor._judge
    judged = []

    def counted(self, k, errors, used):
        judged.append(k)
        return judge(self, k, errors, used)

    monkeypatch.setattr(_Supervisor, "_judge", counted)
    config = dataclasses.replace(_DEFENDED, switching=dataclasses.replace(
        _DEFENDED.switching, decision_period=0.01, policy_override=(0.0, 0.0)))
    trace = run_scenario(config)
    ticks = trace.times.size - 2  # rows 1 .. last - 1
    assert len(set(judged)) == ticks
    assert len(judged) < 1.1 * ticks


# at row 1699 the surface releases follower 3 and the game sends it back to ACC
_RELEASED_AND_DOWNGRADED = dataclasses.replace(
    _DEFENDED, seed=3, duration=20.0, switching=dataclasses.replace(
        _DEFENDED.switching, decision_period=0.01, dwell_enforced=False,
        policy_override=(0.5, 0.5)))


def test_a_release_undone_on_its_row_records_no_cooperative_stint():
    """A follower released from the surface into CACC and downgraded by the
    game on the same row stays in ACC: the row holds no mode record for it,
    and no cooperative entry is reported there."""
    config = _RELEASED_AND_DOWNGRADED
    trace = run_scenario(config)
    k = 1699
    assert abs(trace.spacing_errors[k, 1]) <= (config.switching.hysteresis_release
                                               * config.platoon.epsilon_max)
    assert (k, 3, "r", ACC, "game") in trace.decision_records
    assert trace.modes[k - 1:k + 1, 1].tolist() == [1, 1]  # radar-only before and at k
    assert not [r for r in trace.mode_records if r[:2] == (k, 3)]
    assert trace.times[k] not in [t for t, _ in cacc_entry_values(trace, _P_BENIGN)]


@settings(max_examples=40, deadline=None)
@given(oracle_scenarios())
@example(dataclasses.replace(_DEFENDED, seed=5, duration=40.0))  # latches and releases
@example(_RELEASED_AND_DOWNGRADED)
def test_mode_records_match_the_modes_array(config):
    """Each follower's column of the modes array, prefixed with its initial
    mode, is the replay of its mode records: each record changes the mode
    its previous one set, from its row on.  So the column changes exactly
    at the rows of its non-initial records, one record a row.  Each event's
    time is its row times the step, bit for bit, as on the trace's time
    grid."""
    trace = run_scenario(config)
    code = {CACC: 0, ACC: 1}
    for col, column in enumerate(trace.modes.T):
        records = [(k, code[mode], cause) for k, vehicle, mode, cause in trace.mode_records
                   if vehicle == col + 2]
        assert records[0][0::2] == (0, "initial")
        assert all(a[1] != b[1] for a, b in zip(records, records[1:]))
        replay = np.full(column.size + 1, records[0][1], dtype=column.dtype)
        for k, mode, _ in records[1:]:
            replay[k + 1:] = mode  # row k is entry k + 1
        assert np.array_equal(replay[1:], column)
        changes = np.flatnonzero(replay[1:] != replay[:-1]).tolist()
        assert changes == [k for k, _, _ in records[1:]]
    times = [event.time.hex() for event in trace.mode_events]
    assert times == [(k * config.step).hex() for k, *_ in trace.mode_records]
    assert times == [float(trace.times[k]).hex() for k, *_ in trace.mode_records]


@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 100),
       scope=st.sampled_from(["per-vehicle", "platoon"]))
@example(seed=0, steps=1, scope="platoon")
def test_decision_draws_equal_successive_single_draws(seed, steps, scope):
    """The supervisor's decision draws, drawn in one batch, are the decision
    stream's successive ``random()`` values, bit for bit: one a (decision
    tick, unit), for the ticks on rows 1..steps-1."""
    config = ScenarioConfig(platoon=make_platoon(n=4), lyapunov=_P_BENIGN, seed=seed,
                            switching=SwitchingConfig(scope=scope, decision_period=0.1),
                            step=0.1, duration=steps * 0.1)
    single = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    size = (steps - 1) * (3 if scope == "per-vehicle" else 1)
    assert _Supervisor(config, steps).draws == [single.random() for _ in range(size)]


@pytest.mark.parametrize("scope", ["per-vehicle", "platoon"])
def test_decision_buffer_holds_one_draw_per_tick_and_unit(scope):
    """With no hold and no surface every decision draws once: a run reads
    the whole buffer, and the last decision tick is the last row before
    the final one on the decision grid."""
    config = ScenarioConfig(platoon=make_platoon(n=4), lyapunov=_P_BENIGN,  # at rest
                            switching=SwitchingConfig(scope=scope, dwell_enforced=False,
                                                      decision_period=0.25),
                            step=0.05, duration=3.0)
    trace = run_scenario(config)
    assert len(trace.decisions) == len(_Supervisor(config, 60).draws) == \
        (59 // 5) * (3 if scope == "per-vehicle" else 1)
    assert trace.decisions[-1].time == 55 * 0.05


def test_per_vehicle_scope_gives_each_follower_a_unit():
    config = ScenarioConfig(platoon=make_platoon(n=4), duration=5.0, seed=9)
    trace = run_scenario(config)
    assert {r.unit for r in trace.reports} == {2, 3, 4}
    assert {d.unit for d in trace.decisions} == {2, 3, 4}


# ------------------------------------------------------------- metrics

def test_metrics_vacuous_at_equilibrium():
    trace = run_scenario(ScenarioConfig(platoon=make_platoon(),
                                        switching=NO_SWITCH, duration=2.0))
    m = trace_metrics(trace)
    assert m.string_vacuous and m.string_stable
    assert m.min_spacing == pytest.approx(10.0, abs=1e-9)
    assert m.mode_occupancy[0][CACC] == 1.0
    assert m.mode_occupancy[0][ACC] == 0.0


def test_metrics_cooperative_chain_isolates_disturbances():
    """With the symmetric gain split, upstream spacing errors cancel exactly
    out of every downstream follower's dynamics: one vehicle starting 3 m
    off its slot never disturbs the vehicles behind it."""
    trace = run_scenario(ScenarioConfig(
        platoon=make_platoon(n=5), gap_offsets=(3.0, 0.0, 0.0, 0.0),
        switching=NO_SWITCH, duration=40.0))
    m = trace_metrics(trace)
    assert not m.string_vacuous
    assert m.string_stable
    sups = m.sup_spacing_errors
    assert sups[0] == pytest.approx(3.0)
    assert all(s < 1e-6 for s in sups[1:])


def test_metrics_radar_chain_amplifies():
    trace = run_scenario(ScenarioConfig(
        platoon=make_platoon(n=5, eps_max=5.4, pulses=[(2.0, 4.0, -2.0)]),
        switching=SwitchingConfig(enabled=False, initial_mode=ACC),
        duration=60.0))
    m = trace_metrics(trace)
    assert not m.string_stable
    sups = m.sup_spacing_errors
    assert all(sups[i] > sups[i - 1] for i in range(1, len(sups)))
    assert m.mode_occupancy[0][ACC] == 1.0


def test_metrics_and_entry_values_equal_their_per_column_and_per_row_forms():
    """``trace_metrics`` counts each follower's mode codes and
    ``cacc_entry_values`` evaluates V at every entry row at once; both
    must give, bit for bit and as the same types, what one column's mean
    and one entry row at a time give."""
    P = LyapunovCandidate(1.0, 0.7593734335839599, 0.9585116102515634)
    trace = run_scenario(benign_switching_config(seed=3))
    modes = trace.modes
    assert 0 < modes.sum() < modes.size  # both modes occur
    assert repr(trace_metrics(trace).mode_occupancy) == repr(tuple(
        {CACC: float(np.mean(modes[:, i] == 0)), ACC: float(np.mean(modes[:, i] == 1))}
        for i in range(modes.shape[1])))
    h = float(trace.times[1] - trace.times[0])
    entries = cacc_entry_values(trace, P)
    assert entries
    for t, v in entries:
        k = int(round(t / h))
        eps = trace.spacing_errors[k]
        deps = trace.velocities[k, 1:] - trace.velocities[k, :-1]
        row = P.p11 * eps * eps + 2.0 * P.p12 * eps * deps + P.p22 * deps * deps
        assert type(t) is float and t == float(trace.times[k])
        assert v.tobytes() == row.tobytes()


# ---------------------------------------------------------------- outputs

def test_csv_layout_and_byte_stability(tmp_path):
    config = ScenarioConfig(platoon=make_platoon(n=3), duration=2.0, seed=6,
                            attack=crash_attack(window=(0.5, 1.5)))
    digests = []
    for run in range(2):
        trace = run_scenario(config)
        out = tmp_path / f"trace{run}.csv"
        write_trace_csv(trace, out)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]

    lines = (tmp_path / "trace0.csv").read_text().splitlines()
    assert lines[0] == "t,x1,v1,u1,x2,v2,u2,x3,v3,u3,mode2,mode3,eps2,eps3,xi"
    assert len(lines) == 1 + trace.times.size
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert first[10] in ("CACC", "ACC")


def test_metrics_json_round_trip(tmp_path):
    import json

    trace = run_scenario(ScenarioConfig(platoon=make_platoon(), duration=2.0))
    m = trace_metrics(trace)
    path = tmp_path / "metrics.json"
    write_metrics_json(m, path, extra={"seed": 0})
    payload = json.loads(path.read_text())
    assert payload["seed"] == 0
    assert payload["collision"] is False
    assert payload["sup_spacing_errors"] == list(m.sup_spacing_errors)
    assert list(payload) == sorted(payload)  # stable key order on disk
