"""Attack waveforms, message falsification, and the stochastic detector."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from platoonsec.engine import ScenarioConfig
from platoonsec.game import DEFAULT_GAME, GameSpec
from platoonsec.platoon import PlatoonConfig
from platoonsec.threat import (MESSAGE_FIELDS, REPORT_ATTACK, REPORT_NONE,
                               AttackSignal, AttackSpec, attack_signal, detector_sample)

from oracle import NeighborMessage, falsify_message

MSG = NeighborMessage(position=120.0, velocity=20.0, acceleration=0.3,
                      sender_id=2)


# ----------------------------------------------------------------- waveforms

def test_constant_signal():
    sig = AttackSignal(kind="constant", amplitude=1.5)
    assert sig.value(0.0, 10.0) == 1.5
    assert sig.value(99.0, 200.0) == 1.5


def test_ramp_signal_uses_window_relative_time():
    sig = AttackSignal(kind="ramp", rate=0.5)
    assert sig.value(0.0, 30.0) == 0.0
    assert sig.value(4.0, 34.0) == 2.0


def test_sinusoid_signal():
    sig = AttackSignal(kind="sinusoid", amplitude=2.0, frequency=0.25, phase=0.0)
    assert sig.value(1.0, 0.0) == pytest.approx(2.0)  # quarter period
    assert sig.value(2.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_table_signal_zero_order_hold():
    sig = AttackSignal(kind="table", times=(1.0, 3.0, 5.0), values=(0.5, -0.5, 2.0))
    assert sig.value(0.0, 0.0) == 0.0  # before the first breakpoint
    assert sig.value(0.0, 1.0) == 0.5
    assert sig.value(0.0, 2.999) == 0.5
    assert sig.value(0.0, 3.0) == -0.5
    assert sig.value(0.0, 100.0) == 2.0


@pytest.mark.parametrize("kwargs", [
    dict(kind="square"),
    dict(kind="table", times=(1.0,), values=()),
    dict(kind="table", times=(), values=()),
    dict(kind="table", times=(2.0, 1.0), values=(0.0, 0.0)),
])
def test_signal_validation(kwargs):
    with pytest.raises(ValueError):
        AttackSignal(**kwargs)


# ------------------------------------------------------------ window / clamp

def test_window_is_half_open():
    spec = AttackSpec(targets={3}, window=(10.0, 40.0))
    assert not spec.active(9.999)
    assert spec.active(10.0)
    assert spec.active(39.999)
    assert not spec.active(40.0)


def test_signal_zero_outside_window():
    spec = AttackSpec(targets={3}, window=(10.0, 40.0),
                      signal=AttackSignal(kind="constant", amplitude=2.0))
    assert attack_signal(spec, 9.0) == 0.0
    assert attack_signal(spec, 40.0) == 0.0
    assert attack_signal(spec, 10.0) == 2.0


def test_signal_clamped_at_xi_max():
    spec = AttackSpec(targets={2}, xi_max=1.0, window=(0.0, 100.0),
                      signal=AttackSignal(kind="ramp", rate=1.0))
    assert attack_signal(spec, 0.5) == 0.5
    assert attack_signal(spec, 50.0) == 1.0  # clamped
    down = dataclasses.replace(spec, signal=AttackSignal(kind="ramp", rate=-1.0))
    assert attack_signal(down, 50.0) == -1.0


@given(t=st.floats(-10.0, 110.0), xi_max=st.floats(0.0, 5.0))
def test_signal_bound_invariant(t, xi_max):
    spec = AttackSpec(targets={2}, xi_max=xi_max, window=(0.0, 100.0),
                      signal=AttackSignal(kind="sinusoid", amplitude=7.0,
                                          frequency=0.3))
    assert abs(attack_signal(spec, t)) <= xi_max


# --------------------------------------------------------------- validation

@pytest.mark.parametrize("kwargs", [
    dict(targets={1}),
    dict(targets={0}),
    dict(targets={-2}),
    dict(targets={3}, mode="replay"),
    dict(targets={3}, xi_max=-0.1),
    dict(targets={3}, window=(5.0, 5.0)),
    dict(targets={3}, window=(8.0, 2.0)),
    dict(targets={3}, message_fields={"jerk"}),
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        AttackSpec(**kwargs)


def test_spec_normalizes_target_container():
    spec = AttackSpec(targets=[4, 2, 4])
    assert spec.targets == frozenset({2, 4})


# ------------------------------------------------------------- falsification

def test_falsify_offsets_all_fields_by_default():
    spec = AttackSpec(targets={3}, window=(0.0, 10.0),
                      signal=AttackSignal(kind="constant", amplitude=2.0))
    forged = falsify_message(MSG, spec, 1.0)
    assert forged.position == MSG.position + 2.0
    assert forged.velocity == MSG.velocity + 2.0
    assert forged.acceleration == MSG.acceleration + 2.0


def test_falsify_respects_field_selection():
    spec = AttackSpec(targets={3}, window=(0.0, 10.0),
                      message_fields={"velocity"},
                      signal=AttackSignal(kind="constant", amplitude=-1.0))
    forged = falsify_message(MSG, spec, 1.0)
    assert forged.position == MSG.position
    assert forged.velocity == MSG.velocity - 1.0
    assert forged.acceleration == MSG.acceleration


def test_falsify_passthrough_outside_window_and_in_lumped_mode():
    windowed = AttackSpec(targets={3}, window=(10.0, 20.0))
    assert falsify_message(MSG, windowed, 5.0) is MSG
    lumped = AttackSpec(targets={3}, mode="lumped-acceleration", window=(0.0, 20.0))
    assert falsify_message(MSG, lumped, 5.0) is MSG


def test_falsify_does_not_mutate_original():
    spec = AttackSpec(targets={3}, window=(0.0, 10.0))
    falsify_message(MSG, spec, 1.0)
    assert MSG.position == 120.0 and MSG.velocity == 20.0


@given(offset=st.floats(-2.0, 2.0))
def test_falsified_fields_shift_together(offset):
    """All-field forgery preserves inter-field differences: a consistent
    fake kinematic state, not independent noise per channel."""
    spec = AttackSpec(targets={2}, window=(0.0, 10.0), xi_max=2.0,
                      signal=AttackSignal(kind="constant", amplitude=offset))
    forged = falsify_message(MSG, spec, 3.0)
    assert forged.position - MSG.position == pytest.approx(
        forged.velocity - MSG.velocity)
    assert forged.velocity - MSG.velocity == pytest.approx(
        forged.acceleration - MSG.acceleration)


# ----------------------------------------------------------------- detector
# The detector samples the confusion matrix of the game its policy solves.

def _game(p_attack, p_benign) -> GameSpec:
    return GameSpec(DEFAULT_GAME.leaf_utilities, p_attack, p_benign)


def _detector(sampling_period=0.1, **probabilities) -> ScenarioConfig:
    """A scenario whose detector has these report probabilities and period."""
    return ScenarioConfig(platoon=PlatoonConfig(4, 10.0, 4.5, 4.0),
                          game=dataclasses.replace(DEFAULT_GAME, **probabilities),
                          sampling_period=sampling_period)


def test_detector_default_probabilities():
    """The default detector is the default game's chance node."""
    default = _detector()
    assert default.game == GameSpec(DEFAULT_GAME.leaf_utilities) == DEFAULT_GAME
    assert default.game.p_report_given_attack == Fraction(7, 10)
    assert default.game.p_report_given_benign == Fraction(1, 10)
    assert default.sampling_period == ScenarioConfig.sampling_period == 0.1


@pytest.mark.parametrize("kwargs", [
    dict(p_report_given_attack=1.2),
    dict(p_report_given_benign=-0.01),
    dict(sampling_period=0.0),
    dict(sampling_period=math.nan),
])
def test_detector_validation(kwargs):
    """A report probability outside [0, 1], or a sampling period that is
    not > 0, is rejected with a message that names it."""
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        _detector(**kwargs)


def test_detector_report_flags():
    spec = _game(1.0, 0.0)
    rng = np.random.default_rng(0)
    assert detector_sample([True, False], spec, rng) == [REPORT_ATTACK, REPORT_NONE]
    assert (REPORT_ATTACK, REPORT_NONE) == ("r", "nr")


def test_detector_frequencies_match_confusion_matrix():
    """10^4 draws per condition; empirical rates within 3 binomial sigma."""
    rng = np.random.default_rng(42)
    n = 10_000
    for active, p in ((True, 0.7), (False, 0.1)):
        hits = detector_sample([active] * n, DEFAULT_GAME, rng).count(REPORT_ATTACK)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * sigma


def test_detector_reproducible_with_seeded_generator():
    a = [detector_sample([True], DEFAULT_GAME, np.random.default_rng(7)) for _ in range(5)]
    assert len(set(map(tuple, a))) == 1  # same seed, same draw


_PROBABILITY = st.floats(0.0, 1.0)


@given(flags=st.lists(st.booleans(), max_size=60), seed=st.integers(0, 2**32 - 1),
       p_attack=_PROBABILITY, p_benign=_PROBABILITY)
@example(flags=[True, False, False, True, True, False, True], seed=0,
         p_attack=0.7, p_benign=0.1)
@example(flags=[True, False, True, False], seed=1, p_attack=0.0, p_benign=1.0)
@example(flags=[True, False, True, False], seed=2, p_attack=1.0, p_benign=0.0)
def test_detector_batch_equals_successive_single_draws(flags, seed, p_attack, p_benign):
    """A batch of reports is the successive single draws, and each is the
    scalar ``rng.random() < p`` on the float the probability was given as:
    the game holds it exactly, so reading it back rounds to that float."""
    spec = _game(p_attack, p_benign)
    assert (float(spec.p_report_given_attack), float(spec.p_report_given_benign)) == (
        p_attack, p_benign)
    batch_rng = np.random.default_rng(seed)
    batch = detector_sample(flags, spec, batch_rng)
    single_rng = np.random.default_rng(seed)
    assert batch == [detector_sample([f], spec, single_rng)[0] for f in flags]
    scalar_rng = np.random.default_rng(seed)
    assert batch == [REPORT_ATTACK if scalar_rng.random() < (p_attack if f else p_benign)
                     else REPORT_NONE for f in flags]
    assert batch_rng.bit_generator.state == single_rng.bit_generator.state


def test_detector_empty_batch_leaves_generator_untouched():
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    assert detector_sample([], DEFAULT_GAME, rng) == []
    assert rng.bit_generator.state == state


def test_message_fields_constant_is_complete():
    assert set(MESSAGE_FIELDS) == {"position", "velocity", "acceleration"}
