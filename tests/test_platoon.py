"""Platoon geometry, the leader profile, and the controller's inputs."""

import pytest
from hypothesis import given, strategies as st

from platoonsec.engine import ScenarioConfig, SwitchingConfig, run_scenario
from platoonsec.platoon import LeaderProfile, PlatoonConfig, desired_distance


def cruise(n=5, pulses=(), duration=1.0):
    """A platoon started at its slots and run without supervision."""
    platoon = PlatoonConfig(vehicle_count=n, desired_gap=10.0, vehicle_length=4.5,
                            epsilon_max=4.0,
                            leader_profile=LeaderProfile(20.0, tuple(pulses)))
    return run_scenario(ScenarioConfig(platoon=platoon, duration=duration,
                                       switching=SwitchingConfig(enabled=False)))


def test_equilibrium_state_has_zero_spacing_errors():
    trace = cruise()
    assert (trace.spacing_errors[0] == 0.0).all()
    assert trace.positions[0, 0] == 0.0
    assert trace.positions[0, 4] == -40.0


def test_spacing_error_sign_convention():
    # follower 2 sits 9 m behind the leader with a 10 m desired gap: it is
    # 1 m too close, so the error is positive; follower 3 is half a metre
    # too far back, so its error is negative
    platoon = PlatoonConfig(vehicle_count=3, desired_gap=10.0, vehicle_length=4.5,
                            epsilon_max=4.0, leader_profile=LeaderProfile(20.0, ()))
    trace = run_scenario(ScenarioConfig(platoon=platoon, duration=1.0,
                                        gap_offsets=(1.0, -0.5),
                                        switching=SwitchingConfig(enabled=False)))
    assert trace.positions[0].tolist() == [0.0, -9.0, -19.5]
    assert trace.spacing_errors[0, 0] == pytest.approx(1.0)
    assert trace.spacing_errors[0, 1] == pytest.approx(-0.5)


@given(st.integers(1, 8), st.integers(1, 8), st.floats(0.1, 100.0))
def test_desired_distance_is_symmetric_hop_count(i, j, L):
    if i == j:
        with pytest.raises(ValueError):
            desired_distance(i, j, L)
    else:
        assert desired_distance(i, j, L) == desired_distance(j, i, L)
        assert desired_distance(i, j, L) == pytest.approx(L * abs(i - j))


def test_leader_profile_pulse_window_is_half_open():
    prof = LeaderProfile(20.0, ((10.0, 13.0, -2.0),))
    assert prof.acceleration(9.999) == 0.0
    assert prof.acceleration(10.0) == -2.0
    assert prof.acceleration(12.999) == -2.0
    assert prof.acceleration(13.0) == 0.0


def test_leader_profile_velocity_integrates_pulses():
    trace = cruise(n=2, pulses=((10.0, 13.0, -2.0), (30.0, 31.0, 1.0)), duration=40.0)
    leader = dict(zip(trace.times.round(6).tolist(), trace.velocities[:, 0]))
    assert leader[0.0] == 20.0
    assert leader[11.5] == pytest.approx(20.0 - 2.0 * 1.5)
    assert leader[40.0] == pytest.approx(20.0 - 6.0 + 1.0)


def test_leader_profile_rejects_empty_pulse():
    with pytest.raises(ValueError):
        LeaderProfile(20.0, ((5.0, 5.0, -1.0),))


def test_overlapping_pulses_sum():
    prof = LeaderProfile(0.0, ((0.0, 10.0, 1.0), (5.0, 10.0, 0.5)))
    assert prof.acceleration(7.0) == pytest.approx(1.5)


@pytest.mark.parametrize("kwargs", [
    dict(vehicle_count=1, desired_gap=10.0, vehicle_length=4.5, epsilon_max=4.0),
    dict(vehicle_count=4, desired_gap=4.0, vehicle_length=4.5, epsilon_max=1.0),
    dict(vehicle_count=4, desired_gap=10.0, vehicle_length=4.5, epsilon_max=0.0),
    # threshold at/above the physical-contact margin defeats its purpose
    dict(vehicle_count=4, desired_gap=10.0, vehicle_length=4.5, epsilon_max=5.5),
])
def test_platoon_config_rejects_inconsistent_geometry(kwargs):
    with pytest.raises(ValueError):
        PlatoonConfig(**kwargs)


def test_radar_measurement_has_no_acceleration_field():
    from oracle import RadarMeasurement
    assert not hasattr(RadarMeasurement(0.0, 0.0), "acceleration")
