"""Controller laws and their closed-loop matrices.

The core contract: the matrix A assembled for the certificate checks is the
message-based law itself (``oracle.law_accel``), applied to vehicle 2 behind
a leader cruising at zero acceleration, whose spacing-error state
z = (eps, eps') then follows zdot = A z.  The engine's rows are held against
that law in ``test_engine``, so anything proven about A holds for the code
that actually runs.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from platoonsec.control import (ACC, CACC, LEADER, PREDECESSOR, RADAR, V2V,
                                AccGains, CaccGains, DEFAULT_ACC_GAINS,
                                DEFAULT_CACC_GAINS, LawTerm, assemble_closed_loop,
                                law_terms)

from oracle import NeighborMessage, RadarMeasurement, VehicleState, law_accel

coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
gain = st.floats(-5.0, -0.05, allow_nan=False, allow_infinity=False)
ff_gain = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def test_default_aggregate_gains():
    assert DEFAULT_CACC_GAINS.k1 == pytest.approx(-1.58)
    assert DEFAULT_CACC_GAINS.k2 == pytest.approx(-2.51)
    assert DEFAULT_CACC_GAINS.gamma_pred + DEFAULT_CACC_GAINS.gamma_lead == pytest.approx(1.0)
    assert assemble_closed_loop(ACC, DEFAULT_ACC_GAINS)[1].tolist() == [-0.25, -1.0]


def test_closed_loop_matrices_match_pinned_values():
    A = assemble_closed_loop(CACC, DEFAULT_CACC_GAINS)
    assert np.allclose(A, [[0.0, 1.0], [-1.58, -2.51]], atol=1e-12)
    A = assemble_closed_loop(ACC, DEFAULT_ACC_GAINS)
    assert np.allclose(A, [[0.0, 1.0], [-0.25, -1.0]], atol=1e-12)


@given(eps=coord, deps=coord, x_l=coord, v_l=coord,
       k1=gain, k2=gain, split=st.floats(0.0, 1.0), gp=ff_gain, gl=ff_gain,
       L=st.floats(5.0, 20.0))
def test_cacc_accel_equals_closed_loop_row(eps, deps, x_l, v_l, k1, k2, split,
                                           gp, gl, L):
    gains = CaccGains.from_aggregate(k1, k2, split=split, gamma_pred=gp,
                                     gamma_lead=gl)
    own = VehicleState(x_l - L + eps, v_l + deps)
    lead = NeighborMessage(x_l, v_l, 0.0, sender_id=1)
    u = law_accel(2, own, law_terms(CACC, gains), (lead, lead), L)
    row = assemble_closed_loop(CACC, gains)[1] @ np.array([eps, deps])
    assert u == pytest.approx(row, abs=1e-9 * max(1.0, abs(x_l), abs(v_l)))


@given(eps=coord, deps=coord, x_l=coord, v_l=coord,
       k3=gain, k4=gain, L=st.floats(5.0, 20.0))
def test_acc_accel_equals_closed_loop_row(eps, deps, x_l, v_l, k3, k4, L):
    gains = AccGains(k3, k4)
    own = VehicleState(x_l - L + eps, v_l + deps)
    u = law_accel(2, own, law_terms(ACC, gains), (RadarMeasurement(x_l, v_l),), L)
    row = assemble_closed_loop(ACC, gains)[1] @ np.array([eps, deps])
    assert u == pytest.approx(row, abs=1e-9 * max(1.0, abs(x_l), abs(v_l)))


def test_follower_two_consumes_vehicle_one_twice():
    """For i=2 the predecessor IS the leader; both gain sets still apply."""
    gains = DEFAULT_CACC_GAINS
    own = VehicleState(-9.0, 19.5)
    msg = NeighborMessage(0.0, 20.0, -1.0, sender_id=1)
    u = law_accel(2, own, law_terms(CACC, gains), (msg, msg), 10.0)
    eps = own.position - msg.position + 10.0
    deps = own.velocity - msg.velocity
    expected = (gains.k1 * eps + gains.k2 * deps
                + (gains.gamma_pred + gains.gamma_lead) * msg.acceleration)
    assert u == pytest.approx(expected, abs=1e-12)


def test_follower_index_validation():
    own = VehicleState(0.0, 20.0)
    with pytest.raises(ValueError):
        law_accel(1, own, law_terms(ACC, DEFAULT_ACC_GAINS),
                  (RadarMeasurement(10.0, 20.0),), 10.0)


@given(k1=gain, k2=gain)
def test_from_aggregate_round_trips(k1, k2):
    g = CaccGains.from_aggregate(k1, k2, split=0.3)
    assert g.k1 == pytest.approx(k1)
    assert g.k2 == pytest.approx(k2)


def test_validate_rejects_sign_flipped_gains():
    with pytest.raises(ValueError):
        CaccGains.from_aggregate(1.58, -2.51).validate()
    with pytest.raises(ValueError):
        AccGains(0.25, -1.0).validate()
    DEFAULT_CACC_GAINS.validate()
    DEFAULT_ACC_GAINS.validate()


def test_assemble_closed_loop_rejects_unknown_mode():
    with pytest.raises(ValueError):
        assemble_closed_loop("cruise", DEFAULT_CACC_GAINS)


def test_law_terms_is_the_table_of_both_laws():
    g = DEFAULT_CACC_GAINS
    assert law_terms(CACC, g) == (
        LawTerm(PREDECESSOR, V2V, g.alpha_pred, g.beta_pred, g.gamma_pred),
        LawTerm(LEADER, V2V, g.alpha_lead, g.beta_lead, g.gamma_lead))
    # the radar law: the predecessor term read by radar, no feed-through
    assert law_terms(ACC, DEFAULT_ACC_GAINS) == (LawTerm(PREDECESSOR, RADAR, -0.25, -1.0, 0.0),)


def test_law_terms_rejects_wrong_gains_and_unknown_mode():
    with pytest.raises(TypeError, match="CACC mode requires CaccGains"):
        law_terms(CACC, DEFAULT_ACC_GAINS)
    with pytest.raises(TypeError, match="ACC mode requires AccGains"):
        law_terms(ACC, DEFAULT_CACC_GAINS)
    with pytest.raises(ValueError, match="unknown control mode 'cruise'"):
        law_terms("cruise", DEFAULT_CACC_GAINS)
