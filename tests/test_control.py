"""Controller laws and their closed-loop matrices.

The core contract: the matrix A assembled for the certificate checks is the
message-based law itself (``oracle.law_accel``), applied to vehicle 2 behind
a leader cruising at zero acceleration, whose spacing-error state
z = (eps, eps') then follows zdot = A z.  The platoon matrix the engine
integrates, ``closed_loop``, is in error coordinates a cascade whose
diagonal blocks are exactly these A
(``test_closed_loop_is_a_cascade_of_the_followers_a``), so anything proven
about A holds for the code that actually runs.
"""

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from platoonsec.config import load_scenario
from platoonsec.control import (ACC, CACC, LEADER, PREDECESSOR, RADAR, V2V,
                                AccGains, CaccGains, DEFAULT_ACC_GAINS,
                                DEFAULT_CACC_GAINS, LawTerm, assemble_closed_loop,
                                closed_loop, law_terms)
from platoonsec.engine import SwitchingConfig, resolve_certificate, run_scenario

from oracle import NeighborMessage, RadarMeasurement, VehicleState, law_accel

coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
gain = st.floats(-5.0, -0.05, allow_nan=False, allow_infinity=False)
ff_gain = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
BENIGN = load_scenario(Path(__file__).resolve().parent.parent / "configs"
                      / "benign_switching.json")


def test_default_aggregate_gains():
    assert assemble_closed_loop(CACC, DEFAULT_CACC_GAINS)[1].tolist() == pytest.approx(
        [-1.58, -2.51])
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
    k1, k2 = assemble_closed_loop(CACC, gains)[1]
    expected = (k1 * eps + k2 * deps
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
    assert assemble_closed_loop(CACC, g)[1].tolist() == pytest.approx([k1, k2])


def test_run_scenario_rejects_sign_flipped_gains():
    for mode, flipped in ((CACC, {"cacc_gains": CaccGains.from_aggregate(1.58, -2.51)}),
                          (ACC, {"acc_gains": AccGains(0.25, -1.0)})):
        with pytest.raises(ValueError, match=f"^{mode} gains must be finite, and the sums"):
            run_scenario(dataclasses.replace(BENIGN, **flipped))


def test_resolve_certificate_judges_gains_by_the_run_s_rule():
    """A certificate is resolved only for gains a run accepts: a scenario
    with non-Hurwitz gains, searched or with a given P, is an input error
    when it is built, naming the gains, not a failed check."""
    for mode, gains in ((CACC, {"cacc_gains": CaccGains.from_aggregate(1.58, -2.51)}),
                        (ACC, {"acc_gains": AccGains(0.25, -1.0)})):
        for P in (None, BENIGN.lyapunov):
            with pytest.raises(ValueError, match=f"^{mode} gains must be finite") as err:
                dataclasses.replace(BENIGN, lyapunov=P, **gains)
            assert err.value.path == f"{mode.lower()}_gains"
    assert resolve_certificate(BENIGN)[2] is not None


signed = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@given(ap=signed, bp=signed, al=signed, bl=signed, alpha=signed, beta=signed,
       mode=st.sampled_from((CACC, ACC)))
def test_run_scenario_accepts_exactly_negative_sums(ap, bp, al, bl, alpha, beta, mode):
    """One rule accepts the gains: both of a law's sums negative, the
    ``hurwitz`` of ``check_bibo_lemma1`` on its A's bottom row.  A config
    with the other law's default gains is rejected when built, naming the
    mode, iff that rule fails; one it accepts runs."""
    gains = {CACC: {"cacc_gains": CaccGains(ap, bp, 0.5, al, bl, 0.5)},
             ACC: {"acc_gains": AccGains(alpha, beta)}}[mode]
    hurwitz = {CACC: ap + al < 0 and bp + bl < 0, ACC: alpha < 0 and beta < 0}[mode]
    build = functools.partial(dataclasses.replace, BENIGN, duration=0.1,
                              switching=SwitchingConfig(enabled=False), **gains)
    if hurwitz:
        run_scenario(build())
    else:
        with pytest.raises(ValueError, match=f"^{mode} gains") as err:
            build()
        assert err.value.path == f"{mode.lower()}_gains"


@given(n=st.integers(2, 7), data=st.data(), k1=gain, k2=gain, split=st.floats(0.0, 1.0),
       gp=ff_gain, gl=ff_gain, k3=gain, k4=gain)
def test_closed_loop_is_a_cascade_of_the_followers_a(n, data, k1, k2, split, gp, gl,
                                                      k3, k4):
    """In error coordinates -- the leader's position, then
    eps_i = x_i - x_(i-1), and the same for velocities -- the platoon
    matrix is block lower triangular, one 2x2 block a vehicle, and each
    follower's diagonal block is its mode's A, exactly (no tolerance)."""
    pattern = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1)))
    cacc = CaccGains.from_aggregate(k1, k2, split=split, gamma_pred=gp, gamma_lead=gl)
    acc = AccGains(k3, k4)
    to_errors = np.kron(np.eye(2), np.eye(n) - np.eye(n, k=-1))
    from_errors = np.kron(np.eye(2), np.tril(np.ones((n, n))))
    assert (to_errors @ from_errors).tolist() == np.eye(2 * n).tolist()
    per_vehicle = np.arange(2 * n).reshape(2, n).T.ravel()  # (eps_i, eps_i') pairs
    E = (to_errors @ closed_loop(pattern, cacc, acc) @ from_errors)[per_vehicle][:, per_vehicle]
    blocks = E.reshape(n, 2, n, 2).transpose(0, 2, 1, 3)
    assert all(blocks[i, j].tolist() == [[0.0, 0.0], [0.0, 0.0]]
               for i in range(n) for j in range(i + 1, n))
    assert blocks[0, 0].tolist() == [[0.0, 1.0], [0.0, 0.0]]  # the leader
    for i, code in enumerate(pattern, start=1):
        mode, gains = ((CACC, cacc), (ACC, acc))[code]
        assert blocks[i, i].tolist() == assemble_closed_loop(mode, gains).tolist()


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
