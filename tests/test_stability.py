"""Certificates, dwell bounds, and frequency-domain string-stability checks.

Frozen reference values below were cross-checked against numpy.linalg
eigensolves and hand-derived closed forms (2x2 symmetric eigenvalues,
second-order peak-gain formula, inverse Laplace transforms); the library
itself never calls the dense eigensolver on these paths.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from platoonsec.control import (ACC, CACC, AccGains, CaccGains, DEFAULT_ACC_GAINS,
                                DEFAULT_CACC_GAINS)
from platoonsec.stability import (LyapunovCandidate, LyapunovConstants,
                                  TransferFunction, check_bibo_lemma1,
                                  check_common_lyapunov,
                                  check_gues_inequalities, find_common_lyapunov,
                                  hinf_norm, impulse_response_nonneg, lmi_residual,
                                  lyapunov_constants, min_dwell_time,
                                  spacing_error_tf, sym_eig_2x2)

from oracle import common_lyapunov_exists, pair_products

A_CACC = np.array([[0.0, 1.0], [-1.58, -2.51]])
A_ACC = np.array([[0.0, 1.0], [-0.25, -1.0]])
P_REF = LyapunovCandidate(1.0, 0.154297, 1.57813)

# independent numpy.linalg.eigvalsh values for the reference certificate
RESIDUAL_MAX_EIG_CACC = -0.02167061192093822
RESIDUAL_MAX_EIG_ACC = -0.005528180028228982
P_REF_EIGS = (0.9613972743479304, 1.6167327256520696)


# ---------------------------------------------------------------- eigenvalues

@given(a=st.floats(-50, 50), b=st.floats(-50, 50), d=st.floats(-50, 50))
def test_sym_eig_matches_numpy(a, b, d):
    S = np.array([[a, b], [b, d]])
    lo, hi = sym_eig_2x2(S)
    ref = np.linalg.eigvalsh(S)
    assert lo == pytest.approx(ref[0], abs=1e-9 * max(1.0, abs(ref[0])))
    assert hi == pytest.approx(ref[1], abs=1e-9 * max(1.0, abs(ref[1])))


# ------------------------------------------------------------- certificates

def test_reference_certificate_passes():
    report = check_common_lyapunov(P_REF, [A_CACC, A_ACC])
    assert report.passed
    assert report.p_definite
    assert report.p_eigenvalues == pytest.approx(P_REF_EIGS, abs=1e-12)
    assert report.residual_max_eigenvalues[0] == pytest.approx(
        RESIDUAL_MAX_EIG_CACC, abs=1e-12)
    assert report.residual_max_eigenvalues[1] == pytest.approx(
        RESIDUAL_MAX_EIG_ACC, abs=1e-12)


def test_certificate_fails_for_indefinite_p():
    bad = LyapunovCandidate(1.0, 2.0, 1.0)  # det < 0
    assert not check_common_lyapunov(bad, [A_CACC]).passed


def test_certificate_fails_for_unstable_mode():
    A_unstable = np.array([[0.0, 1.0], [0.25, -1.0]])
    report = check_common_lyapunov(P_REF, [A_CACC, A_unstable])
    assert not report.passed
    assert report.residual_max_eigenvalues[1] > 0


def test_empty_mode_list_is_vacuous():
    assert check_common_lyapunov(P_REF, []).passed
    assert not check_common_lyapunov(LyapunovCandidate(-1.0, 0.0, 1.0), []).passed


def test_lmi_residual_is_symmetric():
    S = lmi_residual(A_CACC, P_REF.as_matrix())
    assert np.allclose(S, S.T, atol=0)


# -------------------------------------------------- scalar inequality form

def test_reference_gains_satisfy_scalar_inequalities():
    ineq = check_gues_inequalities(-1.58, -2.51, -0.25, -1.0, P_REF)
    assert ineq.all_satisfied
    assert not ineq.ill_posed


def test_positive_position_gain_makes_bracket_ill_posed():
    ineq = check_gues_inequalities(+1.58, -2.51, -0.25, -1.0, P_REF)
    assert not ineq.all_satisfied
    assert "k2_above_lower" in ineq.ill_posed


def test_huge_off_diagonal_is_a_verdict_not_an_overflow():
    # p12 ** 2 overflows a float: the power raises, the checks must not
    P = LyapunovCandidate(1.0, 1e300, 1.0)
    assert not P.is_positive_definite()
    ineq = check_gues_inequalities(-1.58, -2.51, -0.25, -1.0, P)
    assert not ineq.p_det_positive and not ineq.all_satisfied


p11s = st.floats(0.2, 3.0)
p12s = st.floats(-1.5, 1.5)
p22s = st.floats(0.2, 3.0)
kpos = st.floats(-4.0, 1.0)
kvel = st.floats(-5.0, 1.0)


@settings(max_examples=300)
@given(p11=p11s, p12=p12s, p22=p22s, k1=kpos, k2=kvel, k3=kpos, k4=kvel)
def test_scalar_inequalities_equal_matrix_certificate(p11, p12, p22,
                                                      k1, k2, k3, k4):
    """The literal scalar conditions and the LMI residual check are one test.

    Samples landing within 1e-6 of any definiteness boundary are discarded:
    there the two formulations may legitimately differ in the last ulp.
    """
    P = LyapunovCandidate(p11, p12, p22)
    A1 = np.array([[0.0, 1.0], [k1, k2]])
    A2 = np.array([[0.0, 1.0], [k3, k4]])
    margins = [p11, p11 * p22 - p12 ** 2]
    for A in (A1, A2):
        S = lmi_residual(A, P.as_matrix())
        margins += [-S[0, 0], S[0, 0] * S[1, 1] - S[0, 1] ** 2]
    if any(abs(m) < 1e-6 for m in margins):
        return
    ineq = check_gues_inequalities(k1, k2, k3, k4, P)
    report = check_common_lyapunov(P, [A1, A2])
    assert ineq.all_satisfied == report.passed


# ------------------------------------------------------- bibo / lemma check

def test_reference_gains_against_real_pole_criterion():
    cacc = check_bibo_lemma1(-1.58, -2.51)
    assert cacc["hurwitz"] and not cacc["lemma1"]  # -2.51 > -2 sqrt(1.58)
    acc = check_bibo_lemma1(-0.25, -1.0)
    assert acc["hurwitz"] and acc["lemma1"]  # equality boundary: -1 == -2 sqrt(0.25)


def test_real_pole_criterion_requires_negative_position_gain():
    res = check_bibo_lemma1(0.5, -3.0)
    assert not res["hurwitz"] and not res["lemma1"]


@given(k=st.floats(-10.0, -0.01))
def test_lemma_boundary_is_exactly_two_sqrt(k):
    m = -2.0 * math.sqrt(-k)
    assert check_bibo_lemma1(k, m)["lemma1"]
    assert not check_bibo_lemma1(k, m + 1e-9)["lemma1"]


# -------------------------------------------------------------- search

def test_search_finds_certificate_for_reference_modes():
    P = find_common_lyapunov([A_CACC, A_ACC])
    assert P is not None
    assert check_common_lyapunov(P, [A_CACC, A_ACC]).passed


def test_search_returns_none_for_unstable_family():
    A_bad = np.array([[0.0, 1.0], [0.5, 0.1]])
    assert find_common_lyapunov([A_CACC, A_bad]) is None


def test_search_empty_family_returns_any_definite_p():
    P = find_common_lyapunov([])
    assert P.is_positive_definite()


def _mode(k, m):
    return np.array([[0.0, 1.0], [k, m]])


_hurwitz_mode = st.builds(_mode, st.floats(-30.0, -1e-3), st.floats(-30.0, -1e-3))


@settings(max_examples=40, deadline=None)
@given(family=st.lists(_hurwitz_mode, max_size=3))
@example(family=[A_ACC, A_ACC])  # one mode twice
@example(family=[_mode(-30.0, -1e-3), _mode(-1e-3, -30.0)])  # no certificate exists
@example(family=[A_CACC, _mode(0.5, 0.1)])  # an unstable mode: None
@example(family=[])  # every P scores inf
def test_search_returns_a_passing_certificate_or_none(family):
    """Over families of up to three modes, empty and unstable ones too, the
    search raises nothing and returns None or a P that passes."""
    P = find_common_lyapunov(family)
    assert P is None or check_common_lyapunov(P, family).passed


# Hurwitz gains of magnitudes log-uniform on [1e-3, 1e3]
_gain = st.floats(math.log(1e-3), math.log(1e3)).map(lambda x: -math.exp(x))


@settings(max_examples=150, deadline=None)
@given(k1=_gain, m1=_gain, k2=_gain, m2=_gain)
@example(k1=-0.8464, m1=-4.3215, k2=-2.0865, m2=-0.0771)  # few P certify this pair
@example(k1=-1.58, m1=-2.51, k2=-0.25, m2=-0.05)  # none exists
@example(k1=-math.exp(-2.75), m1=-math.exp(5.375), k2=-math.exp(6.375),
         m2=-2.6619611962862018)  # a stiff pair 0.4% from the boundary: p12 near 0.0045
@example(k1=-1e-3, m1=-0.01, k2=-1.0, m2=-100.0)  # a slow mode's certificate has p12 near 9
def test_search_finds_a_certificate_exactly_when_one_exists(k1, m1, k2, m2):
    """Two modes share a certificate iff A1 A2 and A1 A2^-1 have no negative
    real eigenvalue (the exact criterion of ``oracle``), and the search finds
    one exactly then.  Pairs within 0.1% of the criterion's boundary
    (t^2 = 4 d for a product with trace t < 0) are skipped: there the best
    score is too close to zero for the line searches to resolve."""
    A_list = [_mode(k1, m1), _mode(k2, m2)]
    assume(all(t >= 0 or abs(t * t / (4 * d) - 1) > 1e-3 for t, d in pair_products(*A_list)))
    assert (find_common_lyapunov(A_list) is not None) == common_lyapunov_exists(*A_list)


def test_search_agrees_with_the_criterion_on_400_pairs():
    """400 pairs of modes with |k| and |m| log-uniform on [0.02, 8]
    (generator seed 7), 170 of which share a certificate: the search finds
    each of the 170, and no certificate for the other 230."""
    gains = -np.exp(np.random.default_rng(7).uniform(math.log(0.02), math.log(8.0), (400, 4)))
    verdicts = []
    for k1, m1, k2, m2 in gains:
        A_list = [_mode(k1, m1), _mode(k2, m2)]
        exists = common_lyapunov_exists(*A_list)
        assert (find_common_lyapunov(A_list) is not None) == exists
        verdicts.append(exists)
    assert sum(verdicts) == 170


# ----------------------------------------------------------- constants/dwell

def test_constants_of_reference_pair():
    c = lyapunov_constants(P_REF, A_CACC)
    assert c.a == pytest.approx(P_REF_EIGS[0], abs=1e-12)
    assert c.b == pytest.approx(P_REF_EIGS[1], abs=1e-12)
    assert c.c == pytest.approx(-RESIDUAL_MAX_EIG_CACC, abs=1e-12)
    assert c.lam == pytest.approx(c.c / (2 * c.b), abs=1e-15)


def test_constants_raise_with_reason():
    with pytest.raises(ValueError, match="not positive definite"):
        lyapunov_constants(LyapunovCandidate(-1.0, 0.0, 1.0), A_CACC)
    with pytest.raises(ValueError, match="not negative definite"):
        lyapunov_constants(P_REF, np.array([[0.0, 1.0], [0.25, 1.0]]))


def test_dwell_bound_example():
    consts = LyapunovConstants(a=1.0, b=2.0, c=0.4, lam=0.1)
    assert min_dwell_time((2.0, 0.0), consts) == pytest.approx(math.log(2.0) / 0.1)


@given(z=st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
       lam=st.floats(0.01, 2.0), ratio=st.floats(1.0, 10.0))
@example(z=(0.0, 1.3407807929942597e154), lam=1.0, ratio=1.0)
def test_dwell_bound_is_the_envelope_bound(z, lam, ratio):
    """The hold is log|z| / lam floored at zero, with |z| as ``math.hypot``
    gives it, a float, and zero at the origin, for every state, including
    those whose squared norm overflows."""
    consts = LyapunovConstants(a=1.0, b=ratio, c=2.0 * lam * ratio, lam=lam)
    zn = math.hypot(*z)
    expected = 0.0 if zn == 0.0 else max(0.0, math.log(zn) / lam)
    tau = min_dwell_time(z, consts)
    assert type(tau) is float
    assert tau == expected


def test_dwell_zero_state_needs_no_hold():
    consts = LyapunovConstants(a=1.0, b=2.0, c=0.4, lam=0.1)
    assert min_dwell_time((0.0, 0.0), consts) == 0.0


def test_sub_unit_state_needs_no_hold():
    consts = LyapunovConstants(a=1.0, b=2.0, c=0.4, lam=0.1)
    assert min_dwell_time((0.5, 0.0), consts) == 0.0


# ------------------------------------------------------- decay / envelope

def test_certificate_decay_bounds_trajectories():
    """|z(t)| <= sqrt(b/a) e^{-lam t} |z0| along zdot = A z, sampled via the
    exact matrix exponential (eigendecomposition oracle)."""
    consts = lyapunov_constants(P_REF, A_CACC)
    w, V = np.linalg.eig(A_CACC)
    Vinv = np.linalg.inv(V)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z0 = rng.normal(size=2)
        for t in (0.5, 2.0, 10.0, 40.0):
            expAt = (V @ np.diag(np.exp(w * t)) @ Vinv).real
            z = expAt @ z0
            bound = math.sqrt(consts.b / consts.a) * math.exp(-consts.lam * t)
            assert np.linalg.norm(z) <= bound * np.linalg.norm(z0) * (1 + 1e-9)


# ------------------------------------------------ transfer functions / norms

def test_acc_spacing_error_tf_is_pinned():
    H = spacing_error_tf(ACC, DEFAULT_ACC_GAINS)
    assert H.num == pytest.approx((1.0, 0.25))
    assert H.den == pytest.approx((1.0, 1.0, 0.25))
    assert H(0.0) == pytest.approx(1.0)  # unit DC gain: steady errors copy


def test_cacc_spacing_error_tf_requires_predecessor_only_topology():
    gains = CaccGains(alpha_pred=-1.58, beta_pred=-2.51, gamma_pred=0.8,
                      alpha_lead=0.0, beta_lead=0.0, gamma_lead=0.0)
    H = spacing_error_tf(CACC, gains)
    assert H.num == pytest.approx((0.8, 2.51, 1.58))
    assert H.den == pytest.approx((1.0, 2.51, 1.58))
    with pytest.raises(ValueError):
        spacing_error_tf(CACC, DEFAULT_CACC_GAINS)  # leader terms break the hop form


def test_hinf_norm_closed_form_second_order():
    H = spacing_error_tf(ACC, DEFAULT_ACC_GAINS)
    norm = hinf_norm(H)
    assert norm.value == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-6)
    assert norm.omega == pytest.approx(math.sqrt(0.125), abs=1e-4)


def test_hinf_norm_first_order_lag():
    H = TransferFunction((1.0,), (1.0, 1.0))
    norm = hinf_norm(H)
    assert norm.value == pytest.approx(1.0, abs=1e-9)
    assert norm.omega == 0.0


def test_hinf_norm_rejects_unstable():
    with pytest.raises(ValueError):
        hinf_norm(TransferFunction((1.0,), (1.0, -1.0)))


def test_hinf_norm_zero_numerator():
    norm = hinf_norm(TransferFunction((0.0,), (1.0, 1.0)))
    assert norm.value == 0.0


def test_transfer_function_rejects_improper():
    with pytest.raises(ValueError):
        TransferFunction((1.0, 0.0, 0.0), (1.0, 1.0))


def test_impulse_sign_check_on_known_responses():
    # 1/(s+1): h(t) = e^{-t} > 0
    assert impulse_response_nonneg(TransferFunction((1.0,), (1.0, 1.0)))
    # 1/(s+1)^2: h(t) = t e^{-t} >= 0
    assert impulse_response_nonneg(TransferFunction((1.0,), (1.0, 2.0, 1.0)))
    # ACC hop dynamics: h(t) = e^{-t/2}(1 - t/4) changes sign at t = 4
    assert not impulse_response_nonneg(spacing_error_tf(ACC, DEFAULT_ACC_GAINS))
    # (s - 1)/(s+1)^2: h(t) = e^{-t}(1 - 2t) changes sign
    assert not impulse_response_nonneg(TransferFunction((1.0, -1.0), (1.0, 2.0, 1.0)))


@pytest.mark.parametrize("num, den", [((-1.0,), (1.0,)), ((-1.0, -1.0), (1.0, 1.0)),
                                      ((-2.0, -2.0), (2.0, 2.0))])
def test_impulse_sign_check_ignores_a_constant_feedthrough(num, den):
    """H = -1 however it is written: its response is the impulse at t = 0
    alone, outside the sampled window, so it is zero on (0, 80]."""
    assert impulse_response_nonneg(TransferFunction(num, den))


def test_impulse_check_handles_biproper():
    # (s + 2)/(s + 1) = 1 + 1/(s+1): impulse delta + positive tail
    assert impulse_response_nonneg(TransferFunction((1.0, 2.0), (1.0, 1.0)))
    # (s - 2)/(s + 1) = 1 - 3/(s+1): negative tail
    assert not impulse_response_nonneg(TransferFunction((1.0, -2.0), (1.0, 1.0)))


_radar_tfs = st.builds(lambda k3, k4: spacing_error_tf(ACC, AccGains(k3, k4)),
                       st.floats(-4.0, -0.05), st.floats(-5.0, -0.05))
# (n2 s^2 + n1 s + n0) / ((s + a)(s + b)): equal degrees, stable poles
_biproper_tfs = st.builds(
    lambda num, a, b: TransferFunction(num, (1.0, a + b, a * b)),
    st.tuples(st.floats(-10.0, 10.0).filter(lambda c: c != 0.0),
              st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    st.floats(0.01, 10.0), st.floats(0.01, 10.0))


@st.composite
def _resonant_tfs(draw):
    """Orders 2-6 built from poles: a pair s^2 + 2 zeta wn s + wn^2 for each
    two orders, damping ratios zeta down to 1e-4, and a real pole if the
    order is odd; any proper numerator."""
    order = draw(st.integers(2, 6))
    den = np.array([1.0])
    for _ in range(order // 2):
        zeta, wn = 10.0 ** draw(st.floats(-4.0, 0.0)), 10.0 ** draw(st.floats(-2.0, 2.0))
        den = np.polymul(den, [1.0, 2.0 * zeta * wn, wn * wn])
    if order % 2:
        den = np.polymul(den, [1.0, 10.0 ** draw(st.floats(-2.0, 2.0))])
    num = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=order + 1))
    return TransferFunction(tuple(num), tuple(den))


# 0 and 4,096 frequencies log-spaced over [1e-4, 1e3] rad/s, the grid the peak
# was once searched on: no sample of it may beat the peak
_LOG_GRID = np.concatenate(([0.0], np.logspace(-4, 3, 4096)))


def _rounding(p, omegas):
    """A bound on the relative rounding error of p(j omega) by Horner's rule,
    8 n eps sum |p_k| omega^k / |p(j omega)| for n coefficients: near a
    lightly damped pole, D(j omega) cancels far below its terms.  At most 1:
    near a zero of p the bound says nothing."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = (8 * len(p) * np.finfo(float).eps * np.polyval(np.abs(p), omegas)
                 / np.abs(np.polyval(p, 1j * omegas)))
    return np.fmin(bound, 1.0)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_radar_tfs, _biproper_tfs,
                 _resonant_tfs().filter(TransferFunction.is_stable)))
@example(TransferFunction((-1.0, -0.25), (1.0, 1.0, 0.25)))  # acceptance criterion 3
# a resonance at 2 rad/s between two grid frequencies: the peak is 2.204, the
# grid saw 0.50004 at omega = 0
@example(TransferFunction((0.5, 0.00018, 2.00016), (1.0, 1.00004, 4.00004, 4.0)))
# a peak among clustered stationary points: the slope's roots alone miss it
# by 1.4e-6 relative
@example(TransferFunction((6.81745702, -8.1741737, -4.43998875, 5.20606191, 2.1261099,
                           -3.68196613),
                          (1.0, 0.0438269105, 209.726854, 7.1884742, 0.046752962,
                           0.00147152143)))
# a numerator term of 4e-10 puts a slope root at -1.3e19 rad^2/s^2, which
# costs the companion matrix the peak's root near 1: only a step from the
# pole's frequency finds 5.03 there
@example(TransferFunction((3.864631852286046e-10, 1.0), (1.0, 0.2, 1.0)))
# a numerator term of 5e-11 gives the slope a leading coefficient below eps
# in omega^2, though not in omega^2 / 2^20, that sets the peak at 158 rad/s
@example(TransferFunction((5.28e-11, -1.19, -9.26, 3.3, 3.91, -3.77, -2.37),
                          (1.0, 657.0, 36157.0, 502889.0, 2820891.0, 6676893.0, 5180660.0)))
# two resonances at 1 rad/s, damping 1e-3 and 1e-4: the slope's clustered
# roots start no step inside the peak, which is 1.77e6, not 6.4e5
@example(TransferFunction((1e-09, 1.0), (1.0, 1.0022, 2.0022004, 2.0022004, 1.0022, 1.0)))
def test_hinf_norm_is_the_peak_of_the_response(H):
    """No frequency in [0, 1e3] has a larger gain: not one of the log grid,
    nor the frequency of a pole, nor one within 0.1% of the peak.  The gains
    are compared to 1e-12 relative beyond the rounding bound of evaluating H
    at each frequency (and the smallest normal float, below which a gain
    has no relative precision).  The value is |H(j omega)| at its own
    omega, bit for bit."""
    norm = hinf_norm(H)
    assert 0.0 <= norm.omega <= 1e3
    assert norm.value.hex() == float(abs(H(1j * norm.omega))).hex()
    poles = np.abs(np.roots(H.den).imag)
    near = norm.omega * (1.0 + np.linspace(-1e-3, 1e-3, 2001))
    omegas = np.concatenate((_LOG_GRID, poles, near))
    omegas = omegas[omegas <= 1e3]
    peak = np.array([norm.omega])
    slack = 1e-12 + _rounding(H.num, peak) + _rounding(H.den, peak)
    gains = np.abs(H(1j * omegas)) * (1.0 - _rounding(H.num, omegas) - _rounding(H.den, omegas))
    assert np.all(gains <= norm.value * (1.0 + slack) + np.finfo(float).tiny)


def test_hinf_norm_radar_law_peak_is_exact():
    """The radar law's peak sits at omega = sqrt(1/8), with gain 2/sqrt(3)."""
    norm = hinf_norm(spacing_error_tf(ACC, DEFAULT_ACC_GAINS))
    assert norm.omega == pytest.approx(math.sqrt(0.125), rel=0, abs=1e-12)
    assert norm.value == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)


def test_hinf_norm_tiny_leading_denominator_coefficient():
    """A subnormal leading slope coefficient would overflow the companion
    matrix; |(2s + 1) / (3e-162 s^2 + s + 1)| rises to its value at 1e3."""
    norm = hinf_norm(TransferFunction((2.0, 1.0), (3e-162, 1.0, 1.0)))
    assert norm.omega == 1e3
    assert norm.value == pytest.approx(math.sqrt(4e6 + 1.0) / math.sqrt(1e6 + 1.0), rel=1e-12)


def test_badly_scaled_hurwitz_denominator():
    """1 / (1e-160 s^3 + s^2 + s + 1) has poles near -1e160 and -1/2 +- j sqrt(3)/2,
    all stable, though computed roots put one of them at 0; its peak is that of
    1 / (s^2 + s + 1), 2/sqrt(3) at omega = 1/sqrt(2)."""
    H = TransferFunction((1.0,), (1e-160, 1.0, 1.0, 1.0))
    assert H.is_stable()
    norm = hinf_norm(H)
    assert norm.omega == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert norm.value == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)


# poles re +- j im (one real pole when im is 0) on a half-unit grid, distinct, so
# that any two lie at least 1/2 apart and every pole at least 1/2 off the axis
_pole_grid = st.tuples(st.integers(1, 10).map(lambda k: k / 2) | st.integers(-10, -1).map(
    lambda k: k / 2), st.integers(0, 10).map(lambda k: k / 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(_pole_grid, min_size=1, max_size=4, unique=True),
       st.floats(0.1, 10.0), st.booleans())
def test_stability_verdict_agrees_with_the_roots(grid, scale, negate):
    """On well-separated poles up to order 8, under a leading coefficient of
    either sign, the exact Routh-Hurwitz verdict is that of the computed roots."""
    poles = [complex(re, sign * im) for re, im in grid for sign in ((1, -1) if im else (1,))]
    den = (-scale if negate else scale) * np.poly(poles).real
    verdict = bool(np.all(np.roots(den).real < 0))
    assert TransferFunction((1.0,), tuple(den)).is_stable() == verdict
    assert verdict == all(re < 0 for re, _ in grid)


@given(k3=st.floats(-4.0, -0.05), k4=st.floats(-5.0, -0.05))
@settings(max_examples=60)
def test_hop_norm_at_least_dc_gain(k3, k4):
    """The peak gain can never undercut the DC gain, which is exactly 1 for
    the radar law: spacing errors replicate down the chain at best."""
    H = spacing_error_tf(ACC, AccGains(k3, k4))
    assert hinf_norm(H).value >= 1.0 - 1e-9
