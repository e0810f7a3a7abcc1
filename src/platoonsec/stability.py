"""Stability certification for the switched CACC/ACC closed loop.

Four layers of analysis, all on the 2x2 per-vehicle error system
zdot = A z with A = [[0, 1], [k_pos, k_vel]]:

* BIBO / eigenvalue placement checks on the aggregate gains (``check_bibo_lemma1``).
* A common quadratic Lyapunov certificate V(z) = z'Pz valid for both
  controller matrices simultaneously, which guarantees global uniform
  exponential stability under arbitrary switching (``lmi_residual``,
  ``check_common_lyapunov``, ``find_common_lyapunov``).  The search
  maximizes a P's worst decay margin; when it returns None, no P of its
  region clears the check's margin of 1e-9.  The same
  negative-definiteness condition is also exposed as a literal set of scalar
  inequalities in the gains and the entries of P
  (``check_gues_inequalities``); the two forms agree exactly because for a
  2x2 symmetric S, S < 0 iff S[0][0] < 0 and det S > 0.
* A dwell-time lower bound for how long the string-stable (CACC) mode must
  stay active after each activation so that switching cannot destroy the
  exponential envelope: log|z| / lam from the state z at the activation
  (``lyapunov_constants``, ``min_dwell_time``).
* Frequency-domain string-stability checks on the hop-to-hop spacing-error
  transfer function: H-infinity norm <= 1 and a sign-definite impulse
  response (``spacing_error_tf``, ``hinf_norm``, ``impulse_response_nonneg``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import dropwhile, zip_longest

import numpy as np

from .control import law_terms, step_map

__all__ = [
    "LyapunovCandidate",
    "LyapunovConstants",
    "CertificateReport",
    "GuesInequalities",
    "TransferFunction",
    "HinfNorm",
    "check_bibo_lemma1",
    "lmi_residual",
    "check_common_lyapunov",
    "check_gues_inequalities",
    "find_common_lyapunov",
    "lyapunov_constants",
    "min_dwell_time",
    "spacing_error_tf",
    "hinf_norm",
    "impulse_response_nonneg",
]


def sym_eig_2x2(S) -> tuple[float, float]:
    """Eigenvalues (min, max) of a symmetric 2x2 matrix, closed form.

    mean -/+ radius gives the eigenvalue of larger magnitude to the last
    bits, but the other cancels: P = (1, 0.759, 1e308) would have 0 for 1.
    So where the determinant is finite, the eigenvalue nearer zero is the
    determinant over the other one."""
    s11, s12, s22 = float(S[0][0]), float(S[0][1]), float(S[1][1])
    mean = 0.5 * (s11 + s22)
    radius = math.hypot(0.5 * (s11 - s22), s12)
    lo, hi = mean - radius, mean + radius
    det = s11 * s22 - s12 * s12
    if math.isfinite(det):
        if mean >= 0.0 and hi != 0.0:
            lo = det / hi
        elif mean < 0.0:
            hi = det / lo
    return lo, hi


def _square(x: float) -> float:
    """``x ** 2``, or inf where that overflows: a float power raises
    OverflowError there.  (``x * x`` would not raise, but it differs from
    ``x ** 2`` in the last bit for some x, which could move a verdict.)"""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class LyapunovCandidate:
    """Entries of a symmetric 2x2 Lyapunov matrix P."""

    p11: float
    p12: float
    p22: float

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.p11, self.p12], [self.p12, self.p22]])

    def is_positive_definite(self) -> bool:
        return self.p11 > 0.0 and self.p11 * self.p22 - _square(self.p12) > 0.0


def _p_matrix(P) -> np.ndarray:
    if isinstance(P, LyapunovCandidate):
        return P.as_matrix()
    P = np.asarray(P, dtype=float)
    if P.shape != (2, 2) or P[0, 1] != P[1, 0]:
        raise ValueError("P must be a symmetric 2x2 matrix")
    return P


# A certificate's margin: P's smallest eigenvalue must exceed it, and each
# residual's largest eigenvalue must lie below its negative.
_MARGIN = 1e-9


@dataclass(frozen=True)
class LyapunovConstants:
    """Scalar constants extracted from a certificate (P, A).

    a|z|^2 <= V(z) <= b|z|^2 and Vdot <= -c|z|^2 along zdot = Az, giving the
    exponential decay rate lam = c / (2 b) for V-based envelopes.
    """

    a: float
    b: float
    c: float
    lam: float


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of checking one P against a family of closed-loop matrices."""

    p_definite: bool
    p_eigenvalues: tuple[float, float]
    residual_max_eigenvalues: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.p_definite and all(e < -_MARGIN for e in self.residual_max_eigenvalues)


def check_bibo_lemma1(k_pos: float, k_vel: float) -> dict:
    """Gain-level stability checks for A = [[0,1],[k_pos,k_vel]].

    ``hurwitz``: both aggregate gains negative (eigenvalues in the open left
    half plane -- bounded-input bounded-output stability of the hop).
    ``lemma1``: the stricter k_vel <= -2 sqrt(-k_pos), which additionally
    forces the eigenvalues to be real (no oscillatory modes).  The two are
    deliberately separate: gain sets exist that are Hurwitz yet fail the
    real-eigenvalue condition by a hair.
    """
    hurwitz = k_pos < 0 and k_vel < 0
    lemma1 = k_pos < 0 and k_vel <= -2.0 * math.sqrt(-k_pos)
    return {"hurwitz": hurwitz, "lemma1": lemma1}


def lmi_residual(A, P) -> np.ndarray:
    """The Lyapunov residual S = A'P + PA (negative definite for a certificate).

    For A = [[0,1],[k,m]] the closed form is
    S = [[2 k p12, k p22 + p11 + m p12], [., 2 (p12 + m p22)]].
    """
    A = np.asarray(A, dtype=float)
    P = _p_matrix(P)
    return A.T @ P + P @ A


# a residual that overflows fails the check by its inf or nan eigenvalue,
# not with a numpy warning from each operation on it
@np.errstate(over="ignore", invalid="ignore")
def check_common_lyapunov(P, A_list) -> CertificateReport:
    """Check one quadratic V(z) = z'Pz against every matrix in A_list.

    Passes iff P's smallest eigenvalue exceeds a margin of 1e-9 and each
    residual A'P + PA has its maximum eigenvalue below -1e-9.  Borderline
    candidates (within the margin of singularity) are reported as failures;
    eigenvalues are included for diagnostics.
    """
    P = _p_matrix(P)
    p_lo, p_hi = sym_eig_2x2(P)
    residual_eigs = tuple(sym_eig_2x2(lmi_residual(A, P))[1] for A in A_list)
    return CertificateReport(
        p_definite=p_lo > _MARGIN,
        p_eigenvalues=(p_lo, p_hi),
        residual_max_eigenvalues=residual_eigs,
    )


@dataclass(frozen=True)
class GuesInequalities:
    """Literal scalar conditions equivalent to the common-certificate LMI.

    Beyond positive definiteness of P (with the p12 > 0 normalization) and
    negativity of the position gains, each mode's velocity gain must lie
    strictly between the two roots of the residual-determinant quadratic:

        m_lo/hi = ((k p22 - p11) -/+ 2 sqrt(k (p12^2 - p11 p22))) / p12

    If the square-root argument is negative the bracket is ill-posed, which
    signals a sign violation in the corresponding position gain; those
    entries are reported False and named in ``ill_posed``.
    """

    p11_positive: bool
    p12_positive: bool
    p_det_positive: bool
    k1_negative: bool
    k3_negative: bool
    k2_above_lower: bool
    k2_below_upper: bool
    k4_above_lower: bool
    k4_below_upper: bool
    ill_posed: frozenset[str]

    @property
    def violated(self) -> list[str]:
        """The names of the inequalities that fail, in field order."""
        return [f.name for f in fields(self)
                if f.name != "ill_posed" and not getattr(self, f.name)]

    @property
    def all_satisfied(self) -> bool:
        return not self.violated


def _velocity_gain_bracket(k: float, m: float, p11: float, p12: float, p22: float):
    """(above_lower, below_upper, ill_posed) for one mode's (k, m) pair."""
    arg = k * (_square(p12) - p11 * p22)
    if arg < 0 or p12 == 0:
        return False, False, True
    root_span = 2.0 * math.sqrt(arg)
    center = k * p22 - p11
    lower = (center - root_span) / p12
    upper = (center + root_span) / p12
    if p12 < 0:
        lower, upper = upper, lower
    return m > lower, m < upper, False


def check_gues_inequalities(k1: float, k2: float, k3: float, k4: float,
                            P: LyapunovCandidate) -> GuesInequalities:
    """Evaluate the scalar certificate conditions literally, one flag each."""
    p11, p12, p22 = P.p11, P.p12, P.p22
    det_ok = p11 > 0 and p22 > _square(p12) / p11
    k2_lo, k2_hi, ill_cacc = _velocity_gain_bracket(k1, k2, p11, p12, p22)
    k4_lo, k4_hi, ill_acc = _velocity_gain_bracket(k3, k4, p11, p12, p22)
    ill = set()
    if ill_cacc:
        ill.update({"k2_above_lower", "k2_below_upper"})
    if ill_acc:
        ill.update({"k4_above_lower", "k4_below_upper"})
    return GuesInequalities(
        p11_positive=p11 > 0,
        p12_positive=p12 > 0,
        p_det_positive=det_ok,
        k1_negative=k1 < 0,
        k3_negative=k3 < 0,
        k2_above_lower=k2_lo,
        k2_below_upper=k2_hi,
        k4_above_lower=k4_lo,
        k4_below_upper=k4_hi,
        ill_posed=frozenset(ill),
    )


# golden section's step: each keeps this fraction of the bracket
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_argmax(f, lo: float, hi: float, steps: int = 30) -> float:
    """The x in (lo, hi) where f is largest, by golden-section search: each
    step keeps the part of the bracket on the better side of two interior
    points, so an f unimodal there is maximized to 0.618**steps of the
    bracket.  A tie or a NaN keeps the upper part."""
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return c if fc > fd else d


# the ranges of p12 and of det P = p22 - p12^2 (with p11 = 1) the search
# covers, in their logarithms: certificates span decades (the P of
# A'P + PA = -I, scaled to p11 = 1, has det P near 50 for a slow mode,
# k = m = -0.02, near 4e-4 for k = -0.02, m = -8, and p12 near 9 for
# k = -1e-3, m = -0.01)
_LOG_P12 = (math.log(1e-6), math.log(1e6))
_LOG_DET = (math.log(1e-6), math.log(1e6))


def find_common_lyapunov(A_list) -> LyapunovCandidate | None:
    """Search for a common certificate P = [[1, p12], [p12, p22]] by
    maximizing its score.

    Certificates are scale invariant, so p11 = 1.  A P's score is its worst
    normalized decay margin, min_A(-max_eig(A'P + PA)) / max_eig(P).  The
    margin is concave in P and max_eig(P) is convex and positive, so the
    score's positive superlevel sets are convex, and where a certificate
    exists nested line searches reach the best one: a golden-section search
    over log p12, with p12 in [1e-6, 1e6], scores each p12 by a
    golden-section search over log det P, with det P = p22 - p12^2 in
    [1e-6, 1e6].  The best P is judged by ``check_common_lyapunov``.  None
    means that it fails the check: no P of that region clears the margin of
    1e-9, to the search's resolution.
    """
    A_list = [np.asarray(A, dtype=float) for A in A_list]
    gains = [(float(A[1, 0]), float(A[1, 1])) for A in A_list]

    def best_p22(log_p12: float) -> tuple[float, float]:
        """The best score with this p12, and its p22."""
        p12 = math.exp(log_p12)

        def score(log_det: float) -> float:
            p22 = p12 ** 2 + math.exp(log_det)
            # each max_eig in closed form, mean + radius; S as in lmi_residual
            worst = math.inf
            for k, m in gains:
                s11, s12, s22 = 2.0 * k * p12, k * p22 + 1.0 + m * p12, 2.0 * (p12 + m * p22)
                worst = min(worst, -0.5 * (s11 + s22) - math.hypot(0.5 * (s11 - s22), s12))
            return worst / (0.5 * (1.0 + p22) + math.hypot(0.5 * (1.0 - p22), p12))

        log_det = _golden_argmax(score, *_LOG_DET)
        return score(log_det), p12 ** 2 + math.exp(log_det)

    log_p12 = _golden_argmax(lambda log_p12: best_p22(log_p12)[0], *_LOG_P12)
    cand = LyapunovCandidate(1.0, math.exp(log_p12), best_p22(log_p12)[1])
    if not check_common_lyapunov(cand, A_list).passed:
        return None
    return cand


def lyapunov_constants(P, A) -> LyapunovConstants:
    """Extract (a, b, c, lam) from a valid certificate pair.

    a, b bound V between a|z|^2 and b|z|^2; c bounds the decay Vdot <=
    -c|z|^2; lam = c/(2b) is the resulting exponential rate.  Raises if P is
    not positive definite or the residual is not negative definite, naming
    the offending matrix.
    """
    P = _p_matrix(P)
    a, b = sym_eig_2x2(P)
    if a <= 0:
        raise ValueError("P is not positive definite")
    neg_c, _ = sym_eig_2x2(-lmi_residual(A, P))
    if neg_c <= 0:
        raise ValueError("residual A'P + PA is not negative definite")
    return LyapunovConstants(a=a, b=b, c=neg_c, lam=neg_c / (2.0 * b))


def min_dwell_time(z, constants: LyapunovConstants) -> float:
    """How long the contracting mode must stay active after a switch at
    state ``z``: log|z| / lam keeps the exponential envelope below its
    previous peak.  Floored at zero: a state inside the unit ball (or at
    the origin) needs no hold.

    The hold is not what makes the switched loop stable: with no input, a
    common P alone gives GUES under any switching.  What the hold adds is
    V's contraction across successive CACC activations once the
    predecessor's motion drives the follower: on ``benign_switching``'s
    seeds 0-999, V failed to contract on 86 seeds with the hold off and on
    7 with it on."""
    zn = math.hypot(*z)  # squares nothing, so a finite z has a finite norm
    if zn == 0.0:
        return 0.0
    return max(0.0, math.log(zn) / constants.lam)


@dataclass(frozen=True)
class TransferFunction:
    """Rational transfer function; coefficients in descending powers of s,
    stored as float tuples without leading zeros."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        for name in ("num", "den"):
            coeffs = map(float, getattr(self, name))
            object.__setattr__(self, name, tuple(dropwhile(lambda c: c == 0.0, coeffs)))
        if not self.den:
            raise ValueError("denominator must not be identically zero")
        if self.num and len(self.num) > len(self.den):
            raise ValueError("transfer function must be proper (deg num <= deg den)")

    def __call__(self, s: complex) -> complex:
        return np.polyval(self.num, s) / np.polyval(self.den, s)

    def is_stable(self) -> bool:
        """Hurwitz denominator: every pole strictly in the left half plane.

        Decided without roots by the Routh-Hurwitz test, in exact rational
        arithmetic on the coefficients' values: the first column of the
        Routh array holds no zero and a single sign.  (Computed roots can
        misplace the small poles of a badly scaled denominator, such as
        1e-160 s^3 + s^2 + s + 1.)
        """
        upper, lower = ([Fraction(c) for c in self.den[i::2]] for i in (0, 1))
        while lower:
            if lower[0] == 0 or (lower[0] > 0) != (upper[0] > 0):
                return False
            ratio = upper[0] / lower[0]
            upper, lower = lower, [a - ratio * b for a, b in
                                   zip_longest(upper[1:], lower[1:], fillvalue=0)]
        return True


def spacing_error_tf(mode: str, gains) -> TransferFunction:
    """Hop-to-hop spacing-error transfer function H(s) = eps_i / eps_{i-1}.

    Derived from eps_ddot_i = u_i - u_{i-1} under the law's predecessor term
    (alpha, beta, gamma), for i >= 3 (both vehicles of the hop run the law):

        H(s) = (gamma s^2 - beta s - alpha) / (s^2 - beta s - alpha)

    The radar law has gamma = 0, so stable gains give DC gain +1: a slow
    positive offset on the predecessor's error reappears with the same sign
    one hop back.  With a nonzero leader term the error dynamics involve
    every upstream hop, and the request is rejected.
    """
    pred, *leader = law_terms(mode, gains)
    if any(term.alpha or term.beta or term.gamma for term in leader):
        raise ValueError("no single-hop spacing-error transfer function exists with leader "
                         "coupling active; set the leader gains to zero for a chain analysis")
    a, b, g = pred.alpha, pred.beta, pred.gamma
    den = (1.0, -b + 0.0, -a + 0.0)
    return TransferFunction(num=(g + 0.0,) + den[1:], den=den)


@dataclass(frozen=True)
class HinfNorm:
    """Peak frequency-response magnitude and the frequency attaining it."""

    value: float
    omega: float


_OMEGA_MAX = 1e3


def _gain_squared(coeffs) -> np.ndarray:
    """|c(j omega)|^2 = re(w)^2 + w im(w)^2 in descending powers of w = omega^2, where
    c(j omega) = re + j omega im; c's coefficients (descending powers of s, none for c = 0)
    are first scaled to a largest magnitude of one, so that no square overflows."""
    c = np.array(coeffs[::-1] + (0.0, 0.0)) / max(map(abs, coeffs), default=1.0)
    c[2::4] *= -1.0  # j^2 = -1
    c[3::4] *= -1.0  # j^3 = -j
    re, im = c[0::2][::-1], c[1::2][::-1]
    return np.polyadd(np.polymul(re, re), np.polymul(np.polymul(im, im), [1.0, 0.0]))


def _log_derivatives(p, s):
    """p'(s) / p(s) and p''(s) / p(s)."""
    value = np.polyval(p, s)
    return np.polyval(np.polyder(p), s) / value, np.polyval(np.polyder(p, 2), s) / value


def hinf_norm(H: TransferFunction) -> HinfNorm:
    """sup over omega in [0, 1e3] of |H(j omega)|, at a stationary point.

    |H(j omega)|^2 = A(w) / B(w) in w = omega^2, so the peak is at an end of the range
    or at a root of the slope A'B - AB'.  Those and the frequencies of H's poles are
    the candidates, each also after Newton steps on d log|H(j omega)| / d omega taken
    from H itself: near lightly damped or coinciding resonances the slope's roots are
    found to a few digits only.  All are evaluated as H(j omega) in one call, and the
    first largest is the peak.  Requires a stable H; the norm is undefined otherwise.
    """
    if not H.is_stable():
        raise ValueError("H-infinity norm undefined: denominator is not Hurwitz")
    A, B = _gain_squared(H.num), _gain_squared(H.den)
    slope = np.polysub(np.polymul(np.polyder(A), B), np.polymul(A, np.polyder(B)))
    # the slope in u = w / 2^20 (> 1e6), exactly scaled by powers of two to a largest coefficient
    # near 1 at any order; a leading one below eps adds a root past 1 / eps, or overflows np.roots
    k = np.arange(slope.size)[::-1]
    top = (20 * k + np.frexp(slope)[1]).max(where=slope != 0.0, initial=0)
    slope = np.ldexp(slope, 20 * k - top)
    with np.errstate(all="ignore"):  # a root or step that leaves the range is dropped
        u = np.roots(slope[np.argmax(np.abs(slope) > np.finfo(float).eps):]).real
        starts = np.concatenate(([0.0, _OMEGA_MAX], np.sqrt(u * 2.0 ** 20),
                                 np.abs(np.roots(H.den).imag)))
        polished = starts
        for _ in range(20):
            (n1, n2), (d1, d2) = (_log_derivatives(p, 1j * polished) for p in (H.num, H.den))
            polished = polished - (n1 - d1).imag / (n2 - n1 ** 2 - d2 + d1 ** 2).real
    omegas = np.append(starts, polished)
    omegas = omegas[(omegas >= 0.0) & (omegas <= _OMEGA_MAX)]
    # each entry's abs, as abs(H(1j * omega)) takes it: np.abs of an array rounds some otherwise
    mags = [abs(response) for response in H(1j * omegas)]
    best = int(np.argmax(mags))  # the first of the largest
    return HinfNorm(float(mags[best]), float(omegas[best]))


def impulse_response_nonneg(H: TransferFunction) -> bool:
    """Whether the impulse response stays above -1e-9 on (0, 80] s.

    The transfer function is realized in controllable canonical form and the
    response h(t) = C exp(At) B is integrated with a fixed 1 ms step of
    ``control.step_map``, the engine's fourth-order step.  For a biproper H
    the impulsive direct-feedthrough term at t = 0 is outside the sampled
    window and is ignored, so a constant H, or one that cancels to a
    constant, has a zero response there.
    """
    horizon, step, tol = 80.0, 1e-3, 1e-9
    den = [c / H.den[0] for c in H.den]
    num = [c / H.den[0] for c in H.num]
    n = len(den) - 1
    if len(num) == len(den):
        d = num[0]
        num = [num[i + 1] - d * den[i + 1] for i in range(n)]
    if not any(num):
        return True
    num = [0.0] * (n - len(num)) + num

    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = [-den[n - i] for i in range(n)]
    B = np.zeros(n)
    B[-1] = 1.0
    C = np.array(num[::-1])

    # a diverging response is reported once, by the non-finite check below,
    # not by a numpy warning from each operation on the overflowed values
    with np.errstate(over="ignore", invalid="ignore"):
        M, _ = step_map(A, step)
        z = B.copy()
        steps = int(math.ceil(horizon / step))
        for _ in range(steps):
            z = M @ z
            if C @ z < -tol:
                return False
            if not np.all(np.isfinite(z)):
                raise FloatingPointError("impulse-response integration diverged")
    return True

