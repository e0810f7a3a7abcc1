"""Attacker/defender security game over the switched control system.

The game tree has three stages: the attacker moves (attack ``a`` / refrain
``na``), an imperfect detector observes the channel and reports (``r`` /
``nr``) according to its confusion matrix -- a chance player -- and the
defender, seeing only the report, decides whether to downgrade the platoon
to sensor-only control (``d``) or keep the cooperative controller (``nd``).
The defender's two information sets (one per report value) give four pure
strategies; by perfect recall, mixtures over those are equivalent to
behavioral strategies (one downgrade probability per report value).

Everything is computed in exact rational arithmetic: numeric inputs are
interpreted as the decimal literals they were written as (``0.7`` means
7/10), so equilibrium probabilities and verification gaps come out exact.
The solver lists every extreme Nash equilibrium of the 2 x 4 reduced normal
form; where payoff ties make a set of equilibria, it lists the set's
extreme points, each flagged degenerate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._entry import EntryError

__all__ = [
    "LEAF_ORDER",
    "DEFENDER_PURE_STRATEGIES",
    "GameSpec",
    "BehavioralStrategy",
    "NormalForm",
    "Equilibrium",
    "PlayEstimate",
    "DEFAULT_GAME",
    "expected_utilities",
    "to_normal_form",
    "solve_nash",
    "to_behavioral",
    "best_response_gap",
    "monte_carlo_play",
    "equilibrium_strategy",
]

# Leaf order: attacker action, then detector report, then defender action.
LEAF_ORDER = (
    ("a", "r", "d"), ("a", "r", "nd"), ("a", "nr", "d"), ("a", "nr", "nd"),
    ("na", "r", "d"), ("na", "r", "nd"), ("na", "nr", "d"), ("na", "nr", "nd"),
)

# Defender pure strategies as (action on report, action on no-report).
DEFENDER_PURE_STRATEGIES = (("d", "d"), ("d", "nd"), ("nd", "d"), ("nd", "nd"))


def _frac(x) -> Fraction:
    """Exact rational view of a numeric input.

    Floats are read back through their shortest decimal representation, so a
    config value written as 0.7 becomes exactly 7/10.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


def _leaf_index(attack: bool, reported: bool, downgrade: bool) -> int:
    return (0 if attack else 4) + (0 if reported else 2) + (0 if downgrade else 1)


@dataclass(frozen=True)
class GameSpec:
    """Leaf utilities plus the detector's confusion probabilities.

    ``leaf_utilities`` holds eight (attacker, defender) pairs in LEAF_ORDER.
    The two report probabilities are the chance node's, and the only copy of
    them: a run's simulated detector (``threat.detector_sample``) samples
    the game its policy is solved for.  A bad entry raises an ``EntryError``
    naming it.
    """

    leaf_utilities: tuple
    p_report_given_attack: Fraction = Fraction(7, 10)
    p_report_given_benign: Fraction = Fraction(1, 10)

    def __post_init__(self):
        leaves = tuple((_frac(ua), _frac(ud)) for ua, ud in self.leaf_utilities)
        if len(leaves) != 8:
            raise EntryError("leaf_utilities",
                             f"expected 8 leaf utility pairs, got {len(leaves)}")
        object.__setattr__(self, "leaf_utilities", leaves)
        for name in ("p_report_given_attack", "p_report_given_benign"):
            p = _frac(getattr(self, name))
            if not 0 <= p <= 1:
                raise EntryError(name, f"{name} must be a probability, got {p}")
            object.__setattr__(self, name, p)

    def report_probability(self, attack: bool) -> Fraction:
        return self.p_report_given_attack if attack else self.p_report_given_benign


@dataclass(frozen=True)
class BehavioralStrategy:
    """One probability per decision point: attack, downgrade|r, downgrade|nr."""

    attacker_p_attack: Fraction
    defender_p_downgrade_given_r: Fraction
    defender_p_downgrade_given_nr: Fraction

    def __post_init__(self):
        for name in ("attacker_p_attack", "defender_p_downgrade_given_r",
                     "defender_p_downgrade_given_nr"):
            v = _frac(getattr(self, name))
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be a probability, got {v}")
            object.__setattr__(self, name, v)

    def p_downgrade(self, reported: bool) -> Fraction:
        return (self.defender_p_downgrade_given_r if reported
                else self.defender_p_downgrade_given_nr)


def expected_utilities(spec: GameSpec, behavioral: BehavioralStrategy):
    """Chance-weighted expected utilities (attacker, defender) of a profile."""
    p_attack = behavioral.attacker_p_attack
    total_a = Fraction(0)
    total_d = Fraction(0)
    for attack in (True, False):
        p_act = p_attack if attack else 1 - p_attack
        if p_act == 0:
            continue
        q = spec.report_probability(attack)
        for reported in (True, False):
            p_rep = q if reported else 1 - q
            if p_rep == 0:
                continue
            pd = behavioral.p_downgrade(reported)
            for downgrade in (True, False):
                p_def = pd if downgrade else 1 - pd
                if p_def == 0:
                    continue
                w = p_act * p_rep * p_def
                ua, ud = spec.leaf_utilities[_leaf_index(attack, reported, downgrade)]
                total_a += w * ua
                total_d += w * ud
    return total_a, total_d


@dataclass(frozen=True)
class NormalForm:
    """Reduced 2 x 4 bimatrix: rows (a, na), columns DEFENDER_PURE_STRATEGIES."""

    attacker_payoffs: tuple
    defender_payoffs: tuple


def to_normal_form(spec: GameSpec) -> NormalForm:
    """Collapse the chance node: one exact payoff cell per pure profile."""
    rows_a, rows_d = [], []
    for attack in (True, False):
        q = spec.report_probability(attack)
        row_a, row_d = [], []
        for on_r, on_nr in DEFENDER_PURE_STRATEGIES:
            ua = Fraction(0)
            ud = Fraction(0)
            for reported, action in ((True, on_r), (False, on_nr)):
                w = q if reported else 1 - q
                la, ld = spec.leaf_utilities[_leaf_index(attack, reported, action == "d")]
                ua += w * la
                ud += w * ld
            row_a.append(ua)
            row_d.append(ud)
        rows_a.append(tuple(row_a))
        rows_d.append(tuple(row_d))
    return NormalForm(tuple(rows_a), tuple(rows_d))


@dataclass(frozen=True)
class Equilibrium:
    """A Nash equilibrium of the reduced game, in mixed-strategy form.

    ``attacker`` is (P(a), P(na)); ``defender`` weights the four pure
    strategies.  ``degenerate`` marks a profile with a best reply outside
    its support: a payoff tie, through which a set of equilibria may run,
    and the profile is then one of that set's extreme points.
    """

    attacker: tuple
    defender: tuple
    degenerate: bool = False

    @property
    def p_attack(self) -> Fraction:
        return self.attacker[0]


def _attacker_payoff(nf: NormalForm, row: int, y) -> Fraction:
    return sum(nf.attacker_payoffs[row][c] * y[c] for c in range(4))


def _defender_payoff(nf: NormalForm, col: int, p_attack) -> Fraction:
    return (nf.defender_payoffs[0][col] * p_attack
            + nf.defender_payoffs[1][col] * (1 - p_attack))


def _verified(nf: NormalForm, x, y) -> tuple[bool, bool]:
    """(is_equilibrium, has_ties) for a candidate profile, all exact."""
    ua = sum(_attacker_payoff(nf, r, y) * x[r] for r in (0, 1))
    ud = sum(_defender_payoff(nf, c, x[0]) * y[c] for c in range(4))
    ties = False
    for r in (0, 1):
        dev = _attacker_payoff(nf, r, y)
        if dev > ua:
            return False, False
        if dev == ua and x[r] == 0:
            ties = True
    for c in range(4):
        dev = _defender_payoff(nf, c, x[0])
        if dev > ud:
            return False, False
        if dev == ud and y[c] == 0:
            ties = True
    return True, ties


def solve_nash(nf: NormalForm) -> list[Equilibrium]:
    """Every extreme Nash equilibrium of the 2 x 4 bimatrix, sorted.

    The attacker's mixture is one number, P(attack) = p, and each defender
    column's value is a line in p.  A set of equilibria ends, in p, at 0, at
    1 or where two best columns of different slope cross.  At such a p the
    defender's equilibrium mixtures form a polytope over the best columns,
    whose vertices are single columns that keep the attacker's row a best
    reply and pairs of columns that leave the attacker indifferent (Avis,
    Rosenberg, Savani & von Stengel 2010).  Every profile is verified
    exactly; ``degenerate`` marks one with a best reply outside its support.
    """
    D = nf.defender_payoffs
    gain = [nf.attacker_payoffs[0][c] - nf.attacker_payoffs[1][c] for c in range(4)]
    slope = [D[0][c] - D[1][c] for c in range(4)]

    def best(p):
        values = [_defender_payoff(nf, c, p) for c in range(4)]
        return [c for c in range(4) if values[c] == max(values)]

    candidates = {Fraction(0), Fraction(1)}
    for c1, c2 in itertools.combinations(range(4), 2):
        if slope[c1] != slope[c2]:
            p = (D[1][c2] - D[1][c1]) / (slope[c1] - slope[c2])
            if 0 < p < 1 and {c1, c2} <= set(best(p)):
                candidates.add(p)

    equilibria = []
    for p in candidates:
        x = (p, 1 - p)
        cols = best(p)
        mixes = [{c: Fraction(1)} for c in cols
                 if gain[c] == 0 or (p == 1 and gain[c] > 0) or (p == 0 and gain[c] < 0)]
        mixes += [{c1: gain[c2] / (gain[c2] - gain[c1]), c2: gain[c1] / (gain[c1] - gain[c2])}
                  for c1, c2 in itertools.combinations(cols, 2) if gain[c1] * gain[c2] < 0]
        for mix in mixes:
            y = tuple(mix.get(c, Fraction(0)) for c in range(4))
            ok, ties = _verified(nf, x, y)
            if not ok:
                raise RuntimeError(f"candidate profile {x}, {y} is not an equilibrium")
            equilibria.append(Equilibrium(attacker=x, defender=y, degenerate=ties))
    return sorted(equilibria, key=lambda e: (e.attacker, e.defender))


def to_behavioral(defender_mixed, attacker_p_attack) -> BehavioralStrategy:
    """Collapse a mixture over defender pure strategies to per-report
    probabilities, completed by the attacker's P(attack).

    Pure strategies 0 and 1 play ``d`` at the report information set;
    0 and 2 play ``d`` at the no-report set.  Valid by perfect recall.
    """
    y = tuple(_frac(w) for w in defender_mixed)
    if len(y) != 4 or sum(y) != 1 or any(w < 0 for w in y):
        raise ValueError("defender mixture must be a distribution over 4 pure strategies")
    return BehavioralStrategy(
        attacker_p_attack=attacker_p_attack,
        defender_p_downgrade_given_r=y[0] + y[1],
        defender_p_downgrade_given_nr=y[0] + y[2],
    )


def best_response_gap(spec: GameSpec, behavioral: BehavioralStrategy):
    """(attacker gap, defender gap): best deviation payoff minus current payoff.

    Computed directly on the tree, independently of the normal-form
    reduction, so it can serve as the verification oracle for the solver.
    Both gaps are zero exactly at a Nash equilibrium.
    """
    ua, ud = expected_utilities(spec, behavioral)
    gap_a = max(
        expected_utilities(
            spec, BehavioralStrategy(Fraction(int(pure)),
                                     behavioral.defender_p_downgrade_given_r,
                                     behavioral.defender_p_downgrade_given_nr)
        )[0]
        for pure in (1, 0)
    ) - ua
    gap_d = max(
        expected_utilities(
            spec, BehavioralStrategy(behavioral.attacker_p_attack,
                                     Fraction(pr), Fraction(pnr))
        )[1]
        for pr in (1, 0) for pnr in (1, 0)
    ) - ud
    return gap_a, gap_d


@dataclass(frozen=True)
class PlayEstimate:
    """Monte Carlo estimate of expected utilities with standard errors."""

    mean_attacker: float
    mean_defender: float
    se_attacker: float
    se_defender: float
    samples: int


def monte_carlo_play(spec: GameSpec, behavioral: BehavioralStrategy,
                     samples: int, rng) -> PlayEstimate:
    """Play the tree ``samples`` times with a seeded generator.

    Chance and both players are sampled independently each round; the sample
    means estimate expected_utilities, with standard errors for calibration
    checks.
    """
    p_attack = float(behavioral.attacker_p_attack)
    p_r_a = float(spec.p_report_given_attack)
    p_r_na = float(spec.p_report_given_benign)
    p_d_r = float(behavioral.defender_p_downgrade_given_r)
    p_d_nr = float(behavioral.defender_p_downgrade_given_nr)

    attacks = rng.random(samples) < p_attack
    reports = rng.random(samples) < np.where(attacks, p_r_a, p_r_na)
    downgrades = rng.random(samples) < np.where(reports, p_d_r, p_d_nr)

    idx = (np.where(attacks, 0, 4) + np.where(reports, 0, 2)
           + np.where(downgrades, 0, 1))
    util_a = np.array([float(ua) for ua, _ in spec.leaf_utilities])[idx]
    util_d = np.array([float(ud) for _, ud in spec.leaf_utilities])[idx]
    return PlayEstimate(
        mean_attacker=float(util_a.mean()),
        mean_defender=float(util_d.mean()),
        se_attacker=float(util_a.std(ddof=1) / np.sqrt(samples)),
        se_defender=float(util_d.std(ddof=1) / np.sqrt(samples)),
        samples=samples,
    )


@functools.lru_cache
def equilibrium_strategy(spec: GameSpec) -> BehavioralStrategy:
    """Solve the game and return the behavioral profile driving the switch.

    When several equilibria exist the defender-optimal one is selected (the
    defender operates the switch, so it plays the equilibrium it prefers),
    the first in sorted order on ties.  The pick is optimal over the whole
    equilibrium set, not only the listed points: the equilibria form a union
    of products of polytopes, on each of which the defender's payoff is
    bilinear and so peaks at a vertex, and ``solve_nash`` lists every vertex.
    The solution is memoised per spec: both types are frozen, and seed
    ensembles and sweep cells solve the same game in every run.
    """
    equilibria = solve_nash(to_normal_form(spec))
    best = max(
        equilibria,
        key=lambda e: expected_utilities(
            spec, to_behavioral(e.defender, e.p_attack))[1],
    )
    return to_behavioral(best.defender, best.p_attack)


# Default utilities: an undetected attack pays the attacker and costs the
# defender dearly; downgrading blunts the attack at modest cost to both; and
# downgrading benign traffic wastes cooperative performance for nothing.
DEFAULT_GAME = GameSpec(
    leaf_utilities=(
        (-1, -2),    # attack, reported, downgraded: attack blunted
        (3, -10),    # attack, reported, ignored: full damage
        (-1, -2),    # attack, missed, downgraded anyway
        (3, -10),    # attack, missed, ignored: full damage
        (0, -3),     # benign, false alarm, needless downgrade
        (0, 0),      # benign, false alarm, ignored
        (0, -3),     # benign, quiet, needless downgrade
        (0, 0),      # benign, quiet, full cooperation
    ),
)
