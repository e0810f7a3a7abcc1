"""Exact solution of the attacker/defender switching game.

The default game's equilibrium was derived by hand from the indifference
conditions (defender mixes the two always-downgrade-on-report columns at the
attacker probability equalizing them; the attacker probability makes the
defender indifferent) and is frozen here in exact rationals.
"""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsec.game import (DEFAULT_GAME, DEFENDER_PURE_STRATEGIES, LEAF_ORDER,
                             BehavioralStrategy, Equilibrium, GameSpec, NormalForm,
                             _attacker_payoff, _defender_payoff, _verified,
                             best_response_gap, equilibrium_strategy,
                             expected_utilities, monte_carlo_play, solve_nash,
                             to_behavioral, to_normal_form)

F = Fraction


def default_equilibrium():
    eqs = solve_nash(to_normal_form(DEFAULT_GAME))
    assert len(eqs) == 1
    return eqs[0]


# ----------------------------------------------------------- structure

def test_leaf_order_groups_attack_first():
    assert LEAF_ORDER[0] == ("a", "r", "d")
    assert LEAF_ORDER[3] == ("a", "nr", "nd")
    assert LEAF_ORDER[7] == ("na", "nr", "nd")
    assert DEFENDER_PURE_STRATEGIES[0] == ("d", "d")


def test_spec_reads_floats_as_decimal_literals():
    spec = GameSpec(DEFAULT_GAME.leaf_utilities, 0.7, 0.1)
    assert spec.p_report_given_attack == F(7, 10)
    assert spec.p_report_given_benign == F(1, 10)


def test_spec_validation():
    with pytest.raises(ValueError):
        GameSpec(DEFAULT_GAME.leaf_utilities[:7])
    with pytest.raises(ValueError):
        GameSpec(DEFAULT_GAME.leaf_utilities, F(3, 2))


# -------------------------------------------------------- normal form

def test_default_normal_form_cells_exact():
    nf = to_normal_form(DEFAULT_GAME)
    assert nf.attacker_payoffs == (
        (F(-1), F(1, 5), F(9, 5), F(3)),
        (F(0), F(0), F(0), F(0)),
    )
    assert nf.defender_payoffs == (
        (F(-2), F(-22, 5), F(-38, 5), F(-10)),
        (F(-3), F(-3, 10), F(-27, 10), F(0)),
    )


def test_normal_form_matches_behavioral_expectation():
    """Each bimatrix cell equals expected_utilities at the matching pure
    behavioral profile -- the two reductions are the same game."""
    nf = to_normal_form(DEFAULT_GAME)
    for row, p_attack in ((0, F(1)), (1, F(0))):
        for col, (on_r, on_nr) in enumerate(DEFENDER_PURE_STRATEGIES):
            beh = BehavioralStrategy(p_attack,
                                     F(1) if on_r == "d" else F(0),
                                     F(1) if on_nr == "d" else F(0))
            ua, ud = expected_utilities(DEFAULT_GAME, beh)
            assert ua == nf.attacker_payoffs[row][col]
            assert ud == nf.defender_payoffs[row][col]


# ------------------------------------------------------- default game

def test_default_equilibrium_exact():
    eq = default_equilibrium()
    assert not eq.degenerate
    assert eq.attacker == (F(9, 17), F(8, 17))
    assert eq.defender == (F(1, 6), F(5, 6), F(0), F(0))


def test_default_equilibrium_behavioral_form():
    eq = default_equilibrium()
    beh = to_behavioral(eq.defender, eq.p_attack)
    assert beh.attacker_p_attack == F(9, 17)
    assert beh.defender_p_downgrade_given_r == F(1)
    assert beh.defender_p_downgrade_given_nr == F(1, 6)


def test_default_equilibrium_gaps_are_exactly_zero():
    eq = default_equilibrium()
    gap_a, gap_d = best_response_gap(
        DEFAULT_GAME, to_behavioral(eq.defender, eq.p_attack))
    assert gap_a == 0 and gap_d == 0


def test_default_benign_acc_probability():
    """Without an attack the downgrade (ACC) probability at equilibrium is
    P(r|benign) P(d|r) + P(nr|benign) P(d|nr) = 1/10 + 9/10 * 1/6 = 1/4."""
    eq = default_equilibrium()
    beh = to_behavioral(eq.defender, eq.p_attack)
    p_acc = (DEFAULT_GAME.p_report_given_benign * beh.defender_p_downgrade_given_r
             + (1 - DEFAULT_GAME.p_report_given_benign)
             * beh.defender_p_downgrade_given_nr)
    assert p_acc == F(1, 4)


def test_off_equilibrium_profile_has_positive_gap():
    beh = BehavioralStrategy(F(1), F(0), F(0))  # attack into no defense
    gap_a, gap_d = best_response_gap(DEFAULT_GAME, beh)
    assert gap_a == 0          # attacking is optimal against a sleeping defender
    assert gap_d == F(8)       # defender would gain by always downgrading


# ------------------------------------------------------ special games

def test_dominant_attack_forces_certain_attack():
    """If attacking pays the attacker in every cell, P(attack) = 1 in all
    equilibria regardless of the defender's behavior."""
    leaves = ((1, -2), (3, -10), (1, -2), (3, -10),
              (0, -3), (0, 0), (0, -3), (0, 0))
    eqs = solve_nash(to_normal_form(GameSpec(leaves)))
    assert eqs
    assert all(e.p_attack == 1 for e in eqs)


def test_equilibrium_strategy_picks_defender_optimal():
    """A game with several equilibria of distinct defender value: the dummy
    attacker (all zero payoffs) makes every defender best response an
    equilibrium, and the switch must adopt the one the defender prefers
    (here: never downgrade, worth 6 > any alternative)."""
    spec = GameSpec(
        leaf_utilities=((0, 9), (0, -3), (0, 1), (0, -7),
                        (0, -7), (0, 3), (0, -3), (0, 9)),
        p_report_given_attack=F(1, 2),
        p_report_given_benign=F(1, 2),
    )
    eqs = solve_nash(to_normal_form(spec))
    values = sorted(
        expected_utilities(spec, to_behavioral(e.defender, e.p_attack))[1]
        for e in eqs)
    assert len(eqs) > 1 and values[-1] == 6 and values[0] < 6
    strat = equilibrium_strategy(spec)
    assert strat.attacker_p_attack == 0
    assert strat.defender_p_downgrade_given_r == 0
    assert strat.defender_p_downgrade_given_nr == 0


def test_equilibrium_strategy_is_memoised_per_spec():
    """Equal specs share one solved profile; a spec built for another
    detector is solved on its own."""
    spec = GameSpec(DEFAULT_GAME.leaf_utilities, 0.7, 0.1)
    equal = GameSpec(list(DEFAULT_GAME.leaf_utilities), F(7, 10), F(1, 10))
    assert spec == equal and spec is not equal
    solved = equilibrium_strategy(spec)
    assert equilibrium_strategy(equal) is solved
    assert solved == equilibrium_strategy.__wrapped__(spec)

    other = dataclasses.replace(DEFAULT_GAME, p_report_given_attack=0.95,
                                p_report_given_benign=0.01)
    assert (other.p_report_given_attack, other.p_report_given_benign) == (F(19, 20),
                                                                          F(1, 100))
    sharp = equilibrium_strategy(other)
    assert sharp == equilibrium_strategy.__wrapped__(other)
    assert sharp != solved


def test_perfectly_informative_detector_shrinks_attack_rate():
    """Sharper detection makes attacking less attractive at equilibrium."""
    sharp = GameSpec(DEFAULT_GAME.leaf_utilities, F(99, 100), F(1, 100))
    eq = solve_nash(to_normal_form(sharp))
    attack_rates = [e.p_attack for e in eq]
    assert max(attack_rates) < F(9, 17)


# ------------------------------------------------- randomized verification

utilities = st.integers(-5, 5)
leaf_pairs = st.tuples(utilities, utilities)
probs = st.fractions(min_value=F(1, 10), max_value=F(9, 10),
                     max_denominator=10)


@settings(max_examples=200, deadline=None)
@given(leaves=st.tuples(*([leaf_pairs] * 8)), pa=probs, pb=probs)
def test_every_reported_equilibrium_verifies_exactly(leaves, pa, pb):
    spec = GameSpec(leaves, pa, pb)
    eqs = solve_nash(to_normal_form(spec))
    assert eqs, "every game has an equilibrium, so the list is never empty"
    for e in eqs:
        gap_a, gap_d = best_response_gap(spec, to_behavioral(e.defender, e.p_attack))
        assert gap_a == 0
        assert gap_d == 0


@settings(max_examples=200, deadline=None)
@given(leaves=st.tuples(*([leaf_pairs] * 8)), pa=probs, pb=probs)
def test_nondegenerate_games_have_odd_equilibrium_count(leaves, pa, pb):
    eqs = solve_nash(to_normal_form(GameSpec(leaves, pa, pb)))
    if any(e.degenerate for e in eqs):
        return
    assert len(eqs) % 2 == 1


@settings(max_examples=100, deadline=None)
@given(leaves=st.tuples(*([leaf_pairs] * 8)),
       scale=st.fractions(min_value=F(1, 3), max_value=F(4),
                          max_denominator=6),
       shift=st.integers(-4, 4))
def test_equilibria_invariant_under_affine_utility_maps(leaves, scale, shift):
    """Positively scaling and shifting one player's utilities leaves the
    equilibrium set unchanged (best-response relations are preserved)."""
    base = GameSpec(leaves)
    moved = GameSpec(tuple((scale * F(ua) + shift, ud) for ua, ud in leaves))
    assert solve_nash(to_normal_form(base)) == solve_nash(to_normal_form(moved))


# ------------------------------------------- the earlier solver, for reference

# The solver this module had before it enumerated extreme points: support
# enumeration, with a representative point (a uniform mix or an interval's
# midpoint) for each set of equilibria.  It is kept verbatim as the
# reference that the extreme-point solver is held to.
def reference_solve_nash(nf: NormalForm) -> list[Equilibrium]:
    """All Nash equilibria of the 2 x 4 bimatrix by support enumeration.

    Candidate supports are solved through the indifference conditions and
    kept when exact verification shows no profitable deviation.  Supports
    whose indifference system is underdetermined contribute a representative
    point flagged degenerate, as do verified profiles with off-support
    payoff ties.
    """
    found: dict[tuple, Equilibrium] = {}

    def record(x, y, degenerate):
        x = tuple(Fraction(v) for v in x)
        y = tuple(Fraction(v) for v in y)
        ok, ties = _verified(nf, x, y)
        if not ok:
            return
        key = (x, y)
        deg = degenerate or ties
        if key not in found or (found[key].degenerate and not deg):
            found[key] = Equilibrium(attacker=x, defender=y, degenerate=deg)

    # Pure attacker rows against every defender support.
    for row in (0, 1):
        x = (Fraction(1), Fraction(0)) if row == 0 else (Fraction(0), Fraction(1))
        payoffs = [_defender_payoff(nf, c, x[0]) for c in range(4)]
        best = max(payoffs)
        best_cols = [c for c in range(4) if payoffs[c] == best]
        other = 1 - row
        for size in range(1, len(best_cols) + 1):
            for support in itertools.combinations(best_cols, size):
                y = [Fraction(0)] * 4
                for c in support:
                    y[c] = Fraction(1, size)
                # attacker's chosen row must remain weakly preferred
                if (_attacker_payoff(nf, row, y) >= _attacker_payoff(nf, other, y)):
                    record(x, tuple(y), degenerate=size > 1 or len(best_cols) > 1)

    # Attacker mixing: defender must be indifferent on the support, and the
    # support columns must be exact best responses.
    diffs = [nf.attacker_payoffs[0][c] - nf.attacker_payoffs[1][c] for c in range(4)]
    for c1, c2 in itertools.combinations(range(4), 2):
        da = (nf.defender_payoffs[0][c1] - nf.defender_payoffs[0][c2])
        dna = (nf.defender_payoffs[1][c1] - nf.defender_payoffs[1][c2])
        if da == dna:
            continue  # parallel payoff lines: no interior crossing
        p = dna / (dna - da)  # P(attack) equalizing the two columns
        if not 0 < p < 1:
            continue
        if diffs[c1] == diffs[c2]:
            if diffs[c1] != 0:
                continue
            # attacker indifferent for every mixture: component, take uniform
            y = [Fraction(0)] * 4
            y[c1] = y[c2] = Fraction(1, 2)
            record((p, 1 - p), tuple(y), degenerate=True)
            continue
        y_c1 = diffs[c2] / (diffs[c2] - diffs[c1])
        if not 0 <= y_c1 <= 1:
            continue
        y = [Fraction(0)] * 4
        y[c1] = y_c1
        y[c2] = 1 - y_c1
        record((p, 1 - p), tuple(y), degenerate=False)

    # Attacker mixing against a *pure* defender column: needs an exact
    # attacker-payoff tie on that column, and then any P(attack) keeping the
    # column optimal works -- an equilibrium component, represented by the
    # midpoint of the feasible interval.
    for c in range(4):
        if diffs[c] != 0:
            continue
        lo, hi = Fraction(0), Fraction(1)
        feasible = True
        for other in range(4):
            if other == c:
                continue
            da = nf.defender_payoffs[0][c] - nf.defender_payoffs[0][other]
            dna = nf.defender_payoffs[1][c] - nf.defender_payoffs[1][other]
            # require dna + p (da - dna) >= 0 on the interval
            slope = da - dna
            if slope == 0:
                if dna < 0:
                    feasible = False
                    break
            elif slope > 0:
                lo = max(lo, -dna / slope)
            else:
                hi = min(hi, -dna / slope)
        if feasible and lo < hi:
            p = (lo + hi) / 2
            if 0 < p < 1:
                y = [Fraction(0)] * 4
                y[c] = Fraction(1)
                record((p, 1 - p), tuple(y), degenerate=True)

    return sorted(found.values(), key=lambda e: (e.attacker, e.defender))


def _best_payoffs(spec, eqs):
    """(attacker's, defender's) best expected payoff over the profiles."""
    values = [expected_utilities(spec, to_behavioral(e.defender, e.p_attack)) for e in eqs]
    return max(v[0] for v in values), max(v[1] for v in values)


games = st.builds(GameSpec, st.tuples(*([leaf_pairs] * 8)), probs, probs)


@settings(max_examples=200, deadline=None)
@given(spec=games)
def test_nondegenerate_games_keep_the_reference_list(spec):
    nf = to_normal_form(spec)
    eqs, ref = solve_nash(nf), reference_solve_nash(nf)
    if not any(e.degenerate for e in eqs + ref):
        assert eqs == ref


@settings(max_examples=200, deadline=None)
@given(spec=games)
def test_both_solvers_agree_on_whether_a_game_is_degenerate(spec):
    nf = to_normal_form(spec)
    assert (any(e.degenerate for e in solve_nash(nf))
            == any(e.degenerate for e in reference_solve_nash(nf)))


@settings(max_examples=200, deadline=None)
@given(spec=games)
def test_extreme_points_reach_the_references_best_payoffs(spec):
    """The reference's points lie in the equilibrium set, and each player's
    payoff over a set of equilibria peaks at an extreme point."""
    nf = to_normal_form(spec)
    att, dfn = _best_payoffs(spec, solve_nash(nf))
    ref_att, ref_dfn = _best_payoffs(spec, reference_solve_nash(nf))
    assert att >= ref_att and dfn >= ref_dfn


# ------------------------------- extreme equilibria as vertex pairs, an oracle

def _solve(rows, dim):
    """The one solution of ``a . z = b`` over the square system ``rows`` of
    (a, b), or None when it is singular; exact Gauss-Jordan elimination."""
    m = [list(a) + [b] for a, b in rows]
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(dim):
            if r != col:
                f = m[r][col] / m[col][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return tuple(m[r][dim] / m[r][r] for r in range(dim))


def _vertices(constraints, dim):
    """Each vertex of {z : a . z <= b for every (a, b)}, with the indices of
    the constraints tight there."""
    found = {}
    for tight in itertools.combinations(constraints, dim):
        z = _solve(tight, dim)
        if z is None:
            continue
        slack = [b - sum(ak * zk for ak, zk in zip(a, z)) for a, b in constraints]
        if min(slack) >= 0:
            found[z] = {i for i, s in enumerate(slack) if s == 0}
    return found


def extreme_equilibria(nf):
    """The completely labelled vertex pairs of the two best-response
    polytopes, scaled to mixed strategies: exactly the extreme equilibria,
    degenerate games included (Avis, Rosenberg, Savani & von Stengel 2010).
    Labels 0 and 1 are the rows, 2 to 5 the columns."""
    shift = 1 - min(min(row) for row in nf.attacker_payoffs + nf.defender_payoffs)
    A = [[v + shift for v in row] for row in nf.attacker_payoffs]
    B = [[v + shift for v in row] for row in nf.defender_payoffs]

    def unit(n, i):
        return tuple(F(-(k == i)) for k in range(n))

    # P = {x >= 0 : B'x <= 1}: x_i = 0 has label i, column j's bound label 2 + j
    P = [(unit(2, i), F(0)) for i in range(2)] + [((B[0][j], B[1][j]), F(1)) for j in range(4)]
    # Q = {y >= 0 : Ay <= 1}: row i's bound has label i, y_j = 0 label 2 + j
    Q = [(tuple(A[i]), F(1)) for i in range(2)] + [(unit(4, j), F(0)) for j in range(4)]
    return {(tuple(v / sum(x) for v in x), tuple(v / sum(y) for v in y))
            for x, x_labels in _vertices(P, 2).items()
            for y, y_labels in _vertices(Q, 4).items()
            if any(x) and any(y) and x_labels | y_labels == set(range(6))}


small = st.tuples(st.integers(-2, 2), st.integers(-2, 2))  # many payoff ties


@settings(max_examples=200, deadline=None)
@given(leaves=st.tuples(*([small] * 8)), pa=probs, pb=probs)
def test_the_list_is_the_set_of_extreme_equilibria(leaves, pa, pb):
    nf = to_normal_form(GameSpec(leaves, pa, pb))
    assert {(e.attacker, e.defender) for e in solve_nash(nf)} == extreme_equilibria(nf)


def test_the_oracle_on_the_default_game():
    assert extreme_equilibria(to_normal_form(DEFAULT_GAME)) == {
        ((F(9, 17), F(8, 17)), (F(1, 6), F(5, 6), F(0), F(0)))}


# Two degenerate games whose extreme points the reference misses.
GAME_A = GameSpec(((1, -1), (3, -1), (2, 0), (5, 1), (-1, 1), (4, 1), (-5, 1), (-3, -2)),
                  F(1, 10), F(4, 5))
GAME_B = GameSpec(((2, -5), (-1, -5), (-1, 5), (-1, -5), (1, -2), (-3, 1), (-4, 0), (5, -3)),
                  F(3, 10), F(4, 5))


def test_an_end_of_a_set_of_equilibria_is_listed():
    """In game A the defender may mix columns 0 and 2 at 1 : 37 against any
    P(attack) in [0, 2/5]; both ends are listed."""
    eqs = solve_nash(to_normal_form(GAME_A))
    y = (F(1, 38), F(0), F(37, 38), F(0))
    assert Equilibrium((F(0), F(1)), y, degenerate=True) in eqs
    assert Equilibrium((F(2, 5), F(3, 5)), y, degenerate=True) in eqs
    assert len(eqs) == 7 and all(e.degenerate for e in eqs)


def test_the_attackers_best_extreme_point_is_listed():
    eqs = solve_nash(to_normal_form(GAME_B))
    assert _best_payoffs(GAME_B, eqs)[0] == F(-16, 115)
    assert _best_payoffs(GAME_B, reference_solve_nash(to_normal_form(GAME_B)))[0] == F(-11, 20)


# ------------------------------------------------------------ monte carlo

def test_monte_carlo_matches_exact_expectation():
    beh = equilibrium_strategy(DEFAULT_GAME)
    exact_a, exact_d = expected_utilities(DEFAULT_GAME, beh)
    est = monte_carlo_play(DEFAULT_GAME, beh, samples=10 ** 6,
                           rng=np.random.default_rng(2024))
    assert abs(est.mean_attacker - float(exact_a)) < 3 * est.se_attacker
    assert abs(est.mean_defender - float(exact_d)) < 3 * est.se_defender
    assert est.samples == 10 ** 6


# ------------------------------------------------------------- conversions

def test_to_behavioral_marginalizes_pure_strategies():
    beh = to_behavioral((F(1, 4), F(1, 4), F(1, 4), F(1, 4)), 0.3)
    assert beh.defender_p_downgrade_given_r == F(1, 2)
    assert beh.defender_p_downgrade_given_nr == F(1, 2)
    assert beh.attacker_p_attack == F(3, 10)


def test_to_behavioral_rejects_non_distributions():
    with pytest.raises(ValueError):
        to_behavioral((F(1, 2), F(1, 2), F(1, 2), F(-1, 2)), F(1, 2))
    with pytest.raises(ValueError):
        to_behavioral((F(1, 2), F(1, 4), F(1, 8), F(1, 16)), F(1, 2))


def test_a_profile_needs_the_attackers_probability():
    """Every profile is a full one: no strategy is built without P(attack)."""
    with pytest.raises(TypeError, match="NoneType"):
        BehavioralStrategy(None, F(0), F(0))
