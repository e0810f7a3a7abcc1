"""Exact solution of the attacker/defender switching game.

The default game's equilibrium was derived by hand from the indifference
conditions (defender mixes the two always-downgrade-on-report columns at the
attacker probability equalizing them; the attacker probability makes the
defender indifferent) and is frozen here in exact rationals.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsec.game import (DEFAULT_GAME, DEFENDER_PURE_STRATEGIES, LEAF_ORDER,
                             BehavioralStrategy, GameSpec, best_response_gap,
                             equilibrium_strategy, expected_utilities,
                             monte_carlo_play, solve_nash, to_behavioral,
                             to_normal_form)

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
    assert eqs, "support enumeration must find at least one equilibrium"
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
