import random

import pytest

from conftest import arcs_at, make_star_chain
from fhgames.game import StateKind, validate
from fhgames.gadgets import (
    make_F,
    make_G,
    make_H,
    make_M,
    primes,
    primorial,
    random_game,
)
from fhgames.numeric import Dyadic, HALF, ONE, ZERO, run_probability, run_threshold
from fhgames.solver import optimal_action_sets, values_at
from fhgames.verify import latest_residue_hit


class TestPrimes:
    def test_first_primes(self):
        assert primes(1) == [2]
        assert primes(4) == [2, 3, 5, 7]
        assert primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_primorial(self):
        assert primorial(1) == 2
        assert primorial(4) == 210
        assert primorial(5) == 2310

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            primes(0)


class TestShortcutGadget:
    def test_shape(self):
        g = make_M()
        assert len(g.states) == 7
        assert g.start == "start"
        assert not g.controlled_ids(2)
        assert g.state("x").kind is StateKind.MAX
        assert g.state("x").arcs == ("2", "h")
        assert g.state("1").arcs == ("bot", "bot")

    def test_anchor_values(self):
        rows = values_at(make_M(), range(4))
        assert rows[2]["x"] == HALF
        assert rows[3]["x"] == ONE


class TestApproachChain:
    def test_state_count(self):
        for i in (1, 4, 9):
            g = make_H(i)
            assert len(g.states) == 2 * i + 4  # counting the terminal
            assert sum(s.kind is not StateKind.TERMINAL for s in g.states) == 2 * i + 3

    def test_start_and_shape(self):
        g = make_H(4)
        assert g.start == "4s"
        assert g.state("x").arcs == ("4", "h")
        assert g.state("1").arcs == ("bot", "4")
        assert g.state("1s").arcs == ("4s", "x")
        assert g.state("3s").arcs == ("4s", "2s")
        assert validate(make_H(1)) == []

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            make_H(0)

    def test_choice_state_value(self):
        for i in (1, 4):
            assert values_at(make_H(i), range(3))[2]["x"] == HALF

    def test_chain_reach_matches_run_probability(self):
        # the approach chain alone, with its exit absorbing
        for i in (1, 2, 3):
            chain = make_star_chain(i)
            rows = values_at(chain, range(13))
            for t in range(13):
                assert rows[t][f"{i}s"] == run_probability(i, t)

    def test_optimal_choice_flips_at_threshold(self):
        # below the threshold the coin shortcut wins, above it the chain
        for i in (1, 2, 3, 4, 5, 6):
            k = run_threshold(i)
            sets = optimal_action_sets(make_H(i), k + 4)[0]
            for r in range(2, k + 5):
                if r < k:
                    assert arcs_at(sets, r, "x") == (1,), (i, r)
                elif r > k:
                    assert arcs_at(sets, r, "x") == (0,), (i, r)
                else:
                    exact_half = run_probability(i, k - 1) == HALF
                    assert arcs_at(sets, r, "x") == ((0, 1) if exact_half else (0,))

    def test_tie_at_one_move_left(self):
        sets = optimal_action_sets(make_H(3), 3)[0]
        assert arcs_at(sets, 1, "x") == (0, 1)


class TestCycleGadget:
    def test_shape(self):
        g = make_G(5)
        coin = [s for s in g.states if s.kind is StateKind.COIN]
        assert len(coin) == 9  # 2p - 1
        assert g.state("max").arcs == ("1", "2")
        assert g.state("1").arcs == ("bot", "5")
        assert g.state("3").arcs == ("2s", "2")
        assert g.state("1s").arcs == ("bot", "bot")
        assert g.start == "max"

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            make_G(1)

    def test_base_case(self):
        rows = values_at(make_G(3), range(2))
        assert rows[1]["1"] == HALF
        assert rows[1]["2"] == ZERO

    def test_value_formula(self):
        for p in (2, 3, 7):
            rows = values_at(make_G(p), range(61))
            for t in range(61):
                for j in range(1, p + 1):
                    f = latest_residue_hit(t, j, p)
                    assert rows[t][str(j)] == Dyadic((1 << f) - 1, f)

    def test_star_chain_hits_one(self):
        rows = values_at(make_G(4), range(11))
        for j in (1, 2, 3):
            for t in range(11):
                assert rows[t][f"{j}s"] == (ONE if t >= j else ZERO)

    def test_anchor(self):
        assert values_at(make_G(2), range(4))[3]["1"] == Dyadic(7, 3)


class TestParallelGadget:
    def test_state_count(self):
        for k in (1, 2, 4):
            g = make_F(k)
            non_terminal = sum(s.kind is not StateKind.TERMINAL for s in g.states)
            assert non_terminal == 2 * sum(primes(k))
        assert not make_F(2).controlled_ids(2)

    def test_copies_share_terminal(self):
        g = make_F(2)
        assert sum(s.kind is StateKind.TERMINAL for s in g.states) == 1
        assert g.state("m1").arcs == ("c1_1", "c1_2")
        assert g.state("m2").arcs == ("c2_1", "c2_2")
        assert g.state("c1_1").arcs == ("bot", "c1_2")
        assert g.start == "m1"

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            make_F(0)

    def test_optimal_choice_alternates_by_residue(self):
        # at each copy's choice state the slow arc is uniquely optimal
        # exactly when the remaining horizon is 2 mod the cycle length
        for k in (1, 2, 3):
            g = make_F(k)
            horizon = 2 * primorial(k) + 10
            sets = optimal_action_sets(g, horizon)[0]
            for c, p in enumerate(primes(k), start=1):
                for r in range(2, horizon + 1):
                    expected = (0,) if r % p == 2 % p else (1,)
                    assert arcs_at(sets, r, f"m{c}") == expected, (k, c, r)


class TestRandomGame:
    def test_valid_and_deterministic(self):
        a = random_game(5, random.Random(99))
        b = random_game(5, random.Random(99))
        assert a == b
        assert validate(a) == []

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_game(1, random.Random(0))

    def test_start_is_non_terminal(self):
        for seed in range(30):
            g = random_game(3, random.Random(seed))
            assert g.state(g.start).kind is not StateKind.TERMINAL
