import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_min_counter_memory, reference_solve_infinite
from fhgames.counter import CounterStrategy, from_markov
from fhgames.errors import GuardExceeded, StrategyError
from fhgames.game import Game, State, StateKind
from fhgames.gadgets import make_F, make_G, make_H, make_M, random_game
from fhgames.numeric import Dyadic
from fhgames.oracle import (
    MemorylessStrategy,
    min_counter_memory,
    reach_probabilities,
    simulate,
    solve_infinite,
)
from fhgames.solver import (
    backward_induction,
    evaluate_fixed_final,
    extract_markov,
    final_values,
)


def residual_ok(g, strategies, values):
    """Exact check of the defining reachability equations."""
    choice = {s.player: s for s in strategies if s is not None}
    for s in g.states:
        if s.kind is StateKind.TERMINAL:
            assert values[s.id] == 1
            continue
        if s.kind is StateKind.COIN:
            expected = Fraction(1, 2) * (values[s.arcs[0]] + values[s.arcs[1]])
        else:
            player = 1 if s.kind is StateKind.MAX else 2
            expected = values[s.arcs[choice[player].action(0, s.id)]]
        assert values[s.id] == expected


class TestReachProbabilities:
    def test_shortcut_gadget(self):
        strat = MemorylessStrategy(1, {"x": 0})
        values = reach_probabilities(make_M(), strat)
        assert values["h"] == Fraction(1, 2)
        assert values["top"] == 0
        assert values["start"] == 1
        assert values["x"] == 1
        residual_ok(make_M(), [strat], values)

    def test_shortcut_with_coin_arc(self):
        strat = MemorylessStrategy(1, {"x": 1})
        values = reach_probabilities(make_M(), strat)
        assert values["x"] == Fraction(1, 2)
        residual_ok(make_M(), [strat], values)

    def test_requires_strategy(self):
        with pytest.raises(StrategyError):
            reach_probabilities(make_M())

    def test_cycle_gadget_loops_forever(self):
        # committing to the cycle always drains into the terminal
        strat = MemorylessStrategy(1, {"max": 1})
        values = reach_probabilities(make_G(3), strat)
        for sid in ("max", "1", "2", "3", "1s", "2s"):
            assert values[sid] == 1

    def test_values_in_unit_interval_on_random_games(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_game(rng.randint(2, 6), rng)
            s1 = MemorylessStrategy(
                1, {sid: rng.randint(0, 1) for sid in g.controlled_ids(1)}
            )
            s2 = MemorylessStrategy(
                2, {sid: rng.randint(0, 1) for sid in g.controlled_ids(2)}
            )
            values = reach_probabilities(g, s1, s2)
            for v in values.values():
                assert 0 <= v <= 1
            residual_ok(g, [s1, s2], values)


@st.composite
def infinite_arenas(draw):
    """Arenas of 2-11 states of any kinds, so up to 10 controlled ones,
    with self-loops and arcs that may coincide."""
    n = draw(st.integers(2, 11))
    ids = [f"s{j}" for j in range(n - 1)]
    kind = st.sampled_from((StateKind.MAX, StateKind.MIN, StateKind.COIN))
    dest = st.sampled_from(ids + ["bot"])
    states = [State(sid, draw(kind), (draw(dest), draw(dest))) for sid in ids]
    states.insert(draw(st.integers(0, len(states))), State("bot", StateKind.TERMINAL))
    return Game(states=tuple(states), start=draw(st.sampled_from(ids)))


def assert_same_solution(got, expected):
    assert list(got.values.items()) == list(expected.values.items())
    assert all(type(v) is Fraction for v in got.values.values())
    assert list(got.strategy.choices.items()) == list(expected.strategy.choices.items())
    assert got.strategy.player == expected.strategy.player == 1


class TestSolveInfinite:
    def test_shortcut_gadget(self):
        solution = solve_infinite(make_M())
        assert solution.values["start"] == 1
        assert solution.values["h"] == Fraction(1, 2)
        assert solution.values["top"] == 0
        assert solution.strategy.choices == {"x": 0}

    def test_approach_chain(self):
        solution = solve_infinite(make_H(4))
        assert solution.values["x"] == 1
        assert solution.values["4s"] == 1
        assert solution.strategy.choices == {"x": 0}

    def test_min_player_can_block(self):
        g = Game(
            states=(
                State("m", StateKind.MIN, ("bot", "top")),
                State("top", StateKind.COIN, ("top", "top")),
                State("bot", StateKind.TERMINAL),
            ),
            start="m",
        )
        assert solve_infinite(g).values["m"] == 0

    def test_cap(self):
        with pytest.raises(GuardExceeded):
            solve_infinite(make_F(4), cap=3)

    def test_dominates_finite_horizons(self):
        rng = random.Random(123)
        for _ in range(15):
            g = random_game(rng.randint(2, 5), rng)
            if len(g.controlled_ids(1)) + len(g.controlled_ids(2)) > 4:
                continue
            infinite = solve_infinite(g).values
            rows = backward_induction(g, 24)
            for sid in g.ids():
                for t in (0, 3, 11, 24):
                    assert rows[t][sid].as_fraction() <= infinite[sid]

    def test_backtracks_past_a_max_cycle(self):
        # arc 0 keeps every state at value 1, but x -> y -> x never
        # reaches the target, so the search must back out of (0, 0)
        g = Game(
            states=(
                State("x", StateKind.MAX, ("y", "bot")),
                State("y", StateKind.MAX, ("x", "bot")),
                State("bot", StateKind.TERMINAL),
            ),
            start="x",
        )
        solution = solve_infinite(g)
        assert solution.values == {"x": 1, "y": 1, "bot": 1}
        assert solution.strategy.choices == {"x": 0, "y": 1}
        assert_same_solution(solution, reference_solve_infinite(g))

    def test_min_trap_beside_a_half_arc(self):
        # staying on arc 0 is a fixed point at 1/2; the self-loop holds
        # min's state at 0, the least fixed point
        g = Game(
            states=(
                State("a", StateKind.MAX, ("m", "top")),
                State("m", StateKind.MIN, ("h", "m")),
                State("h", StateKind.COIN, ("top", "bot")),
                State("top", StateKind.COIN, ("top", "top")),
                State("bot", StateKind.TERMINAL),
            ),
            start="a",
        )
        solution = solve_infinite(g)
        assert solution.values["m"] == solution.values["a"] == 0
        assert solution.values["h"] == Fraction(1, 2)
        assert_same_solution(solution, reference_solve_infinite(g))

    def test_matches_enumeration_on_benchmark_arenas(self):
        # perfbench deep-horizon's arenas at seed 0, its gadgets and more
        rng = random.Random(0)
        games = [random_game(n, rng) for n in (6, 7, 8) * 32]
        games += [make_M(), make_H(3), make_H(4), make_F(1), make_F(2), make_F(3)]
        rng = random.Random(17)
        games += [random_game(rng.randint(2, 9), rng) for _ in range(100)]
        for g in games:
            assert_same_solution(solve_infinite(g), reference_solve_infinite(g))

    @given(infinite_arenas())
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, g):
        assert_same_solution(solve_infinite(g), reference_solve_infinite(g))

    def test_finite_values_converge(self):
        g = make_M()
        infinite = solve_infinite(g).values["start"]
        gaps = [
            infinite - final_values(g, t)["start"].as_fraction()
            for t in (4, 8, 16, 32)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < Fraction(1, 2**25)


@st.composite
def small_arenas(draw):
    """Arenas of 3-6 states with at most 2 maximiser states."""
    n = draw(st.integers(3, 6))
    ids = [f"s{j}" for j in range(n - 1)]
    n_max = draw(st.integers(0, 2))
    others = st.sampled_from((StateKind.MIN, StateKind.COIN))
    kinds = [StateKind.MAX] * n_max + draw(
        st.lists(others, min_size=n - 1 - n_max, max_size=n - 1 - n_max)
    )
    kinds = draw(st.permutations(kinds))
    dest = st.sampled_from(ids + ["bot"])
    states = [State(sid, kind, (draw(dest), draw(dest))) for sid, kind in zip(ids, kinds)]
    states.append(State("bot", StateKind.TERMINAL))
    return Game(states=tuple(states), start=draw(st.sampled_from(ids)))


def same_search(got, expected):
    def key(result):
        witness = None if result.witness is None else result.witness.to_json_obj()
        return result.memory, witness, result.optimum, result.target

    return key(got) == key(expected)


class TestMinCounterMemory:
    def test_trivial_epsilon(self):
        result = min_counter_memory(make_M(), 5, Dyadic(1), max_mem=3)
        assert result.memory == 1

    def test_shortcut_gadget_exact_minimum(self):
        # at horizon c-1 with eps = 2^-c the exact minimum is c-3: the
        # elapsed times 1..c-3 force their actions, and a pure cycle of
        # length c-3 can wrap the forced "h" step onto the unused slot 0
        for c in (5, 6):
            result = min_counter_memory(
                make_M(), c - 1, Dyadic(1, c), max_mem=c
            )
            assert result.memory == c - 3
            again = from_markov(extract_markov(make_M(), c - 1))
            assert result.memory <= again.initial + again.period

    def test_single_decision_game_needs_one_memory(self):
        # the parallel gadget's chooser acts only at elapsed time 0, so
        # one memory state suffices even for exact optimality
        result = min_counter_memory(make_F(1), 9, Dyadic(0), max_mem=3)
        assert result.memory == 1

    def test_unique_strategy_matches_from_markov(self):
        g = Game(
            states=(
                State("x", StateKind.MAX, ("bot", "top")),
                State("top", StateKind.COIN, ("top", "top")),
                State("bot", StateKind.TERMINAL),
            ),
            start="x",
        )
        result = min_counter_memory(g, 6, Dyadic(0), max_mem=3)
        compressed = from_markov(extract_markov(g, 6))
        assert result.memory == compressed.initial + compressed.period == 1

    def test_guard(self):
        # the guard counts product sweeps performed: c = 12 needs 702
        with pytest.raises(GuardExceeded, match="more than 100 product sweeps"):
            min_counter_memory(make_M(), 11, Dyadic(1, 12), max_mem=12, guard=100)

    def test_guard_is_inclusive(self):
        args = (make_M(), 11, Dyadic(1, 12), 12)
        assert min_counter_memory(*args, guard=702) == min_counter_memory(*args)
        with pytest.raises(GuardExceeded, match="more than 701 product sweeps"):
            min_counter_memory(*args, guard=701)

    @pytest.mark.parametrize("c", range(5, 12))
    def test_shortcut_gadget_matches_enumeration(self, c):
        args = (make_M(), c - 1, Dyadic(1, c), c)
        assert same_search(min_counter_memory(*args), reference_min_counter_memory(*args))

    @pytest.mark.parametrize("horizon", range(10))
    @pytest.mark.parametrize("gadget", [make_M, lambda: make_H(2)], ids=["M", "H2"])
    def test_gadgets_match_enumeration(self, gadget, horizon):
        # small random arenas all answer memory 1; these also need 2-4
        # memory states, or more than max_mem
        for eps_exponent in range(7):
            epsilon = Dyadic(0) if eps_exponent == 0 else Dyadic(1, eps_exponent)
            args = (gadget(), horizon, epsilon, 4)
            assert same_search(min_counter_memory(*args), reference_min_counter_memory(*args))

    @given(small_arenas(), st.integers(0, 9), st.integers(0, 5), st.integers(1, 4))
    @settings(max_examples=400, deadline=None)
    def test_matches_enumeration(self, g, horizon, eps_exponent, max_mem):
        epsilon = Dyadic(0) if eps_exponent == 0 else Dyadic(1, eps_exponent)
        args = (g, horizon, epsilon, max_mem)
        assert same_search(min_counter_memory(*args), reference_min_counter_memory(*args))

    def test_negative_epsilon_rejected(self):
        # a target above the optimum, even above 1, would be no claim at all
        for eps in (Dyadic(-1), Dyadic(-1, 30)):
            with pytest.raises(ValueError, match="epsilon must be non-negative"):
                min_counter_memory(make_M(), 4, eps, max_mem=3)

    def test_witness_meets_target(self):
        from fhgames.solver import evaluate_counter

        result = min_counter_memory(make_M(), 5, Dyadic(1, 6), max_mem=6)
        value = evaluate_counter(make_M(), 5, result.witness).value
        assert value >= result.target


class TestSimulate:
    def test_absorbing_trap_never_hits(self):
        g = Game(
            states=(
                State("top", StateKind.COIN, ("top", "top")),
                State("bot", StateKind.TERMINAL),
            ),
            start="top",
        )
        report = simulate(g, 20, None, trials=200, seed=1)
        assert report.hits == 0

    def test_deterministic_given_seed(self):
        g = make_M()
        strat = extract_markov(g, 5)
        a = simulate(g, 5, strat, trials=500, seed=77)
        b = simulate(g, 5, strat, trials=500, seed=77)
        assert a == b
        c = simulate(g, 5, strat, trials=500, seed=78)
        assert a != c

    def test_agrees_with_exact_value(self):
        g = make_M()
        horizon = 5
        strat = extract_markov(g, horizon)
        exact = evaluate_fixed_final(g, horizon, strat)[g.start].as_fraction()
        trials = 4000
        sigma = math.sqrt(float(exact * (1 - exact)) / trials)
        for seed in range(30):
            report = simulate(g, horizon, strat, trials=trials, seed=seed)
            assert abs(float(report.frequency - exact)) <= 4 * sigma

    def test_counter_strategy_playable(self):
        cs = CounterStrategy(0, 2, {(0, "x"): 1, (1, "x"): 0})
        report = simulate(make_M(), 4, cs, trials=300, seed=3)
        assert 0 <= report.frequency <= 1

    def test_min_player_needs_opponent(self):
        g = Game(
            states=(
                State("a", StateKind.MAX, ("m", "bot")),
                State("m", StateKind.MIN, ("bot", "top")),
                State("top", StateKind.COIN, ("top", "top")),
                State("bot", StateKind.TERMINAL),
            ),
            start="a",
        )
        strat = extract_markov(g, 3, player=1)
        with pytest.raises(StrategyError):
            simulate(g, 3, strat, trials=10, seed=0)
        opponent = extract_markov(g, 3, player=2)
        report = simulate(g, 3, strat, trials=50, seed=0, opponent=opponent)
        assert 0 <= report.frequency <= 1
