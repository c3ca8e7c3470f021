import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    coin_union,
    reference_min_counter_memory,
    reference_solve_infinite,
    reference_union_solution,
    union_parts,
)
from fhgames import oracle
from fhgames.counter import CounterStrategy, from_markov
from fhgames.errors import GuardExceeded, StrategyError
from fhgames.game import Game, State, StateKind
from fhgames.gadgets import make_F, make_G, make_H, make_M, random_game
from fhgames.numeric import Dyadic
from fhgames.oracle import (
    min_counter_memory,
    reach_probabilities,
    simulate,
    solve_infinite,
)
from fhgames.solver import (
    evaluate_fixed_final,
    extract_markov,
    final_values,
    values_at,
)


def residual_ok(g, strategies, values):
    """Exact check of the defining reachability equations, with
    ``strategies`` the players' arc dicts, player 1's first."""
    choice = dict(enumerate(strategies, 1))
    for s in g.states:
        if s.kind is StateKind.TERMINAL:
            assert values[s.id] == 1
            continue
        if s.kind is StateKind.COIN:
            expected = Fraction(1, 2) * (values[s.arcs[0]] + values[s.arcs[1]])
        else:
            player = 1 if s.kind is StateKind.MAX else 2
            expected = values[s.arcs[choice[player][s.id]]]
        assert values[s.id] == expected


class TestReachProbabilities:
    def test_shortcut_gadget(self):
        strat = {"x": 0}
        values = reach_probabilities(make_M(), strat)
        assert values["h"] == Fraction(1, 2)
        assert values["top"] == 0
        assert values["start"] == 1
        assert values["x"] == 1
        residual_ok(make_M(), [strat], values)

    def test_shortcut_with_coin_arc(self):
        strat = {"x": 1}
        values = reach_probabilities(make_M(), strat)
        assert values["x"] == Fraction(1, 2)
        residual_ok(make_M(), [strat], values)

    def test_requires_strategy(self):
        with pytest.raises(StrategyError):
            reach_probabilities(make_M())

    def test_cycle_gadget_loops_forever(self):
        # committing to the cycle always drains into the terminal
        strat = {"max": 1}
        values = reach_probabilities(make_G(3), strat)
        for sid in ("max", "1", "2", "3", "1s", "2s"):
            assert values[sid] == 1

    def test_values_in_unit_interval_on_random_games(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_game(rng.randint(2, 6), rng)
            s1 = {sid: rng.randint(0, 1) for sid in g.controlled_ids(1)}
            s2 = {sid: rng.randint(0, 1) for sid in g.controlled_ids(2)}
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
    assert list(got.strategy.items()) == list(expected.strategy.items())


class TestSolveInfinite:
    def test_shortcut_gadget(self):
        solution = solve_infinite(make_M())
        assert solution.values["start"] == 1
        assert solution.values["h"] == Fraction(1, 2)
        assert solution.values["top"] == 0
        assert solution.strategy == {"x": 0}

    def test_approach_chain(self):
        solution = solve_infinite(make_H(4))
        assert solution.values["x"] == 1
        assert solution.values["4s"] == 1
        assert solution.strategy == {"x": 0}

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

    def test_union_past_the_enumeration_cap(self):
        left, right = union_parts()
        union = coin_union(left, right)
        assert len(union.controlled_ids(1)) + len(union.controlled_ids(2)) > 12
        assert_same_solution(solve_infinite(union), reference_union_solution(left, right))

    def test_dominates_finite_horizons(self):
        rng = random.Random(123)
        for _ in range(15):
            g = random_game(rng.randint(2, 5), rng)
            if len(g.controlled_ids(1)) + len(g.controlled_ids(2)) > 4:
                continue
            infinite = solve_infinite(g).values
            rows = values_at(g, range(25))
            for sid in g.ids():
                for t in (0, 3, 11, 24):
                    assert rows[t][sid].as_fraction() <= infinite[sid]

    def test_backtracks_past_a_max_cycle(self, monkeypatch):
        # arc 0 keeps every state at value 1, but x -> y -> x never
        # reaches the target, so the walk's trial of (0, 0) must fail
        replies = []
        best_reply = oracle._best_reply
        monkeypatch.setattr(oracle, "_best_reply", lambda *a: replies.append(a) or best_reply(*a))
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
        assert solution.strategy == {"x": 0, "y": 1}
        # each iteration starts on the positive attractor, here optimal:
        # one best reply for v* and one per trial (from arc 0, two more)
        assert len(replies) == 3
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


@st.composite
def arenas_with_unreached_max_states(draw):
    """small_arenas() plus 1-2 max states that no state points to, so
    that the start cannot reach them, with arcs anywhere but the start."""
    g = draw(small_arenas())
    extra = [f"u{j}" for j in range(draw(st.integers(1, 2)))]
    dest = st.sampled_from([s.id for s in g.states if s.id != g.start] + extra)
    added = tuple(State(sid, StateKind.MAX, (draw(dest), draw(dest))) for sid in extra)
    return Game(states=g.states + added, start=g.start)


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

    def test_guard(self, monkeypatch):
        # the cap counts product sweeps performed: c = 12 needs 702
        monkeypatch.setattr(oracle, "SWEEP_CAP", 100)
        with pytest.raises(GuardExceeded, match="more than 100 product sweeps"):
            min_counter_memory(make_M(), 11, Dyadic(1, 12), max_mem=12)

    def test_guard_is_inclusive(self, monkeypatch):
        args = (make_M(), 11, Dyadic(1, 12), 12)
        uncapped = min_counter_memory(*args)
        monkeypatch.setattr(oracle, "SWEEP_CAP", 702)
        assert min_counter_memory(*args) == uncapped
        monkeypatch.setattr(oracle, "SWEEP_CAP", 701)
        with pytest.raises(GuardExceeded, match="more than 701 product sweeps"):
            min_counter_memory(*args)

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

    @given(arenas_with_unreached_max_states(), st.integers(0, 7), st.integers(0, 5),
           st.integers(1, 2))
    @settings(max_examples=300, deadline=None)
    def test_unreached_max_states_match_enumeration(self, g, horizon, eps_exponent, max_mem):
        assert set(g.controlled_ids(1)) - set(g.reachable.controlled_ids(1))
        epsilon = Dyadic(0) if eps_exponent == 0 else Dyadic(1, eps_exponent)
        args = (g, horizon, epsilon, max_mem)
        assert same_search(min_counter_memory(*args), reference_min_counter_memory(*args))

    def test_unreached_max_states_are_not_searched(self, monkeypatch):
        # the search branches only on the slots of the max states the
        # start reaches: 4 unreached ones would multiply its branches
        # by up to 2^(4m) and overrun the cap
        m = make_M()
        loops = tuple(State(f"u{j}", StateKind.MAX, (f"u{j}", f"u{j}")) for j in range(4))
        g = Game(states=m.states + loops, start=m.start)
        monkeypatch.setattr(oracle, "SWEEP_CAP", 100)
        result = min_counter_memory(g, 5, Dyadic(1, 6), 6)
        assert result.memory == 3
        # every slot set, the unreached ones on arc 0, the others as on M
        unreached = {(mem, loop.id): 0 for mem in range(3) for loop in loops}
        on_m = min_counter_memory(m, 5, Dyadic(1, 6), 6).witness.actions
        assert result.witness.actions == {**on_m, **unreached}

    def test_negative_epsilon_rejected(self):
        # a target above the optimum, even above 1, would be no claim at all
        for eps in (Dyadic(-1), Dyadic(-1, 30)):
            with pytest.raises(ValueError, match="epsilon must be non-negative"):
                min_counter_memory(make_M(), 4, eps, max_mem=3)

    def test_an_epsilon_too_fine_to_compute_is_refused(self):
        eps = Dyadic(1, 10**20)  # no int holds the shift to this exponent
        with pytest.raises(ValueError, match=rf"^epsilon 1/2\^{10**20} is too fine"):
            min_counter_memory(make_M(), 3, eps, max_mem=2)

    def test_witness_meets_target(self):
        from fhgames.solver import evaluate_counter

        result = min_counter_memory(make_M(), 5, Dyadic(1, 6), max_mem=6)
        value = evaluate_counter(make_M(), 5, result.witness).value
        assert value >= result.target


def gauss_jordan(matrix, rhs):
    """Solution of an integer system by Gauss-Jordan elimination over
    Fraction, or None when the system is singular."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


@st.composite
def integer_systems(draw):
    n = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    matrix = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return matrix, draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))


class TestFractionFreeSolve:
    @given(integer_systems())
    @example(([[0, 2, 1], [1, 1, 0], [3, 0, 1]], [1, 2, 3]))  # zero leading pivot: a row swap
    @example(([[0, 1], [0, 2]], [1, 1]))  # singular
    @settings(max_examples=400, deadline=None)
    def test_matches_gauss_jordan(self, system):
        matrix, rhs = system
        expected = gauss_jordan(matrix, rhs)
        if expected is None:
            with pytest.raises(ArithmeticError, match="singular"):
                oracle._fraction_free_solve(matrix, rhs)
        else:
            assert oracle._fraction_free_solve(matrix, rhs) == expected


class TestSimulate:
    def test_absorbing_trap_never_hits(self):
        g = Game(
            states=(
                State("top", StateKind.COIN, ("top", "top")),
                State("bot", StateKind.TERMINAL),
            ),
            start="top",
        )
        assert simulate(g, 20, None, trials=200, seed=1) == 0

    def test_start_at_the_terminal_hits_every_trial(self):
        g = Game(make_M().states, "bot")
        for horizon in (0, 3):
            assert simulate(g, horizon, extract_markov(g, horizon), trials=7, seed=0) == 7

    def test_memoryless_strategy_plays_on_the_fixed_game(self):
        g = Game(
            states=(
                State("a", StateKind.MAX, ("bot", "top")),
                State("top", StateKind.COIN, ("top", "top")),
                State("bot", StateKind.TERMINAL),
            ),
            start="a",
        )
        with pytest.raises(StrategyError, match="no strategy supplied for player 1"):
            simulate(g, 1, None, trials=20, seed=0)
        assert simulate(g.fix(1, {"a": 0}), 1, None, trials=20, seed=0) == 20
        assert simulate(g.fix(1, {"a": 1}), 1, None, trials=20, seed=0) == 0

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
            hits = simulate(g, horizon, strat, trials=trials, seed=seed)
            assert abs(float(Fraction(hits, trials) - exact)) <= 4 * sigma

    def test_counter_strategy_playable(self):
        cs = CounterStrategy(0, 2, {(0, "x"): 1, (1, "x"): 0})
        assert 0 <= simulate(make_M(), 4, cs, trials=300, seed=3) <= 300

    def test_counter_strategy_missing_action(self):
        cs = CounterStrategy(1, 1, {(0, "x"): 0})  # memory 1 has no action
        with pytest.raises(StrategyError, match="no action for memory 1, state 'x'"):
            simulate(make_M(), 3, cs, 5, 0)

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
        assert 0 <= simulate(g, 3, strat, trials=50, seed=0, opponent=opponent) <= 50
