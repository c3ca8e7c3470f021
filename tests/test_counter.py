import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhgames.counter import (
    ActionSetSequence,
    CounterStrategy,
    from_markov,
    least_initial_for_period,
    memory_report,
    minimal_period,
    to_markov,
    unroll,
)
from fhgames.errors import StrategyError
from fhgames.gadgets import make_F, make_M, primorial, random_game
from fhgames.solver import MarkovStrategy, extract_markov, optimal_action_sets

from conftest import reference_least_initial


def rho_walk(initial, period, steps):
    """Reference trajectory: 0,1,...,N+p-1 then cycling through N..N+p-1."""
    out = []
    m = 0
    for _ in range(steps):
        out.append(m)
        m = m + 1 if m < initial + period - 1 else initial
    return out


class TestCounterStrategy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CounterStrategy(-1, 1, {})
        with pytest.raises(ValueError):
            CounterStrategy(0, 0, {})
        with pytest.raises(ValueError):
            CounterStrategy(0, 1, {(1, "x"): 0})
        with pytest.raises(ValueError):
            CounterStrategy(0, 1, {(0, "x"): 2})

    def test_memory_trajectory_is_rho_shaped(self):
        cs = CounterStrategy(2, 3, {})
        assert [cs.memory_at(t) for t in range(8)] == [0, 1, 2, 3, 4, 2, 3, 4]
        assert rho_walk(2, 3, 8) == [0, 1, 2, 3, 4, 2, 3, 4]

    @given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 40))
    def test_memory_at_matches_update_iteration(self, n, p, t):
        cs = CounterStrategy(n, p, {})
        walk = rho_walk(n, p, t + 1)
        assert cs.memory_at(t) == walk[-1]
        assert cs.trajectory(t + 1) == walk
        assert cs.trajectory(t) == walk[:-1]

    @given(st.integers(0, 4), st.integers(1, 4))
    @settings(max_examples=40)
    def test_reuse_is_forever(self, n, p):
        # if a memory repeats at steps i < j, it repeats every j - i steps after
        cs = CounterStrategy(n, p, {})
        walk = rho_walk(n, p, 3 * (n + p) + 4)
        for i, j in itertools.combinations(range(len(walk) // 2), 2):
            if walk[i] == walk[j]:
                for c in range(len(walk) - j):
                    assert walk[i + c] == walk[j + c]

    def test_json_round_trip(self):
        cs = CounterStrategy(1, 2, {(0, "x"): 1, (1, "x"): 0, (2, "x"): 0})
        obj = cs.to_json_obj()
        assert obj["N"] == 1 and obj["p"] == 2
        assert CounterStrategy.from_json_obj(obj) == cs


class TestMemoryReport:
    def test_values(self):
        assert memory_report(CounterStrategy(0, 1, {})) == (1, 0, 0, 1)
        assert memory_report(CounterStrategy(3, 5, {})) == (8, 3, 3, 5)
        assert memory_report(CounterStrategy(2, 3, {})) == (5, 3, 2, 3)


class TestUnroll:
    def test_constant(self):
        cs = CounterStrategy(0, 1, {(0, "x"): 1})
        assert unroll(cs, 4) == [{"x": 1}] * 4

    def test_follows_rho(self):
        cs = CounterStrategy(1, 2, {(0, "x"): 0, (1, "x"): 1, (2, "x"): 0})
        acts = [row["x"] for row in unroll(cs, 6)]
        assert acts == [0, 1, 0, 1, 0, 1]


def brute_minimal_replication(seq):
    """Independent oracle: try every automaton shape and simulate it."""
    length = len(seq)
    best = None
    for total in range(1, length + 1):
        for p in range(1, total + 1):
            n = total - p
            walk = rho_walk(n, p, length)
            # positions 0..n+p-1 visit memories 0..n+p-1 in order, so the
            # automaton reproducing seq, if any, assigns actions[m] = seq[m]
            if all(seq[walk[t]] == seq[t] for t in range(length)):
                return n, p
    return length - 1, 1


@st.composite
def markov_rows(draw):
    """(states, rows): 1-3 states and 0-60 elapsed steps of arcs, one tuple
    per step; half of the non-empty ones end in a planted periodic tail."""
    states = tuple(f"s{k}" for k in range(draw(st.integers(1, 3))))
    step = st.tuples(*[st.integers(0, 1)] * len(states))
    length = draw(st.integers(0, 60))
    rows = draw(st.lists(step, min_size=length, max_size=length))
    if rows and draw(st.booleans()):
        start = draw(st.integers(0, length - 1))
        period = draw(st.integers(1, length - start))
        rows[start:] = [rows[start + t % period] for t in range(length - start)]
    return states, rows


class TestFromMarkov:
    def make_strategy(self, seq, states=None):
        """Markov strategy playing seq[t] at elapsed t, i.e. at remaining
        horizon - t: one arc of state "x", or with states given a tuple
        of arcs, one per state."""
        horizon = len(seq)
        rows = seq if states else [(arc,) for arc in seq]
        states = states or ("x",)
        choices = {
            (horizon - t, sid): arc
            for t, row in enumerate(rows)
            for sid, arc in zip(states, row)
        }
        return MarkovStrategy(player=1, horizon=horizon, choices=choices)

    def test_constant_sequence(self):
        cs = from_markov(self.make_strategy([1, 1, 1, 1]))
        assert (cs.initial, cs.period) == (0, 1)

    def test_alternating_sequence(self):
        cs = from_markov(self.make_strategy([0, 1, 0, 1, 0, 1]))
        assert (cs.initial, cs.period) == (0, 2)

    def test_empty_horizon(self):
        cs = from_markov(MarkovStrategy(player=1, horizon=0, choices={}))
        assert (cs.initial, cs.period) == (0, 1)

    def test_unroll_reproduces_sequence(self):
        seq = [0, 0, 1, 0, 1, 0, 1, 1]
        cs = from_markov(self.make_strategy(seq))
        assert [row["x"] for row in unroll(cs, len(seq))] == seq

    def test_shortcut_gadget_memory(self):
        for c in (6, 7):
            cs = from_markov(extract_markov(make_M(), c - 1))
            assert cs.initial + cs.period >= c - 3

    @given(markov_rows())
    @settings(max_examples=200, deadline=None)
    def test_minimality_against_brute_force(self, case):
        states, rows = case
        cs = from_markov(self.make_strategy(rows, states))
        if not rows:
            assert (cs.initial, cs.period) == (0, 1)
            return
        n, p = brute_minimal_replication(tuple(rows))
        assert (cs.initial + cs.period, cs.period) == (n + p, p)
        expected = [dict(zip(states, row)) for row in rows]
        assert unroll(cs, len(rows), ids=states) == expected

    def test_exhaustive_short_sequences(self):
        for length in range(1, 10):
            for bits in itertools.product((0, 1), repeat=length):
                cs = from_markov(self.make_strategy(list(bits)))
                n, p = brute_minimal_replication(bits)
                assert (cs.initial + cs.period, cs.period) == (n + p, p)

    def test_long_strategy_that_never_repeats(self):
        strat = extract_markov(random_game(200, random.Random(1)), 600)
        cs = from_markov(strat)
        assert (cs.initial, cs.period) == (599, 1)
        assert to_markov(cs, 600).choices == strat.choices

    def test_arc_outside_zero_one_is_refused(self):
        # mask 1 + 2 = 3 would read as "both arcs" if it were let through
        with pytest.raises(ValueError, match="got 2"):
            from_markov(self.make_strategy([0, 2, 1]))

    def test_missing_entry_is_refused(self):
        strat = self.make_strategy([0, 1, 1, 0])
        del strat.choices[(2, "x")]
        with pytest.raises(StrategyError, match="t=2, state 'x'"):
            from_markov(strat)


def sequence_of_masks(masks):
    return ActionSetSequence(
        length=len(masks),
        states=("x",),
        masks={"x": bytes(masks)},
    )


def brute_minimal_period(seq):
    """Independent oracle for minimal_period on a single-state sequence."""
    length = seq.length
    best = None
    for total in range(1, length + 1):
        for p in range(1, total + 1):
            n = total - p
            walk = rho_walk(n, p, length)
            feasible = True
            for mem in range(n + p):
                acc = 3
                for t in range(length):
                    if walk[t] == mem:
                        acc &= seq.masks["x"][t]
                if acc == 0:
                    feasible = False
                    break
            if feasible:
                return n, p
    return length - 1, 1


class TestActionSetSequence:
    @pytest.mark.parametrize(
        "masks",
        [
            {"x": bytes([1, 0, 3])},  # an empty set
            {"x": bytes([1, 4, 3])},  # a mask beyond both arcs
            {"x": bytes([1, 2])},  # a row shorter than the length
            {"x": bytes([1, 2, 3, 1])},  # a row longer than the length
            {"y": bytes([1, 2, 3])},  # state x missing
        ],
    )
    def test_invalid_rows_are_refused(self, masks):
        with pytest.raises(ValueError, match="'x' needs 3 masks"):
            ActionSetSequence(length=3, states=("x",), masks=masks)

    def test_empty_rows_at_length_zero(self):
        seq = ActionSetSequence(length=0, states=("x", "y"), masks={"x": b"", "y": b""})
        assert least_initial_for_period(seq, 1) == 0
        assert minimal_period(seq).witness.actions == {}

    def test_solver_sets_are_in_elapsed_time(self):
        seq = optimal_action_sets(make_M(), 5)[0]
        assert isinstance(seq, ActionSetSequence)
        assert (seq.length, seq.states) == (5, ("x",))
        # elapsed t is remaining 5 - t; see TestOptimalActionSets
        assert list(seq.masks["x"]) == [1, 1, 1, 2, 3]


class TestMinimalPeriod:
    def test_all_free_sets(self):
        seq = sequence_of_masks([3] * 10)
        res = minimal_period(seq)
        assert (res.initial, res.period) == (0, 1)

    def test_forced_alternation(self):
        seq = sequence_of_masks([1, 2] * 6)
        res = minimal_period(seq)
        assert (res.initial, res.period) == (0, 2)

    def test_transient_then_alternation(self):
        # constant prefix, alternating tail: the initial phase absorbs it
        seq = sequence_of_masks([1] * 5 + [1, 2] * 4)
        res = minimal_period(seq)
        assert res.period == 2
        assert res.initial + res.period == brute_minimal_period(seq)[0] + 2

    def test_ties_relax_the_tail(self):
        seq = sequence_of_masks([1, 2, 1, 2, 1, 3])
        res = minimal_period(seq)
        assert (res.initial, res.period) == (0, 2)

    def test_witness_respects_sets(self):
        rng = random.Random(5)
        for _ in range(60):
            masks = [rng.choice((1, 2, 3, 3)) for _ in range(rng.randint(1, 14))]
            seq = sequence_of_masks(masks)
            res = minimal_period(seq)
            acts = unroll(res.witness, seq.length, ids=["x"])
            for t, row in enumerate(acts):
                assert (1 << row["x"]) & masks[t]

    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, masks):
        seq = sequence_of_masks(masks)
        res = minimal_period(seq)
        n, p = brute_minimal_period(seq)
        assert res.initial + res.period == n + p
        assert res.period == p
        # the N(p) table handed back covers the found period and matches
        assert len(res.initials) >= res.period
        tried = range(1, len(res.initials) + 1)
        assert res.initials == tuple(least_initial_for_period(seq, q) for q in tried)

    def test_least_initial_monotone_use(self):
        seq = sequence_of_masks([1, 2, 1, 2, 1, 2, 1, 2])
        assert least_initial_for_period(seq, 2) == 0
        assert least_initial_for_period(seq, 1) == 7
        assert least_initial_for_period(seq, 4) == 0

    def test_parallel_cycles_need_primorial_period(self):
        for k in (1, 2, 3):
            expected = primorial(k)
            g = make_F(k)
            horizon = 2 * expected + 10
            seq = optimal_action_sets(g, horizon)[0]
            res = minimal_period(seq)
            assert res.period == expected
            assert res.initial == 0


class TestBitsetPeriodSearch:
    """least_initial_for_period against the scalar scan it replaced."""

    @given(
        st.integers(0, 2**32),
        st.integers(0, 80),
        st.integers(1, 3),
        st.integers(0, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_scan(self, seed, length, n_states, free_quarters):
        rng = random.Random(seed)
        states = tuple(f"s{k}" for k in range(n_states))
        # free_quarters/4 of the steps allow both arcs, the rest one arc
        cells = {
            (t, sid): 3 if rng.randrange(4) < free_quarters else rng.choice((1, 2))
            for t in range(length)
            for sid in states
        }
        masks = {sid: bytes(cells[(t, sid)] for t in range(length)) for sid in states}
        seq = ActionSetSequence(length=length, states=states, masks=masks)
        for p in range(1, length + 3):
            assert least_initial_for_period(seq, p) == reference_least_initial(seq, p)

    @pytest.mark.parametrize("k, horizon", [(3, 70), (4, 430)])
    def test_every_period_of_parallel_cycles(self, k, horizon):
        g = make_F(k)
        seq = optimal_action_sets(g, horizon)[0]
        for p in range(1, horizon + 3):
            assert least_initial_for_period(seq, p) == reference_least_initial(seq, p)

    def test_period_must_be_positive(self):
        seq = sequence_of_masks([1, 2])
        for p in (0, -1):
            with pytest.raises(ValueError):
                least_initial_for_period(seq, p)


class TestToMarkov:
    def test_round_trip_with_from_markov(self):
        seq = [0, 1, 1, 0, 1, 1]
        horizon = len(seq)
        choices = {(horizon - t, "x"): seq[t] for t in range(horizon)}
        strat = MarkovStrategy(player=1, horizon=horizon, choices=choices)
        again = to_markov(from_markov(strat), horizon)
        assert again.choices == strat.choices
