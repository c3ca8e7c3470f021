"""Markov strategies as arc bytes.

A MarkovStrategy built from a dict reads it once into arc bytes and
refuses its first bad cell there.  One case table pins those refusals,
at construction and through each consumer, and what the consumers
still refuse of a strategy that was built; the constructor is also
checked against conftest's per-cell ``reference_markov_rows`` on random
dicts.  MarkovChoices's edges are where a bytes index would read a
wrong arc silently.  The differential test checks the bytes-backed
strategies against the dict-built ones of conftest's ``reference_*``
twins, played per cell by ``reference_sweep``.

``simulate`` plays the rows the exact evaluation sweeps, so a second
table pins that it refuses a counter strategy exactly as
``evaluate_counter`` does, and a differential test checks its hit
counts against conftest's per-step ``reference_simulate``.
"""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    reference_extract_markov,
    reference_from_markov,
    reference_markov_rows,
    reference_simulate,
    reference_sweep,
    reference_to_markov,
)
from fhgames.counter import CounterStrategy, from_markov, to_markov
from fhgames.errors import FhgamesError, StrategyError
from fhgames.game import PLAYER_KIND, Game, State, StateKind
from fhgames.gadgets import make_H, make_M, random_game
from fhgames.oracle import simulate
from fhgames.solver import (
    MarkovChoices,
    _arc_rows,
    MarkovStrategy,
    evaluate_counter,
    evaluate_fixed_final,
    extract_markov,
    markov_arcs,
    values_at,
)

# Two max states whose sweep order (b, a) is not their sorted order
# (a, b): the constructor walks t-major in the order the keys name the
# states, the sweep reads the states in the first, from_markov in the
# other.
PARITY_GAME = Game(
    (
        State("b", StateKind.MAX, ("a", "bot")),
        State("a", StateKind.MAX, ("c", "b")),
        State("c", StateKind.COIN, ("a", "bot")),
        State("bot", StateKind.TERMINAL),
    ),
    "a",
)
FULL = {(t, sid): (t + (sid == "b")) % 2 for t in range(1, 5) for sid in ("b", "a")}


def _without(*keys):
    return {k: v for k, v in FULL.items() if k not in keys}


def _bad(arc):
    return {**FULL, (4, "a"): arc, (1, "b"): arc}


def _outcome(call):
    """("ok", str(result)), or the exception's type and, for the ones the
    library raises, its message."""
    try:
        result = call()
    except Exception as error:
        library = isinstance(error, (FhgamesError, ValueError))
        return type(error).__name__, str(error) if library else None
    return "ok", str(result)


def _consumers(choices):
    """Each consumer's call on the strategy built from ``choices`` at
    horizon 4, built inside the call."""
    g = PARITY_GAME

    def strategy():
        return MarkovStrategy(player=1, horizon=4, choices=choices)

    return {
        "evaluate_fixed_final": lambda: evaluate_fixed_final(g, 4, strategy())["a"],
        "values_at 1, 3": lambda: values_at(g, (1, 3), strategy())[3]["a"],
        "values_at 1": lambda: values_at(g, (1,), strategy())[1]["a"],
        "values_at 5": lambda: values_at(g, (5,), strategy())[5]["a"],
        "from_markov": lambda: from_markov(strategy()).to_json_obj(),
        "simulate": lambda: simulate(g, 4, strategy(), 20, 0),
    }


def _missing(t, sid):
    return "StrategyError", f"markov strategy (player 1) has no entry for t={t}, state {sid!r}"


def _arc(arc, t, sid):
    return "StrategyError", f"arc index {arc!r} at t={t}, state {sid!r}"


# The first cell of a t-major walk, over the states in the order the
# keys first name them, that has no entry or an arc not 0 or 1.
REFUSALS = {
    "missing entry": (_without((2, "a"), (4, "b")), _missing(2, "a")),
    # (1, "b") goes first, so the keys name a before b
    "missing and bad": ({**_without((1, "b")), (4, "a"): 2}, _missing(1, "b")),
    "mixed bad": ({**FULL, (4, "a"): None, (1, "b"): 2}, _arc(2, 1, "b")),
    **{f"arc {arc!r}": (_bad(arc), _arc(arc, 1, "b")) for arc in (2, None, -1, 1.0, True)},
}

# What the consumers refuse, or return, for a strategy that was built.
OUTCOMES = {
    "full": (
        FULL,
        {
            "evaluate_fixed_final": ("ok", "3/2^2"),
            "values_at 1, 3": ("ok", "1"),
            "values_at 1": ("ok", "0"),
            "values_at 5": _missing(5, "b"),  # past the horizon: the first state swept
            "from_markov": (
                "ok",
                "{'N': 0, 'p': 2, 'actions': [{'memory': 0, 'state': 'a', 'arc': 0}, "
                "{'memory': 0, 'state': 'b', 'arc': 1}, {'memory': 1, 'state': 'a', 'arc': 1}, "
                "{'memory': 1, 'state': 'b', 'arc': 0}]}",
            ),
            "simulate": ("ok", "16"),
        },
    ),
    "missing state": (
        {k: v for k, v in FULL.items() if k[1] != "a"},
        {
            **dict.fromkeys(
                (
                    "evaluate_fixed_final",
                    "values_at 1, 3",
                    "values_at 1",
                    "values_at 5",
                    "simulate",
                ),
                _missing(1, "a"),
            ),
            "from_markov": (
                "ok",
                "{'N': 0, 'p': 2, 'actions': [{'memory': 0, 'state': 'b', 'arc': 1}, "
                "{'memory': 1, 'state': 'b', 'arc': 0}]}",
            ),
        },
    ),
}


def _no_action(m, sid):
    return "StrategyError", f"counter strategy has no action for memory {m}, state {sid!r}"


# Max state z lies outside the start's sub-arena; min state m needs an
# opponent, which the last case leaves out: simulate checks the
# automaton first.
COUNTER_GAME = Game(
    (
        State("a", StateKind.MAX, ("c", "bot")),
        State("c", StateKind.COIN, ("a", "bot")),
        State("z", StateKind.MAX, ("z", "bot")),
        State("bot", StateKind.TERMINAL),
    ),
    "a",
)
TWO_PLAYER_GAME = Game(
    (
        State("a", StateKind.MAX, ("m", "bot")),
        State("m", StateKind.MIN, ("bot", "c")),
        State("c", StateKind.COIN, ("a", "bot")),
        State("bot", StateKind.TERMINAL),
    ),
    "a",
)

# (game, horizon, automaton, the one refusal of evaluate_counter and simulate)
COUNTER_REFUSALS = {
    "missing at a memory the play reaches": (
        make_M(), 3, CounterStrategy(1, 1, {(0, "x"): 0}), _no_action(1, "x")
    ),
    "missing at a memory the horizon never reaches": (
        make_M(), 1, CounterStrategy(0, 5, {(0, "x"): 0}), _no_action(1, "x")
    ),
    "missing outside the start's sub-arena": (
        COUNTER_GAME, 3, CounterStrategy(0, 1, {(0, "a"): 0}), _no_action(0, "z")
    ),
    "no opponent given": (
        TWO_PLAYER_GAME, 3, CounterStrategy(1, 1, {(0, "a"): 0}), _no_action(1, "a")
    ),
}


@st.composite
def choice_dicts(draw):
    """(choices, horizon): a full dict of arcs over 1-3 states and
    t = 1..horizon, with, each by a coin, one cell dropped, one arc
    made 2, -1, None, 1.0 or True, and keys at t = 0 or horizon + 1
    (arcs never read, some bad, some for a state no other key names);
    its items in a random order, so the keys name the states in any
    order."""
    horizon = draw(st.integers(0, 5))
    states = ("a", "b", "c")[: draw(st.integers(1, 3))]
    cells = [(t, sid) for t in range(1, horizon + 1) for sid in states]
    choices = {cell: draw(st.integers(0, 1)) for cell in cells}
    if cells and draw(st.booleans()):
        del choices[draw(st.sampled_from(cells))]
    if cells and draw(st.booleans()):
        choices[draw(st.sampled_from(cells))] = draw(st.sampled_from((2, -1, None, 1.0, True)))
    for _ in range(draw(st.integers(0, 2))):
        key = (draw(st.sampled_from((0, horizon + 1))), draw(st.sampled_from(states + ("z",))))
        choices[key] = draw(st.sampled_from((0, 1, 2, None)))
    items = draw(st.permutations(list(choices.items())))
    return dict(items), horizon


class TestErrorParity:
    """The one refusal of each bad dict, at construction and through
    every consumer, and what the consumers still refuse, or return, for
    a strategy that was built."""

    @pytest.mark.parametrize("case", sorted({**REFUSALS, **OUTCOMES}))
    def test_each_consumer_raises_the_pinned_error(self, case):
        if case in REFUSALS:
            choices, refusal = REFUSALS[case]
            assert _outcome(lambda: MarkovStrategy(player=1, horizon=4, choices=choices)) == refusal
            expected = dict.fromkeys(_consumers(choices), refusal)
        else:
            choices, expected = OUTCOMES[case]
        got = {name: _outcome(call) for name, call in _consumers(choices).items()}
        assert got == expected

    def test_horizon_zero_reads_no_action(self):
        g = PARITY_GAME
        strategy = MarkovStrategy(player=1, horizon=0, choices={})
        assert evaluate_fixed_final(g, 0, strategy) == values_at(g, (0,))[0]
        assert values_at(g, (0,), strategy) == values_at(g, (0,))
        cs = from_markov(strategy)
        assert (cs.initial, cs.period, cs.actions) == (0, 1, {})
        assert simulate(g, 0, strategy, 5, 0) == 0

    @pytest.mark.parametrize("case", sorted(COUNTER_REFUSALS))
    def test_simulate_refuses_an_automaton_as_evaluate_counter_does(self, case):
        g, horizon, cs, refusal = COUNTER_REFUSALS[case]
        assert _outcome(lambda: evaluate_counter(g, horizon, cs).value) == refusal
        assert _outcome(lambda: simulate(g, horizon, cs, 20, 0)) == refusal


class TestConstructor:
    """MarkovStrategy reads any mapping once into a MarkovChoices."""

    @given(choice_dicts())
    @example(({(1, "b"): 0, (2, "b"): 2, (2, "a"): 0}, 2))  # a's gap at t=1 comes before b's arc
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_cell_reading(self, case):
        choices, horizon = case
        expected = _outcome(lambda: reference_markov_rows(choices, horizon))
        got = _outcome(lambda: dict(MarkovStrategy(1, horizon, choices).choices.rows))
        assert got == expected

    def test_a_dict_becomes_its_arc_bytes(self):
        strategy = MarkovStrategy(player=2, horizon=2, choices={(2, "x"): 1, (1, "x"): 0})
        assert isinstance(strategy.choices, MarkovChoices)
        assert dict(strategy.choices.rows) == {"x": b"\0\1"}
        assert strategy.choices.horizon == 2

    def test_choices_of_its_horizon_are_kept(self):
        choices = MarkovChoices({"x": b"\0\1\1"}, 3)
        assert MarkovStrategy(1, 3, choices).choices is choices
        shorter = MarkovStrategy(1, 2, choices).choices  # any other horizon is read per cell
        assert dict(shorter.rows) == {"x": b"\0\1"} and shorter.horizon == 2
        with pytest.raises(StrategyError, match="no entry for t=4, state 'x'"):
            MarkovStrategy(1, 4, choices)


class TestMarkovChoices:
    """The view over an extracted strategy's arc bytes at its edges."""

    def test_keys_are_remaining_times_one_to_the_horizon(self):
        g, horizon = make_H(3), 6
        strategy = extract_markov(g, horizon)
        choices = strategy.choices
        sid = g.controlled_ids(1)[0]
        row = markov_arcs(g, horizon)[sid]
        assert [strategy.action(t, sid) for t in range(1, horizon + 1)] == list(row)
        for t in (0, horizon + 1, -1):  # as a bytes index, t - 1 of 0 or -1 counts from the end
            assert (t, sid) not in choices and choices.get((t, sid)) is None
            with pytest.raises(StrategyError, match=f"no entry for t={t}, state {sid!r}"):
                strategy.action(t, sid)
        for key in ((1, "nowhere"), (1.5, sid), "x", (1, sid, 0), None):
            assert key not in choices
        assert len(choices) == horizon * len(g.controlled_ids(1)) == len(list(choices))

    def test_sweeping_past_the_horizon_raises(self):
        g, horizon = make_H(3), 6
        strategy = extract_markov(g, horizon)
        first = g.controlled_ids(1)[0]
        message = f"no entry for t={horizon + 1}, state {first!r}"
        with pytest.raises(StrategyError, match=message):
            values_at(g, (2, horizon + 1), strategy)
        with pytest.raises(StrategyError, match=message):
            evaluate_fixed_final(g, horizon + 1, strategy)
        assert values_at(g, (horizon,), strategy) == values_at(
            g, (horizon,), reference_extract_markov(g, horizon)
        )

    def test_a_state_it_does_not_cover_raises_at_t_1(self):
        g = make_M()
        strategy = extract_markov(g, 5)
        name = {"x": "y"}
        renamed = Game(
            tuple(
                State(name.get(s.id, s.id), s.kind, s.arcs and tuple(name.get(a, a) for a in s.arcs))
                for s in g.states
            ),
            "y",
        )
        with pytest.raises(StrategyError, match="no entry for t=1, state 'y'"):
            evaluate_fixed_final(renamed, 5, strategy)

    @pytest.mark.parametrize(
        "rows, horizon",
        [
            ({"x": b"\0\1"}, 3),
            ({"x": b"\0\2"}, 2),
            ({"x": b""}, 1),
            ({"x": bytearray(b"\0\1")}, 2),  # a caller could change it after the check
            ({"x": memoryview(b"\0\1")}, 2),
            ({"x": [0, 1]}, 2),
        ],
    )
    def test_rows_must_be_arcs_to_the_horizon(self, rows, horizon):
        with pytest.raises(ValueError, match="'x' needs"):
            MarkovChoices(rows, horizon)

    def test_it_keeps_its_own_rows(self):
        g = make_M()
        rows = {"x": b"\1\1\1"}
        strategy = MarkovStrategy(1, 3, MarkovChoices(rows, 3))
        before = evaluate_fixed_final(g, 3, strategy)
        rows["x"] = b"\5\5\5"
        rows["y"] = b"\0\0\0"
        assert strategy.action(3, "x") == 1
        assert (1, "y") not in strategy.choices and len(strategy.choices) == 3
        assert evaluate_fixed_final(g, 3, strategy) == before

    def test_its_rows_and_horizon_are_read_only(self):
        g = make_M()
        s = MarkovStrategy(1, 3, MarkovChoices({"x": b"\1\1\1"}, 3))
        before = evaluate_fixed_final(g, 3, s)
        with pytest.raises(TypeError):
            s.choices.rows["x"] = b"\2\2\2"  # would play x as optimising, unchecked
        for field in ("rows", "horizon"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(s.choices, field, {"x": b"\2\2\2"})
        assert s.action(3, "x") == 1 and evaluate_fixed_final(g, 3, s) == before
        assert _arc_rows(s, ("x",), 3) is s.choices.rows  # the sweep reads the view itself
        assert repr(s.choices) == "MarkovChoices({'x': b'\\x01\\x01\\x01'}, horizon=3)"

    def test_equality_is_a_mappings(self):
        choices = MarkovChoices({"x": b"\1\0", "y": b"\0\0"}, 2)
        table = {(1, "x"): 1, (1, "y"): 0, (2, "x"): 0, (2, "y"): 0}
        assert choices == table and table == choices
        assert list(choices.items()) == list(table.items())
        assert choices == MarkovChoices({"y": b"\0\0", "x": b"\1\0"}, 2)
        assert choices != MarkovChoices({"x": b"\1\0"}, 2)
        assert choices != {**table, (2, "y"): 1}
        empty = [MarkovChoices({}, 3), MarkovChoices({"x": b""}, 0), MarkovChoices({}, 0)]
        assert all(a == b for a in empty for b in empty + [{}])

    def test_the_sweep_and_from_markov_call_no_action(self):
        g = make_H(3)
        strategy = extract_markov(g, 30)
        expected = values_at(g, (10, 30), reference_extract_markov(g, 30))
        cs = reference_from_markov(strategy)
        with mock.patch.object(MarkovStrategy, "action", side_effect=AssertionError("read a cell")):
            assert values_at(g, (10, 30), strategy) == expected
            assert from_markov(strategy) == cs


class TestAgainstTheDictForm:
    """Bytes-backed strategies against the dict-built reference twins."""

    @given(
        st.integers(0, 2**32),
        st.integers(2, 12),
        st.integers(0, 40),
        st.sampled_from((1, 2)),
        st.sampled_from(("lo", "hi")),
    )
    @example(seed=0, n=2, horizon=0, player=1, tiebreak="lo")
    @settings(max_examples=150, deadline=None)
    def test_same_choices_values_and_automata(self, seed, n, horizon, player, tiebreak):
        rng = random.Random(seed)
        g = random_game(n, rng)
        strategy = extract_markov(g, horizon, player, tiebreak)
        twin = reference_extract_markov(g, horizon, player, tiebreak)
        assert list(strategy.choices.items()) == list(twin.choices.items())
        assert strategy == twin and twin == strategy

        values = evaluate_fixed_final(g, horizon, strategy)
        assert values == evaluate_fixed_final(g, horizon, twin)
        per_cell = (PLAYER_KIND[player], twin.action)
        assert values == reference_sweep(g.states, horizon, (horizon,), fixed=per_cell)[horizon]
        checkpoints = {rng.randint(0, horizon), rng.randint(0, horizon)}
        assert values_at(g, checkpoints, strategy) == values_at(g, checkpoints, twin)

        cs = from_markov(strategy)
        assert cs == reference_from_markov(twin) == from_markov(twin)
        unrolled = to_markov(cs, horizon, player)
        assert unrolled == reference_to_markov(cs, horizon, player)
        assert unrolled.choices == strategy.choices


def random_automaton(ids, rng):
    """A complete counter automaton over the states ``ids``: 0-3 initial
    and 1-3 periodic memories, an arc at every (memory, state)."""
    initial, period = rng.randint(0, 3), rng.randint(1, 3)
    actions = {(m, sid): rng.getrandbits(1) for m in range(initial + period) for sid in ids}
    return CounterStrategy(initial, period, actions)


KINDS = st.sampled_from(("markov", "from_markov", "automaton"))


class TestSimulateAgainstTheReference:
    """simulate, which plays the sweep's arc rows, against the per-step
    reference_simulate, on every kind of strategy either player plays."""

    @given(
        st.integers(0, 2**32),
        st.integers(2, 8),
        st.integers(0, 12),
        st.sampled_from(("lo", "hi")),
        KINDS,
        KINDS,
    )
    @settings(max_examples=150, deadline=None)
    def test_same_hit_counts(self, seed, n, horizon, tiebreak, kind1, kind2):
        rng = random.Random(seed)
        g = random_game(n, rng)
        played = []
        for player, kind in ((1, kind1), (2, kind2)):
            markov = extract_markov(g, horizon, player, tiebreak)
            if kind == "markov":
                played.append(markov)
            elif kind == "from_markov":
                played.append(from_markov(markov))
            else:
                played.append(random_automaton(g.controlled_ids(player), rng))
        for trial_seed in (0, 1, seed):
            expected = reference_simulate(g, horizon, played[0], 30, trial_seed, played[1])
            assert simulate(g, horizon, played[0], 30, trial_seed, played[1]) == expected
