"""Markov strategies as arc bytes.

The error each consumer raises on a strategy built from a dict is pinned
as a case table, so that the form the kernel plays keeps every exception
and message.  MarkovChoices's edges are where a bytes index would read a
wrong arc silently.  The differential test checks the bytes-backed
strategies against the dict-built ones of conftest's ``reference_*``
twins, played per cell by ``reference_sweep``.
"""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    reference_extract_markov,
    reference_from_markov,
    reference_sweep,
    reference_to_markov,
)
from fhgames.counter import from_markov, to_markov
from fhgames.errors import FhgamesError, StrategyError
from fhgames.game import PLAYER_KIND, Game, State, StateKind
from fhgames.gadgets import make_H, make_M, random_game
from fhgames.oracle import simulate
from fhgames.solver import (
    MarkovChoices,
    MarkovStrategy,
    evaluate_fixed_final,
    extract_markov,
    markov_arcs,
    values_at,
)

# Two max states whose sweep order (b, a) is not their sorted order
# (a, b): the sweep walks t-major in the first, from_markov in the other,
# from the largest remaining time down.
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


def _consumers(strategy):
    g = PARITY_GAME
    return {
        "evaluate_fixed_final": lambda: evaluate_fixed_final(g, 4, strategy)["a"],
        "values_at 1, 3": lambda: values_at(g, (1, 3), strategy)[3]["a"],
        "values_at 1": lambda: values_at(g, (1,), strategy)[1]["a"],
        "values_at 5": lambda: values_at(g, (5,), strategy)[5]["a"],
        "from_markov": lambda: from_markov(strategy).to_json_obj(),
        "simulate": lambda: simulate(g, 4, strategy, 20, 0),
    }


def _missing(t, sid):
    return "StrategyError", f"markov strategy (player 1) has no entry for t={t}, state {sid!r}"


def _arc(arc, t, sid):
    return "StrategyError", f"arc index {arc!r} at t={t}, state {sid!r}"


def _got(arc):
    return "ValueError", f"arc index must be 0 or 1, got {arc!r}"


PARITY_CASES = {
    "full": (
        FULL,
        {
            "evaluate_fixed_final": ("ok", "3/2^2"),
            "values_at 1, 3": ("ok", "1"),
            "values_at 1": ("ok", "0"),
            "values_at 5": _missing(5, "b"),
            "from_markov": (
                "ok",
                "{'N': 0, 'p': 2, 'actions': [{'memory': 0, 'state': 'a', 'arc': 0}, "
                "{'memory': 0, 'state': 'b', 'arc': 1}, {'memory': 1, 'state': 'a', 'arc': 1}, "
                "{'memory': 1, 'state': 'b', 'arc': 0}]}",
            ),
            "simulate": ("ok", "16"),
        },
    ),
    "missing entry": (
        _without((2, "a"), (4, "b")),
        {
            "evaluate_fixed_final": _missing(2, "a"),
            "values_at 1, 3": _missing(2, "a"),
            "values_at 1": ("ok", "0"),
            "values_at 5": _missing(2, "a"),
            "from_markov": _missing(4, "b"),
            "simulate": _missing(2, "a"),
        },
    ),
    "missing state": (
        {k: v for k, v in FULL.items() if k[1] != "a"},
        {
            **dict.fromkeys(
                ("evaluate_fixed_final", "values_at 1, 3", "values_at 1", "values_at 5"),
                _missing(1, "a"),
            ),
            "from_markov": (
                "ok",
                "{'N': 0, 'p': 2, 'actions': [{'memory': 0, 'state': 'b', 'arc': 1}, "
                "{'memory': 1, 'state': 'b', 'arc': 0}]}",
            ),
            "simulate": _missing(4, "a"),
        },
    ),
    # from_markov reads every arc before it checks one; a play stops at
    # the first arc it cannot follow
    "missing and bad": (
        {**_without((1, "b")), (4, "a"): 2},
        {**{name: _missing(1, "b") for name in _consumers(None)}, "simulate": _arc(2, 4, "a")},
    ),
    "mixed bad": (
        {**FULL, (4, "a"): None, (1, "b"): 2},
        {
            **dict.fromkeys(
                ("evaluate_fixed_final", "values_at 1, 3", "values_at 1", "values_at 5"),
                _arc(2, 1, "b"),
            ),
            "from_markov": _got(None),
            "simulate": _arc(None, 4, "a"),
        },
    ),
    **{
        f"arc {arc!r}": (
            _bad(arc),
            {
                **dict.fromkeys(
                    ("evaluate_fixed_final", "values_at 1, 3", "values_at 1", "values_at 5"),
                    _arc(arc, 1, "b"),
                ),
                "from_markov": _got(arc),
                "simulate": _arc(arc, 4, "a"),
            },
        )
        for arc in (2, None, -1)
    },
}


class TestErrorParity:
    """A strategy built from a dict raises, through every consumer, what
    it raised when each consumer read the dict one cell at a time."""

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_each_consumer_raises_the_pinned_error(self, case):
        choices, expected = PARITY_CASES[case]
        strategy = MarkovStrategy(player=1, horizon=4, choices=choices)
        got = {name: _outcome(call) for name, call in _consumers(strategy).items()}
        assert got == expected

    def test_horizon_zero_reads_no_action(self):
        g = PARITY_GAME
        strategy = MarkovStrategy(player=1, horizon=0, choices={})
        assert evaluate_fixed_final(g, 0, strategy) == values_at(g, (0,))[0]
        assert values_at(g, (0,), strategy) == values_at(g, (0,))
        cs = from_markov(strategy)
        assert (cs.initial, cs.period, cs.actions) == (0, 1, {})
        assert simulate(g, 0, strategy, 5, 0) == 0


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
