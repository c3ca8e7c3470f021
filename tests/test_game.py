import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhgames.errors import GameFormatError, InvalidGameError
from fhgames.game import Game, State, StateKind, load, store, validate
from fhgames.gadgets import make_F, make_G, make_H, make_M, random_game


def test_gadgets_are_valid():
    assert validate(make_M()) == []
    for i in range(1, 17):
        assert validate(make_H(i)) == []
    for p in range(2, 14):
        assert validate(make_G(p)) == []
    for k in range(1, 6):
        assert validate(make_F(k)) == []


def test_arc_count_violation():
    g = Game(
        states=(State("a", StateKind.COIN, None), State("bot", StateKind.TERMINAL)),
        start="a",
    )
    assert any(v.code == "arc-count" for v in validate(g))


def test_dangling_destination_violation():
    g = Game(
        states=(
            State("a", StateKind.COIN, ("a", "zz")),
            State("bot", StateKind.TERMINAL),
        ),
        start="a",
    )
    codes = [v.code for v in validate(g)]
    assert "dangling-destination" in codes


def test_terminal_count_violation():
    g = Game(states=(State("a", StateKind.COIN, ("a", "a")),), start="a")
    assert any(v.code == "terminal-count" for v in validate(g))
    two = Game(
        states=(
            State("bot", StateKind.TERMINAL),
            State("bot2", StateKind.TERMINAL),
        ),
        start="bot",
    )
    assert any(v.code == "terminal-count" for v in validate(two))


def test_duplicate_and_missing_start():
    g = Game(
        states=(
            State("a", StateKind.COIN, ("a", "bot")),
            State("a", StateKind.COIN, ("a", "a")),
            State("bot", StateKind.TERMINAL),
        ),
        start="nowhere",
    )
    codes = {v.code for v in validate(g)}
    assert {"duplicate-id", "missing-start"} <= codes


class TestDocumentFormat:
    def test_store_shape(self):
        text = store(make_M())
        assert text.endswith("\n")
        assert '"start": "start"' in text
        # seven states including the terminal
        assert text.count('"id"') == 7

    def test_round_trip_gadgets(self):
        for g in (make_M(), make_H(4), make_G(5), make_F(2)):
            assert load(store(g)) == g

    def test_parse_error(self):
        with pytest.raises(GameFormatError):
            load("{")
        with pytest.raises(GameFormatError):
            load("{}")
        with pytest.raises(GameFormatError):
            load('{"start": "a", "states": [{"id": "a", "kind": "wat"}]}')
        with pytest.raises(GameFormatError):
            load('{"start": "a", "states": [{"id": "a", "kind": "coin", "arcs": ["a"]}]}')

    def test_terminal_must_omit_arcs(self):
        with pytest.raises(GameFormatError):
            load(
                '{"start": "bot", "states": '
                '[{"id": "bot", "kind": "terminal", "arcs": ["bot", "bot"]}]}'
            )

    KINDS = "['coin', 'max', 'min', 'terminal']"
    ARCS = "$.states[1].arcs: must be an array of two state ids"

    @pytest.mark.parametrize(
        "entry, message",
        [
            (["a"], "$.states[1]: must be an object"),
            ("a", "$.states[1]: must be an object"),
            (None, "$.states[1]: must be an object"),
            ({"id": "", "kind": "coin"}, "$.states[1].id: required non-empty string"),
            ({"id": 3, "kind": "coin"}, "$.states[1].id: required non-empty string"),
            ({"kind": "coin", "x": 1}, "$.states[1].id: required non-empty string"),
            ({"id": "a", "kind": "wat"}, f"$.states[1].kind: must be one of {KINDS}, got 'wat'"),
            ({"id": "a", "kind": ["max"]}, f"$.states[1].kind: must be one of {KINDS}, got ['max']"),
            ({"id": "a", "x": 1}, f"$.states[1].kind: must be one of {KINDS}, got None"),
            (
                {"id": "a", "kind": "coin", "arcs": ["bot", "bot"], "x": 1, "b": 2},
                "$.states[1]: unknown fields ['b', 'x']",
            ),
            ({"id": "a", "kind": "terminal", "arcs": 7, "x": 1}, "$.states[1]: unknown fields ['x']"),
            (
                {"id": "a", "kind": "terminal", "arcs": ["bot", "bot"]},
                "$.states[1].arcs: terminal state must omit arcs",
            ),
            ({"id": "a", "kind": "terminal", "arcs": []}, "$.states[1].arcs: terminal state must omit arcs"),
            ({"id": "a", "kind": "coin"}, ARCS),
            ({"id": "a", "kind": "max", "arcs": "ab"}, ARCS),
            ({"id": "a", "kind": "min", "arcs": {"a": "bot"}}, ARCS),
            ({"id": "a", "kind": "coin", "arcs": []}, ARCS),
            ({"id": "a", "kind": "coin", "arcs": ["bot"]}, ARCS),
            ({"id": "a", "kind": "coin", "arcs": ["bot", "bot", "bot"]}, ARCS),
            ({"id": "a", "kind": "coin", "arcs": ["bot", 1]}, ARCS),
            ({"id": "a", "kind": "coin", "arcs": [None, "bot"]}, ARCS),
            ({"id": "a", "kind": "coin", "arcs": [["bot"], ["bot"]]}, ARCS),
        ],
    )
    def test_format_error_messages(self, entry, message):
        doc = {"start": "bot", "states": [{"id": "bot", "kind": "terminal"}, entry]}
        with pytest.raises(GameFormatError) as err:
            load(json.dumps(doc))
        assert str(err.value) == message

    def test_validation_surfaces_on_load(self):
        doc = (
            '{"start": "a", "states": ['
            '{"id": "a", "kind": "coin", "arcs": ["a", "zz"]},'
            '{"id": "bot", "kind": "terminal"}]}'
        )
        with pytest.raises(InvalidGameError) as err:
            load(doc)
        assert any(v.code == "dangling-destination" for v in err.value.violations)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    @settings(max_examples=60)
    def test_round_trip_random_games(self, seed, n):
        g = random_game(n, random.Random(seed))
        assert validate(g) == []
        assert load(store(g)) == g
