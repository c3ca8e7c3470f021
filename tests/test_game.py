import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sub_arena_samples

from fhgames.errors import GameFormatError, InvalidGameError, StrategyError
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


def reached_ids(g: Game) -> set[str]:
    """The ids the start reaches, by passes over every state's arcs
    until a pass adds none."""
    ids = {g.start}
    grew = True
    while grew:
        grew = False
        for s in g.states:
            if s.id in ids and s.arcs is not None and not ids.issuperset(s.arcs):
                ids.update(s.arcs)
                grew = True
    return ids


class TestState:
    def test_repr(self):
        assert repr(State("a", StateKind.MAX, ("a", "bot"))) == (
            "State(id='a', kind=<StateKind.MAX: 'max'>, arcs=('a', 'bot'))"
        )
        assert repr(State("bot", StateKind.TERMINAL)) == (
            "State(id='bot', kind=<StateKind.TERMINAL: 'terminal'>, arcs=None)"
        )

    def test_equality_and_hash_follow_the_fields(self):
        a = State("a", StateKind.COIN, ("a", "bot"))
        assert a == State("a", StateKind.COIN, ("a", "bot"))
        assert a != State("a", StateKind.COIN, ("bot", "a"))
        assert a != State("a", StateKind.MIN, ("a", "bot"))
        assert a != State("b", StateKind.COIN, ("a", "bot"))
        assert State("bot", StateKind.TERMINAL) == State("bot", StateKind.TERMINAL, None)
        assert hash(a) == hash(State("a", StateKind.COIN, ("a", "bot")))
        assert hash(a) == hash(("a", StateKind.COIN, ("a", "bot")))
        assert len({a, State("a", StateKind.COIN, ("a", "bot"))}) == 1


class TestReachable:
    def test_closure_keeps_the_terminal_and_declaration_order(self):
        seen = {"whole": 0, "part": 0, "terminal unreached": 0, "start is terminal": 0}
        for g in sub_arena_samples():
            ids = reached_ids(g)
            sub = g.reachable
            want = tuple(s for s in g.states if s.id in ids or s.id == g.terminal_id)
            assert sub.states == want and sub.start == g.start
            assert validate(sub) == []
            if len(want) == len(g.states):
                assert sub is g
                seen["whole"] += 1
            else:
                seen["part"] += 1
            seen["terminal unreached"] += g.terminal_id not in ids
            seen["start is terminal"] += g.start == g.terminal_id
        assert min(seen.values()) >= 20, seen

    def test_cached_and_closed(self):
        g = Game(
            states=(
                State("a", StateKind.MAX, ("a", "b")),
                State("b", StateKind.COIN, ("a", "a")),
                State("c", StateKind.MIN, ("bot", "a")),
                State("bot", StateKind.TERMINAL),
            ),
            start="a",
        )
        sub = g.reachable
        assert sub is g.reachable and sub.reachable is sub
        assert sub.ids() == ("a", "b", "bot")  # the terminal, though unreached
        assert Game(g.states, "bot").reachable.ids() == ("bot",)
        assert Game(g.states, "c").reachable is not g


class TestFix:
    GAME = Game(
        states=(
            State("a", StateKind.MAX, ("b", "bot")),
            State("b", StateKind.COIN, ("a", "m")),
            State("m", StateKind.MIN, ("bot", "b")),
            State("c", StateKind.MAX, ("c", "a")),
            State("bot", StateKind.TERMINAL),
        ),
        start="b",
    )

    @pytest.mark.parametrize(
        "arcs",
        [
            {"a": 0},
            {"a": 0, "c": 2},
            {"a": None, "c": 1},
            {},
            {"a": 1.0, "c": 1},
            {"a": 0, "c": True},
        ],
    )
    def test_missing_or_bad_arcs_raise(self, arcs):
        with pytest.raises(StrategyError, match=r"^arc index (None|2|1\.0|True) at state '[ac]'$"):
            self.GAME.fix(1, arcs)

    def test_each_state_of_the_player_reads_its_arc_on_both(self):
        fixed = self.GAME.fix(1, {"a": 1, "c": 0, "m": 1})  # m is not player 1's
        assert fixed.states == (
            State("a", StateKind.COIN, ("bot", "bot")),
            self.GAME.states[1],
            self.GAME.states[2],
            State("c", StateKind.COIN, ("c", "c")),
            self.GAME.states[4],
        )
        assert fixed.start == "b" and validate(fixed) == []
        fixed = self.GAME.fix(2, {"m": 1})
        assert fixed.states[2] == State("m", StateKind.COIN, ("b", "b"))
        assert fixed.ids() == self.GAME.ids()
        assert [s for s in fixed.states if s.id != "m"] == [s for s in self.GAME.states if s.id != "m"]

    def test_a_player_without_states_gives_an_equal_game(self):
        g = make_M()
        assert g.fix(2, {}) == g
        assert g.fix(1, {"x": 0}).fix(1, {}) == g.fix(1, {"x": 0})


class TestDocumentFormat:
    def test_store_shape(self):
        text = store(make_M())
        assert text.endswith("\n")
        assert '"start": "start"' in text
        # seven states including the terminal
        assert text.count('"id"') == 7

    def test_round_trip_gadgets(self):
        for g in (make_M(), make_H(4), make_G(5), make_F(2)):
            back = load(store(g))
            assert back == g
            # a State equals a bare tuple of its fields; the repr tells them apart
            assert list(map(repr, back.states)) == list(map(repr, g.states))

    def test_top_level_errors(self):
        with pytest.raises(GameFormatError, match=r"^\$: top level must be an object$"):
            load("[1]")
        doc = '{"start": "bot", "states": [{"id": "bot", "kind": "terminal"}], "x": 1}'
        with pytest.raises(GameFormatError, match=r"^\$: unknown fields \['x'\]$"):
            load(doc)

    def test_terminal_id_of_a_game_without_one(self):
        g = Game(states=(State("a", StateKind.COIN, ("a", "a")),), start="a")
        with pytest.raises(InvalidGameError, match="no terminal state"):
            g.terminal_id

    def test_parse_error(self):
        with pytest.raises(GameFormatError):
            load("{")
        with pytest.raises(GameFormatError):
            load("{}")
        with pytest.raises(GameFormatError):
            load('{"start": "a", "states": [{"id": "a", "kind": "wat"}]}')
        with pytest.raises(GameFormatError):
            load('{"start": "a", "states": [{"id": "a", "kind": "coin", "arcs": ["a"]}]}')

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_an_integer_past_the_digit_limit_is_not_valid_json(self):
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(GameFormatError, match="^not valid JSON: Exceeds the limit"):
            load('{"start": "a", "states": [], "n": ' + digits + "}")

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
