"""The library's records, one row each: repr, equality, hashing,
refusal of assignment, pickling, validation and the JSON of the two
that output renders as objects.

Each row gives a record built positionally, an equal one built by
keyword, an unequal one, the repr and whether the record hashes, so
that the form a record is built in keeps what callers see.
"""

import pickle
from fractions import Fraction

import pytest

from fhgames.counter import CounterStrategy, PeriodResult
from fhgames.game import Game, State, StateKind, Violation
from fhgames.gadgets import make_M
from fhgames.jsonout import Grid, dumps, jsonable
from fhgames.numeric import HALF, ONE, IntervalEnclosure
from fhgames.oracle import InfiniteSolution, MinMemoryResult
from fhgames.solver import (
    ActionSetSequence,
    CounterEvaluation,
    MarkovChoices,
    MarkovStrategy,
    evaluate_counter,
)
from fhgames.verify import CheckReport

CS = CounterStrategy(1, 2, {(0, "x"): 1, (2, "x"): 0})
CS_TEXT = "CounterStrategy(initial=1, period=2, actions={(0, 'x'): 1, (2, 'x'): 0})"
TWO = (State("t", StateKind.TERMINAL), State("s", StateKind.COIN, ("t", "t")))
GAME_TEXT = (
    "Game(states=(State(id='t', kind=<StateKind.TERMINAL: 'terminal'>, arcs=None), "
    "State(id='s', kind=<StateKind.COIN: 'coin'>, arcs=('t', 't'))), start='s')"
)
KEYS = ("remaining", "state", "arc")
CELLS = (b"\0\1", b"\1\1")
M_CS = CounterStrategy(0, 1, {(0, "x"): 1})
M_VALUE = evaluate_counter(make_M(), 3, M_CS).value

# (record, the same fields by keyword, a record that differs, repr, hashes)
RECORDS = {
    "CounterStrategy": (
        CS,
        lambda: CounterStrategy(initial=1, period=2, actions={(2, "x"): 0, (0, "x"): 1}),
        CounterStrategy(1, 2, {(0, "x"): 0, (2, "x"): 0}),
        CS_TEXT,
        False,
    ),
    "PeriodResult": (
        PeriodResult(1, 2, CS, (3, 1)),
        lambda: PeriodResult(initial=1, period=2, witness=CS, initials=(3, 1)),
        PeriodResult(1, 2, CS, (3, 2)),  # initials: compared, though not printed
        f"PeriodResult(initial=1, period=2, witness={CS_TEXT})",
        False,
    ),
    "Game": (
        Game(TWO, "s"),
        lambda: Game(states=TWO, start="s"),
        Game(TWO, "t"),
        GAME_TEXT,
        True,
    ),
    "Violation": (
        Violation("arc-count", "s", "detail"),
        lambda: Violation(code="arc-count", state="s", detail="detail"),
        Violation("arc-count", None, "detail"),
        "Violation(code='arc-count', state='s', detail='detail')",
        True,
    ),
    "Grid": (
        Grid(KEYS, (1, 2), ("x", "y"), CELLS),
        lambda: Grid(keys=KEYS, rows=(1, 2), cols=("x", "y"), cells=CELLS),
        Grid(KEYS, (1, 2), ("x", "y"), (b"\0\1", b"\1\0")),
        "Grid(keys=('remaining', 'state', 'arc'), rows=(1, 2), cols=('x', 'y'), "
        "cells=(b'\\x00\\x01', b'\\x01\\x01'))",
        True,
    ),
    "IntervalEnclosure": (
        IntervalEnclosure(Fraction(1, 3), Fraction(1, 2)),
        lambda: IntervalEnclosure(lower=Fraction(1, 3), upper=Fraction(1, 2)),
        IntervalEnclosure(Fraction(1, 3), Fraction(2, 3)),
        "IntervalEnclosure(lower=Fraction(1, 3), upper=Fraction(1, 2))",
        True,
    ),
    "InfiniteSolution": (
        InfiniteSolution({"s": Fraction(1)}, {"x": 0}),
        lambda: InfiniteSolution(values={"s": Fraction(1)}, strategy={"x": 0}),
        InfiniteSolution({"s": Fraction(1)}, {"x": 1}),
        "InfiniteSolution(values={'s': Fraction(1, 1)}, strategy={'x': 0})",
        False,
    ),
    "MinMemoryResult": (
        MinMemoryResult(3, CS, ONE, HALF),
        lambda: MinMemoryResult(memory=3, witness=CS, optimum=ONE, target=HALF),
        MinMemoryResult(3, CS, ONE, ONE),
        f"MinMemoryResult(memory=3, witness={CS_TEXT}, optimum=Dyadic(1, 0), target=Dyadic(1, 1))",
        False,
    ),
    "MinMemoryResult (none found)": (
        MinMemoryResult(None, None, ONE, HALF),
        lambda: MinMemoryResult(memory=None, witness=None, optimum=ONE, target=HALF),
        MinMemoryResult(None, None, HALF, HALF),
        "MinMemoryResult(memory=None, witness=None, optimum=Dyadic(1, 0), target=Dyadic(1, 1))",
        True,
    ),
    "ActionSetSequence": (
        ActionSetSequence(2, {"x": b"\1\3"}),
        lambda: ActionSetSequence(length=2, masks={"x": b"\1\3"}),
        ActionSetSequence(2, {"x": b"\2\3"}),
        "ActionSetSequence(length=2, masks={'x': b'\\x01\\x03'})",
        False,
    ),
    "MarkovStrategy": (
        MarkovStrategy(1, 2, MarkovChoices({"x": b"\0\1"}, 2)),
        lambda: MarkovStrategy(player=1, horizon=2, choices={(1, "x"): 0, (2, "x"): 1}),
        MarkovStrategy(2, 2, MarkovChoices({"x": b"\0\1"}, 2)),
        "MarkovStrategy(player=1, horizon=2, "
        "choices=MarkovChoices({'x': b'\\x00\\x01'}, horizon=2))",
        False,
    ),
    "CounterEvaluation": (
        evaluate_counter(make_M(), 3, M_CS),
        lambda: CounterEvaluation(
            value=M_VALUE, _game=make_M(), _strategy=M_CS, _player=1, _horizon=3
        ),
        CounterEvaluation(M_VALUE, make_M(), M_CS, 1, 4),  # hidden fields compare too
        f"CounterEvaluation(value={M_VALUE!r})",
        False,
    ),
    "CheckReport": (
        CheckReport("fib-ratio", {"i": 2}, "pass", {"failures": []}, 0.5),
        lambda: CheckReport(
            name="fib-ratio", params={"i": 2}, verdict="pass", evidence={"failures": []},
            runtime=0.5,
        ),
        CheckReport("fib-ratio", {"i": 2}, "pass", {"failures": []}),
        "CheckReport(name='fib-ratio', params={'i': 2}, verdict='pass', "
        "evidence={'failures': []}, runtime=0.5)",
        False,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_parity(name):
    record, same, other, text, hashes = RECORDS[name]
    equal = same()
    assert repr(record) == text
    assert record == equal and not record != equal
    assert record != other and not record == other
    if hashes:
        assert hash(record) == hash(equal)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assert pickle.loads(pickle.dumps(record)) == equal
    assert pickle.loads(pickle.dumps(equal)) == record


@pytest.mark.parametrize("name", RECORDS)
def test_fields_refuse_assignment(name):
    record = RECORDS[name][0]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == RECORDS[name][3]


def test_cached_properties_are_no_fields():
    g = Game(TWO, "s")
    assert g.terminal_id == "t" and g.by_id["s"] == TWO[1]
    assert g == Game(TWO, "s") and hash(g) == hash(Game(TWO, "s"))
    seq = ActionSetSequence(2, {"x": b"\1\3"})
    assert seq._only == ((0b01, 0),)
    assert seq == ActionSetSequence(2, {"x": b"\1\3"})


def test_each_counter_strategy_gets_its_own_actions():
    a, b = CounterStrategy(0, 1), CounterStrategy(initial=0, period=1)
    assert a.actions == {} and a.actions is not b.actions
    assert a == b and repr(a) == "CounterStrategy(initial=0, period=1, actions={})"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CounterStrategy(-1, 1), "initial memory count must be non-negative"),
        (lambda: CounterStrategy(0, 0), "period must be at least 1"),
        (lambda: CounterStrategy(1, 2, {(3, "x"): 0}), r"memory index 3 out of range 0\.\.2"),
        (lambda: CounterStrategy(1, 2, {(0, "x"): 2}), "arc index must be 0 or 1, got 2"),
        (lambda: CounterStrategy(1, 2, {(0, "x"): 1.0}), "arc index must be 0 or 1, got 1.0"),
        (lambda: CounterStrategy(1, 2, {(0, "x"): True}), "arc index must be 0 or 1, got True"),
        (lambda: Grid(("r", "r", "v"), [1], ["x"], [b"\0"]), "three distinct strings, got "),
        (lambda: Grid(("r", "c"), [1], ["x"], [b"\0"]), "three distinct strings"),
        (lambda: Grid(KEYS, [1], ["x", "y"], [b"\0"]), "^1 cell columns for 2 columns$"),
        (lambda: Grid(KEYS, [1, 2], ["x"], [b"\0"]), "one per row of 2$"),
        (lambda: Grid(KEYS, [1], ["x"], [bytearray(b"\0")]), "each cell column must be bytes"),
        (lambda: Grid(KEYS, [1.0], ["x"], [b"\0"]), "rows must be ints and its columns strings"),
        (lambda: Grid(KEYS, [1], [2], [b"\0"]), "rows must be ints and its columns strings"),
        (lambda: IntervalEnclosure(Fraction(1), Fraction(0)), "enclosure bounds out of order"),
        (lambda: ActionSetSequence(2, {"x": b"\1"}), "^'x' needs 2 masks of 1, 2 or 3$"),
        (lambda: ActionSetSequence(1, {"x": b"\4"}), "^'x' needs 1 masks of 1, 2 or 3$"),
    ],
)
def test_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_enclosures_and_grids_render_as_objects():
    enclosure, grid = RECORDS["IntervalEnclosure"][0], RECORDS["Grid"][0]
    assert not isinstance(enclosure, tuple) and not isinstance(grid, tuple)
    assert str(enclosure) == "[1/3, 1/2]"
    assert jsonable([enclosure]) == [{"lower": "1/3", "upper": "1/2"}]
    assert dumps(enclosure) == '{\n  "lower": "1/3",\n  "upper": "1/2"\n}'
    records = [
        {"remaining": 1, "state": "x", "arc": 0},
        {"remaining": 1, "state": "y", "arc": 1},
        {"remaining": 2, "state": "x", "arc": 1},
        {"remaining": 2, "state": "y", "arc": 1},
    ]
    assert jsonable({"g": grid}) == {"g": records}
    text = dumps({"g": grid})
    assert text.startswith('{\n  "g": [\n    {\n      "remaining": 1,\n      "state": "x",')
    assert text == dumps({"g": records})
