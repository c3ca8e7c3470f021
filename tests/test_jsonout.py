"""The direct JSON writer against the stdlib rendering it replaced."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_dumps
from fhgames.game import StateKind
from fhgames.jsonout import Grid, dumps, jsonable
from fhgames.numeric import Dyadic, IntervalEnclosure

class Count(int):
    """An int subclass whose str() is not its JSON rendering."""

    def __str__(self):
        return f"Count({int(self)})"

    __repr__ = __str__


class Weight(float):
    """A float subclass whose str() is not its JSON rendering."""

    def __str__(self):
        return f"Weight({float(self)})"

    __repr__ = __str__


texts = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀'),
        st.characters(),
    ),
    max_size=8,
)
fractions = st.fractions(max_denominator=10**6)
scalar_kinds = [
    texts,
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),  # NaN, infinities and -0.0 included
    st.builds(Dyadic, st.integers(), st.integers(0, 80)),
    fractions,
    st.tuples(fractions, fractions).map(
        lambda pair: IntervalEnclosure(min(pair), max(pair))
    ),
    st.sampled_from(StateKind),
    st.integers().map(Count),
    st.floats().map(Weight),
]
scalars = st.one_of(*scalar_kinds)
keys = st.one_of(
    texts,
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(0, 2), texts),
    st.sampled_from(StateKind),
    st.sampled_from(["0", "1", "True", "None", "StateKind.MAX"]),  # str(k) collisions
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)


@given(values)
@settings(max_examples=500, deadline=None)
def test_matches_the_stdlib_rendering(value):
    assert dumps(value) == reference_dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [{}, [[]]]},
        StateKind.MAX,
        {StateKind.COIN: StateKind.MIN},
        {1: "int key", "1": "str key", None: "none key"},
        {"s": [Dyadic(3, 2), Fraction(-1, 3), IntervalEnclosure(Fraction(1), Fraction(2))]},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, True, False, None],
        {(1, "x"): [("nested", ("tuple",))]},
    ],
)
def test_fixed_cases(value):
    assert dumps(value) == reference_dumps(value)


def test_subclass_renders_its_value_not_its_str():
    assert str(StateKind.MAX) == "StateKind.MAX"
    assert dumps([StateKind.MAX]) == '[\n  "max"\n]'


# keys that a %-template would read as directives if left unescaped
PERCENT_KEYS = ["%", "%s", "%%", "%%s", "a%(b)s", "%d%"]
# grid ids: text that JSON escapes, %-directives and non-ASCII text
ids = st.text(
    st.one_of(st.sampled_from('%"\\/\x00\x1f\n\x7fsé😀'), st.characters()), max_size=6
)
# ints past the default int-to-str digit limit (4300 digits)
HUGE = [3**20000, -(10**5000)]


@st.composite
def grids(draw):
    """Grids with %-directive keys, ids that JSON escapes or writes as
    they are, rows from a range or a list (ints past the int-to-str
    digit limit included) and cells of any byte value."""
    keys = draw(st.lists(ids, min_size=3, max_size=3, unique=True))
    percent = draw(st.sampled_from(PERCENT_KEYS))
    if percent not in keys:
        keys[draw(st.integers(0, 2))] = percent
    rows = draw(
        st.one_of(
            st.builds(range, st.integers(-3, 3), st.integers(-3, 6), st.sampled_from([1, 2, -1])),
            st.lists(st.one_of(st.integers(), st.sampled_from(HUGE)), max_size=5),
        )
    )
    cols = draw(st.lists(ids, max_size=4))
    cells = [draw(st.binary(min_size=len(rows), max_size=len(rows))) for _ in cols]
    return Grid(tuple(keys), rows, cols, cells)


payloads = st.recursive(
    st.one_of(scalars, grids()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)


@given(payloads)
@settings(max_examples=500, deadline=None)
def test_grid_matches_the_stdlib_rendering(value):
    # with the int-to-str digit limit lifted, as the CLI writes
    assert _at_digit_limit(0, lambda: dumps(value) == reference_dumps(value))


@pytest.mark.parametrize(
    "value",
    [
        Grid(("a", "b", "c"), range(1, 1), ["x", "y"], [b"", b""]),
        {"empty": Grid(("%s", "b", "c"), range(1, 4), [], [])},
        Grid(("%", "%s", "%%"), [1, 2], ["x", "%s"], [b"\0\1", b"\1\0"]),
        Grid(
            ("t", "id", "arc"),
            range(1, 4),
            ['a"%s', "b\\é", "c😀%"],
            [b"\0\1\0", b"\1" * 3, bytes(3)],
        ),
        # every byte value, rising in one column and falling in the other
        Grid(
            ("r", "c", "v"),
            range(256),
            ["up", "down"],
            [bytes(range(256)), bytes(range(255, -1, -1))],
        ),
        {"a": [{"b": Grid(("r", "c", "v"), [7], ["x"], [b"\x05"])}, []]},
        Grid(("r", "c", "v"), [-1, 0, 10**30, -1], ["x"], [b"\0\1\2\3"]),
        Grid(
            ("r", "c", "v"), range(10, 0, -3), ["\x00", "\n", "\x7f", "", "é", "😀"], [bytes(4)] * 6
        ),
        [Grid(("r", "c", "v"), [1], ["x"], [b"\xff"]), Grid(("r", "c", "v"), [], [], [])],
    ],
)
def test_grid_fixed_cases(value):
    assert dumps(value) == reference_dumps(value)


def test_grid_rows_past_the_int_digit_limit():
    grid = {"g": Grid(("r", "c", "v"), [*HUGE, 1], ["x", "y"], [b"\0\1\0", b"\1\0\1"])}
    for render in (dumps, reference_dumps):
        with pytest.raises(ValueError):
            _at_digit_limit(4300, lambda: render(grid))  # the default limit
    text = _at_digit_limit(0, lambda: dumps(grid))
    assert text == _at_digit_limit(0, lambda: reference_dumps(grid))
    assert _at_digit_limit(0, lambda: f'"r": {-(10**5000)},') in text


def test_grid_is_a_list_of_dicts_to_jsonable():
    grid = Grid(("t", "s", "a"), range(1, 3), ["x", "y"], [b"\0\1", b"\1\0"])
    assert jsonable(grid) == [
        {"t": 1, "s": "x", "a": 0},
        {"t": 1, "s": "y", "a": 1},
        {"t": 2, "s": "x", "a": 1},
        {"t": 2, "s": "y", "a": 0},
    ]


@pytest.mark.parametrize(
    "keys",
    [(), ("a", "a", "b"), ("a", 1, "b"), (StateKind.MAX, "a", "b"), ("a", "b"), tuple("abcd")],
)
def test_grid_needs_distinct_string_keys(keys):
    with pytest.raises(ValueError, match="three distinct strings"):
        Grid(keys, [1], ["x"], [b"\0"])


def test_grid_columns_must_match_the_keys():
    for rows, cols, cells in (
        ([1], ["x"], []),
        ([1], ["x"], [b"\0", b"\0"]),
        ([1], [], [b"\0"]),
        ([1, 2], ["x"], [b"\0"]),
        ([1], ["x", "y"], [b"\0", b""]),
        (range(0), ["x"], [b"\0"]),
        ([1], ["x"], [[0]]),
        ([1], ["x"], [bytearray(1)]),
        ([1], ["x"], ["\0"]),
    ):
        with pytest.raises(ValueError, match="cell column"):
            Grid(("r", "c", "v"), rows, cols, cells)


@pytest.mark.parametrize(
    "rows, cols",
    [([True], ["x"]), ([1.0], ["x"]), ([Count(1)], ["x"]), ([None], ["x"]),
     ([1], [1]), ([1], [StateKind.MAX]), ([1], [None]), ([1], [b"x"])],
)
def test_grid_rows_are_ints_and_columns_strings(rows, cols):
    with pytest.raises(ValueError, match="rows must be ints"):
        Grid(("r", "c", "v"), rows, cols, [bytes(len(rows))] * len(cols))


def _at_digit_limit(limit, render):
    """render() with the int-to-str digit limit set to ``limit`` (0: none)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return render()
    finally:
        sys.set_int_max_str_digits(saved)


def test_numbers_past_the_int_digit_limit_render_as_str_without_it():
    big = 3**20000  # 9,543 digits; 3**9000 has 4,295, 2**20000 6,021
    with pytest.raises(ValueError):
        _at_digit_limit(4300, lambda: str(big))  # the default limit
    dyadics = [Dyadic(3**9000, 20000), Dyadic(big, 20000), Dyadic(-big)]
    values = [*dyadics, Fraction(3**9000, 2**20000)]

    def render():
        out = (
            [str(v) for v in dyadics],
            [repr(v) for v in dyadics],
            jsonable(values),
            dumps(values),
        )
        return out, sys.get_int_max_str_digits()

    at_default, limit = _at_digit_limit(4300, render)
    assert limit == 4300  # rendering left the limit as it was
    lifted, _ = _at_digit_limit(0, render)
    assert at_default == lifted

    def expected():
        texts = [f"{3**9000}/2^20000", f"{big}/2^20000", f"-{big}"]
        reprs = [f"Dyadic({3**9000}, 20000)", f"Dyadic({big}, 20000)", f"Dyadic({-big}, 0)"]
        return texts, reprs, [*texts, f"{3**9000}/{2**20000}"]

    assert lifted[:3] == _at_digit_limit(0, expected)


def test_enclosures_past_the_int_digit_limit_render_as_str_without_it():
    big = 3**20000
    enclosures = [
        IntervalEnclosure(Fraction(1, 2**20000), Fraction(1)),
        IntervalEnclosure(Fraction(-big), Fraction(big, 7)),
        IntervalEnclosure(Fraction(-3, 4), Fraction(5, 2)),
    ]
    with pytest.raises(ValueError):
        _at_digit_limit(4300, lambda: str(enclosures[0].lower))  # Fraction's own str

    def render():
        return [str(e) for e in enclosures], sys.get_int_max_str_digits()

    at_default, limit = _at_digit_limit(4300, render)
    assert limit == 4300  # rendering left the limit as it was
    lifted, _ = _at_digit_limit(0, render)
    assert at_default == lifted
    # Fraction's own form: n when the denominator is 1, otherwise n/d
    expected = _at_digit_limit(0, lambda: [f"[{e.lower}, {e.upper}]" for e in enclosures])
    assert lifted == expected
    assert lifted[2] == "[-3/4, 5/2]"
