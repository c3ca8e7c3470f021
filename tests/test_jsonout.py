"""The direct JSON writer against the stdlib rendering it replaced."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_dumps
from fhgames.game import StateKind
from fhgames.jsonout import Records, dumps, jsonable
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


@st.composite
def records(draw, children):
    """Records whose columns each draw from one scalar kind (rendered
    per distinct value) or from nested payloads (one dict per record),
    drawn one tuple per record and transposed into columns."""
    keys = draw(st.lists(texts, max_size=3, unique=True))
    percent = draw(st.sampled_from(PERCENT_KEYS))
    if percent not in keys:
        keys.insert(draw(st.integers(0, len(keys))), percent)
    kinds = [draw(st.sampled_from([*scalar_kinds, scalars, children])) for _ in keys]
    rows = draw(st.lists(st.tuples(*kinds), max_size=5))
    columns = tuple(zip(*rows)) if rows else ((),) * len(keys)
    return Records(tuple(keys), columns)


payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        records(children),
    ),
    max_leaves=30,
)


@given(payloads)
@settings(max_examples=500, deadline=None)
def test_records_match_the_stdlib_rendering(value):
    assert dumps(value) == reference_dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        Records(("a",), ((),)),
        {"empty": Records(("%s", "b"), ((), ()))},
        Records(("%", "%s", "%%"), ([1, 2], ["x", "%s"], [None, True])),
        Records(("t", "id"), ([1, 2, 3], ['a"%s', "b\\é", "c😀%"])),
        Records(("mixed",), ([1, "1", True, StateKind.MAX],)),
        [Records(("v",), ([[Records(("w",), ([Dyadic(1, 2)],))]],))],
        # equal floats that render apart: no rendering per distinct value
        Records(("x",), ([0.0, -0.0],)),
        Records(("x",), ([-0.0, 0.0],)),
    ],
)
def test_records_fixed_cases(value):
    assert dumps(value) == reference_dumps(value)


def test_records_are_a_list_of_dicts_to_jsonable():
    columns = ([1, 2], ("x", "y"), b"\0\1")
    assert jsonable(Records(("t", "s", "a"), columns)) == [
        {"t": 1, "s": "x", "a": 0},
        {"t": 2, "s": "y", "a": 1},
    ]


@pytest.mark.parametrize("keys", [(), ("a", "a"), ("a", 1), (StateKind.MAX,)])
def test_records_need_distinct_string_keys(keys):
    with pytest.raises(ValueError, match="distinct strings"):
        Records(keys, ((),) * len(keys))


def test_records_columns_must_match_the_keys():
    for keys, columns in (
        (("a",), ([1], [2])),
        (("a", "b"), ([1],)),
        (("a",), ([1], [[2]])),
        (("a", "b"), ([1, 1], [2])),
        (("a", "b"), (b"\0\1", ())),
    ):
        with pytest.raises(ValueError, match="columns"):
            Records(keys, columns)


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
            dumps(Records(("v",), (values,))),
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
