"""JSON rendering of payloads built from library values.

``jsonable`` turns a payload (dicts, lists, tuples, Dyadic, Fraction,
IntervalEnclosure, keys of any type) into plain JSON data.  ``dumps``
renders such a payload in one pass as exactly the text of
``json.dumps(jsonable(value), indent=2, ensure_ascii=False)``, without
building the converted copy and without the stdlib's generator-based
encoder, which is the only one that can indent.

``Records(keys, columns)``, flat records given as one sequence of values
per key, is the list of ``dict(zip(keys, row))`` over ``zip(*columns)``
to ``jsonable``.  ``dumps`` writes it with no dict and no Python frame
per record when each column holds one exact scalar type below: each
distinct value of a column is rendered once, behind its key's encoded
text, and the list is the interleaving of those pieces.  Float columns
are rendered value by value, since ``0.0 == -0.0`` but the two render
differently.  Other records go one dict per record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring
from typing import Sequence

from .numeric import Dyadic, IntervalEnclosure, int_text

__all__ = ["Records", "jsonable", "dumps"]


@dataclass(frozen=True)
class Records:
    """Records with the distinct string ``keys`` (at least one), given
    as ``columns``: per key one sequence (a list, tuple or bytes) of the
    records' values, all of one length.  Record i is the i-th value of
    each column; ``dumps`` renders each distinct value of a scalar
    column once, except in float columns (``0.0 == -0.0``)."""

    keys: tuple[str, ...]
    columns: Sequence[Sequence]

    def __post_init__(self):
        keys = self.keys
        if not keys or len(set(keys)) < len(keys) or any(type(k) is not str for k in keys):
            raise ValueError(f"record keys must be distinct strings, got {keys!r}")
        if len(self.columns) != len(keys):
            raise ValueError(f"{len(self.columns)} columns for {len(keys)} keys")
        if len(set(map(len, self.columns))) > 1:
            raise ValueError("record columns differ in length")


def jsonable(value):
    """Recursively convert report payloads to JSON-safe structures."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Dyadic):
        return str(value)
    if isinstance(value, Fraction):
        return f"{int_text(value.numerator)}/{int_text(value.denominator)}"
    if isinstance(value, IntervalEnclosure):
        return {"lower": jsonable(value.lower), "upper": jsonable(value.upper)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Records):
        return [jsonable(dict(zip(value.keys, row))) for row in zip(*value.columns)]
    return str(value)


def dumps(value) -> str:
    """``json.dumps(jsonable(value), indent=2, ensure_ascii=False)``, fast."""
    out: list[str] = []
    _write(value, out, "\n")
    return "".join(out)


# exact types only; subclasses (StateKind is a str Enum) take _write's
# isinstance branches
_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    float: json.dumps,  # NaN and Infinity as the stdlib writes them
    Dyadic: lambda value: f'"{value}"',
    Fraction: lambda value: f'"{jsonable(value)}"',
}


def _write(value, out: list[str], nl: str) -> None:
    """Append the rendering of ``value``; ``nl`` is its line's newline
    plus indentation, which closing brackets repeat."""
    kind = type(value)
    render = _SCALARS.get(kind)
    if render is not None:
        out.append(render(value))
    elif kind is dict:
        _write_dict(value, out, nl)
    elif kind is list or kind is tuple:
        _write_list(value, out, nl)
    elif kind is Records:
        _write_records(value, out, nl)
    # subclasses of the JSON scalar types as the stdlib encoder writes
    # them; anything else after conversion by jsonable
    elif isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(json.dumps(value))
    else:
        _write(jsonable(value), out, nl)


def _write_dict(value: dict, out: list[str], nl: str) -> None:
    if not value:
        out.append("{}")
        return
    mark = len(out)
    inner = nl + "  "
    sep = "{" + inner
    for key, item in value.items():
        if type(key) is not str:
            # jsonable keys by str(k), and distinct keys may collide there
            del out[mark:]
            _write_dict({str(k): v for k, v in value.items()}, out, nl)
            return
        render = _SCALARS.get(type(item))
        if render is None:
            out.append(f"{sep}{encode_basestring(key)}: ")
            _write(item, out, inner)
        else:
            out.append(f"{sep}{encode_basestring(key)}: {render(item)}")
        sep = "," + inner
    out.append(nl + "}")


def _write_list(value, out: list[str], nl: str) -> None:
    if not value:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for item in value:
        render = _SCALARS.get(type(item))
        if render is None:
            out.append(sep)
            _write(item, out, inner)
        else:
            out.append(sep + render(item))
        sep = "," + inner
    out.append(nl + "]")


def _write_records(value: Records, out: list[str], nl: str) -> None:
    columns = value.columns
    if not columns[0]:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "{" + inner + "  "
    pieces = []
    for key, column in zip(value.keys, columns):
        kinds = set(map(type, column))
        render = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if render is None:  # mixed or nested values: one dict per record
            rows = [dict(zip(value.keys, row)) for row in zip(*columns)]
            _write_list(rows, out, nl)
            return
        head = f"{sep}{encode_basestring(key)}: "
        if render is json.dumps:  # equal floats 0.0 and -0.0 render apart
            pieces.append(map(head.__add__, map(render, column)))
        else:
            texts = {v: head + render(v) for v in set(column)}
            pieces.append(map(texts.__getitem__, column))
        sep = "," + inner + "  "
    out.append("[" + inner)
    out.extend(chain.from_iterable(zip(*pieces, repeat(inner + "}," + inner))))
    out[-1] = inner + "}" + nl + "]"
