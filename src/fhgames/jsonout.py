"""JSON rendering of payloads built from library values.

``jsonable`` turns a payload (dicts, lists, tuples, Dyadic, Fraction,
IntervalEnclosure, keys of any type) into plain JSON data.  ``dumps``
renders such a payload in one pass as exactly the text of
``json.dumps(jsonable(value), indent=2, ensure_ascii=False)``, without
building the converted copy and without the stdlib's generator-based
encoder, which is the only one that can indent.

``Grid(keys, rows, cols, cells)``, a table of bytes with an int per row
and a str per column, is to ``jsonable`` its records in row-major order,
``{keys[0]: row, keys[1]: col, keys[2]: cell}``.  ``dumps`` writes it
with no Python frame, dict or tuple per record: each column's text is
rendered once per possible cell value, and each row is one join of
those texts picked by the row's bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Sequence

from .numeric import Dyadic, IntervalEnclosure, int_text
from .record import Record

__all__ = ["Grid", "jsonable", "dumps"]


class Grid(Record):
    """Records ``{keys[0]: rows[i], keys[1]: cols[j], keys[2]: cells[j][i]}``
    over i, then j: three distinct string ``keys``, int ``rows``, str
    ``cols`` and per column the bytes of its cells, one per row."""

    __slots__ = _fields = ("keys", "rows", "cols", "cells")

    def __init__(
        self,
        keys: tuple[str, str, str],
        rows: Sequence[int],
        cols: Sequence[str],
        cells: Sequence[bytes],
    ):
        if len(keys) != 3 or any(type(k) is not str for k in keys) or len(set(keys)) < 3:
            raise ValueError(f"grid keys must be three distinct strings, got {keys!r}")
        if len(cells) != len(cols):
            raise ValueError(f"{len(cells)} cell columns for {len(cols)} columns")
        if any(type(c) is not bytes or len(c) != len(rows) for c in cells):
            raise ValueError(f"each cell column must be bytes, one per row of {len(rows)}")
        if set(map(type, rows)) - {int} or set(map(type, cols)) - {str}:
            raise ValueError("grid rows must be ints and its columns strings")
        self._set(keys, rows, cols, cells)


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
    if isinstance(value, Grid):
        return [
            dict(zip(value.keys, (row, col, cells[i])))
            for i, row in enumerate(value.rows)
            for col, cells in zip(value.cols, value.cells)
        ]
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
    elif kind is Grid:
        _write_grid(value, out, nl)
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


def _write_grid(value: Grid, out: list[str], nl: str) -> None:
    rows = value.rows
    if not rows or not value.cols:
        out.append("[]")
        return
    inner = nl + "  "
    pad = inner + "  "
    row_key, col_key, cell_key = map(encode_basestring, value.keys)
    flat = b"".join(value.cells)  # row i is flat[i::len(rows)]
    tails = [f",{pad}{cell_key}: {cell}{inner}}}" for cell in range(max(flat) + 1)]
    texts = [tuple(encode_basestring(col) + tail for tail in tails) for col in value.cols]
    first = len(out)
    for i, row in enumerate(rows):
        head = f",{inner}{{{pad}{row_key}: {row},{pad}{col_key}: "
        out.append(head)
        out.append(head.join(map(tuple.__getitem__, texts, flat[i :: len(rows)])))
    out[first] = "[" + out[first][1:]
    out.append(nl + "]")
