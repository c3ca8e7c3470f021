"""JSON rendering of payloads built from library values.

``jsonable`` turns a payload (dicts, lists, tuples, Dyadic, Fraction,
IntervalEnclosure, keys of any type) into plain JSON data.  ``dumps``
renders such a payload in one pass as exactly the text of
``json.dumps(jsonable(value), indent=2, ensure_ascii=False)``, without
building the converted copy and without the stdlib's generator-based
encoder, which is the only one that can indent.

``Records(keys, rows)``, flat records given as value tuples, is the list
of ``dict(zip(keys, row))`` to ``jsonable``.  ``dumps`` writes it with
no dict per record when each column holds one exact scalar type below:
one ``%`` template per list, each key encoded once, each column mapped
through its renderer.  Other records go one dict per record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Sequence

from .numeric import Dyadic, IntervalEnclosure

__all__ = ["Records", "jsonable", "dumps"]


@dataclass(frozen=True)
class Records:
    """Records with the distinct string ``keys`` (at least one), one
    tuple of values per record in ``rows``."""

    keys: tuple[str, ...]
    rows: Sequence[tuple]

    def __post_init__(self):
        keys = self.keys
        if not keys or len(set(keys)) < len(keys) or any(type(k) is not str for k in keys):
            raise ValueError(f"record keys must be distinct strings, got {keys!r}")


def jsonable(value):
    """Recursively convert report payloads to JSON-safe structures."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Dyadic):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, IntervalEnclosure):
        return {"lower": jsonable(value.lower), "upper": jsonable(value.upper)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Records):
        return [jsonable(dict(zip(value.keys, row, strict=True))) for row in value.rows]
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
    Fraction: lambda value: f'"{value.numerator}/{value.denominator}"',
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
    rows = value.rows
    if not rows:
        out.append("[]")
        return
    columns = []
    for column in zip(*rows, strict=True):
        kinds = set(map(type, column))
        render = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if render is None:  # mixed or nested values: one dict per record
            _write_list([dict(zip(value.keys, row, strict=True)) for row in rows], out, nl)
            return
        columns.append(map(render, column))
    inner = nl + "  "
    heads = (f"{inner}  {encode_basestring(key)}: ".replace("%", "%%") for key in value.keys)
    template = "{" + ",".join(head + "%s" for head in heads) + inner + "}"
    texts = (template % cells for cells in zip(*columns))
    out.append("[" + inner + ("," + inner).join(texts) + nl + "]")
