"""Arena data model.

A game is a multigraph of states, each non-terminal state carrying an
ordered pair of outgoing arcs (duplicate destinations allowed), plus a
single terminal state and a designated start state.  Max states are
controlled by player 1, min states by player 2, and coin states move
uniformly at random between their two arcs.  The objective is reaching
the terminal.

Games are immutable after construction and safe to share across
threads.  The JSON document format round-trips structurally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import GameFormatError, InvalidGameError
from .jsonout import dumps

__all__ = [
    "StateKind",
    "State",
    "Game",
    "Violation",
    "validate",
    "load",
    "store",
]


class StateKind(str, Enum):
    MAX = "max"
    MIN = "min"
    COIN = "coin"
    TERMINAL = "terminal"


PLAYER_KIND = {1: StateKind.MAX, 2: StateKind.MIN}


@dataclass(frozen=True)
class State:
    """One arena state; ``arcs`` is None exactly for the terminal."""

    id: str
    kind: StateKind
    arcs: tuple[str, str] | None = None


@dataclass(frozen=True)
class Game:
    states: tuple[State, ...]
    start: str

    @cached_property
    def by_id(self) -> dict[str, State]:
        return {s.id: s for s in self.states}

    @cached_property
    def terminal_id(self) -> str:
        for s in self.states:
            if s.kind is StateKind.TERMINAL:
                return s.id
        raise InvalidGameError([Violation("terminal-count", None, "no terminal state")])

    def state(self, sid: str) -> State:
        return self.by_id[sid]

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.states)

    def controlled_ids(self, player: int) -> tuple[str, ...]:
        kind = PLAYER_KIND[player]
        return tuple(s.id for s in self.states if s.kind is kind)


@dataclass(frozen=True)
class Violation:
    code: str
    state: str | None
    detail: str

    def __str__(self):
        where = self.state if self.state is not None else "<game>"
        return f"[{self.code}] {where}: {self.detail}"


def validate(g: Game) -> list[Violation]:
    """Check every structural invariant; an empty list means ok."""
    out: list[Violation] = []
    seen: set[str] = set()
    for s in g.states:
        if s.id in seen:
            out.append(Violation("duplicate-id", s.id, "state id declared twice"))
        seen.add(s.id)

    terminals = [s for s in g.states if s.kind is StateKind.TERMINAL]
    if len(terminals) != 1:
        out.append(
            Violation(
                "terminal-count",
                None,
                f"expected exactly one terminal state, found {len(terminals)}",
            )
        )

    for s in g.states:
        if s.kind is StateKind.TERMINAL:
            if s.arcs is not None:
                out.append(Violation("terminal-arcs", s.id, "terminal state has arcs"))
            continue
        if s.arcs is None or len(s.arcs) != 2:
            out.append(
                Violation("arc-count", s.id, "non-terminal state needs exactly two arcs")
            )
            continue
        for dest in s.arcs:
            if dest not in seen:
                out.append(
                    Violation("dangling-destination", s.id, f"arc to unknown id {dest!r}")
                )

    if g.start not in seen:
        out.append(Violation("missing-start", None, f"start id {g.start!r} not declared"))
    return out


# -- document format ----------------------------------------------------
#
# {"start": str, "states": [{"id": str, "kind": "max"|"min"|"coin"|
# "terminal", "arcs": [str, str]}]}, arcs absent for the terminal.
# Canonical output keeps declaration order, two-space indentation, UTF-8.

_KINDS = {k.value: k for k in StateKind}
_FIELDS = frozenset(("id", "kind", "arcs"))


def _format_error(path: str, message: str) -> GameFormatError:
    return GameFormatError(f"{path}: {message}")


def load(text: str) -> Game:
    """Parse and validate a game document, raising on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _format_error("$", "top level must be an object")
    start = doc.get("start")
    if not isinstance(start, str):
        raise _format_error("$.start", "required string field")
    raw_states = doc.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise _format_error("$.states", "required non-empty array")
    unknown = set(doc) - {"start", "states"}
    if unknown:
        raise _format_error("$", f"unknown fields {sorted(unknown)}")

    states = []
    for idx, entry in enumerate(raw_states):
        # the path is formatted only when raising: most documents are valid
        if not isinstance(entry, dict):
            raise _format_error(f"$.states[{idx}]", "must be an object")
        sid = entry.get("id")
        if not isinstance(sid, str) or not sid:
            raise _format_error(f"$.states[{idx}].id", "required non-empty string")
        kind_name = entry.get("kind")
        kind = _KINDS.get(kind_name) if isinstance(kind_name, str) else None
        if kind is None:
            raise _format_error(
                f"$.states[{idx}].kind", f"must be one of {sorted(_KINDS)}, got {kind_name!r}"
            )
        if not _FIELDS.issuperset(entry):
            extra = sorted(set(entry) - _FIELDS)
            raise _format_error(f"$.states[{idx}]", f"unknown fields {extra}")
        arcs = entry.get("arcs")
        if kind is StateKind.TERMINAL:
            if arcs is not None:
                raise _format_error(f"$.states[{idx}].arcs", "terminal state must omit arcs")
        else:
            a, b = arcs if isinstance(arcs, list) and len(arcs) == 2 else (None, None)
            if not (isinstance(a, str) and isinstance(b, str)):
                raise _format_error(f"$.states[{idx}].arcs", "must be an array of two state ids")
            arcs = (a, b)
        states.append(State(sid, kind, arcs))

    g = Game(states=tuple(states), start=start)
    violations = validate(g)
    if violations:
        raise InvalidGameError(violations)
    return g


def store(g: Game) -> str:
    """Canonical document for a game; ``load(store(g)) == g``."""
    doc = {
        "start": g.start,
        "states": [
            {"id": s.id, "kind": s.kind.value}
            | ({"arcs": list(s.arcs)} if s.arcs is not None else {})
            for s in g.states
        ],
    }
    return dumps(doc) + "\n"
