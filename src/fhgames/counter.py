"""Counter strategies: rho-shaped memory automata over elapsed time.

A counter strategy has N "initial" memories used exactly once and p
"periodic" memories reused cyclically; the memory trajectory from 0 is

    0, 1, ..., N+p-1, N, N+1, ..., N+p-1, N, ...

and advances on every pebble move regardless of the observed state.
Strategies over elapsed time and the solver's remaining-time tables are
interconverted here (elapsed t corresponds to remaining T - t).

One search finds the smallest automaton: minimal_period, over a given
non-empty set of optimal arcs per state and elapsed step, picks SOME
arc of every set.  from_markov is its singleton case: a Markov
strategy's arc bytes as one-arc sets, so the automaton found reproduces
the strategy exactly.  to_markov unrolls an automaton back into arc
bytes.

Minimality is measured by the total memory-state count N + p
(CounterStrategy.size; its space in bits, CounterStrategy.bits, is
ceil(log2(N + p))), with ties broken towards the smaller period.

The solver's ActionSetSequence holds one player's optimal action sets:
per controlled state (a key of its masks), bytes of arc masks (1 = arc
0, 2 = arc 1, 3 = both) in elapsed time, as optimal_action_sets returns
them.  Period search runs on bitsets derived from each row by a
translation: only0/only1, whose bit t is set when only arc 0 / only arc
1 is optimal at elapsed t.  For a period p, with
later_b = OR over k >= 1 of (only_b >> k*p), the least initial count is

    N(p) = max over states of bit_length((only0 & later1) | (only1 & later0)),

one past the latest step whose lone optimal arc a later step of its
residue class contradicts.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import StrategyError
from .record import Record
from .solver import ActionSetSequence, MarkovChoices, MarkovStrategy

__all__ = [
    "CounterStrategy",
    "PeriodResult",
    "from_markov",
    "to_markov",
    "minimal_period",
    "least_initial_for_period",
]


class CounterStrategy(Record):
    """Action map of a rho-shaped counter automaton.

    ``actions[(m, sid)]``, the int 0 or 1, is the arc chosen at state
    ``sid`` while the memory is ``m``; the update function is
    state-independent.  ``actions`` is a read-only view of the
    strategy's own copy of the mapping given, checked once.
    """

    __slots__ = _fields = ("initial", "period", "actions")

    def __init__(
        self, initial: int, period: int, actions: Mapping[tuple[int, str], int] | None = None
    ):
        if initial < 0:
            raise ValueError("initial memory count must be non-negative")
        if period < 1:
            raise ValueError("period must be at least 1")
        size = initial + period
        actions = dict(actions or ())
        for (m, sid), arc in actions.items():
            if not 0 <= m < size:
                raise ValueError(f"memory index {m} out of range 0..{size - 1}")
            if type(arc) is not int or arc not in (0, 1):
                raise ValueError(f"arc index must be 0 or 1, got {arc!r}")
        self._set(initial, period, MappingProxyType(actions))

    def __repr__(self) -> str:
        shown = f"initial={self.initial!r}, period={self.period!r}, actions={dict(self.actions)!r}"
        return f"CounterStrategy({shown})"

    def __reduce__(self):
        return CounterStrategy, (self.initial, self.period, dict(self.actions))

    @property
    def size(self) -> int:
        return self.initial + self.period

    @property
    def bits(self) -> int:
        """The memory in bits, ceil(log2(size))."""
        return (self.size - 1).bit_length()

    def memory_at(self, t: int) -> int:
        """Memory after t traversals (the rho trajectory)."""
        if t < self.size:
            return t
        return self.initial + (t - self.initial) % self.period

    def trajectory(self, length: int) -> list[int]:
        """Memories after 0..length-1 traversals: memory_at over a range."""
        head = list(range(min(self.size, length)))
        laps = -(-(length - len(head)) // self.period)
        return (head + list(range(self.initial, self.size)) * laps)[:length]

    def arc_rows(self, ids: Iterable[str], horizon: int) -> dict[str, bytes]:
        """Per state of ``ids``, the automaton unrolled into the solver's
        arc bytes: byte t - 1 is the arc at remaining time t in
        1..horizon, that of the memory held after horizon - t traversals,
        or 2 where that memory has no action at the state."""
        memories = self.trajectory(horizon)[::-1]
        rows = {}
        for sid in ids:
            arcs = bytes(self.actions.get((m, sid), 2) for m in range(self.size))
            rows[sid] = bytes(map(arcs.__getitem__, memories))
        return rows

    def action_at(self, t: int, sid: str) -> int:
        """Arc at state ``sid`` after t traversals; StrategyError if the
        memory held then has no action there."""
        m = self.memory_at(t)
        try:
            return self.actions[(m, sid)]
        except KeyError:
            raise StrategyError(
                f"counter strategy has no action for memory {m}, state {sid!r}"
            ) from None

    def to_json_obj(self) -> dict:
        return {
            "N": self.initial,
            "p": self.period,
            "actions": [
                {"memory": m, "state": sid, "arc": arc}
                for (m, sid), arc in sorted(self.actions.items())
            ],
        }


def to_markov(cs: CounterStrategy, horizon: int, player: int = 1) -> MarkovStrategy:
    """Unrolled view of a counter strategy as a remaining-time strategy:
    its arc_rows over the states it has actions for, in sorted order.
    The first (elapsed step, state) whose memory has no action there
    raises StrategyError; the walk meets memory m first after m
    traversals."""
    ids = sorted({sid for _, sid in cs.actions})
    for m in range(min(cs.size, horizon)):
        for sid in ids:
            if (m, sid) not in cs.actions:
                cs.action_at(m, sid)  # raises
    return MarkovStrategy(player, horizon, MarkovChoices(cs.arc_rows(ids, horizon), horizon))


class PeriodResult(NamedTuple):
    """The smallest automaton found, and ``initials[p - 1]``, the least
    initial count N(p), for every period p = 1..len(initials) tried
    (left out of the repr)."""

    initial: int
    period: int
    witness: CounterStrategy
    initials: tuple[int, ...] = ()

    def __repr__(self) -> str:
        shown = f"initial={self.initial!r}, period={self.period!r}, witness={self.witness!r}"
        return f"PeriodResult({shown})"


def least_initial_for_period(seq: ActionSetSequence, period: int) -> int:
    """Smallest N such that, for every state and residue class mod the
    period, the sets at elapsed steps >= N in that class intersect.

    A class's sets fail to intersect from step t on exactly when a step
    t' >= t in it allows only arc 0 and another only arc 1, so N is the
    bitset formula of the module docstring.  later_b is built by
    doubling the shift span, in O(log length) big-int operations per
    state.
    """
    if period < 1:
        raise ValueError("period must be at least 1")
    need = 0
    length = seq.length
    for only0, only1 in seq._only:
        later0 = only0 >> period
        later1 = only1 >> period
        span = period
        while span < length:
            later0 |= later0 >> span
            later1 |= later1 >> span
            span <<= 1
        need = max(need, ((only0 & later1) | (only1 & later0)).bit_length())
    return need


def _witness(seq: ActionSetSequence, n: int, p: int) -> CounterStrategy:
    """Initial memory m takes arc 1 iff step m allows only arc 1, periodic
    memory m iff a step of its class does: an arc in all of the class's sets."""
    actions = {}
    for sid, row in seq.masks.items():
        for m in range(n):
            actions[(m, sid)] = int(row[m] == 2)
        for m in range(n, n + p):
            actions[(m, sid)] = int(2 in row[m::p])
    return CounterStrategy(initial=n, period=p, actions=actions)


def minimal_period(seq: ActionSetSequence) -> PeriodResult:
    """Smallest counter automaton compatible with every given set.

    Feasibility of (N, p): for each controlled state and each residue
    class mod p, the sets at elapsed steps >= N in the class have a
    common arc; steps below N take any in-set arc.  Among feasible
    pairs, N + p is minimised and ties go to the smaller period.  The
    degenerate solution p = 1, N = length - 1 is always feasible, so a
    result exists; small periods win only when the cyclic part truly
    repeats.
    """
    if seq.length == 0 or not seq.masks:
        return PeriodResult(0, 1, CounterStrategy(0, 1, {}))
    best: tuple[int, int, int] | None = None  # (total, period, initial)
    initials = []
    for p in range(1, seq.length + 1):
        if best is not None and p >= best[0]:
            break  # total >= period, so larger periods cannot win
        n = least_initial_for_period(seq, p)
        initials.append(n)
        if best is None or n + p < best[0]:
            best = (n + p, p, n)
    _, p, n = best
    return PeriodResult(
        initial=n, period=p, witness=_witness(seq, n, p), initials=tuple(initials)
    )


_AS_MASK = bytes.maketrans(b"\0\1", b"\1\2")  # arc -> the mask of its singleton set


def from_markov(strategy: MarkovStrategy) -> CounterStrategy:
    """Minimal counter strategy replaying a Markov strategy exactly.

    Each state's arc bytes are read as singleton action sets (mask
    1 + arc) in elapsed time, one reversed translate per state; a
    residue class's sets intersect exactly when its arcs agree, so
    minimal_period finds the smallest automaton, and its witness replays
    the strategy over 0..T-1.
    """
    masks = {sid: r.translate(_AS_MASK)[::-1] for sid, r in sorted(strategy.choices.rows.items())}
    return minimal_period(ActionSetSequence(strategy.horizon, masks)).witness
