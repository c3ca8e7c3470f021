"""Exact backward induction for finite-horizon games.

Horizon semantics: the value of state s at horizon t is the optimal
probability of reaching the terminal within at most t arc traversals
starting from s.  The recurrence is

    v[0][s]   = 1 if s is terminal else 0
    v[t][bot] = 1
    v[t][s]   = avg / max / min of v[t-1] at the two arc destinations

for coin / max / min states respectively.  All values are dyadic
rationals and the denominator exponent of v[t][s] never exceeds t.

The kernel therefore keeps row t as plain ints on the common scale
2^t, M[t][i] = v[t][i] * 2^t, one per state position, and the updates
are integer ones:

    coin      M[t][i] = A + B
    max/min   M[t][i] = max(A, B) << 1  /  min(A, B) << 1
    fixed     M[t][i] = (A if arc == 0 else B) << 1
    terminal  M[t][i] = 1 << t

with A, B the entries of row t-1 at the two arc destinations.  Dyadic
values are built only for the rows a caller asks for, as Dyadic(M, t),
whose exponent is at most t by construction; 0 and 1 are the shared
ZERO and ONE.  The loop also writes the optimal action sets, as the one
form every reader uses: per optimising state, one mask byte per t.
optimal_action_sets hands them out reversed to elapsed time, as one
ActionSetSequence per player; markov_arcs breaks their ties into one
arc byte per t and state, which extract_markov keys by (t, state id)
and the CLI's strategy command renders as they are.

Every value row of a game comes from values_at, which refuses with
GuardExceeded to keep more than CELL_CAP cells (rows kept times
states) before it sweeps; a full table is values_at(g, range(T + 1)).
final_values and evaluate_fixed_final keep the row at the horizon.
Action-set tables are capped the same way.

Strategies are indexed by REMAINING moves: a Markov strategy maps
(t, state) with t in 1..T to an arc.  Counter strategies advance their
memory on every traversal regardless of the observed state; they are
defined on the product of memory and game state, where a backward
induction best response for the opponent is optimal among all
history-dependent responses.  Memory after k traversals depends on k
alone, so the product cells the value at (memory 0, start) reads at
remaining time t all hold one memory, the automaton's after T - t
traversals.  One sweep of the game whose controlled states take, at
each t, that memory's arcs (the sweep's layers) therefore evaluates the
strategy without building the product: its value from two rows of the
start's sub-arena (Game.reachable), uncapped, and its rows, those cells
of the whole game at every t, capped as a full table.  counter_bound
sweeps the same layers with the slots a partial strategy leaves unset
free to the maximiser, which bounds every completion from above.  Every
other function here sweeps the whole game.

Settled states.  When every step uses the same arcs (no fixed
strategy, at most one layer: a plain sweep, a memoryless strategy
played as Game.fix's game, or a one-memory counter), values never
decrease as t grows.  So the set of states at 0 only shrinks, the set
at 1 only grows, and each is a function of the previous step's: equal
counts at steps t - 1 and t (scaled: of 0 and of 1 << t) mean equal
sets, fixed from t - 1 on.
From then on a state at 0 or 1 stays there, and so does its mask byte
of step t: it has a settled successor, and every comparison with a
settled value is decided by the sets.  _sweep therefore re-indexes
once, after the first step t < horizon whose counts repeat the step
before's: states at 1 share the terminals' slot, states at 0 one slot
that reads itself, only the live states keep their ops, and a settled
state's recorded mask byte of step t is repeated to the horizon.  If
no state is live the later rows are known and the loop ends there.

All functions are pure; independent solves can run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol, Sequence

from .errors import GuardExceeded, StrategyError
from .game import Game, StateKind, PLAYER_KIND
from .numeric import Dyadic, ONE, ZERO

if TYPE_CHECKING:  # pragma: no cover
    from .counter import CounterStrategy

__all__ = [
    "CELL_CAP",
    "ActionSetSequence",
    "MarkovStrategy",
    "CounterEvaluation",
    "final_values",
    "values_at",
    "optimal_action_sets",
    "markov_arcs",
    "extract_markov",
    "evaluate_fixed_final",
    "evaluate_counter",
    "counter_bound",
]


CELL_CAP = 5_000_000
"""Most value cells, rows kept times states, that one call may hold."""


class Strategy(Protocol):
    player: int

    def action(self, t: int, sid: str) -> int: ...


@dataclass(frozen=True)
class ActionSetSequence:
    """One player's optimal action sets in elapsed time.

    The player's states are the keys of ``masks``, in their order, and
    ``masks[sid][t]`` is the mask over arcs (bit 0 = arc 0, bit 1 =
    arc 1) of the set at elapsed step t in 0..length-1: 1, 2 or 3 (both
    arcs: their successor values tie).  Carrying the full sets (rather
    than one tie-broken choice) is what allows period and memory
    analyses to quantify over every optimal strategy.
    """

    length: int
    masks: dict[str, bytes]
    _DIGITS = (bytes.maketrans(b"\1\2\3", b"100"), bytes.maketrans(b"\1\2\3", b"010"))

    def __post_init__(self):
        for sid, row in self.masks.items():
            if len(row) != self.length or row.translate(None, b"\1\2\3"):
                raise ValueError(f"{sid!r} needs {self.length} masks of 1, 2 or 3")

    @cached_property
    def _only(self) -> tuple[tuple[int, int], ...]:
        """Per state (only0, only1), the period search's bitsets (see the
        counter module), built on first read: a caller may read one
        player's sequence only."""
        only = []
        for row in self.masks.values():
            digits = row[::-1]  # elapsed t is the digit of weight 2^t; b"0" if empty
            only.append(tuple(int(digits.translate(d) or b"0", 2) for d in self._DIGITS))
        return tuple(only)


@dataclass(frozen=True)
class MarkovStrategy:
    """One arc choice per (remaining moves, controlled state)."""

    player: int
    horizon: int
    choices: dict[tuple[int, str], int]

    def action(self, t: int, sid: str) -> int:
        try:
            return self.choices[(t, sid)]
        except KeyError:
            raise StrategyError(
                f"markov strategy (player {self.player}) has no entry for "
                f"t={t}, state {sid!r}"
            ) from None


@dataclass(frozen=True)
class CounterEvaluation:
    """Result of evaluating a counter strategy.

    ``value`` is computed up front.  ``rows``, built on first read and
    cached, keeps the value's sweep at every t: rows[t] holds the product
    cells the value reads at remaining time t, keyed (memory held after
    horizon - t traversals, state id).
    """

    value: Dyadic
    _game: Game = field(repr=False)
    _strategy: "CounterStrategy" = field(repr=False)
    _player: int = field(repr=False)
    _horizon: int = field(repr=False)

    @cached_property
    def rows(self) -> tuple[dict[tuple[int, str], Dyadic], ...]:
        g, cs, horizon = self._game, self._strategy, self._horizon
        _guard_cells(horizon + 1, len(g.states))
        layers = _counter_layers(g, horizon, cs, self._player, free=False)
        rows = _sweep(g.states, horizon, range(horizon + 1), layers=layers)
        return tuple(
            {(cs.memory_at(horizon - t), sid): v for sid, v in row.items()}
            for t, row in rows.items()
        )


def _sweep(
    states: Sequence[tuple],
    horizon: int,
    checkpoints: Iterable[int] = (),
    fixed: tuple[StateKind, Callable[[int, str], int]] | None = None,
    sets: dict | None = None,
    layers: tuple[Sequence[Mapping[str, int]], Sequence[int]] | None = None,
    ids: Sequence[str] | None = None,
) -> dict[int, dict]:
    """The induction loop over a game's ``states``, or any (id, kind, arcs) entries.

    Returns a dict from each requested checkpoint horizon, in 0..horizon
    and in increasing order, to its row.  Rows are built as Dyadic dicts
    only for those horizons, over the state ``ids`` in their order
    (default: every entry's, in order); the loop itself keeps one list
    of scaled ints per t (see the module docstring).  A ``sets`` dict
    from optimising state ids to bytearrays gets each of those states'
    mask per t appended; other states' masks are not recorded.

    ``layers`` = (overrides, memories) sets optimising states' arcs per
    step: at remaining time t, each state that overrides[memories[t - 1]]
    maps to an arc has both arcs on that arc's destination, as on a
    counter strategy's memory product; the other states keep both arcs.
    Without layers every step uses the entries' own arcs.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    wanted = set(checkpoints)
    fixed_kind, choose = fixed if fixed is not None else (None, None)
    # Index form.  Row positions run coins, optimising states, fixed
    # states, then one slot that every terminal shares, so each row is
    # built by appending in that order.
    coins, players, chosen, terminals = [], [], [], []
    for entry in states:
        sid, kind, arcs = entry
        if arcs is None:
            terminals.append(entry)
        elif kind is StateKind.COIN:
            coins.append(entry)
        elif kind is fixed_kind:
            chosen.append(entry)
        else:
            players.append(entry)
    pos = {sid: i for i, (sid, _, _) in enumerate(coins + players + chosen)}
    top = len(pos)
    pos.update((sid, top) for sid, _, _ in terminals)
    coin_ops = [(pos[a], pos[b]) for _, _, (a, b) in coins]
    sets = {} if sets is None else sets
    player_ops = [
        (kind is StateKind.MAX, pos[a], pos[b], sets[sid].append if sid in sets else None)
        for sid, kind, (a, b) in players
    ]
    steps = repeat(player_ops)
    one_layer = True
    if layers is not None:
        overrides, memories = layers
        resolved = {}
        for m in set(memories):  # only the memories some step holds
            ops = resolved[m] = []
            for (sid, _, _), (is_max, a, b, record) in zip(players, player_ops):
                arc = overrides[m].get(sid)
                if arc is not None:
                    a = b = (a, b)[arc]
                ops.append((is_max, a, b, record))
        steps = map(resolved.__getitem__, memories)
        one_layer = len(resolved) <= 1
    fixed_ops = [(sid, pos[a], pos[b]) for sid, _, (a, b) in chosen]
    if ids is None:
        ids = [sid for sid, _, _ in states]
    where = [(sid, pos[sid]) for sid in ids]

    def dyadic_row(row: list[int], t: int) -> dict:
        one = 1 << t
        return {
            sid: ZERO if (m := row[i]) == 0 else ONE if m == one else Dyadic(m, t)
            for sid, i in where
        }

    row = [0] * top + [1]
    snapshots: dict[int, dict] = {}
    if 0 in wanted:
        snapshots[0] = dyadic_row(row, 0)
    # With the same arcs at every step, states settle at the first step
    # whose counts of 0s and 1s repeat (see the module docstring).
    settle = fixed is None and one_layer
    counts = (top, 1)  # row 0's
    t = 0
    while t < horizon:
        for t, ops in zip(range(t + 1, horizon + 1), steps):
            prev = row
            row = [prev[a] + prev[b] for a, b in coin_ops]
            for is_max, a, b, record in ops:
                va = prev[a]
                vb = prev[b]
                if va == vb:
                    mask = 3
                elif (va > vb) == is_max:
                    mask = 1
                else:
                    mask = 2
                    va = vb
                if record is not None:
                    record(mask)
                row.append(va << 1)
            for sid, a, b in fixed_ops:
                arc = choose(t, sid)
                if arc not in (0, 1):
                    raise StrategyError(f"arc index {arc!r} at t={t}, state {sid!r}")
                row.append((prev[a] if arc == 0 else prev[b]) << 1)
            row.append(1 << t)
            if t in wanted:
                snapshots[t] = dyadic_row(row, t)
            if settle:
                before, counts = counts, (row.count(0), row.count(1 << t))
                if counts == before:
                    break
        if t < horizon:
            # Settle: the states at 1 join the terminals' slot, those at 0
            # share one slot that reads itself, and neither is swept again;
            # an optimising one's mask byte of this step is its last.
            settle = False
            one = 1 << t
            kind = [0 if 0 < v < one else 1 if v == one else 2 for v in row]
            nc = len(coin_ops)
            for (_, _, _, record), k in zip(ops, kind[nc:]):
                if k and record is not None:
                    masks = record.__self__  # the bytearray record appends to
                    masks += masks[-1:] * (horizon - t)
            if 0 not in kind:  # every later row is this one, scaled
                last = dyadic_row(row, t)
                snapshots.update((u, dict(last)) for u in sorted(wanted) if u > t)
                break
            live_coins = [i for i in range(nc) if not kind[i]]
            zero = [kind.index(2)] if 2 in kind else []  # a coin reading itself
            order = live_coins + zero + [i for i in range(nc, top) if not kind[i]] + [top]
            top = len(order) - 1
            new = [top if k == 1 else len(live_coins) for k in kind]  # old -> new position
            for j, i in enumerate(order):
                new[i] = j
            coin_ops = [coin_ops[i] for i in live_coins] + [(z, z) for z in zero]
            coin_ops = [(new[a], new[b]) for a, b in coin_ops]
            ops = [(m, new[a], new[b], r) for (m, a, b, r), k in zip(ops, kind[nc:]) if not k]
            steps = repeat(ops)
            where = [(sid, new[i]) for sid, i in where]
            row = [row[i] for i in order]
    return snapshots


def _guard_cells(rows: int, states: int) -> None:
    """Refuse to keep rows * states cells, more than CELL_CAP at the
    call, before any of them is built."""
    cells = rows * states
    if cells > CELL_CAP:
        raise GuardExceeded(f"{cells} value cells exceed the cell cap {CELL_CAP}")


def values_at(
    g: Game, checkpoints: Iterable[int], strategy: Strategy | None = None, sets: dict | None = None
) -> dict[int, dict[str, Dyadic]]:
    """Value rows at selected horizons from a single streaming pass.

    With a strategy, that player's choices are read per cell and the
    opponent best-responds; without one, both sides play optimally.  A
    memoryless strategy is played by sweeping Game.fix's game, which
    settles.  A negative checkpoint is refused before the sweep.  The
    rows kept, not the horizon swept, count against CELL_CAP, and so do
    the mask bytes that ``sets`` (see _sweep) will keep, largest
    checkpoint times len(sets), each checked before the sweep.
    """
    if isinstance(checkpoints, range) and checkpoints.step > 0:
        cps = checkpoints  # sorted and distinct: counted without building it
    else:
        cps = sorted(set(checkpoints))
    if not cps:
        return {}
    if cps[0] < 0:
        raise ValueError(f"checkpoints out of range: {[t for t in cps if t < 0]}")
    _guard_cells(len(cps), len(g.states))
    if sets:
        _guard_cells(cps[-1], len(sets))
    fixed = None if strategy is None else (PLAYER_KIND[strategy.player], strategy.action)
    return _sweep(g.states, cps[-1], cps, fixed=fixed, sets=sets)


def final_values(g: Game, horizon: int) -> dict[str, Dyadic]:
    """Optimal values at the full horizon only (two-row streaming)."""
    return values_at(g, (horizon,))[horizon]


def _action_masks(g: Game, horizon: int, ids: Iterable[str]) -> dict[str, bytes]:
    """Mask bytes per t of the given optimising states, keyed in the
    order given; like a full value table, refused beyond CELL_CAP cells.
    """
    _guard_cells(horizon + 1, len(g.states))
    sets = {sid: bytearray() for sid in ids}
    _sweep(g.states, horizon, sets=sets)
    return {sid: bytes(row) for sid, row in sets.items()}


def optimal_action_sets(
    g: Game, horizon: int
) -> tuple[ActionSetSequence, ActionSetSequence]:
    """Argmax/argmin sets of the recurrence in elapsed time, as
    (max_sets, min_sets): each player's states in sorted id order, from
    one sweep.

    Streams the value rows (keeping two at a time), so horizons in the
    thousands stay cheap even though the sets for every t are retained;
    like a full value table, the sets refuse more than CELL_CAP cells.
    Elapsed step t is remaining time horizon - t, so each mask row is
    the sweep's reversed.
    """
    players = [tuple(sorted(g.controlled_ids(player))) for player in (1, 2)]
    masks = _action_masks(g, horizon, players[0] + players[1])
    return tuple(
        ActionSetSequence(horizon, {sid: masks[sid][::-1] for sid in ids})
        for ids in players
    )


def markov_arcs(
    g: Game, horizon: int, player: int = 1, tiebreak: str = "lo"
) -> dict[str, bytes]:
    """One optimal arc per remaining time for each state of ``player``,
    ties broken by arc index: byte t - 1 of arcs[sid] is the arc at
    remaining time t, read off that player's action-set masks in one
    translate.
    """
    if tiebreak not in ("lo", "hi"):
        raise ValueError("tiebreak must be 'lo' or 'hi'")
    pick = bytes.maketrans(b"\1\2\3", b"\0\1\0" if tiebreak == "lo" else b"\0\1\1")
    masks = _action_masks(g, horizon, g.controlled_ids(player))
    return {sid: row.translate(pick) for sid, row in masks.items()}


def extract_markov(
    g: Game, horizon: int, player: int = 1, tiebreak: str = "lo"
) -> MarkovStrategy:
    """One optimal Markov strategy, ties broken by arc index: the
    markov_arcs bytes as a (t, state id) -> arc table.

    Analyses that reason about ALL optimal strategies must consume
    optimal_action_sets instead; tie-breaking here is explicit and never
    applied silently elsewhere.
    """
    arcs = markov_arcs(g, horizon, player, tiebreak).items()
    choices = {(t, sid): a[t - 1] for t in range(1, horizon + 1) for sid, a in arcs}
    return MarkovStrategy(player=player, horizon=horizon, choices=choices)


def evaluate_fixed_final(g: Game, horizon: int, strategy: Strategy) -> dict[str, Dyadic]:
    """Values at the full horizon when one player's choices are fixed.

    The opponent best-responds through the same recurrence; for an MDP
    whose lone player is fixed this is plain Markov-chain evaluation.
    """
    return values_at(g, (horizon,), strategy)[horizon]


def _counter_layers(
    g: Game, horizon: int, cs: "CounterStrategy", player: int, free: bool
) -> tuple[list[dict[str, int]], list[int]]:
    """A counter strategy's layers (see _sweep): per memory, the arcs it
    sets at the player's states, and the memory held at each remaining
    time 1..horizon.  A slot (memory, state) with no action raises
    StrategyError, at every memory whether the horizon reaches it or
    not, or, when ``free``, keeps both arcs and stays the player's to
    optimise at every step.
    """
    own = g.controlled_ids(player)
    overrides = []
    for m in range(cs.size):
        arcs = {}
        for sid in own:
            arc = cs.actions.get((m, sid))
            if arc is not None:
                arcs[sid] = arc
            elif not free and horizon > 0:  # at horizon 0 no action is ever read
                raise StrategyError(
                    f"counter strategy has no action for memory {m}, state {sid!r}"
                )
        overrides.append(arcs)
    return overrides, cs.trajectory(horizon)[::-1]  # at remaining t: memory_at(horizon - t)


def _counter_value(
    g: Game, horizon: int, cs: "CounterStrategy", player: int, free: bool
) -> Dyadic:
    """Value at (memory 0, start) of a counter strategy's product, from
    one uncapped sweep of two rows of the start's sub-arena along its
    layers, which are built and checked on the whole game."""
    layers = _counter_layers(g, horizon, cs, player, free)
    rows = _sweep(g.reachable.states, horizon, (horizon,), layers=layers, ids=(g.start,))
    return rows[horizon][g.start]


def evaluate_counter(
    g: Game,
    horizon: int,
    cs: "CounterStrategy",
    player: int = 1,
) -> CounterEvaluation:
    """Value of a counter strategy against a best-responding opponent.

    Defined on the product of (memory, game state): memory advances on
    every traversal independent of the state, and each fixed-player
    state has both arcs on the destination the strategy's action map
    chooses, so the opponent's best response there is optimal among all
    history-dependent ones.  Swept along the memory trajectory (see the
    module docstring); the result's rows are built, and capped, on
    first read.
    """
    value = _counter_value(g, horizon, cs, player, free=False)
    return CounterEvaluation(value, g, cs, player, horizon)


def counter_bound(g: Game, horizon: int, cs: "CounterStrategy") -> Dyadic:
    """Upper bound on the value of every completion of a partial
    maximiser counter strategy.

    The slots ``cs`` leaves without an action stay maximising, free to
    choose afresh at every step, in the same game-sized sweep along the
    memory trajectory as evaluate_counter.  The recurrence is monotone,
    so no fixed choice for them does better; with every slot set this
    is the strategy's value.
    """
    return _counter_value(g, horizon, cs, 1, free=True)
