"""Exact backward induction for finite-horizon games.

Horizon semantics: the value of state s at horizon t is the optimal
probability of reaching the terminal within at most t arc traversals
starting from s.  The recurrence is

    v[0][s]   = 1 if s is terminal else 0
    v[t][bot] = 1
    v[t][s]   = avg / max / min of v[t-1] at the two arc destinations

for coin / max / min states respectively.  All values are dyadic
rationals and the denominator exponent of v[t][s] never exceeds t.

Strategies are indexed by REMAINING moves: a Markov strategy maps
(t, state) with t in 1..T to an arc.  Counter strategies advance their
memory on every traversal regardless of the observed state; they are
evaluated on the product of memory and game state, where a backward
induction best response for the opponent is optimal among all
history-dependent responses.

All functions are pure; independent solves can run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

from .errors import GuardExceeded, StrategyError
from .game import Game, StateKind, PLAYER_KIND
from .numeric import Dyadic, ONE, ZERO, dy_avg

if TYPE_CHECKING:  # pragma: no cover
    from .counter import CounterStrategy

__all__ = [
    "ValueTable",
    "OptimalActionSets",
    "MarkovStrategy",
    "CounterEvaluation",
    "backward_induction",
    "final_values",
    "values_at",
    "optimal_action_sets",
    "extract_markov",
    "evaluate_fixed",
    "evaluate_fixed_final",
    "evaluate_counter",
]


class Strategy(Protocol):
    player: int

    def action(self, t: int, sid: str) -> int: ...


@dataclass(frozen=True)
class ValueTable:
    """Full trajectory of exact values: rows[t][sid] for t in 0..horizon."""

    ids: tuple[str, ...]
    horizon: int
    rows: tuple[dict[str, Dyadic], ...]

    def value(self, t: int, sid: str) -> Dyadic:
        return self.rows[t][sid]

    def final(self) -> dict[str, Dyadic]:
        return dict(self.rows[-1])

    def to_csv(self) -> str:
        lines = ["t," + ",".join(self.ids)]
        for t, row in enumerate(self.rows):
            lines.append(f"{t}," + ",".join(str(row[sid]) for sid in self.ids))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OptimalActionSets:
    """All value-optimal arcs per remaining time and controlled state.

    sets[(t, sid)] is a non-empty tuple drawn from (0, 1); both arcs
    appear exactly when their successor values tie.  Carrying the full
    sets (rather than one tie-broken choice) is what allows period and
    memory analyses to quantify over every optimal strategy.
    """

    horizon: int
    sets: dict[tuple[int, str], tuple[int, ...]]

    def at(self, t: int, sid: str) -> tuple[int, ...]:
        return self.sets[(t, sid)]


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
    """Result of evaluating a counter strategy on the memory product."""

    value: Dyadic
    rows: tuple[dict[tuple[int, str], Dyadic], ...]


def _plan(g: Game) -> list[tuple[str, StateKind, tuple[str, str] | None]]:
    return [(s.id, s.kind, s.arcs) for s in g.states]


def _sweep(
    plan: list,
    horizon: int,
    fixed: tuple[StateKind, Callable[[int, str], int]] | None = None,
    sets: dict | None = None,
    checkpoints: Iterable[int] | None = None,
):
    """The induction loop, over a plan of (id, kind, arcs) entries.

    Returns (last_row, snapshots) where snapshots maps each requested
    checkpoint horizon to its row; rows are never mutated once built,
    so snapshots share them.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    wanted = set(checkpoints) if checkpoints is not None else set()
    bad = [t for t in wanted if t < 0 or t > horizon]
    if bad:
        raise ValueError(f"checkpoints out of range: {sorted(bad)}")
    row = {sid: ONE if arcs is None else ZERO for sid, kind, arcs in plan}
    snapshots: dict[int, dict] = {}
    if 0 in wanted:
        snapshots[0] = row
    for t in range(1, horizon + 1):
        prev = row
        row = {}
        for sid, kind, arcs in plan:
            if arcs is None:
                row[sid] = ONE
                continue
            a = prev[arcs[0]]
            b = prev[arcs[1]]
            if kind is StateKind.COIN:
                v = dy_avg(a, b)
            elif fixed is not None and kind is fixed[0]:
                arc = fixed[1](t, sid)
                if arc not in (0, 1):
                    raise StrategyError(f"arc index {arc!r} at t={t}, state {sid!r}")
                v = a if arc == 0 else b
            else:
                if a is b or a == b:
                    v = a
                    chosen = (0, 1)
                elif (a > b) == (kind is StateKind.MAX):
                    v = a
                    chosen = (0,)
                else:
                    v = b
                    chosen = (1,)
                if sets is not None:
                    sets[(t, sid)] = chosen
            assert v.exponent <= t, "denominator exponent exceeded the horizon"
            row[sid] = v
        if t in wanted:
            snapshots[t] = row
    return row, snapshots


def _all_rows(plan, horizon: int, fixed=None) -> tuple[dict, ...]:
    _, snaps = _sweep(plan, horizon, fixed=fixed, checkpoints=range(horizon + 1))
    return tuple(snaps.values())


def backward_induction(g: Game, horizon: int) -> ValueTable:
    """Exact optimal values for every state and every t in 0..horizon."""
    return ValueTable(ids=g.ids(), horizon=horizon, rows=_all_rows(_plan(g), horizon))


def final_values(g: Game, horizon: int) -> dict[str, Dyadic]:
    """Optimal values at the full horizon only (two-row streaming)."""
    return _sweep(_plan(g), horizon)[0]


def values_at(
    g: Game, checkpoints: Iterable[int], strategy: Strategy | None = None
) -> dict[int, dict[str, Dyadic]]:
    """Value rows at selected horizons from a single streaming pass.

    With a strategy, that player's choices are fixed and the opponent
    best-responds; without one, both sides play optimally.
    """
    cps = sorted(set(checkpoints))
    if not cps:
        return {}
    fixed = None
    if strategy is not None:
        fixed = (PLAYER_KIND[strategy.player], strategy.action)
    return _sweep(_plan(g), cps[-1], fixed=fixed, checkpoints=cps)[1]


def optimal_action_sets(g: Game, horizon: int) -> OptimalActionSets:
    """Argmax/argmin sets of the recurrence, for both players' states.

    Streams the value rows (keeping two at a time), so horizons in the
    thousands stay cheap even though the sets for every t are retained.
    """
    sets: dict[tuple[int, str], tuple[int, ...]] = {}
    _sweep(_plan(g), horizon, sets=sets)
    return OptimalActionSets(horizon=horizon, sets=sets)


def extract_markov(
    g: Game, horizon: int, player: int = 1, tiebreak: str = "lo"
) -> MarkovStrategy:
    """One optimal Markov strategy, ties broken by arc index.

    Analyses that reason about ALL optimal strategies must consume
    optimal_action_sets instead; tie-breaking here is explicit and never
    applied silently elsewhere.
    """
    if tiebreak not in ("lo", "hi"):
        raise ValueError("tiebreak must be 'lo' or 'hi'")
    sets = optimal_action_sets(g, horizon)
    pick = min if tiebreak == "lo" else max
    controlled = set(g.controlled_ids(player))
    choices = {
        (t, sid): pick(arcs)
        for (t, sid), arcs in sets.sets.items()
        if sid in controlled
    }
    return MarkovStrategy(player=player, horizon=horizon, choices=choices)


def evaluate_fixed(g: Game, horizon: int, strategy: Strategy) -> ValueTable:
    """Exact values when one player's choices are fixed.

    The opponent best-responds through the same recurrence; for an MDP
    whose lone player is fixed this is plain Markov-chain evaluation.
    """
    fixed = (PLAYER_KIND[strategy.player], strategy.action)
    rows = _all_rows(_plan(g), horizon, fixed=fixed)
    return ValueTable(ids=g.ids(), horizon=horizon, rows=rows)


def evaluate_fixed_final(g: Game, horizon: int, strategy: Strategy) -> dict[str, Dyadic]:
    """Final row of evaluate_fixed without retaining the trajectory."""
    fixed = (PLAYER_KIND[strategy.player], strategy.action)
    return _sweep(_plan(g), horizon, fixed=fixed)[0]


def evaluate_counter(
    g: Game,
    horizon: int,
    cs: "CounterStrategy",
    player: int = 1,
    cell_cap: int = 5_000_000,
) -> CounterEvaluation:
    """Value of a counter strategy against a best-responding opponent.

    Built on the product of (memory, game state): memory advances on
    every traversal independent of the state, and each fixed-player
    state has both arcs on the destination the strategy's action map
    chooses.  The shared induction kernel then lets the opponent
    minimise (or maximise) over the product.
    """
    cells = (horizon + 1) * cs.size * len(g.states)
    if cells > cell_cap:
        raise GuardExceeded(
            f"memory-product size {cells} exceeds cell cap {cell_cap}"
        )
    own_kind = PLAYER_KIND[player]
    game_plan = _plan(g)
    plan = []
    for m in range(cs.size):
        nm = cs.next_memory(m)
        for sid, kind, arcs in game_plan:
            if arcs is not None:
                arcs = ((nm, arcs[0]), (nm, arcs[1]))
                if kind is own_kind:
                    arc = cs.actions.get((m, sid))
                    if arc is not None:
                        arcs = (arcs[arc], arcs[arc])
                    elif horizon > 0:  # at horizon 0 no action is ever read
                        raise StrategyError(
                            f"counter strategy has no action for memory {m}, "
                            f"state {sid!r}"
                        )
            plan.append(((m, sid), kind, arcs))
    rows = _all_rows(plan, horizon)
    return CounterEvaluation(value=rows[horizon][(0, g.start)], rows=rows)
