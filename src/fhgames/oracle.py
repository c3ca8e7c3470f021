"""Ground truth by search.

Everything here is exact: infinite-horizon values by strategy
iteration (Hoffman-Karp), each strategy pair's value from an absorbing-
chain linear system solved fraction-free, the lex-first optimal
strategy by a greedy walk over max's tied states; the minimal counter-
automaton memory by a branch-and-bound search over the automata, pruned
by an upper bound on every completion of a partial one, each automaton
swept along its memory trajectory rather than over the whole memory
product; and seeded Monte-Carlo simulation for cross-validation.
Search caps are explicit and exceeding them raises, never truncates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .counter import CounterStrategy
from .errors import GuardExceeded, StrategyError
from .game import Game, StateKind
from .numeric import Dyadic
from .solver import _arc_rows, _counter_rows, counter_bound, evaluate_counter, final_values

__all__ = [
    "SWEEP_CAP",
    "InfiniteSolution",
    "MinMemoryResult",
    "reach_probabilities",
    "solve_infinite",
    "min_counter_memory",
    "simulate",
]

RNG_ALGORITHM = "mt19937"  # random.Random's generator, named in simulate's output

SWEEP_CAP = 2_000_000  # most sweeps one memory search may perform

_MAX = StateKind.MAX
_MIN = StateKind.MIN
_COIN = StateKind.COIN


def _fraction_free_solve(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve an integer linear system by Bareiss elimination.

    Fraction-free forward elimination, then back-substitution in
    integers scaled by the determinant (Cramer's rule makes det * x
    integral); all divisions are exact integer divisions, and each
    unknown becomes one Fraction(X, det).
    """
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise ArithmeticError("singular reachability system")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
        for r in range(col + 1, n):
            for c in range(col + 1, n + 1):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    scaled = [0] * n
    for r in range(n - 1, -1, -1):
        acc = prev * m[r][n]
        for c in range(r + 1, n):
            acc -= m[r][c] * scaled[c]
        scaled[r] = acc // m[r][r]
    return [Fraction(x, prev) for x in scaled]


def _index_form(g: Game):
    """State j of g.states has kind kinds[j] and arcs[j], a pair of state
    indices (None for the terminal).  A pick list, indexed alike, holds
    an arc per controlled state, or None for coins and free states."""
    sids = [s.id for s in g.states]
    at = {sid: j for j, sid in enumerate(sids)}
    arcs = [None if s.arcs is None else (at[s.arcs[0]], at[s.arcs[1]]) for s in g.states]
    return sids, [s.kind for s in g.states], arcs, at[g.terminal_id]


def _positive(kinds, arcs, target: int, pick) -> dict[int, int]:
    """States that reach the target with positive probability whatever
    the free min states do: a picked state needs its arc inside the set,
    a coin or free max state one arc, a free min state both.  Each maps
    to an arc into the set as it stood when the state joined it."""
    found = {target: 0}
    grew = True
    while grew:
        grew = False
        for j, pair in enumerate(arcs):
            if pair is None or j in found:
                continue
            arc = pick[j]
            if arc is None:
                arc = 0 if pair[0] in found else 1
                if kinds[j] is _MIN and pair[1 - arc] not in found:
                    continue
            if pair[arc] in found:
                found[j] = arc
                grew = True
    return found


def _solve(arcs, target: int, live, pick) -> list[Fraction]:
    """Reach probabilities with every live controlled state on its
    picked arc and the states outside ``live`` at 0.  From every live
    state the chain must reach the target or leave ``live`` almost
    surely, so the system is uniquely solvable."""
    unknowns = [j for j in range(len(arcs)) if j in live and j != target]
    col = {j: k for k, j in enumerate(unknowns)}
    matrix = []
    rhs = []
    for j in unknowns:
        row = [0] * len(unknowns)
        dests = arcs[j] if pick[j] is None else (arcs[j][pick[j]],)
        row[col[j]] = len(dests)  # 2 for coin states, 1 for fixed choices
        hits = 0
        for d in dests:
            if d == target:
                hits += 1
            elif d in col:
                row[col[d]] -= 1
        matrix.append(row)
        rhs.append(hits)
    values = [Fraction(0)] * len(arcs)
    values[target] = Fraction(1)
    for j, v in zip(unknowns, _fraction_free_solve(matrix, rhs)):
        values[j] = v
    return values


def reach_probabilities(
    g: Game,
    strategy1: dict[str, int] | None = None,
    strategy2: dict[str, int] | None = None,
) -> dict[str, Fraction]:
    """Exact probability of eventually reaching the terminal, per state,
    with each player that has states playing its memoryless strategy
    (state id -> arc), on the chain that Game.fix leaves.

    States that cannot reach the terminal under the fixed choices get 0
    by graph search; removing them first makes the remaining linear
    system uniquely solvable.
    """
    for player, arcs in ((1, strategy1), (2, strategy2)):
        if g.controlled_ids(player):
            if arcs is None:
                raise StrategyError(f"no strategy supplied for player {player}")
            g = g.fix(player, arcs)
    sids, kinds, arcs, target = _index_form(g)
    pick = [None] * len(sids)
    values = _solve(arcs, target, _positive(kinds, arcs, target, pick), pick)
    return dict(zip(sids, values))


def _best_reply(kinds, arcs, target: int, pick) -> list[Fraction]:
    """Min's optimal values against the max arcs in ``pick``, whose min
    states are None: 0 off the positive set, where min can keep the play
    away from the target, and policy iteration from arc 0 on it, where
    every min policy reaches the target or a 0-state almost surely."""
    live = _positive(kinds, arcs, target, pick)
    mins = [j for j in live if kinds[j] is _MIN]
    pick = pick[:]
    for j in mins:
        pick[j] = 0
    for _ in range(1 << len(mins)):
        values = _solve(arcs, target, live, pick)
        switched = False
        for j in mins:
            if values[arcs[j][1 - pick[j]]] < values[arcs[j][pick[j]]]:
                pick[j] ^= 1
                switched = True
        if not switched:
            return values
    raise ArithmeticError(f"min's policy iteration passed {1 << len(mins)} policies")


def _max_values(kinds, arcs, target: int, pick, free) -> list[Fraction]:
    """Max's values with the max states outside ``free`` held on their
    arcs in ``pick``, by strategy iteration from the positive attractor
    on strict improvement only.  It ends at a Bellman fixed point that
    is a strategy's values, so at most the value, the least fixed point.
    The final arcs stay in ``pick``; past 2^len(free) strategies, ArithmeticError."""
    for j in free:
        pick[j] = None
    attractor = _positive(kinds, arcs, target, pick)
    for j in free:
        pick[j] = attractor.get(j, 0)
    for _ in range(1 << len(free)):
        values = _best_reply(kinds, arcs, target, pick)
        switched = False
        for j in free:
            if values[arcs[j][1 - pick[j]]] > values[arcs[j][pick[j]]]:
                pick[j] ^= 1
                switched = True
        if not switched:
            return values
    raise ArithmeticError(f"strategy iteration passed {1 << len(free)} strategies")


class InfiniteSolution(NamedTuple):
    values: dict[str, Fraction]
    strategy: dict[str, int]


def solve_infinite(g: Game) -> InfiniteSolution:
    """Infinite-horizon values and the lex-first uniformly optimal
    memoryless maximiser strategy, by exact strategy iteration.

    ``values`` maps every state, in g.states order, to its max-min
    value v*.  ``strategy``, a {max state id: arc} dict in
    controlled_ids(1) order, is the first memoryless strategy (first id
    slowest, arc 0 before arc 1) against which min's best reply holds
    every state at v*.  Iterating over all of
    max's states gives v* and a uniformly optimal ``pick``.  A greedy
    walk then fixes the states in order, ``pick`` staying an optimal
    completion of the prefix: a state keeps arc 0 if ``pick`` has it,
    arc 1 if v*(arc 0) is not v*(state), and else takes arc 0 exactly
    when the game with the prefix and arc 0 held keeps v*.  That game
    is an SSG, so it has a memoryless optimum (Condon 1992): if it keeps
    v*, that optimum completes the new prefix, and if not, none does.
    """
    sids, kinds, arcs, target = _index_form(g)
    maxes = [j for j, kind in enumerate(kinds) if kind is _MAX]
    pick = [None] * len(sids)
    best = _max_values(kinds, arcs, target, pick, maxes)
    for k, j in enumerate(maxes):
        if pick[j] == 0 or best[arcs[j][0]] != best[j]:
            continue
        trial = pick[:]
        trial[j] = 0
        if _max_values(kinds, arcs, target, trial, maxes[k + 1 :]) == best:
            pick = trial
    return InfiniteSolution(
        values=dict(zip(sids, best)),
        strategy={sids[j]: pick[j] for j in maxes},
    )


class MinMemoryResult(NamedTuple):
    """Outcome of the counter-automaton memory search.

    ``memory`` is the least N+p reaching the target value, or None when
    every automaton within max_mem falls short; ``witness`` is one
    automaton attaining it.
    """

    memory: int | None
    witness: CounterStrategy | None
    optimum: Dyadic
    target: Dyadic


def min_counter_memory(
    g: Game,
    horizon: int,
    epsilon: Dyadic,
    max_mem: int,
) -> MinMemoryResult:
    """Least memory-state count of an epsilon-optimal maximiser counter
    strategy.

    Searches every split N + p = m for m = 1..max_mem, then every
    action map over the (memory, max state the start reaches) slots by
    depth-first branch and bound: slots are set memory-major, then by
    sorted state id, arc 0 before arc 1.  Slots the start cannot reach
    never change its value, so they hold arc 0, where a full enumeration
    would meet its first success.  Before each branch counter_bound
    sweeps the game along the automaton's memory trajectory with the
    unset slots free and the branch is pruned when even that falls
    below the target.  The first complete automaton that meets the
    target, confirmed by evaluate_counter, is therefore the first one a
    full enumeration in the same order would meet.  SWEEP_CAP, read at
    the call, caps the sweeps; the sweep past it raises GuardExceeded.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    reached = sorted(g.reachable.controlled_ids(1))
    unreached = sorted(set(g.controlled_ids(1)).difference(reached))
    optimum = final_values(g.reachable, horizon)[g.start]
    try:
        target = optimum - epsilon
    except (OverflowError, MemoryError):  # a shift past the largest int, or any memory
        raise ValueError(f"epsilon {epsilon} is too fine for exact arithmetic") from None
    sweeps = 0
    for m in range(1, max_mem + 1):
        slots = [(mem, sid) for mem in range(m) for sid in reached]
        held = {(mem, sid): 0 for mem in range(m) for sid in unreached}
        for period in range(1, m + 1):
            # arcs of the slots set so far; the root, every slot free, is
            # not swept: its bound is the optimum itself
            bits = [0] if slots else []
            while True:
                if sweeps >= SWEEP_CAP:
                    raise GuardExceeded(
                        f"the memory search needs more than {SWEEP_CAP} product sweeps"
                    )
                sweeps += 1
                cs = CounterStrategy(m - period, period, {**held, **dict(zip(slots, bits))})
                if len(bits) == len(slots):
                    if evaluate_counter(g, horizon, cs).value >= target:
                        return MinMemoryResult(m, cs, optimum, target)
                elif counter_bound(g, horizon, cs) >= target:
                    bits.append(0)
                    continue
                while bits and bits[-1] == 1:
                    bits.pop()
                if not bits:
                    break
                bits[-1] = 1
    return MinMemoryResult(None, None, optimum, target)


def simulate(
    g: Game,
    horizon: int,
    strategy,
    trials: int,
    seed: int,
    opponent=None,
) -> int:
    """How many of ``trials`` plays reach the terminal within the horizon.

    ``strategy`` plays player 1 and ``opponent`` player 2, each needed
    where its player has states; either may be a Markov or counter
    strategy.  A memoryless one is played on Game.fix's game, which
    leaves that player no states.  Each is played from the arc rows the
    exact evaluation sweeps (solver._arc_rows, solver._counter_rows), so
    whatever values_at or evaluate_counter refuses is refused here
    before the first trial.  Deterministic given the seed, with the
    RNG_ALGORITHM generator, drawn once per coin state reached.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    plays = {}  # controlled state id -> its arc row, byte t - 1 at remaining time t
    for player, strat in ((1, strategy), (2, opponent)):
        ids = g.controlled_ids(player)
        if not ids:
            continue
        if strat is None:
            raise StrategyError(f"no strategy supplied for player {player}")
        if isinstance(strat, CounterStrategy):
            rows = _counter_rows(g, horizon, strat, player, free=False)[1]
        else:
            rows = _arc_rows(strat, ids, horizon)
        plays.update((sid, rows[sid]) for sid in ids)

    rng = random.Random(seed)
    target = g.terminal_id
    hits = 0
    for _ in range(trials):
        pos = g.start
        if pos == target:
            hits += 1
            continue
        for t in range(horizon, 0, -1):
            s = g.state(pos)
            arc = rng.getrandbits(1) if s.kind is _COIN else plays[pos][t - 1]
            pos = s.arcs[arc]
            if pos == target:
                hits += 1
                break
    return hits
