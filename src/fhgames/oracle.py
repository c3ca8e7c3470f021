"""Ground truth by search.

Everything here is exact: infinite-horizon values by strategy
iteration (Hoffman-Karp), each strategy pair's value from an absorbing-
chain linear system solved fraction-free; the minimal counter-automaton
memory by a branch-and-bound search over the automata, pruned by an
upper bound on every completion of a partial one, each automaton swept
along its memory trajectory rather than over the whole memory product;
and seeded Monte-Carlo simulation for statistical cross-validation.
Search caps are explicit and exceeding them raises, never truncates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .counter import CounterStrategy
from .errors import GuardExceeded, StrategyError
from .game import Game, StateKind
from .numeric import Dyadic
from .solver import MemorylessStrategy, counter_bound, evaluate_counter, final_values

__all__ = [
    "InfiniteSolution",
    "MinMemoryResult",
    "SimulationReport",
    "reach_probabilities",
    "solve_infinite",
    "min_counter_memory",
    "simulate",
]

RNG_ALGORITHM = "mt19937"  # random.Random; recorded in every report


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
                if kinds[j] is StateKind.MIN and pair[1 - arc] not in found:
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
    strategy1: MemorylessStrategy | None = None,
    strategy2: MemorylessStrategy | None = None,
) -> dict[str, Fraction]:
    """Exact probability of eventually reaching the terminal, per state.

    States that cannot reach the terminal under the fixed choices get 0
    by graph search; removing them first makes the remaining linear
    system uniquely solvable.
    """
    strategies = {s.player: s for s in (strategy1, strategy2) if s is not None}
    sids, kinds, arcs, target = _index_form(g)
    pick = [None] * len(sids)
    for j, kind in enumerate(kinds):
        if kind is StateKind.MAX or kind is StateKind.MIN:
            player = 1 if kind is StateKind.MAX else 2
            strat = strategies.get(player)
            if strat is None:
                raise StrategyError(f"no strategy supplied for player {player}")
            pick[j] = strat.action(0, sids[j])
    values = _solve(arcs, target, _positive(kinds, arcs, target, pick), pick)
    return dict(zip(sids, values))


def _best_reply(kinds, arcs, target: int, pick) -> list[Fraction]:
    """Min's optimal values against the max arcs in ``pick``, whose min
    states are None: 0 off the positive set, where min can keep the play
    away from the target, and policy iteration from arc 0 on it, where
    every min policy reaches the target or a 0-state almost surely."""
    live = _positive(kinds, arcs, target, pick)
    mins = [j for j in live if kinds[j] is StateKind.MIN]
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


@dataclass(frozen=True)
class InfiniteSolution:
    values: dict[str, Fraction]
    strategy: MemorylessStrategy


def solve_infinite(g: Game, cap: int = 12) -> InfiniteSolution:
    """Infinite-horizon values and the lex-first uniformly optimal
    memoryless maximiser strategy, by exact strategy iteration.

    ``values`` maps every state, in g.states order, to its max-min
    value v*.  ``strategy`` is the first memoryless strategy, in the
    order of itertools.product over controlled_ids(1) (first id slowest,
    arc 0 before arc 1), against which min's best reply holds every
    state at v*.  Max iterates from its positive-attractor strategy,
    switching only on strict improvement, until its values are a Bellman
    fixed point: at most v*, the least one, so v*.  A depth-first search
    in enumeration order then keeps only arcs with v*(arc) = v*(state)
    and accepts the first leaf whose best reply is v*.  Strict improvement
    never repeats a strategy, so each iteration stops within its player's
    count of strategies; past it, or with no leaf accepted, ArithmeticError.
    """
    ids1 = g.controlled_ids(1)
    ids2 = g.controlled_ids(2)
    if len(ids1) + len(ids2) > cap:
        raise GuardExceeded(
            f"{len(ids1) + len(ids2)} controlled states exceed the cap {cap}"
        )
    sids, kinds, arcs, target = _index_form(g)
    maxes = [j for j, kind in enumerate(kinds) if kind is StateKind.MAX]
    attractor = _positive(kinds, arcs, target, [None] * len(sids))
    pick = [None] * len(sids)
    for j in maxes:
        pick[j] = attractor.get(j, 0)
    for _ in range(1 << len(maxes)):
        best = _best_reply(kinds, arcs, target, pick)
        switched = False
        for j in maxes:
            if best[arcs[j][1 - pick[j]]] > best[arcs[j][pick[j]]]:
                pick[j] ^= 1
                switched = True
        if not switched:
            break
    else:
        raise ArithmeticError(f"strategy iteration passed {1 << len(maxes)} strategies")

    settled = tuple(pick[j] for j in maxes)  # its best reply is v*: no check
    allowed = [[a for a in (0, 1) if best[arcs[j][a]] == best[j]] for j in maxes]
    for picks in itertools.product(*allowed):
        for j, a in zip(maxes, picks):
            pick[j] = a
        if picks == settled or _best_reply(kinds, arcs, target, pick) == best:
            return InfiniteSolution(
                values=dict(zip(sids, best)),
                strategy=MemorylessStrategy(1, dict(zip(ids1, picks))),
            )
    raise ArithmeticError("no uniformly optimal memoryless strategy found")


@dataclass(frozen=True)
class MinMemoryResult:
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
    guard: int = 2_000_000,
) -> MinMemoryResult:
    """Least memory-state count of an epsilon-optimal maximiser counter
    strategy.

    Searches every split N + p = m for m = 1..max_mem, then every
    action map over the (memory, controlled state) slots by depth-first
    branch and bound: slots are set memory-major, then by sorted state
    id, arc 0 before arc 1.  Before each branch counter_bound sweeps the
    game along the automaton's memory trajectory with the unset slots
    free and the branch is pruned when even that falls below the
    target.  The first complete automaton that meets the target,
    confirmed by evaluate_counter, is therefore the first one a full
    enumeration in the same order would meet.  ``guard`` caps the
    sweeps performed; the sweep past it raises GuardExceeded instead.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    controlled = sorted(g.controlled_ids(1))
    optimum = final_values(g, horizon)[g.start]
    target = optimum - epsilon
    sweeps = 0
    for m in range(1, max_mem + 1):
        slots = [(mem, sid) for mem in range(m) for sid in controlled]
        for period in range(1, m + 1):
            # arcs of the slots set so far; the root, every slot free, is
            # not swept: its bound is the optimum itself
            bits = [0] if slots else []
            while True:
                if sweeps >= guard:
                    raise GuardExceeded(
                        f"the memory search needs more than {guard} product sweeps"
                    )
                sweeps += 1
                cs = CounterStrategy(m - period, period, dict(zip(slots, bits)))
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


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    hits: int
    frequency: Fraction
    algorithm: str
    seed: int


def simulate(
    g: Game,
    horizon: int,
    strategy,
    trials: int,
    seed: int,
    player: int = 1,
    opponent=None,
) -> SimulationReport:
    """Empirical frequency of reaching the terminal within the horizon.

    ``strategy`` (and ``opponent`` where player 2 has states) may be
    Markov, memoryless, or counter strategies.  Deterministic given the
    seed; the generator algorithm is recorded in the report.
    """
    if trials < 1:
        raise ValueError("need at least one trial")

    def actor(strat, who):
        if strat is None:
            raise StrategyError(f"no strategy supplied for player {who}")
        if isinstance(strat, CounterStrategy):
            return strat.action_at
        return lambda elapsed, sid: strat.action(horizon - elapsed, sid)

    actors = {}
    if g.controlled_ids(1):
        actors[StateKind.MAX] = actor(strategy if player == 1 else opponent, 1)
    if g.controlled_ids(2):
        actors[StateKind.MIN] = actor(strategy if player == 2 else opponent, 2)

    rng = random.Random(seed)
    target = g.terminal_id
    hits = 0
    for _ in range(trials):
        pos = g.start
        if pos == target:
            hits += 1
            continue
        for elapsed in range(horizon):
            s = g.state(pos)
            if s.kind is StateKind.COIN:
                arc = rng.getrandbits(1)
            else:
                arc = actors[s.kind](elapsed, pos)
            pos = s.arcs[arc]
            if pos == target:
                hits += 1
                break
    return SimulationReport(
        trials=trials,
        hits=hits,
        frequency=Fraction(hits, trials),
        algorithm=RNG_ALGORITHM,
        seed=seed,
    )
