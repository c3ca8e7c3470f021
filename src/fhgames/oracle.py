"""Ground truth by search.

Everything here is exact: infinite-horizon values by enumerating all
memoryless strategy pairs and solving the absorbing-chain linear system
fraction-free; the minimal counter-automaton memory by a branch-and-
bound search over the automata, pruned by an upper bound on every
completion of a partial one, each automaton swept along its memory
trajectory rather than over the whole memory product; and seeded
Monte-Carlo simulation for statistical cross-validation.  Search caps
are explicit and exceeding them raises, never truncates.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .counter import CounterStrategy
from .errors import GuardExceeded, StrategyError
from .game import Game, StateKind
from .numeric import Dyadic
from .solver import counter_bound, evaluate_counter, final_values

__all__ = [
    "MemorylessStrategy",
    "InfiniteSolution",
    "MinMemoryResult",
    "SimulationReport",
    "reach_probabilities",
    "solve_infinite",
    "min_counter_memory",
    "simulate",
]

RNG_ALGORITHM = "mt19937"  # random.Random; recorded in every report


@dataclass(frozen=True)
class MemorylessStrategy:
    """Time-independent arc choice per controlled state."""

    player: int
    choices: dict[str, int]

    def action(self, t: int, sid: str) -> int:
        try:
            return self.choices[sid]
        except KeyError:
            raise StrategyError(
                f"memoryless strategy (player {self.player}) has no entry "
                f"for state {sid!r}"
            ) from None


def _fraction_free_solve(matrix: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve an integer linear system by Bareiss elimination.

    Fraction-free forward elimination (all divisions are exact integer
    divisions), then back-substitution over Fraction.
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
    out: list[Fraction] = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = Fraction(m[r][n])
        for c in range(r + 1, n):
            acc -= m[r][c] * out[c]
        out[r] = acc / m[r][r]
    return out


def _chosen_arcs(g: Game, strategies: dict[int, MemorylessStrategy]):
    """Per-state outgoing destinations once controlled choices are fixed."""
    out = {}
    for s in g.states:
        if s.kind is StateKind.TERMINAL:
            out[s.id] = ()
        elif s.kind is StateKind.COIN:
            out[s.id] = s.arcs
        else:
            player = 1 if s.kind is StateKind.MAX else 2
            strat = strategies.get(player)
            if strat is None:
                raise StrategyError(f"no strategy supplied for player {player}")
            out[s.id] = (s.arcs[strat.action(0, s.id)],)
    return out


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
    strategies = {}
    if strategy1 is not None:
        strategies[strategy1.player] = strategy1
    if strategy2 is not None:
        strategies[strategy2.player] = strategy2
    arcs = _chosen_arcs(g, strategies)

    target = g.terminal_id
    reverse: dict[str, list[str]] = {s.id: [] for s in g.states}
    for sid, dests in arcs.items():
        for d in dests:
            reverse[d].append(sid)
    can_reach = {target}
    queue = deque([target])
    while queue:
        for prev in reverse[queue.popleft()]:
            if prev not in can_reach:
                can_reach.add(prev)
                queue.append(prev)

    unknowns = [s.id for s in g.states if s.id in can_reach and s.id != target]
    index = {sid: j for j, sid in enumerate(unknowns)}
    matrix = [[0] * len(unknowns) for _ in unknowns]
    rhs = [0] * len(unknowns)
    for sid in unknowns:
        row = matrix[index[sid]]
        dests = arcs[sid]
        row[index[sid]] = len(dests)  # 2 for coin states, 1 for fixed choices
        for d in dests:
            if d == target:
                rhs[index[sid]] += 1
            elif d in index:
                row[index[d]] -= 1
            # destinations outside can_reach contribute 0
    solution = _fraction_free_solve(matrix, rhs) if unknowns else []

    values = {target: Fraction(1)}
    for s in g.states:
        if s.id == target:
            continue
        values[s.id] = solution[index[s.id]] if s.id in index else Fraction(0)
    return values


@dataclass(frozen=True)
class InfiniteSolution:
    values: dict[str, Fraction]
    strategy: MemorylessStrategy


def solve_infinite(g: Game, cap: int = 12) -> InfiniteSolution:
    """Infinite-horizon values by full enumeration of memoryless pairs.

    Returns the max-min value map together with one maximising strategy
    that attains it at every state simultaneously (such a uniformly
    optimal witness exists; its absence would be a solver bug).
    """
    ids1 = g.controlled_ids(1)
    ids2 = g.controlled_ids(2)
    if len(ids1) + len(ids2) > cap:
        raise GuardExceeded(
            f"{len(ids1) + len(ids2)} controlled states exceed the cap {cap}"
        )
    sids = [s.id for s in g.states]
    candidates = []
    for picks1 in itertools.product((0, 1), repeat=len(ids1)):
        s1 = MemorylessStrategy(1, dict(zip(ids1, picks1)))
        worst: dict[str, Fraction] | None = None
        for picks2 in itertools.product((0, 1), repeat=len(ids2)):
            s2 = MemorylessStrategy(2, dict(zip(ids2, picks2)))
            vals = reach_probabilities(g, s1, s2)
            if worst is None:
                worst = vals
            else:
                worst = {sid: min(worst[sid], vals[sid]) for sid in sids}
        candidates.append((s1, worst))

    best = {sid: max(worst[sid] for _, worst in candidates) for sid in sids}
    for s1, worst in candidates:
        if all(worst[sid] == best[sid] for sid in sids):
            return InfiniteSolution(values=best, strategy=s1)
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
