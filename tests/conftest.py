"""Shared independent oracles for the test suite.

These deliberately avoid the library's solver machinery: plays are
evaluated by direct recursion over (state, remaining moves) so that
backward induction has something genuinely separate to be checked
against.  ``reference_sweep`` is the induction kernel as it was before
rows became scaled ints: one ``Dyadic`` per cell, kept as the naive twin
of ``fhgames.solver._sweep``.  ``reference_least_initial`` is the
per-residue-class scan that ``fhgames.counter.least_initial_for_period``
replaced with bitsets.  ``reference_dumps`` is the stdlib rendering that
``fhgames.jsonout.dumps`` replaced on the CLI and ``store`` paths.
``reference_min_counter_memory`` is the exhaustive enumeration that
``fhgames.oracle.min_counter_memory`` replaced with branch and bound.
``forbid_sweeps`` makes any later sweep of ``fhgames.solver`` fail at
once, so that a call due to refuse beforehand cannot run long instead.
``reference_product_plan`` builds a counter strategy's whole memory
product, on which ``reference_counter_value`` evaluates it, as
``fhgames.solver.evaluate_counter`` and ``counter_bound`` did before
they swept game-sized rows along the automaton's memory trajectory, and
``next_memory`` is the automaton's memory update that the product
follows.  ``reference_strategy_rows`` builds the
``strategy`` command's choices one tuple per choice, as the CLI did
before it handed them to ``fhgames.jsonout`` as a grid of arc bytes.
``reference_solve_infinite`` enumerates every memoryless strategy pair,
one ``reach_probabilities`` solve each, as ``fhgames.oracle.solve_infinite``
did before strategy iteration.  ``make_star_chain`` builds H(i)'s
approach chain alone, whose solved values are run probabilities, and
``coin_union`` joins disjoint games under one coin start, such as the
two of ``union_parts``: together they have too many controlled states
for the enumeration, which ``reference_union_solution`` runs on each.
``full_game_counter_value`` is ``fhgames.solver._counter_value`` as it
was before it swept only the start's sub-arena (``Game.reachable``),
and ``full_game_memoryless_horizon`` is the body of
``fhgames.verify.check_memoryless_horizon`` as it was before its
sweeps did, playing sigma as a Markov strategy on the whole game
(``memoryless_markov``) rather than on ``Game.fix``'s game.
``sub_arena_samples`` yields small random arenas from every start, so
that some starts reach only part of their arena.  ``reference_extract_markov``,
``reference_from_markov`` and ``reference_to_markov`` are
``fhgames.solver.extract_markov``, ``fhgames.counter.from_markov`` and
``fhgames.counter.to_markov`` as they were before a Markov strategy's
choices became a view of its arc bytes: each builds or reads a
(t, state id) -> arc dict one cell at a time.  ``reference_markov_rows``
reads such a dict one cell at a time into the arc rows that
``fhgames.solver.MarkovStrategy`` builds from it at once.
``reference_simulate`` is ``fhgames.oracle.simulate`` as it was before
it played the arc rows the exact evaluation sweeps: it asks each
strategy for its arc at every step a play takes and checks that arc
there.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from fhgames import solver
from fhgames.counter import CounterStrategy, minimal_period
from fhgames.errors import GuardExceeded, StrategyError
from fhgames.gadgets import random_game
from fhgames.game import PLAYER_KIND, Game, State, StateKind
from fhgames.jsonout import jsonable
from fhgames.numeric import ONE, ZERO, Dyadic
from fhgames.oracle import (
    InfiniteSolution,
    MinMemoryResult,
    reach_probabilities,
    solve_infinite,
)
from fhgames.solver import (
    ActionSetSequence,
    MarkovStrategy,
    evaluate_counter,
    final_values,
    markov_arcs,
    values_at,
)


def play_value(g: Game, horizon: int, actions1: dict, actions2: dict) -> Fraction:
    """Probability of reaching the terminal with both players fixed.

    ``actions1``/``actions2`` map (remaining, state id) -> arc index.
    Direct recursion memoised in a plain dict, exact Fractions.
    """
    memo: dict[tuple[str, int], Fraction] = {}

    def value(sid: str, remaining: int) -> Fraction:
        key = (sid, remaining)
        if key in memo:
            return memo[key]
        s = g.state(sid)
        if s.kind is StateKind.TERMINAL:
            v = Fraction(1)
        elif remaining == 0:
            v = Fraction(0)
        elif s.kind is StateKind.COIN:
            v = Fraction(1, 2) * (
                value(s.arcs[0], remaining - 1) + value(s.arcs[1], remaining - 1)
            )
        else:
            table = actions1 if s.kind is StateKind.MAX else actions2
            v = value(s.arcs[table[(remaining, sid)]], remaining - 1)
        memo[key] = v
        return v

    return value(g.start, horizon)


def make_star_chain(i: int) -> Game:
    """The approach chain of H(i) alone, with its exit "x" as the terminal.

    Its value at the top state "{i}s" within t moves is the probability
    that t fair tosses contain i consecutive tails.
    """
    if i < 1:
        raise ValueError("chain length i must be at least 1")
    top_star = f"{i}s"
    states = [State("1s", StateKind.COIN, (top_star, "x"))]
    for j in range(2, i + 1):
        states.append(State(f"{j}s", StateKind.COIN, (top_star, f"{j - 1}s")))
    states.append(State("x", StateKind.TERMINAL))
    return Game(states=tuple(states), start=top_star)


def coin_union(left: Game, right: Game) -> Game:
    """The two games side by side, their ids prefixed "l." and "r.",
    sharing one terminal "bot", from a coin start whose arcs lead to
    their starts.  Left's states come first, then right's, then the
    start and the terminal."""
    states = []
    for prefix, g in (("l.", left), ("r.", right)):
        name = {s.id: prefix + s.id for s in g.states}
        name[g.terminal_id] = "bot"
        states += [
            State(name[s.id], s.kind, (name[s.arcs[0]], name[s.arcs[1]]))
            for s in g.states
            if s.kind is not StateKind.TERMINAL
        ]
    states.append(State("start", StateKind.COIN, ("l." + left.start, "r." + right.start)))
    states.append(State("bot", StateKind.TERMINAL))
    return Game(states=tuple(states), start="start")


def union_parts() -> list[Game]:
    """Two random 11-state arenas with 7-8 controlled states each, five
    of them max's, whose lex-first strategies both take arc 1 somewhere."""

    def controlled(g):
        return len(g.controlled_ids(1)) + len(g.controlled_ids(2))

    rng = random.Random(18)
    arenas = (random_game(11, rng) for _ in range(40))
    return [g for g in arenas if 7 <= controlled(g) <= 8][:2]


def reference_union_solution(left: Game, right: Game) -> InfiniteSolution:
    """``reference_solve_infinite`` of ``coin_union(left, right)`` from
    its parts: each part keeps its values, the start averages the parts'
    starts, and the lex-first strategy is left's followed by right's."""
    values: dict[str, Fraction] = {}
    choices: dict[str, int] = {}
    for prefix, g in (("l.", left), ("r.", right)):
        part = reference_solve_infinite(g)
        values |= {prefix + sid: v for sid, v in part.values.items() if sid != g.terminal_id}
        choices |= {prefix + sid: arc for sid, arc in part.strategy.items()}
    values["start"] = (values["l." + left.start] + values["r." + right.start]) / 2
    values["bot"] = Fraction(1)
    return InfiniteSolution(values=values, strategy=choices)


def count_sequences_with_run(i: int, t: int) -> int:
    """Number of length-t binary sequences containing i consecutive ones,
    by literal enumeration over all 2**t bitmasks."""
    hits = 0
    for word in range(1 << t):
        acc = word
        for _ in range(i - 1):
            acc &= acc >> 1
        if acc:
            hits += 1
    return hits


def reference_sweep(
    states: Sequence[tuple],
    horizon: int,
    checkpoints: Iterable[int] = (),
    fixed: tuple[StateKind, Callable[[int, str], int] | dict[str, bytes]] | None = None,
    sets: dict | None = None,
    ids: Iterable[str] | None = None,
):
    """The induction loop, over a game's ``states`` or any sequence of
    (id, kind, arcs) entries, such as ``reference_product_plan``'s.

    Returns a dict from each requested checkpoint horizon to its row;
    rows are never mutated once built, so the dict shares them.  With
    ``ids``, the returned rows hold only those states, in that order.
    ``fixed`` = (kind, choose) reads the arc of each state of that kind
    per cell, as choose(t, sid), or, as ``fixed`` of
    ``fhgames.solver._sweep``, as byte t - 1 of choose[sid]; an arc of
    2 has the state optimise at that cell, as its kind does.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if fixed is not None and not callable(fixed[1]):
        kind, rows = fixed
        fixed = (kind, lambda t, sid: rows[sid][t - 1])
    wanted = set(checkpoints)
    bad = [t for t in wanted if t < 0 or t > horizon]
    if bad:
        raise ValueError(f"checkpoints out of range: {sorted(bad)}")
    row = {sid: ONE if arcs is None else ZERO for sid, kind, arcs in states}
    snapshots: dict[int, dict] = {}
    if 0 in wanted:
        snapshots[0] = row
    for t in range(1, horizon + 1):
        prev = row
        row = {}
        for sid, kind, arcs in states:
            if arcs is None:
                row[sid] = ONE
                continue
            a = prev[arcs[0]]
            b = prev[arcs[1]]
            if kind is StateKind.COIN:
                total = a + b  # halved by raising the exponent
                v = Dyadic(total.mantissa, total.exponent + 1)
            elif fixed is not None and kind is fixed[0] and (arc := fixed[1](t, sid)) != 2:
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
    if ids is not None:
        snapshots = {t: {sid: row[sid] for sid in ids} for t, row in snapshots.items()}
    return snapshots


def forbid_sweeps(monkeypatch) -> None:
    """From here on, solver._sweep raises."""

    def swept(*args, **kwargs):
        raise AssertionError("swept where a refusal was due")

    monkeypatch.setattr(solver, "_sweep", swept)


def next_memory(cs: CounterStrategy, m: int) -> int:
    """The memory after memory m: the next one, or back to the first
    periodic memory from the last."""
    return m + 1 if m < cs.size - 1 else cs.initial


def reference_product_plan(
    g: Game, horizon: int, cs: CounterStrategy, player: int = 1, free: bool = False
) -> list:
    """Plan of the (memory, game state) product, ids (memory, state id).

    Memory m moves to its successor on every arc; the player's state
    with an action at m has both arcs on the chosen destination, and one
    without raises StrategyError (at horizon 0 no action is read), or,
    when ``free``, keeps both arcs and stays the player's to optimise.
    """
    own_kind = PLAYER_KIND[player]
    plan = []
    for m in range(cs.size):
        nm = next_memory(cs, m)
        for s in g.states:
            sid, kind, arcs = s.id, s.kind, s.arcs
            if arcs is not None:
                arcs = ((nm, arcs[0]), (nm, arcs[1]))
                if kind is own_kind:
                    arc = cs.actions.get((m, sid))
                    if arc is not None:
                        arcs = (arcs[arc], arcs[arc])
                    elif not free and horizon > 0:
                        raise StrategyError(
                            f"counter strategy has no action for memory {m}, "
                            f"state {sid!r}"
                        )
            plan.append(((m, sid), kind, arcs))
    return plan


def reference_counter_value(
    g: Game, horizon: int, cs: CounterStrategy, player: int = 1, free: bool = False
) -> Dyadic:
    """Value at (memory 0, start) of ``reference_product_plan``'s product."""
    cells = (horizon + 1) * cs.size * len(g.states)
    if cells > solver.CELL_CAP:
        raise GuardExceeded(f"{cells} value cells exceed the cell cap {solver.CELL_CAP}")
    plan = reference_product_plan(g, horizon, cs, player, free)
    return reference_sweep(plan, horizon, (horizon,))[horizon][(0, g.start)]


def reference_least_initial(seq, period: int) -> int:
    """Smallest N such that, for every state and residue class mod the
    period, the sets at elapsed steps >= N in that class intersect."""
    if period < 1:
        raise ValueError("period must be at least 1")
    need = 0
    length = seq.length
    for sid in seq.masks:
        for r in range(min(period, length)):
            acc = 3
            start = r + period * ((length - 1 - r) // period)
            for t in range(start, -1, -period):
                mask = seq.masks[sid][t]
                if acc & mask == 0:
                    # everything at or below t in this class must sit in
                    # the once-used prefix
                    if t + 1 > need:
                        need = t + 1
                    break
                acc &= mask
    return need


def arcs_at(seq, t: int, sid: str) -> tuple[int, ...]:
    """The arcs in ``seq``'s set of state ``sid`` at remaining time t,
    which is elapsed step ``seq.length - t``: (0,), (1,) or (0, 1)."""
    return ((), (0,), (1,), (0, 1))[seq.masks[sid][seq.length - t]]


def reference_strategy_rows(arcs: dict[str, bytes], horizon: int) -> list[tuple[int, str, int]]:
    """(remaining, state id, arc) per choice of ``markov_arcs``' bytes,
    remaining-time major over the sorted state ids."""
    by_state = sorted(arcs.items())
    return [(t, sid, a[t - 1]) for t in range(1, horizon + 1) for sid, a in by_state]


def reference_dumps(value) -> str:
    """The CLI's indented JSON as the stdlib encoder renders it."""
    return json.dumps(jsonable(value), indent=2, ensure_ascii=False)


def reference_min_counter_memory(
    g: Game,
    horizon: int,
    epsilon: Dyadic,
    max_mem: int,
    player: int = 1,
    guard: int = 2_000_000,
) -> MinMemoryResult:
    """Least memory-state count of an epsilon-optimal counter strategy.

    Enumerates every split N + p = m for m = 1..max_mem and every
    action map over (memory, controlled state); each candidate is
    evaluated exactly on the memory product from the start state.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    controlled = sorted(g.controlled_ids(player))
    width = len(controlled)
    planned = sum(m * (1 << (width * m)) for m in range(1, max_mem + 1))
    if planned > guard:
        raise GuardExceeded(
            f"{planned} candidate automata exceed the enumeration guard {guard}"
        )
    optimum = final_values(g, horizon)[g.start]
    target = optimum - epsilon
    for m in range(1, max_mem + 1):
        for period in range(1, m + 1):
            initial = m - period
            for bits in itertools.product((0, 1), repeat=width * m):
                actions = {
                    (mem, sid): bits[mem * width + k]
                    for mem in range(m)
                    for k, sid in enumerate(controlled)
                }
                cs = CounterStrategy(initial=initial, period=period, actions=actions)
                value = evaluate_counter(g, horizon, cs, player=player).value
                if value >= target:
                    return MinMemoryResult(m, cs, optimum, target)
    return MinMemoryResult(None, None, optimum, target)


def reference_solve_infinite(g: Game, cap: int = 12) -> InfiniteSolution:
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
        s1 = dict(zip(ids1, picks1))
        worst: dict[str, Fraction] | None = None
        for picks2 in itertools.product((0, 1), repeat=len(ids2)):
            s2 = dict(zip(ids2, picks2))
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


def full_game_counter_value(
    g: Game, horizon: int, cs: CounterStrategy, player: int = 1, free: bool = False
) -> Dyadic:
    """Value at (memory 0, start) of a counter strategy, from one sweep
    of every state of the game along its arc rows."""
    fixed = solver._counter_rows(g, horizon, cs, player, free)
    rows = solver._sweep(g.states, horizon, (horizon,), fixed=fixed, ids=(g.start,))
    return rows[horizon][g.start]


def memoryless_markov(player: int, arcs: dict[str, int], horizon: int) -> MarkovStrategy:
    """Player ``player``'s memoryless strategy ``arcs`` as a Markov
    strategy to ``horizon``, built from one dict entry per cell, which
    values_at plays on the unfixed game through its ``fixed`` rows.  Each
    row holds one arc throughout, so the sweep places it once as
    Game.fix's coin and settles.  An arc not 0 or 1 is refused with
    StrategyError when the strategy is built, and a state ``arcs`` leaves
    out when values_at sweeps it."""
    choices = {(t, sid): arc for t in range(1, horizon + 1) for sid, arc in arcs.items()}
    return MarkovStrategy(player, horizon, choices)


def full_game_memoryless_horizon(
    g: Game, label: str = "game", eps_exponents=(1, 2, 3, 4, 5, 6), skip: bool = True
) -> tuple[dict, str, dict, int]:
    """(params, verdict, evidence, sweeps) of the memoryless-horizon
    check with both sweeps over every state, the masks of every max
    state, and sigma played as a Markov strategy on the unfixed game
    (``memoryless_markov``).  With ``skip`` false, sigma is played even
    where its arc is optimal at every step."""
    exponents = sorted(set(eps_exponents))
    params = {"game": label, "eps_exponents": exponents}
    n = len(g.states)
    solution = solve_infinite(g)
    horizons = {j: 2 * j * (1 << n) for j in exponents}
    checkpoints = set(horizons.values())
    arcs = solution.strategy
    masks = {sid: bytearray() for sid in arcs}
    try:
        best_rows = values_at(g, checkpoints, sets=masks)
    except GuardExceeded:
        masks = None
        best_rows = values_at(g, checkpoints)
    played_rows, sweeps = best_rows, 1
    needed = masks is None or any((b"\2", b"\1")[arc] in masks[sid] for sid, arc in arcs.items())
    if needed or not skip:
        strategy = memoryless_markov(1, arcs, max(checkpoints))
        played_rows, sweeps = values_at(g, checkpoints, strategy=strategy), 2
    rows = []
    for j in exponents:
        optimal = best_rows[horizons[j]][g.start]
        achieved = played_rows[horizons[j]][g.start]
        rows.append(
            {
                "eps": Dyadic(1, j),
                "horizon": horizons[j],
                "optimal": optimal,
                "achieved": achieved,
                "ok": achieved >= optimal - Dyadic(1, j),
            }
        )
    evidence = {"states": n, "strategy": arcs, "rows": rows}
    return params, "pass" if all(row["ok"] for row in rows) else "fail", evidence, sweeps


def sub_arena_samples(count: int = 60):
    """``count`` random arenas of 2-10 states, each as drawn and with
    its min states as coins (max's MDP), each from every state as the
    start, the terminal included."""
    rng = random.Random(29)
    coin = {StateKind.MIN: StateKind.COIN}
    for _ in range(count):
        g = random_game(rng.randint(2, 10), rng)
        mdp = tuple(State(s.id, coin.get(s.kind, s.kind), s.arcs) for s in g.states)
        for states in (g.states, mdp):
            for s in states:
                yield Game(states, s.id)


def reference_extract_markov(
    g: Game, horizon: int, player: int = 1, tiebreak: str = "lo"
) -> MarkovStrategy:
    """One optimal Markov strategy, ties broken by arc index: the
    markov_arcs bytes as a (t, state id) -> arc table."""
    arcs = markov_arcs(g, horizon, player, tiebreak).items()
    choices = {(t, sid): a[t - 1] for t in range(1, horizon + 1) for sid, a in arcs}
    return MarkovStrategy(player=player, horizon=horizon, choices=choices)


def reference_from_markov(strategy: MarkovStrategy) -> CounterStrategy:
    """Minimal counter strategy replaying a Markov strategy exactly, its
    arcs read per cell into singleton action sets (mask 1 + arc)."""
    horizon = strategy.horizon
    ids = tuple(sorted({sid for _, sid in strategy.choices}))
    arcs = [strategy.action(horizon - t, sid) for t in range(horizon) for sid in ids]
    flat = bytes(1 + arc for arc in arcs)  # t-major; state k at k::len(ids)
    masks = {sid: flat[k :: len(ids)] for k, sid in enumerate(ids)}
    return minimal_period(ActionSetSequence(horizon, masks)).witness


def reference_to_markov(cs: CounterStrategy, horizon: int, player: int = 1) -> MarkovStrategy:
    """Unrolled view of a counter strategy as a remaining-time strategy,
    over the states it has actions for, one dict entry per cell."""
    ids = sorted({sid for _, sid in cs.actions})
    choices = {
        (horizon - t, sid): cs.action_at(t, sid)
        for t in range(horizon)
        for sid in ids
    }
    return MarkovStrategy(player=player, horizon=horizon, choices=choices)


def reference_markov_rows(choices: dict, horizon: int, player: int = 1) -> dict[str, bytes]:
    """The arc rows ``MarkovStrategy(player, horizon, choices)`` holds,
    read one cell at a time: for t = 1..horizon, for each state the keys
    name, in first-seen order, the arc at (t, state); the first cell
    with no entry, or with an arc other than the int 0 or 1, raises
    StrategyError."""
    ids = list(dict.fromkeys(sid for _, sid in choices))
    rows = {sid: [] for sid in ids}
    for t in range(1, horizon + 1):
        for sid in ids:
            if (t, sid) not in choices:
                raise StrategyError(
                    f"markov strategy (player {player}) has no entry for t={t}, state {sid!r}"
                )
            arc = choices[(t, sid)]
            if type(arc) is not int or arc not in (0, 1):
                raise StrategyError(f"arc index {arc!r} at t={t}, state {sid!r}")
            rows[sid].append(arc)
    return {sid: bytes(row) for sid, row in rows.items()}


_COIN = StateKind.COIN
_MAX = StateKind.MAX
_MIN = StateKind.MIN


def reference_simulate(
    g: Game,
    horizon: int,
    strategy,
    trials: int,
    seed: int,
    opponent=None,
) -> int:
    """How many of ``trials`` plays reach the terminal within the horizon,
    each strategy asked for its arc, and that arc checked, at every step
    of a play."""
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
        actors[_MAX] = actor(strategy, 1)
    if g.controlled_ids(2):
        actors[_MIN] = actor(opponent, 2)

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
            if s.kind is _COIN:
                arc = rng.getrandbits(1)
            else:
                arc = actors[s.kind](elapsed, pos)
                if arc not in (0, 1):
                    t = horizon - elapsed
                    raise StrategyError(f"arc index {arc!r} at t={t}, state {pos!r}")
            pos = s.arcs[arc]
            if pos == target:
                hits += 1
                break
    return hits
