"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every comparison is exact (dyadic or rational); no tolerances are
bumped at runtime.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import count_sequences_with_run, make_star_chain, play_value
from fhgames.cli import main as cli_main
from fhgames.game import StateKind, load
from fhgames.gadgets import make_H, make_M, primes, random_game
from fhgames.numeric import Dyadic, HALF, ONE, run_probability, run_threshold
from fhgames.oracle import min_counter_memory
from fhgames.solver import values_at
from fhgames.verify import (
    check_above_threshold,
    check_below_threshold,
    check_cycle_values,
    check_doubling,
    check_fib_ratio,
    check_memoryless_horizon,
    check_primorial_period,
    check_threshold_power_bounds,
    period_scan,
)


def report(number: int, name: str, ok: bool, started: float, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    extra = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} "
          f"({time.monotonic() - started:.1f}s){extra}")


def _maximin(g, horizon):
    """Exhaustive max over player-1 Markov strategies of the min over
    player-2 responses, walked as a tree of remaining-time prefixes.

    A node fixes player 1's choices at remaining times 1..k and holds
    the rows v_k (exact Fractions, one per state) that player 2's
    choices at 1..k reach, each stepped once from a row of its parent.
    Player 2 takes every choice at every step when its strategies are
    few enough to enumerate, and otherwise the pointwise least arc, the
    exact best response.  Equal rows are kept once, so a leaf's least
    start value is still the min over every player-2 strategy.
    """
    ids1, ids2 = g.controlled_ids(1), g.controlled_ids(2)
    pos = {sid: i for i, sid in enumerate(g.ids())}
    slot = {sid: i for ids in (ids1, ids2) for i, sid in enumerate(ids)}
    ops = [(s.kind, *(pos[d] for d in s.arcs or ()), slot.get(s.id)) for s in g.states]
    choices1 = list(itertools.product((0, 1), repeat=len(ids1)))
    if len(ids2) * horizon <= 10:
        choices2 = list(itertools.product((0, 1), repeat=len(ids2)))
    else:
        choices2 = [None]

    def step(row, c1, c2):
        out = []
        for kind, *arcs, i in ops:
            if kind is StateKind.TERMINAL:
                out.append(Fraction(1))
                continue
            a, b = row[arcs[0]], row[arcs[1]]
            if kind is StateKind.COIN:
                out.append((a + b) / 2)
            elif kind is StateKind.MAX:
                out.append((a, b)[c1[i]])
            else:
                out.append(min(a, b) if c2 is None else (a, b)[c2[i]])
        return tuple(out)

    def best(k, rows):
        if k == horizon:
            return min(row[pos[g.start]] for row in rows)
        return max(
            best(k + 1, {step(row, c1, c2) for row in rows for c2 in choices2})
            for c1 in choices1
        )

    return best(0, {tuple(Fraction(s.kind is StateKind.TERMINAL) for s in g.states)})


def test_criterion_01_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(0xC0FFEE)
    games = 0
    mismatches = []
    while games < 200:
        g = random_game(rng.randint(2, 5), rng)
        horizon = rng.randint(0, 6)
        # keep the player-1 enumeration within 2^14 strategies
        budget = 14 // max(1, len(g.controlled_ids(1)))
        horizon = min(horizon, budget) if g.controlled_ids(1) else horizon
        games += 1
        solved = values_at(g, range(horizon + 1))[horizon][g.start].as_fraction()
        enumerated = _maximin(g, horizon)
        if solved != enumerated:
            mismatches.append((games, solved, enumerated))
    ok = not mismatches
    report(1, "oracle equivalence on 200 random games", ok, started,
           f"mismatches={mismatches[:3]}")
    assert ok, mismatches


def test_criterion_02_cycle_gadget_values():
    started = time.monotonic()
    verdicts = {p: check_cycle_values(p, 200).verdict for p in (2, 3, 5, 7)}
    ok = all(v == "pass" for v in verdicts.values())
    report(2, "cycle-gadget value formula to t=200", ok, started, f"{verdicts}")
    assert ok, verdicts


def test_criterion_03_run_probabilities():
    started = time.monotonic()
    solver_ok = True
    for i in range(1, 9):
        chain = make_star_chain(i)
        rows = values_at(chain, range(65))
        for t in range(65):
            if rows[t][f"{i}s"] != run_probability(i, t):
                solver_ok = False
    counting_ok = True
    for i in range(1, 5):
        for t in range(0, 17):
            expected = Dyadic(count_sequences_with_run(i, t), t)
            if run_probability(i, t) != expected:
                counting_ok = False
    ok = solver_ok and counting_ok
    report(3, "run probabilities vs solver and enumeration", ok, started,
           f"solver={solver_ok} counting={counting_ok}")
    assert ok


def test_criterion_04_threshold():
    started = time.monotonic()
    # independent derivation of the smallest thresholds by enumeration
    def brute_threshold(i):
        t = 1
        while 2 * count_sequences_with_run(i, t) < (1 << t):
            t += 1
        return t + 1

    anchors_ok = (
        run_threshold(1) == brute_threshold(1) == 2
        and run_threshold(2) == brute_threshold(2) == 5
    )
    bounds = {}
    for i in range(2, 15):
        k = run_threshold(i)
        bounds[i] = (k, Fraction(k) >= Fraction(2**i, 4) + i)
    growth_ok = all(ok for _, ok in bounds.values())
    twelve_ok = bounds[12][0] >= 1036
    ok = anchors_ok and growth_ok and twelve_ok
    report(4, "threshold anchors and exponential growth", ok, started,
           f"k(12)={bounds[12][0]}")
    assert ok, (anchors_ok, bounds)


def test_criterion_05_primorial_periods():
    started = time.monotonic()
    expected = {1: 2, 2: 6, 3: 30, 4: 210}
    results = {}
    ok = True
    for k, period in expected.items():
        rep = check_primorial_period(k)
        results[k] = rep.evidence["period"]
        ok = ok and rep.verdict == "pass" and rep.evidence["period"] == period
        ok = ok and rep.evidence["non_terminal_states"] == 2 * sum(primes(k))
        ok = ok and rep.evidence["smaller_periods_all_need_more_memory"]
    report(5, "primorial periods 2,6,30,210 with smaller periods infeasible",
           ok, started, f"{results}")
    assert ok, results


def _shortcut_play_value(g, horizon, initial, period, arcs):
    """Value of the rho automaton (N=initial, p=period) that picks arc
    ``arcs[m]`` at M's one choice state "x" in memory m, evaluated by
    conftest.play_value; memory after t traversals is t up to N+p-1 and
    then cycles through N..N+p-1."""
    size = initial + period

    def memory(t):
        return t if t < size else initial + (t - initial) % period

    table = {(horizon - t, "x"): arcs[memory(t)] for t in range(horizon)}
    return play_value(g, horizon, table, {})


def test_criterion_06_shortcut_gadget_memory():
    started = time.monotonic()
    g = make_M()
    rows = values_at(g, range(4))
    values_ok = rows[2]["x"] == HALF and rows[3]["x"] == ONE
    found = {}
    expected = {}
    optimum_ok = witnesses_ok = smaller_short = True
    for c in (5, 6, 7):
        # T counts arc traversals and elapsed step 0 uses memory 0: the
        # minimum is c-3 at horizon c-1 (elapsed steps 1..c-3 are the
        # only forced decisions, and a pure cycle of length c-3 wraps
        # the forced final "h" onto the unused step-0 slot), and the
        # paper's c-2 is the minimum one traversal later, at horizon c.
        expected[c, c - 1] = c - 3
        expected[c, c] = c - 2
        for horizon in (c - 1, c):
            result = min_counter_memory(g, horizon, Dyadic(1, c), max_mem=c)
            found[c, horizon] = result.memory
            best = max(
                play_value(g, horizon, {(r, "x"): bits[r - 1]
                                        for r in range(1, horizon + 1)}, {})
                for bits in itertools.product((0, 1), repeat=horizon)
            )
            target = best - Fraction(1, 2**c)
            optimum_ok = (optimum_ok and result.optimum.as_fraction() == best
                          and result.target.as_fraction() == target)
            w = result.witness
            witnesses_ok = witnesses_ok and w is not None and _shortcut_play_value(
                g, horizon, w.initial, w.period,
                [w.actions[(m, "x")] for m in range(w.size)],
            ) >= target
            smaller_short = smaller_short and all(
                _shortcut_play_value(g, horizon, size - period, period, arcs) < target
                for size in range(1, result.memory or 1)
                for period in range(1, size + 1)
                for arcs in itertools.product((0, 1), repeat=size)
            )
    memory_ok = found == expected
    ok = values_ok and memory_ok and optimum_ok and witnesses_ok and smaller_short
    before = {c: found[c, c - 1] for c in (5, 6, 7)}
    at_c = {c: found[c, c] for c in (5, 6, 7)}
    report(6, "shortcut gadget: values and exact memory minima", ok, started,
           f"values_ok={values_ok}, minimal memories at T=c-1 {before} "
           f"vs c-3, at T=c {at_c} vs c-2")
    assert values_ok
    assert found == expected, found
    assert optimum_ok and witnesses_ok and smaller_short, (
        optimum_ok, witnesses_ok, smaller_short)


def test_criterion_07_memoryless_horizon():
    started = time.monotonic()
    failures = []
    rep = check_memoryless_horizon(make_M(), label="M")
    if rep.verdict != "pass":
        failures.append("M")
    rep = check_memoryless_horizon(make_H(4), label="H:4")
    if rep.verdict != "pass":
        failures.append("H:4")
    rng = random.Random(1234)
    for index in range(50):
        g = random_game(rng.randint(2, 4), rng)
        rep = check_memoryless_horizon(g, label=f"random-{index}")
        if rep.verdict != "pass":
            failures.append(f"random-{index}")
    ok = not failures
    report(7, "memoryless strategies epsilon-optimal at long horizons",
           ok, started, f"failures={failures}")
    assert ok, failures


def test_criterion_08_inequality_suites():
    started = time.monotonic()
    outcomes = {}
    outcomes["fib-ratio"] = all(
        check_fib_ratio(i, 4096).verdict == "pass" for i in range(1, 17)
    )
    outcomes["doubling"] = all(
        check_doubling(i, 256).verdict == "pass" for i in range(1, 9)
    )
    for i in (12, 13):
        outcomes[f"power-bounds-{i}"] = check_threshold_power_bounds(i).verdict == "pass"
        outcomes[f"below-{i}"] = check_below_threshold(i).verdict == "pass"
        outcomes[f"above-{i}"] = check_above_threshold(i).verdict == "pass"
    ok = all(outcomes.values())
    report(8, "inequality suites (ratios, doubling, threshold bounds)",
           ok, started, f"{outcomes}")
    assert ok, outcomes


def test_criterion_09_cli_determinism(capsys):
    started = time.monotonic()
    fixtures = [
        ["scan", "-n", "5", "--samples", "40", "-T", "64", "--seed", "21", "--json"],
        ["simulate", "--gadget", "M", "-T", "5", "--trials", "1000",
         "--seed", "8", "--json"],
        ["verify", "threshold-growth", "--imax", "8", "--json"],
        ["verify", "primorial-period", "--k", "2", "--json"],
        ["solve", "--gadget", "G:5", "-T", "12", "--json"],
        ["oracle", "--gadget", "M", "--json"],
    ]
    stable = True
    for argv in fixtures:
        cli_main(argv)
        first = capsys.readouterr().out.encode()
        cli_main(argv)
        second = capsys.readouterr().out.encode()
        if first != second:
            stable = False
    with capsys.disabled():
        report(9, "CLI JSON byte-determinism", stable, started)
    assert stable


def test_criterion_10_conjecture_scan():
    started = time.monotonic()
    rep = period_scan(6, 500, 128, seed=2025)
    flagged = rep.evidence["flagged"]
    for entry in flagged:
        load(entry["game"])  # counterexample candidates must be re-loadable
    ok = rep.verdict == "pass"
    report(10, "period scan over 500 random 6-state games", ok, started,
           f"max_period={rep.evidence['max_period']} flagged={len(flagged)}")
    assert ok
