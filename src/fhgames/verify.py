"""Report-producing checks of the library's quantitative claims.

Each check recomputes one fact from scratch at desk scale — growth
ratios of n-step Fibonacci numbers, run-probability bounds, exact gadget
values, minimal periods, memory lower bounds — and emits a CheckReport
whose evidence suffices to recompute the verdict.  A check's body
returns (params, verdict, evidence); the ``_check`` decorator times the
call and builds the report.

Verdicts: comparisons between rationals are exact and can only pass or
fail.  Comparisons against a power of e go through interval enclosures
and may come back "inconclusive" when the enclosure is too wide (never
a wrong pass).  A failure at parameters outside a claim's stated regime
is reported as "informational" rather than "fail".
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from typing import NamedTuple

from .counter import least_initial_for_period, minimal_period
from .errors import GuardExceeded
from .game import Game, store
from .gadgets import make_F, make_G, make_M, primes, primorial, random_game
from .numeric import (
    Dyadic,
    IntervalEnclosure,
    ONE,
    exp_enclosure,
    fib_nstep,
    run_probability,
    run_threshold,
)
from .oracle import RNG_ALGORITHM, min_counter_memory, solve_infinite
from .solver import optimal_action_sets, values_at

__all__ = [
    "CheckReport",
    "check_fib_ratio",
    "check_threshold_growth",
    "check_threshold_power_bounds",
    "check_doubling",
    "check_below_threshold",
    "check_above_threshold",
    "check_cycle_values",
    "check_primorial_period",
    "check_shortcut_memory",
    "check_memoryless_horizon",
    "period_scan",
    "latest_residue_hit",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
INFORMATIONAL = "informational"

DEFAULT_WIDTH = Fraction(1, 10**12)
BELOW_DEFAULT_DS = (Fraction(1, 5), Fraction(2, 5), Fraction(4, 5))
ABOVE_DEFAULT_DS = (Fraction(1, 5),)


class CheckReport(NamedTuple):
    name: str
    params: dict
    verdict: str
    evidence: dict
    runtime: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.verdict in (PASS, INFORMATIONAL)

    def document(self, include_runtime: bool = False) -> dict:
        """The report's fields, holding the values the check produced."""
        out = {
            "name": self.name,
            "params": self.params,
            "verdict": self.verdict,
            "evidence": self.evidence,
        }
        if include_runtime:
            out["runtime_seconds"] = self.runtime
        return out


def _check(name: str):
    """Decorator: the check, which returns (params, verdict, evidence),
    becomes one returning the CheckReport ``name``, timed over the call."""

    def decorate(check):
        @functools.wraps(check)
        def report(*args, **kwargs) -> CheckReport:
            started = time.perf_counter()
            params, verdict, evidence = check(*args, **kwargs)
            return CheckReport(name, params, verdict, evidence, time.perf_counter() - started)

        return report

    return decorate


def _combine(outcomes: list[str]) -> str:
    """fail > inconclusive > informational > pass."""
    for verdict in (FAIL, INCONCLUSIVE, INFORMATIONAL):
        if verdict in outcomes:
            return verdict
    return PASS


def _le_enclosure(lhs: Fraction, enclosure: IntervalEnclosure) -> str:
    """Verdict of the claim lhs <= (enclosed constant)."""
    if lhs <= enclosure.lower:
        return PASS
    if lhs > enclosure.upper:
        return FAIL
    return INCONCLUSIVE


def _ge_enclosure(lhs: Fraction, enclosure: IntervalEnclosure) -> str:
    """Verdict of the claim lhs >= (enclosed constant)."""
    if lhs >= enclosure.upper:
        return PASS
    if lhs < enclosure.lower:
        return FAIL
    return INCONCLUSIVE


def _demote(verdict: str, in_regime: bool) -> str:
    return INFORMATIONAL if verdict == FAIL and not in_regime else verdict


# -- numeric-kernel checks ----------------------------------------------


@_check("fib-ratio")
def check_fib_ratio(i: int, a_max: int = 256) -> CheckReport:
    """Growth-ratio bounds on i-step Fibonacci numbers.

    F_b <= 2 F_{b-1} for 3 <= b <= a_max, and the sharper F_a <=
    (2 - 2^{-i-1}) F_{a-1} for i+3 <= a <= a_max, by exact integer
    cross-multiplication; i < 1 or an empty sharp range raises ValueError.
    """
    if i < 1:
        raise ValueError(f"i must be at least 1, got {i}")
    if a_max < i + 3:
        raise ValueError(f"a_max must be at least i+3 = {i + 3}, got {a_max}")
    params = {"i": i, "a_max": a_max}
    scale = 1 << (i + 1)
    sharp_factor = 2 * scale - 1  # (2 - 2^{-i-1}) * 2^{i+1}
    failures = []
    for b in range(3, a_max + 1):
        if fib_nstep(i, b) > 2 * fib_nstep(i, b - 1):
            failures.append({"claim": "doubling", "index": b})
    for a in range(i + 3, a_max + 1):
        if fib_nstep(i, a) * scale > sharp_factor * fib_nstep(i, a - 1):
            failures.append({"claim": "sharp", "index": a})
    evidence = {
        "doubling_range": [3, a_max],
        "sharp_range": [i + 3, a_max],
        "failures": failures,
    }
    return params, FAIL if failures else PASS, evidence


@_check("threshold-growth")
def check_threshold_growth(i_max: int = 14) -> CheckReport:
    """The half-probability threshold grows like 2^(i-2) + i, for
    i = 1..i_max; ``i_max`` below 1 leaves nothing to check and raises
    ValueError."""
    if i_max < 1:
        raise ValueError(f"i_max must be at least 1, got {i_max}")
    params = {"i_max": i_max}
    rows = []
    for i in range(1, i_max + 1):
        k = run_threshold(i)
        bound = Fraction(1, 4) * 2**i + i  # 2^(i-2) + i, exact also for i < 2
        rows.append({"i": i, "k": k, "bound": bound, "ok": Fraction(k) >= bound})
    return params, PASS if all(row["ok"] for row in rows) else FAIL, {"rows": rows}


@_check("threshold-power-bounds")
def check_threshold_power_bounds(
    i: int, width: Fraction = DEFAULT_WIDTH
) -> CheckReport:
    """Sandwich bounds on (1 - 2^{-i-2})^k at the threshold k.

    Exact rational lower bounds (>= 1/4 and >= 1/2) and interval upper
    bounds against e^{-1/8}.  Stated regime: i >= 12.
    """
    params = {"i": i, "width": width}
    in_regime = i >= 12
    k = run_threshold(i)
    base = Fraction((1 << (i + 2)) - 1, 1 << (i + 2))
    power_km = base ** (k - i)
    power_k = power_km * base**i  # one big power instead of two
    e_bound = exp_enclosure(Fraction(-1, 8), width)
    outcomes = {
        "power_k_ge_quarter": PASS if power_k >= Fraction(1, 4) else FAIL,
        "power_km_ge_half": PASS if power_km >= Fraction(1, 2) else FAIL,
        "power_k_le_e": _le_enclosure(power_k, e_bound),
        "power_km_le_e": _le_enclosure(power_km, e_bound),
    }
    verdict = _demote(_combine(list(outcomes.values())), in_regime)
    evidence = {
        "k": k,
        "base": base,
        "power_k_approx": float(power_k),
        "power_km_approx": float(power_km),
        "e_minus_eighth": e_bound,
        "outcomes": outcomes,
        "in_regime": in_regime,
    }
    return params, verdict, evidence


@_check("doubling")
def check_doubling(i: int, t_max: int = 256) -> CheckReport:
    """Run probabilities at doubled horizons: p(2t - 2i) <= 2 p(t), i <= t <= t_max."""
    if t_max < i:
        raise ValueError(f"t_max must be at least i = {i}, got {t_max}")
    params = {"i": i, "t_max": t_max}
    failures = []
    for t in range(i, t_max + 1):
        if run_probability(i, 2 * t - 2 * i) > 2 * run_probability(i, t):
            failures.append(t)
    evidence = {"range": [i, t_max], "failures": failures}
    return params, FAIL if failures else PASS, evidence


def _threshold_fraction_checks(
    i: int, ds: list[Fraction], width: Fraction, above: bool
) -> tuple[dict, str, dict]:
    ds = [Fraction(d) for d in ds]
    params = {"i": i, "d_list": ds, "width": width}
    k = run_threshold(i)
    rows = []
    for d in ds:
        if above:
            # p(ceil((1+d) k)) >= 1 - e^{-d/8} / 2
            index, x = -((-(1 + d) * k) // 1), -d / 8
            in_regime = i >= 12 and d > 0
        else:
            # p(floor(d k)) <= 1 - e^{(1-d)/8} / 2
            index, x = (d * k) // 1, (1 - d) / 8
            in_regime = i >= 12 and Fraction(1, 10) < d < 1
        if index < 0 or abs(x) > 1:  # no toss count, or e^x out of exp_enclosure's reach
            domain = f"(-1 - 1/k, 8] for the threshold k = {k}" if above else "[0, 9]"
            raise ValueError(f"d must be in {domain}, got {d}")
        enclosure = exp_enclosure(x, width)
        prob = run_probability(i, index).as_fraction()
        lo = 1 - enclosure.upper / 2
        hi = 1 - enclosure.lower / 2
        bound = IntervalEnclosure(lo, hi)
        verdict = (_ge_enclosure if above else _le_enclosure)(prob, bound)
        verdict = _demote(verdict, in_regime)
        rows.append(
            {
                "d": d,
                "index": index,
                "probability": prob,
                "probability_approx": float(prob),
                "bound": bound,
                "verdict": verdict,
                "in_regime": in_regime,
            }
        )
    evidence = {"k": k, "rows": rows}
    return params, _combine([row["verdict"] for row in rows]), evidence


@_check("below-threshold")
def check_below_threshold(
    i: int, ds=BELOW_DEFAULT_DS, width: Fraction = DEFAULT_WIDTH
) -> CheckReport:
    """Below a d-fraction of the threshold the run probability stays
    under 1 - e^{(1-d)/8}/2.  Stated regime: i >= 12, 1/10 < d < 1."""
    return _threshold_fraction_checks(i, list(ds), width, above=False)


@_check("above-threshold")
def check_above_threshold(
    i: int, ds=ABOVE_DEFAULT_DS, width: Fraction = DEFAULT_WIDTH
) -> CheckReport:
    """Beyond (1+d) times the threshold the run probability exceeds
    1 - e^{-d/8}/2.  Stated regime: i >= 12, d > 0."""
    return _threshold_fraction_checks(i, list(ds), width, above=True)


# -- gadget checks -------------------------------------------------------


def latest_residue_hit(t: int, residue: int, modulus: int) -> int:
    """Largest k' in 1..t with k' = residue (mod modulus), else 0."""
    r = residue % modulus
    candidate = t - ((t - r) % modulus)
    return candidate if candidate >= 1 else 0


@_check("cycle-values")
def check_cycle_values(p: int, t_max: int = 200) -> CheckReport:
    """Exact values of the cycle gadget.

    Numbered state j at horizon t must be worth 1 - 2^{-f} where f is
    the latest horizon <= t in j's residue class mod p (0 if none); j*
    is worth 1 from horizon j on and 0 before; t runs over 0..t_max.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be non-negative, got {t_max}")
    params = {"p": p, "t_max": t_max}
    rows = values_at(make_G(p), range(t_max + 1))
    mismatches = []
    for t in range(t_max + 1):
        for j in range(1, p + 1):
            f = latest_residue_hit(t, j, p)
            expected = Dyadic((1 << f) - 1, f)
            got = rows[t][str(j)]
            if got != expected:
                mismatches.append({"t": t, "state": str(j), "got": got, "want": expected})
        for j in range(1, p):
            want = ONE if t >= j else Dyadic(0)
            got = rows[t][f"{j}s"]
            if got != want:
                mismatches.append({"t": t, "state": f"{j}s", "got": got, "want": want})
    evidence = {"checked_states": 2 * p - 1, "mismatches": mismatches[:10]}
    return params, FAIL if mismatches else PASS, evidence


@_check("primorial-period")
def check_primorial_period(k: int) -> CheckReport:
    """Minimal period of jointly optimal play in the parallel gadget.

    The optimal action sets of F(k) solved to horizon 2 * primorial + 10
    (the params' "slack") must admit a counter automaton with period
    exactly the primorial of k (at zero initial memories), every smaller
    period must need strictly more total memory, and the non-terminal
    state count must be twice the sum of the first k primes.  The action
    sets refuse more than solver.CELL_CAP cells, as everywhere else.
    """
    params = {"k": k, "slack": 10}
    target_period = primorial(k)
    horizon = 2 * target_period + params["slack"]
    g = make_F(k)
    non_terminal = len(g.states) - 1
    expected_states = 2 * sum(primes(k))
    seq = optimal_action_sets(g, horizon)[0]  # the maximiser's sets
    result = minimal_period(seq)
    total = result.initial + result.period
    blocked = []
    for candidate in range(1, target_period):
        if candidate <= len(result.initials):  # N(p) of the periods the search tried
            need = result.initials[candidate - 1]
        else:
            need = least_initial_for_period(seq, candidate)
        blocked.append(
            {"period": candidate, "least_initial": need, "total": need + candidate}
        )
    smaller_all_worse = all(row["total"] > total for row in blocked)
    ok = (
        result.period == target_period
        and non_terminal == expected_states
        and smaller_all_worse
    )
    evidence = {
        "horizon": horizon,
        "period": result.period,
        "initial": result.initial,
        "expected_period": target_period,
        "non_terminal_states": non_terminal,
        "expected_states": expected_states,
        "smaller_periods_all_need_more_memory": smaller_all_worse,
        "smaller_period_sample": blocked[:5],
    }
    return params, PASS if ok else FAIL, evidence


@_check("shortcut-memory")
def check_shortcut_memory(c: int) -> CheckReport:
    """Memory needed to stay 2^-c-optimal in the shortcut gadget.

    Exact branch-and-bound search (min_counter_memory) over counter
    automata with at most c memory states, at horizon c - 1, within
    oracle.SWEEP_CAP sweeps (past it, GuardExceeded).  The
    claimed bound is c - 2 memory states; the check reports the exact
    minimum found and fails if it is smaller.  Regime: c >= 5 (below that the horizon is too short
    for the structure to bind, and the verdict is informational,
    whether or not the search meets the claim).

    The horizon counts arc traversals and elapsed step 0 uses memory 0.
    Under that convention the exact minimum at horizon c - 1 is c - 3,
    so the check fails for every c >= 5: elapsed steps 1..c-3 are the
    only forced decisions, and a pure cycle of length c - 3 wraps the
    forced final "h" onto the step-0 slot, which step 0 leaves unused.
    The claimed c - 2 is the exact minimum one traversal later, at
    horizon c.  A c below 1 is refused with ValueError.
    """
    if c < 1:
        raise ValueError(f"c must be at least 1, got {c}")
    params = {"c": c}
    in_regime = c >= 5
    epsilon = Dyadic(1, c)
    result = min_counter_memory(make_M(), c - 1, epsilon, max_mem=c)
    bound = c - 2
    found = result.memory
    verdict = PASS if (found is not None and found >= bound) else FAIL
    if not in_regime:
        verdict = INFORMATIONAL  # a claim of c - 2 <= 2 states binds nothing
    evidence = {
        "horizon": c - 1,
        "epsilon": epsilon,
        "claimed_minimum": bound,
        "found_minimum": found,
        "optimal_value": result.optimum,
        "target_value": result.target,
        "witness": result.witness.to_json_obj() if result.witness else None,
        "in_regime": in_regime,
    }
    return params, verdict, evidence


@_check("memoryless-horizon")
def check_memoryless_horizon(
    g: Game, label: str = "game", eps_exponents=(1, 2, 3, 4, 5, 6)
) -> CheckReport:
    """A memoryless infinite-horizon optimum sigma is epsilon-optimal at
    long horizons: played at horizon 2 * j * 2^n it stays within 2^-j of
    the finite-horizon value at the start state (n counts every state).
    That value reads only g.reachable, so both sweeps run on it; the
    optimal one records its max states' masks.  If sigma's arc is optimal
    at every step, the played rows are the optimal rows, by induction on
    t: the rows agree at t - 1, so coins, min states and sigma's arc
    agree at t.  Otherwise, or if the masks exceed CELL_CAP, a second
    sweep plays sigma, on sub.fix(1, sigma).  Both sweeps settle (see
    the solver module).  Each exponent j (eps = 2^-j) must be at least
    1, and there must be one; otherwise ValueError."""
    exponents = sorted(set(eps_exponents))
    if not exponents:
        raise ValueError("eps_exponents is empty: give at least one exponent j >= 1")
    if exponents[0] < 1:
        raise ValueError(f"eps exponent j must be at least 1, got {exponents[0]}")
    params = {"game": label, "eps_exponents": exponents}
    n = len(g.states)
    solution = solve_infinite(g)
    horizons = {j: 2 * j * (1 << n) for j in exponents}
    checkpoints = set(horizons.values())
    arcs = solution.strategy
    sub = g.reachable
    masks = {sid: bytearray() for sid in sub.controlled_ids(1)}
    try:
        best_rows = values_at(sub, checkpoints, sets=masks)
    except GuardExceeded:  # too many masks to keep: sweep the played rows too
        masks = None
        best_rows = values_at(sub, checkpoints)
    played_rows = best_rows
    # mask 1 = arc 0 only, 2 = arc 1 only: a byte that leaves sigma's arc out
    if masks is None or any((b"\2", b"\1")[arcs[sid]] in row for sid, row in masks.items()):
        played_rows = values_at(sub.fix(1, arcs), checkpoints)
    rows = []
    for j in exponents:
        horizon = horizons[j]
        optimal = best_rows[horizon][g.start]
        achieved = played_rows[horizon][g.start]
        rows.append(
            {
                "eps": Dyadic(1, j),
                "horizon": horizon,
                "optimal": optimal,
                "achieved": achieved,
                "ok": achieved >= optimal - Dyadic(1, j),
            }
        )
    evidence = {
        "states": n,
        "strategy": arcs,
        "rows": rows,
    }
    return params, PASS if all(row["ok"] for row in rows) else FAIL, evidence


# -- exploratory scan ----------------------------------------------------


def _max_player_period(g: Game, horizon: int) -> int:
    # a player without states has no sets and the period 1
    return max(minimal_period(seq).period for seq in optimal_action_sets(g, horizon))


@_check("period-scan")
def period_scan(
    n: int, samples: int, horizon: int, seed: int
) -> CheckReport:
    """Random hunt for optimal-strategy periods beyond 2^n.

    Each sampled n-state arena is solved to the horizon and the minimal
    period of its optimal action sets measured, per player.  Candidates
    whose period exceeds 2^n are re-verified at twice the horizon
    before being flagged; flagged games are embedded in the evidence.
    Either outcome is a pass of the scan itself.
    """
    params = {"n": n, "samples": samples, "horizon": horizon, "seed": seed}
    rng = random.Random(seed)
    threshold = 1 << n
    max_period = 0
    argmax_sample = None
    flagged = []
    for index in range(samples):
        g = random_game(n, rng)
        period = _max_player_period(g, horizon)
        if period > max_period:
            max_period = period
            argmax_sample = index
        if period > threshold:
            confirmed = _max_player_period(g, 2 * horizon)
            if confirmed > threshold:
                flagged.append(
                    {
                        "sample": index,
                        "period": period,
                        "period_at_double_horizon": confirmed,
                        "game": store(g),
                    }
                )
    evidence = {
        "rng": RNG_ALGORITHM,
        "threshold": threshold,
        "max_period": max_period,
        "max_period_sample": argmax_sample,
        "flagged": flagged,
    }
    return params, PASS, evidence
