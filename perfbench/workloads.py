"""The benchmark's workloads: seeded inputs and the queries issued on them.

A query is one user-level request: one in-process ``fhgames.cli.main``
call with stdout captured, or one public API call that answers one
question.  Each workload builds its inputs from the seed during set-up
and returns the query chains one round issues, plus its headline
queries: the paper's long experiments, which take longer than a whole
round and are issued once per traced run instead of in every round.

Every query carries a ``render`` that turns its raw result into the
canonical bytes the correctness gate hashes, and optionally a ``check``:
a cheap cross-check of the exact result that the gate runs once, outside
the query's timer.  Library functions are always looked up on their
module at call time, so the traced run can wrap them in place.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

NUMERIC_CHECKS = (
    "threshold-power-bounds",
    "below-threshold",
    "above-threshold",
    "fib-ratio",
    "doubling",
)


def _spread(lo: int, hi: int, count: int) -> tuple[int, ...]:
    """``count`` integers spread geometrically from lo to hi."""
    return tuple(round(lo * (hi / lo) ** (j / (count - 1))) for j in range(count))


# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps
# the benchmark's own tests fast while running every code path.
SIZES = {
    "full": {
        "arena_states": _spread(20, 200, 40),
        "small_states": (6, 7, 8) * 32,
        "h_gadgets": (3,),
        "numeric_i": (12, 13, 14),
        "product_gadgets": (("H4", 120), ("M", 100)),
        "replicate_arenas": 240,
        "replicate_states": 8,
        "replicate_horizon": 32,
        "shortcut_c": (5, 6, 7, 8, 9, 10),
        "cycle_primes": (11, 13, 17, 19, 23, 29, 31),
        "cycle_horizon": 200,
        # (k, T) of F(k): T = 2*primorial(k)+10, and F(4) at F(5)'s horizon
        "parallel": ((2, 22), (3, 70), (4, 430), (4, 4630)),
        # issued once per traced run, before its rounds
        "headline_h": 4,
        "headline_parallel": (5, 4630),
    },
    "tiny": {
        "arena_states": (5, 8, 12),
        "small_states": (4, 5),
        "h_gadgets": (2,),
        "numeric_i": (4,),
        "product_gadgets": (("H2", 30), ("M", 20)),
        "replicate_arenas": 2,
        "replicate_states": 6,
        "replicate_horizon": 16,
        "shortcut_c": (5,),
        "cycle_primes": (3,),
        "cycle_horizon": 20,
        "parallel": ((1, 14),),
        "headline_h": 2,
        "headline_parallel": (2, 22),
    },
}


class GateError(Exception):
    """A query's result is not the expected one."""


@dataclass
class Query:
    qid: str
    call: Callable[[], object]
    render: Callable[[object], bytes]
    check: Callable[[object], bool] | None = None
    seeded: bool = True
    cli: bool = False


def _plain(value):
    """JSON-ready form of a result.  Exact numbers are written in hex:
    the values at long horizons have tens of thousands of digits, past
    Python's limit on int-to-decimal conversion."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "mantissa"):  # Dyadic
        return f"{value.mantissa:x}/2^{value.exponent}"
    if isinstance(value, Fraction):
        return f"{value.numerator:x}/{value.denominator:x}"
    return {"lower": _plain(value.lower), "upper": _plain(value.upper)}  # IntervalEnclosure


def _canonical(value) -> bytes:
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":")).encode()


def _report_bytes(report) -> bytes:
    return _canonical([report.name, report.params, report.verdict, report.evidence])


def cli_query(fh, qid, argv, seeded, check=None) -> Query:
    """A query that runs the command line in-process, stdout captured."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fh.cli.main(argv)
        return code, out.getvalue()

    def render(raw):
        code, text = raw
        if code != 0:
            raise GateError(f"exit code {code}")
        return text.encode()

    def check_json(raw):
        return check(json.loads(raw[1])["result"])

    return Query(qid, call, render, check_json if check else None, seeded, cli=True)


# -- arena-batch ------------------------------------------------------------


def arena_batch(fh, seed, sizes, workdir, plan) -> tuple[list[list[Query]], list[Query]]:
    """Many states at a moderate horizon: solver sweep, game.load and the
    CLI's JSON rendering (multi-MB for ``strategy``)."""
    rng = random.Random(seed)
    chains = []
    for j, n in enumerate(sizes["arena_states"]):
        g = fh.gadgets.random_game(n, rng)
        doc = f"arena{j}.json"
        with open(os.path.join(workdir, doc), "w", encoding="utf-8") as handle:
            handle.write(fh.game.store(g))
        ctx = {}

        def check_solve(result, g=g, ctx=ctx):
            ctx["start_value"] = result["values"][g.start]
            return result["start"] == g.start

        def check_strategy(result, g=g, n=n, ctx=ctx):
            # the extracted strategy must attain the optimal start value
            choices = {(c["remaining"], c["state"]): c["arc"] for c in result["choices"]}
            strat = fh.solver.MarkovStrategy(player=1, horizon=n, choices=choices)
            value = fh.solver.evaluate_fixed_final(g, n, strat)[g.start]
            return str(value) == ctx.get("start_value")

        chains.append([
            cli_query(
                fh,
                f"{command}:arena{j}:n{n}",
                [command, "-g", doc, "-T", str(n), "--json"],
                seeded=True,
                check=check,
            )
            for command, check in (("solve", check_solve), ("strategy", check_strategy))
        ])
    return chains, []


# -- deep-horizon -----------------------------------------------------------


def _memoryless_check(report) -> bool:
    # a memoryless strategy can never beat the finite-horizon optimum
    rows = report.evidence["rows"]
    return report.verdict == "pass" and all(r["achieved"] <= r["optimal"] for r in rows)


def _memoryless_query(fh, label, g, seeded) -> Query:
    return Query(
        f"memoryless-horizon:{label}",
        lambda: fh.verify.check_memoryless_horizon(g, label=label),
        _report_bytes,
        _memoryless_check,
        seeded=seeded,
    )


def deep_horizon(fh, seed, sizes, workdir, plan) -> tuple[list[list[Query]], list[Query]]:
    """Few states at very long horizons: big-integer width is the per-cell
    cost; streaming checkpoints, fixed-strategy sweeps and the Bareiss
    infinite-horizon oracle."""
    rng = random.Random(seed)
    games = [
        (f"arena{j}:n{n}", fh.gadgets.random_game(n, rng), True)
        for j, n in enumerate(sizes["small_states"])
    ]
    games += [(f"H{i}", fh.gadgets.make_H(i), False) for i in sizes["h_gadgets"]]
    chains = [[_memoryless_query(fh, label, g, seeded)] for label, g, seeded in games]
    for i in sizes["numeric_i"]:
        for name in NUMERIC_CHECKS:
            attr = "check_" + name.replace("-", "_")
            chains.append([
                Query(
                    f"{name}:i{i}",
                    lambda attr=attr, i=i: getattr(fh.verify, attr)(i),
                    _report_bytes,
                    lambda report: report.succeeded,
                    seeded=False,
                )
            ])
    h = sizes["headline_h"]
    return chains, [_memoryless_query(fh, f"H{h}", fh.gadgets.make_H(h), False)]


# -- strategy-memory --------------------------------------------------------


def _period_check(initial, period):
    return lambda result: result["N"] == initial and result["p"] == period


def _replication_queries(fh, label, g, horizon, seeded) -> list[Query]:
    """extract_markov -> evaluate_fixed_final -> from_markov ->
    evaluate_counter on one game."""
    ctx = {}

    def extract():
        ctx["strategy"] = fh.solver.extract_markov(g, horizon)
        return ctx["strategy"]

    def value():
        ctx["value"] = fh.solver.evaluate_fixed_final(g, horizon, ctx["strategy"])[g.start]
        return ctx["value"]

    def replicate():
        ctx["automaton"] = fh.counter.from_markov(ctx["strategy"])
        return ctx["automaton"]

    def evaluate():
        return fh.solver.evaluate_counter(g, horizon, ctx["automaton"])

    tag = f"{label}:T{horizon}"
    return [
        Query(
            f"extract_markov:{tag}",
            extract,
            lambda s: _canonical(sorted([t, sid, arc] for (t, sid), arc in s.choices.items())),
            seeded=seeded,
        ),
        Query(
            f"evaluate_fixed_final:{tag}",
            value,
            _canonical,
            # the extracted strategy attains the optimal value
            lambda v: v == fh.solver.final_values(g, horizon)[g.start],
            seeded=seeded,
        ),
        Query(
            f"from_markov:{tag}",
            replicate,
            lambda cs: _canonical(cs.to_json_obj()),
            lambda cs: fh.counter.to_markov(cs, horizon).choices == ctx["strategy"].choices,
            seeded=seeded,
        ),
        Query(
            f"evaluate_counter:{tag}",
            evaluate,
            lambda ev: _canonical(ev.value),
            lambda ev: ev.value == ctx["value"],
            seeded=seeded,
        ),
    ]


# Share of 8-state random_game arenas whose optimal strategy at T=32 never
# changes its arcs: 0.679 of 9600 arenas (seeds 0-39, 240 each), with a
# standard deviation of 0.029 between seeds.
SETTLED_SHARE = 0.679


def _settled(fh, g, horizon) -> bool:
    arcs = {}
    for (_, sid), arc in fh.solver.extract_markov(g, horizon).choices.items():
        arcs.setdefault(sid, set()).add(arc)
    return all(len(a) == 1 for a in arcs.values())


def replicate_seeds(fh, seed, sizes) -> list[int]:
    """Seeds of strategy-memory's random arenas, in the measured share of
    the two kinds.

    A settled strategy (one that never changes its arcs) replicates into
    one memory state; one that changes near the horizon needs up to T of
    them and costs up to T times more to replicate and evaluate.  Among
    plain draws the share of each kind moves with the seed, and with it
    the query cost at the 90th percentile, which falls where the costly
    kind ends.  Drawing arenas until each kind has its measured share
    keeps the round's make-up the same on every seed.  This runs once per
    run, before the timed phase; set-up then only regenerates the arenas
    from their seeds.
    """
    rng = random.Random(seed)
    count, n, horizon = sizes["replicate_arenas"], sizes["replicate_states"], sizes["replicate_horizon"]
    settled = round(SETTLED_SHARE * count)
    wanted = {True: settled, False: count - settled}
    kinds = {True: [], False: []}
    while any(len(kinds[k]) < wanted[k] for k in kinds):
        arena_seed = rng.getrandbits(32)
        kind = _settled(fh, fh.gadgets.random_game(n, random.Random(arena_seed)), horizon)
        if len(kinds[kind]) < wanted[kind]:
            kinds[kind].append(arena_seed)
    return kinds[True] + kinds[False]


def _parallel_query(fh, k, horizon) -> Query:
    """Minimal period of F(k)'s optimal action sets: N=0, p=primorial(k)."""
    prim = fh.gadgets.primorial(k)
    return cli_query(
        fh,
        f"minimize:F{k}:T{horizon}",
        ["minimize", "--gadget", f"F:{k}", "-T", str(horizon), "--sets", "--json"],
        seeded=False,
        check=_period_check(0, prim),
    )


def strategy_memory(fh, seed, sizes, workdir, plan) -> tuple[list[list[Query]], list[Query]]:
    """Period search, replication and the memory-product evaluator; the
    headline is the primorial-period experiment on F(k)."""
    chains = []
    for label, horizon in sizes["product_gadgets"]:
        g = fh.gadgets.make_M() if label == "M" else fh.gadgets.make_H(int(label[1:]))
        chains.append(_replication_queries(fh, label, g, horizon, seeded=False))
    n, horizon = sizes["replicate_states"], sizes["replicate_horizon"]
    for j, arena_seed in enumerate(plan):
        g = fh.gadgets.random_game(n, random.Random(arena_seed))
        chains.append(_replication_queries(fh, f"arena{j}:n{n}", g, horizon, seeded=True))
    for c in sizes["shortcut_c"]:
        chains.append([
            Query(
                f"shortcut-memory:c{c}",
                lambda c=c: fh.verify.check_shortcut_memory(c),
                _report_bytes,
                # the exact minimum is c-3; the claimed c-2 fails by design
                lambda report, c=c: report.evidence["found_minimum"] == c - 3,
                seeded=False,
            )
        ])
    for p in sizes["cycle_primes"]:
        chains.append([
            cli_query(
                fh,
                f"minimize:G{p}",
                ["minimize", "--gadget", f"G:{p}", "-T", str(sizes["cycle_horizon"]), "--sets", "--json"],
                seeded=False,
                check=_period_check(0, p),
            )
        ])
    chains += [[_parallel_query(fh, k, horizon)] for k, horizon in sizes["parallel"]]
    return chains, [_parallel_query(fh, *sizes["headline_parallel"])]


PLANNERS = {"strategy-memory": replicate_seeds}

BUILDERS = {
    "arena-batch": arena_batch,
    "deep-horizon": deep_horizon,
    "strategy-memory": strategy_memory,
}


def plan(workload, fh, seed, sizes):
    """Inputs a workload draws once per run, before the timed phase."""
    planner = PLANNERS.get(workload)
    return planner(fh, seed, sizes) if planner else None


def build(workload, fh, seed, sizes, workdir, plan) -> tuple[list[Query], list[Query]]:
    """One round's queries and the headline queries.  The workload's
    query chains (queries that feed each other stay in order) are
    shuffled, so that cheap and costly queries alternate and each kind is
    sampled across the whole round instead of in one stretch of a noisy
    machine's time."""
    chains, headline = BUILDERS[workload](fh, seed, sizes, workdir, plan)
    random.Random(f"order:{seed}").shuffle(chains)
    return [query for chain in chains for query in chain], headline
