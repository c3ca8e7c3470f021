"""Command-line front end.

Subcommands: solve, strategy, minimize, gadget, verify, oracle,
simulate, scan.  Exit codes: 0 on success, 1 when a verification check
fails or is inconclusive, 2 on usage or input errors, 3 when a size
cap or a search budget (GuardExceeded) is exceeded.

Every run records the tool version and its parameters in the output;
JSON output is byte-stable for identical argv and seed (timing is only
included on request via --timing).  Every indented JSON document, and
``game.store``'s, is rendered by ``jsonout.dumps`` in one pass, straight
from the library's values.  ``strategy`` hands its choices over as
``jsonout.Records`` columns built from the solver's arc bytes
(``markov_arcs``), with no dict or tuple per choice.  ``build_parser``
is cached, so a process builds the parser once however often it calls
``main``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from itertools import chain

from . import __version__
from .counter import from_markov, memory_report, minimal_period
from .errors import FhgamesError, GuardExceeded
from .game import Game, load, store
from .gadgets import make_F, make_G, make_H, make_M
from .numeric import Dyadic
from .oracle import min_counter_memory, simulate, solve_infinite
from .solver import (
    backward_induction,
    evaluate_fixed_final,
    extract_markov,
    final_values,
    markov_arcs,
    optimal_action_sets,
)
from . import verify as checks
from .jsonout import Records, dumps, jsonable

_GADGETS = {"M": make_M, "H": make_H, "G": make_G, "F": make_F}


def _read_game(path: str) -> Game:
    with open(path, "r", encoding="utf-8") as handle:
        return load(handle.read())


def _make_gadget(family: str, param: str | None) -> Game:
    """One gadget from its family and its parameter text (None if absent)."""
    if family not in _GADGETS:
        raise ValueError(f"unknown gadget family {family!r}")
    if family == "M":
        if param is not None:
            raise ValueError(f"family M takes no parameter, got {param!r}")
        return make_M()
    try:
        n = int(param)
    except (TypeError, ValueError):  # TypeError: no parameter at all
        raise ValueError(
            f"family {family} needs an integer parameter, e.g. {family}:4"
        ) from None
    return _GADGETS[family](n)


def _resolve_game(args) -> Game:
    if getattr(args, "game", None):
        return _read_game(args.game)
    if getattr(args, "gadget", None):
        family, colon, param = args.gadget.partition(":")
        return _make_gadget(family, param if colon else None)
    raise ValueError("a game is required: pass -g FILE or --gadget SPEC")


def _emit(args, command: str, params: dict, result: dict) -> None:
    if getattr(args, "json", False):
        doc = {
            "schema": "fhgames/1",
            "version": __version__,
            "command": command,
            "params": params,
            "result": result,
        }
        print(dumps(doc))
    else:
        rendered = " ".join(f"{k}={v}" for k, v in jsonable(params).items())
        print(f"# fhgames {__version__} {command} {rendered}")


# -- subcommand handlers -------------------------------------------------


def _cmd_solve(args) -> int:
    g = _resolve_game(args)
    params = {"game": args.game or args.gadget, "horizon": args.horizon}
    if args.csv:
        rows = backward_induction(g, args.horizon)  # a refusal prints nothing
        print("t", *g.ids(), sep=",")
        for t, row in enumerate(rows):
            print(t, *row.values(), sep=",")
        return 0
    values = final_values(g, args.horizon)
    _emit(args, "solve", params, {"start": g.start, "values": values})
    if not args.json:
        for sid, value in values.items():
            approx = f"  (~{value.decimal(args.decimal)})" if args.decimal else ""
            print(f"{sid} = {value}{approx}")
    return 0


def _cmd_strategy(args) -> int:
    g = _resolve_game(args)
    arcs = markov_arcs(g, args.horizon, player=args.player, tiebreak=args.tiebreak)
    params = {
        "game": args.game or args.gadget,
        "horizon": args.horizon,
        "player": args.player,
        "tiebreak": args.tiebreak,
    }
    # (remaining, state) order: n states sorted once, not T * n keys
    ids = sorted(arcs)
    columns = (
        [t for t in range(1, args.horizon + 1) for _ in ids],
        ids * args.horizon,
        bytes(chain.from_iterable(zip(*(arcs[sid] for sid in ids)))),
    )
    _emit(args, "strategy", params, {"choices": Records(("remaining", "state", "arc"), columns)})
    if not args.json:
        for t, sid, arc in zip(*columns):
            print(f"remaining={t} state={sid} arc={arc} -> {g.state(sid).arcs[arc]}")
    return 0


def _cmd_minimize(args) -> int:
    g = _resolve_game(args)
    params = {
        "game": args.game or args.gadget,
        "horizon": args.horizon,
        "player": args.player,
        "mode": "sets" if args.sets else "markov",
    }
    if args.sets:
        sets = optimal_action_sets(g, args.horizon)
        cs = minimal_period(sets[args.player - 1]).witness
    else:
        strat = extract_markov(
            g, args.horizon, player=args.player, tiebreak=args.tiebreak
        )
        cs = from_markov(strat)
    report = memory_report(cs)
    payload = {
        "N": report.initial,
        "p": report.period,
        "states": report.states,
        "bits": report.bits,
        "strategy": cs.to_json_obj(),
    }
    _emit(args, "minimize", params, payload)
    if not args.json:
        print(
            f"N={report.initial} p={report.period} "
            f"states={report.states} bits={report.bits}"
        )
    return 0


def _cmd_gadget(args) -> int:
    text = store(_make_gadget(args.family, args.param))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _check_game_label(args):
    return args.game or args.gadget


_CHECK_BUILDERS = {
    "fib-ratio": lambda a: checks.check_fib_ratio(_req(a, "i"), a.amax),
    "threshold-growth": lambda a: checks.check_threshold_growth(a.imax),
    "threshold-power-bounds": lambda a: checks.check_threshold_power_bounds(
        _req(a, "i"), Fraction(a.width)
    ),
    "doubling": lambda a: checks.check_doubling(_req(a, "i"), a.tmax),
    "below-threshold": lambda a: checks.check_below_threshold(
        _req(a, "i"),
        [Fraction(d) for d in a.d] or checks.BELOW_DEFAULT_DS,
        Fraction(a.width),
    ),
    "above-threshold": lambda a: checks.check_above_threshold(
        _req(a, "i"),
        [Fraction(d) for d in a.d] or checks.ABOVE_DEFAULT_DS,
        Fraction(a.width),
    ),
    "cycle-values": lambda a: checks.check_cycle_values(_req(a, "p"), a.tmax),
    "primorial-period": lambda a: checks.check_primorial_period(_req(a, "k")),
    "shortcut-memory": lambda a: checks.check_shortcut_memory(_req(a, "c")),
    "memoryless-horizon": lambda a: checks.check_memoryless_horizon(
        _resolve_game(a), label=_check_game_label(a), eps_exponents=a.eps_exp or range(1, 7)
    ),
}


def _req(args, name):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"check requires --{name}")
    return value


def _print_report(args, report) -> None:
    if args.json:
        doc = {
            "schema": "fhgames/1",
            "version": __version__,
            "command": "verify",
            "report": report.document(include_runtime=args.timing),
        }
        print(dumps(doc))
    else:
        print(f"# fhgames {__version__} verify {report.name}")
        print(f"verdict: {report.verdict}")
        print(f"params: {json.dumps(jsonable(report.params))}")
        print(f"evidence: {json.dumps(jsonable(report.evidence))}")
        if args.timing:
            print(f"runtime_seconds: {report.runtime:.3f}")


def _cmd_verify(args) -> int:
    builder = _CHECK_BUILDERS.get(args.name)
    if builder is None:
        raise ValueError(
            f"unknown check {args.name!r}; available: {', '.join(sorted(_CHECK_BUILDERS))}"
        )
    report = builder(args)
    _print_report(args, report)
    return 0 if report.succeeded else 1


def _cmd_oracle(args) -> int:
    g = _resolve_game(args)
    if args.maxmem is not None:
        if args.horizon is None or args.eps is None:
            raise ValueError("--maxmem needs -T and --eps")
        eps = Dyadic.parse(args.eps)
        result = min_counter_memory(g, args.horizon, eps, args.maxmem)
        params = {
            "game": _check_game_label(args),
            "horizon": args.horizon,
            "eps": eps,
            "maxmem": args.maxmem,
        }
        payload = {
            "memory": result.memory,
            "optimal_value": result.optimum,
            "target_value": result.target,
            "witness": result.witness.to_json_obj() if result.witness else None,
        }
        _emit(args, "oracle", params, payload)
        if not args.json:
            if result.memory is None:
                print(f"exceeds maxMem={args.maxmem}")
            else:
                print(f"minimal memory states = {result.memory}")
        return 0
    solution = solve_infinite(g)
    params = {"game": _check_game_label(args)}
    payload = {
        "values": {sid: value for sid, value in solution.values.items()},
        "strategy": solution.strategy.choices,
    }
    _emit(args, "oracle", params, payload)
    if not args.json:
        for sid, value in solution.values.items():
            print(f"{sid} = {value}")
        print(f"strategy: {solution.strategy.choices}")
    return 0


def _cmd_simulate(args) -> int:
    g = _resolve_game(args)
    strat = extract_markov(g, args.horizon, player=1, tiebreak=args.tiebreak)
    opponent = None
    if g.controlled_ids(2):
        opponent = extract_markov(g, args.horizon, player=2, tiebreak=args.tiebreak)
    report = simulate(
        g, args.horizon, strat, args.trials, args.seed, opponent=opponent
    )
    exact = evaluate_fixed_final(g, args.horizon, strat)[g.start]
    params = {
        "game": _check_game_label(args),
        "horizon": args.horizon,
        "trials": args.trials,
        "seed": args.seed,
        "rng": report.algorithm,
    }
    payload = {
        "hits": report.hits,
        "trials": report.trials,
        "frequency": report.frequency,
        "exact_value_under_strategy": exact,
    }
    _emit(args, "simulate", params, payload)
    if not args.json:
        print(f"hits/trials = {report.hits}/{report.trials}")
        print(f"exact value under the same strategy = {exact}")
    return 0


def _cmd_scan(args) -> int:
    report = checks.period_scan(args.n, args.samples, args.horizon, args.seed)
    _print_report(args, report)
    return 0 if report.succeeded else 1


# -- parser ---------------------------------------------------------------


def _at_least(low: int):
    """argparse type for an integer count of at least ``low``."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _add_game_source(p):
    p.add_argument("-g", "--game", help="game document file")
    p.add_argument("--gadget", help="generated game, e.g. M, H:4, G:5, F:2")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhgames",
        description="Exact solving and strategy-complexity analysis of "
        "finite-horizon simple stochastic games.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact values by backward induction")
    _add_game_source(p)
    p.add_argument("-T", "--horizon", type=_at_least(0), required=True)
    p.add_argument("--csv", action="store_true", help="full value table as CSV")
    p.add_argument("--decimal", type=_at_least(0), default=0, metavar="N",
                   help="append approximate decimals with N digits")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("strategy", help="one optimal remaining-time strategy")
    _add_game_source(p)
    p.add_argument("-T", "--horizon", type=_at_least(0), required=True)
    p.add_argument("--player", type=int, choices=(1, 2), default=1)
    p.add_argument("--tiebreak", choices=("lo", "hi"), default="lo")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_strategy)

    p = sub.add_parser("minimize", help="smallest counter automaton")
    _add_game_source(p)
    p.add_argument("-T", "--horizon", type=_at_least(0), required=True)
    p.add_argument("--sets", action="store_true",
                   help="compress the optimal action sets instead of one strategy")
    p.add_argument("--player", type=int, choices=(1, 2), default=1)
    p.add_argument("--tiebreak", choices=("lo", "hi"), default="lo")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_minimize)

    p = sub.add_parser("gadget", help="emit a generated game document")
    p.add_argument("--family", choices=sorted(_GADGETS), required=True)
    p.add_argument("--param")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(handler=_cmd_gadget)

    p = sub.add_parser("verify", help="run one verification check")
    p.add_argument("name", help=", ".join(sorted(_CHECK_BUILDERS)))
    p.add_argument("--i", type=int)
    p.add_argument("--imax", type=int, default=14)
    p.add_argument("--amax", type=int, default=256)
    p.add_argument("--tmax", type=int, default=200)
    p.add_argument("--p", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--d", action="append", default=[], metavar="FRACTION")
    p.add_argument("--width", default="1/1000000000000", metavar="FRACTION")
    p.add_argument("--eps-exp", action="append", type=_at_least(1), default=[])
    _add_game_source(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true",
                   help="include runtime in the report")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    _add_game_source(p)
    p.add_argument("-T", "--horizon", type=_at_least(0))
    p.add_argument("--maxmem", type=_at_least(1))
    p.add_argument("--eps", help='dyadic, e.g. "1/2^6"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo cross-check")
    _add_game_source(p)
    p.add_argument("-T", "--horizon", type=_at_least(0), required=True)
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiebreak", choices=("lo", "hi"), default="lo")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("scan", help="random hunt for long optimal periods")
    p.add_argument("-n", type=_at_least(1), required=True,
                   help="states per sampled game")
    p.add_argument("--samples", type=_at_least(1), required=True)
    p.add_argument("-T", "--horizon", type=_at_least(0), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact values at long horizons outgrow Python's int-to-str digit
    # limit; lift it for this run and restore it afterwards
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except (FhgamesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
