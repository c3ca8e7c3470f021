"""Command-line front end.

Subcommands: solve, strategy, minimize, gadget, verify, oracle,
simulate, scan.  Exit codes: 0 on success, 1 when a verification check
fails or is inconclusive, 2 on usage or input errors, 3 when a size cap
or a search budget (GuardExceeded) is exceeded.

argparse holds every flag rule.  Each verify check has a sub-parser
with only the flags its check reads, stored under the check's parameter
names and left unset when not given, so the check's own defaults apply;
its help shows them, and it refuses the arguments it does not know.
``solve --csv``, ``--json`` and ``--decimal`` exclude each other, as do
``minimize --sets`` and ``--tiebreak``.

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
import csv
import functools
import inspect
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
    evaluate_fixed_final,
    extract_markov,
    final_values,
    markov_arcs,
    optimal_action_sets,
    values_at,
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
    if args.game is not None:  # argparse lets exactly one of the two through
        return _read_game(args.game)
    family, colon, param = args.gadget.partition(":")
    return _make_gadget(family, param if colon else None)


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
        rows = values_at(g, range(args.horizon + 1))  # a refusal prints nothing
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(("t", *g.ids()))
        out.writerows((t, *row.values()) for t, row in rows.items())
        return 0
    values = final_values(g, args.horizon)
    _emit(args, "solve", params, {"start": g.start, "values": values})
    if not args.json:
        for sid, value in values.items():
            approx = f"  (~{value.decimal(args.decimal)})" if args.decimal is not None else ""
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
            g, args.horizon, player=args.player, tiebreak=args.tiebreak or "lo"
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


def _print_report(args, report) -> None:
    if args.json:
        doc = {
            "schema": "fhgames/1",
            "version": __version__,
            "command": args.command,
            "report": report.document(include_runtime=args.timing),
        }
        print(dumps(doc))
    else:
        print(f"# fhgames {__version__} {args.command} {report.name}")
        print(f"verdict: {report.verdict}")
        print(f"params: {json.dumps(jsonable(report.params))}")
        print(f"evidence: {json.dumps(jsonable(report.evidence))}")
        if args.timing:
            print(f"runtime_seconds: {report.runtime:.3f}")


def _cmd_verify(args) -> int:
    own = ("command", "check", "handler", "json", "timing", "game", "gadget")
    params = {k: v for k, v in vars(args).items() if k not in own}
    if args.check == "memoryless-horizon":
        params.update(g=_resolve_game(args), label=args.game or args.gadget)
    # looked up when it runs, so a patched check_* is the one called
    report = getattr(checks, "check_" + args.check.replace("-", "_"))(**params)
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
            "game": args.game or args.gadget,
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
    if args.horizon is not None or args.eps is not None:
        raise ValueError("-T and --eps apply only with --maxmem")
    solution = solve_infinite(g)
    params = {"game": args.game or args.gadget}
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
        "game": args.game or args.gadget,
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


def _fraction(text: str) -> Fraction:
    """argparse type for an exact fraction, e.g. 1/5 or 0.2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


# verify flag -> its add_argument settings; dest names the checks' parameter
_VERIFY_FLAGS = {
    "--i": dict(type=int, required=True),
    "--imax": dict(dest="i_max", type=int),
    "--amax": dict(dest="a_max", type=int),
    "--tmax": dict(dest="t_max", type=int),
    "--p": dict(type=int, required=True),
    "--k": dict(type=int, required=True),
    "--c": dict(type=int, required=True),
    "--d": dict(dest="ds", action="append", type=_fraction, metavar="FRACTION"),
    "--width": dict(type=_fraction, metavar="FRACTION"),
    "--eps-exp": dict(dest="eps_exponents", action="append", type=_at_least(1), metavar="J"),
}


class _CheckParser(argparse.ArgumentParser):
    """Refuses its own unrecognised arguments, under its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _add_game_source(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("-g", "--game", help="game document file")
    source.add_argument("--gadget", help="generated game, e.g. M, H:4, G:5, F:2")


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
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--csv", action="store_true", help="full value table as CSV")
    mode.add_argument("--decimal", type=_at_least(0), metavar="N",
                      help="append approximate decimals with N digits")
    mode.add_argument("--json", action="store_true")
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
    p.add_argument("--player", type=int, choices=(1, 2), default=1)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--sets", action="store_true",
                      help="compress the optimal action sets instead of one strategy")
    mode.add_argument("--tiebreak", choices=("lo", "hi"), help="default: lo")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_minimize)

    p = sub.add_parser("gadget", help="emit a generated game document")
    p.add_argument("--family", choices=sorted(_GADGETS), required=True)
    p.add_argument("--param")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(handler=_cmd_gadget)

    p = sub.add_parser("verify", help="run one verification check")
    per_check = p.add_subparsers(dest="check", required=True, parser_class=_CheckParser)

    def check(name, *flags, allow_abbrev=True):
        # a flag left out is not set, so the check's own default applies
        c = per_check.add_parser(
            name, argument_default=argparse.SUPPRESS, allow_abbrev=allow_abbrev
        )
        check_function = getattr(checks, "check_" + name.replace("-", "_"))
        parameters = inspect.signature(check_function).parameters
        for flag in flags:
            settings = _VERIFY_FLAGS[flag]
            # help shows the check's own default, unless a wrapper (such
            # as the benchmark's tracer) hides the check's signature
            parameter = parameters.get(settings.get("dest", flag[2:]))
            if parameter is not None and parameter.default is not parameter.empty:
                default = parameter.default
                shown = ", ".join(map(str, default)) if isinstance(default, tuple) else default
                settings = {**settings, "help": f"default: {shown}"}
            c.add_argument(flag, **settings)
        c.add_argument("--json", action="store_true", default=False)
        c.add_argument("--timing", action="store_true", default=False,
                       help="include runtime in the report")
        c.set_defaults(handler=_cmd_verify)
        return c

    check("fib-ratio", "--i", "--amax")
    check("threshold-growth", "--imax", allow_abbrev=False)  # else --i reads as --imax
    check("threshold-power-bounds", "--i", "--width")
    check("doubling", "--i", "--tmax")
    check("below-threshold", "--i", "--d", "--width")
    check("above-threshold", "--i", "--d", "--width")
    check("cycle-values", "--p", "--tmax")
    check("primorial-period", "--k")
    check("shortcut-memory", "--c")
    c = check("memoryless-horizon", "--eps-exp")
    _add_game_source(c)
    c.set_defaults(game=None, gadget=None)

    p = sub.add_parser("oracle", help="infinite-horizon values by strategy iteration, "
                       "or with --maxmem the least counter memory by branch and bound")
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
    p.add_argument("-n", type=_at_least(2), required=True,
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
