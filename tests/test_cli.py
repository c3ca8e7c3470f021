import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import fhgames.cli as cli
import fhgames.numeric as numeric
import fhgames.verify as verify
from conftest import (
    coin_union,
    forbid_sweeps,
    reference_dumps,
    reference_strategy_rows,
    reference_union_solution,
    union_parts,
)
from fhgames import __version__
from fhgames.cli import main
from fhgames.gadgets import make_H, make_M, random_game
from fhgames.game import PLAYER_KIND, Game, State, StateKind, store
from fhgames.jsonout import dumps
from fhgames.oracle import RNG_ALGORITHM, simulate
from fhgames.solver import extract_markov, final_values, markov_arcs, values_at


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """stderr of an argv that argparse refuses: exit 2, nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    return captured.err


class TestGadgetAndSolve:
    def test_gadget_to_file_then_solve(self, tmp_path, capsys):
        path = tmp_path / "g5.json"
        code, out, _ = run(capsys, "gadget", "--family", "G", "--param", "5", "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "solve", "-g", str(path), "-T", "7")
        assert code == 0
        assert "2 = 127/2^7" in out

    def test_solve_json_and_decimal(self, capsys):
        code, out, _ = run(capsys, "solve", "--gadget", "M", "-T", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "fhgames/1"
        assert doc["result"]["values"]["x"] == "1/2^1"
        code, out, _ = run(capsys, "solve", "--gadget", "M", "-T", "2", "--decimal", "3")
        assert "x = 1/2^1  (~0.500)" in out
        code, out, _ = run(capsys, "solve", "--gadget", "G:2", "-T", "3", "--decimal", "0")
        assert "1 = 7/2^3  (~1)" in out.splitlines()
        assert all("  (~" in line for line in out.splitlines()[1:])

    def test_solve_csv(self, capsys):
        code, out, _ = run(capsys, "solve", "--gadget", "M", "-T", "2", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "t,start,x,h,top,2,1,bot"

    def test_solve_csv_quotes_ids(self, tmp_path, capsys):
        g = Game(
            states=(
                State("a,b", StateKind.MAX, ('q"x', "bot")),
                State('q"x', StateKind.COIN, ("a,b", "bot")),
                State("bot", StateKind.TERMINAL),
            ),
            start="a,b",
        )
        path = tmp_path / "quoted.json"
        path.write_text(store(g), encoding="utf-8")
        code, out, _ = run(capsys, "solve", "-g", str(path), "-T", "3", "--csv")
        assert code == 0
        table = list(csv.reader(io.StringIO(out)))
        assert table[0] == ["t", "a,b", 'q"x', "bot"]
        assert table[1:] == [
            [str(t), *map(str, row.values())]
            for t, row in values_at(g, range(4)).items()
        ]

    def test_solve_csv_beyond_the_cell_cap_exits_three(self, capsys, monkeypatch):
        from fhgames.solver import CELL_CAP

        forbid_sweeps(monkeypatch)
        code, out, err = run(capsys, "solve", "--gadget", "M", "-T", str(CELL_CAP), "--csv")
        assert code == 3
        assert out == ""
        assert "cell cap" in err

    def test_gadget_stdout_is_loadable(self, capsys):
        from fhgames.game import load

        code, out, _ = run(capsys, "gadget", "--family", "H", "--param", "3")
        assert code == 0
        assert load(out).start == "3s"


class TestStrategyAndMinimize:
    def test_strategy_output(self, capsys):
        code, out, _ = run(capsys, "strategy", "--gadget", "M", "-T", "3")
        assert code == 0
        assert "remaining=3 state=x arc=0 -> 2" in out
        assert "remaining=2 state=x arc=1 -> h" in out

    def test_strategy_beyond_the_cell_cap_exits_three(self, capsys, monkeypatch):
        from fhgames.solver import CELL_CAP

        forbid_sweeps(monkeypatch)
        code, out, err = run(capsys, "strategy", "--gadget", "M", "-T", str(CELL_CAP))
        assert code == 3
        assert out == ""
        assert "cell cap" in err

    def test_minimize_sets_finds_primorial(self, capsys):
        code, out, _ = run(capsys, "minimize", "--gadget", "F:2", "-T", "22", "--sets")
        assert code == 0
        assert "N=0 p=6 states=6 bits=3" in out

    def test_minimize_markov_json(self, capsys):
        code, out, _ = run(
            capsys, "minimize", "--gadget", "M", "-T", "5", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["states"] == doc["result"]["N"] + doc["result"]["p"]
        assert doc["result"]["strategy"]["actions"]


class TestVerifyCommand:
    def test_passing_check_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "fib-ratio", "--i", "3", "--amax", "256")
        assert code == 0
        assert "verdict: pass" in out

    def test_failing_check_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "shortcut-memory", "--c", "5")
        assert code == 1
        assert "verdict: fail" in out

    def test_shortcut_memory_beyond_enumeration(self, capsys):
        # enumeration would plan 4,194,306 automata; the search needs 2573 sweeps
        code, out, _ = run(capsys, "verify", "shortcut-memory", "--c", "17", "--json")
        assert code == 1
        evidence = json.loads(out)["report"]["evidence"]
        assert (evidence["claimed_minimum"], evidence["found_minimum"]) == (15, 14)

    def test_shortcut_memory_below_its_regime_is_informational(self, capsys):
        code, out, _ = run(capsys, "verify", "shortcut-memory", "--c", "1")
        assert code == 0
        assert out.splitlines()[1] == "verdict: informational"

    @pytest.mark.parametrize(
        "check, d",
        [
            ("below-threshold", "-1"),
            ("below-threshold", "-1/2"),
            ("below-threshold", "20"),
            ("above-threshold", "-2"),
            ("above-threshold", "-25/22"),
            ("above-threshold", "9"),
        ],
    )
    def test_a_d_out_of_the_checks_domain_is_an_input_error(self, capsys, check, d):
        code, out, err = run(capsys, "verify", check, "--i", "3", "--d", d)
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"error: d must be in [^\n]*, got {d}\n", err)

    @pytest.mark.parametrize("d", ["-23/22", "-1/2", "-.5", "-0.5"])
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_a_negative_fraction_is_a_value(self, capsys, d, json_flag):
        argv = ("verify", "above-threshold", "--i", "3")
        spaced = run(capsys, *argv, "--d", d, *json_flag)
        assert spaced == run(capsys, *argv, f"--d={d}", *json_flag)
        assert spaced[0] == 0 and spaced[2] == ""

    def test_timing_line_in_text_output(self, capsys):
        code, out, err = run(capsys, "verify", "fib-ratio", "--i", "2", "--amax", "8", "--timing")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1] == "verdict: pass"
        assert re.fullmatch(r"runtime_seconds: \d+\.\d{3}", lines[-1])
        assert len(lines) == 5

    def test_shortcut_memory_needs_positive_c(self, capsys):
        code, out, err = run(capsys, "verify", "shortcut-memory", "--c", "0")
        assert code == 2
        assert out == ""
        assert "c must be at least 1" in err
        assert "horizon" not in err

    @pytest.mark.parametrize("imax", ["0", "-2"])
    def test_threshold_growth_needs_a_positive_imax(self, capsys, imax):
        code, out, err = run(capsys, "verify", "threshold-growth", "--imax", imax, "--json")
        assert (code, out) == (2, "")
        assert f"i_max must be at least 1, got {imax}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("fib-ratio", "--i", "3", "--amax", "2"), "a_max must be at least i+3"),
            (("fib-ratio", "--i", "-2"), "i must be at least 1"),
            (("doubling", "--i", "3", "--tmax", "-4"), "t_max must be at least i"),
            (("cycle-values", "--p", "3", "--tmax", "-5"), "t_max must be non-negative"),
        ],
    )
    def test_empty_check_ranges_are_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv, "--json")
        assert (code, out) == (2, "")
        assert message in err
        assert "horizon" not in err

    def test_unknown_check_is_usage_error(self, capsys):
        err = usage_error(capsys, "verify", "definitely-not-a-check")
        assert "invalid choice: 'definitely-not-a-check'" in err
        assert "'fib-ratio'" in err  # the available checks are listed

    def test_missing_parameter_is_usage_error(self, capsys):
        assert "required: --i" in usage_error(capsys, "verify", "fib-ratio")

    @pytest.mark.parametrize(
        "argv",
        [
            ("threshold-power-bounds", "--i", "3", "--width", "1/0"),
            ("below-threshold", "--i", "3", "--d", "1/0"),
            ("above-threshold", "--i", "3", "--d", "1/2", "--d", "1/0"),
            ("above-threshold", "--i", "3", "--width", "1/0"),
        ],
    )
    def test_a_zero_denominator_is_a_usage_error(self, capsys, argv):
        err = usage_error(capsys, "verify", *argv)
        assert f"argument {argv[-2]}: not a fraction: '1/0'" in err

    @pytest.mark.parametrize(
        "name, flags, args",
        [
            ("fib-ratio", ("--i", "3"), (3,)),
            ("threshold-growth", (), ()),
            ("threshold-power-bounds", ("--i", "4"), (4,)),
            ("doubling", ("--i", "3"), (3,)),
            ("below-threshold", ("--i", "4"), (4,)),
            ("above-threshold", ("--i", "4"), (4,)),
            ("cycle-values", ("--p", "3"), (3,)),
            ("primorial-period", ("--k", "2"), (2,)),
            ("shortcut-memory", ("--c", "3"), (3,)),
            ("memoryless-horizon", ("--gadget", "M"), (make_M(), "M")),
        ],
    )
    def test_a_left_out_flag_takes_the_checks_default(self, capsys, name, flags, args):
        code, out, _ = run(capsys, "verify", name, *flags, "--json")
        report = getattr(verify, "check_" + name.replace("-", "_"))(*args)
        assert code == (0 if report.succeeded else 1)
        keys = ("params", "verdict", "evidence")
        expected = json.loads(dumps(report.document()))
        assert {k: json.loads(out)["report"][k] for k in keys} == {k: expected[k] for k in keys}

    def test_verify_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "cycle-values", "--p", "3", "--tmax", "64", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["verdict"] == "pass"
        assert "runtime_seconds" not in doc["report"]

    def test_memoryless_horizon_via_gadget(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "memoryless-horizon", "--gadget", "M",
            "--eps-exp", "1", "--eps-exp", "4", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["verdict"] == "pass"

    def test_fibonacci_table_cap_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(numeric, "FIB_CAP", 64)  # the real cap takes hundreds of MiB
        monkeypatch.setattr(numeric, "_fib_tables", {})
        code, out, err = run(capsys, "verify", "fib-ratio", "--i", "3", "--amax", "100", "--json")
        assert (code, out) == (3, "")
        assert err == "guard exceeded: 65 Fibonacci table entries exceed the cap 64\n"
        assert len(numeric._fib_tables[3]) == 64


class TestUnreadFlags:
    """A flag that the chosen command, mode or check does not read is a
    usage error whatever its value: argparse exits 2, names the flag and
    prints nothing on stdout."""

    # the verify flags each check reads, besides --json and --timing
    READS = {
        "fib-ratio": ("--i", "--amax"),
        "threshold-growth": ("--imax",),
        "threshold-power-bounds": ("--i", "--width"),
        "doubling": ("--i", "--tmax"),
        "below-threshold": ("--i", "--d", "--width"),
        "above-threshold": ("--i", "--d", "--width"),
        "cycle-values": ("--p", "--tmax"),
        "primorial-period": ("--k",),
        "shortcut-memory": ("--c",),
        "memoryless-horizon": ("--game", "--gadget", "--eps-exp"),
    }
    REQUIRED = ("--i", "--p", "--k", "--c", "--gadget")  # --gadget: or --game
    # each optional flag's default as its check's --help shows it
    DEFAULTS = {
        "--amax": {"fib-ratio": "256"},
        "--imax": {"threshold-growth": "14"},
        "--tmax": {"doubling": "256", "cycle-values": "200"},
        "--width": dict.fromkeys(
            ("threshold-power-bounds", "below-threshold", "above-threshold"), "1/1000000000000"
        ),
        "--d": {"below-threshold": "1/5, 2/5, 4/5", "above-threshold": "1/5"},
        "--eps-exp": {"memoryless-horizon": "1, 2, 3, 4, 5, 6"},
    }
    # a value for each flag, away from its check's default
    VALUES = {
        "--i": "3", "--imax": "5", "--amax": "300", "--tmax": "50", "--p": "3",
        "--k": "2", "--c": "5", "--d": "1/2", "--width": "1/1000", "--eps-exp": "2",
        "--game": "game.json", "--gadget": "M",
    }

    @pytest.mark.parametrize("name", sorted(READS))
    def test_verify_refuses_each_flag_its_check_ignores(self, capsys, name):
        # the required flags are given, so that argparse reaches the ignored one
        given = [x for f in self.READS[name] if f in self.REQUIRED for x in (f, self.VALUES[f])]
        for flag in sorted(set(self.VALUES) - set(self.READS[name])):
            err = usage_error(capsys, "verify", name, *given, flag, self.VALUES[flag], "--json")
            assert err.startswith(f"usage: fhgames verify {name} "), flag
            assert f"unrecognized arguments: {flag} {self.VALUES[flag]}\n" in err, flag

    @pytest.mark.parametrize("name", sorted(READS))
    def test_check_help_lists_exactly_the_flags_it_reads(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")  # one line per flag and its help
        with pytest.raises(SystemExit) as exc:
            main(["verify", name, "--help"])
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) - {"--help"}
        assert flags == {*self.READS[name], "--json", "--timing"}
        shown = dict(re.findall(r"^  (--[a-z-]+) \S+ +default: (.*)$", out, re.M))
        expected = {f: d[name] for f, d in self.DEFAULTS.items() if name in d}
        assert shown == expected

    def test_parser_builds_over_a_wrapped_check(self, capsys, monkeypatch):
        # perfbench's tracer wraps each check_* in a (*args, **kwargs)
        # function, which may come before the parser is first built
        monkeypatch.setattr(cli.checks, "check_doubling", lambda *args, **kwargs: None)
        cli.build_parser.cache_clear()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["verify", "doubling", "--help"])
        finally:
            cli.build_parser.cache_clear()
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert "--tmax T_MAX" in out and "default:" not in out

    @pytest.mark.parametrize("name", sorted(READS))
    def test_verify_accepts_every_flag_its_check_reads(
        self, capsys, monkeypatch, tmp_path, name
    ):
        def reached(*args, **kwargs):
            raise ValueError("check reached")

        monkeypatch.setattr(cli.checks, "check_" + name.replace("-", "_"), reached)
        (tmp_path / "game.json").write_text(store(make_H(2)), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        flags = self.READS[name]
        sources = [f for f in ("--game", "--gadget") if f in flags] or [None]
        for source in sources:  # the game flags exclude each other
            given = [f for f in flags if f not in sources or f == source]
            argv = [x for flag in given for x in (flag, self.VALUES[flag])]
            code, out, err = run(capsys, "verify", name, *argv, "--json", "--timing")
            assert (code, out) == (2, "")
            assert "check reached" in err

    @pytest.mark.parametrize(
        "argv, rule",
        [
            (("verify", "fib-ratio", "--i", "3", "--c", "9", "--gadget", "M", "--eps-exp", "2"),
             "verify fib-ratio does not read --c, --eps-exp, --gadget"),
            (("minimize", "--gadget", "M", "-T", "5", "--sets", "--tiebreak", "hi"),
             "minimize --sets does not read --tiebreak"),
            (("solve", "--gadget", "M", "-T", "3", "--csv", "--json", "--decimal", "3"),
             "solve --csv does not read --json, --decimal"),
            (("solve", "--gadget", "M", "-T", "3", "--csv", "--decimal", "2"),
             "solve --csv does not read --decimal"),
            (("solve", "--gadget", "M", "-T", "3", "--json", "--decimal", "3"),
             "solve --json does not read --decimal"),
        ],
    )
    def test_ignored_flags_are_usage_errors(self, capsys, argv, rule):
        err = usage_error(capsys, *argv)
        flags = rule.split(" does not read ")[1].split(", ")
        if argv[0] == "verify":  # argparse names every unrecognised flag
            assert all(flag in err for flag in flags)
        else:  # and the first one that clashes with the mode
            assert f"argument {flags[0]}: not allowed with argument " in err

    @pytest.mark.parametrize(
        "argv, default",
        [
            (("minimize", "--gadget", "F:2", "-T", "22", "--sets"), ("--tiebreak", "lo")),
            (("solve", "--gadget", "M", "-T", "5", "--csv"), ("--decimal", "0")),
            (("verify", "threshold-growth", "--imax", "6"), ("--tmax", "200")),
        ],
    )
    def test_a_flag_at_its_default_is_refused(self, capsys, argv, default):
        assert default[0] in usage_error(capsys, *argv, *default)


class TestOracleSimulateScan:
    def test_oracle_infinite(self, capsys):
        code, out, _ = run(capsys, "oracle", "--gadget", "M", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["values"]["start"] == "1/1"
        assert doc["result"]["strategy"] == {"x": 0}

    def test_oracle_past_the_enumeration_cap(self, capsys, tmp_path):
        left, right = union_parts()
        path = tmp_path / "union.json"
        path.write_text(store(coin_union(left, right)), encoding="utf-8")
        code, out, err = run(capsys, "oracle", "-g", str(path), "--json")
        assert (code, err) == (0, "")
        expected = reference_union_solution(left, right)
        assert json.loads(out)["result"] == {
            "values": {sid: f"{v.numerator}/{v.denominator}" for sid, v in expected.values.items()},
            "strategy": expected.strategy,
        }

    def test_oracle_memory_search(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--gadget", "M", "--maxmem", "6", "-T", "5",
            "--eps", "1/2^6",
        )
        assert code == 0
        assert "minimal memory states = 3" in out

    def test_oracle_memory_needs_eps_and_horizon(self, capsys):
        code, _, err = run(capsys, "oracle", "--gadget", "M", "--maxmem", "4")
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [("-T", "5"), ("--eps", "1/2^3"), ("-T", "5", "--eps", "1/2^3")]
    )
    def test_oracle_rejects_memory_flags_without_maxmem(self, capsys, flags):
        code, out, err = run(capsys, "oracle", "--gadget", "M", *flags)
        assert (code, out) == (2, "")
        assert "--maxmem" in err

    def test_oracle_memory_rejects_a_negative_eps(self, capsys):
        code, out, err = run(
            capsys, "oracle", "--gadget", "M", "--maxmem", "3", "-T", "4", "--eps", "-1"
        )
        assert (code, out) == (2, "")
        assert "epsilon must be non-negative" in err

    # shifting by 2^62 asks for 2^59 bytes, which no allocator grants
    @pytest.mark.parametrize("exponent", [2**62, 10**20 - 1])
    def test_oracle_memory_refuses_an_eps_too_fine_to_compute(self, capsys, exponent):
        eps = f"1/2^{exponent}"
        code, out, err = run(
            capsys, "oracle", "--gadget", "M", "--maxmem", "2", "-T", "3", "--eps", eps
        )
        assert (code, out) == (2, "")
        assert err == f"error: epsilon {eps} is too fine for exact arithmetic\n"

    def test_simulate_with_min_states(self, capsys, tmp_path):
        g = Game(
            states=(
                State("a", StateKind.MAX, ("m", "c")),
                State("m", StateKind.MIN, ("bot", "c")),
                State("c", StateKind.COIN, ("a", "bot")),
                State("bot", StateKind.TERMINAL),
            ),
            start="a",
        )
        path = tmp_path / "two.json"
        path.write_text(store(g), encoding="utf-8")
        hits = simulate(
            g, 6, extract_markov(g, 6, player=1), 300, 5, opponent=extract_markov(g, 6, player=2)
        )
        argv = ("simulate", "-g", str(path), "-T", "6", "--trials", "300", "--seed", "5")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["params"]["rng"] == RNG_ALGORITHM
        assert (doc["result"]["hits"], doc["result"]["trials"]) == (hits, 300)
        assert doc["result"]["frequency"] == str(Fraction(hits, 300))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"hits/trials = {hits}/300"

    def test_simulate_reports_exact_reference(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--gadget", "M", "-T", "5", "--trials", "400",
            "--seed", "11",
        )
        assert code == 0
        assert "exact value under the same strategy = 13/2^4" in out

    def test_scan_runs(self, capsys):
        code, out, _ = run(
            capsys, "scan", "-n", "3", "--samples", "10", "-T", "16",
            "--seed", "4", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "scan"
        assert doc["report"]["name"] == "period-scan"
        code, out, _ = run(capsys, "scan", "-n", "3", "--samples", "4", "-T", "8", "--seed", "4")
        assert out.splitlines()[0] == f"# fhgames {__version__} scan period-scan"


class TestDeterminismAndErrors:
    def test_json_outputs_byte_identical(self, capsys):
        fixtures = [
            ("scan", "-n", "4", "--samples", "12", "-T", "24", "--seed", "9", "--json"),
            ("simulate", "--gadget", "M", "-T", "5", "--trials", "250",
             "--seed", "3", "--json"),
            ("verify", "threshold-growth", "--imax", "6", "--json"),
            ("solve", "--gadget", "G:3", "-T", "9", "--json"),
        ]
        for argv in fixtures:
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second

    def test_unknown_gadget_family(self, capsys):
        code, out, err = run(capsys, "solve", "--gadget", "Z:3", "-T", "3")
        assert (code, out) == (2, "")
        assert err == "error: unknown gadget family 'Z'\n"

    def test_missing_game_file(self, capsys):
        code, _, err = run(capsys, "solve", "-g", "/nonexistent.json", "-T", "3")
        assert code == 2

    def test_invalid_game_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"start": "a", "states": []}')
        code, _, err = run(capsys, "solve", "-g", str(path), "-T", "3")
        assert code == 2

    def test_guard_exit_code(self, capsys):
        code, _, err = run(
            capsys, "verify", "primorial-period", "--k", "7"
        )
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize(
        "command",
        [None, "solve", "strategy", "minimize", "gadget", "verify", "oracle", "simulate", "scan"],
    )
    def test_help_renders(self, capsys, command):
        # argparse formats help text only here, so a stray % would fail late
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert out.startswith("usage: fhgames")

    # argv without its game, by the usage line that its errors show
    GAME_COMMANDS = {
        "solve": ("solve", "-T", "3"),
        "oracle": ("oracle",),
        "verify memoryless-horizon": ("verify", "memoryless-horizon"),
    }

    @pytest.mark.parametrize("usage", sorted(GAME_COMMANDS))
    def test_both_game_flags_are_a_usage_error(self, capsys, usage):
        argv = self.GAME_COMMANDS[usage]
        err = usage_error(capsys, *argv, "--gadget", "H:3", "-g", "m.json", "--json")
        assert err.startswith(f"usage: fhgames {usage} ")
        assert "error: argument -g/--game: not allowed with argument --gadget\n" in err

    @pytest.mark.parametrize("usage", sorted(GAME_COMMANDS))
    def test_a_game_flag_is_required(self, capsys, usage):
        err = usage_error(capsys, *self.GAME_COMMANDS[usage], "--json")
        assert err.startswith(f"usage: fhgames {usage} ")
        assert "error: one of the arguments -g/--game --gadget is required\n" in err

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--gadget", "M"])  # missing -T
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--gadget", "M", "-T", "-1"),
            ("strategy", "--gadget", "M", "-T", "-3"),
            ("scan", "-n", "3", "--samples", "0", "-T", "8", "--seed", "1"),
            ("oracle", "--gadget", "M", "--maxmem", "0", "-T", "5", "--eps", "1/2^6"),
            ("simulate", "--gadget", "M", "-T", "5", "--trials", "0", "--seed", "1"),
            ("solve", "--gadget", "M", "-T", "x"),
            ("solve", "--gadget", "M", "-T", "2", "--decimal", "-1"),
            ("scan", "-n", "-2", "--samples", "1", "-T", "3", "--seed", "0"),
            ("verify", "memoryless-horizon", "--gadget", "M", "--eps-exp", "0"),
            ("verify", "memoryless-horizon", "--gadget", "M", "--eps-exp", "-1"),
            ("scan", "-n", "1", "--samples", "1", "-T", "3", "--seed", "0"),  # no playable state
        ],
    )
    def test_out_of_range_counts_rejected_by_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # a usage error prints no partial output
        assert "must be at least" in captured.err or "invalid count value" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--gadget", "M:9", "-T", "3"),
            ("gadget", "--family", "M", "--param", "9"),
            ("solve", "--gadget", "H:x", "-T", "3"),
            ("gadget", "--family", "H", "--param", "x"),
            ("solve", "--gadget", "G", "-T", "3"),
            ("gadget", "--family", "G"),
        ],
    )
    def test_bad_gadget_parameter(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "family" in err and "invalid literal" not in err

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_exact_values_beyond_the_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "solve", "--gadget", "H:2", "-T", "15000", "--json")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit  # restored after the run
        g = make_H(2)
        sys.set_int_max_str_digits(0)
        try:
            expected = {sid: str(v) for sid, v in final_values(g, 15000).items()}
        finally:
            sys.set_int_max_str_digits(limit)
        assert json.loads(out)["result"]["values"] == expected


    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_a_game_with_a_huge_integer_is_refused_fast(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"start": "a", "states": [], "n": ' + "7" * 1_000_000 + "}")
        started = time.perf_counter()
        code, out, err = run(capsys, "solve", "-g", str(path), "-T", "3")
        elapsed = time.perf_counter() - started
        assert (code, out) == (2, "")
        assert err.startswith("error: not valid JSON: Exceeds the limit")
        assert elapsed < 1.0  # without the limit, parsing the integer takes seconds

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_input_is_read_under_the_digit_limit(self, capsys, monkeypatch, tmp_path):
        limit = sys.get_int_max_str_digits()
        assert limit > 0
        seen = []
        real_load = cli.load

        def load(text):
            seen.append(sys.get_int_max_str_digits())
            return real_load(text)

        monkeypatch.setattr(cli, "load", load)
        path = tmp_path / "m.json"
        path.write_text(store(make_M()), encoding="utf-8")
        for json_flag in ((), ("--json",)):
            code, _, err = run(capsys, "solve", "-g", str(path), "-T", "3", *json_flag)
            assert (code, err) == (0, "")
        assert seen == [limit, limit]
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_scan_prints_a_threshold_beyond_the_digit_limit(self, capsys):
        argv = ("scan", "-n", "15000", "--samples", "1", "-T", "0", "--seed", "1")
        threshold = 1 << 15000  # 4,516 digits
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(out)["report"]["evidence"]["threshold"] == threshold
            text = str(threshold)
        finally:
            sys.set_int_max_str_digits(limit)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert f'"threshold": {text},' in out


def _stdlib_store(g) -> str:
    """``game.store`` as the stdlib encoder rendered it."""
    doc = {
        "start": g.start,
        "states": [
            {"id": s.id, "kind": s.kind.value}
            | ({"arcs": list(s.arcs)} if s.arcs is not None else {})
            for s in g.states
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


class TestWithoutAsserts:
    """``python -O`` strips asserts, so no invariant that a command's
    output depends on may be checked only by one: the commands print the
    same bytes and exit codes with and without it."""

    ARGVS = (
        ("verify", "shortcut-memory", "--c", "7", "--json"),
        ("oracle", "--gadget", "H:3", "--json"),
        ("verify", "memoryless-horizon", "--gadget", "M", "--json"),
        ("minimize", "--gadget", "F:2", "-T", "22", "--sets", "--json"),
    )
    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "from fhgames.cli import main\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    runs.append([code, out.getvalue()])\n"
        "print(json.dumps([__debug__, runs]))\n"
    )

    def test_same_output_under_python_O(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        results = {}
        for flags in ((), ("-O",)):
            done = subprocess.run(
                [sys.executable, *flags, "-c", self.SCRIPT, json.dumps(self.ARGVS)],
                capture_output=True, text=True, env=env, timeout=60, check=True,
            )
            results[flags] = json.loads(done.stdout)
        debug, plain = results[()]
        optimised_debug, optimised = results[("-O",)]
        assert (debug, optimised_debug) == (True, False)
        assert [code for code, _ in plain] == [1, 0, 0, 0]
        assert optimised == plain


class TestDirectWriter:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--gadget", "G:3", "-T", "9", "--json"),
            ("strategy", "--gadget", "G:5", "-T", "12", "--json"),
            ("minimize", "--gadget", "F:2", "-T", "22", "--sets", "--json"),
            ("oracle", "--gadget", "M", "--json"),
            ("oracle", "--gadget", "M", "--maxmem", "3", "-T", "6", "--eps", "1/2^6",
             "--json"),
            ("simulate", "--gadget", "M", "-T", "5", "--trials", "50", "--seed", "3",
             "--json"),
            ("verify", "threshold-growth", "--imax", "6", "--json"),
            ("verify", "threshold-power-bounds", "--i", "4", "--json"),
            ("scan", "-n", "3", "--samples", "5", "-T", "16", "--seed", "0", "--json"),
        ],
    )
    def test_json_output_matches_the_stdlib_rendering(self, capsys, monkeypatch, argv):
        docs = []

        def recording_dumps(doc):
            docs.append(doc)
            return dumps(doc)

        monkeypatch.setattr(cli, "dumps", recording_dumps)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        [doc] = docs
        assert out == reference_dumps(doc) + "\n"

    @pytest.mark.parametrize("family,param", [("M", None), ("H", "3"), ("F", "2")])
    def test_gadget_output_equals_the_stdlib_document(self, capsys, family, param):
        argv = ["gadget", "--family", family] + (["--param", param] if param else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == _stdlib_store(cli._make_gadget(family, param))

    def test_parser_is_built_once_and_reusable(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        argv = ("verify", "below-threshold", "--i", "5", "--json")
        _, out, _ = run(capsys, *argv, "--d", "1/5")
        assert json.loads(out)["report"]["params"]["d_list"] == ["1/5"]
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)["report"]["params"]["d_list"] == ["1/5", "2/5", "4/5"]
        parse = cli.build_parser().parse_args
        below = ["verify", "below-threshold", "--i", "5"]
        assert parse([*below, "--d", "1/5"]).ds == [Fraction(1, 5)]
        assert not hasattr(parse(below), "ds")

        with pytest.raises(SystemExit) as exc:
            main(["solve", "--gadget", "M"])  # missing -T
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, "solve", "--gadget", "M", "-T", "3", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["params"] == {"game": "M", "horizon": 3}


class TestStrategyRendering:
    """``strategy`` stdout, JSON and text, against the rendering of its
    choices built one row per choice (``conftest.reference_strategy_rows``)."""

    @pytest.mark.parametrize("ownerless", [None, StateKind.MAX, StateKind.MIN])
    @pytest.mark.parametrize("n", range(3, 13))
    def test_stdout_matches_the_row_rendering(self, capsys, tmp_path, n, ownerless):
        g = random_game(n, random.Random(n))
        if ownerless is not None:  # that player owns no state: no choices
            states = tuple(
                State(s.id, StateKind.COIN, s.arcs) if s.kind is ownerless else s
                for s in g.states
            )
            g = Game(states=states, start=g.start)
        self.check_stdout(capsys, tmp_path, g, (0, 1, 5, n, 17), ownerless)

    @pytest.mark.parametrize("n", (2, 5, 14))
    def test_ids_that_json_escapes(self, capsys, tmp_path, n):
        """State ids with quotes, backslashes, control characters, %
        directives and non-ASCII text, which JSON escapes or writes as
        they are, and which sort apart from declaration order."""
        g = random_game(n, random.Random(100 + n))
        marks = ['"', "\\", "\x00", "\x1f\n", "\x7f", "é", "😀", "%s", "%%", "/", 'a"%d\\']
        name = {s.id: marks[j % len(marks)] + str(j) for j, s in enumerate(g.states)}
        states = tuple(
            State(name[s.id], s.kind, s.arcs and tuple(name[d] for d in s.arcs))
            for s in g.states
        )
        g = Game(states=states, start=name[g.start])
        self.check_stdout(capsys, tmp_path, g, (0, 1, n, 9), None)

    @staticmethod
    def check_stdout(capsys, tmp_path, g, horizons, ownerless):
        path = tmp_path / "arena.json"
        path.write_text(store(g), encoding="utf-8")
        for horizon in horizons:
            for player in (1, 2):
                for tiebreak in ("lo", "hi"):
                    rows = reference_strategy_rows(
                        markov_arcs(g, horizon, player, tiebreak), horizon
                    )
                    if PLAYER_KIND[player] is ownerless:
                        assert rows == []
                    params = {
                        "game": str(path),
                        "horizon": horizon,
                        "player": player,
                        "tiebreak": tiebreak,
                    }
                    choices = [{"remaining": t, "state": sid, "arc": arc} for t, sid, arc in rows]
                    doc = {
                        "schema": "fhgames/1",
                        "version": __version__,
                        "command": "strategy",
                        "params": params,
                        "result": {"choices": choices},
                    }
                    text = [f"# fhgames {__version__} strategy " + " ".join(
                        f"{k}={v}" for k, v in params.items()
                    )]
                    text += [
                        f"remaining={t} state={sid} arc={arc} -> {g.state(sid).arcs[arc]}"
                        for t, sid, arc in rows
                    ]
                    argv = ("strategy", "-g", str(path), "-T", str(horizon),
                            "--player", str(player), "--tiebreak", tiebreak)
                    assert run(capsys, *argv, "--json") == (0, reference_dumps(doc) + "\n", "")
                    assert run(capsys, *argv) == (0, "".join(f"{line}\n" for line in text), "")


class TestGoldenOutput:
    """Pinned sha256 of whole stdout documents, so that a change of how
    optimal action sets are stored or read, of how a Markov strategy
    is minimised (``minimize`` without ``--sets``) or rendered
    (``strategy``, text and JSON), of how value rows are written
    (``solve --csv``), of how the threshold checks read n-step
    Fibonacci numbers past the head, or of how each command writes its
    document (the JSON envelope, or the header line and text lines),
    or of which states the start-only value paths sweep (``oracle`` and
    ``verify memoryless-horizon`` on an arena whose start does not reach
    every state), cannot alter a byte.
    The digests include the tool version and change with it."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("minimize", "--gadget", "F:2", "-T", "22", "--sets", "--json"),
             "82ac9c2c9c650b30425c94176162f00e19e8d0a8c40bf269a5962a1a3bbf81bd"),
            (("minimize", "--gadget", "F:3", "-T", "70", "--sets", "--json"),
             "1d9edc8338befbc6b91517b87f4c919c410287047bc790d0b36597eb001021b0"),
            (("minimize", "--gadget", "F:4", "-T", "430", "--sets", "--json"),
             "37210daceeeed11f11ce74807c6e31fd9519184dc4492d35dc3fc28bd86e2222"),
            (("minimize", "--gadget", "G:11", "-T", "200", "--sets", "--json"),
             "01ee534cd4d024a029487ab72579cb2bcd24b4e54e591723c3bea5afee569f61"),
            (("minimize", "--gadget", "G:31", "-T", "200", "--sets", "--json"),
             "b7c6056ced01aabfdeb7955d52aa398658acc93ea63b05952f006c4b50be8df8"),
            (("strategy", "-g", "arena12.json", "-T", "12", "--player", "1",
              "--tiebreak", "lo", "--json"),
             "550855ac43036a71fd952bce6827d32d9c3a39ac17efc73b13c6e18d02ba7db6"),
            (("strategy", "-g", "arena12.json", "-T", "12", "--player", "2",
              "--tiebreak", "hi", "--json"),
             "405f6c2f539088ff046eec044b59f4ec1cb00c1f5ba83d1fae1e8a0539aeaa12"),
            (("minimize", "--gadget", "M", "-T", "100", "--json"),
             "a5462200d99be96962204ffbc2011145e69fd8486cbcbce1ad6371050f3770df"),
            (("minimize", "--gadget", "H:4", "-T", "120", "--json"),
             "f8fc09d1c648582d886775e61499edc1ec3c37ad8bd9d8f05cc9aba07bbc1f42"),
            (("minimize", "-g", "arena12.json", "-T", "12", "--player", "1",
              "--tiebreak", "lo", "--json"),
             "2622df22cd47a5ba0a7321a5c0066a1ce511b1024f2ffdd7cb450b7475f8cfd2"),
            (("minimize", "-g", "arena12.json", "-T", "12", "--player", "1",
              "--tiebreak", "hi", "--json"),
             "de105825daf269bf21b572866bc1ae7f542645ba41ccb02f9a3627ee0e8a00d4"),
            (("minimize", "-g", "arena12.json", "-T", "12", "--player", "2",
              "--tiebreak", "lo", "--json"),
             "6036bf98bf7afe677e15bf83c0476fe1cfe61ed2eeed4df8c0a26aace1c0a626"),
            (("minimize", "-g", "arena12.json", "-T", "12", "--player", "2",
              "--tiebreak", "hi", "--json"),
             "c3f050dfb2dd0a3a21218dac6b0275e9a2be48e9a3beebf76b0642e5b45af3cc"),
            (("solve", "--gadget", "M", "-T", "5", "--csv"),
             "7a6e71b2936f0d8139ae7e035f91c157c549c2c3f5978e7b128f8bf182c032ce"),
            (("solve", "--gadget", "H:3", "-T", "300", "--csv"),
             "78ad5ab2fcb29812a254a2f304531e657fdd803641940777e68cc9ea20deb0e5"),
            (("solve", "--gadget", "G:5", "-T", "40", "--csv"),
             "4f3bd5783efc79df338d8f8102c7446fecf1a6c47b08763125e2df2ae654d73a"),
            (("solve", "-g", "arena60.json", "-T", "60", "--csv"),
             "3c58bb9d098d94587abc8c8d27d54b388ae9f1a3dc666e12449a7a9f0a894e1d"),
            (("strategy", "-g", "arena12.json", "-T", "12", "--player", "1",
              "--tiebreak", "lo"),
             "d4792df12e822168c6c487b014c08142477d046ac1f1f5b9c7d8e6658b2bc201"),
            (("strategy", "-g", "arena12.json", "-T", "12", "--player", "2",
              "--tiebreak", "hi"),
             "d937b05c201418d4e681746c0fef1cec7839a301b89319e32f65d433933f4b01"),
            (("strategy", "-g", "arena12.json", "-T", "0", "--json"),
             "7f0903613d24ac86af2383031cf3c81d92ea8b13e735f8cfb7329c5edaa28a47"),
            (("strategy", "-g", "odd.json", "-T", "3", "--json"),
             "a6d627a3e9c73e5bd1276ef2ef9b7d8c7539e6b4b8d030a0bafd9709c7708357"),
            (("strategy", "-g", "odd.json", "-T", "3"),
             "c0cf5696e0550558baf6df983cfba81b353036290df42fd1c0ad27ed8d9a4dbb"),
            (("strategy", "-g", "odd.json", "-T", "3", "--player", "2",
              "--tiebreak", "hi", "--json"),
             "14e4d7bc10684b71aa3683eea4459cb0d5213b0fa833e4445f57725f39c49ddf"),
            (("verify", "threshold-power-bounds", "--i", "12", "--json"),
             "eb0f1c92052aa926e8890e477b39d105a8e7277c659c2efbc0299b2666fa50c2"),
            (("verify", "below-threshold", "--i", "12", "--json"),
             "221140fe8646180bf51e46ed302e6ea26d44cd9aaa6b2687f0a57d1d8a4ce345"),
            (("verify", "above-threshold", "--i", "12", "--json"),
             "46fd66673c152c3384ebb6aba4e5bea24cc83a4eb3dd78df85c0e5145305e7af"),
            (("verify", "threshold-growth", "--imax", "13", "--json"),
             "421140df0eb4e5a4ab2c628c5df148f747a5868233ad80f6728c229b71b61fa1"),
            (("verify", "cycle-values", "--p", "3", "--tmax", "64"),
             "6e4fe244b8f03d029980caa452857efae22143abe076350937c68a3bacdac275"),
            (("solve", "--gadget", "H:3", "-T", "40"),
             "77c193d86be1d37fda22e75cc45fa6f6c8fae04e5f293a7c408cf47b333b3198"),
            (("solve", "--gadget", "H:3", "-T", "40", "--decimal", "3"),
             "280f2870f497febabfe0dc4c4ce458493ee2455d47adf87d1426ff4aa7a18b29"),
            (("solve", "--gadget", "H:3", "-T", "40", "--decimal", "0"),
             "c49c9920e2e4d133ca3c44fdf3aebfd57e0ccc38d45a0e253cb36880e9cb47a0"),
            (("minimize", "--gadget", "M", "-T", "100"),
             "694a403b64fa4f497227f1e253ea989464abda61801a4a070b9d9e67387d024f"),
            (("minimize", "--gadget", "F:2", "-T", "22", "--sets"),
             "434d8ef95d6bc9b047983f0c56ead08af40e01310dacb7850b103d45785db40a"),
            (("oracle", "--gadget", "H:3"),
             "057b36f8d18a8f1abcd2c9e96d761b613791938d8b53174a7059731a0419729b"),
            (("oracle", "--gadget", "H:3", "--json"),
             "cbd789bb006d4d5a6623847743868a714c0ed48902d39892e464cd5a41956e2f"),
            (("oracle", "--gadget", "M", "--maxmem", "6", "-T", "5", "--eps", "1/2^6"),
             "5cd24944e8104083ac1514e0b054ebfb61d998dfdb2a249528f71a49edeb4601"),
            (("oracle", "--gadget", "M", "--maxmem", "6", "-T", "5", "--eps", "1/2^6", "--json"),
             "a802bc5165a7b6f6ec3bd84f0449c1440ac54e3eeae103e8065ccb1b8e20fb34"),
            (("oracle", "--gadget", "M", "--maxmem", "2", "-T", "5", "--eps", "1/2^6"),
             "40c832f9d07bc5e1e3c14e50cc8c264a9c27d4dcddf511961b32522a13609b24"),
            (("simulate", "--gadget", "M", "-T", "5", "--trials", "400", "--seed", "11"),
             "72efe82e7adc93f1db1df9faf9799f690fb7790dad1809978d4189134f8544fc"),
            (("simulate", "--gadget", "M", "-T", "5", "--trials", "400", "--seed", "11",
              "--json"),
             "4f9f505542dddf0a801943d80335a93efbffaa5b2db24da09590cf140fabc89e"),
            (("scan", "-n", "3", "--samples", "10", "-T", "16", "--seed", "4"),
             "11f37f6069c194c614d0a3d140a9ff999f4d886dcefb0a52b3d0a8ab368b99ae"),
            (("scan", "-n", "3", "--samples", "10", "-T", "16", "--seed", "4", "--json"),
             "5e9bc7f21d64664c9bbe239cd041f4f7dea82c3c24bfee8edcd0bcae689932fa"),
            (("verify", "memoryless-horizon", "-g", "arena10.json", "--json"),
             "e055a307bcb70a10efc5d0d7c66f8b82d7e4f7617ed44d64726ab820092275ee"),
            (("verify", "memoryless-horizon", "-g", "arena10.json"),
             "9579add61c03210c2711a4c31af3c4e88977adc71984a076dc64dc909aeaa60f"),
            (("oracle", "-g", "arena10.json", "--maxmem", "3", "-T", "5", "--eps", "1/2^3"),
             "c107bae1a87e77467eef7a0c5c99d318f0643f98b823c1e59347c91992817fe0"),
            (("oracle", "-g", "arena10.json", "--maxmem", "3", "-T", "5", "--eps", "1/2^3",
              "--json"),
             "ca59da62b9d7b266ed59a551c8e3bf0b076232225527769eaf3ee3846e0d9c34"),
            (("verify", "above-threshold", "--i", "3", "--d", "-23/22", "--json"),
             "87e006c84ae61559af57e970ba03f0986e89f3a26cf985585bb8da6a2d2268b9"),
            (("strategy", "-g", "arena60.json", "-T", "60"),
             "6be108ab38c3fa9b2ea6b3ff2bf79bb5ca4a45fbe44d71f54fd954b78bed59d8"),
            (("strategy", "-g", "arena60.json", "-T", "60", "--json"),
             "c1e04bf749796b6a1caaabcee6c2549efab97442f38fe2337b86f3942a87114e"),
            (("strategy", "-g", "arena60.json", "-T", "60", "--player", "2", "--json"),
             "197a7d07af3418c74330c9d2b771763b337d5930a41f8d4db88a330c66eb5a70"),
            (("strategy", "-g", "arena60.json", "-T", "60", "--tiebreak", "hi", "--json"),
             "da879191a2a5e65906e4c9f3b44fd159f219a5804831729bb385b3c5f32b0f27"),
            (("strategy", "-g", "arena60.json", "-T", "0", "--json"),
             "23a7cc596f44917ff8353eab35bef6ef5d0d3750ea648953afb1fef5b37af36b"),
        ],
    )
    def test_stdout_digest(self, capsys, monkeypatch, tmp_path, argv, digest):
        # random_game(12, Random(1)) has ties at T=12 for both players
        (tmp_path / "arena12.json").write_text(
            store(random_game(12, random.Random(1))), encoding="utf-8"
        )
        (tmp_path / "arena60.json").write_text(
            store(random_game(60, random.Random(3))), encoding="utf-8"
        )
        # the start of random_game(10, Random(12)) reaches 9 of its 10
        # states: not s6, a max state whose value stays strictly
        # between 0 and 1
        (tmp_path / "arena10.json").write_text(
            store(random_game(10, random.Random(12))), encoding="utf-8"
        )
        # ids that JSON escapes, that a %-template would read as
        # directives, and that are not ASCII
        odd = Game(
            states=(
                State('a"%s', StateKind.MAX, ("b\\é", "c😀%")),
                State("b\\é", StateKind.MIN, ('a"%s', "bot")),
                State("c😀%", StateKind.COIN, ('a"%s', "bot")),
                State("bot", StateKind.TERMINAL),
            ),
            start='a"%s',
        )
        (tmp_path / "odd.json").write_text(store(odd), encoding="utf-8")
        monkeypatch.chdir(tmp_path)  # the relative path is part of the params
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
