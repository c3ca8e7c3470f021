import json
import random
from fractions import Fraction
from unittest import mock

import pytest

from conftest import full_game_memoryless_horizon, memoryless_markov
import fhgames.cli as cli
from fhgames import solver, verify
from fhgames.errors import GuardExceeded, StrategyError
from fhgames.gadgets import make_H, make_M, random_game
from fhgames.game import Game, State, StateKind, load
from fhgames.jsonout import jsonable
from fhgames.numeric import Dyadic, IntervalEnclosure, exp_enclosure, run_probability, run_threshold
from fhgames.oracle import solve_infinite
from fhgames.solver import values_at
from fhgames.verify import (
    CheckReport,
    check_above_threshold,
    check_below_threshold,
    check_cycle_values,
    check_doubling,
    check_fib_ratio,
    check_memoryless_horizon,
    check_primorial_period,
    check_shortcut_memory,
    check_threshold_growth,
    check_threshold_power_bounds,
    latest_residue_hit,
    period_scan,
)


class TestLatestResidueHit:
    def test_examples(self):
        assert latest_residue_hit(7, 2, 5) == 7
        assert latest_residue_hit(3, 1, 2) == 3
        assert latest_residue_hit(3, 2, 2) == 2
        assert latest_residue_hit(3, 7, 7) == 0  # residue-0 class starts at 7
        assert latest_residue_hit(7, 7, 7) == 7
        assert latest_residue_hit(0, 1, 4) == 0


class TestNumericChecks:
    def test_fib_ratio_passes(self):
        for i in (1, 2, 12):
            assert check_fib_ratio(i, 128).verdict == "pass"

    def test_threshold_growth_passes(self):
        report = check_threshold_growth(10)
        assert report.verdict == "pass"
        rows = {row["i"]: row["k"] for row in report.evidence["rows"]}
        assert rows[1] == 2 and rows[2] == 5

    @pytest.mark.parametrize("i_max", [0, -1])
    def test_threshold_growth_rejects_an_empty_range(self, i_max):
        with pytest.raises(ValueError, match="i_max must be at least 1"):
            check_threshold_growth(i_max)

    @pytest.mark.parametrize(
        "check, args, message",
        [
            (check_fib_ratio, (0,), "i must be at least 1, got 0"),
            (check_fib_ratio, (-2,), "i must be at least 1, got -2"),
            (check_fib_ratio, (3, 5), "a_max must be at least i\\+3 = 6, got 5"),
            (check_doubling, (3, 2), "t_max must be at least i = 3, got 2"),
            (check_doubling, (3, -4), "t_max must be at least i = 3, got -4"),
            (check_cycle_values, (3, -1), "t_max must be non-negative, got -1"),
        ],
    )
    def test_empty_ranges_are_refused(self, check, args, message):
        with pytest.raises(ValueError, match=message):
            check(*args)

    def test_smallest_ranges_are_checked(self):
        fib = check_fib_ratio(3, 6)
        assert fib.verdict == "pass"
        assert fib.evidence["sharp_range"] == [6, 6]
        doubling = check_doubling(3, 3)
        assert doubling.verdict == "pass"
        assert doubling.evidence["range"] == [3, 3]
        assert check_cycle_values(3, 0).verdict == "pass"  # the t=0 row

    def test_power_bounds_pass_in_regime(self):
        report = check_threshold_power_bounds(12)
        assert report.verdict == "pass"
        assert report.evidence["in_regime"] is True

    def test_power_bounds_evidence_is_of_the_two_powers(self):
        for i in range(1, 13):
            evidence = check_threshold_power_bounds(i).evidence
            base, k = evidence["base"], evidence["k"]
            assert evidence["power_k_approx"] == float(base**k)
            assert evidence["power_km_approx"] == float(base ** (k - i))

    def test_power_bounds_small_i_never_hard_fails(self):
        report = check_threshold_power_bounds(2)
        assert report.verdict in ("pass", "informational")

    def test_doubling_passes(self):
        assert check_doubling(3, 64).verdict == "pass"

    def test_threshold_fraction_checks(self):
        below = check_below_threshold(12)
        assert below.verdict == "pass"
        above = check_above_threshold(12)
        assert above.verdict == "pass"
        # rational probabilities against rational-only bounds never come
        # back inconclusive once the enclosure is tight
        for row in below.evidence["rows"] + above.evidence["rows"]:
            assert row["verdict"] in ("pass", "fail", "informational")

    def test_out_of_regime_d_reported_informational(self):
        report = check_below_threshold(12, ds=[Fraction(1, 20)])
        row = report.evidence["rows"][0]
        assert row["in_regime"] is False
        assert row["verdict"] in ("pass", "informational")


class TestGadgetChecks:
    def test_cycle_values_pass(self):
        for p in (2, 5):
            assert check_cycle_values(p, 128).verdict == "pass"

    def test_primorial_period_small(self):
        for k, period in ((1, 2), (2, 6), (5, 2310)):
            report = check_primorial_period(k)
            assert report.verdict == "pass"
            assert report.evidence["period"] == period

    def test_primorial_period_guard(self):
        # F(7): 119,460,627 cells, refused by the cell cap before any sweep
        with pytest.raises(GuardExceeded, match="119460627 value cells"):
            check_primorial_period(7)

    def test_shortcut_memory_reports_true_minimum(self):
        # the claimed bound c-2 overshoots by one under the traversal
        # horizon convention: the exact minimum is c-3 (the forced "h"
        # step can reuse the automaton's unused step-0 slot), so the
        # check honestly fails and carries the witness
        report = check_shortcut_memory(5)
        assert report.evidence["found_minimum"] == 2
        assert report.evidence["claimed_minimum"] == 3
        assert report.verdict == "fail"
        witness = report.evidence["witness"]
        assert witness["N"] + witness["p"] == 2

    def test_shortcut_memory_tiny_regime_is_informational(self):
        for c in (1, 2, 3, 4):
            report = check_shortcut_memory(c)
            assert report.verdict == "informational"
            assert report.evidence["in_regime"] is False

    def test_memoryless_horizon_on_shortcut(self):
        report = check_memoryless_horizon(make_M(), label="M", eps_exponents=(1, 2, 3))
        assert report.verdict == "pass"
        for row in report.evidence["rows"]:
            assert row["ok"] is True

    @pytest.mark.parametrize("exponents", [(), (0,), (-1, 2), (0, 1)])
    def test_memoryless_horizon_rejects_exponents_below_one(self, exponents):
        with pytest.raises(ValueError, match="exponent"):
            check_memoryless_horizon(make_M(), eps_exponents=exponents)


def memoryless_games():
    yield "M", make_M()
    yield "H2", make_H(2)
    yield "H3", make_H(3)
    rng = random.Random(20261018)
    for j in range(50):
        yield f"arena{j}", random_game(rng.randint(3, 8), rng)


class TestMemorylessHorizonSweep:
    """check_memoryless_horizon's settling sweeps of Game.fix's game
    against sigma played as a Markov strategy on the unfixed game."""

    def test_report_equals_per_cell_sweeps(self):
        for label, g in memoryless_games():
            settled = check_memoryless_horizon(g, label=label)
            params, verdict, evidence, sweeps = full_game_memoryless_horizon(g, label, skip=False)
            assert sweeps == 2  # sigma played on every game
            assert settled.name == "memoryless-horizon"
            assert (settled.params, settled.verdict) == (params, verdict)
            assert settled.evidence == evidence

    def test_played_rows_equal_per_cell_rows(self):
        for _, g in memoryless_games():
            arcs = solve_infinite(g).strategy
            checkpoints = {0, 1, len(g.states), 3 * len(g.states), 4 << len(g.states)}
            strategy = memoryless_markov(1, arcs, max(checkpoints))
            assert values_at(g.fix(1, arcs), checkpoints) == values_at(g, checkpoints, strategy)

    def test_skip_equals_two_plain_sweeps(self):
        """One sweep when sigma's arc is optimal at every step, two
        otherwise; either way the rows of two plain values_at calls."""
        rng = random.Random(2022)
        games = list(memoryless_games())
        games += [(f"extra{j}", random_game(rng.randint(6, 8), rng)) for j in range(30)]
        sweeps = {}
        for label, g in games:
            with mock.patch.object(verify, "values_at", wraps=values_at) as spy:
                report = check_memoryless_horizon(g, label=label)
            sweeps[label] = spy.call_count
            horizons = [row["horizon"] for row in report.evidence["rows"]]
            best = values_at(g, horizons)
            sigma = memoryless_markov(1, solve_infinite(g).strategy, max(horizons))
            played = values_at(g, horizons, strategy=sigma)
            for row in report.evidence["rows"]:
                assert row["optimal"] == best[row["horizon"]][g.start]
                assert row["achieved"] == played[row["horizon"]][g.start]
        assert sweeps["M"] == sweeps["H2"] == sweeps["H3"] == 2  # sigma's arc not always optimal
        assert sorted(set(sweeps.values())) == [1, 2]

    def test_masks_beyond_the_cap_fall_back(self, monkeypatch):
        g = make_M()  # 6 rows of 7 cells kept; 12 * 2^7 = 1536 masks of x
        expected = check_memoryless_horizon(g, label="M")
        monkeypatch.setattr(solver, "CELL_CAP", 1535)
        with mock.patch.object(verify, "values_at", wraps=values_at) as spy:
            report = check_memoryless_horizon(g, label="M")
        refused, *plain = spy.call_args_list
        assert refused.kwargs["sets"] and [call.kwargs.get("sets") for call in plain] == [None, None]
        assert (report.params, report.verdict) == (expected.params, expected.verdict)
        assert report.evidence == expected.evidence

    def test_missing_or_bad_choice_raises(self):
        g = make_M()
        for choices in ({}, {"x": 2}):
            with pytest.raises(StrategyError):
                g.fix(1, choices)  # whatever the horizon
            with pytest.raises(StrategyError):  # {}: in values_at, {"x": 2}: when built
                values_at(g, (3,), memoryless_markov(1, choices, 3))
            values_at(g, (0,), memoryless_markov(1, choices, 0))  # no arc is read at horizon 0


def sub_arena_edge_games():
    """Arenas whose start reaches only part of them: sigma leaves its
    arc only at u, which the start s cannot reach; the start is the
    terminal; the start a cannot reach the terminal."""
    states = (
        State("s", StateKind.COIN, ("m", "bot")),
        State("m", StateKind.MAX, ("bot", "s")),
        State("u", StateKind.MAX, ("c", "bot")),  # arc 0 is worth 1 only in the limit
        State("c", StateKind.COIN, ("bot", "c")),
        State("bot", StateKind.TERMINAL),
    )
    yield "sigma-off-the-start", Game(states, "s")
    yield "start-is-terminal", Game(states, "bot")
    cut_off = (
        State("a", StateKind.MAX, ("a", "b")),
        State("b", StateKind.COIN, ("a", "a")),
        State("c", StateKind.MIN, ("bot", "a")),
        State("bot", StateKind.TERMINAL),
    )
    yield "terminal-unreached", Game(cut_off, "a")


class TestMemorylessHorizonSubArena:
    """check_memoryless_horizon sweeps g.reachable; its reports must be
    those of the check sweeping every state."""

    def test_report_equals_the_whole_game_check(self):
        games = list(memoryless_games()) + list(sub_arena_edge_games())
        assert any(g.reachable is not g for _, g in games)
        for label, g in games:
            report = check_memoryless_horizon(g, label=label)
            params, verdict, evidence, _ = full_game_memoryless_horizon(g, label=label)
            assert (report.params, report.verdict) == (params, verdict)
            assert report.evidence == evidence

    def test_sigma_off_its_arc_only_off_the_start_takes_one_sweep(self):
        label, g = next(sub_arena_edge_games())
        assert solve_infinite(g).strategy == {"m": 0, "u": 0}
        *_, whole_sweeps = full_game_memoryless_horizon(g, label=label)
        with mock.patch.object(verify, "values_at", wraps=values_at) as spy:
            report = check_memoryless_horizon(g, label=label)
        assert (whole_sweeps, spy.call_count) == (2, 1)
        assert [call.args[0].ids() for call in spy.call_args_list] == [("s", "m", "bot")]
        assert report.evidence["states"] == 5 and report.verdict == "pass"


class TestPeriodScan:
    def test_deterministic(self):
        a = period_scan(4, 25, 48, seed=5)
        b = period_scan(4, 25, 48, seed=5)
        assert jsonable(a.document()) == jsonable(b.document())
        assert a.verdict == "pass"

    def test_flagged_games_are_loadable(self):
        report = period_scan(3, 40, 32, seed=9)
        for entry in report.evidence["flagged"]:
            load(entry["game"])  # must be a valid document

    def test_evidence_shape(self):
        report = period_scan(3, 10, 16, seed=2)
        evidence = report.evidence
        assert evidence["threshold"] == 8
        assert evidence["rng"] == "mt19937"
        assert evidence["max_period"] >= 1


class TestReportPlumbing:
    def test_reports_are_json_safe(self):
        reports = [
            check_fib_ratio(2, 32),
            check_threshold_power_bounds(4),
            check_cycle_values(2, 16),
            check_shortcut_memory(5),
            period_scan(3, 5, 16, seed=0),
        ]
        for report in reports:
            text = json.dumps(jsonable(report.document()))
            again = json.loads(text)
            assert again["verdict"] == report.verdict

    def test_runtime_excluded_by_default(self):
        report = check_fib_ratio(1, 16)
        assert "runtime_seconds" not in report.document()
        assert "runtime_seconds" in report.document(include_runtime=True)
        assert report.runtime >= 0

    def test_jsonable_fractions_and_dyadics(self):
        from fhgames.numeric import Dyadic

        blob = jsonable({"a": Fraction(1, 3), "b": Dyadic(3, 2), "c": [1, None]})
        assert blob == {"a": "1/3", "b": "3/2^2", "c": [1, None]}

    def test_succeeded_predicate(self):
        ok = CheckReport("x", {}, "pass", {})
        info = CheckReport("x", {}, "informational", {})
        bad = CheckReport("x", {}, "fail", {})
        undecided = CheckReport("x", {}, "inconclusive", {})
        assert ok.succeeded and info.succeeded
        assert not bad.succeeded and not undecided.succeeded


class TestVerdictHelpers:
    def test_combine_takes_the_gravest_outcome(self):
        assert verify._combine(["pass", "informational", "fail", "inconclusive"]) == "fail"
        assert verify._combine(["pass", "inconclusive", "informational"]) == "inconclusive"
        assert verify._combine(["informational", "pass"]) == "informational"
        assert verify._combine(["pass", "pass"]) == "pass"
        assert verify._combine([]) == "pass"

    @pytest.mark.parametrize(
        "lhs, le, ge",
        [
            (Fraction(1, 5), "pass", "fail"),
            (Fraction(1, 4), "pass", "inconclusive"),
            (Fraction(1, 3), "inconclusive", "inconclusive"),
            (Fraction(1, 2), "inconclusive", "pass"),
            (Fraction(3, 5), "fail", "pass"),
        ],
    )
    def test_enclosure_verdicts(self, lhs, le, ge):
        enclosure = IntervalEnclosure(Fraction(1, 4), Fraction(1, 2))
        assert verify._le_enclosure(lhs, enclosure) == le
        assert verify._ge_enclosure(lhs, enclosure) == ge


class TestPerturbedChecksFail:
    """One value perturbed in what a check reads: the check fails and
    names the index in its evidence, and the CLI exits 1."""

    def test_fib_ratio(self, monkeypatch):
        real = verify.fib_nstep
        # F(2)_10 tripled breaks both claims at index 10, and only there
        monkeypatch.setattr(verify, "fib_nstep", lambda i, b: real(i, b) * (3 if b == 10 else 1))
        report = check_fib_ratio(2, a_max=12)
        assert report.verdict == "fail"
        assert report.evidence["failures"] == [
            {"claim": "doubling", "index": 10},
            {"claim": "sharp", "index": 10},
        ]
        assert cli.main(["verify", "fib-ratio", "--i", "2", "--amax", "12"]) == 1

    def test_doubling(self, monkeypatch):
        real = verify.run_probability
        # p(8) = 2 exceeds twice any probability; it is the left side at t = 6 only
        monkeypatch.setattr(
            verify, "run_probability", lambda i, t: Dyadic(2) if t == 8 else real(i, t)
        )
        report = check_doubling(2, 10)
        assert report.verdict == "fail"
        assert report.evidence["failures"] == [6]
        assert cli.main(["verify", "doubling", "--i", "2", "--tmax", "10"]) == 1

    def test_cycle_values(self, monkeypatch):
        real = verify.values_at

        def perturbed(g, checkpoints):
            rows = {t: dict(row) for t, row in real(g, checkpoints).items()}
            rows[5]["2"] += 1  # a numbered state
            rows[4]["2s"] = Dyadic(0)  # a shortcut state, worth 1 from t = 2
            return rows

        monkeypatch.setattr(verify, "values_at", perturbed)
        report = check_cycle_values(3, 8)
        assert report.verdict == "fail"
        mismatches = report.evidence["mismatches"]
        assert [(m["t"], m["state"]) for m in mismatches] == [(4, "2s"), (5, "2")]
        assert mismatches[0]["want"] == 1
        assert cli.main(["verify", "cycle-values", "--p", "3", "--tmax", "8"]) == 1


def _refused_by_the_kernel(i: int, d: Fraction, above: bool) -> bool:
    """Whether the toss count or the exponent of d's row is out of
    run_probability's or exp_enclosure's domain, as each refuses it."""
    k = run_threshold(i)
    index, x = (-((-(1 + d) * k) // 1), -d / 8) if above else ((d * k) // 1, (1 - d) / 8)
    try:
        exp_enclosure(x, Fraction(1, 2))
        run_probability(i, index)
    except ValueError:
        return True
    return False


class TestThresholdDomain:
    # i = 3: the threshold k is 11
    BELOW = {
        Fraction(0): False,
        Fraction(9): False,
        Fraction(1, 5): False,
        Fraction(-1, 100): True,
        Fraction(-1): True,
        Fraction(-8): True,
        Fraction(901, 100): True,
        Fraction(20): True,
    }
    ABOVE = {
        Fraction(8): False,
        Fraction(-23, 22): False,  # (1 + d) k = -1/2: toss count 0
        Fraction(1, 5): False,
        Fraction(-12, 11): True,  # (1 + d) k = -1
        Fraction(-2): True,
        Fraction(-9): True,
        Fraction(801, 100): True,
        Fraction(9): True,
    }

    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    def test_refuses_exactly_the_kernels_refusals(self, above, monkeypatch):
        check = check_above_threshold if above else check_below_threshold
        cases = self.ABOVE if above else self.BELOW
        for d, refused in cases.items():
            assert _refused_by_the_kernel(3, d, above) is refused
            if refused:
                with pytest.raises(ValueError, match=rf"^d must be in .*, got {d}$"):
                    with monkeypatch.context() as patch:  # refused before any probability
                        patch.setattr(verify, "run_probability", None)
                        check(3, ds=[d])
            else:
                assert [row["d"] for row in check(3, ds=[d]).evidence["rows"]] == [d]

    def test_messages(self):
        with pytest.raises(ValueError, match=r"^d must be in \[0, 9\], got -1$"):
            check_below_threshold(3, ds=[Fraction(-1)])
        with pytest.raises(
            ValueError, match=r"^d must be in \(-1 - 1/k, 8\] for the threshold k = 11, got 9$"
        ):
            check_above_threshold(3, ds=[Fraction(9)])
