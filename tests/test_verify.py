import json
import random
from fractions import Fraction
from unittest import mock

import pytest

from fhgames import verify
from fhgames.errors import GuardExceeded, StrategyError
from fhgames.gadgets import make_H, make_M, random_game
from fhgames.game import load
from fhgames.jsonout import jsonable
from fhgames.oracle import MemorylessStrategy, solve_infinite
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


class PerCell:
    """A strategy values_at sweeps as a per-cell fixed callable, never
    settling: the path a MemorylessStrategy took before it was swept as
    one layer."""

    def __init__(self, strategy):
        self.player = strategy.player
        self.action = strategy.action


class TestMemorylessHorizonSweep:
    """check_memoryless_horizon's settling sweeps against the per-cell
    sweeps they replaced."""

    @staticmethod
    def per_cell_values_at(g, checkpoints, strategy=None):
        return values_at(g, checkpoints, None if strategy is None else PerCell(strategy))

    def test_report_equals_per_cell_sweeps(self):
        for label, g in memoryless_games():
            settled = check_memoryless_horizon(g, label=label)
            with mock.patch.object(verify, "values_at", self.per_cell_values_at):
                per_cell = check_memoryless_horizon(g, label=label)
            assert settled.name == per_cell.name == "memoryless-horizon"
            assert (settled.params, settled.verdict) == (per_cell.params, per_cell.verdict)
            assert settled.evidence == per_cell.evidence

    def test_played_rows_equal_per_cell_rows(self):
        for _, g in memoryless_games():
            strategy = solve_infinite(g).strategy
            checkpoints = {0, 1, len(g.states), 3 * len(g.states), 4 << len(g.states)}
            assert values_at(g, checkpoints, strategy=strategy) == values_at(
                g, checkpoints, strategy=PerCell(strategy)
            )

    def test_missing_or_bad_choice_raises(self):
        g = make_M()
        for choices in ({}, {"x": 2}):
            strategy = MemorylessStrategy(1, choices)
            for played in (strategy, PerCell(strategy)):
                with pytest.raises(StrategyError):
                    values_at(g, (3,), played)
                values_at(g, (0,), played)  # no action is read at horizon 0


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
