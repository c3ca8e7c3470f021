import dataclasses
import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    PerCell,
    arcs_at,
    forbid_sweeps,
    full_game_counter_value,
    play_value,
    reference_counter_value,
    reference_product_plan,
    reference_sweep,
    sub_arena_samples,
)
from fhgames import solver
from fhgames.cli import main
from fhgames.counter import CounterStrategy, minimal_period, to_markov
from fhgames.errors import GuardExceeded, StrategyError
from fhgames.game import PLAYER_KIND, Game, State, StateKind
from fhgames.gadgets import make_F, make_G, make_H, make_M, random_game
from fhgames.numeric import Dyadic, HALF, ONE, ZERO
from fhgames.oracle import min_counter_memory
from fhgames.solver import (
    CELL_CAP,
    MarkovStrategy,
    counter_bound,
    evaluate_counter,
    evaluate_fixed_final,
    extract_markov,
    final_values,
    markov_arcs,
    optimal_action_sets,
    values_at,
)


class TestBackwardInduction:
    def test_shortcut_gadget_anchors(self):
        rows = values_at(make_M(), range(6))
        assert rows[2]["x"] == HALF
        assert rows[3]["x"] == ONE
        assert rows[4]["x"] == ONE
        assert rows[0]["bot"] == ONE
        assert rows[0]["x"] == ZERO

    def test_cycle_gadget_anchor(self):
        rows = values_at(make_G(5), range(8))
        assert rows[7]["2"] == Dyadic(127, 7)
        assert rows[1]["1"] == HALF

    def test_monotone_in_horizon(self):
        for g in (make_M(), make_G(3)):
            rows = values_at(g, range(13))
            for sid in g.ids():
                for t in range(12):
                    assert rows[t][sid] <= rows[t + 1][sid]

    def test_exponent_bounded_by_horizon(self):
        rows = values_at(make_G(4), range(31))
        for t, row in rows.items():
            for value in row.values():
                assert value.exponent <= t

    def test_final_values_match_full_table(self):
        g = make_G(3)
        assert final_values(g, 9) == values_at(g, range(10))[9]

    def test_values_at_checkpoints(self):
        g = make_M()
        rows = values_at(g, range(9))
        snaps = values_at(g, [0, 3, 8])
        assert set(snaps) == {0, 3, 8}
        for t in snaps:
            assert snaps[t] == rows[t]

    def test_checkpoint_out_of_range(self):
        with pytest.raises(ValueError):
            values_at(make_M(), [-1])

    @pytest.mark.parametrize("checkpoints", [(-1,), (-1, 3), range(-1, 2)])
    def test_negative_checkpoints_are_refused_before_the_sweep(self, checkpoints, monkeypatch):
        forbid_sweeps(monkeypatch)
        with pytest.raises(ValueError, match=r"^checkpoints out of range: \[-1\]$"):
            values_at(make_M(), checkpoints)

    def test_csv_export(self, capsys):
        assert main(["solve", "--gadget", "M", "-T", "2", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,start,x,h,top,2,1,bot"
        assert lines[1].startswith("0,")
        assert lines[2].split(",")[3] == "1/2^1"  # h after one move


class TestOptimalActionSets:
    def test_shortcut_gadget_sets(self):
        sets, no_sets = optimal_action_sets(make_M(), 5)
        assert (list(sets.masks), list(no_sets.masks)) == (["x"], [])
        # arc 0 leads to the sure 3-move route, arc 1 to the coin shortcut
        assert arcs_at(sets, 2, "x") == (1,)
        assert arcs_at(sets, 3, "x") == (0,)
        assert arcs_at(sets, 4, "x") == (0,)
        assert arcs_at(sets, 1, "x") == (0, 1)  # both continuations worth 0

    def test_sets_cover_min_states(self):
        g = Game(
            states=(
                State("m", StateKind.MIN, ("bot", "c")),
                State("c", StateKind.COIN, ("bot", "m")),
                State("bot", StateKind.TERMINAL),
            ),
            start="m",
        )
        no_sets, sets = optimal_action_sets(g, 3)
        assert (list(no_sets.masks), list(sets.masks)) == ([], ["m"])
        assert arcs_at(sets, 1, "m") == (1,)  # avoiding the terminal is optimal
        assert arcs_at(sets, 2, "m") == (1,)

    def test_values_at_masks_are_the_sets_reversed(self):
        rng = random.Random(2210)
        games = [make_M(), make_H(3), make_F(2), make_G(3)]
        games += [random_game(rng.randint(3, 9), rng) for _ in range(30)]
        for g in games:
            n = len(g.states)
            for horizon in (0, 1, n, 3 * n, 40):
                max_sets, min_sets = optimal_action_sets(g, horizon)
                masks = {sid: bytearray() for sid in [*max_sets.masks, *min_sets.masks]}
                rows = values_at(g, (0, horizon // 2, horizon), sets=masks)
                assert rows == values_at(g, (0, horizon // 2, horizon))
                for seq in (max_sets, min_sets):
                    for sid, row in seq.masks.items():
                        assert bytes(masks[sid]) == row[::-1]

    def test_extract_contained_in_sets(self):
        g = make_F(2)
        horizon = 20
        sets = optimal_action_sets(g, horizon)[0]
        for tiebreak in ("lo", "hi"):
            strat = extract_markov(g, horizon, tiebreak=tiebreak)
            for (t, sid), arc in strat.choices.items():
                assert arc in arcs_at(sets, t, sid)


class TestExtractMarkov:
    def test_shortcut_strategy(self):
        strat = extract_markov(make_M(), 5)
        assert strat.action(5, "x") == 0
        assert strat.action(4, "x") == 0
        assert strat.action(3, "x") == 0
        assert strat.action(2, "x") == 1
        assert strat.action(1, "x") == 0  # tie broken to the lower arc
        hi = extract_markov(make_M(), 5, tiebreak="hi")
        assert hi.action(1, "x") == 1

    def test_empty_horizon(self):
        assert extract_markov(make_M(), 0).choices == {}

    def test_cycle_alternation(self):
        # in the two-cycle gadget the choice state prefers its slow arc
        # exactly when the remaining horizon is even
        strat = extract_markov(make_F(1), 16)
        for r in range(2, 17):
            assert strat.action(r, "m1") == (0 if r % 2 == 0 else 1)

    def test_optimality_of_extraction(self):
        for g in (make_M(), make_G(3)):
            horizon = 9
            rows = values_at(g, range(horizon + 1))
            played = values_at(g, range(horizon + 1), extract_markov(g, horizon))
            for t in range(horizon + 1):
                for sid in g.ids():
                    assert played[t][sid] == rows[t][sid]


class TestMarkovArcs:
    @pytest.mark.parametrize("horizon", [0, 1, 5, 17])
    @pytest.mark.parametrize("player", [1, 2])
    @pytest.mark.parametrize("tiebreak", ["lo", "hi"])
    def test_arcs_are_the_extracted_strategy(self, horizon, player, tiebreak):
        rng = random.Random(horizon * 4 + player * 2 + (tiebreak == "hi"))
        for n in range(3, 13):
            g = random_game(n, rng)
            arcs = markov_arcs(g, horizon, player, tiebreak)
            assert set(arcs) == set(g.controlled_ids(player))
            assert all(len(row) == horizon for row in arcs.values())
            expected = {
                (t, sid): row[t - 1] for t in range(1, horizon + 1) for sid, row in arcs.items()
            }
            choices = extract_markov(g, horizon, player, tiebreak).choices
            assert choices == expected
            assert list(choices) == list(expected)  # the same dict order
            sets = optimal_action_sets(g, horizon)[player - 1]
            pick = min if tiebreak == "lo" else max
            for (t, sid), arc in choices.items():
                assert arc == pick(arcs_at(sets, t, sid))

    def test_sweep_records_only_the_seeded_states(self):
        g = make_M()
        sets = {"x": bytearray()}
        solver._sweep(g.states, 6, sets=sets)
        assert list(sets) == ["x"]
        assert bytes(sets["x"]) == optimal_action_sets(g, 6)[0].masks["x"][::-1]

    @pytest.mark.parametrize("tiebreak", ["", "low", "HI", None])
    def test_bad_tiebreak_raises(self, tiebreak):
        for extract in (markov_arcs, extract_markov):
            with pytest.raises(ValueError, match="tiebreak"):
                extract(make_M(), 5, tiebreak=tiebreak)


class TestEvaluateFixed:
    def test_always_shortcut(self):
        g = make_M()
        always_h = MarkovStrategy(
            player=1, horizon=3, choices={(t, "x"): 1 for t in (1, 2, 3)}
        )
        assert values_at(g, range(4), always_h)[3]["x"] == HALF

    def test_always_slow_at_short_horizon(self):
        g = make_M()
        always_2 = MarkovStrategy(
            player=1, horizon=2, choices={(t, "x"): 0 for t in (1, 2)}
        )
        assert values_at(g, range(3), always_2)[2]["x"] == ZERO

    def test_missing_entry_raises(self):
        g = make_M()
        partial = MarkovStrategy(player=1, horizon=3, choices={(3, "x"): 0})
        with pytest.raises(StrategyError):
            values_at(g, range(4), partial)

    def test_opponent_best_responds(self):
        g = Game(
            states=(
                State("a", StateKind.MAX, ("m", "bot")),
                State("m", StateKind.MIN, ("bot", "top")),
                State("top", StateKind.COIN, ("top", "top")),
                State("bot", StateKind.TERMINAL),
            ),
            start="a",
        )
        into_min = MarkovStrategy(
            player=1, horizon=2, choices={(t, "a"): 0 for t in (1, 2)}
        )
        # the min player dodges the terminal, so the max player gets 0
        assert values_at(g, range(3), into_min)[2]["a"] == ZERO

    def test_final_variant_agrees(self):
        g = make_G(3)
        strat = extract_markov(g, 15)
        assert evaluate_fixed_final(g, 15, strat) == values_at(g, range(16), strat)[15]


class TestEvaluateCounter:
    def test_unrolled_optimal_matches_backward_induction(self):
        from fhgames.counter import from_markov

        g = make_M()
        horizon = 5
        cs = from_markov(extract_markov(g, horizon))
        result = evaluate_counter(g, horizon, cs)
        assert result.value == values_at(g, range(horizon + 1))[horizon]["start"]

    def test_two_memory_strategy_on_shortcut(self):
        # alternating automaton: shortcut on even elapsed, slow on odd
        cs = CounterStrategy(0, 2, {(0, "x"): 1, (1, "x"): 0})
        result = evaluate_counter(make_M(), 4, cs)
        assert result.value == Dyadic(5, 3)  # equals the optimum at T=4

    def test_constant_is_suboptimal_on_shortcut(self):
        g = make_M()
        horizon = 5
        best = values_at(g, range(horizon + 1))[horizon]["start"]
        for arc in (0, 1):
            cs = CounterStrategy(0, 1, {(0, "x"): arc})
            assert evaluate_counter(g, horizon, cs).value < best

    def test_matches_unrolled_markov_evaluation(self):
        from fhgames.counter import to_markov

        g = make_F(2)
        horizon = 8
        cs = CounterStrategy(
            1, 3, {(m, sid): (m + ord(sid[-1])) % 2 for m in range(4) for sid in ("m1", "m2")}
        )
        via_product = evaluate_counter(g, horizon, cs).value
        via_markov = values_at(g, range(horizon + 1), to_markov(cs, horizon))[horizon][g.start]
        assert via_product == via_markov

    def test_opponent_best_responds_on_product(self):
        g = Game(
            states=(
                State("x", StateKind.MAX, ("m", "h")),
                State("m", StateKind.MIN, ("bot", "top")),
                State("h", StateKind.COIN, ("top", "bot")),
                State("top", StateKind.COIN, ("top", "top")),
                State("bot", StateKind.TERMINAL),
            ),
            start="x",
        )
        into_min = CounterStrategy(0, 1, {(0, "x"): 0})
        assert evaluate_counter(g, 3, into_min).value == ZERO  # min dodges
        into_coin = CounterStrategy(0, 1, {(0, "x"): 1})
        assert evaluate_counter(g, 3, into_coin).value == HALF

    def test_cell_guard(self, monkeypatch):
        # the value sweep keeps two game rows and is not capped; the
        # table of rows is, before it is swept
        cs = CounterStrategy(0, 1, {(0, "x"): 0})
        uncapped = evaluate_counter(make_M(), 1000, cs).value
        monkeypatch.setattr(solver, "CELL_CAP", 100)
        result = evaluate_counter(make_M(), 1000, cs)
        assert result.value == uncapped
        forbid_sweeps(monkeypatch)
        with pytest.raises(GuardExceeded, match="7007 value cells exceed the cell cap 100"):
            result.rows

    def test_missing_action_raises(self):
        cs = CounterStrategy(0, 2, {(0, "x"): 0})
        with pytest.raises(StrategyError):
            evaluate_counter(make_M(), 4, cs)

    def test_missing_action_raises_at_unreached_memory(self):
        # horizon 1 reads memory 0 only; memory 1 is still checked
        cs = CounterStrategy(0, 5, {(0, "x"): 0})
        with pytest.raises(StrategyError, match="no action for memory 1, state 'x'"):
            evaluate_counter(make_M(), 1, cs)

    def test_missing_actions_raise_under_any_cap(self, monkeypatch):
        monkeypatch.setattr(solver, "CELL_CAP", 100)
        forbid_sweeps(monkeypatch)  # raised before the sweep
        cs = CounterStrategy(0, 2, {(0, "x"): 0})  # memory 1 has no action
        with pytest.raises(StrategyError, match="no action for memory 1, state 'x'"):
            evaluate_counter(make_M(), 1000, cs)

    def test_minimal_period_witness_of_F5(self):
        # 2310 memories at T = 4630: about 6.1e8 product cells, two rows swept
        g = make_F(5)
        witness = minimal_period(optimal_action_sets(g, 4630)[0]).witness
        assert witness.size == 2310
        assert evaluate_counter(g, 4630, witness).value == final_values(g, 4630)["m1"]

    def test_optimal_prefix_then_memoryless_optimum_on_H3(self):
        # T0 + 1 memories: memory k < T0 plays the optimal arc at remaining
        # time T0 - k, memory T0 the infinite-horizon optimum
        from fhgames.oracle import solve_infinite

        g, t0 = make_H(3), 8192
        actions = {
            (k, sid): row[t0 - k - 1] for sid, row in markov_arcs(g, t0).items() for k in range(t0)
        }
        actions.update(((t0, sid), arc) for sid, arc in solve_infinite(g).strategy.items())
        cs = CounterStrategy(t0, 1, actions)
        assert cs.size == 8193
        assert evaluate_counter(g, t0, cs).value == final_values(g, t0)[g.start]

    def test_product_is_built_only_for_rows(self):
        g = make_M()
        cs = CounterStrategy(3, 5, {(m, "x"): m % 2 for m in range(8)})
        with mock.patch.object(solver, "_sweep", wraps=solver._sweep) as sweep:
            result = evaluate_counter(g, 100, cs)
            value_plans = [len(call.args[0]) for call in sweep.call_args_list]
            result.rows
            row_plans = [len(call.args[0]) for call in sweep.call_args_list[len(value_plans) :]]
        # no product: rows sweeps the game along the trajectory, as the value does
        assert value_plans == [len(g.states)]
        assert row_plans == [len(g.states)]

    def test_negative_horizon_rejected(self):
        cs = CounterStrategy(0, 1, {(0, "x"): 0})
        for horizon in (-1, -2):
            with pytest.raises(ValueError):
                evaluate_counter(make_M(), horizon, cs)

    @given(
        st.integers(0, 2**32),
        st.integers(2, 8),
        st.integers(0, 3),
        st.integers(1, 4),
        st.integers(0, 12),
    )
    @example(seed=1, n=6, initial=3, period=4, horizon=0)
    @example(seed=2, n=6, initial=3, period=4, horizon=3)  # automaton beyond the horizon
    @settings(max_examples=200, deadline=None)
    def test_trajectory_matches_memory_product(self, seed, n, initial, period, horizon):
        rng = random.Random(seed)
        g = random_game(n, rng)
        # actions at both players' states: each evaluation must read only its own
        actions = {
            (m, sid): rng.randint(0, 1)
            for m in range(initial + period)
            for sid in g.controlled_ids(1) + g.controlled_ids(2)
        }
        cs = CounterStrategy(initial, period, actions)
        for player in (1, 2):
            want = reference_counter_value(g, horizon, cs, player)
            assert evaluate_counter(g, horizon, cs, player).value == want
        partial = CounterStrategy(
            initial, period, {slot: arc for slot, arc in actions.items() if rng.random() < 0.6}
        )
        want = reference_counter_value(g, horizon, partial, free=True)
        assert counter_bound(g, horizon, partial) == want

    @given(
        st.integers(0, 2**32),
        st.integers(2, 6),
        st.integers(0, 2),
        st.integers(1, 3),
        st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_bound_covers_every_completion(self, seed, n, initial, period, horizon):
        rng = random.Random(seed)
        g = random_game(n, rng)
        slots = [(m, sid) for m in range(initial + period) for sid in g.controlled_ids(1)]
        free = rng.sample(slots, min(len(slots), rng.randint(0, 6)))
        partial = {slot: rng.randint(0, 1) for slot in slots if slot not in free}
        bound = counter_bound(g, horizon, CounterStrategy(initial, period, partial))
        for arcs in itertools.product((0, 1), repeat=len(free)):
            cs = CounterStrategy(initial, period, {**partial, **dict(zip(free, arcs))})
            value = evaluate_counter(g, horizon, cs).value
            assert value <= bound
            assert counter_bound(g, horizon, cs) == value
        # with every slot free the bound is the optimum itself
        empty = CounterStrategy(initial, period, {})
        assert counter_bound(g, horizon, empty) == final_values(g, horizon)[g.start]

    @given(
        st.integers(0, 2**32),
        st.integers(2, 7),
        st.integers(0, 4),
        st.integers(1, 5),
        st.integers(0, 12),
    )
    @example(seed=3, n=5, initial=2, period=3, horizon=12)  # two laps of the cycle
    @settings(max_examples=150, deadline=None)
    def test_rows_are_the_product_cells_the_value_reads(self, seed, n, initial, period, horizon):
        assume(initial + period <= 5)
        rng = random.Random(seed)
        g = random_game(n, rng)
        # actions at both players' states: each evaluation must read only its own
        actions = {
            (m, sid): rng.randint(0, 1)
            for m in range(initial + period)
            for sid in g.controlled_ids(1) + g.controlled_ids(2)
        }
        cs = CounterStrategy(initial, period, actions)
        for player in (1, 2):
            plan = reference_product_plan(g, horizon, cs, player)
            product = reference_sweep(plan, horizon, range(horizon + 1))
            rows = evaluate_counter(g, horizon, cs, player).rows
            assert len(rows) == horizon + 1
            for t, row in enumerate(rows):
                held = cs.memory_at(horizon - t)
                want = {key: v for key, v in product[t].items() if key[0] == held}
                assert list(row.items()) == list(want.items())

    def test_zero_horizon_needs_no_actions(self):
        g = make_M()
        result = evaluate_counter(g, 0, CounterStrategy(0, 1, {}))
        assert result.value == ZERO
        assert result.rows == ({(0, sid): ONE if sid == "bot" else ZERO for sid in g.ids()},)

    @given(
        st.integers(0, 2**32),
        st.integers(2, 6),
        st.integers(0, 2),
        st.integers(1, 3),
        st.integers(0, 8),
        st.sampled_from((1, 2)),
    )
    @settings(max_examples=150, deadline=None)
    def test_product_matches_unrolled_evaluation(self, seed, n, initial, period, horizon, player):
        rng = random.Random(seed)
        g = random_game(n, rng)
        actions = {
            (m, sid): rng.randint(0, 1)
            for m in range(initial + period)
            for sid in g.controlled_ids(player)
        }
        cs = CounterStrategy(initial, period, actions)
        result = evaluate_counter(g, horizon, cs, player=player)
        assert "rows" not in vars(result)  # value-only until rows are read
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.value = ZERO
        unrolled = to_markov(cs, horizon, player)
        assert result.value == evaluate_fixed_final(g, horizon, unrolled)[g.start]
        assert result.value == result.rows[horizon][(0, g.start)]
        assert result.rows is result.rows
        if not g.controlled_ids(3 - player):
            tables = (unrolled.choices, {}) if player == 1 else ({}, unrolled.choices)
            assert result.value.as_fraction() == play_value(g, horizon, *tables)
        # the kernel's exponent assert vanishes under python -O; check it here
        for rows in (result.rows, tuple(values_at(g, range(horizon + 1)).values())):
            assert len(rows) == horizon + 1
            for t, row in enumerate(rows):
                assert all(v.exponent <= t for v in row.values())


class TestOracleEquivalence:
    def enumerate_strategies(self, ids, horizon):
        keys = [(t, sid) for t in range(1, horizon + 1) for sid in ids]
        for picks in itertools.product((0, 1), repeat=len(keys)):
            yield dict(zip(keys, picks))

    def test_value_is_maximin_over_markov_pairs(self):
        rng = random.Random(20250810)
        checked = 0
        while checked < 40:
            g = random_game(rng.randint(2, 5), rng)
            horizon = rng.randint(0, 4)
            n1 = len(g.controlled_ids(1)) * horizon
            n2 = len(g.controlled_ids(2)) * horizon
            if n1 + n2 > 12:
                continue
            checked += 1
            expected = values_at(g, range(horizon + 1))[horizon][g.start]
            best = None
            for a1 in self.enumerate_strategies(g.controlled_ids(1), horizon):
                worst = None
                for a2 in self.enumerate_strategies(g.controlled_ids(2), horizon):
                    v = play_value(g, horizon, a1, a2)
                    worst = v if worst is None else min(worst, v)
                best = worst if best is None else max(best, worst)
            assert best == expected.as_fraction()


def _cells(rows_by_t):
    """(t, [(id, mantissa, exponent), ...]) per row, in key order."""
    out = []
    for t, row in rows_by_t:
        assert all(type(v) is Dyadic for v in row.values())
        # the exponent bound is not an assert in the kernel; check it here
        assert all(v.exponent <= t for v in row.values())
        out.append((t, [(key, v.mantissa, v.exponent) for key, v in row.items()]))
    return out


def assert_sets_match_reference(g, horizon, players=(1, 2)):
    """Action sets and extracted arcs against reference_sweep's sets."""
    ref = {}
    reference_sweep(g.states, horizon, sets=ref)
    halves = optimal_action_sets(g, horizon)
    for player, seq in zip((1, 2), halves):
        assert list(seq.masks) == sorted(g.controlled_ids(player))
    got = {
        (t, sid): arcs_at(seq, t, sid)
        for seq in halves
        for sid in seq.masks
        for t in range(1, horizon + 1)
    }
    assert got == ref
    for player in players:
        own = g.controlled_ids(player)
        for tiebreak, pick in (("lo", min), ("hi", max)):  # same picks, same key order
            want = [(k, pick(arcs)) for k, arcs in ref.items() if k[1] in own]
            choices = extract_markov(g, horizon, player, tiebreak).choices
            assert list(choices.items()) == want


class TestScaledKernel:
    """The integer-scaled kernel against the per-cell Dyadic loop it replaced."""

    @staticmethod
    def results(g, horizon, checkpoints, strategy, cs, player):
        counter = evaluate_counter(g, horizon, cs, player)
        return {
            "table": _cells(values_at(g, range(horizon + 1)).items()),
            "final": _cells([(horizon, final_values(g, horizon))]),
            "best_at": _cells(values_at(g, checkpoints).items()),
            "played_at": _cells(values_at(g, checkpoints, strategy).items()),
            "fixed": _cells(values_at(g, range(horizon + 1), strategy).items()),
            "fixed_final": _cells([(horizon, evaluate_fixed_final(g, horizon, strategy))]),
            "counter": _cells(enumerate(counter.rows)),
            "counter_value": counter.value,
        }

    @given(
        st.integers(0, 2**32),
        st.integers(2, 8),
        st.integers(0, 40),
        st.sampled_from((1, 2)),
        st.integers(0, 2),
        st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dyadic_reference(self, seed, n, horizon, player, initial, period):
        rng = random.Random(seed)
        g = random_game(n, rng)
        own = g.controlled_ids(player)
        checkpoints = rng.sample(range(horizon + 1), rng.randint(1, min(4, horizon + 1)))
        strategy = MarkovStrategy(
            player=player,
            horizon=horizon,
            choices={(t, sid): rng.randint(0, 1) for t in range(1, horizon + 1) for sid in own},
        )
        cs = CounterStrategy(
            initial,
            period,
            {(m, sid): rng.randint(0, 1) for m in range(initial + period) for sid in own},
        )
        args = (g, horizon, checkpoints, strategy, cs, player)
        scaled = self.results(*args)
        with mock.patch.object(solver, "_sweep", reference_sweep):
            expected = self.results(*args)
        assert scaled == expected
        assert_sets_match_reference(g, horizon, (player,))

    def test_wide_values_match_reference(self):
        g = make_H(3)
        checkpoints = (1000, 3072)
        strategy = extract_markov(g, 3072, player=2)
        scaled = values_at(g, checkpoints), values_at(g, checkpoints, strategy)
        with mock.patch.object(solver, "_sweep", reference_sweep):
            expected = values_at(g, checkpoints), values_at(g, checkpoints, strategy)
        assert scaled == expected
        assert scaled[0][3072][g.start].mantissa.bit_length() > 3000

    def test_zero_and_one_are_shared(self):
        rows = values_at(make_M(), range(7))
        cells = [v for row in rows.values() for v in row.values()]
        assert any(v == ZERO for v in cells) and any(v == ONE for v in cells)
        assert all(v is ZERO for v in cells if v == ZERO)
        assert all(v is ONE for v in cells if v == ONE)

    def test_bad_arc_index_raises(self):
        g = make_M()
        strategy = MarkovStrategy(player=1, horizon=3, choices={(t, "x"): 2 for t in (1, 2, 3)})
        with pytest.raises(StrategyError):
            evaluate_fixed_final(g, 3, strategy)


def chain_game(kind, length, loop):
    """bot <- c1 <- ... <- c<length>, each ``kind`` state reading its
    predecessor (on both arcs, or on arc 0 and itself when ``loop``; a
    min state's other arc is bot), under a max head x with arcs (c<length>, x).
    """
    ids = ["bot"] + [f"c{j}" for j in range(1, length + 1)]
    states = [State("bot", StateKind.TERMINAL)]
    for prev, sid in zip(ids, ids[1:]):
        other = sid if loop else "bot" if kind is StateKind.MIN else prev
        states.append(State(sid, kind, (prev, other)))
    states.append(State("x", StateKind.MAX, (ids[-1], "x")))
    return Game(states=tuple(states), start="x")


def sweep_steps(call):
    """The result of ``call()`` and the steps its sweeps take: each step
    draws its ops once from the kernel's ``repeat``."""
    drawn = []

    def counted(ops):
        while True:
            drawn.append(1)
            yield ops

    with mock.patch.object(solver, "repeat", counted):
        result = call()
    return result, len(drawn)


def steps_swept(g, horizon):
    """Steps that final_values(g, horizon) sweeps."""
    return sweep_steps(lambda: final_values(g, horizon))[1]


def game_of(start, *states):
    """A game of (id, kind, arcs) entries plus the terminal bot."""
    return Game(
        states=tuple(State(*entry) for entry in states) + (State("bot", StateKind.TERMINAL),),
        start=start,
    )


def short_horizons(g):
    n = len(g.states)
    return (1, 2, n - 1, n, 3 * n)


class TestSettledStates:
    """The kernel settles states at 0 or 1 at the first step whose counts
    of 0s and 1s repeat the step before's, in a sweep whose arcs never
    change; reference_sweep never settles."""

    @staticmethod
    def results(g, horizon, checkpoints, strategy, automata):
        own = g.controlled_ids(strategy.player)
        memoryless = g.fix(strategy.player, {sid: strategy.choices.get((1, sid), 0) for sid in own})
        out = {"memoryless_at": _cells(values_at(memoryless, checkpoints).items())}
        for k, (cs, player) in enumerate(automata):
            for key, value in TestScaledKernel.results(
                g, horizon, checkpoints, strategy, cs, player
            ).items():
                out[key, k] = value
            if player == 1:
                out["bound", k] = counter_bound(g, horizon, cs)
        return out

    def assert_matches_reference(self, g, horizon, checkpoints, strategy, automata):
        settled = self.results(g, horizon, checkpoints, strategy, automata)
        with mock.patch.object(solver, "_sweep", reference_sweep):
            expected = self.results(g, horizon, checkpoints, strategy, automata)
        assert settled == expected
        assert_sets_match_reference(g, horizon)

    @given(
        st.integers(0, 2**32),
        st.integers(2, 9),
        st.sampled_from(("1..n", "n-1", "n", "n+1", "2n", "any")),
        st.sampled_from((1, 2)),
    )
    @example(seed=0, n=2, pick="2n", player=1)
    @example(seed=1, n=2, pick="n+1", player=2)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_past_the_switch(self, seed, n, pick, player):
        rng = random.Random(seed)
        g = random_game(n, rng)
        horizon = {"n-1": n - 1, "n": n, "n+1": n + 1, "2n": 2 * n}.get(pick)
        if pick == "1..n":
            horizon = rng.randint(1, n)
        elif horizon is None:
            horizon = rng.randint(0, 6 * n)
        checkpoints = {horizon, rng.randint(0, horizon), rng.randint(0, horizon)}
        own = g.controlled_ids(player)
        strategy = MarkovStrategy(
            player=player,
            horizon=horizon,
            choices={(t, sid): rng.randint(0, 1) for t in range(1, horizon + 1) for sid in own},
        )
        automata = [
            (CounterStrategy(initial, period, {
                (m, sid): rng.randint(0, 1) for m in range(initial + period) for sid in own
            }), player)
            for initial, period in ((0, 1), (0, 2), (1, 1))  # one and two memories
        ]
        self.assert_matches_reference(g, horizon, checkpoints, strategy, automata)

    @pytest.mark.parametrize(
        "kind, loop", [(StateKind.COIN, False), (StateKind.COIN, True), (StateKind.MIN, False)]
    )
    @pytest.mark.parametrize("length", range(6))
    def test_chain_head_leaves_zero_at_n_minus_1(self, kind, loop, length):
        g = chain_game(kind, length, loop)
        n = len(g.states)
        rows = values_at(g, range(6 * n + 1))
        first = min(t for t, row in rows.items() if row["x"] > ZERO)
        assert first == n - 1
        assert (rows[6 * n]["x"] == ONE) is not (loop and length > 0)  # settles at 1, or never
        self.assert_matches_reference_at(g, "x", 1, (n - 1, n, n + 1, 2 * n, 6 * n))

    def assert_matches_reference_at(self, g, sid, player, horizons):
        """Every view at each horizon, with a strategy and one- and
        two-memory counters that move ``sid``."""
        for horizon in horizons:
            strategy = MarkovStrategy(
                player, horizon, {(t, sid): t % 2 for t in range(1, horizon + 1)}
            )
            automata = [
                (CounterStrategy(0, 1, {(0, sid): 1}), player),
                (CounterStrategy(1, 1, {(0, sid): 0, (1, sid): 1}), player),
                (CounterStrategy(0, 2, {(0, sid): 0, (1, sid): 1}), player),
            ]
            self.assert_matches_reference(g, horizon, range(horizon + 1), strategy, automata)

    def test_no_arc_into_the_terminal_ends_at_step_1(self):
        g = game_of(
            "a",
            ("a", StateKind.MAX, ("b", "c")),
            ("b", StateKind.COIN, ("a", "b")),
            ("c", StateKind.MIN, ("a", "b")),
        )
        self.assert_matches_reference_at(g, "a", 1, short_horizons(g))
        self.assert_matches_reference_at(g, "c", 2, short_horizons(g))
        assert [steps_swept(g, horizon) for horizon in (0, 1, 2, 10**6)] == [0, 1, 1, 1]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_ones_still_growing_keep_the_sweep(self, k):
        # c<j> reaches 1 at step j and the max state x at step 1, so the
        # 0s are fixed from step 1 while the 1s grow to step k; x's mask
        # is 1 up to step k and 3 from step k + 1.
        chain = [("c1", StateKind.COIN, ("bot", "bot"))] + [
            (f"c{j}", StateKind.COIN, ("bot", f"c{j - 1}")) for j in range(2, k + 1)
        ]
        g = game_of("x", ("x", StateKind.MAX, ("bot", f"c{k}")), *chain)
        max_sets = optimal_action_sets(g, k + 2)[0]
        assert max_sets.masks["x"][::-1] == bytes([1] * k + [3, 3])  # remaining time 1..k+2
        self.assert_matches_reference_at(g, "x", 1, short_horizons(g))
        assert steps_swept(g, 3 * k) == k + 1  # all at 1 from step k

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_zeros_still_shrinking_keep_the_sweep(self, k):
        # d<j> leaves 0 at step j and never reaches 1, z stays at 0, so
        # the 1s are fixed from the start while the 0s shrink to step k;
        # the min state y stays at 0 with mask 3 up to step k and 1 after.
        chain = [("d1", StateKind.COIN, ("bot", "z"))] + [
            (f"d{j}", StateKind.COIN, (f"d{j - 1}", f"d{j - 1}")) for j in range(2, k + 1)
        ]
        g = game_of(
            "y", ("y", StateKind.MIN, ("z", f"d{k}")), ("z", StateKind.COIN, ("z", "z")), *chain
        )
        min_sets = optimal_action_sets(g, k + 2)[1]
        assert min_sets.masks["y"][::-1] == bytes([3] * k + [1, 1])  # remaining time 1..k+2
        self.assert_matches_reference_at(g, "y", 2, short_horizons(g))


class TestFixedGame:
    """A memoryless strategy played as Game.fix's game, which the kernel
    sweeps as coins on one destination and settles, against the same
    strategy read per cell on the unfixed game and the Dyadic loop."""

    @given(st.integers(0, 2**32), st.integers(2, 9), st.sampled_from((1, 2)), st.integers(0, 60))
    @example(seed=0, n=2, player=1, horizon=0)
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_per_cell_and_reference_rows(self, seed, n, player, horizon):
        rng = random.Random(seed)
        g = random_game(n, rng)
        g = Game(g.states, rng.choice(g.ids()))  # some starts reach part of the arena
        arcs = {sid: rng.getrandbits(1) for sid in g.controlled_ids(player)}
        checkpoints = {horizon, rng.randint(0, horizon), rng.randint(0, horizon)}
        fixed = g.fix(player, arcs)
        rows = values_at(fixed, checkpoints)
        assert rows == values_at(g, checkpoints, PerCell(player, arcs))
        assert rows == reference_sweep(fixed.states, horizon, checkpoints)
        sub = values_at(g.reachable.fix(player, arcs), checkpoints)
        assert {t: row[g.start] for t, row in sub.items()} == {
            t: row[g.start] for t, row in rows.items()
        }


class TestCellCap:
    def test_full_tables_refuse_beyond_the_cap(self, monkeypatch):
        g = make_M()
        horizon = CELL_CAP // len(g.states)  # (horizon + 1) rows exceed the cap
        strategy = MarkovStrategy(player=1, horizon=horizon, choices={})
        forbid_sweeps(monkeypatch)
        with pytest.raises(GuardExceeded):
            values_at(g, range(horizon + 1))
        with pytest.raises(GuardExceeded):
            values_at(g, range(horizon + 1), strategy)
        for solve in (optimal_action_sets, extract_markov):  # action-set tables
            with pytest.raises(GuardExceeded):
                solve(g, horizon)

    def test_cap_is_inclusive(self, monkeypatch):
        g = make_M()
        n = len(g.states)
        monkeypatch.setattr(solver, "CELL_CAP", 4 * n)
        assert len(values_at(g, range(4))) == 4
        assert [seq.length for seq in optimal_action_sets(g, 3)] == [3, 3]
        with pytest.raises(GuardExceeded):
            values_at(g, range(5))
        with pytest.raises(GuardExceeded):
            optimal_action_sets(g, 4)

    def test_values_at_counts_the_rows_kept(self, monkeypatch):
        g = make_M()
        n = len(g.states)
        monkeypatch.setattr(solver, "CELL_CAP", 4 * n)
        assert list(values_at(g, range(4))) == [0, 1, 2, 3]
        assert list(values_at(g, [3, 1, 2, 0, 3])) == [0, 1, 2, 3]
        refused = f"{5 * n} value cells exceed the cell cap {4 * n}"
        for checkpoints in (range(5), [4, 0, 1, 2, 3]):
            with pytest.raises(GuardExceeded, match=refused):
                values_at(g, checkpoints)
        # two rows kept, however deep the sweep that reaches them
        assert list(values_at(g, (0, 10**4))) == [0, 10**4]

    def test_values_at_counts_the_masks_kept(self, monkeypatch):
        g = make_H(2)  # 8 states, max state "x"
        monkeypatch.setattr(solver, "CELL_CAP", 10)
        masks = {"x": bytearray(), "bot": bytearray()}  # 2 masks per step
        assert list(values_at(g, (5,), sets=masks)) == [5]
        assert [len(row) for row in masks.values()] == [5, 0]  # bot is no optimising state
        masks = {"x": bytearray(), "bot": bytearray()}
        with mock.patch.object(solver, "_sweep") as sweep:
            with pytest.raises(GuardExceeded, match="12 value cells exceed the cell cap 10"):
                values_at(g, (6,), sets=masks)
        sweep.assert_not_called()
        assert masks == {"x": bytearray(), "bot": bytearray()}
        assert list(values_at(g, (6,), sets={})) == [6]  # no masks, none counted

    def test_counter_default_reads_the_cap_at_call_time(self, monkeypatch):
        # only the table of rows is capped, when rows is first read
        g = make_M()
        cs = CounterStrategy(0, 1, {(0, "x"): 0})
        uncapped = evaluate_counter(g, 3, cs)
        bound = counter_bound(g, 3, CounterStrategy(0, 1, {}))
        search = min_counter_memory(g, 3, Dyadic(1, 3), 2)
        monkeypatch.setattr(solver, "CELL_CAP", 28)  # 4 rows of 7 states
        at_cap = evaluate_counter(g, 3, cs)
        assert at_cap.value == uncapped.value
        assert at_cap.rows == uncapped.rows
        monkeypatch.setattr(solver, "CELL_CAP", 10)
        result = evaluate_counter(g, 3, cs)
        assert result.value == uncapped.value
        assert counter_bound(g, 3, CounterStrategy(0, 1, {})) == bound
        assert min_counter_memory(g, 3, Dyadic(1, 3), 2) == search
        forbid_sweeps(monkeypatch)
        with pytest.raises(GuardExceeded, match="28 value cells exceed the cell cap 10"):
            result.rows

    def test_counter_default_is_the_shared_cap(self, monkeypatch):
        g = make_M()
        horizon = 10
        size = CELL_CAP // ((horizon + 1) * len(g.states)) + 1  # its product exceeds the cap
        cs = CounterStrategy(size - 1, 1, {(m, "x"): 0 for m in range(size)})
        result = evaluate_counter(g, horizon, cs)
        one_memory = CounterStrategy(0, 1, {(0, "x"): 0})  # plays as cs does
        played = evaluate_counter(g, horizon, one_memory)
        assert result.value == played.value
        with mock.patch.object(solver, "_sweep", wraps=solver._sweep) as sweep:
            rows = result.rows  # (horizon + 1) game rows, memory horizon - t at row t
        assert [len(call.args[0]) for call in sweep.call_args_list] == [len(g.states)]
        assert sum(map(len, rows)) == (horizon + 1) * len(g.states)
        assert rows == tuple(
            {(horizon - t, sid): v for (_, sid), v in row.items()}
            for t, row in enumerate(played.rows)
        )
        # the rows of a horizon whose game table exceeds the cap are refused;
        # x settles at 1 after a step, so the value's sweep stops at once
        settled = game_of("x", ("x", StateKind.MAX, ("bot", "x")))
        horizon = CELL_CAP // len(settled.states)
        result = evaluate_counter(settled, horizon, one_memory)
        assert result.value == ONE
        forbid_sweeps(monkeypatch)
        refused = f"{(horizon + 1) * len(settled.states)} value cells exceed the cell cap {CELL_CAP}"
        with pytest.raises(GuardExceeded, match=refused):
            result.rows


class TestReachableSubArena:
    """The start-only paths sweep g.reachable; the start's values must
    be those of the whole game."""

    def test_start_values_equal_the_whole_game_sweep(self):
        rng = random.Random(291)
        for g in sub_arena_samples():
            n = len(g.states)
            checkpoints = (0, 1, 2, n, 3 * n, 1 << n)
            whole = values_at(g, checkpoints)
            sub = values_at(g.reachable, checkpoints)
            assert {t: row[g.start] for t, row in sub.items()} == {
                t: row[g.start] for t, row in whole.items()
            }
            played = {sid: rng.getrandbits(1) for sid in g.controlled_ids(1)}
            whole = values_at(g.fix(1, played), checkpoints)
            sub = values_at(g.reachable.fix(1, played), checkpoints)
            assert {t: row[g.start] for t, row in sub.items()} == {
                t: row[g.start] for t, row in whole.items()
            }

    def test_counter_values_equal_the_whole_game_sweep(self):
        rng = random.Random(292)
        for g in sub_arena_samples(30):
            for player in (1, 2):
                own = g.controlled_ids(player)
                for horizon, initial, period in ((0, 0, 1), (3, 0, 1), (7, 1, 2), (9, 2, 3)):
                    slots = [(m, sid) for m in range(initial + period) for sid in own]
                    actions = {slot: rng.getrandbits(1) for slot in slots}
                    cs = CounterStrategy(initial, period, actions)
                    want = full_game_counter_value(g, horizon, cs, player)
                    assert evaluate_counter(g, horizon, cs, player).value == want
                    if player == 1:
                        part = CounterStrategy(initial, period, {k: actions[k] for k in slots[::2]})
                        want = full_game_counter_value(g, horizon, part, free=True)
                        assert counter_bound(g, horizon, part) == want

    def test_memory_search_optimum_is_the_whole_game_value(self):
        for g in list(sub_arena_samples(30))[::7]:
            for horizon in (0, 4, 9):
                result = min_counter_memory(g, horizon, Dyadic(1, 2), 1)
                assert result.optimum == final_values(g, horizon)[g.start]

    def test_a_missing_action_off_the_sub_arena_still_raises(self):
        g = game_of(
            "a",
            ("a", StateKind.MAX, ("bot", "a")),
            ("u", StateKind.MAX, ("a", "bot")),  # the start cannot reach u
        )
        assert g.reachable.ids() == ("a", "bot")
        cs = CounterStrategy(0, 1, {(0, "a"): 0})
        for horizon in (1, 5):
            with pytest.raises(StrategyError, match="memory 0, state 'u'"):
                evaluate_counter(g, horizon, cs)
        assert evaluate_counter(g, 0, cs).value == ZERO
        assert counter_bound(g, 5, cs) == ONE  # u free to the maximiser


class TestSweepInput:
    """Every sweep reads a game's own states tuple, not a copy made per
    sweep: the whole game's, or its start's sub-arena's."""

    def test_sweeps_read_the_states_tuple(self):
        g = Game(make_M().states + (State("u", StateKind.COIN, ("u", "x")),), "start")
        sub = g.reachable
        assert sub is not g
        cs = CounterStrategy(2, 3, {(m, "x"): m % 2 for m in range(5)})
        partial = CounterStrategy(2, 3, {(0, "x"): 1})
        fixed = g.fix(1, {"x": 1})
        whole, start_only = [g.states], [sub.states]
        calls = {
            "values_at": (lambda: values_at(g, range(4)), whole),
            "values_at played": (lambda: values_at(g, (5,), extract_markov(g, 5)), whole * 2),
            "values_at memoryless": (lambda: values_at(fixed, (5,)), [fixed.states]),
            "optimal_action_sets": (lambda: optimal_action_sets(g, 6), whole),
            "markov_arcs": (lambda: markov_arcs(g, 6, 2), whole),
            "evaluate_counter": (lambda: evaluate_counter(g, 7, cs), start_only),
            "rows": (lambda: evaluate_counter(g, 7, cs).rows, start_only + whole),
            "counter_bound": (lambda: counter_bound(g, 7, partial), start_only),
        }
        for name, (call, want) in calls.items():
            with mock.patch.object(solver, "_sweep", wraps=solver._sweep) as sweep:
                call()
            plans = [c.args[0] for c in sweep.call_args_list]
            assert len(plans) == len(want), name
            assert all(p is w for p, w in zip(plans, want)), name


class TestFixedRows:
    """Counter automata and Markov strategies both sweep as _sweep's
    ``fixed`` rows, 2 where the state optimises: against the memory
    product and the per-cell Dyadic loop, which settles nothing."""

    @given(
        st.integers(0, 2**32),
        st.integers(2, 12),
        st.integers(0, 40),
        st.sampled_from((1, 2)),
        st.sampled_from(("complete", "partial", "one memory", "one memory partial")),
    )
    @example(seed=0, n=2, horizon=0, player=1, shape="partial")
    @settings(max_examples=250, deadline=None)
    def test_counter_rows_match_the_memory_product(self, seed, n, horizon, player, shape):
        rng = random.Random(seed)
        g = random_game(n, rng)
        initial, period = (0, 1) if "one" in shape else (rng.randint(0, 3), rng.randint(1, 4))
        slots = [(m, sid) for m in range(initial + period) for sid in g.controlled_ids(player)]
        free = "partial" in shape
        keep = rng.random() if free else 1  # share of slots set
        cs = CounterStrategy(
            initial, period, {slot: rng.getrandbits(1) for slot in slots if rng.random() < keep}
        )
        want = reference_counter_value(g, horizon, cs, player, free)
        fixed = solver._counter_rows(g, horizon, cs, player, free)
        checkpoints = range(horizon + 1)
        rows = solver._sweep(g.states, horizon, checkpoints, fixed=fixed)
        assert rows == reference_sweep(g.states, horizon, checkpoints, fixed=fixed)
        assert rows[horizon][g.start] == want
        if not free:
            assert evaluate_counter(g, horizon, cs, player).value == want
        elif player == 1:
            assert counter_bound(g, horizon, cs) == want

    @given(
        st.integers(0, 2**32),
        st.integers(2, 12),
        st.integers(0, 40),
        st.sampled_from((1, 2)),
        st.integers(0, 3),
    )
    @example(seed=0, n=2, horizon=0, player=1, longer=0)
    @settings(max_examples=250, deadline=None)
    def test_markov_rows_match_the_per_cell_sweep(self, seed, n, horizon, player, longer):
        rng = random.Random(seed)
        g = random_game(n, rng)
        length = horizon + longer
        rows = {}
        for sid in g.controlled_ids(player):
            shape = rng.choice(("constant", "varying", "constant to the horizon"))
            if shape == "varying":
                rows[sid] = bytes(rng.getrandbits(1) for _ in range(length))
            else:
                arc = rng.getrandbits(1)
                tail = arc ^ (shape != "constant")  # past the horizon: the other arc
                rows[sid] = bytes([arc]) * horizon + bytes([tail]) * longer
        strategy = MarkovStrategy(player, length, solver.MarkovChoices(rows, length))
        checkpoints = {horizon, rng.randint(0, horizon), rng.randint(0, horizon)}
        got = values_at(g, checkpoints, strategy)
        per_cell = (PLAYER_KIND[player], strategy.action)
        assert got == reference_sweep(g.states, horizon, checkpoints, fixed=per_cell)
        twin = MarkovStrategy(player, length, dict(strategy.choices))  # read through action
        assert got == values_at(g, checkpoints, twin)

    def test_constant_rows_settle(self):
        # x is 1 from step 1 on arc 0 and 0 for ever on arc 1; a row of
        # one arc throughout sweeps the steps of Game.fix's game
        g = game_of("x", ("x", StateKind.MAX, ("bot", "x")))
        horizon = 10**4

        def markov(row):
            return MarkovStrategy(1, len(row), solver.MarkovChoices({"x": row}, len(row)))

        for arc, value in ((0, ONE), (1, ZERO)):
            fixed_game = sweep_steps(lambda: final_values(g.fix(1, {"x": arc}), horizon)["x"])
            assert fixed_game == (value, 2 - arc)
            for past in (b"", bytes([1 - arc])):  # what the row holds past the horizon
                constant = markov(bytes([arc]) * horizon + past)
                played = sweep_steps(lambda: evaluate_fixed_final(g, horizon, constant)["x"])
                assert played == fixed_game
            automata = [
                CounterStrategy(0, 1, {(0, "x"): arc}),
                CounterStrategy(2, 3, {(m, "x"): arc for m in range(5)}),
            ]
            for cs in automata:
                assert sweep_steps(lambda: evaluate_counter(g, horizon, cs).value) == fixed_game
                assert sweep_steps(lambda: counter_bound(g, horizon, cs)) == fixed_game
        # a row of 2s is an optimising state; a row that changes once
        # sweeps every step
        free = CounterStrategy(0, 2, {})
        assert sweep_steps(lambda: counter_bound(g, horizon, free)) == (ONE, 2)
        late = markov(bytes(horizon - 1) + b"\1")
        assert sweep_steps(lambda: evaluate_fixed_final(g, horizon, late)["x"]) == (ONE, horizon)
        varying = CounterStrategy(0, 2, {(0, "x"): 0, (1, "x"): 1})
        assert sweep_steps(lambda: evaluate_counter(g, horizon, varying).value)[1] == horizon
