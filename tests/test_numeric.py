import functools
import operator
import random
import sys
import threading
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_sequences_with_run
from fhgames import numeric
from fhgames.errors import GuardExceeded
from fhgames.numeric import (
    Dyadic,
    HALF,
    ONE,
    ZERO,
    exp_enclosure,
    fib_nstep,
    run_probability,
    run_threshold,
)


class TestDyadic:
    def test_canonical_form(self):
        assert Dyadic(4, 3) == Dyadic(1, 1)
        assert Dyadic(0, 9) == Dyadic(0, 0)
        assert Dyadic(-12, 4) == Dyadic(-3, 2)
        d = Dyadic(6, 1)
        assert (d.mantissa, d.exponent) == (3, 0)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Dyadic(1, -1)

    def test_rendering(self):
        assert str(Dyadic(127, 7)) == "127/2^7"
        assert str(Dyadic(3)) == "3"
        assert str(Dyadic(-1, 2)) == "-1/2^2"

    def test_parse_round_trip(self):
        for text in ("127/2^7", "0", "1", "-3/2^5"):
            assert str(Dyadic.parse(text)) == text
        with pytest.raises(ValueError):
            Dyadic.parse("1/3")

    def test_decimal_rendering(self):
        assert Dyadic(3, 4).decimal(4) == "0.1875"
        assert Dyadic(1, 1).decimal(0) == "1"  # rounds half away from zero
        assert Dyadic(-1, 2).decimal(2) == "-0.25"

    def test_ordering_mixes_exponents(self):
        assert Dyadic(1, 1) < Dyadic(3, 2) < ONE
        assert Dyadic(5, 3) >= Dyadic(5, 3)
        assert ZERO < HALF < ONE

    @given(
        st.integers(-1000, 1000),
        st.integers(0, 20),
        st.integers(-1000, 1000),
        st.integers(0, 20),
    )
    def test_arithmetic_matches_fractions(self, m1, e1, m2, e2):
        a, b = Dyadic(m1, e1), Dyadic(m2, e2)
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a + b).as_fraction() == fa + fb
        assert (a - b).as_fraction() == fa - fb
        assert (a * b).as_fraction() == fa * fb
        for op in (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge):
            assert op(a, b) == op(fa, fb)
            # Dyadic against int on either side, the int's side reflected
            assert op(a, m2) == op(fa, m2)
            assert op(m1, b) == op(m1, fb)

    @pytest.mark.parametrize("n", [0, 1, -1, 2, -12, 2**70])
    def test_integers_hash_as_their_int(self, n):
        # equal objects must hash equal, or sets and dict keys split them
        assert Dyadic(n) == n
        assert hash(Dyadic(n)) == hash(n)
        assert len({Dyadic(n), n}) == 1
        assert {n: "int"}[Dyadic(n)] == "int"

    @pytest.mark.parametrize("other", [Fraction(1, 2), 0.5, "1/2^1"])
    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_ordering_refuses_other_types(self, op, other):
        for lhs, rhs in ((HALF, other), (other, HALF)):
            with pytest.raises(TypeError):
                op(lhs, rhs)

    def test_int_coercion(self):
        assert HALF + 1 == Dyadic(3, 1)
        assert 1 - HALF == HALF
        assert 2 * HALF == ONE


def reference_terms(i: int, n: int) -> list[int]:
    """F(i)_0 .. F(i)_n (at least three terms), each the sum of the previous i."""
    terms = [0, 1, 1]
    while len(terms) <= n:
        terms.append(sum(terms[max(0, len(terms) - i) :]))
    return terms


def reference_fib(i: int, c: int) -> int:
    """F(i)_c as the sum of the previous i terms, term by term."""
    return reference_terms(i, c)[c] if c > 0 else 0


@functools.cache
def naive_threshold(i: int) -> int:
    """run_threshold by enumeration: the least k such that k - 1 coin
    tosses hold a run of i tails with probability at least 1/2."""
    k = 1
    while 2 * count_sequences_with_run(i, k - 1) < 1 << (k - 1):
        k += 1
    return k


class TestFib:
    def test_boundaries(self):
        assert fib_nstep(2, 0) == 0
        assert fib_nstep(5, -3) == 0
        assert fib_nstep(3, 1) == fib_nstep(3, 2) == 1

    def test_small_tables(self):
        assert [fib_nstep(2, c) for c in range(1, 7)] == [1, 1, 2, 3, 5, 8]
        assert [fib_nstep(3, c) for c in range(1, 8)] == [1, 1, 2, 4, 7, 13, 24]

    def test_one_step_is_all_ones(self):
        assert all(fib_nstep(1, c) == 1 for c in range(1, 50))

    @given(st.integers(1, 6), st.integers(3, 60))
    def test_matches_window_sum(self, i, c):
        assert fib_nstep(i, c) == sum(fib_nstep(i, c - j) for j in range(1, i + 1))

    def test_tables_stop_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(numeric, "FIB_CAP", 64)  # read at each call
        monkeypatch.setattr(numeric, "_fib_tables", {})
        assert fib_nstep(3, 63) == reference_fib(3, 63)
        assert len(numeric._fib_tables[3]) == 64
        for c in (64, 65, 10**6):
            refused = f"^{c + 1} Fibonacci table entries exceed the cap 64$"
            with pytest.raises(GuardExceeded, match=refused):
                fib_nstep(3, c)
        with pytest.raises(GuardExceeded):
            fib_nstep(5, 64)  # a fresh table, refused before it grows
        assert {i: len(table) for i, table in numeric._fib_tables.items()} == {3: 64, 5: 3}
        assert fib_nstep(3, 40) == reference_fib(3, 40)  # lookups below the cap still answer
        with pytest.raises(GuardExceeded):
            run_probability(3, 62)  # reads index 64

    def test_doubling_until_window_fills(self):
        # F_{c} = 2^{c-2} while the window still spans the whole prefix
        for i in range(1, 8):
            for c in range(2, i + 3):
                assert fib_nstep(i, c) == (1 << (c - 2)) - (c == i + 2)


# one lookup step: ascending or descending runs of consecutive indices, a
# single index, the last index again, or run_threshold
LOOKUPS = st.tuples(
    st.sampled_from(["up", "down", "at", "again", "threshold"]),
    st.integers(1, 230),
    st.integers(1, 12),
)


class TestFibTail:
    """Terms past the head come from window scans; each must equal the
    reference, and no index at or past FIB_CAP may be computed."""

    @staticmethod
    def assert_within_cap():
        cap, head, stride = numeric.FIB_CAP, numeric._HEAD, numeric._STRIDE
        assert all(len(table) <= min(head, cap) for table in numeric._fib_tables.values())
        assert all(end < cap for end, _ in numeric._fib_cursors.values())
        assert all(
            head - 1 + (len(kept) - 1) * max(stride, i + 1) < cap
            for i, kept in numeric._fib_windows.items()
        )

    @staticmethod
    def tiny(mp, head, stride, cap):
        """Small head, stride and cap, and empty tables, on a MonkeyPatch."""
        mp.setattr(numeric, "_HEAD", head)
        mp.setattr(numeric, "_STRIDE", stride)
        mp.setattr(numeric, "FIB_CAP", cap)
        for name in ("_fib_tables", "_fib_windows", "_fib_cursors"):
            mp.setattr(numeric, name, {})

    @given(st.integers(1, 8), st.integers(2, 12), st.lists(LOOKUPS, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_lookups_match_the_reference(self, i, stride, steps):
        cap = 200
        terms = reference_terms(i, cap + 3 * 2**i)
        threshold = next(t + 1 for t in range(i, len(terms) - 2) if terms[t + 2] <= 1 << (t - 1))
        with pytest.MonkeyPatch.context() as mp:
            self.tiny(mp, 8, stride, cap)
            run_threshold.cache_clear()
            try:
                last = 1
                for kind, c, length in steps:
                    if kind == "threshold":
                        run_threshold.cache_clear()
                        if threshold + 1 < cap:  # the scan reads index threshold + 1
                            assert run_threshold(i) == threshold
                        else:
                            with pytest.raises(GuardExceeded, match=f"^{cap + 1} Fibonacci"):
                                run_threshold(i)
                        self.assert_within_cap()
                        continue
                    lookups = {
                        "up": range(c, c + length),
                        "down": range(c, max(c - length, 0), -1),
                        "at": [c],
                        "again": [last],
                    }[kind]
                    for c in lookups:
                        if c < cap:
                            assert fib_nstep(i, c) == terms[c], (kind, c)
                        else:
                            refused = f"^{c + 1} Fibonacci table entries exceed the cap {cap}$"
                            with pytest.raises(GuardExceeded, match=refused):
                                fib_nstep(i, c)
                        last = c
                        self.assert_within_cap()
            finally:
                run_threshold.cache_clear()

    @given(st.integers(2, 8), st.integers(0, 6), st.lists(st.integers(1, 199), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_kept_windows_never_overlap(self, stride, extra, lookups):
        i, cap = stride + extra, 200  # i + 1 > stride: windows a stride apart would overlap
        terms = reference_terms(i, cap)
        index = {term: c for c, term in enumerate(terms) if c >= 2}  # increasing from F_2, i >= 2
        lookups = [*lookups, cap - 1]
        with pytest.MonkeyPatch.context() as mp:
            self.tiny(mp, 8, stride, cap)
            assert [fib_nstep(i, c) for c in lookups] == [terms[c] for c in lookups]
            kept = numeric._fib_windows[i][1:]  # the 0th is the head
        ends = [7, *(index[window[-1]] for window in kept)]
        assert all(window == tuple(terms[end - i : end + 1]) for window, end in zip(kept, ends[1:]))
        assert all(later - end >= i + 1 for end, later in zip(ends, ends[1:])), ends

    def test_a_lookup_scans_from_the_nearest_window(self, monkeypatch):
        steps = []

        class Counted(deque):
            def append(self, f):
                steps.append(f)
                super().append(f)

            def appendleft(self, f):
                steps.append(f)
                super().appendleft(f)

        head, stride = numeric._HEAD, numeric._STRIDE
        for name in ("_fib_tables", "_fib_windows", "_fib_cursors"):
            monkeypatch.setattr(numeric, name, {})
        monkeypatch.setattr(numeric, "deque", Counted)
        terms = reference_terms(3, head + 20 * stride)
        assert fib_nstep(3, head + 20 * stride) == terms[-1]
        assert len(steps) == 20 * stride + 1  # each new term once
        for c in range(head + 19 * stride, head, -37):  # behind the cursor
            steps.clear()
            assert fib_nstep(3, c) == terms[c]
            assert len(steps) <= stride // 2, c
            steps.clear()
            assert fib_nstep(3, c) == terms[c]  # inside the cursor's window
            assert steps == []

    def test_threads_share_the_windows(self, monkeypatch):
        monkeypatch.setattr(numeric, "_HEAD", 8)
        monkeypatch.setattr(numeric, "_STRIDE", 5)
        for name in ("_fib_tables", "_fib_windows", "_fib_cursors"):
            monkeypatch.setattr(numeric, name, {})
        terms = reference_terms(3, 400)
        wrong = []

        def lookups(seed):
            rng = random.Random(seed)
            for _ in range(300):
                c = rng.randrange(1, 400)
                if fib_nstep(3, c) != terms[c]:
                    wrong.append(c)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lookups, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("order", [1, -1])
    def test_terms_around_the_head_and_the_first_stride(self, monkeypatch, order):
        head, stride = numeric._HEAD, numeric._STRIDE
        indices = [head - 1, head, head + 1, head + stride - 1, head + stride, head + stride + 1]
        for i in (3, 14):
            terms = reference_terms(i, indices[-1])
            for name in ("_fib_tables", "_fib_windows", "_fib_cursors"):
                monkeypatch.setattr(numeric, name, {})
            assert [fib_nstep(i, c) for c in indices[::order]] == [terms[c] for c in indices[::order]]
            assert len(numeric._fib_tables[i]) == head


class TestRunProbability:
    def test_too_short_is_zero(self):
        for i in range(1, 8):
            assert run_probability(i, i - 1) == ZERO

    def test_single_toss(self):
        assert run_probability(1, 1) == HALF

    def test_matches_enumeration(self):
        # independent oracle: literal count over all 2^t sequences
        for i in range(1, 5):
            for t in range(0, 13):
                expected = Dyadic(count_sequences_with_run(i, t), t)
                assert run_probability(i, t) == expected

    def test_monotone_and_bounded(self):
        for i in (1, 2, 3, 5):
            prev = ZERO
            for t in range(0, 40):
                p = run_probability(i, t)
                assert ZERO <= p <= ONE
                assert prev <= p
                prev = p

    def test_single_step_increment_bound(self):
        # p(a) <= p(a-1) + 2^-i
        for i in (1, 2, 3, 4):
            for a in range(1, 40):
                assert run_probability(i, a) <= run_probability(i, a - 1) + Dyadic(1, i)


class TestThreshold:
    def test_known_values(self):
        assert run_threshold(1) == 2
        assert run_threshold(2) == 5
        assert run_threshold(4) == 23

    def test_defining_property(self):
        for i in (1, 2, 3, 4, 6):
            k = run_threshold(i)
            assert run_probability(i, k - 1) >= HALF
            assert run_probability(i, k - 2) < HALF

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_matches_enumeration(self, i):
        run_threshold.cache_clear()
        assert run_threshold(i) == naive_threshold(i)

    @given(st.integers(1, 3), st.integers(3, 6), st.integers(2, 4), st.integers(3, 16))
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration_past_the_head(self, i, head, stride, cap):
        # thresholds 2, 5 and 11: the stride steps and the bisection cross
        # the head, the kept windows and the cap
        k = naive_threshold(i)
        with pytest.MonkeyPatch.context() as mp:
            TestFibTail.tiny(mp, head, stride, cap)
            run_threshold.cache_clear()
            try:
                if k + 1 < cap:  # the test at index k + 1 is the first that holds
                    assert run_threshold(i) == k
                else:  # refused at the cap, or at the first index tested past it
                    refused = f"^{max(cap, i + 2) + 1} Fibonacci table entries exceed the cap {cap}$"
                    with pytest.raises(GuardExceeded, match=refused):
                        run_threshold(i)
                TestFibTail.assert_within_cap()
            finally:
                run_threshold.cache_clear()


class TestExpEnclosure:
    def test_zero(self):
        enc = exp_enclosure(Fraction(0), Fraction(1, 100))
        assert enc.lower == enc.upper == 1

    def test_contains_known_digits(self):
        width = Fraction(1, 10**9)
        enc = exp_enclosure(Fraction(-1, 8), width)
        known = Fraction("0.882496902584595")  # e^(-1/8) to 15 digits
        assert enc.lower <= known <= enc.upper
        assert enc.width <= width
        enc = exp_enclosure(Fraction(1, 40), width)
        known = Fraction("1.025315120524429")  # e^(1/40)
        assert enc.lower <= known <= enc.upper

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            exp_enclosure(Fraction(3, 2), Fraction(1, 10))
        with pytest.raises(ValueError):
            exp_enclosure(Fraction(1, 2), Fraction(0))

    @given(
        st.fractions(min_value=-1, max_value=1, max_denominator=50),
        st.integers(3, 10),
    )
    @settings(max_examples=50)
    def test_width_contract(self, x, scale):
        width = Fraction(1, 10**scale)
        enc = exp_enclosure(x, width)
        assert enc.width <= width
        assert enc.lower <= enc.upper


class TestGrowthRatios:
    def test_doubling_ratio(self):
        for i in (1, 2, 5):
            for b in range(3, 200):
                assert fib_nstep(i, b) <= 2 * fib_nstep(i, b - 1)

    def test_sharp_ratio_cross_multiplied(self):
        # F_a * 2^{i+1} <= (2^{i+2} - 1) * F_{a-1} for a >= i+3
        for i in (1, 2, 3, 8):
            scale = 1 << (i + 1)
            for a in range(i + 3, 200):
                assert fib_nstep(i, a) * scale <= (2 * scale - 1) * fib_nstep(i, a - 1)
