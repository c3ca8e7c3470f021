from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_sequences_with_run
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
        assert (a < b) == (fa < fb)
        assert (a == b) == (fa == fb)

    @pytest.mark.parametrize("n", [0, 1, -1, 2, -12, 2**70])
    def test_integers_hash_as_their_int(self, n):
        # equal objects must hash equal, or sets and dict keys split them
        assert Dyadic(n) == n
        assert hash(Dyadic(n)) == hash(n)
        assert len({Dyadic(n), n}) == 1
        assert {n: "int"}[Dyadic(n)] == "int"

    def test_int_coercion(self):
        assert HALF + 1 == Dyadic(3, 1)
        assert 1 - HALF == HALF
        assert 2 * HALF == ONE


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

    def test_doubling_until_window_fills(self):
        # F_{c} = 2^{c-2} while the window still spans the whole prefix
        for i in range(1, 8):
            for c in range(2, i + 3):
                assert fib_nstep(i, c) == (1 << (c - 2)) - (c == i + 2)


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
