"""Exact arithmetic kernel.

Dyadic rationals (``m / 2**e``) are closed under the fair-coin average
that drives finite-horizon backward induction, so solver values never
leave that type.  General rationals (:class:`fractions.Fraction`) appear
only where infinite-horizon reachability forces them.  Comparisons
against transcendental constants go through rational interval
enclosures with explicit remainder bounds.  There is no floating point
anywhere in a verification path.

The module also provides the combinatorics of runs in fair coin
sequences: ``n``-step Fibonacci numbers count the coin sequences that
avoid a run of ``n`` consecutive tails, which yields exact run
probabilities and the half-probability threshold used by the waiting
gadgets.
"""

from __future__ import annotations

import decimal
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

__all__ = [
    "Dyadic",
    "IntervalEnclosure",
    "ZERO",
    "HALF",
    "ONE",
    "int_text",
    "fib_nstep",
    "run_probability",
    "run_threshold",
    "exp_enclosure",
]


def int_text(n: int) -> str:
    """str(n), or past the int-to-str digit limit, which str refuses,
    the exact and unlimited str(decimal.Decimal(n)); the limit stays."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


class Dyadic:
    """An exact dyadic rational ``mantissa / 2**exponent``.

    Instances are immutable and canonical: either the exponent is 0 or
    the mantissa is odd.  Canonical form makes equality and hashing
    structural (an integer hashes as the int it equals), and keeps the
    exponent equal to the true denominator power, which backward
    induction bounds by the horizon.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0):
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if mantissa == 0:
            exponent = 0
        elif exponent:
            # strip shared factors of two; m & -m isolates the lowest set bit
            low = (mantissa & -mantissa).bit_length() - 1
            shift = low if low < exponent else exponent
            mantissa >>= shift
            exponent -= shift
        self.mantissa = mantissa
        self.exponent = exponent

    _PATTERN = re.compile(r"^(-?\d+)(?:/2\^(\d+))?$")

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse the canonical rendering: ``m`` or ``m/2^e``."""
        m = cls._PATTERN.match(text.strip())
        if not m:
            raise ValueError(f"not a dyadic literal: {text!r}")
        return cls(int(m.group(1)), int(m.group(2) or 0))

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.exponent)

    def decimal(self, digits: int = 6) -> str:
        """Rounded decimal rendering (half away from zero); approximate."""
        if digits < 0:
            raise ValueError("digits must be non-negative")
        num = abs(self.mantissa) * 10 ** digits
        den = 1 << self.exponent
        q, r = divmod(num, den)
        if 2 * r >= den:
            q += 1
        sign = "-" if self.mantissa < 0 else ""
        if digits == 0:
            return sign + int_text(q)
        text = int_text(q).rjust(digits + 1, "0")
        return f"{sign}{text[:-digits]}.{text[-digits:]}"

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, Dyadic):
            return value
        if isinstance(value, int):
            return Dyadic(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.exponent, other.exponent)
        m = (self.mantissa << (e - self.exponent)) + (
            other.mantissa << (e - other.exponent)
        )
        return Dyadic(m, e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Dyadic(-self.mantissa, self.exponent)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dyadic(self.mantissa * other.mantissa, self.exponent + other.exponent)

    __rmul__ = __mul__

    # -- comparisons ---------------------------------------------------

    def _cmp(self, other) -> int:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        lhs = self.mantissa << other.exponent
        rhs = other.mantissa << self.exponent
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.mantissa == other.mantissa and self.exponent == other.exponent

    def __hash__(self):
        # an integer equals its int, so it must hash as one
        return hash((self.mantissa, self.exponent)) if self.exponent else hash(self.mantissa)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __str__(self):
        text = int_text(self.mantissa)
        return text if self.exponent == 0 else f"{text}/2^{self.exponent}"

    def __repr__(self):
        return f"Dyadic({int_text(self.mantissa)}, {self.exponent})"


ZERO = Dyadic(0)
HALF = Dyadic(1, 1)
ONE = Dyadic(1)


# -- n-step Fibonacci numbers -----------------------------------------
#
# F(i)_c = sum of the previous i terms, with F(i)_c = 0 for c <= 0 and
# F(i)_1 = F(i)_2 = 1.  F(i)_{t+2} counts the length-t coin sequences
# with no run of i tails.  Tables are grown with the O(1)-per-term
# identity F_c = 2 F_{c-1} - F_{c-1-i} (valid for c >= 3) so scans to
# c ~ 10^4 with thousand-bit values stay cheap.

_fib_lock = threading.Lock()
_fib_tables: dict[int, list[int]] = {}


def fib_nstep(i: int, c: int) -> int:
    """The c-th i-step Fibonacci number, exactly."""
    if i < 1:
        raise ValueError("step count i must be at least 1")
    if c <= 0:
        return 0
    with _fib_lock:
        table = _fib_tables.setdefault(i, [0, 1, 1])  # indices 0, 1, 2
        while len(table) <= c:
            n = len(table)
            prior = table[n - 1 - i] if n - 1 - i >= 1 else 0
            table.append(2 * table[n - 1] - prior)
        return table[c]


def run_probability(i: int, t: int) -> Dyadic:
    """Probability that t fair coin tosses contain i consecutive tails."""
    if i < 1:
        raise ValueError("run length i must be at least 1")
    if t < 0:
        raise ValueError("toss count t must be non-negative")
    return Dyadic((1 << t) - fib_nstep(i, t + 2), t)


@cache
def run_threshold(i: int) -> int:
    """Smallest k with run_probability(i, k - 1) >= 1/2.

    Linear scan; run_probability is non-decreasing in t, so the first
    hit is the threshold.  The comparison reduces to the integer test
    F(i)_{t+2} <= 2^(t-1).  Cached per i.
    """
    if i < 1:
        raise ValueError("run length i must be at least 1")
    t = max(i, 1)
    while fib_nstep(i, t + 2) > (1 << (t - 1)):
        t += 1
    return t + 1


# -- rational enclosures of e^x ----------------------------------------


@dataclass(frozen=True)
class IntervalEnclosure:
    """A rational sandwich [lower, upper] certified to contain a real."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("enclosure bounds out of order")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def __str__(self):
        return f"[{self.lower}, {self.upper}]"


def exp_enclosure(x: Fraction, width: Fraction) -> IntervalEnclosure:
    """Rational enclosure of e**x of at most the requested width.

    Taylor partial sums with the explicit tail bound
    |R_n| <= 2 |x|^(n+1) / (n+1)!  for |x| <= 1, which follows from
    comparing the tail with a geometric series of ratio |x|/(n+2) <= 1/2.
    """
    x = Fraction(x)
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if abs(x) > 1:
        raise ValueError("|x| must be at most 1")
    if x == 0:
        return IntervalEnclosure(Fraction(1), Fraction(1))
    total = Fraction(1)
    term = Fraction(1)
    n = 0
    while True:
        n += 1
        term *= Fraction(x, n)
        total += term
        bound = 2 * abs(term) * abs(x) / (n + 1)
        if 2 * bound <= width:
            return IntervalEnclosure(total - bound, total + bound)
