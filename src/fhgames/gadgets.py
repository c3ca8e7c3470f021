"""Generators for the benchmark gadget families, plus prime utilities.

Families (all single-controller games):

* M      — a waiting loop feeding one choice between a guaranteed
           3-move route and a fair-coin shortcut; optimal play must
           track how many moves remain.
* H(i)   — an approach chain of i coin states that resets on failure,
           feeding the same choice between a coin shortcut and a
           success-run chain of length i; run probabilities of fair
           coin sequences govern its values.
* G(p)   — a cycle gadget whose state j improves exactly when the
           horizon sits in j's residue class mod p, so the lone
           controller choice alternates with period p.
* F(k)   — disjoint copies of G over the first k primes sharing one
           terminal; jointly optimal choices repeat with primorial
           period.

Starred chain states carry an ``s`` suffix ("1s" for 1*), the terminal
is "bot", the absorbing trap is "top".
"""

from __future__ import annotations

import math
import random

from .game import Game, State, StateKind

__all__ = [
    "make_M",
    "make_H",
    "make_G",
    "make_F",
    "primes",
    "primorial",
    "random_game",
]

_MAX = StateKind.MAX
_MIN = StateKind.MIN
_COIN = StateKind.COIN
_TERMINAL = StateKind.TERMINAL


def make_M() -> Game:
    """The 7-state shortcut gadget (6 non-terminal states plus "bot")."""
    states = (
        State("start", _COIN, ("start", "x")),
        State("x", _MAX, ("2", "h")),
        State("h", _COIN, ("top", "bot")),
        State("top", _COIN, ("top", "top")),
        State("2", _COIN, ("1", "1")),
        State("1", _COIN, ("bot", "bot")),
        State("bot", _TERMINAL),
    )
    return Game(states=states, start="start")


def make_H(i: int) -> Game:
    """Approach-chain gadget with 2i+4 states counting "bot".

    The pebble starts at the top of the starred approach chain ("is");
    reaching the choice state "x" within t moves has exactly the
    probability that t fair tosses contain i consecutive tails.
    """
    if i < 1:
        raise ValueError("chain length i must be at least 1")
    top_chain = str(i)
    top_star = f"{i}s"
    states = [
        State("top", _COIN, ("top", "top")),
        State("h", _COIN, ("top", "bot")),
        State("x", _MAX, (top_chain, "h")),
    ]
    states.append(State("1", _COIN, ("bot", top_chain)))
    for j in range(2, i + 1):
        states.append(State(str(j), _COIN, (top_chain, str(j - 1))))
    states.append(State("1s", _COIN, (top_star, "x")))
    for j in range(2, i + 1):
        states.append(State(f"{j}s", _COIN, (top_star, f"{j - 1}s")))
    states.append(State("bot", _TERMINAL))
    return Game(states=tuple(states), start=top_star)


def make_G(p: int) -> Game:
    """Cycle gadget with 2p-1 coin states, one max state, and "bot"."""
    if p < 2:
        raise ValueError("cycle length p must be at least 2")
    states = []
    for j in range(1, p):
        below = "bot" if j == 1 else f"{j - 1}s"
        states.append(State(f"{j}s", _COIN, (below, below)))
    states.append(State("1", _COIN, ("bot", str(p))))
    for j in range(2, p + 1):
        states.append(State(str(j), _COIN, (f"{j - 1}s", str(j - 1))))
    states.append(State("max", _MAX, ("1", "2")))
    states.append(State("bot", _TERMINAL))
    return Game(states=tuple(states), start="max")


def make_F(k: int) -> Game:
    """Disjoint G-copies over the first k primes, sharing one terminal.

    The max state of copy c is named "m{c}"; every other state of copy
    c gets the prefix "c{c}_".  The start is "m1" so the game is a
    valid arena; period analyses quantify over all the max states and
    do not depend on the start.
    """
    if k < 1:
        raise ValueError("copy count k must be at least 1")
    states = []
    for c, p in enumerate(primes(k), start=1):

        def rename(sid, copy=c):
            if sid == "bot":
                return "bot"
            return f"m{copy}" if sid == "max" else f"c{copy}_{sid}"

        for s in make_G(p).states:
            if s.kind is _TERMINAL:
                continue
            states.append(
                State(rename(s.id), s.kind, (rename(s.arcs[0]), rename(s.arcs[1])))
            )
    states.append(State("bot", _TERMINAL))
    return Game(states=tuple(states), start="m1")


def primes(k: int) -> list[int]:
    """The first k primes, by sieving with a growing bound."""
    if k < 1:
        raise ValueError("need at least one prime")
    bound = max(16, k * 2)
    while True:
        sieve = bytearray([1]) * (bound + 1)
        sieve[0] = sieve[1] = 0
        for n in range(2, int(bound ** 0.5) + 1):
            if sieve[n]:
                sieve[n * n :: n] = bytearray(len(sieve[n * n :: n]))
        found = [n for n in range(bound + 1) if sieve[n]]
        if len(found) >= k:
            return found[:k]
        bound *= 2


def primorial(k: int) -> int:
    """Product of the first k primes."""
    return math.prod(primes(k))


def random_game(n_states: int, rng: random.Random) -> Game:
    """Uniformly random valid arena with one terminal among n_states.

    Kinds are drawn uniformly from max/min/coin, arc destinations
    uniformly over all states (self-loops and duplicates allowed), and
    the start uniformly over the non-terminal states.  Deterministic
    given the generator's state.
    """
    if n_states < 2:
        raise ValueError("need at least one non-terminal state")
    ids = [f"s{j}" for j in range(n_states - 1)]
    everything = ids + ["bot"]
    kinds = (_MAX, _MIN, _COIN)
    states = [
        State(sid, rng.choice(kinds), (rng.choice(everything), rng.choice(everything)))
        for sid in ids
    ]
    states.append(State("bot", _TERMINAL))
    return Game(states=tuple(states), start=rng.choice(ids))
