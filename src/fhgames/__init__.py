"""fhgames: exact solving and strategy-complexity analysis of
finite-horizon simple stochastic games.

All probabilities are exact: dyadic rationals for finite horizons,
general rationals for the infinite-horizon brute-force oracle, and
rational interval enclosures wherever a transcendental constant enters
a comparison.
"""

__version__ = "0.1.0"

from .numeric import (  # noqa: F401
    Dyadic,
    IntervalEnclosure,
    dy_avg,
    exp_enclosure,
    fib_nstep,
    first_run_probability,
    run_probability,
    run_threshold,
)
from .game import Game, State, StateKind, is_mdp, load, store, validate  # noqa: F401
from .solver import (  # noqa: F401
    ActionSetSequence,
    MarkovStrategy,
    MemorylessStrategy,
    backward_induction,
    evaluate_counter,
    evaluate_fixed_final,
    extract_markov,
    final_values,
    optimal_action_sets,
    values_at,
)
from .counter import (  # noqa: F401
    CounterStrategy,
    from_markov,
    least_initial_for_period,
    memory_report,
    minimal_period,
    to_markov,
)
from .gadgets import (  # noqa: F401
    make_F,
    make_G,
    make_H,
    make_M,
    make_star_chain,
    primes,
    primorial,
    random_game,
)
from .oracle import (  # noqa: F401
    min_counter_memory,
    reach_probabilities,
    simulate,
    solve_infinite,
)
from .errors import (  # noqa: F401
    FhgamesError,
    GameFormatError,
    GuardExceeded,
    InvalidGameError,
    StrategyError,
)
