"""fhgames: exact solving and strategy-complexity analysis of
finite-horizon simple stochastic games.

All probabilities are exact: dyadic rationals for finite horizons,
general rationals for the infinite-horizon brute-force oracle, and
rational interval enclosures wherever a transcendental constant enters
a comparison.

Import each name from its module (``from fhgames.solver import
values_at``); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
