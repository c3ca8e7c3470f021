"""Shared exception types."""


class FhgamesError(Exception):
    """Base class for all package-specific errors."""


class GameFormatError(FhgamesError):
    """A game description document could not be parsed."""


class InvalidGameError(FhgamesError):
    """A structurally broken game was rejected."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class StrategyError(FhgamesError):
    """A strategy does not cover a decision point it is asked about."""


class GuardExceeded(FhgamesError):
    """A configured search budget or size cap was exceeded.

    Exponential searches and large products are opt-in: callers must
    raise the cap explicitly instead of the library truncating silently.
    """
