"""Exception hierarchy shared by all subsystems.

Exit-code mapping used by the CLI:
  InputError -> 2, BudgetError -> 3, SearchExhausted -> 4, any other
  HypcertError -> 2.  An elliptic generator to certify is an InputError.
"""


class HypcertError(Exception):
    pass


class InputError(HypcertError):
    """Malformed or out-of-domain input (bad point, unreduced word, y <= 0...)."""


class PreconditionError(HypcertError):
    """A documented precondition of an operation does not hold."""


class DomainError(HypcertError):
    """Operation applied to an isometry/configuration of the wrong kind."""


class ElementaryPairError(DomainError):
    """Two isometries share boundary data; no ping-pong configuration exists."""


class BudgetError(HypcertError):
    """A configured work cap was exceeded; may carry a partial/fallback result."""

    def __init__(self, message, fallback=None):
        super().__init__(message)
        self.fallback = fallback


class SearchExhausted(HypcertError):
    """Bounded search finished without a witness."""
