"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so everything user-facing
derives from GapChainError.
"""


class GapChainError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GapChainError):
    """A solution object does not match the instance it is evaluated against."""


class DomainError(GapChainError):
    """An instance violates a precondition of the requested operation."""


class CapExceededError(GapChainError):
    """An exact solver was asked to exceed its fixed size cap."""


class ConstructionError(GapChainError):
    """A randomized construction exhausted its retry budget."""


class ParseError(GapChainError):
    """An instance file could not be parsed."""
