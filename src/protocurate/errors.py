"""Exception hierarchy shared across the engine.

Each class maps to one failure category so the CLI can translate
exceptions into stable exit codes (usage=1, format/io=2, numerics=3).
"""


class ProtocurateError(Exception):
    """Base class for all engine errors."""


class UsageError(ProtocurateError):
    """Invalid request: bad arguments, empty inputs, unmet preconditions."""


class ConfigError(UsageError):
    """Configuration key unknown, mistyped, or violating a constraint."""


class InsufficientWarmupError(UsageError):
    """Corpus too small to warm up the requested number of prototypes."""


class DegenerateVectorError(UsageError):
    """All-zero or non-finite embedding vector where a direction is required.
    ``row`` is its position in the batch, when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class FormatError(ProtocurateError):
    """Malformed binary/CSV artifact.  Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalFailureError(ProtocurateError):
    """A numerical routine failed: no convergence within its budget, or training diverged."""
