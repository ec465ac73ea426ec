"""Exception hierarchy shared across the engine.

Each class maps to one failure category, and ``exit_code`` is the CLI's
exit code for it (usage=1, format/io=2, numerics=3).
"""


class ProtocurateError(Exception):
    """Base class for all engine errors."""

    exit_code = 1


class UsageError(ProtocurateError):
    """Invalid request: bad arguments, empty inputs, unmet preconditions."""


class ConfigError(UsageError):
    """Configuration key unknown, mistyped, or violating a constraint."""


class InsufficientWarmupError(UsageError):
    """Corpus too small to warm up the requested number of prototypes."""


class DegenerateVectorError(UsageError):
    """A vector without a direction where one is required.  ``row`` is its
    position in the batch the direction rule checked and ``kind`` what the
    rule found (a key of ``embedding.NO_DIRECTION``), when known."""

    def __init__(self, message: str, row: int | None = None, kind: str | None = None):
        super().__init__(message)
        self.row = row
        self.kind = kind


class FormatError(ProtocurateError):
    """Malformed binary/CSV artifact.  Carries the byte offset when known."""

    exit_code = 2

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalFailureError(ProtocurateError):
    """A numerical routine failed: no convergence within its budget, or training diverged."""

    exit_code = 3
