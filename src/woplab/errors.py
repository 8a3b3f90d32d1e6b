"""Shared exception types."""


class ParseError(ValueError):
    """Input text failed to parse.

    ``position`` is a 0-based character offset into the input when known.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class BoundExceededError(ValueError):
    """A computation was refused because a size parameter exceeds its bound."""


def admit(n: int, max_n: int, what: str) -> None:
    """Refuse n below 1, and n above ``max_n`` with a message naming ``what``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > max_n:
        raise BoundExceededError(f"{what} bound is {max_n}, got n={n}")


class MismatchError(RuntimeError):
    """An exact cross-check failed; ``where`` names the offending parameters."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where
