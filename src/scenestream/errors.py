"""Exceptions, warning categories and the number check shared across the package."""

import math


class SceneStreamError(Exception):
    """Base class for errors raised by this package."""


class StreamFormatError(SceneStreamError):
    """Malformed input file or record; its message names the offending line when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


class FrameOrderError(StreamFormatError):
    """A frame_index not above every one before it, where frame order is not repaired."""


class InvariantError(SceneStreamError):
    """A domain invariant was violated (bad box, bad config, inconsistent stream)."""


def check_finite(name: str, value: float, strict: bool = True) -> None:
    """Raise InvariantError naming `value` unless it is a finite number > 0
    (>= 0 when not `strict`); a bare `value <= 0` check lets NaN through."""
    if not (math.isfinite(value) and (value > 0 if strict else value >= 0)):
        raise InvariantError(
            f"{name} must be a finite number {'>' if strict else '>='} 0, got {value!r}")


class DataWarning(UserWarning):
    """Recoverable data issues: repaired ordering, degenerate clips, empty groups."""
