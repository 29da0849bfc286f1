"""Exception types shared across the package, and the one check of a physical quantity."""

import math


class MacrosizeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MacrosizeError):
    """A physical precondition is violated (bad dimension, negative mass, ...)."""


class TruncationError(DomainError):
    """A truncated Fock representation leaves too much weight outside the basis.

    ``suggested_dim`` is a dim that holds the state, or None when no dim up to
    ``quantum.DIM_CAP`` does.
    """

    def __init__(self, message: str, tail_weight: float, suggested_dim: int | None):
        super().__init__(message)
        self.tail_weight = tail_weight
        self.suggested_dim = suggested_dim


class ConfigError(MacrosizeError):
    """A run configuration cannot be parsed (unknown key, bad unit, ...)."""


def require_positive(**values: float) -> None:
    """Raise DomainError naming the first keyword whose value is not finite and > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")


def require_nonnegative(**values: float) -> None:
    """Raise DomainError naming the first keyword whose value is not finite and >= 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0):
            raise DomainError(f"{name} must be finite and >= 0, got {value}")
