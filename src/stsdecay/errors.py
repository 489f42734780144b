"""Exception types shared across the package."""

from __future__ import annotations


class InvalidParameterError(ValueError):
    """An input parameter is outside its admissible range (wrong sign, NaN, ...)."""


class NonPhysicalStateError(ValueError):
    """A covariance-matrix parameter set violates the two-mode uncertainty inequality."""


class SeparableInputError(ValueError):
    """An operation that requires an entangled input received a separable state."""


class OraclePrecisionError(RuntimeError):
    """The platform lacks the extended precision an oracle relies on."""
