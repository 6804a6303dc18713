"""Exception types shared across the package."""
from __future__ import annotations


class DivflowError(Exception):
    """Base class for all package errors."""


class EvaluationError(DivflowError):
    """A coefficient or test-function evaluation returned non-finite values."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class IntegrationError(DivflowError):
    """Time stepping produced a non-finite state, or left the guard radius where no path may drop."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class ConfigError(DivflowError):
    """Invalid configuration, parameters, or mismatched grids."""


class PolicyError(DivflowError):
    """Control horizon outside the certified range (t0 > gamma0 / r)."""


class DegeneracyError(DivflowError):
    """A propagator matrix became numerically singular."""
