"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """Invalid protocol or simulation configuration."""


class SimulationError(ReproError):
    """The simulator was driven into an inconsistent state."""
