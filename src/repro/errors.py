"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  The subclasses partition
failures by subsystem: the Spatial-like DSL, the Plasticine machine model,
the mapper, and the configuration/validation layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value (negative sizes, zero factors, ...)."""


class PrecisionError(ReproError):
    """An unsupported or inconsistent number-format request."""


class DSLError(ReproError):
    """Misuse of the Spatial-like DSL (bad shapes, out-of-context ops)."""


class DSLBoundsError(DSLError):
    """A DSL memory access is provably out of bounds."""


class InterpreterError(ReproError):
    """The DSL interpreter hit an unexecutable program state."""


class MappingError(ReproError):
    """The mapper could not lower a program onto the target chip."""


class SimulationError(ReproError):
    """The cycle-level simulator reached an inconsistent state."""


class WorkloadError(ReproError):
    """An unknown or malformed benchmark task was requested."""


class DSEError(ReproError):
    """Design-space exploration failed (empty space, no feasible point)."""


class ServingError(ReproError):
    """Invalid serving-engine usage (unknown platform, bad stream config)."""
