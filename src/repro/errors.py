"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause
while still being able to discriminate netlist problems from, say,
measurement-configuration problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Structural problem in a netlist (unknown net, duplicate instance, ...)."""


class LibraryError(ReproError):
    """Unknown or malformed standard-cell definition."""


class SimulationError(ReproError):
    """The logic simulator cannot execute the netlist (e.g. combinational loop)."""


class LayoutError(ReproError):
    """Floorplanning / placement / routing failure."""


class TechnologyError(ReproError):
    """A geometry request violates the technology design rules."""


class EmModelError(ReproError):
    """Invalid electromagnetic model configuration."""


class MeasurementError(ReproError):
    """Invalid acquisition setup (oscilloscope, probe placement, ...)."""


class AnalysisError(ReproError):
    """Statistical analysis cannot proceed (empty reference set, shape mismatch, ...)."""


class TrojanError(ReproError):
    """Invalid hardware-Trojan configuration."""


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""


class ConfigError(ReproError):
    """Invalid runtime configuration (:mod:`repro.config`).

    Raised for problems with the configuration *surface* itself —
    unknown override names, malformed snapshots, wrong value types.
    Knobs that predate the unified config keep raising their historical
    domain error (:class:`ExperimentError` for worker counts and cache
    sizes) so callers that already handle those keep working.
    """
