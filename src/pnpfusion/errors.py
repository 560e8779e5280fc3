"""Exception hierarchy with machine-readable categories.

Every error raised by this package carries a ``category`` string, a stable
name for its kind of failure. Nothing reads it yet: ROADMAP item 4 plans a
command-line entry point that maps it to an exit status, or else its removal.
"""


class PnpError(Exception):
    """Base class for all package errors."""

    category = "internal"


class DimensionError(PnpError):
    """Shapes or geometries of inputs are inconsistent."""

    category = "dimension"


class StateError(PnpError):
    """Operation applied in the wrong state (e.g. removing means twice)."""

    category = "state"


class ConfigError(PnpError):
    """Invalid configuration or input values (counts, tolerances, parameters,
    non-finite observations)."""

    category = "config"


class SizeError(PnpError):
    """Problem size exceeds a test-scale cap."""

    category = "size"


class DivergenceError(PnpError):
    """Solver produced a NaN/Inf iterate."""

    category = "divergence"

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class MetricError(PnpError):
    """Metric undefined for the given inputs (e.g. zero band mean)."""

    category = "metric"


class FormatError(PnpError):
    """File contents do not match the expected container format."""

    category = "format"
