"""Exception hierarchy of the package.

Every error the package raises on purpose derives from :class:`PnpError`, so
a caller can tell a refused input or a failed solve from a bug in numpy or in
its own code; the subclass names the kind of failure.
"""

from numbers import Integral


def is_count(value, minimum: int = 1) -> bool:
    """True for an integer (numpy's included, bool excluded) >= ``minimum``.

    Floats such as 2.0 are refused: ``range`` and numpy's seeding would
    reject them later with their own errors.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        return False
    return value >= minimum


def require_counts(config, minimums: dict[str, int]) -> None:
    """Raise :class:`ConfigError` unless each named field of ``config`` is a
    count (:func:`is_count`) of at least its minimum."""
    for name, minimum in minimums.items():
        value = getattr(config, name)
        if not is_count(value, minimum):
            raise ConfigError(
                f"{name} must be an integer >= {minimum}, got {value!r}"
            )


class PnpError(Exception):
    """Base class for all package errors."""


class DimensionError(PnpError):
    """Shapes or geometries of inputs are inconsistent."""


class StateError(PnpError):
    """Operation applied in the wrong state (e.g. removing means twice)."""


class ConfigError(PnpError):
    """Invalid configuration or input values (counts, tolerances, parameters,
    non-finite observations)."""


class SizeError(PnpError):
    """Problem size exceeds a test-scale cap."""


class DivergenceError(PnpError):
    """Solver produced a NaN/Inf iterate."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class MetricError(PnpError):
    """Metric undefined for the given inputs (e.g. zero band mean or a
    non-finite sample)."""
