"""Exception hierarchy of the package, and its one rule for input arrays.

Every error the package raises on purpose derives from :class:`PnpError`, so
a caller can tell a refused input or a failed solve from a bug in numpy or in
its own code; the subclass names the kind of failure.

Exported functions and dataclasses take their arrays through :func:`as_array`:
a wrong number of axes or no entries raise :class:`DimensionError`, and a NaN
or infinite entry, or anything but numbers where an array belongs,
:class:`ConfigError`. A foreign object where one of the package's classes
belongs raises :class:`ConfigError` through :func:`require_instance`.
The metrics raise :class:`MetricError` for empty or non-finite input, and a
patch set is refused where it is used, from its cached norms.
"""

from numbers import Integral

import numpy as np


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


def require_instance(obj, cls: type, name: str) -> None:
    """Raise :class:`ConfigError` unless ``obj`` is a ``cls``, one of the
    package's classes, before a foreign object meets an attribute lookup."""
    if not isinstance(obj, cls):
        raise ConfigError(f"{name} must be a {cls.__name__}, got {type(obj).__name__}")


def as_array(value, name: str, ndim, finite=True, empty=False) -> np.ndarray:
    """``value`` as a float64 array, complex if it is complex, with ``ndim``
    axes (a count, or a tuple or range of counts); a float64 or complex array
    is not copied. Raises :class:`DimensionError` for another ndim or, unless
    ``empty``, no entries, and :class:`ConfigError` for data that is not
    numbers or, if ``finite``, for a NaN or infinite entry."""
    try:
        array = np.asarray(value)
        array = array if array.dtype.kind == "c" else array.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must hold numbers, got {value!r:.60}") from None
    allowed = (ndim,) if isinstance(ndim, int) else ndim
    if array.ndim not in allowed or not (empty or array.size):
        raise DimensionError(f"{name} needs ndim in {allowed}, got shape {array.shape}")
    if finite and not np.all(np.isfinite(array)):
        raise ConfigError(f"{name} must be finite")
    return array


class PnpError(Exception):
    """Base class for all package errors."""


class DimensionError(PnpError):
    """Shapes or geometries of inputs are wrong or inconsistent."""


class StateError(PnpError):
    """Operation applied in the wrong state (e.g. removing means twice)."""


class ConfigError(PnpError):
    """Invalid configuration or input values (counts, tolerances, parameters,
    non-finite observations, foreign types)."""


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
