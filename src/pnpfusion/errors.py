"""Exception hierarchy of the package, and its rules for every kind of input.

Every error the package raises on purpose derives from :class:`PnpError`, so
a caller can tell a refused input or a failed solve from a bug in numpy or in
its own code; the subclass names the kind of failure.

Exported functions and dataclasses take each kind of input through one helper:

* arrays through :func:`as_array`: a wrong number of axes or no entries raise
  :class:`DimensionError`, and a NaN or infinite entry, complex data (only a
  circulant's symbol may be complex) or anything but numbers, :class:`ConfigError`;
* real-valued parameters through :func:`require_real`: anything but a real
  number in the parameter's interval raises :class:`ConfigError`
  (:class:`MetricError` in the metrics);
* counts (extents, sizes, budgets, seeds) through :func:`require_count`:
  anything but an integer of at least the count's minimum, 2.0 and True
  included, raises :class:`ConfigError`, and :class:`DimensionError` for
  grid extents and the side of the patches cut from a grid;
* flags through :func:`require_flag`: anything but a bool raises
  :class:`ConfigError`, so a string such as "False" is never taken at its
  truth value;
* one of the package's classes through :func:`require_instance`: a foreign
  object raises :class:`ConfigError` before it meets an attribute lookup.

The metrics raise :class:`MetricError` for empty or non-finite input, and a
patch set is refused where it is used, from its cached norms.
"""

from numbers import Integral, Real

import numpy as np


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


def require_count(value, name: str, minimum: int = 1, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` is an integer, numpy's too, of at least
    ``minimum``. A bool, a float such as 2.0, NaN, a string and None are
    refused: ``range`` and numpy's seeding would reject them later with their
    own errors. It checks, never converts."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r:.60}")


def require_instance(obj, cls: type, name: str) -> None:
    """Raise :class:`ConfigError` unless ``obj`` is a ``cls``, one of the
    package's classes, before a foreign object meets an attribute lookup."""
    if not isinstance(obj, cls):
        raise ConfigError(f"{name} must be a {cls.__name__}, got {type(obj).__name__}")


def require_flag(value, name: str) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a bool, numpy's too."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a bool, got {value!r:.60}")


def as_array(value, name: str, ndim, finite=True, empty=False, real=True) -> np.ndarray:
    """``value`` as a float64 array, complex only if not ``real``, with ``ndim`` axes
    (a count, or a tuple or range of counts); a float64 or complex array is not
    copied. Raises :class:`DimensionError` for another ndim or, unless ``empty``, no
    entries, and :class:`ConfigError` for data that is not numbers, complex data if
    ``real`` (an O(1) dtype test) and, if ``finite``, a NaN or infinite entry."""
    try:
        array = np.asarray(value)
        array = array if array.dtype.kind == "c" else array.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must hold numbers, got {value!r:.60}") from None
    if real and array.dtype.kind == "c":
        raise ConfigError(f"{name} must be real, got {array.dtype}")
    allowed = (ndim,) if isinstance(ndim, int) else ndim
    if array.ndim not in allowed or not (empty or array.size):
        raise DimensionError(f"{name} needs ndim in {allowed}, got shape {array.shape}")
    if finite and not np.all(np.isfinite(array)):
        raise ConfigError(f"{name} must be finite")
    return array


def require_real(value, name, low=0.0, strict=False, high=np.inf, error=ConfigError):
    """Raise ``error`` unless ``value`` is a real number in ``[low, high)``, or
    ``(low, high)`` if ``strict``: an int or float, numpy's too, or a 0-d array
    of one, never a bool. NaN fails every comparison. It checks, never converts."""
    real = isinstance(value, (Real, np.ndarray)) and np.ndim(value) == 0
    if not (real and np.asarray(value).dtype.kind in "iuf" and value < high
            and (low < value if strict else low <= value)):
        interval = f"{'(' if strict else '['}{low}, {high})"
        raise error(f"{name} must be a real number in {interval}, got {value!r:.60}")
