"""Reconstruction quality metrics: PSNR, ERGAS, SAM.

ERGAS follows the standard definition ``100 * d * sqrt(mean_b(MSE_b /
mean_b^2))`` where ``d`` is the resolution ratio between the panchromatic and
hyperspectral grids; SAM is the per-pixel spectral angle (rounding-stable,
so parallel spectra give 0 degrees) averaged over pixels with nonzero
spectra. Conventions vary in the literature, so these values are comparable
within this package only. Every metric raises :class:`MetricError` on an
empty or non-finite reference or estimate rather than returning NaN or an
infinity it did not compute.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DimensionError, MetricError, as_array, require_real

log = logging.getLogger(__name__)


def _as_cubes(
    reference: np.ndarray, estimate: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as finite, nonempty bands x pixels cubes of one shape; a
    1-D input is one band."""
    if 0 in np.shape(reference) + np.shape(estimate):
        raise MetricError("metric undefined on an empty reference or estimate")
    ref, est = (
        np.atleast_2d(as_array(a, name, (1, 2), finite=False))
        for a, name in ((reference, "reference"), (estimate, "estimate"))
    )
    if ref.shape != est.shape:
        raise DimensionError(f"reference has shape {ref.shape}, estimate {est.shape}")
    if not (np.all(np.isfinite(ref)) and np.all(np.isfinite(est))):
        raise MetricError("metric undefined: non-finite reference or estimate")
    return ref, est


def psnr(reference: np.ndarray, estimate: np.ndarray, peak: float = 1.0) -> float:
    """``10 log10(peak^2 / MSE)``; per-band then averaged for cubes.

    Identical inputs give ``inf``.
    """
    return float(np.mean(psnr_per_band(reference, estimate, peak)))


def psnr_per_band(
    reference: np.ndarray, estimate: np.ndarray, peak: float = 1.0
) -> np.ndarray:
    """Band-wise PSNR of a bands x pixels cube."""
    ref, est = _as_cubes(reference, estimate)
    require_real(peak, "peak", strict=True, error=MetricError)
    mse = np.mean((ref - est) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(peak**2 / mse)


def ergas(
    reference: np.ndarray, estimate: np.ndarray, resolution_ratio: float
) -> float:
    """Relative global dimensionless synthesis error."""
    ref, est = _as_cubes(reference, estimate)
    require_real(resolution_ratio, "resolution_ratio", strict=True, error=MetricError)
    band_means = ref.mean(axis=1)
    if np.any(band_means == 0):
        raise MetricError("ERGAS undefined: a reference band has zero mean")
    mse = np.mean((ref - est) ** 2, axis=1)
    return float(100.0 * resolution_ratio * np.sqrt(np.mean(mse / band_means**2)))


def sam(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Mean spectral angle between reference and estimated spectra, degrees.

    Each pixel's angle uses the rounding-stable two-argument form
    ``2 atan2(||u - w||, ||u + w||)`` on the unit spectra ``u = r/||r||`` and
    ``w = e/||e||`` (Kahan). The inverse cosine of the normalised dot product
    would turn a one-ulp rounding of a unit cosine into ~1e-8 rad; this form
    gives 0 degrees for parallel spectra. The range is [0, 180] degrees.

    Pixels where either spectrum is zero are excluded (logged). A 1-D
    reference/estimate pair is one spectrum, not a one-band image.
    """
    ref, est = _as_cubes(reference, estimate)
    if np.ndim(reference) == np.ndim(estimate) == 1:
        ref, est = ref.T, est.T
    norms_ref = np.linalg.norm(ref, axis=0)
    norms_est = np.linalg.norm(est, axis=0)
    valid = (norms_ref > 0) & (norms_est > 0)
    excluded = int(np.size(valid) - np.count_nonzero(valid))
    if excluded:
        log.warning("SAM: excluded %d pixel(s) with zero spectrum", excluded)
    if not np.any(valid):
        raise MetricError("SAM undefined: all spectra are zero")
    u = ref[:, valid] / norms_ref[valid]
    w = est[:, valid] / norms_est[valid]
    angles = 2.0 * np.arctan2(
        np.linalg.norm(u - w, axis=0), np.linalg.norm(u + w, axis=0)
    )
    return float(np.degrees(np.mean(angles)))
