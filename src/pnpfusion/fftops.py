"""Cyclic convolution operators and closed-form frequency-domain solves.

A blur is a PSF on one grid, :class:`CyclicBlur`, and its transfer is derived:
the DFT of the kernel zero-padded to the grid and circularly shifted so its
center lands on phase zero, so a centered delta blurs into the centered kernel.
Every operator acts on one band or on a ``(..., n)`` stack of bands alike:
:class:`~pnpfusion.patches.ImageGeometry` lays the pixel axis out as the grid,
and one FFT round trip does the rest.

:func:`symbol_products` applies any real circulant given by its eigenvalues
(its symbol) on the DFT grid. Such a symbol is Hermitian, ``s[-f] =
conj(s[f])``, so one real FFT round trip serves. It checks its caller's
symbols and bands, then runs an unchecked core, which the package's own
operators call directly on the symbols they built: the blur and its adjoint
(the PSF's transfer and its conjugate, once :func:`blur_rows` has checked
``x``). A second core applies a weighted sum of several circulants with one
inverse FFT, for the fixed-point preconditioner and the least-squares start.

Right-multiplication conventions used by the sharpening updates: for a bands
x pixels matrix, "X B" blurs each row and "X B^T" correlates each row, so the
normal matrix ``B B^T`` acts on row spectra as ``|b_hat|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError, DimensionError, as_array, require_flag, require_instance, require_real
)
from .patches import ImageGeometry

# Largest |s[f] - conj(s[-f])| that symbol_products accepts, relative to
# max |s|; the package's own symbols measure below 5e-16.
HERMITIAN_RTOL = 1e-12

# Largest spectra, in bytes, that _mixture_products transforms at once: it
# takes its components in groups of this size, as the EM steps take their
# patches in chunks, so that memory stays bounded whatever K is.
_GROUP_BYTES = 1 << 20


@dataclass(frozen=True)
class CyclicBlur:
    """A PSF on one image grid, whose transfer function is derived from both."""

    psf: np.ndarray
    geometry: ImageGeometry

    def __post_init__(self):
        require_instance(self.geometry, ImageGeometry, "geometry")
        object.__setattr__(self, "psf", as_array(self.psf, "psf", 2))
        kh, kw = self.psf.shape
        if kh > self.geometry.height or kw > self.geometry.width:
            raise DimensionError(f"kernel {kh}x{kw} larger than {self.geometry}")

    @cached_property
    def transfer(self) -> np.ndarray:
        """The DFT of the zero-padded, center-shifted kernel on the
        ``(height, width)`` grid, built on first use and kept."""
        kh, kw = self.psf.shape
        padded = np.zeros((self.geometry.height, self.geometry.width))
        padded[:kh, :kw] = self.psf
        return np.fft.fft2(np.roll(padded, (-(kh // 2), -(kw // 2)), axis=(0, 1)))

    @property
    def power_spectrum(self) -> np.ndarray:
        return np.abs(self.transfer) ** 2


def blur_rows(x: np.ndarray, blur: CyclicBlur, adjoint: bool = False) -> np.ndarray:
    """Circular convolution of every band of a (..., n) stack with the PSF
    (correlation when ``adjoint``)."""
    require_instance(blur, CyclicBlur, "blur")
    require_flag(adjoint, "adjoint")
    x = as_array(x, "x", range(1, 33))
    return _symbol_products(x, np.conj(blur.transfer) if adjoint else blur.transfer)


# A single band is a stack too. The package calls blur_rows; this name stays
# because perfbench/ imports it, and resolves it in pnpfusion.pairdeblur.
apply_blur = blur_rows


def solve_x_update_hs(rhs: np.ndarray, blur: CyclicBlur) -> np.ndarray:
    """Row-wise solve of ``X (B B^T + 2 I) = rhs`` by spectral division."""
    return symbol_products(rhs, 1.0 / (blur.power_spectrum + 2.0))


# No pipeline calls this; perfbench/ resolves it in pnpfusion.pairdeblur.
def solve_x_update_pair(
    rhs: np.ndarray, blur: CyclicBlur, lam: float, rho: float
) -> np.ndarray:
    """Solve ``(B^T B + (lam + rho) I) x = rhs`` by spectral division."""
    require_real(lam, "lam")
    require_real(rho, "rho", strict=True)
    return symbol_products(rhs, 1.0 / (blur.power_spectrum + lam + rho))


def symbol_products(band: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """A band, or a ``(..., n)`` stack of bands, times the real circulants
    of a ``(..., height, width)`` stack of symbols; the two stacks broadcast
    against each other, so one band meets every symbol or band m meets
    symbol m. Returns a ``(..., n)`` stack.

    A symbol holds the circulant's eigenvalues on the 2-D DFT grid. A real
    circulant's symbol is Hermitian, ``s[-f] = conj(s[f])`` (real and even
    if the circulant is also symmetric), so a real FFT of each band serves
    and only the half of the symbol it covers is read; a symbol that is not
    Hermitian to ``HERMITIAN_RTOL`` raises :class:`ConfigError`.
    """
    symbols = as_array(symbols, "symbols", range(2, 33), real=False)
    # entry f of the mirror is s[-f], both grid indices negated mod the grid
    mirror = np.roll(symbols[..., ::-1, ::-1], 1, axis=(-2, -1)).conj()
    if np.abs(symbols - mirror).max() > HERMITIAN_RTOL * np.abs(symbols).max():
        raise ConfigError("symbols must be Hermitian, s[-f] = conj(s[f])")
    return _symbol_products(as_array(band, "band", range(1, 33)), symbols)


def _symbol_products(band: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """:func:`symbol_products` without its checks, for a checked float
    ``band`` and a Hermitian stack of ``symbols`` that the package built."""
    geometry = ImageGeometry(*symbols.shape[-2:])
    spectrum = np.fft.rfft2(geometry.to_grid(band))
    half = symbols[..., : geometry.width // 2 + 1]
    shape = (geometry.height, geometry.width)
    return geometry.from_grid(np.fft.irfft2(half * spectrum, s=shape))


def _mixture_products(band: np.ndarray, weights: np.ndarray, symbols: np.ndarray):
    """``sum_j C_j (weights[j] * band)`` for a checked ``(k, n)`` ``band``,
    ``(K, n)`` pixel ``weights`` and a ``(K, k, height, width)`` stack of
    Hermitian ``symbols`` that the package built, C_j applying
    ``symbols[j, m]`` to band m.

    The sum over j is taken in the frequency domain, so one inverse FFT
    serves; the weighted bands are transformed in groups of components of
    at most ``_GROUP_BYTES`` of spectra.
    """
    geometry = ImageGeometry(*symbols.shape[-2:])
    half = symbols[..., : geometry.width // 2 + 1]
    group = max(1, _GROUP_BYTES // (16 * half[0].size))
    total = 0.0
    for start in range(0, len(weights), group):
        chunk = slice(start, start + group)
        spectra = np.fft.rfft2(geometry.to_grid(weights[chunk, None] * band))
        total = total + np.einsum("j...,j...->...", half[chunk], spectra)
    shape = (geometry.height, geometry.width)
    return geometry.from_grid(np.fft.irfft2(total, s=shape))
