"""Cyclic convolution operators and closed-form frequency-domain solves.

A PSF kernel is zero-padded to the image grid and circularly shifted so its
center lands on phase zero; blurring a centered delta therefore reproduces
the centered kernel. Every operator acts on one band or on a ``(..., n)``
stack of bands alike: :class:`~pnpfusion.patches.ImageGeometry` lays the
pixel axis out as the grid, and one FFT round trip does the rest.

:func:`symbol_products` applies any real circulant given by its eigenvalues
(its symbol) on the DFT grid. Such a symbol is Hermitian, ``s[-f] =
conj(s[f])``, so one real FFT round trip serves: the blur and its adjoint
(the PSF's transfer and its conjugate), the closed-form x-updates and the
fixed-point preconditioner all run through it.

Right-multiplication conventions used by the sharpening updates: for a bands
x pixels matrix, "X B" blurs each row and "X B^T" correlates each row, so the
normal matrix ``B B^T`` acts on row spectra as ``|b_hat|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, as_array, require_instance
from .patches import ImageGeometry


@dataclass(frozen=True)
class CyclicBlur:
    """A PSF together with its cached transfer function for one grid."""

    psf: np.ndarray
    geometry: ImageGeometry
    transfer: np.ndarray

    def __post_init__(self):
        for name in ("psf", "transfer"):
            object.__setattr__(self, name, as_array(getattr(self, name), name, 2))

    @property
    def power_spectrum(self) -> np.ndarray:
        return np.abs(self.transfer) ** 2


def make_cyclic_blur(psf: np.ndarray, geometry: ImageGeometry) -> CyclicBlur:
    """Cache the DFT of the zero-padded, center-shifted kernel."""
    psf = as_array(psf, "psf", 2)
    kh, kw = psf.shape
    if kh > geometry.height or kw > geometry.width:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than image {geometry.height}x{geometry.width}"
        )
    padded = np.zeros((geometry.height, geometry.width))
    padded[:kh, :kw] = psf
    padded = np.roll(padded, (-(kh // 2), -(kw // 2)), axis=(0, 1))
    return CyclicBlur(psf=psf, geometry=geometry, transfer=np.fft.fft2(padded))


def blur_rows(x: np.ndarray, blur: CyclicBlur, adjoint: bool = False) -> np.ndarray:
    """Circular convolution of every band of a (..., n) stack with the PSF
    (correlation when ``adjoint``)."""
    require_instance(blur, CyclicBlur, "blur")
    return symbol_products(x, np.conj(blur.transfer) if adjoint else blur.transfer)


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
    if not (0 <= lam < np.inf and 0 < rho < np.inf):  # NaN fails it
        raise ConfigError(f"need finite lam >= 0 and rho > 0, got lam={lam}, rho={rho}")
    return symbol_products(rhs, 1.0 / (blur.power_spectrum + lam + rho))


def symbol_products(band: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """A band, or a ``(..., n)`` stack of bands, times the real circulants
    of a ``(..., height, width)`` stack of symbols; the two stacks broadcast
    against each other, so one band meets every symbol or band m meets
    symbol m. Returns a ``(..., n)`` stack.

    A symbol holds the circulant's eigenvalues on the 2-D DFT grid. A real
    circulant's symbol is Hermitian, ``s[-f] = conj(s[f])`` (real and even
    if the circulant is also symmetric), so a real FFT of each band serves
    and only the half of the symbol it covers is read.
    """
    symbols = as_array(symbols, "symbols", range(2, 33))
    geometry = ImageGeometry(*symbols.shape[-2:])
    spectrum = np.fft.rfft2(geometry.to_grid(as_array(band, "band", range(1, 33))))
    half = symbols[..., : geometry.width // 2 + 1]
    shape = (geometry.height, geometry.width)
    return geometry.from_grid(np.fft.irfft2(half * spectrum, s=shape))
