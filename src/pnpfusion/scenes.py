"""Synthetic scene generators for both fusion problems.

Ground-truth hyperspectral cubes are built as ``Z = E_true X_true`` with a
constant-direction first basis vector (so bands have positive means) and
smooth spatial coefficient maps, and observed through the solvers' own model,
:func:`~pnpfusion.sharpen.hs_data_term` with E = I and lam = 1. Injected
noise is rescaled to realize the requested SNR (or noise std) exactly against
the empirical signal power, so generated datasets hit their nominal noise
levels to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, require_count, require_instance, require_real
from .fftops import CyclicBlur, blur_rows
from .patches import ImageGeometry
from .sharpen import HsScene, SubspaceBasis, hs_data_term, make_decimation_mask
from .pairdeblur import PairScene


@dataclass(frozen=True)
class HsSceneSpec:
    """Parameters of a synthetic sharpening scene."""

    geometry: ImageGeometry
    n_bands_hs: int
    n_bands_ms: int
    n_subspace_true: int
    decimation: int
    snr_h_db: float
    snr_m_db: float
    seed: int = 0

    def __post_init__(self):
        require_instance(self.geometry, ImageGeometry, "geometry")
        for name in ("n_bands_hs", "n_bands_ms", "n_subspace_true", "decimation"):
            require_count(getattr(self, name), name)
        require_count(self.seed, "seed", minimum=0)
        if self.n_subspace_true > self.n_bands_hs:
            raise ConfigError("true subspace cannot exceed the band count")
        for name in ("snr_h_db", "snr_m_db"):
            require_real(getattr(self, name), name, low=-np.inf, strict=True)


@dataclass(frozen=True)
class PairSceneSpec:
    """Parameters of a synthetic blurred/noisy pair."""

    geometry: ImageGeometry
    kernel_id: str
    sigma_n: float
    sigma_b: float
    seed: int = 0

    def __post_init__(self):
        require_instance(self.geometry, ImageGeometry, "geometry")
        make_kernel(self.kernel_id)  # refuses an unknown id
        require_count(self.seed, "seed", minimum=0)
        for name in ("sigma_n", "sigma_b"):
            require_real(getattr(self, name), name)


def smooth_field(geometry: ImageGeometry, rng: np.random.Generator) -> np.ndarray:
    """Sum of four random cosine products on the grid, as a pixel vector in [-1, 1]."""
    h, w = geometry.height, geometry.width
    rr, cc = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
    field = np.zeros((h, w))
    for _ in range(4):
        fr, fc = rng.uniform(0.5, 2.5, size=2)
        phase = rng.uniform(0, 2 * np.pi, size=2)
        amp = rng.uniform(0.3, 1.0)
        field += amp * np.cos(2 * np.pi * fr * rr + phase[0]) * np.cos(
            2 * np.pi * fc * cc + phase[1]
        )
    peak = np.abs(field).max()
    if peak > 0:
        field /= peak
    return geometry.from_grid(field)


def _exact_noise(
    rng: np.random.Generator, shape: tuple, power: float
) -> np.ndarray:
    """White Gaussian draw rescaled so its mean square is exactly ``power``."""
    raw = rng.standard_normal(shape)
    ms = np.mean(raw**2)
    if ms == 0:
        return raw
    return raw * np.sqrt(power / ms)


def generate_hs_scene(spec: HsSceneSpec) -> HsScene:
    """Synthesize (Z, Y_h, Y_m) with the requested SNRs realized exactly."""
    require_instance(spec, HsSceneSpec, "spec")
    rng = np.random.default_rng(spec.seed)
    geometry = spec.geometry
    l_h, l_s = spec.n_bands_hs, spec.n_subspace_true

    # spectral basis: constant direction first, then random orthonormal
    raw = rng.standard_normal((l_h, l_s))
    raw[:, 0] = 1.0
    e_true, _ = np.linalg.qr(raw)
    if e_true[0, 0] < 0:
        e_true = -e_true

    x_true = np.empty((l_s, geometry.n))
    x_true[0] = (0.6 + 0.25 * smooth_field(geometry, rng)) * np.sqrt(l_h)
    for s in range(1, l_s):
        x_true[s] = 0.15 * smooth_field(geometry, rng)
    z = e_true @ x_true

    # spectral response: L_m overlapping averaging windows, rows sum to 1
    l_m = spec.n_bands_ms
    r = np.zeros((l_m, l_h))
    edges = np.linspace(0, l_h, l_m + 1)
    for m in range(l_m):
        lo = int(np.floor(edges[m]))
        hi = max(int(np.ceil(edges[m + 1])), lo + 1)
        r[m, lo:hi] = 1.0
    r /= r.sum(axis=1, keepdims=True)

    side = min(geometry.height, geometry.width)
    sigma_psf = 0.8 * spec.decimation
    support = min(2 * int(np.ceil(2 * sigma_psf)) + 1, side)
    blur = CyclicBlur(gaussian_kernel(support, sigma_psf), geometry)
    mask = make_decimation_mask(geometry, spec.decimation)

    # a template with zero observations applies the observation model
    template = HsScene(
        y_h=np.zeros((l_h, int(mask.sum()))),
        y_m=np.zeros((l_m, geometry.n)),
        blur=blur,
        mask=mask,
        r=r,
        sigma_h=0.0,
        sigma_m=0.0,
        z=z,
    )
    clean = hs_data_term(template, SubspaceBasis(np.eye(l_h)), 1.0).apply(z)
    clean_h = clean[: template.y_h.size].reshape(template.y_h.shape)
    clean_m = clean[template.y_h.size :].reshape(template.y_m.shape)
    power_h = np.mean(clean_h**2) * 10 ** (-spec.snr_h_db / 10)
    power_m = np.mean(clean_m**2) * 10 ** (-spec.snr_m_db / 10)
    return replace(  # keywords are evaluated in order: the HS noise is drawn first
        template,
        y_h=clean_h + _exact_noise(rng, clean_h.shape, power_h),
        y_m=clean_m + _exact_noise(rng, clean_m.shape, power_m),
        sigma_h=float(np.sqrt(power_h)),
        sigma_m=float(np.sqrt(power_m)),
    )


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized 2-D Gaussian kernel on a size x size support."""
    ax = np.arange(size) - (size - 1) / 2.0
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    kernel = np.exp(-(xx**2 + yy**2) / (2.0 * sigma**2))
    return kernel / kernel.sum()


def motion_kernel(length: int) -> np.ndarray:
    """Motion-blur kernel: a bilinearly splatted line segment at 30 degrees."""
    kernel = np.zeros((length, length))
    center = (length - 1) / 2.0
    theta = np.radians(30.0)
    for t in np.linspace(-(length - 1) / 2.0, (length - 1) / 2.0, 8 * length):
        r = center + t * np.sin(theta)
        c = center + t * np.cos(theta)
        r0, c0 = int(np.floor(r)), int(np.floor(c))
        fr, fc = r - r0, c - c0
        for dr, dc, wgt in (
            (0, 0, (1 - fr) * (1 - fc)),
            (1, 0, fr * (1 - fc)),
            (0, 1, (1 - fr) * fc),
            (1, 1, fr * fc),
        ):
            rr, cc = r0 + dr, c0 + dc
            if 0 <= rr < length and 0 <= cc < length:
                kernel[rr, cc] += wgt
    return kernel / kernel.sum()


# The shipped stand-in kernels, chosen for qualitative variety (mild Gaussian,
# wide box, oblique motion, the no-blur delta), not published benchmark ones.
PAIR_KERNELS = {
    "gauss8": lambda: gaussian_kernel(8, 1.6),
    "box9": lambda: np.full((9, 9), 1.0 / 81.0),
    "motion15": lambda: motion_kernel(15),
    "delta": lambda: np.ones((1, 1)),
}


def make_kernel(kernel_id: str) -> np.ndarray:
    """The kernel of one of the :data:`PAIR_KERNELS` ids."""
    if not (isinstance(kernel_id, str) and kernel_id in PAIR_KERNELS):
        shipped = ", ".join(PAIR_KERNELS)
        raise ConfigError(f"kernel_id must be one of {shipped}, got {kernel_id!r:.60}")
    return PAIR_KERNELS[kernel_id]()


def synthetic_image(geometry: ImageGeometry) -> np.ndarray:
    """Deterministic piecewise-smooth grayscale test image in [0, 1].

    Gradient background, two geometric shapes, and a sinusoidal texture band;
    enough structure for patch priors to have something to learn.
    """
    require_instance(geometry, ImageGeometry, "geometry")
    h, w = geometry.height, geometry.width
    rr, cc = np.meshgrid(
        (np.arange(h) + 0.5) / h, (np.arange(w) + 0.5) / w, indexing="ij"
    )
    img = 0.25 + 0.4 * cc + 0.1 * rr
    disk = (rr - 0.38) ** 2 + (cc - 0.35) ** 2 < 0.04
    img[disk] = 0.85
    block = (np.abs(rr - 0.7) < 0.12) & (np.abs(cc - 0.65) < 0.18)
    img[block] = 0.15
    texture = 0.08 * np.sin(2 * np.pi * 6 * cc) * (rr < 0.25)
    img = np.clip(img + texture, 0.0, 1.0)
    return geometry.from_grid(img)


def generate_pair_scene(spec: PairSceneSpec) -> PairScene:
    """Synthesize a blurred/noisy pair with exactly realized noise levels."""
    require_instance(spec, PairSceneSpec, "spec")
    geometry = spec.geometry
    rng = np.random.default_rng(spec.seed)
    truth = synthetic_image(geometry)
    blur = CyclicBlur(make_kernel(spec.kernel_id), geometry)
    blurred = blur_rows(truth, blur)
    y_b = blurred
    if spec.sigma_b > 0:
        y_b = blurred + _exact_noise(rng, blurred.shape, spec.sigma_b**2)
    y_n = truth
    if spec.sigma_n > 0:
        y_n = truth + _exact_noise(rng, truth.shape, spec.sigma_n**2)
    return PairScene(
        y_b=y_b,
        y_n=y_n,
        blur=blur,
        sigma_b=spec.sigma_b,
        sigma_n=spec.sigma_n,
        truth=truth,
    )
