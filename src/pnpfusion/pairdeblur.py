"""Deblurring from a blurred/noisy image pair, as one-band sharpening.

The pair model observes the same grayscale scene twice: ``y_b = B x + n_b``
(blurred, nearly noiseless) and ``y_n = x + n_n`` (sharp but noisy). The PnP
fixed point minimizes

    0.5 ||B x - y_b||^2 + (lam/2) ||x - y_n||^2 + reg_weight * phi(x)

with ``reg_weight = rho`` on the phi of the frozen denoiser built with
variance ``tau / rho``. This is the sharpening objective of
:mod:`~pnpfusion.sharpen` for a one-band cube: with E = R = 1 and the
decimation mask M = I, ``0.5 ||E X B M - Y_h||^2`` is the blurred term with
``Y_h = y_b`` and ``(lam/2) ||R E X - Y_m||^2`` the noisy term with
``Y_m = y_n``, and sharpening trains its GMM on the patches of Y_m, the
noisy sharp image. :func:`deblur_pair` therefore maps the pair to that
one-band :class:`~pnpfusion.sharpen.HsScene` and runs
:func:`~pnpfusion.sharpen.sharpen`: one GMRES solve
(:func:`~pnpfusion.sharpen.solve_hs`), whose report counts applications of
D. The reference that reaches the same point by iterating is one-band SALSA
(:func:`~pnpfusion.sharpen.run_salsa_hs`), and the dense oracle is
:func:`~pnpfusion.sharpen.hs_data_term`'s minimizer on that scene.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py patches run_admm, denoise_image_fixed, apply_blur,
# solve_x_update_pair, train_em, extract_patches and remove_means here; this
# module calls none of them
from .admm import SolveReport, SolverConfig, run_admm
from .denoiser import LinearDenoiser, denoise_image_fixed
from .errors import ConfigError, DimensionError
from .fftops import CyclicBlur, apply_blur, check_blur_grid, solve_x_update_pair
from .gmm import EmConfig, train_em
from .patches import ImageGeometry, extract_patches, remove_means
from .sharpen import HsScene, SharpenParams, sharpen, train_scene_denoiser

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairScene:
    """Blurred/noisy observation pair of one scene; ``truth`` when synthetic."""

    y_b: np.ndarray
    y_n: np.ndarray
    blur: CyclicBlur
    sigma_b: float
    sigma_n: float
    geometry: ImageGeometry
    truth: np.ndarray | None = None

    def __post_init__(self):
        n = self.geometry.n
        if self.y_b.shape != (n,) or self.y_n.shape != (n,):
            raise DimensionError("pair images must both match the geometry")
        check_blur_grid(self.blur, self.geometry)
        if not (np.all(np.isfinite(self.y_b)) and np.all(np.isfinite(self.y_n))):
            raise ConfigError("pair images must be finite")
        if not (0 <= self.sigma_b < np.inf and 0 <= self.sigma_n < np.inf):
            raise ConfigError("noise levels must be nonnegative and finite")
        if self.sigma_b > 0 and self.sigma_b >= self.sigma_n:
            log.warning(
                "expected sigma_b << sigma_n, got sigma_b=%g sigma_n=%g",
                self.sigma_b,
                self.sigma_n,
            )


@dataclass(frozen=True)
class PairParams:
    """Pipeline knobs for pair deblurring."""

    patch_side: int
    em: EmConfig
    solver: SolverConfig
    pure_linear: bool = False


def train_pair_denoiser(
    scene: PairScene,
    patch_side: int,
    em: EmConfig,
    denoiser_variance: float,
    pure_linear: bool = False,
) -> LinearDenoiser:
    """The denoiser :func:`deblur_pair` freezes: the one-band case of
    :func:`~pnpfusion.sharpen.train_scene_denoiser` on the noisy sharp image."""
    return train_scene_denoiser(
        scene.y_n[None],
        scene.geometry,
        patch_side,
        em,
        denoiser_variance,
        pure_linear=pure_linear,
    )


def deblur_pair(
    scene: PairScene, params: PairParams
) -> tuple[np.ndarray, SolveReport]:
    """Full pair pipeline: :func:`~pnpfusion.sharpen.sharpen` on the pair as a
    one-band scene with E = R = 1 and no decimation.

    The fixed point is solved to ``FIXED_POINT_RTOL``; the solver config's
    ``primal_tol``/``dual_tol`` bound only the SALSA reference. With
    ``tau == 0`` no prior is trained, D is the identity and the result is
    the two-term least-squares fusion.
    """
    hs = HsScene(
        y_h=scene.y_b[None],
        y_m=scene.y_n[None],
        blur=scene.blur,
        mask=np.ones(scene.geometry.n, dtype=int),
        r=np.ones((1, 1)),
        sigma_h=scene.sigma_b,
        sigma_m=scene.sigma_n,
        geometry=scene.geometry,
    )
    x, report = sharpen(
        hs,
        SharpenParams(
            n_subspace=1,
            patch_side=params.patch_side,
            em=params.em,
            solver=params.solver,
            pure_linear=params.pure_linear,
        ),
    )
    return x[0], report
