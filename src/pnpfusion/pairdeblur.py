"""Deblurring from a blurred/noisy image pair, as one-band sharpening.

The pair model observes the same grayscale scene twice: ``y_b = B x + n_b``
(blurred, nearly noiseless) and ``y_n = x + n_n`` (sharp but noisy). The PnP
fixed point minimizes

    0.5 ||B x - y_b||^2 + (lam/2) ||x - y_n||^2 + reg_weight * phi(x)

with ``reg_weight = rho`` on the phi of the frozen denoiser built with
variance ``tau / rho``. This is the sharpening objective of
:mod:`~pnpfusion.sharpen` for a one-band cube: with E = R = 1 and the
all-ones sampling mask M = I, ``0.5 ||E X B M - Y_h||^2`` is the blurred term
with ``Y_h = y_b`` and ``(lam/2) ||R E X - Y_m||^2`` the noisy term with
``Y_m = y_n``, and sharpening trains its GMM on the patches of Y_m, the
noisy sharp image. A :class:`PairScene` therefore holds that one-band
:class:`~pnpfusion.sharpen.HsScene`, which validates the pair, and
:func:`deblur_pair` runs :func:`~pnpfusion.sharpen.sharpen` on it: one GMRES
solve (:func:`~pnpfusion.sharpen.solve_hs`), whose report counts
applications of D. One-band SALSA (:func:`~pnpfusion.sharpen.run_salsa_hs`)
with D as its v3-step reaches the same point by iterating, and the dense
oracle is :func:`~pnpfusion.sharpen.hs_data_term`'s minimizer on that scene.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# perfbench/tracing.py patches run_admm, denoise_image_fixed, apply_blur,
# solve_x_update_pair, train_em, extract_patches and remove_means here; this
# module calls none of them
from .admm import SolveReport, SolverConfig, run_admm
from .denoiser import LinearDenoiser, denoise_image_fixed
from .errors import DimensionError, as_array, require_instance, require_real
from .fftops import CyclicBlur, apply_blur, solve_x_update_pair
from .gmm import EmConfig, train_em
from .patches import ImageGeometry, extract_patches, remove_means
from .sharpen import (
    HsScene, SharpenParams, check_params, sharpen, train_scene_denoiser
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairScene:
    """Blurred/noisy observation pair of one scene; ``truth`` when synthetic.

    Building it builds :attr:`hs_scene`, whose checks are the pair's.
    """

    y_b: np.ndarray
    y_n: np.ndarray
    blur: CyclicBlur
    sigma_b: float
    sigma_n: float
    truth: np.ndarray | None = None

    def __post_init__(self):
        require_instance(self.blur, CyclicBlur, "blur")
        for name in ("y_b", "y_n", "truth"):
            if name != "truth" or self.truth is not None:
                object.__setattr__(self, name, as_array(getattr(self, name), name, 1))
        if self.truth is not None and self.truth.shape != self.y_n.shape:
            raise DimensionError(f"truth has shape {self.truth.shape}, not y_n's")
        for name in ("sigma_b", "sigma_n"):
            require_real(getattr(self, name), name)
        self.hs_scene  # built now, so that its checks run
        if self.sigma_b > 0 and self.sigma_b >= self.sigma_n:
            log.warning(
                "expected sigma_b << sigma_n, got sigma_b=%g sigma_n=%g",
                self.sigma_b,
                self.sigma_n,
            )

    @property
    def geometry(self) -> ImageGeometry:
        return self.blur.geometry

    @cached_property
    def hs_scene(self) -> HsScene:
        """The pair as a one-band sharpening scene: E = R = 1, all-ones mask."""
        return HsScene(
            y_h=self.y_b[None],
            y_m=self.y_n[None],
            blur=self.blur,
            mask=np.ones(self.geometry.n, dtype=int),
            r=np.ones((1, 1)),
            sigma_h=self.sigma_b,
            sigma_m=self.sigma_n,
        )


@dataclass(frozen=True)
class PairParams:
    """Pipeline knobs for pair deblurring."""

    patch_side: int
    em: EmConfig
    solver: SolverConfig
    pure_linear: bool = False

    def __post_init__(self):
        check_params(self)


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
    """Full pair pipeline: :func:`~pnpfusion.sharpen.sharpen` on
    :attr:`PairScene.hs_scene`.

    The fixed point is solved to ``FIXED_POINT_RTOL``; the solver config's
    ``primal_tol``/``dual_tol`` bound only the SALSA reference. With
    ``tau == 0`` no prior is trained, D is the identity and the result is
    the two-term least-squares fusion.
    """
    require_instance(scene, PairScene, "scene")
    require_instance(params, PairParams, "params")
    x, report = sharpen(
        scene.hs_scene,
        SharpenParams(
            n_subspace=1,
            patch_side=params.patch_side,
            em=params.em,
            solver=params.solver,
            pure_linear=params.pure_linear,
        ),
    )
    return x[0], report
