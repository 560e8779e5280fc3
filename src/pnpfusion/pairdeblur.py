"""Deblurring from a blurred/noisy image pair with a scene-adapted prior.

The pair model observes the same grayscale scene twice: ``y_b = B x + n_b``
(blurred, nearly noiseless) and ``y_n = x + n_n`` (sharp but noisy). The GMM
prior and the per-patch weights are trained once on the noisy sharp image and
frozen, making the plugged-in denoiser a fixed symmetric PSD linear map D
(each patch map is ``(I - J) F_i (I - J) + J``, see
:mod:`~pnpfusion.denoiser`). The PnP fixed point then minimizes

    0.5 ||B x - y_b||^2 + (lam/2) ||x - y_n||^2 + reg_weight * phi(x)

where, as in the sharpening module, the fixed point carries ``reg_weight =
rho`` on the phi induced by the denoiser built with variance ``tau / rho``.
:func:`pair_data_term` states the two data terms once; its
:class:`~pnpfusion.denoiser.DataTerm` evaluates this objective and gives its
dense minimizer.

:func:`deblur_pair` solves the fixed-point equation by GMRES
(:func:`solve_pair`), so its report counts applications of D. Here
``A^T A = B^T B + lam I`` is circulant, so it is applied as one symbol
product and is its own circulant part, and the preconditioner
``(rho I + (A^T A - rho I) Dbar)^-1``, with Dbar the circulant part of D, is
diagonal in the DFT basis for any rho and lam.
:func:`run_admm_pair` runs the paper's ADMM iterations to the same point and
stays as the reference.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .admm import (
    SolveReport,
    SolverConfig,
    preconditioner_symbol,
    run_admm,
    solve_fixed_point,
)
from .denoiser import DataTerm, LinearDenoiser, denoise_image_fixed
from .errors import ConfigError, DimensionError
from .fftops import CyclicBlur, apply_blur, solve_x_update_pair, symbol_products
from .gmm import EmConfig, train_em
from .patches import ImageGeometry, extract_patches, remove_means

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
        if not (np.all(np.isfinite(self.y_b)) and np.all(np.isfinite(self.y_n))):
            raise ConfigError("pair images must be finite")
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
    """Train the GMM on the noisy sharp image's zero-mean patches and freeze
    the per-patch posterior weights."""
    patches = remove_means(extract_patches(scene.y_n, scene.geometry, patch_side))
    model, weights, _ = train_em(patches, em)
    return LinearDenoiser(
        model=model,
        weights=weights,
        noise_variance=denoiser_variance,
        geometry=scene.geometry,
        pure_linear=pure_linear,
    )


def pair_data_term(scene: PairScene, lam: float) -> DataTerm:
    """``[B x; sqrt(lam) x]`` against ``[y_b; sqrt(lam) y_n]``."""
    root = np.sqrt(lam)
    n = scene.geometry.n
    return DataTerm(
        apply=lambda x: np.concatenate([apply_blur(x, scene.blur), root * x]),
        adjoint=lambda r: apply_blur(r[:n], scene.blur, adjoint=True) + root * r[n:],
        target=np.concatenate([scene.y_b, root * scene.y_n]),
        shape=(n,),
    )


class _PairProblem:
    """Single-block ADMM callbacks for the pair objective."""

    def __init__(self, scene, denoiser, cfg):
        self.scene = scene
        self.denoiser = denoiser
        self.cfg = cfg
        self.data = pair_data_term(scene, cfg.lam)
        self._bt_yb = apply_blur(scene.y_b, scene.blur, adjoint=True)

    def x_update(self, vs, us):
        rhs = self._bt_yb + self.cfg.lam * self.scene.y_n + self.cfg.rho * (
            vs[0] + us[0]
        )
        return solve_x_update_pair(rhs, self.scene.blur, self.cfg.lam, self.cfg.rho)

    def h_apply(self, x):
        return [x]

    def v_update(self, j, target):
        if self.denoiser is None:
            return target
        return denoise_image_fixed(target, self.denoiser)

    def objective(self, x):
        return self.data.objective(x, 0.0)


def run_admm_pair(
    scene: PairScene,
    denoiser: LinearDenoiser | None,
    cfg: SolverConfig,
) -> tuple[np.ndarray, SolveReport]:
    """ADMM iterations for a prepared scene/denoiser pair."""
    zeros = np.zeros(scene.geometry.n)
    problem = _PairProblem(scene, denoiser, cfg)
    return run_admm(problem, cfg, [zeros])


def solve_pair(
    scene: PairScene,
    denoiser: LinearDenoiser | None,
    cfg: SolverConfig,
) -> tuple[np.ndarray, SolveReport]:
    """The fixed point for a prepared scene/denoiser pair, by GMRES.

    ``A^T A = B^T B + lam I`` is circulant, so it is applied as one symbol
    product, and its circulant part is itself. GMRES is preconditioned by the
    inverse of ``rho I + (A^T A - rho I) Dbar``, with Dbar the circulant part
    of D (:func:`~pnpfusion.admm.solve_fixed_point`). Without a denoiser D is
    the identity, the preconditioner is ``(A^T A)^-1`` and one step solves.
    """
    normal_symbol = scene.blur.power_spectrum + cfg.lam

    def denoise(x):
        return x if denoiser is None else denoise_image_fixed(x, denoiser)

    denoise_symbol = 1.0 if denoiser is None else denoiser.circulant_symbol
    inverse = preconditioner_symbol(normal_symbol, denoise_symbol, cfg.rho)
    return solve_fixed_point(
        pair_data_term(scene, cfg.lam),
        denoise,
        cfg.rho,
        cfg,
        precondition=lambda v: symbol_products(v, inverse),
        normal=lambda v: symbol_products(v, normal_symbol),
    )


def deblur_pair(
    scene: PairScene, params: PairParams
) -> tuple[np.ndarray, SolveReport]:
    """Full pair pipeline: train on the noisy image, fuse both observations.

    The fixed point is solved to ``FIXED_POINT_RTOL`` by :func:`solve_pair`.
    The solver config's ``primal_tol``/``dual_tol`` bound only the ADMM
    reference. With ``tau == 0`` no prior is trained, D is the identity and
    the result is the two-term least-squares fusion.
    """
    cfg = params.solver
    denoiser = None
    if cfg.tau > 0:
        denoiser = train_pair_denoiser(
            scene,
            params.patch_side,
            params.em,
            denoiser_variance=cfg.tau / cfg.rho,
            pure_linear=params.pure_linear,
        )
    return solve_pair(scene, denoiser, cfg)
