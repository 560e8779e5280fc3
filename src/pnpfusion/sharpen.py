"""Hyperspectral sharpening: forward models, PCA subspace, GMRES and SALSA.

Observed data: a spatially blurred hyperspectral cube sampled at the pixels
of a 0/1 mask M, ``Y_h = Z B M``, plus a spectrally mixed high-resolution cube
``Y_m = R Z``.
The latent cube is represented as ``Z = E X`` on a low-dimensional spectral
subspace. The prior is the scene-adapted GMM denoiser D, built with noise
variance ``tau / rho`` and applied independently to each coefficient band;
with its weights frozen it is a symmetric PSD linear map (each patch map is
``(I - J) F_i (I - J) + J``, see :mod:`~pnpfusion.denoiser`).

At the PnP fixed point the minimized objective is

    0.5 ||E X B M - Y_h||_F^2 + (lam/2) ||R E X - Y_m||_F^2
        + reg_weight * sum_bands phi(X_band)

with ``reg_weight = rho``: a prox step implemented as plain multiplication by
the denoiser matrix contributes its regularizer phi scaled by the penalty
parameter. :func:`hs_data_term` states the two data terms once, on the
coefficients X; its :class:`~pnpfusion.denoiser.DataTerm` takes the weight
on phi explicitly to evaluate this objective and give its dense minimizer.

:func:`sharpen` solves the fixed-point equation by GMRES (:func:`solve_hs`),
so its report counts applications of D. Its preconditioner is diagonal in the
DFT basis once the coefficient bands are rotated into the eigenbasis of
``lam (R E)^T R E`` and the sampling mask is replaced by its mean
(:func:`hs_normal_symbol`).
:func:`run_salsa_hs` runs the paper's three-block SALSA scheme to the same
point and stays as the reference; its third block is D, or any other v3-step.

Pair deblurring (:mod:`~pnpfusion.pairdeblur`) is the one-band case, with
E = R = 1 and an all-ones mask, so this solver, this reference and the dense
minimizer of :func:`hs_data_term` serve both applications.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .admm import (
    SolveReport,
    SolverConfig,
    preconditioner_symbol,
    run_admm,
    solve_fixed_point,
)
from .denoiser import DataTerm, LinearDenoiser, denoise_image_fixed
from .errors import ConfigError, DimensionError, as_array, is_count, require_instance
from .fftops import CyclicBlur, blur_rows, solve_x_update_hs, symbol_products
from .gmm import EmConfig, train_em
from .patches import ImageGeometry, extract_patches, remove_means


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal spectral basis columns."""

    e: np.ndarray  # (L_h, L_s)

    def __post_init__(self):
        object.__setattr__(self, "e", as_array(self.e, "basis", 2))

    @property
    def dim(self) -> int:
        return self.e.shape[1]


@dataclass(frozen=True)
class HsScene:
    """One sharpening problem instance; ``z`` is ground truth when synthetic.

    ``mask`` is any 0/1 sampling mask over the pixels: ``y_h`` holds the
    blurred cube at the pixels it keeps, in pixel order.
    """

    y_h: np.ndarray  # (L_h, mask.sum())
    y_m: np.ndarray  # (L_m, n_m)
    blur: CyclicBlur
    mask: np.ndarray  # (n_m,) of {0,1}
    r: np.ndarray  # (L_m, L_h)
    sigma_h: float
    sigma_m: float
    geometry: ImageGeometry
    z: np.ndarray | None = None

    def __post_init__(self):
        require_instance(self.blur, CyclicBlur, "blur")
        object.__setattr__(self, "r", as_array(self.r, "r", 2))
        # np.asarray, not as_array: an integer mask keeps its dtype
        object.__setattr__(self, "mask", np.asarray(self.mask))
        n_m, (l_m, l_h) = self.geometry.n, self.r.shape
        if self.blur.geometry != self.geometry:
            raise DimensionError(f"blur grid {self.blur.geometry} != {self.geometry}")
        if self.mask.shape != (n_m,):
            raise DimensionError("mask length must equal the pixel count")
        if not np.all((self.mask == 0) | (self.mask == 1)):
            raise ConfigError("mask entries must be 0 or 1")
        kept = int(self.mask.sum())
        shapes = {"y_h": (l_h, kept), "y_m": (l_m, n_m), "z": (l_h, n_m)}
        for name, shape in shapes.items():
            if name != "z" or self.z is not None:
                # with an all-zero mask y_h has no entries
                array = as_array(getattr(self, name), name, 2, empty=name == "y_h")
                if array.shape != shape:
                    raise DimensionError(f"{name} has shape {array.shape}, not {shape}")
                object.__setattr__(self, name, array)
        if np.any(self.r < 0):
            raise ConfigError("spectral response rows must be nonnegative")
        if not (0 <= self.sigma_h < np.inf and 0 <= self.sigma_m < np.inf):
            raise ConfigError("noise levels must be nonnegative and finite")

    @property
    def masked_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


def make_decimation_mask(geometry: ImageGeometry, d: int) -> np.ndarray:
    """0/1 pixel mask keeping every d-th row and column, top-left phase."""
    if not is_count(d):
        raise ConfigError(f"decimation factor must be an integer >= 1, got {d!r}")
    rows = np.arange(geometry.height) % d == 0
    cols = np.arange(geometry.width) % d == 0
    grid = np.outer(rows, cols)
    return geometry.from_grid(grid.astype(float)).astype(int)


def forward_hs(z: np.ndarray, scene: HsScene) -> np.ndarray:
    """Blur every band cyclically and keep the masked pixels: ``Z B M``."""
    require_instance(scene, HsScene, "scene")
    z = as_array(z, "z", 2)
    if z.shape[1] != scene.geometry.n:
        raise DimensionError("z pixel count does not match the scene geometry")
    return blur_rows(z, scene.blur)[:, scene.masked_indices]


def forward_ms(z: np.ndarray, scene: HsScene) -> np.ndarray:
    """Spectrally mix the cube: ``R Z``."""
    require_instance(scene, HsScene, "scene")
    z = as_array(z, "z", 2)
    if z.shape[0] != scene.r.shape[1]:
        raise DimensionError("z band count does not match the spectral response")
    return scene.r @ z


def pca_basis(y_h: np.ndarray, n_dims: int) -> SubspaceBasis:
    """Top left-singular subspace of the observed spectra (no mean centering).

    Column signs are fixed so each column's largest-magnitude entry is
    positive, making the basis deterministic. ``n_dims`` must be an integer
    in ``[1, min(y_h.shape)]``.
    """
    y_h = as_array(y_h, "y_h", 2)
    bound = min(y_h.shape)
    if not (is_count(n_dims) and n_dims <= bound):
        raise ConfigError(
            f"subspace dimension must be an integer in [1, {bound}], got {n_dims!r}"
        )
    u = np.linalg.svd(y_h, full_matrices=False)[0]
    e = u[:, :n_dims].copy()
    for j in range(n_dims):
        pivot = np.argmax(np.abs(e[:, j]))
        if e[pivot, j] < 0:
            e[:, j] = -e[:, j]
    return SubspaceBasis(e=e)


def v3_update(
    x: np.ndarray, d3: np.ndarray, den: LinearDenoiser | None
) -> np.ndarray:
    """D on each coefficient band of ``x - d3``, two ``(k, n)`` stacks of one
    shape, or ``x - d3`` without a denoiser; perfbench's gate applies D so."""
    x, d3 = as_array(x, "x", 2), as_array(d3, "d3", 2)
    if x.shape != d3.shape:
        raise DimensionError(f"x has shape {x.shape}, d3 {d3.shape}")
    target = x - d3
    return target if den is None else denoise_image_fixed(target, den)


@dataclass(frozen=True)
class SharpenParams:
    """Pipeline knobs: subspace size, patch size, EM and solver configs."""

    n_subspace: int
    patch_side: int
    em: EmConfig
    solver: SolverConfig
    pure_linear: bool = False


def train_scene_denoiser(
    y_m: np.ndarray,
    geometry: ImageGeometry,
    patch_side: int,
    em: EmConfig,
    denoiser_variance: float,
    pure_linear: bool = False,
) -> LinearDenoiser:
    """EM over the zero-mean patches of every band, weights averaged per patch.

    The mixture is trained on all bands' patches, gathered in one pass; then
    the per-band posteriors at each patch location are averaged and frozen.
    """
    patches = remove_means(extract_patches(y_m, geometry, patch_side))
    model, beta, _ = train_em(patches, em)
    return LinearDenoiser(
        model=model,
        weights=beta.reshape(em.n_components, -1, geometry.n).mean(axis=1),
        noise_variance=denoiser_variance,
        geometry=geometry,
        pure_linear=pure_linear,
    )


def _check_problem(scene: HsScene, basis: SubspaceBasis, lam: float) -> None:
    """Raise :class:`ConfigError` for a scene or basis of another type or a
    negative or non-finite lam, and :class:`DimensionError` unless ``basis``
    has one row per HS band of the scene."""
    require_instance(scene, HsScene, "scene")
    require_instance(basis, SubspaceBasis, "basis")
    if basis.e.shape[0] != scene.y_h.shape[0]:
        raise DimensionError(
            f"basis has {basis.e.shape[0]} rows, "
            f"the scene {scene.y_h.shape[0]} HS bands"
        )
    if not 0 <= lam < np.inf:  # NaN fails it
        raise ConfigError(f"lam must be >= 0 and finite, got {lam}")


def _v3_step(denoiser, geometry: ImageGeometry):
    """``denoiser`` as a map on ``(k, n)`` coefficients: the identity for None,
    D for a :class:`LinearDenoiser` on ``geometry``, else the callable itself."""
    if denoiser is None:
        return lambda x: x
    if callable(denoiser):
        return denoiser
    require_instance(denoiser, LinearDenoiser, "denoiser")
    if denoiser.geometry != geometry:
        raise DimensionError(f"denoiser grid {denoiser.geometry} != {geometry}")
    return lambda x: denoise_image_fixed(x, denoiser)


def hs_data_term(scene: HsScene, basis: SubspaceBasis, lam: float) -> DataTerm:
    """``[forward_hs(E X); sqrt(lam) R E X]`` against ``[Y_h; sqrt(lam) Y_m]``,
    on the coefficient matrix X.

    The blur acts on each band alone, so it is applied to the few coefficient
    rows of X rather than to the bands of ``E X``.
    """
    _check_problem(scene, basis, lam)
    root = np.sqrt(lam)
    idx = scene.masked_indices
    re = scene.r @ basis.e

    def apply(x):
        hs = basis.e @ blur_rows(x, scene.blur)[:, idx]
        return np.concatenate([hs.ravel(), root * (re @ x).ravel()])

    def adjoint(r):
        hs, ms = np.split(r, [scene.y_h.size])
        fit = np.zeros((basis.dim, scene.geometry.n))
        fit[:, idx] = basis.e.T @ hs.reshape(scene.y_h.shape)
        return blur_rows(fit, scene.blur, adjoint=True) + root * (
            re.T @ ms.reshape(scene.y_m.shape)
        )

    return DataTerm(
        apply=apply,
        adjoint=adjoint,
        target=np.concatenate([scene.y_h.ravel(), root * scene.y_m.ravel()]),
        shape=(basis.dim, scene.geometry.n),
    )


def hs_normal_symbol(
    scene: HsScene, basis: SubspaceBasis, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """The circulant part of :func:`hs_data_term`'s ``A^T A``, as
    ``(Q, symbols)``.

    On the coefficients, ``A^T A X = ((X B) * mask) B^T + lam S X`` with
    ``S = (R E)^T R E``. Averaged over every cyclic shift of the grid
    (T. Chan, SIAM J. Sci. Stat. Comput. 1988) the mask becomes its mean, so
    the circulant part is ``mean(mask) |b_hat|^2 + lam S``. In the eigenbasis
    ``Q`` (k x k) of ``lam S``, with eigenvalues ``Lambda``, rotated band m has
    the symbol ``mean(mask) |b_hat|^2 + Lambda_m``; ``symbols`` stacks them
    as ``(k, height, width)``.
    """
    _check_problem(scene, basis, lam)
    re = scene.r @ basis.e
    spectral, rotation = np.linalg.eigh(lam * re.T @ re)
    symbols = scene.mask.mean() * scene.blur.power_spectrum
    return rotation, symbols + spectral[:, None, None]


def solve_hs(
    scene: HsScene,
    basis: SubspaceBasis,
    denoiser: LinearDenoiser | None,
    cfg: SolverConfig,
) -> tuple[np.ndarray, SolveReport]:
    """The fixed point on the coefficients, by GMRES
    (:func:`~pnpfusion.admm.solve_fixed_point`).

    D acts on each coefficient band alone, so its circulant part Dbar commutes
    with the rotation Q of :func:`hs_normal_symbol`, and the preconditioner
    ``(rho I + Dbar (Abar - rho I))^-1`` is one symbol product per rotated
    band between two rotations. D is a LinearDenoiser, or None for identity.
    """
    _check_problem(scene, basis, cfg.lam)
    if denoiser is not None:  # GMRES needs D linear
        require_instance(denoiser, LinearDenoiser, "denoiser")
    denoise = _v3_step(denoiser, scene.geometry)
    denoise_symbol = 1.0 if denoiser is None else denoiser.circulant_symbol
    rotation, normal_symbol = hs_normal_symbol(scene, basis, cfg.lam)
    inverse = preconditioner_symbol(normal_symbol, denoise_symbol, cfg.rho)
    return solve_fixed_point(
        hs_data_term(scene, basis, cfg.lam),
        denoise,
        cfg,
        precondition=lambda v: rotation @ symbol_products(rotation.T @ v, inverse),
    )


def run_salsa_hs(
    scene: HsScene,
    basis: SubspaceBasis,
    denoiser: LinearDenoiser | Callable[[np.ndarray], np.ndarray] | None,
    cfg: SolverConfig,
) -> tuple[np.ndarray, SolveReport]:
    """SALSA (Afonso, Bioucas-Dias & Figueiredo, IEEE TIP 2011):
    :func:`~pnpfusion.admm.run_admm` on the HS splitting ``V1 = X B``,
    ``V2 = V3 = X`` of Simoes et al. (IEEE TGRS 2015). V1 (blurred HS) solves
    with ``E^T E + rho I`` at the masked columns and keeps its target
    elsewhere, V2 (spectral) with ``lam (R E)^T R E + rho I``, both formed
    once per call, and V3 applies ``denoiser`` (:func:`_v3_step`); with None
    or a :class:`LinearDenoiser` it reaches :func:`solve_hs`'s fixed point.
    The objective trace is the data fit alone.
    """
    _check_problem(scene, basis, cfg.lam)
    v3_step = _v3_step(denoiser, scene.geometry)
    rho = cfg.rho
    idx = scene.masked_indices
    hs_lhs = basis.e.T @ basis.e + rho * np.eye(basis.dim)
    hs_rhs = basis.e.T @ scene.y_h
    re = scene.r @ basis.e
    ms_lhs = cfg.lam * re.T @ re + rho * np.eye(basis.dim)
    ms_rhs = cfg.lam * re.T @ scene.y_m
    data = hs_data_term(scene, basis, cfg.lam)

    def x_update(vs, us):
        rhs = blur_rows(vs[0] + us[0], scene.blur, adjoint=True)
        return solve_x_update_hs(rhs + vs[1] + us[1] + vs[2] + us[2], scene.blur)

    def v_update(j, target):
        if j == 0:
            out = target.copy()
            out[:, idx] = np.linalg.solve(hs_lhs, hs_rhs + rho * target[:, idx])
            return out
        if j == 1:
            return np.linalg.solve(ms_lhs, ms_rhs + rho * target)
        return v3_step(target)

    problem = SimpleNamespace(
        x_update=x_update,
        h_apply=lambda x: [blur_rows(x, scene.blur), x, x],
        v_update=v_update,
        objective=lambda x: data.objective(x, 0.0),
    )
    zeros = np.zeros((basis.dim, scene.geometry.n))
    return run_admm(problem, cfg, [zeros, zeros, zeros])


def sharpen(
    scene: HsScene, params: SharpenParams
) -> tuple[np.ndarray, SolveReport]:
    """Full sharpening pipeline: PCA basis, EM-trained denoiser, GMRES solve.

    Returns the reconstructed cube ``Z_hat = E X`` and the solve report. The
    fixed point is solved to ``FIXED_POINT_RTOL`` by :func:`solve_hs`; the
    solver config's ``primal_tol``/``dual_tol`` bound only the SALSA
    reference. With ``tau == 0`` no GMM is trained and D is the identity.
    """
    require_instance(scene, HsScene, "scene")
    cfg = params.solver
    basis = pca_basis(scene.y_h, params.n_subspace)
    denoiser = None
    if cfg.tau > 0:
        denoiser = train_scene_denoiser(
            scene.y_m,
            scene.geometry,
            params.patch_side,
            params.em,
            denoiser_variance=cfg.tau / cfg.rho,
            pure_linear=params.pure_linear,
        )
    x, report = solve_hs(scene, basis, denoiser, cfg)
    return basis.e @ x, report
