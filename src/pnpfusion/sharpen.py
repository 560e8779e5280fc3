"""Hyperspectral sharpening: forward models, PCA subspace, SALSA updates.

Observed data: a spatially blurred and decimated hyperspectral cube
``Y_h = Z B M`` plus a spectrally mixed high-resolution cube ``Y_m = R Z``.
The latent cube is represented as ``Z = E X`` on a low-dimensional spectral
subspace. The prior is the scene-adapted GMM denoiser D, built with noise
variance ``tau / rho`` and applied independently to each coefficient band.

At the PnP fixed point the minimized objective is

    0.5 ||E X B M - Y_h||_F^2 + (lam/2) ||R E X - Y_m||_F^2
        + reg_weight * sum_bands phi(X_band)

with ``reg_weight = rho``: a prox step implemented as plain multiplication by
the denoiser matrix contributes its regularizer phi scaled by the penalty
parameter. :func:`hs_data_term` states the two data terms once, on the
coefficients X; its :class:`~pnpfusion.denoiser.DataTerm` takes the weight
on phi explicitly to evaluate this objective and give its dense minimizer.

:func:`sharpen` solves the fixed-point equation with GMRES
(:func:`~pnpfusion.admm.solve_fixed_point`), so its report counts matvecs.
:func:`run_salsa_hs` runs the paper's three-block SALSA scheme to the same
point and stays as the reference; its third block is D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import SolveReport, SolverConfig, run_admm, solve_fixed_point
from .denoiser import DataTerm, LinearDenoiser, denoise_image_fixed
from .errors import ConfigError, DimensionError
from .fftops import CyclicBlur, blur_rows, solve_x_update_hs
from .gmm import EmConfig, PatchWeights, train_em
from .patches import ImageGeometry, PatchSet, extract_patches, remove_means


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal spectral basis columns with their singular values."""

    e: np.ndarray  # (L_h, L_s)
    singular_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.e.shape[1]


@dataclass(frozen=True)
class HsScene:
    """One sharpening problem instance; ``z`` is ground truth when synthetic."""

    y_h: np.ndarray  # (L_h, n_h)
    y_m: np.ndarray  # (L_m, n_m)
    blur: CyclicBlur
    mask: np.ndarray  # (n_m,) of {0,1}
    r: np.ndarray  # (L_m, L_h)
    sigma_h: float
    sigma_m: float
    geometry: ImageGeometry
    z: np.ndarray | None = None

    def __post_init__(self):
        n_m = self.geometry.n
        if self.mask.shape != (n_m,):
            raise DimensionError("mask length must equal the pixel count")
        if not np.all((self.mask == 0) | (self.mask == 1)):
            raise ConfigError("mask entries must be 0 or 1")
        decimation_factor(self.mask, self.geometry)  # validates regularity
        if self.y_h.shape != (self.r.shape[1], int(self.mask.sum())):
            raise DimensionError(
                f"y_h shape {self.y_h.shape} inconsistent with R {self.r.shape} "
                f"and mask count {int(self.mask.sum())}"
            )
        if self.y_m.shape != (self.r.shape[0], n_m):
            raise DimensionError(
                f"y_m shape {self.y_m.shape} inconsistent with R and geometry"
            )
        if np.any(self.r < 0):
            raise ConfigError("spectral response rows must be nonnegative")

    @property
    def n_bands_hs(self) -> int:
        return self.y_h.shape[0]

    @property
    def n_bands_ms(self) -> int:
        return self.y_m.shape[0]

    @property
    def masked_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


def make_decimation_mask(geometry: ImageGeometry, d: int) -> np.ndarray:
    """0/1 pixel mask keeping every d-th row and column, top-left phase."""
    if d < 1:
        raise ConfigError(f"decimation factor must be >= 1, got {d}")
    rows = np.arange(geometry.height) % d == 0
    cols = np.arange(geometry.width) % d == 0
    grid = np.outer(rows, cols)
    return geometry.from_grid(grid.astype(float)).astype(int)


def decimation_factor(mask: np.ndarray, geometry: ImageGeometry) -> int:
    """Recover d from a mask, raising if it is not a regular top-left grid.

    An all-zero mask (no data term anywhere) is allowed and returns 0.
    """
    ones = np.flatnonzero(mask)
    if ones.size == 0:
        return 0
    rows = np.unique(ones % geometry.height)
    cols = np.unique(ones // geometry.height)
    if rows.size > 1:
        d = int(rows[1] - rows[0])
    elif cols.size > 1:
        d = int(cols[1] - cols[0])
    else:
        d = max(geometry.height, geometry.width)
    if not np.array_equal(mask, make_decimation_mask(geometry, d)):
        raise ConfigError("mask is not a regular top-left decimation grid")
    return d


def forward_hs(z: np.ndarray, scene: HsScene) -> np.ndarray:
    """Blur every band cyclically and keep the masked pixels: ``Z B M``."""
    if z.shape[1] != scene.geometry.n:
        raise DimensionError("z pixel count does not match the scene geometry")
    return blur_rows(z, scene.blur)[:, scene.masked_indices]


def forward_ms(z: np.ndarray, scene: HsScene) -> np.ndarray:
    """Spectrally mix the cube: ``R Z``."""
    if z.shape[0] != scene.r.shape[1]:
        raise DimensionError("z band count does not match the spectral response")
    return scene.r @ z


def pca_basis(y_h: np.ndarray, n_dims: int) -> SubspaceBasis:
    """Top left-singular subspace of the observed spectra (no mean centering).

    Column signs are fixed so each column's largest-magnitude entry is
    positive, making the basis deterministic.
    """
    if n_dims > min(y_h.shape):
        raise ConfigError(
            f"subspace dimension {n_dims} exceeds data rank bound {min(y_h.shape)}"
        )
    u, s, _ = np.linalg.svd(y_h, full_matrices=False)
    e = u[:, :n_dims].copy()
    for j in range(n_dims):
        pivot = np.argmax(np.abs(e[:, j]))
        if e[pivot, j] < 0:
            e[:, j] = -e[:, j]
    return SubspaceBasis(e=e, singular_values=s[:n_dims].copy())


def v1_update(
    target: np.ndarray, scene: HsScene, basis: SubspaceBasis, rho: float
) -> np.ndarray:
    """Blurred-HS data block: minimize over V

        ||E V M - Y_h||_F^2 + rho ||target - V||_F^2.

    Masked columns get the small closed-form solve; unmasked columns carry
    the target through unchanged.
    """
    out = target.copy()
    idx = scene.masked_indices
    lhs = basis.e.T @ basis.e + rho * np.eye(basis.dim)
    rhs = basis.e.T @ scene.y_h + rho * target[:, idx]
    out[:, idx] = np.linalg.solve(lhs, rhs)
    return out


def v2_update(
    target: np.ndarray, scene: HsScene, basis: SubspaceBasis, lam: float, rho: float
) -> np.ndarray:
    """Spectral-mixing block: minimize over V

        lam ||R E V - Y_m||_F^2 + rho ||target - V||_F^2,

    one shared L_s x L_s solve for all columns.
    """
    re = scene.r @ basis.e
    lhs = lam * re.T @ re + rho * np.eye(basis.dim)
    rhs = lam * re.T @ scene.y_m + rho * target
    return np.linalg.solve(lhs, rhs)


def v3_update(
    x: np.ndarray, d3: np.ndarray, den: LinearDenoiser | None
) -> np.ndarray:
    """Denoise each coefficient band independently with the shared weights."""
    target = x - d3
    if den is None:
        return target
    if target.shape[1] != den.geometry.n:
        raise DimensionError("coefficient rows do not match the denoiser grid")
    return np.stack([denoise_image_fixed(row, den) for row in target])


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

    The mixture is trained jointly on all bands' patches; after convergence
    the per-band posteriors at each patch location are averaged and frozen.
    """
    patches = np.vstack(
        [
            remove_means(extract_patches(band, geometry, patch_side)).patches
            for band in y_m
        ]
    )
    model, weights, _ = train_em(
        PatchSet(patches=patches, patch_side=patch_side, source_geometry=geometry), em
    )
    beta = weights.beta.reshape(em.n_components, y_m.shape[0], geometry.n).mean(axis=1)
    return LinearDenoiser(
        model=model,
        weights=PatchWeights(beta=beta),
        noise_variance=denoiser_variance,
        geometry=geometry,
        pure_linear=pure_linear,
    )


def hs_data_term(scene: HsScene, basis: SubspaceBasis, lam: float) -> DataTerm:
    """``[forward_hs(E X); sqrt(lam) R E X]`` against ``[Y_h; sqrt(lam) Y_m]``,
    on the coefficient matrix X.

    The blur acts on each band alone, so it is applied to the few coefficient
    rows of X rather than to the bands of ``E X``.
    """
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


class _HsProblem:
    """Callback bundle wiring one scene into the generic ADMM driver."""

    def __init__(self, scene, basis, denoiser, cfg):
        self.scene = scene
        self.basis = basis
        self.denoiser = denoiser
        self.cfg = cfg
        self.data = hs_data_term(scene, basis, cfg.lam)

    def x_update(self, vs, us):
        rhs = (
            blur_rows(vs[0] + us[0], self.scene.blur, adjoint=True)
            + vs[1]
            + us[1]
            + vs[2]
            + us[2]
        )
        return solve_x_update_hs(rhs, self.scene.blur)

    def h_apply(self, x):
        return [blur_rows(x, self.scene.blur), x, x]

    def v_update(self, j, target):
        if j == 0:
            return v1_update(target, self.scene, self.basis, self.cfg.rho)
        if j == 1:
            return v2_update(target, self.scene, self.basis, self.cfg.lam, self.cfg.rho)
        return v3_update(target, np.zeros_like(target), self.denoiser)

    def objective(self, x):
        return self.data.objective(x, 0.0)


def run_salsa_hs(
    scene: HsScene,
    basis: SubspaceBasis,
    denoiser: LinearDenoiser | None,
    cfg: SolverConfig,
) -> tuple[np.ndarray, SolveReport]:
    """SALSA iterations for a prepared scene/basis/denoiser triple."""
    zeros = np.zeros((basis.dim, scene.geometry.n))
    problem = _HsProblem(scene, basis, denoiser, cfg)
    return run_admm(problem, cfg, [zeros, zeros, zeros])


def sharpen(
    scene: HsScene, params: SharpenParams
) -> tuple[np.ndarray, SolveReport]:
    """Full sharpening pipeline: PCA basis, EM-trained denoiser, GMRES solve.

    Returns the reconstructed cube ``Z_hat = E X`` and the solve report. With
    ``tau == 0`` no GMM is trained and D is the identity.
    """
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

    def denoise(x):
        return v3_update(x, np.zeros_like(x), denoiser)

    data = hs_data_term(scene, basis, cfg.lam)
    x, report = solve_fixed_point(data, denoise, cfg.rho, cfg)
    return basis.e @ x, report
