"""Scene-adapted GMM patch denoiser and its proximity-operator structure.

The fixed-weight denoiser applies, to each patch, the convex combination of
per-component Wiener filters ``F_i = sum_j beta_ji C_j (C_j + s2 I)^-1`` with
weights frozen from training, then recombines patches by straight averaging.
With the weights frozen the whole map is one linear operator

    W = (1/n_p) sum_i P_i^T M_i P_i,

which :class:`LinearDenoiser` assembles once as a sparse matrix and every
apply multiplies by. In pure-linear mode ``M_i = F_i`` and W is symmetric
PSD with spectrum in ``[0, 1)``, so it equals the proximity operator of

    phi(x) = indicator(x in span(W)) + 0.5 x^T Qbar (Lbar^-1 - I) Qbar^T x

which this module can evaluate and prox directly from the eigendecomposition
of W made dense (test scale only). The practical mode removes each patch's
mean before filtering and restores it afterwards,
``M_i = F_i (I - 11^T/n_p) + 11^T/n_p``: still linear, but not symmetric, so
the proximity-operator theory does not cover it.

Each fusion pipeline states its data fit once as a :class:`DataTerm`, which
adds ``reg_weight * phi`` to give the objective PnP-ADMM minimizes and solves
that objective densely as the test-scale oracle.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError, SizeError
from .gmm import GmmModel, PatchWeights, e_step
from .patches import (
    ImageGeometry,
    assemble_patches,
    extract_patches,
    remove_means,
    restore_means,
)

# Eigenvalues of W below this fraction of the largest are treated as zero
# when identifying span(W).
RANK_RTOL = 1e-10

# Relative distance from span(W) beyond which the indicator term fires.
SUBSPACE_RTOL = 1e-8

EXPLICIT_W_CAP = 4096


@dataclass(frozen=True)
class LinearDenoiser:
    """GMM + frozen per-patch weights + noise variance, over a fixed grid.

    The denoiser is the linear map :attr:`operator`, built on first use.
    ``pure_linear`` leaves out per-patch mean removal/restoration; that
    variant is the symmetric operator analyzed by the proximity-operator
    theory. The practical default handles means the way the patch pipelines
    do, which keeps W linear but makes it non-symmetric.
    """

    model: GmmModel
    weights: PatchWeights
    noise_variance: float
    geometry: ImageGeometry
    pure_linear: bool = False

    def __post_init__(self):
        if not self.noise_variance > 0:
            raise ConfigError("denoiser noise variance must be positive")
        if self.weights.n_components != self.model.n_components:
            raise DimensionError("weights/model component counts differ")
        if self.weights.count != self.geometry.n:
            raise DimensionError(
                f"weights cover {self.weights.count} patches, geometry has "
                f"{self.geometry.n} pixels"
            )

    @cached_property
    def operator(self):
        """W as a CSR matrix, assembled on first use and kept.

        Row p holds one entry per displacement a patch can span, (2s-1)^2 in
        all for side-s patches; displacements that wrap onto the same pixel
        of a grid narrower than 2s-1 are merged.
        """
        from scipy import sparse  # loaded on first build, not at package import

        side = self.model.patch_side
        n_p = side * side
        h, w = self.geometry.height, self.geometry.width
        n = self.geometry.n
        span = 2 * side - 1
        filters = component_filters(self.model, self.noise_variance)
        if not self.pure_linear:
            filters = filters - filters.mean(axis=2, keepdims=True)
        # Row p = c*h + r of W is data[c, r]: a (2s-1) x (2s-1) grid whose
        # entry [b, a] sits at displacement (a - s + 1, b - s + 1) from pixel
        # (r, c), on the pixel cols[c, r, b, a].
        shift = np.arange(span, dtype=np.int32) - (side - 1)
        col_table = (np.arange(w, dtype=np.int32)[:, None] + shift) % w * h
        row_table = (np.arange(h, dtype=np.int32)[:, None] + shift) % h
        cols = col_table[:, None, :, None] + row_table[None, :, None, :]
        data = np.zeros((w, h, span, span))
        beta_t = self.weights.beta.T
        # Offset k = (kr, kc) of the patch anchored at (r, c) lands on pixel
        # (r + kr, c + kc), so row k of every M_i, rolled onto those pixels,
        # fills the s x s window of displacements that starts at -(kr, kc).
        for k in range(n_p):
            kr, kc = k % side, k // side
            block = beta_t @ filters[:, k, :]  # row i: row k of M_i
            if not self.pure_linear:
                block += 1.0 / n_p
            window = data[:, :, side - 1 - kc : span - kc, side - 1 - kr : span - kr]
            window += np.roll(block.reshape(w, h, side, side), (kc, kr), axis=(0, 1))
        data /= n_p
        indptr = np.arange(0, data.size + 1, span * span, dtype=np.int32)
        op = sparse.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(n, n))
        op.sum_duplicates()
        return op


@dataclass(frozen=True)
class ExplicitW:
    """Densely materialized denoiser matrix with its eigendecomposition.

    ``eigenvalues`` are sorted descending; ``basis`` holds the eigenvectors of
    the nonzero eigenvalues (an orthonormal basis of span(W)).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def nonzero_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[: self.rank]


def wiener_filter(covariance: np.ndarray, noise_variance: float) -> np.ndarray:
    """Per-component linear MMSE shrinkage ``C (C + s2 I)^-1``.

    Built from the eigendecomposition so the result is exactly symmetric with
    eigenvalues ``v/(v + s2) in [0, 1)``.
    """
    if not noise_variance > 0:
        raise ConfigError("wiener filter requires positive noise variance")
    vals, vecs = np.linalg.eigh(covariance)
    vals = np.maximum(vals, 0.0)
    shrink = vals / (vals + noise_variance)
    return (vecs * shrink) @ vecs.T


def component_filters(model: GmmModel, noise_variance: float) -> np.ndarray:
    """Stack of the K per-component Wiener filters, shape (K, n_p, n_p)."""
    return np.stack(
        [wiener_filter(c, noise_variance) for c in model.covariances]
    )


def denoise_image_fixed(
    image_band: np.ndarray, denoiser: LinearDenoiser
) -> np.ndarray:
    """Denoise one band with the frozen training weights: ``W @ image_band``."""
    band = np.asarray(image_band, dtype=float)
    if band.shape != (denoiser.geometry.n,):
        raise DimensionError(
            f"band has {band.shape} entries, geometry expects {denoiser.geometry.n}"
        )
    return denoiser.operator @ band


def denoise_image_mmse(
    image_band: np.ndarray,
    model: GmmModel,
    noise_variance: float,
    geometry: ImageGeometry,
) -> np.ndarray:
    """Exact-MMSE variant: posterior weights recomputed from the noisy input.

    Mean handling is always on; this is the nonlinear denoiser the fixed-
    weight one linearizes, so it runs the patch pipeline on every call.
    """
    patch_set = remove_means(extract_patches(image_band, geometry, model.patch_side))
    beta = e_step(patch_set, model, noise_variance).beta
    filters = component_filters(model, noise_variance)
    filtered = np.zeros_like(patch_set.patches)
    for j in range(filters.shape[0]):
        # row-wise F_j y_i; the filters are symmetric
        filtered += beta[j][:, None] * (patch_set.patches @ filters[j])
    return assemble_patches(restore_means(replace(patch_set, patches=filtered)))


def build_explicit_w(denoiser: LinearDenoiser) -> ExplicitW:
    """The pure-linear operator made dense, with its eigendecomposition.

    Whatever the denoiser's mode, the matrix is its pure-linear ``operator``
    (mean handling is never part of it). Refuses images above the test-scale
    cap.
    """
    n = denoiser.geometry.n
    if n > EXPLICIT_W_CAP:
        raise SizeError(f"explicit W capped at n={EXPLICIT_W_CAP}, got n={n}")
    if not denoiser.pure_linear:
        denoiser = replace(denoiser, pure_linear=True)
    w = denoiser.operator.toarray()
    vals, vecs = np.linalg.eigh(w)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    rank = int(np.sum(vals > RANK_RTOL * max(vals[0], 0.0)))
    return ExplicitW(matrix=w, eigenvalues=vals, basis=vecs[:, :rank])


def eval_phi(x: np.ndarray, w: ExplicitW) -> float:
    """Evaluate the regularizer W is the prox of; +inf off span(W)."""
    coeffs = w.basis.T @ x
    residual = x - w.basis @ coeffs
    norm = np.linalg.norm(x)
    if np.linalg.norm(residual) > SUBSPACE_RTOL * norm:
        return float("inf")
    inv_minus_one = 1.0 / w.nonzero_eigenvalues - 1.0
    return float(0.5 * np.sum(inv_minus_one * coeffs**2))


def prox_oracle(y: np.ndarray, w: ExplicitW) -> np.ndarray:
    """Proximity operator of phi, solved in span(W) coordinates.

    Reduces ``argmin 0.5||x - y||^2 + phi(x)`` over ``x = Qbar z`` to the
    diagonal problem with solution ``z = Lbar Qbar^T y``. This path never
    touches the patch pipeline, so it independently reproduces ``W @ y``.
    """
    z = w.nonzero_eigenvalues * (w.basis.T @ y)
    return w.basis @ z


@dataclass(frozen=True)
class DataTerm:
    """The data fit ``0.5 ||A x - target||^2`` of one fusion pipeline.

    ``apply`` is the linear map ``x -> A x`` with every observation stacked
    into one vector, ``adjoint`` is ``r -> A^T r`` from that stacked vector
    back to the shape of x, and ``shape`` is the shape of x: a pixel vector,
    or one row per coefficient band. Adding ``reg_weight * phi`` on each row
    of x gives the objective PnP-ADMM minimizes with the frozen denoiser.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    target: np.ndarray
    shape: tuple[int, ...]

    def objective(
        self, x: np.ndarray, reg_weight: float, w: ExplicitW | None = None
    ) -> float:
        """Data fit at x plus ``reg_weight * phi`` on each row; +inf off span(W)."""
        val = 0.5 * float(np.sum((self.apply(x) - self.target) ** 2))
        if reg_weight > 0:
            if w is None:
                raise ConfigError("reg_weight > 0 needs an explicit W to evaluate phi")
            val += reg_weight * sum(eval_phi(row, w) for row in np.atleast_2d(x))
        return val

    def minimizer(self, reg_weight: float, w: ExplicitW | None = None) -> np.ndarray:
        """Dense least-squares minimizer of :meth:`objective` (test scale only).

        Each row of x is written as ``Q z`` and the stacked problem
        ``[A Q; diag(sqrt(reg_weight (1/lambda - 1)))] z ~ [target; 0]`` is
        solved by ``lstsq``: Q spans span(W) when ``reg_weight > 0`` and is
        the identity otherwise, where the minimum-norm minimizer is returned.
        """
        unknowns = int(np.prod(self.shape))
        if unknowns > EXPLICIT_W_CAP:
            raise SizeError(
                f"dense minimizer capped at {EXPLICIT_W_CAP} unknowns, got {unknowns}"
            )
        n_rows, n = (1, *self.shape) if len(self.shape) == 1 else self.shape
        if reg_weight > 0:
            if w is None:
                raise ConfigError("reg_weight > 0 requires the explicit W")
            q = w.basis
            penalty = np.sqrt(reg_weight * (1.0 / w.nonzero_eigenvalues - 1.0))
        else:
            q = np.eye(n)
            penalty = np.zeros(n)

        def coeff(z):
            return (z.reshape(n_rows, q.shape[1]) @ q.T).reshape(self.shape)

        eye = np.eye(n_rows * q.shape[1])
        a = np.column_stack([self.apply(coeff(e)) for e in eye])
        lhs = np.vstack([a, np.diag(np.tile(penalty, n_rows))])
        rhs = np.concatenate([self.target, np.zeros(lhs.shape[1])])
        return coeff(np.linalg.lstsq(lhs, rhs, rcond=None)[0])


@dataclass(frozen=True)
class ExpansivenessTable:
    """Scalar MMSE curve vs its fixed-weight linearization on a grid."""

    y: np.ndarray
    mmse: np.ndarray
    fixed: np.ndarray
    max_slope_mmse: float
    max_slope_fixed: float
    fixed_beta: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.5]))


def expansiveness_demo(
    small_variance: float,
    large_variance: float,
    noise_variance: float,
    grid: np.ndarray | None = None,
    alphas: tuple[float, float] = (0.5, 0.5),
) -> ExpansivenessTable:
    """Univariate two-component demo of MMSE expansiveness.

    The exact MMSE estimate under a zero-mean two-component scalar mixture has
    finite-difference slope above 1 in the transition region between the
    components, while the fixed-weight linearization is a convex combination
    of shrinkages and stays strictly below slope 1.
    """
    if not 0 < small_variance < large_variance:
        raise ConfigError("need 0 < small_variance < large_variance")
    if grid is None:
        grid = np.arange(-3.0, 3.0 + 1e-12, 1e-4)
    variances = np.array([small_variance, large_variance])
    a = np.asarray(alphas, dtype=float)
    noisy_vars = variances + noise_variance
    loglik = (
        np.log(a)[:, None]
        - 0.5 * (np.log(2 * np.pi * noisy_vars)[:, None] + grid[None, :] ** 2 / noisy_vars[:, None])
    )
    peak = loglik.max(axis=0)
    beta = np.exp(loglik - peak[None, :])
    beta /= beta.sum(axis=0)[None, :]
    shrink = variances / noisy_vars
    mmse = (beta * shrink[:, None]).sum(axis=0) * grid
    fixed = float(a @ shrink) * grid
    dy = np.diff(grid)
    return ExpansivenessTable(
        y=grid,
        mmse=mmse,
        fixed=fixed,
        max_slope_mmse=float(np.max(np.diff(mmse) / dy)),
        max_slope_fixed=float(np.max(np.diff(fixed) / dy)),
        fixed_beta=a,
    )
