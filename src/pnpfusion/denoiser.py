"""Scene-adapted GMM patch denoiser and its proximity-operator structure.

The fixed-weight denoiser applies, to each patch, the convex combination of
per-component Wiener filters ``F_i = sum_j beta_ji C_j (C_j + s2 I)^-1`` with
weights frozen from training, then recombines patches by straight averaging.
With the weights frozen the whole map is one linear operator

    W = (1/n_p) sum_i P_i^T M_i P_i,

which :class:`LinearDenoiser` assembles once as a cyclic stencil: row p of W
holds ``(2s-1)^2`` coefficients for side-s patches, one per displacement a
patch can span, and every apply weights each pixel's wrapped window of
neighbours by its row. The build forms only the displacements d >= 0 in
lexicographic order, one slab of column displacement at a time, and writes
the plane of -d as the plane of d rolled by d, so the stencil is symmetric
bit for bit at every grid size. The practical mode filters each patch's
zero-mean part and passes its mean through, ``M_i = (I - J) F_i (I - J) + J``
with ``J = 11^T/n_p``; the pure-linear mode has ``M_i = F_i``. Either way
every M_i is symmetric with spectrum in ``[0, 1]``, so W is symmetric PSD
with ``||W|| <= 1`` and equals the proximity operator of

    phi(x) = indicator(x in span(W)) + 0.5 x^T Qbar (Lbar^-1 - I) Qbar^T x

(Moreau 1965), which this module evaluates from the eigendecomposition of
W made dense (test scale only); the dense minimizer of the identity
:class:`DataTerm` at weight 1 is its prox. In practical mode
``W 1 = 1``, the constant images are the only eigenvalue-1 directions and
phi gives them no weight. An EM-trained covariance annihilates the constant
patch, so for a trained model the practical M_i equals the patch pipeline's
mean removal, filtering and mean restoration ``F_i (I - J) + J`` to
rounding.

Each fusion pipeline states its data fit once as a :class:`DataTerm`, which
adds ``reg_weight * phi`` to give the objective PnP-ADMM minimizes and solves
that objective densely as the test-scale oracle.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionError, SizeError, as_array, require_instance
from .gmm import GmmModel, checked_responsibilities, eigt, posterior
from .patches import (  # perfbench/tracing.py patches the two unused names here
    ImageGeometry,
    PatchSet,
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

    ``weights`` is the (K, n) beta of :func:`~pnpfusion.gmm.posterior`, whose
    columns :func:`~pnpfusion.gmm.checked_responsibilities` checks to lie on the
    simplex, which keeps each patch map's spectrum, and so W's, in [0, 1].

    The denoiser is the linear map :attr:`operator`, built on first use.
    The practical default passes each patch's mean through unfiltered;
    ``pure_linear`` filters the whole patch, which maps constant images
    towards zero. Both operators are symmetric PSD with norm at most 1.
    """

    model: GmmModel
    weights: np.ndarray  # (K, n)
    noise_variance: float
    geometry: ImageGeometry
    pure_linear: bool = False

    def __post_init__(self):
        require_instance(self.model, GmmModel, "model")
        if not 0 < self.noise_variance < np.inf:
            raise ConfigError("denoiser noise variance must be positive and finite")
        n, k = self.geometry.n, self.model.n_components
        beta = checked_responsibilities(self.weights, n, k)
        object.__setattr__(self, "weights", beta)

    @cached_property
    def operator(self) -> np.ndarray:
        """W as a cyclic stencil, built on first use and kept.

        Shape ``(width, height, 2s-1, 2s-1)`` for side-s patches: row
        p = c*height + r of W is ``operator[c, r]``, whose entry ``[b, a]``
        weights the pixel at displacement ``(a - s + 1, b - s + 1)`` from
        pixel (r, c), wrapped onto the grid. On a grid narrower than 2s-1
        several displacements wrap onto one pixel and their entries add up.

        Built one slab of column displacement ``dc >= 0`` at a time, from
        the half of the displacements that is lexicographically nonnegative,
        by one weighted accumulation of filter entries that carry J and 1/n_p.
        W is symmetric, so the plane of displacement -d is the plane of d
        rolled by d; each plane is written with that copy, and every
        coefficient equals its mirror bit for bit, whatever the grid size.
        """
        side = self.model.patch_side
        n_p = side * side
        h, w = self.geometry.height, self.geometry.width
        span = 2 * side - 1
        filters = component_filters(self.model, self.noise_variance)
        if not self.pure_linear:
            # (I - J) F_j (I - J) + J: beta sums to 1, so these weigh up to M_i
            filters = filters - filters.mean(axis=2, keepdims=True)
            filters -= filters.mean(axis=1, keepdims=True) - 1.0 / n_p
        # entries[k, k'] holds entry (k, k') of every M_j / n_p as one K-vector
        entries = np.ascontiguousarray(filters.transpose(1, 2, 0) / n_p)
        beta = self.weights
        data = np.empty((w, h, span, span))
        slab = np.empty((span, w, h))
        for dc in range(side):
            # slab[a] is the plane of displacement (a - s + 1, dc); at dc = 0
            # only the planes a >= s - 1 are built, the others are mirrors
            first = side - 1 if dc == 0 else 0
            slab[first:] = 0.0
            # Offset k = (kr, kc) of the patch anchored at pixel p lands on
            # p + k, and its offsets k' = (kr', kc + dc) on the pixels at
            # displacement (kr' - kr, dc) from there: entries (k, k') weighted
            # by beta at p, rolled by k onto p + k, feed those planes.
            for kc in range(side - dc):
                start = (kc + dc) * side
                for kr in range(side):
                    low = kr if dc == 0 else 0
                    product = entries[kc * side + kr, start + low : start + side] @ beta
                    slab[side - 1 - kr + low : span - kr] += np.roll(
                        product.reshape(-1, w, h), (kc, kr), axis=(1, 2)
                    )
            for a in range(first, span):
                data[:, :, side - 1 + dc, a] = slab[a]
                data[:, :, side - 1 - dc, span - 1 - a] = np.roll(
                    slab[a], (dc, a - side + 1), axis=(0, 1)
                )
        return data

    @cached_property
    def circulant_symbol(self) -> np.ndarray:
        """Eigenvalues of the circulant part of W on the ``(height, width)``
        DFT grid.

        The circulant part is W averaged over every cyclic shift of the grid,
        T. Chan's optimal circulant approximation (SIAM J. Sci. Stat. Comput.
        1988): its coefficient at a displacement is the pixel mean of that
        stencil plane of :attr:`operator`, and displacements that wrap onto
        one pixel add up. W is symmetric PSD, so the symbol is real, even and
        nonnegative up to rounding.
        """
        stencil = self.operator
        h, w = self.geometry.height, self.geometry.width
        offsets = np.arange(stencil.shape[-1]) - stencil.shape[-1] // 2
        kernel = np.zeros((h, w))
        # plane [b, a] holds displacement (a - s + 1, b - s + 1) in (row, column)
        rows, cols = (offsets % h)[None, :], (offsets % w)[:, None]
        np.add.at(kernel, (rows, cols), stencil.mean(axis=(0, 1)))
        return np.fft.fft2(kernel).real


@dataclass(frozen=True)
class ExplicitW:
    """Densely materialized denoiser matrix with its eigendecomposition.

    ``eigenvalues`` are sorted descending; ``basis`` holds the eigenvectors of
    the nonzero eigenvalues (an orthonormal basis of span(W)).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        for name, ndim in (("matrix", 2), ("eigenvalues", 1), ("basis", 2)):
            # W = 0 has an empty basis
            array = as_array(getattr(self, name), name, ndim, empty=name == "basis")
            object.__setattr__(self, name, array)
        n = len(self.eigenvalues)
        if self.matrix.shape != (n, n) or len(self.basis) != n:
            raise DimensionError(f"need an (n, n) matrix and n basis rows, n = {n}")

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
    return _shrinkage(*eigt(covariance)[1:], noise_variance)


def component_filters(model: GmmModel, noise_variance: float) -> np.ndarray:
    """Stack of the K per-component Wiener filters, shape (K, n_p, n_p).

    Built in one batched product from :attr:`GmmModel.spectrum`, so an
    EM-trained model's covariances are not factored again.
    """
    return _shrinkage(*model.spectrum, noise_variance)


def _shrinkage(
    vals: np.ndarray, vecs: np.ndarray, noise_variance: float
) -> np.ndarray:
    """``V diag(v/(v + s2)) V^T`` for one spectrum or a stack of them."""
    if not 0 < noise_variance < np.inf:
        raise ConfigError("wiener filter requires positive, finite noise variance")
    shrink = vals / (vals + noise_variance)
    return (vecs * shrink[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def denoise_image_fixed(
    image_band: np.ndarray, denoiser: LinearDenoiser
) -> np.ndarray:
    """``W @ image_band`` with the frozen training weights.

    Takes one band of n pixels or a ``(k, n)`` stack, denoised row by row.
    """
    require_instance(denoiser, LinearDenoiser, "denoiser")
    bands = as_array(image_band, "image_band", (1, 2))
    geometry = denoiser.geometry
    if bands.shape[-1] != geometry.n:
        raise DimensionError(
            f"bands have shape {bands.shape}, geometry expects {geometry.n} pixels"
        )
    stencil = denoiser.operator
    margin = stencil.shape[-1] // 2
    # pixel c*h + r of the band sits at [c + margin, r + margin], wrapped
    cols = np.arange(-margin, geometry.width + margin) % geometry.width
    rows = np.arange(-margin, geometry.height + margin) % geometry.height
    wrap_pad = np.add.outer(cols * geometry.height, rows)
    out = np.empty_like(bands)
    # one einsum per band: over the whole stack it ran ~2x slower
    for band, row in zip(bands.reshape(-1, geometry.n), out.reshape(-1, geometry.n)):
        windows = sliding_window_view(band[wrap_pad], stencil.shape[-2:])
        row[:] = np.einsum("whba,whba->wh", stencil, windows).reshape(-1)
    return out


def denoise_image_mmse(
    image_band: np.ndarray,
    model: GmmModel,
    noise_variance: float,
    geometry: ImageGeometry,
) -> np.ndarray:
    """Exact-MMSE variant: posterior weights recomputed from the noisy input.

    The E-step posterior of the input's zero-mean patches gives the weights,
    and the practical operator built with them is applied to the input: this
    is the nonlinear denoiser that the fixed-weight one linearizes.
    """
    require_instance(model, GmmModel, "model")
    patch_set = remove_means(extract_patches(image_band, geometry, model.patch_side))
    beta = posterior(patch_set, model, noise_variance)[0]
    denoiser = LinearDenoiser(model, beta, noise_variance, geometry)
    return denoise_image_fixed(image_band, denoiser)


def build_explicit_w(denoiser: LinearDenoiser) -> ExplicitW:
    """The denoiser's ``operator`` made dense, with its eigendecomposition.

    Refuses images above the test-scale cap.
    """
    require_instance(denoiser, LinearDenoiser, "denoiser")
    n = denoiser.geometry.n
    if n > EXPLICIT_W_CAP:
        raise SizeError(f"explicit W capped at n={EXPLICIT_W_CAP}, got n={n}")
    # column j is W e_j: its entries are single stencil coefficients, or the
    # sums of those that wrap onto one pixel, plus exact zeros
    w = denoise_image_fixed(np.eye(n), denoiser).T
    vals, vecs = np.linalg.eigh(w)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    rank = int(np.sum(vals > RANK_RTOL * max(vals[0], 0.0)))
    return ExplicitW(matrix=w, eigenvalues=vals, basis=vecs[:, :rank])


def eval_phi(x: np.ndarray, w: ExplicitW) -> float:
    """The regularizer W is the prox of, at one x of W's size; +inf off span(W)."""
    require_instance(w, ExplicitW, "w")
    x = as_array(x, "x", 1)
    if x.shape != (w.matrix.shape[0],):
        raise DimensionError(f"x has shape {x.shape}, W is {w.matrix.shape}")
    coeffs = w.basis.T @ x
    residual = x - w.basis @ coeffs
    norm = np.linalg.norm(x)
    if np.linalg.norm(residual) > SUBSPACE_RTOL * norm:
        return float("inf")
    return float(0.5 * np.sum(_phi_weights(w) * coeffs**2))


def _phi_weights(w: ExplicitW) -> np.ndarray:
    """phi's weight ``1/lambda - 1`` on each span(W) coordinate.

    Clipped at 0: the constant image's eigenvalue 1 can round to 1 + 2.2e-16.
    """
    return np.maximum(1.0 / w.nonzero_eigenvalues - 1.0, 0.0)


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

    def __post_init__(self):
        # a non-finite target is refused by solve_fixed_point (DivergenceError)
        target = as_array(self.target, "target", 1, finite=False)
        object.__setattr__(self, "target", target)

    def _check_regularizer(self, reg_weight: float, w: ExplicitW | None) -> None:
        """Refuse a bad weight, a positive one without W, or a W that is not an
        :class:`ExplicitW` or is of another size."""
        if not 0 <= reg_weight < np.inf:  # written so that NaN fails it
            raise ConfigError(f"reg_weight must be >= 0 and finite, got {reg_weight}")
        if reg_weight > 0 and w is None:
            raise ConfigError("reg_weight > 0 needs an explicit W to evaluate phi")
        if w is not None:
            require_instance(w, ExplicitW, "w")
            if w.matrix.shape[0] != self.shape[-1]:
                raise DimensionError(f"W is {w.matrix.shape}, x has shape {self.shape}")

    def objective(
        self, x: np.ndarray, reg_weight: float, w: ExplicitW | None = None
    ) -> float:
        """Data fit at x plus ``reg_weight * phi`` on each row; +inf off span(W)."""
        if np.shape(x) != self.shape:
            raise DimensionError(f"x has shape {np.shape(x)}, not {self.shape}")
        self._check_regularizer(reg_weight, w)
        val = 0.5 * float(np.sum((self.apply(x) - self.target) ** 2))
        if reg_weight > 0:
            val += reg_weight * sum(eval_phi(row, w) for row in np.atleast_2d(x))
        return val

    def minimizer(self, reg_weight: float, w: ExplicitW | None = None) -> np.ndarray:
        """Dense least-squares minimizer of :meth:`objective` (test scale only).

        Each row of x is written as ``Q z`` and the stacked problem
        ``[A Q; diag(sqrt(reg_weight (1/lambda - 1)))] z ~ [target; 0]`` is
        solved by ``lstsq``: Q spans span(W) when ``reg_weight > 0`` and is
        the identity otherwise, where the minimum-norm minimizer is returned.
        """
        self._check_regularizer(reg_weight, w)
        unknowns = int(np.prod(self.shape))
        if unknowns > EXPLICIT_W_CAP:
            raise SizeError(
                f"dense minimizer capped at {EXPLICIT_W_CAP} unknowns, got {unknowns}"
            )
        n_rows, n = (1, *self.shape) if len(self.shape) == 1 else self.shape
        if reg_weight > 0:
            q = w.basis
            penalty = np.sqrt(reg_weight * _phi_weights(w))
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


def expansiveness_demo(
    small_variance: float,
    large_variance: float,
    noise_variance: float,
    alphas: tuple[float, float] = (0.5, 0.5),
) -> ExpansivenessTable:
    """Univariate two-component demo of MMSE expansiveness.

    The exact MMSE estimate under a zero-mean two-component scalar mixture has
    finite-difference slope above 1 in the transition region between the
    components, while the fixed-weight linearization is a convex combination
    of shrinkages and stays strictly below slope 1. Both curves are sampled
    on ``y`` from -3 to 3 in steps of 1e-4. The posterior weights come from
    the pipelines' E-step, :func:`~pnpfusion.gmm.posterior` on one-pixel
    patches, which refuses a negative or non-finite ``noise_variance``;
    the model refuses ``alphas`` that are negative or do not sum to 1.
    """
    if not 0 < small_variance < large_variance < np.inf:
        raise ConfigError("need 0 < small_variance < large_variance < inf")
    variances = np.array([small_variance, large_variance])
    model = GmmModel(alphas=alphas, covariances=variances[:, None, None], patch_side=1)
    grid = np.arange(-3.0, 3.0 + 1e-12, 1e-4)
    pixels = PatchSet(grid[:, None], 1, ImageGeometry(grid.size, 1))
    beta = posterior(pixels, model, noise_variance)[0]
    shrink = variances / (variances + noise_variance)
    mmse = (beta * shrink[:, None]).sum(axis=0) * grid
    fixed = float(model.alphas @ shrink) * grid
    dy = np.diff(grid)
    return ExpansivenessTable(
        y=grid,
        mmse=mmse,
        fixed=fixed,
        max_slope_mmse=float(np.max(np.diff(mmse) / dy)),
        max_slope_fixed=float(np.max(np.diff(fixed) / dy)),
    )
