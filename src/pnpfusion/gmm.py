"""Zero-mean Gaussian mixture over patches, trained from noisy patches.

A :class:`GmmModel` takes its patch side from its covariances' width.

EM here is the noisy-patch variant: observed patches are modelled as
``y = x + noise`` with known noise variance, so the covariance M-step
subtracts the noise variance and projects back onto the PSD cone by
eigenvalue thresholding. All likelihood work is done in the log domain.

Each EM iteration works on all K components at once:

* The M-step forms K - 1 of the second moments ``sum_i beta_ji y_i y_i^T``
  with one ``(n_p x c) @ (c x (K-1) n_p)`` product per chunk of c patches;
  the component with the largest energy is the Gram matrix ``Y^T Y`` minus
  the others. The patch set computes its Gram matrix and squared norms once
  for the whole EM run. One :func:`eigt` call projects the whole
  ``(K, n_p, n_p)`` stack, and the model keeps that factorisation as
  :attr:`GmmModel.spectrum`, the clipped eigenvalues ``lambda+`` and
  eigenvectors V, so neither the E-step nor the Wiener filters factor a
  covariance again. EM's first model is an M-step's too, at ``sigma^2 = 0``
  on seeded k-means++ labels of the norm-whitened patches. A model built any
  other way computes its spectrum once, with one batched ``eigh``.
* The E-step, :func:`posterior`, returns beta as a plain (K, N) array and is
  rank-restricted. With ``v = max(lambda+ + sigma^2, floor)`` and
  ``s_j = max(sigma^2, floor)``, the variance of every direction whose
  ``v`` equals ``s_j``, the Mahalanobis term of component j is

      ||y||^2 / s_j - sum_{r kept} p_r^2 (1/s_j - 1/v_r),  p = V^T y,

  summed only over the kept directions ``v_r != s_j``; after an M-step most
  components keep well under n_p of them. The first term cancels against
  the sum, losing about ``log10(max v / s_j)`` digits: all of them when
  ``s_j`` is the eigenvalue floor (``sigma^2 = 0``), and most of float32's
  7 at 1e4. So one rule picks each component's form: a component whose
  ratio exceeds ``_RESTRICTED_MAX_RATIO`` = 1e4 keeps all n_p directions
  and uses the plain ``sum_r p_r^2 / v_r``; every other component is
  rank-restricted. An E-step with a plain component runs wholly on the
  float64 rows, in every phase of :func:`train_em`. Over benchmark seeds
  1-12 the largest ratio is 6.29e3 on ``hs-sharpen``, 115 on
  ``pair-iterate`` and 198 on ``pair-train`` (seeds 1-6). Every
  component's kept directions, scaled by the square root of their weights,
  form one basis, so one ``patches @ basis`` product per chunk of patches
  serves all components, and a signed block sum of its squares gives the
  (N, K) terms.

:func:`train_em` runs its early iterations with float32 GEMMs and finishes
in float64, as mixed-precision iterative refinement does (Higham, *Accuracy
and Stability of Numerical Algorithms*, ch. 12; Haidar et al., SC 2018):

* The float32 phase holds one float32 copy of the patch rows, which shares
  the float64 set's squared norms and Gram matrix. Given that copy,
  :func:`m_step` forms its weighted rows and its GEMM in float32 and adds
  each chunk's product into float64 moments. Responsibilities decay like
  ``exp(-Mahalanobis / 2)``, so in float32 some of them, and more of their
  products with the rows, are subnormal (Higham, ch. 2), and some CPUs
  multiply subnormals many times slower: on an Intel Xeon, at
  ``pair-train`` shape, 1.4 % subnormal responsibilities made one M-step's
  float32 moments take 53 ms, against 40 ms in float64. So the M-step sets
  every float32 responsibility below ``_F32_FLUSH`` = 1e-30 to 0 first,
  which takes those moments to 24 ms. A flushed term is at most
  ``1e-30 ||y_i||^2``, while a component that :func:`m_step` keeps has
  total responsibility above 1e-12, so the term lies below float32's
  rounding of the moment it joins. When every component is
  rank-restricted, as on every benchmark workload, the E-step projects the
  float32 rows onto a float32 copy of the basis and sums each component's
  squares in float64, since that sum is the one that cancels; with a
  plain component it stays in float64. The float32 projections are not
  flushed: none of them, and none of their squares, was subnormal in the
  48 float32 E-steps of ``pair-train`` at seed 11. The log-sum-exp, the
  Gram subtraction, :func:`eigt` and every model stay float64.
* Finish: the last ``_F64_FINISH`` M-steps of the budget, and every E-step
  from the first of them on, run wholly in float64. A stall seen on a
  float32 E-step is checked again by a float64 E-step of the same model,
  whose value enters the trace; if the stall does not hold there, EM goes
  on in float64. So the returned model, beta and last trace entry are
  float64 :func:`posterior`'s, and :func:`posterior` and :func:`m_step` on
  float64 patch sets are the float64 functions they always were.

Known limit: with ``sigma^2 = 0`` on an ill-conditioned full-rank
covariance the plain form divides by eigenvalues that carry an absolute
error of about eps times the largest, so it matches a dense ``inv`` and
``slogdet`` to a relative 1e-10 only below a condition number of about
1e5 (1.5e-10 at 2.2e6, where the dense form is 1.7e-12 off).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError, DimensionError, as_array, require_count, require_instance,
    require_real,
)
from .patches import PatchSet, check_finite_patches

log = logging.getLogger(__name__)

# Relative floor applied to eigenvalues of (C_j + sigma^2 I) when the matrix
# is numerically singular (sigma^2 = 0 with rank-deficient C_j).
_EIG_FLOOR = 1e-12

# Largest max(v)/s_j for which the E-step uses the rank-restricted form,
# losing about log10 of it to cancellation; a larger ratio uses the plain
# form, and an E-step with such a component projects only float64 rows.
_RESTRICTED_MAX_RATIO = 1e4

# Patches per chunk, both for the E-step's (c, kept directions) projections
# and for the M-step's (c, K, n_p) weighted copy. Larger chunks raise peak
# memory without running faster.
_CHUNK = 256

# M-steps at the end of train_em's budget that run wholly in float64.
_F64_FINISH = 2

# Float32 responsibilities below this are set to 0 before the M-step's
# float32 product, so that neither they nor their products with the patch
# rows are subnormal.
_F32_FLUSH = 1e-30

# Largest distance from 1 of a column sum of responsibilities, or of the sum
# of a model's weights, that is accepted.
SIMPLEX_ATOL = 1e-9


@dataclass(frozen=True)
class GmmModel:
    """Zero-mean mixture: weights ``alphas`` and one covariance per component."""

    alphas: np.ndarray  # (K,)
    covariances: np.ndarray  # (K, n_p, n_p)

    def __post_init__(self):
        if np.size(self.alphas) == 0:
            raise ConfigError("a mixture needs at least one component")
        for name, ndim in (("alphas", 1), ("covariances", 3)):
            object.__setattr__(self, name, as_array(getattr(self, name), name, ndim))
        k, n_p = self.alphas.shape, self.covariances.shape[-1]
        if self.covariances.shape != (*k, n_p, n_p) or self.patch_side**2 != n_p:
            raise DimensionError("need alphas (K,) and covariances (K, s*s, s*s)")
        a = self.alphas
        if not (np.all(a >= 0) and abs(a.sum() - 1) <= SIMPLEX_ATOL):
            raise ConfigError(f"mixture weights must be >= 0 and sum to 1: {a}")

    @property
    def n_components(self) -> int:
        return self.alphas.shape[0]

    @property
    def patch_dim(self) -> int:
        return self.covariances.shape[1]

    @property
    def patch_side(self) -> int:
        return math.isqrt(self.patch_dim)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Clipped eigenvalues (K, n_p) and eigenvectors (K, n_p, n_p).

        EM models carry the factorisation their projection made; any other
        model computes it here, once.
        """
        vals, vecs = np.linalg.eigh(self.covariances)
        return np.maximum(vals, 0.0), vecs


@dataclass(frozen=True)
class EmConfig:
    """EM controls: component count, iteration budget, tolerance, noise level."""

    n_components: int
    noise_variance: float
    max_iters: int = 100
    loglik_rel_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_components", 1), ("max_iters", 1), ("seed", 0)):
            require_count(getattr(self, name), name, minimum)
        require_real(self.loglik_rel_tol, "loglik_rel_tol", strict=True)
        require_real(self.noise_variance, "noise_variance")


def checked_responsibilities(
    beta, n_patches: int, n_components=None, name: str = "beta"
) -> np.ndarray:
    """``beta`` as a float (K, n_patches) array, K = ``n_components`` if given,
    whose columns lie on the simplex within :data:`SIMPLEX_ATOL`; an error
    names it ``name``, the caller's argument. A float array is not copied."""
    beta = as_array(beta, name, 2, finite=False)
    if beta.shape != (n_components or beta.shape[0], n_patches):
        raise DimensionError(f"{name} has shape {beta.shape}, need (K, {n_patches})")
    # NaN and inf fail the tests, and together they bound every entry by 1 + atol
    if not (abs(beta.sum(axis=0) - 1).max() <= SIMPLEX_ATOL and beta.min() >= 0):
        raise ConfigError(f"{name} must be >= 0, column sums within {SIMPLEX_ATOL} of 1")
    return beta


def eigt(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project a (symmetrized) matrix, or each of a stack, onto the PSD cone
    by zeroing negative eigenvalues.

    Returns the projection together with the clipped eigenvalues and the
    eigenvectors it was built from.
    """
    matrix = as_array(matrix, "matrix", range(2, 33))
    if matrix.shape[-1] != matrix.shape[-2]:
        raise DimensionError(f"eigt needs square matrices, got {matrix.shape}")
    sym = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, 0.0)
    out = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    return out, vals, vecs


def _component_log_densities(
    patches: PatchSet, model: GmmModel, noise_variance: float, rows32=None
) -> np.ndarray:
    """log alpha_j + log N(y_i; 0, C_j + sigma^2 I), shape (K, N).

    ``rows32``, the patch rows in float32, moves the projections to float32
    when every component is rank-restricted; with a plain component they
    stay on the float64 rows.
    """
    y_all, norms = patches.patches, patches.squared_norms
    n, n_p = y_all.shape
    if model.patch_dim != n_p:
        raise DimensionError(
            f"model patch dim {model.patch_dim} != patch dim {n_p}"
        )
    lam, vecs = model.spectrum
    noisy = lam + noise_variance
    top = noisy.max(axis=1)
    floor = _EIG_FLOOR * np.maximum(top, 1.0)
    for j in np.flatnonzero(noisy.min(axis=1) < floor):
        log.warning(
            "component %d: singular noisy covariance, flooring eigenvalues", j
        )
    var = np.maximum(noisy, floor[:, None])
    rest = np.maximum(noise_variance, floor)  # s_j
    plain = top > _RESTRICTED_MAX_RATIO * rest
    # per direction: its weight in the block sum, and whether it is kept
    kept = plain[:, None] | (var != rest[:, None])
    weight = np.where(plain[:, None], 1.0 / var, 1.0 / rest[:, None] - 1.0 / var)
    owner, column = np.nonzero(kept)
    basis = vecs[owner, :, column].T * np.sqrt(weight[owner, column])
    signed = np.zeros((owner.size, model.n_components))
    signed[np.arange(owner.size), owner] = np.where(plain[owner], 1.0, -1.0)
    rows = y_all
    if rows32 is not None and not plain.any():
        # the float32 squares are summed in float64 by the block-sum product,
        # because that sum cancels against ||y||^2 / s_j
        rows, basis = rows32, basis.astype(np.float32)
    norm_weight = np.where(plain, 0.0, 1.0 / rest)
    with np.errstate(divide="ignore"):  # a zero weight's log is -inf: beta 0
        log_alphas = np.log(model.alphas)
    offset = log_alphas - 0.5 * (
        n_p * np.log(2.0 * np.pi) + np.log(var).sum(axis=1)
    )
    out = np.empty((model.n_components, n))
    proj = np.empty((min(n, _CHUNK), basis.shape[1]), basis.dtype)
    for start in range(0, n, _CHUNK):
        c = min(_CHUNK, n - start)
        p = np.matmul(rows[start : start + c], basis, out=proj[:c])
        np.square(p, out=p)
        maha = norms[start : start + c, None] * norm_weight + p @ signed
        out[:, start : start + c] = (offset - 0.5 * maha).T
    return out


def _logsumexp(logdens: np.ndarray) -> np.ndarray:
    """``log(sum(exp(logdens), axis=0))``, shifted by each column's maximum."""
    peak = logdens.max(axis=0)
    peak[~np.isfinite(peak)] = 0.0  # an all -inf column sums to -inf, not NaN
    with np.errstate(divide="ignore"):
        return peak + np.log(np.exp(logdens - peak).sum(axis=0))


def posterior(
    patches: PatchSet, model: GmmModel, noise_variance: float
) -> tuple[np.ndarray, np.ndarray]:
    """The E-step: responsibilities beta (K, N), one simplex column per patch,
    and each patch's log density (N,), which sum to the log-likelihood.
    Refuses non-finite patches (:func:`check_finite_patches`)."""
    require_real(noise_variance, "noise_variance")
    check_finite_patches(patches)
    require_instance(model, GmmModel, "model")
    return _normalized(_component_log_densities(patches, model, noise_variance))


def _normalized(logdens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and per-patch log densities from (K, N) log densities,
    which are overwritten."""
    col_logsum = _logsumexp(logdens)
    logdens -= col_logsum
    return np.exp(logdens, out=logdens), col_logsum


def _weighted_second_moments(patches: PatchSet, beta: np.ndarray) -> np.ndarray:
    """``sum_i beta_ji y_i y_i^T`` for every component j, shape (K, n_p, n_p).

    The columns of beta sum to 1, so the moments sum to the Gram matrix
    ``Y^T Y``: the component with the largest energy
    ``sum_i beta_ji ||y_i||^2`` is that matrix minus the other K - 1, which
    one GEMM per chunk of patches forms. That component holds at least 1/K
    of the total energy, so the subtraction costs it about K eps relative.

    On a float32 patch set the GEMM runs in float32, and each chunk's float32
    copy of beta has its entries below ``_F32_FLUSH`` set to 0 first, so
    that no operand of the einsum or the GEMM is subnormal. A flushed term
    lies below float32's rounding of the moment it joins (module notes);
    float64 input is never flushed.
    """
    y = patches.patches
    n, n_p = y.shape
    k = beta.shape[0]
    largest = np.argmax(beta @ patches.squared_norms)
    others = np.delete(np.arange(k), largest)
    acc = np.zeros((n_p, (k - 1) * n_p))
    weighted = np.empty((min(n, _CHUNK), k - 1, n_p), y.dtype)
    for start in range(0, n, _CHUNK):
        chunk = y[start : start + _CHUNK]
        c = chunk.shape[0]
        b = beta[others, start : start + c].T.astype(y.dtype, copy=False)
        if y.dtype == np.float32:
            b[b < _F32_FLUSH] = 0.0  # b is this chunk's own copy
        # weighted[i, j] = beta_ji y_i, so column block j of the product is
        # M_j; einsum writes it twice as fast as a broadcast np.multiply
        z = np.einsum("ij,ik->ijk", b, chunk, out=weighted[:c])
        acc += chunk.T @ z.reshape(c, (k - 1) * n_p)
    moments = np.empty((k, n_p, n_p))
    moments[others] = acc.reshape(n_p, k - 1, n_p).transpose(1, 0, 2)
    moments[largest] = patches.gram - moments[others].sum(axis=0)
    return moments


def m_step(
    patches: PatchSet, beta: np.ndarray, noise_variance: float
) -> GmmModel:
    """Update mixture weights and noise-compensated covariances.

    ``C_j`` is the PSD projection (:func:`eigt`) of
    ``sum_i beta_ji y_i y_i^T / sum_i beta_ji - sigma^2 I``; all K are
    projected in one call, and the model carries that factorisation.
    A component whose total responsibility collapses is re-seeded from the
    patch the mixture currently claims least confidently, never dropped.
    A float32 patch set, as :func:`train_em` passes in its float32 phase,
    forms the moments with float32 products added up in float64. At
    ``noise_variance`` 0 on one-hot beta it also forms EM's first model.
    Refuses non-finite patches (:func:`check_finite_patches`).
    """
    require_real(noise_variance, "noise_variance")
    check_finite_patches(patches)
    y = patches.patches
    n, n_p = y.shape
    beta = checked_responsibilities(beta, n)
    totals = beta.sum(axis=1)
    alphas = totals / totals.sum()
    dead = totals < 1e-12
    moments = _weighted_second_moments(patches, beta)
    moments[~dead] /= totals[~dead, None, None]
    if np.any(dead):
        # least-claimed patch: smallest max responsibility, largest norm on ties
        confidence = beta.max(axis=0)
        worst = int(np.lexsort((-patches.squared_norms, confidence))[0])
        log.warning(
            "reinitializing %d empty component(s) from patch %d",
            int(dead.sum()),
            worst,
        )
        seed_moment = np.outer(y[worst], y[worst])
        seed_moment += (np.trace(seed_moment) / n_p * 1e-6 + 1e-12) * np.eye(n_p)
        moments[dead] = seed_moment
        alphas[dead] = 1.0 / max(n, 1)
    moments -= noise_variance * np.eye(n_p)
    covariances, vals, vecs = eigt(moments)
    model = GmmModel(alphas / alphas.sum(), covariances)
    model.__dict__["spectrum"] = (vals, vecs)  # fills the cached property
    return model


def _init_responsibilities(patches: PatchSet, config: EmConfig) -> np.ndarray:
    """One-hot (K, N) responsibilities from a seeded k-means++ pass on the
    norm-whitened patches.

    Each centre c costs one GEMV, ``d^2 = ||w||^2 + ||c||^2 - 2 W c``. For a
    row that whitens to within rounding of c, such as a multiple of c's own
    patch, that sum can round below 0, which ``rng.choice`` refuses as a
    probability; so it is clipped at 0.
    """
    n = patches.count
    rng = np.random.default_rng(config.seed)
    w = patches.patches / np.maximum(np.sqrt(patches.squared_norms), 1e-12)[:, None]
    norms = np.einsum("ij,ij->i", w, w)
    # each patch's squared distance to its nearest centre so far, and that
    # centre's label; a tie keeps the lower label, as argmin does. The first
    # centre, against infinite distances, is drawn uniformly and labels all
    dist2 = np.full(n, np.inf)
    labels = np.empty(n, dtype=np.intp)
    for j in range(config.n_components):
        total = dist2.sum()
        weighted = np.isfinite(total) and total > 0
        pick = rng.choice(n, p=dist2 / total) if weighted else rng.integers(n)
        c = w[pick]
        d2 = np.maximum(norms + c @ c - 2.0 * (w @ c), 0.0)
        labels[d2 < dist2] = j
        np.minimum(dist2, d2, out=dist2)
    return (labels == np.arange(config.n_components)[:, None]).astype(float)


def _float32_patches(patches: PatchSet) -> PatchSet:
    """The patch rows in float32, sharing the float64 set's squared norms and
    Gram matrix, so that :func:`m_step` runs its GEMM in float32. The rows
    are set after construction, which would make them float64 again."""
    low = replace(patches)
    object.__setattr__(low, "patches", patches.patches.astype(np.float32))
    low.__dict__["squared_norms"] = patches.squared_norms  # fills the cache
    low.__dict__["gram"] = patches.gram
    return low


def train_em(
    patches: PatchSet, config: EmConfig
) -> tuple[GmmModel, np.ndarray, list[float]]:
    """Alternate E/M steps until the log-likelihood stalls or the budget ends.

    Runs up to ``max_iters`` M-steps, each after an E-step, and one E-step
    after the last of them. Returns the final model, its responsibilities
    beta (K, N) from :func:`posterior`, and the log-likelihood of every
    E-step's model, so the trace ends with the returned model's.
    Deterministic given the seed. The initial model is :func:`m_step` at
    ``sigma^2 = 0`` on the k-means++ hard assignment, on the float32 rows when
    the budget has a float32 phase, as every early M-step is.

    The early E- and M-steps run their GEMMs in float32, guarded against
    cancellation; the last ``_F64_FINISH`` M-steps of the budget and the
    E-steps from the first of them on run in float64, and a stall seen in
    float32 is checked again in float64 (see the module notes). So the
    returned model, beta and last trace entry are float64
    :func:`posterior`'s, and a budget of at most ``_F64_FINISH`` runs
    wholly in float64.
    """
    check_finite_patches(patches)
    require_instance(config, EmConfig, "config")
    if patches.count < config.n_components:
        raise ConfigError(
            f"need at least K={config.n_components} patches, got {patches.count}"
        )
    sigma2, tol, budget = config.noise_variance, config.loglik_rel_tol, config.max_iters
    low = _float32_patches(patches) if budget > _F64_FINISH else None
    beta = _init_responsibilities(patches, config)
    model = m_step(patches if low is None else low, beta, 0.0)
    trace: list[float] = []
    for m_steps in range(budget + 1):
        if m_steps == budget - _F64_FINISH:
            low = None  # the float64 finish; frees the float32 copy
        rows32 = None if low is None else low.patches
        beta, col_logsum = _normalized(
            _component_log_densities(patches, model, sigma2, rows32)
        )
        ll = float(col_logsum.sum())
        stalled = bool(trace) and abs(ll - trace[-1]) <= tol * abs(trace[-1])
        if stalled and low is not None:
            low = rows32 = None
            beta, col_logsum = posterior(patches, model, sigma2)
            ll = float(col_logsum.sum())
            stalled = abs(ll - trace[-1]) <= tol * abs(trace[-1])
        trace.append(ll)
        if stalled or m_steps == budget:
            return model, beta, trace
        model = m_step(patches if low is None else low, beta, sigma2)
