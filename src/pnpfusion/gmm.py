"""Zero-mean Gaussian mixture over patches, trained from noisy patches.

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
  covariance again. A model built any other way computes its spectrum once,
  with one batched ``eigh``.
* The E-step, :func:`posterior`, returns beta as a plain (K, N) array and is
  rank-restricted. With ``v = max(lambda+ + sigma^2, floor)`` and
  ``s_j = max(sigma^2, floor)``, the variance of every direction whose
  ``v`` equals ``s_j``, the Mahalanobis term of component j is

      ||y||^2 / s_j - sum_{r kept} p_r^2 (1/s_j - 1/v_r),  p = V^T y,

  summed only over the kept directions ``v_r != s_j``; after an M-step most
  components keep well under n_p of them. The first term cancels against
  the sum, losing about ``log10(max v / s_j)`` digits, which is ruinous when
  ``s_j`` is the eigenvalue floor (``sigma^2 = 0``). A component whose
  ratio exceeds ``_COMPLEMENT_MAX_RATIO`` therefore keeps all n_p
  directions and uses the plain ``sum_r p_r^2 / v_r``. Every component's
  kept directions, scaled by the square root of their weights, form one
  basis, so one ``patches @ basis`` product per chunk of patches serves all
  components, and a signed block sum of its squares gives the (N, K) terms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError, require_counts
from .patches import PatchSet

log = logging.getLogger(__name__)

# Relative floor applied to eigenvalues of (C_j + sigma^2 I) when the matrix
# is numerically singular (sigma^2 = 0 with rank-deficient C_j).
_EIG_FLOOR = 1e-12

# Largest max(v)/s_j for which the E-step uses the rank-restricted form; it
# bounds the digits lost to cancellation at log10 of this ratio. The
# benchmark scenes stay below 2e3.
_COMPLEMENT_MAX_RATIO = 1e6

# Patches per chunk, both for the E-step's (c, kept directions) projections
# and for the M-step's (c, K, n_p) weighted copy. Larger chunks raise peak
# memory without running faster.
_CHUNK = 256


@dataclass(frozen=True)
class GmmModel:
    """Zero-mean mixture: weights ``alphas`` and one covariance per component."""

    alphas: np.ndarray  # (K,)
    covariances: np.ndarray  # (K, n_p, n_p)
    patch_side: int

    @property
    def n_components(self) -> int:
        return self.alphas.shape[0]

    @property
    def patch_dim(self) -> int:
        return self.covariances.shape[1]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Clipped eigenvalues (K, n_p) and eigenvectors (K, n_p, n_p).

        EM models carry the factorisation their projection made; any other
        model computes it here, once.
        """
        vals, vecs = np.linalg.eigh(self.covariances)
        return np.maximum(vals, 0.0), vecs


def _projected_model(
    alphas: np.ndarray, moments: np.ndarray, patch_side: int
) -> GmmModel:
    """Model whose covariances are ``eigt(moments)``, carrying that spectrum."""
    covariances, vals, vecs = eigt(moments)
    model = GmmModel(alphas=alphas, covariances=covariances, patch_side=patch_side)
    model.__dict__["spectrum"] = (vals, vecs)  # fills the cached property
    return model


@dataclass(frozen=True)
class EmConfig:
    """EM controls: component count, iteration budget, tolerance, noise level."""

    n_components: int
    noise_variance: float
    max_iters: int = 100
    loglik_rel_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        # each check is written so that NaN fails it
        require_counts(self, {"n_components": 1, "max_iters": 1, "seed": 0})
        if not 0 < self.loglik_rel_tol < np.inf:
            raise ConfigError("loglik_rel_tol must be positive and finite")
        if not 0 <= self.noise_variance < np.inf:
            raise ConfigError("noise_variance must be nonnegative and finite")


def eigt(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project a (symmetrized) matrix, or each of a stack, onto the PSD cone
    by zeroing negative eigenvalues.

    Returns the projection together with the clipped eigenvalues and the
    eigenvectors it was built from.
    """
    sym = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, 0.0)
    out = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    return out, vals, vecs


def _component_log_densities(
    patches: PatchSet, model: GmmModel, noise_variance: float
) -> np.ndarray:
    """log alpha_j + log N(y_i; 0, C_j + sigma^2 I), shape (K, N)."""
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
    plain = top > _COMPLEMENT_MAX_RATIO * rest
    # per direction: its weight in the block sum, and whether it is kept
    kept = plain[:, None] | (var != rest[:, None])
    weight = np.where(plain[:, None], 1.0 / var, 1.0 / rest[:, None] - 1.0 / var)
    owner, column = np.nonzero(kept)
    basis = vecs[owner, :, column].T * np.sqrt(weight[owner, column])
    signed = np.zeros((owner.size, model.n_components))
    signed[np.arange(owner.size), owner] = np.where(plain[owner], 1.0, -1.0)
    norm_weight = np.where(plain, 0.0, 1.0 / rest)
    offset = np.log(model.alphas) - 0.5 * (
        n_p * np.log(2.0 * np.pi) + np.log(var).sum(axis=1)
    )
    out = np.empty((model.n_components, n))
    proj = np.empty((min(n, _CHUNK), owner.size))
    for start in range(0, n, _CHUNK):
        y = y_all[start : start + _CHUNK]
        p = np.matmul(y, basis, out=proj[: y.shape[0]])
        np.square(p, out=p)
        maha = p @ signed
        maha += norms[start : start + y.shape[0], None] * norm_weight
        out[:, start : start + y.shape[0]] = (offset - 0.5 * maha).T
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
    and each patch's log density (N,), which sum to the log-likelihood."""
    logdens = _component_log_densities(patches, model, noise_variance)
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
    """
    y = patches.patches
    n, n_p = y.shape
    k = beta.shape[0]
    largest = np.argmax(beta @ patches.squared_norms)
    others = np.delete(np.arange(k), largest)
    acc = np.zeros((n_p, (k - 1) * n_p))
    weighted = np.empty((min(n, _CHUNK), k - 1, n_p))
    for start in range(0, n, _CHUNK):
        chunk = y[start : start + _CHUNK]
        c = chunk.shape[0]
        # weighted[i, j] = beta_ji y_i, so column block j of the product is
        # M_j; einsum writes it twice as fast as a broadcast np.multiply
        z = np.einsum(
            "ij,ik->ijk", beta[others, start : start + c].T, chunk, out=weighted[:c]
        )
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
    """
    y = patches.patches
    n, n_p = y.shape
    if beta.shape[1] != n:
        raise DimensionError(
            f"weights cover {beta.shape[1]} patches, patch set has {n}"
        )
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
    alphas = alphas / alphas.sum()
    return _projected_model(alphas, moments, patches.patch_side)


def _init_model(patches: PatchSet, config: EmConfig) -> GmmModel:
    """Seeded k-means++-style initialization on norm-whitened patches."""
    y = patches.patches
    n, n_p = y.shape
    rng = np.random.default_rng(config.seed)
    whitened = y / np.maximum(np.sqrt(patches.squared_norms), 1e-12)[:, None]
    k = config.n_components
    centers = np.empty((k, n_p))
    centers[0] = whitened[rng.integers(n)]
    dist2 = np.full(n, np.inf)
    for j in range(1, k):
        for start in range(0, n, _CHUNK):
            rows = slice(start, start + _CHUNK)
            diff = whitened[rows] - centers[j - 1]
            dist2[rows] = np.minimum(dist2[rows], np.einsum("ij,ij->i", diff, diff))
        total = dist2.sum()
        if total <= 0:
            centers[j] = whitened[rng.integers(n)]
            continue
        centers[j] = whitened[rng.choice(n, p=dist2 / total)]
    # hard-assign and build per-cluster second moments of the raw patches,
    # a chunk of patches and one centre at a time: the (N, K, n_p) difference
    # array would take 94 MB for a 96x96 band with K=20 and 8x8 patches
    labels = np.empty(n, dtype=np.intp)
    for start in range(0, n, _CHUNK):
        chunk = whitened[start : start + _CHUNK]
        d2 = np.stack([((chunk - c) ** 2).sum(axis=1) for c in centers], axis=1)
        labels[start : start + _CHUNK] = d2.argmin(axis=1)
    alphas = np.empty(k)
    moments = np.empty((k, n_p, n_p))
    ridge = 1e-6 * np.eye(n_p)
    for j in range(k):
        members = y[labels == j]
        alphas[j] = max(members.shape[0], 1)
        if members.shape[0] == 0:
            members = y[rng.integers(n)][None, :]
        second_moment = members.T @ members / members.shape[0]
        moments[j] = (
            second_moment + (np.trace(second_moment) / n_p) * ridge + 1e-12 * np.eye(n_p)
        )
    alphas = alphas / alphas.sum()
    return _projected_model(alphas, moments, patches.patch_side)


def train_em(
    patches: PatchSet, config: EmConfig
) -> tuple[GmmModel, np.ndarray, list[float]]:
    """Alternate E/M steps until the log-likelihood stalls or the budget ends.

    Runs up to ``max_iters`` M-steps, each after an E-step, and one E-step
    after the last of them. Returns the final model, its responsibilities
    beta (K, N) from :func:`posterior`, and the log-likelihood of every
    E-step's model, so the trace ends with the returned model's.
    Deterministic given the seed.
    """
    if patches.count < config.n_components:
        raise ConfigError(
            f"need at least K={config.n_components} patches, got {patches.count}"
        )
    if not np.all(np.isfinite(patches.patches)):
        raise ConfigError("patches must be finite")
    model = _init_model(patches, config)
    sigma2, tol = config.noise_variance, config.loglik_rel_tol
    trace: list[float] = []
    for m_steps in range(config.max_iters + 1):
        beta, col_logsum = posterior(patches, model, sigma2)
        ll = float(col_logsum.sum())
        stalled = bool(trace) and abs(ll - trace[-1]) <= tol * abs(trace[-1])
        trace.append(ll)
        if stalled or m_steps == config.max_iters:
            return model, beta, trace
        model = m_step(patches, beta, sigma2)
