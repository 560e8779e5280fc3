"""Zero-mean Gaussian mixture over patches, trained from noisy patches.

EM here is the noisy-patch variant: observed patches are modelled as
``y = x + noise`` with known noise variance, so the covariance M-step
subtracts the noise variance and projects back onto the PSD cone by
eigenvalue thresholding. All likelihood work is done in the log domain.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, DimensionError
from .patches import PatchSet

log = logging.getLogger(__name__)

# Relative floor applied to eigenvalues of (C_j + sigma^2 I) when the matrix
# is numerically singular (sigma^2 = 0 with rank-deficient C_j).
_EIG_FLOOR = 1e-12


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


@dataclass(frozen=True)
class PatchWeights:
    """Per-patch posterior component weights, columns on the simplex."""

    beta: np.ndarray  # (K, N)

    @property
    def n_components(self) -> int:
        return self.beta.shape[0]

    @property
    def count(self) -> int:
        return self.beta.shape[1]


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
        if not self.n_components >= 1:
            raise ConfigError(f"n_components must be >= 1, got {self.n_components}")
        if not self.max_iters >= 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.loglik_rel_tol > 0:
            raise ConfigError("loglik_rel_tol must be positive")
        if not self.noise_variance >= 0:
            raise ConfigError("noise_variance must be nonnegative")


def eigt(matrix: np.ndarray) -> np.ndarray:
    """Project a (symmetrized) matrix onto the PSD cone by zeroing negative
    eigenvalues."""
    sym = 0.5 * (matrix + matrix.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, 0.0)
    out = (vecs * vals) @ vecs.T
    return 0.5 * (out + out.T)


def _component_log_densities(
    patches: np.ndarray, model: GmmModel, noise_variance: float
) -> np.ndarray:
    """log alpha_j + log N(y_i; 0, C_j + sigma^2 I), shape (K, N)."""
    n_p = patches.shape[1]
    if model.patch_dim != n_p:
        raise DimensionError(
            f"model patch dim {model.patch_dim} != patch dim {n_p}"
        )
    out = np.empty((model.n_components, patches.shape[0]))
    const = n_p * np.log(2.0 * np.pi)
    for j in range(model.n_components):
        vals, vecs = np.linalg.eigh(model.covariances[j])
        vals = np.maximum(vals, 0.0) + noise_variance
        floor = _EIG_FLOOR * max(vals.max(), 1.0)
        if vals.min() < floor:
            log.warning(
                "component %d: singular noisy covariance, flooring eigenvalues", j
            )
            vals = np.maximum(vals, floor)
        proj = patches @ vecs
        maha = np.einsum("ik,k,ik->i", proj, 1.0 / vals, proj)
        logdet = np.sum(np.log(vals))
        out[j] = np.log(model.alphas[j]) - 0.5 * (const + logdet + maha)
    return out


def e_step(
    patches: PatchSet, model: GmmModel, noise_variance: float
) -> PatchWeights:
    """Posterior component weights of each patch under the noisy model."""
    logdens = _component_log_densities(patches.patches, model, noise_variance)
    beta = np.exp(logdens - logsumexp(logdens, axis=0, keepdims=True))
    return PatchWeights(beta=beta)


def log_likelihood(
    patches: PatchSet, model: GmmModel, noise_variance: float
) -> float:
    """Observed-data log-likelihood under the noisy model."""
    logdens = _component_log_densities(patches.patches, model, noise_variance)
    return float(np.sum(logsumexp(logdens, axis=0)))


def m_step(
    patches: PatchSet, weights: PatchWeights, noise_variance: float
) -> GmmModel:
    """Update mixture weights and noise-compensated covariances.

    ``C_j = eigt(sum_i beta_ji y_i y_i^T / sum_i beta_ji - sigma^2 I)``.
    A component whose total responsibility collapses is re-seeded from the
    patch the mixture currently claims least confidently, never dropped.
    """
    y = patches.patches
    beta = weights.beta
    n, n_p = y.shape
    if beta.shape[1] != n:
        raise DimensionError(
            f"weights cover {beta.shape[1]} patches, patch set has {n}"
        )
    totals = beta.sum(axis=1)
    alphas = totals / totals.sum()
    covariances = np.empty((beta.shape[0], n_p, n_p))
    dead = totals < 1e-12
    if np.any(dead):
        # least-claimed patch: smallest max responsibility, largest norm on ties
        confidence = beta.max(axis=0)
        norms = np.einsum("ij,ij->i", y, y)
        worst = int(np.lexsort((-norms, confidence))[0])
        log.warning(
            "reinitializing %d empty component(s) from patch %d",
            int(dead.sum()),
            worst,
        )
    for j in range(beta.shape[0]):
        if dead[j]:
            seed_patch = y[worst]
            second_moment = np.outer(seed_patch, seed_patch)
            second_moment += (np.trace(second_moment) / n_p * 1e-6 + 1e-12) * np.eye(n_p)
            alphas[j] = 1.0 / max(n, 1)
        else:
            second_moment = (y.T * beta[j]) @ y / totals[j]
        covariances[j] = eigt(second_moment - noise_variance * np.eye(n_p))
    alphas = alphas / alphas.sum()
    return GmmModel(
        alphas=alphas, covariances=covariances, patch_side=patches.patch_side
    )


def _init_model(patches: PatchSet, config: EmConfig) -> GmmModel:
    """Seeded k-means++-style initialization on norm-whitened patches."""
    y = patches.patches
    n, n_p = y.shape
    rng = np.random.default_rng(config.seed)
    norms = np.sqrt(np.einsum("ij,ij->i", y, y))
    whitened = y / np.maximum(norms, 1e-12)[:, None]
    k = config.n_components
    centers = np.empty((k, n_p))
    centers[0] = whitened[rng.integers(n)]
    dist2 = np.full(n, np.inf)
    for j in range(1, k):
        diff = whitened - centers[j - 1]
        dist2 = np.minimum(dist2, np.einsum("ij,ij->i", diff, diff))
        total = dist2.sum()
        if total <= 0:
            centers[j] = whitened[rng.integers(n)]
            continue
        centers[j] = whitened[rng.choice(n, p=dist2 / total)]
    # hard-assign and build per-cluster second moments of the raw patches
    # one centre at a time: the (N, K, n_p) difference array would take
    # 94 MB for a 96x96 band with K=20 and 8x8 patches
    d2 = np.stack([((whitened - c) ** 2).sum(axis=1) for c in centers], axis=1)
    labels = d2.argmin(axis=1)
    alphas = np.empty(k)
    covariances = np.empty((k, n_p, n_p))
    ridge = 1e-6 * np.eye(n_p)
    for j in range(k):
        members = y[labels == j]
        alphas[j] = max(members.shape[0], 1)
        if members.shape[0] == 0:
            members = y[rng.integers(n)][None, :]
        second_moment = members.T @ members / members.shape[0]
        covariances[j] = eigt(
            second_moment + (np.trace(second_moment) / n_p) * ridge + 1e-12 * np.eye(n_p)
        )
    alphas = alphas / alphas.sum()
    return GmmModel(
        alphas=alphas, covariances=covariances, patch_side=patches.patch_side
    )


def train_em(
    patches: PatchSet, config: EmConfig
) -> tuple[GmmModel, PatchWeights, list[float]]:
    """Alternate E/M steps until the log-likelihood stalls or the budget ends.

    Returns the final model, responsibilities consistent with that model, and
    the per-iteration log-likelihood trace. Deterministic given the seed.
    """
    if patches.count < config.n_components:
        raise ConfigError(
            f"need at least K={config.n_components} patches, got {patches.count}"
        )
    model = _init_model(patches, config)
    sigma2 = config.noise_variance
    trace: list[float] = []
    beta = None
    for _ in range(config.max_iters):
        logdens = _component_log_densities(patches.patches, model, sigma2)
        col_logsum = logsumexp(logdens, axis=0)
        beta = PatchWeights(beta=np.exp(logdens - col_logsum[None, :]))
        ll = float(col_logsum.sum())
        if trace and abs(ll - trace[-1]) <= config.loglik_rel_tol * abs(trace[-1]):
            trace.append(ll)
            return model, beta, trace
        trace.append(ll)
        model = m_step(patches, beta, sigma2)
    # budget exhausted after an M-step: recompute weights for the final model
    beta = e_step(patches, model, sigma2)
    return model, beta, trace
