"""Thm. 2's conditions on the applied denoiser D, matrix-free.

The dense checks of ``build_explicit_w`` stop at n = 4096. Here D is the
operator ``denoise_image_fixed`` applies, on a 256x256 pair scene, and only
its stencil and its applications are used:

* the conditions that make D a prox: every stencil coefficient equals its
  mirror, ``D 1 = 1``, every Wiener filter's eigenvalues lie in [0, 1] and
  the frozen weights lie on the simplex;
* symmetry: ``|<u, D v> - <D u, v>| <= 1e-12 ||u|| ||v||`` for random u, v;
* spectrum in [0, 1]: 40 Lanczos Ritz values of D, and 40 of I - D, lie in
  ``[-1e-12, 1 + 1e-12]``;
* minimality: the fixed point that ``solve_hs`` reaches on the pair, with
  the one-band basis, minimizes the objective ``F(x) + rho phi(x)``; so
  does the one it reaches on the 64x64 ``pair-iterate`` scene 0 at seed 11,
  and on the 4 coefficient bands of the 32x32 ``hs-sharpen`` scene 0 at
  seed 11, where phi is summed over the bands.

Ritz values lie inside the spectrum, so the probe can refute the theory but
not prove it. Each probe is also run on a D broken on purpose, and must
see the defect: one stencil plane that no longer equals its mirror breaks
symmetry, weights scaled by 1.05 push the spectrum past 1, and a solve
stopped at half its applications of D is not the minimizer.

The objective needs phi, which needs no W: every x in the range of D is
``D w``, and since D is the prox of phi, ``phi(D w) = <D w, w - D w> / 2``
for any w. So ``J(w) = F(D w) + rho <D w, w - D w> / 2`` is the objective
at ``D w``, and at the fixed point ``x = D w`` with ``w = x - grad F(x) / rho``.
On a stack of bands D acts on each band ``w_b`` and J sums the terms of phi.
"""

from dataclasses import replace

import numpy as np
import pytest

from pnpfusion import (
    EmConfig,
    HsSceneSpec,
    ImageGeometry,
    PairSceneSpec,
    SolverConfig,
    SubspaceBasis,
    denoise_image_fixed,
    generate_hs_scene,
    generate_pair_scene,
    hs_data_term,
    pca_basis,
    train_scene_denoiser,
)
from pnpfusion.denoiser import EXPLICIT_W_CAP
from pnpfusion.gmm import SIMPLEX_ATOL
from pnpfusion.sharpen import solve_hs
from tests.conftest import mirror_defect

TOL = 1e-12
STEPS = 40


@pytest.fixture(scope="module")
def scene():
    geometry = ImageGeometry(256, 256)
    return generate_pair_scene(
        PairSceneSpec(geometry, "gauss8", 25 / 255, 2 / 255, seed=5)
    )


@pytest.fixture(scope="module")
def denoiser(scene):
    variance = scene.sigma_n**2
    em = EmConfig(n_components=4, noise_variance=variance, max_iters=10)
    return train_scene_denoiser(scene.y_n[None], scene.geometry, 4, em, variance)


def symmetry_defect(den, seed=0) -> float:
    """``|<u, D v> - <D u, v>| / (||u|| ||v||)`` for one random pair."""
    u, v = np.random.default_rng(seed).standard_normal((2, den.geometry.n))
    gap = u @ denoise_image_fixed(v, den) - denoise_image_fixed(u, den) @ v
    return abs(gap) / (np.linalg.norm(u) * np.linalg.norm(v))


def ritz_values(apply, n: int, seed=0) -> np.ndarray:
    """Ritz values of a symmetric map after ``STEPS`` Lanczos steps from a
    random start, with every new vector orthogonalized twice against all
    earlier ones."""
    q = np.random.default_rng(seed).standard_normal(n)
    basis = np.empty((STEPS, n))
    alpha, beta = np.empty(STEPS), np.empty(STEPS - 1)
    for k in range(STEPS):
        basis[k] = q / np.linalg.norm(q)
        w = apply(basis[k])
        alpha[k] = basis[k] @ w
        for _ in range(2):
            w -= (basis[: k + 1] @ w) @ basis[: k + 1]
        if k + 1 < STEPS:
            beta[k] = np.linalg.norm(w)
            q = w
    return np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))


def spectra(den) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values of D and of I - D."""
    n = den.geometry.n
    d = ritz_values(lambda x: denoise_image_fixed(x, den), n)
    complement = ritz_values(lambda x: x - denoise_image_fixed(x, den), n, seed=1)
    return d, complement


def in_unit_interval(values: np.ndarray) -> bool:
    return bool(values.min() >= -TOL and values.max() <= 1 + TOL)


def test_prox_conditions_hold_beyond_the_explicit_cap(denoiser):
    n = denoiser.geometry.n
    assert n > EXPLICIT_W_CAP
    assert mirror_defect(denoiser) == 0.0
    ones = np.ones(n)
    np.testing.assert_allclose(
        denoise_image_fixed(ones, denoiser), ones, rtol=0, atol=1e-12
    )
    vals = denoiser.model.spectrum[0]
    shrink = vals / (vals + denoiser.noise_variance)
    assert np.all((shrink >= 0) & (shrink <= 1))
    beta = denoiser.weights
    assert beta.min() >= 0
    assert np.abs(beta.sum(axis=0) - 1).max() <= SIMPLEX_ATOL


def test_applied_denoiser_is_symmetric(denoiser):
    assert denoiser.geometry.n == 256 * 256
    assert symmetry_defect(denoiser) <= TOL


def test_applied_denoiser_spectrum_lies_in_the_unit_interval(denoiser):
    d, complement = spectra(denoiser)
    assert in_unit_interval(d)
    assert in_unit_interval(complement)
    # Lanczos reaches the extremes: the top near 1 (the constant images)
    assert d.max() > 0.99 and complement.max() > 0.99


def test_symmetry_probe_sees_a_plane_that_differs_from_its_mirror(denoiser):
    plane = denoiser.operator[:, :, 0, 0]
    saved = plane.copy()
    plane += 1e-6  # its mirror, plane [-1, -1], is left as it was
    try:
        assert symmetry_defect(denoiser) > TOL
    finally:
        plane[...] = saved
    assert symmetry_defect(denoiser) <= TOL


def test_spectrum_probe_sees_weights_scaled_past_the_simplex(denoiser):
    scaled = replace(denoiser, weights=denoiser.weights.copy())
    scaled.weights[...] *= 1.05  # in place, before the first apply builds W
    d, complement = spectra(scaled)
    assert d.max() > 1 + TOL
    assert complement.min() < -TOL


def descents(data, den, rho, x) -> dict:
    """``(J(w + step) - J(w)) / |J(w)|`` at ``w = x - grad F(x) / rho``, for a
    step of 1e-6 ||w|| down the gradient of J and for steps of ±1e-2 and
    ±1e-4 ||w|| along one random direction; negative where J descends."""

    def grad_f(v):
        return data.adjoint(data.apply(v) - data.target)

    def objective(w):
        dw = denoise_image_fixed(w, den)
        fit = 0.5 * np.sum((data.apply(dw) - data.target) ** 2)
        return fit + 0.5 * rho * np.vdot(dw, w - dw)

    w = x - grad_f(x) / rho
    dw = denoise_image_fixed(w, den)
    # D is symmetric, so grad J(w) = D (grad F(D w) + rho (w - D w))
    gradient = denoise_image_fixed(grad_f(dw) + rho * (w - dw), den)
    random = np.random.default_rng(0).standard_normal(w.shape)
    scale = np.linalg.norm(w)
    steps = {"gradient": -1e-6 * scale * gradient / np.linalg.norm(gradient)}
    for eps in (1e-2, -1e-2, 1e-4, -1e-4):
        steps[eps] = eps * scale * random / np.linalg.norm(random)
    at_w = objective(w)
    return {key: (objective(w + s) - at_w) / abs(at_w) for key, s in steps.items()}


def assert_the_fixed_point_is_the_minimizer(hs_scene, basis, denoiser, cfg):
    data = hs_data_term(hs_scene, basis, cfg.lam)
    x, report = solve_hs(hs_scene, basis, denoiser, cfg)
    assert report.converged
    assert min(descents(data, denoiser, cfg.rho, x).values()) > 0
    # stopped at half its applications, the solve is not the minimizer; the
    # random steps do not see it, the gradient step does
    half = replace(cfg, max_iters=report.iterations_run // 2)
    x, report = solve_hs(hs_scene, basis, denoiser, half)
    assert not report.converged
    assert descents(data, denoiser, cfg.rho, x)["gradient"] < 0


def test_the_fixed_point_minimizes_the_objective(scene, denoiser):
    rho, lam = 0.5, 0.2
    cfg = SolverConfig(rho=rho, lam=lam, tau=rho * denoiser.noise_variance)
    basis = SubspaceBasis(np.ones((1, 1)))
    assert_the_fixed_point_is_the_minimizer(scene.hs_scene, basis, denoiser, cfg)


def test_the_fixed_point_minimizes_the_objective_on_the_pair_iterate_scene(
    pair_iterate_scene,
):
    p = pair_iterate_scene
    assert_the_fixed_point_is_the_minimizer(p.scene, p.basis, p.denoiser, p.cfg)


def test_the_fixed_point_minimizes_the_objective_on_the_hs_sharpen_scene():
    # scene 0 of the hs-sharpen workload at seed 11, on its 4 coefficient bands
    hs_scene = generate_hs_scene(
        HsSceneSpec(ImageGeometry(32, 32), 64, 4, 4, 4, 30.0, 40.0, seed=11000)
    )
    cfg = SolverConfig(rho=0.01, lam=0.1, tau=1e-4)
    em = EmConfig(n_components=8, noise_variance=hs_scene.sigma_m**2)
    denoiser = train_scene_denoiser(
        hs_scene.y_m, hs_scene.geometry, 4, em, cfg.tau / cfg.rho
    )
    basis = pca_basis(hs_scene.y_h, 4)
    assert_the_fixed_point_is_the_minimizer(hs_scene, basis, denoiser, cfg)
