"""The paper's experimental claims, checked through public functions only.

Each check runs on a 64x64 pair with the ``pair-iterate`` settings (motion
blur, noise 25/255 and 2/255, K = 8 components of 6x6 patches, 25 EM
iterations, rho = 0.02, lam = 0.2, tau = 0.01).

Scene adaptation: a GMM patch prior trained on the scene itself restores it
better than the same prior trained on an image of other content.

Convergence (the paper's Thm. 2): PnP-ADMM with the frozen denoiser, the
algorithm the paper runs, converges to the fixed point that the pipeline
solves for directly.
"""

import numpy as np

from pnpfusion import (
    EmConfig,
    ImageGeometry,
    LinearDenoiser,
    PairParams,
    PairSceneSpec,
    PatchSet,
    SolverConfig,
    apply_blur,
    deblur_pair,
    denoise_image_fixed,
    extract_patches,
    generate_pair_scene,
    pca_basis,
    posterior,
    psnr,
    remove_means,
    symbol_products,
    train_em,
    train_scene_denoiser,
)
from pnpfusion.sharpen import solve_hs

GEOMETRY = ImageGeometry(64, 64)
SIGMA_N = 25 / 255
PATCH_SIDE = 6
EM = EmConfig(n_components=8, noise_variance=SIGMA_N**2, max_iters=25)
SOLVER = SolverConfig(rho=0.02, lam=0.2, tau=0.01)

# Own prior minus sine-grating prior, in dB, measured at 2.77-3.36 dB over
# scene seeds 0, 1, 2, 7 and 11000 (3.10 dB at the seed used here).
ADAPTATION_MARGIN_DB = 1.5

# Relative distance of PnP-ADMM's x after 300 iterations from the fixed
# point: 4.3e-7 measured at the seed used here, and 1.9e-2 with the loop run
# at 2 rho, whose limit is another point.
ADMM_LIMIT_RTOL = 5e-6


def zero_mean_patches(image):
    patches = extract_patches(image, GEOMETRY, PATCH_SIDE)
    return PatchSet(remove_means(patches).patches, PATCH_SIDE, GEOMETRY)


def restore(scene, model):
    """The pair's fixed point with ``model`` as the prior and its weights
    frozen from the scene's noisy patches, as the pipeline freezes them."""
    weights = posterior(zero_mean_patches(scene.y_n), model, SIGMA_N**2)[0]
    denoiser = LinearDenoiser(model, weights, SOLVER.tau / SOLVER.rho, GEOMETRY)
    basis = pca_basis(scene.hs_scene.y_h, 1)
    x = solve_hs(scene.hs_scene, basis, denoiser, SOLVER)[0]
    return (basis.e @ x)[0]


def noisy_sine_grating(rng):
    """Vertical stripes of period 8 pixels, with the scene's noise level."""
    columns = np.arange(GEOMETRY.width)[None, :]
    grid = 0.5 + 0.35 * np.sin(2 * np.pi * columns / 8) * np.ones((GEOMETRY.height, 1))
    return GEOMETRY.from_grid(grid) + SIGMA_N * rng.standard_normal(GEOMETRY.n)


def test_the_scene_s_own_prior_beats_a_prior_of_other_content():
    scene = generate_pair_scene(
        PairSceneSpec(GEOMETRY, "motion15", SIGMA_N, 2 / 255, seed=0)
    )
    own = restore(scene, train_em(zero_mean_patches(scene.y_n), EM)[0])
    # the own prior is the pipeline's
    np.testing.assert_array_equal(
        own, deblur_pair(scene, PairParams(PATCH_SIDE, EM, SOLVER))[0]
    )
    grating = noisy_sine_grating(np.random.default_rng(0))
    other = restore(scene, train_em(zero_mean_patches(grating), EM)[0])
    gap = psnr(scene.truth, own) - psnr(scene.truth, other)
    assert gap > ADAPTATION_MARGIN_DB


def pnp_admm(scene, denoiser, rho, iterations):
    """Scaled PnP-ADMM from zero with the frozen denoiser as the v-step."""
    lam = SOLVER.lam
    rhs = apply_blur(scene.y_b, scene.blur, adjoint=True) + lam * scene.y_n
    inverse = 1.0 / (scene.blur.power_spectrum + lam + rho)
    x = v = u = np.zeros(GEOMETRY.n)
    for _ in range(iterations):
        x = symbol_products(rhs + rho * (v - u), inverse)
        v = denoise_image_fixed(x + u, denoiser)
        u = u + x - v
    return x


def test_pnp_admm_converges_to_the_fixed_point():
    scene = generate_pair_scene(
        PairSceneSpec(GEOMETRY, "motion15", SIGMA_N, 2 / 255, seed=0)
    )
    denoiser = train_scene_denoiser(
        scene.y_n[None], GEOMETRY, PATCH_SIDE, EM, SOLVER.tau / SOLVER.rho
    )
    x = pnp_admm(scene, denoiser, SOLVER.rho, 300)
    fixed_point = deblur_pair(scene, PairParams(PATCH_SIDE, EM, SOLVER))[0]
    distance = np.linalg.norm(x - fixed_point) / np.linalg.norm(fixed_point)
    assert distance <= ADMM_LIMIT_RTOL
