"""The paper's experimental claims, checked through public functions only.

Scene adaptation: a GMM patch prior trained on the scene itself restores it
better than the same prior trained on an image of other content. The check
runs on a 64x64 pair with the ``pair-iterate`` settings (motion blur, noise
25/255 and 2/255, K = 8 components of 6x6 patches, 25 EM iterations,
rho = 0.02, lam = 0.2, tau = 0.01).
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
    deblur_pair,
    extract_patches,
    generate_pair_scene,
    pca_basis,
    posterior,
    psnr,
    remove_means,
    train_em,
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
