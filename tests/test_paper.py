"""The paper's experimental claims, checked through public functions only.

Each pair check runs on a 64x64 pair with the ``pair-iterate`` settings
(motion blur, noise 25/255 and 2/255, K = 8 components of 6x6 patches, 25 EM
iterations, rho = 0.02, lam = 0.2, tau = 0.01). The sharpening check runs on
a 32x32 scene with the ``hs-sharpen`` settings (64 HS and 4 MS bands, true
subspace 4, decimation 4, SNR 30/40 dB, K = 8 components of 4x4 patches, 100
EM iterations at tol 1e-5, rho = 0.01, lam = 0.1, tau = 1e-4).

Scene adaptation: a GMM patch prior trained on the scene itself restores it
better than the same prior trained on an image of other content, in both
pipelines.

Convergence (the paper's Thm. 2): PnP-ADMM with the frozen denoiser, the
algorithm the paper runs, converges to the fixed point that the pipeline
solves for directly.

Freezing the weights costs nothing: the frozen fixed point restores the
scene better than PnP-ADMM whose denoiser re-estimates its weights from each
iterate, the exact-MMSE map that the frozen one linearizes.
"""

import numpy as np

from pnpfusion import (
    EmConfig,
    HsSceneSpec,
    ImageGeometry,
    LinearDenoiser,
    PairParams,
    PairSceneSpec,
    SharpenParams,
    SolverConfig,
    apply_blur,
    deblur_pair,
    denoise_image_fixed,
    denoise_image_mmse,
    extract_patches,
    generate_hs_scene,
    generate_pair_scene,
    pca_basis,
    posterior,
    psnr,
    remove_means,
    sharpen,
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

# Frozen fixed point minus PnP-ADMM with re-estimated weights after
# MMSE_ITERATIONS, in dB: 30.08 against 28.85 dB at the seed used here (29.21
# against 28.09 dB at seed 1), and 27.34 dB on the frozen side with uniform
# frozen weights. Its last step, recorded and not asserted, was 1.1e-4
# relative at 50 iterations and 2.3e-9 at 300.
FREEZING_MARGIN_DB = 0.5
MMSE_ITERATIONS = 50

HS_GEOMETRY = ImageGeometry(32, 32)
HS_PATCH_SIDE = 4
HS_SOLVER = SolverConfig(rho=0.01, lam=0.1, tau=1e-4)

# Own prior minus sine-grating prior on the sharpening scene, in dB: 33.39
# against 28.20 dB at the seed used here, and 2.24-5.19 dB over scene seeds
# 0, 1, 2, 7 and 11000.
HS_ADAPTATION_MARGIN_DB = 1.0


def zero_mean_patches(image, geometry=GEOMETRY, patch_side=PATCH_SIDE):
    return remove_means(extract_patches(image, geometry, patch_side))


def restore(scene, model):
    """The pair's fixed point with ``model`` as the prior and its weights
    frozen from the scene's noisy patches, as the pipeline freezes them."""
    weights = posterior(zero_mean_patches(scene.y_n), model, SIGMA_N**2)[0]
    denoiser = LinearDenoiser(model, weights, SOLVER.tau / SOLVER.rho, GEOMETRY)
    basis = pca_basis(scene.hs_scene.y_h, 1)
    x = solve_hs(scene.hs_scene, basis, denoiser, SOLVER)[0]
    return (basis.e @ x)[0]


def sine_grating(geometry):
    """Vertical stripes of period 8 pixels."""
    columns = np.arange(geometry.width)[None, :]
    grid = 0.5 + 0.35 * np.sin(2 * np.pi * columns / 8) * np.ones((geometry.height, 1))
    return geometry.from_grid(grid)


def noisy_sine_grating(rng):
    """The grating with the scene's noise level."""
    return sine_grating(GEOMETRY) + SIGMA_N * rng.standard_normal(GEOMETRY.n)


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


def pnp_admm(scene, v_step, rho, iterations):
    """Scaled PnP-ADMM from zero with ``v_step`` as the denoiser. Returns x
    and the size of its last step relative to x."""
    lam = SOLVER.lam
    rhs = apply_blur(scene.y_b, scene.blur, adjoint=True) + lam * scene.y_n
    inverse = 1.0 / (scene.blur.power_spectrum + lam + rho)
    x = v = u = np.zeros(GEOMETRY.n)
    for _ in range(iterations):
        previous = x
        x = symbol_products(rhs + rho * (v - u), inverse)
        v = v_step(x + u)
        u = u + x - v
    return x, np.linalg.norm(x - previous) / np.linalg.norm(x)


def test_pnp_admm_converges_to_the_fixed_point():
    scene = generate_pair_scene(
        PairSceneSpec(GEOMETRY, "motion15", SIGMA_N, 2 / 255, seed=0)
    )
    denoiser = train_scene_denoiser(
        scene.y_n[None], GEOMETRY, PATCH_SIDE, EM, SOLVER.tau / SOLVER.rho
    )
    x = pnp_admm(
        scene, lambda z: denoise_image_fixed(z, denoiser), SOLVER.rho, 300
    )[0]
    fixed_point = deblur_pair(scene, PairParams(PATCH_SIDE, EM, SOLVER))[0]
    distance = np.linalg.norm(x - fixed_point) / np.linalg.norm(fixed_point)
    assert distance <= ADMM_LIMIT_RTOL


def test_frozen_weights_beat_weights_re_estimated_from_each_iterate(record_property):
    scene = generate_pair_scene(
        PairSceneSpec(GEOMETRY, "motion15", SIGMA_N, 2 / 255, seed=0)
    )
    variance = SOLVER.tau / SOLVER.rho
    model = train_scene_denoiser(
        scene.y_n[None], GEOMETRY, PATCH_SIDE, EM, variance
    ).model
    x, last_step = pnp_admm(
        scene,
        lambda z: denoise_image_mmse(z, model, variance, GEOMETRY),
        SOLVER.rho,
        MMSE_ITERATIONS,
    )
    record_property("mmse_last_step", last_step)
    frozen = deblur_pair(scene, PairParams(PATCH_SIDE, EM, SOLVER))[0]
    gap = psnr(scene.truth, frozen) - psnr(scene.truth, x)
    assert gap >= FREEZING_MARGIN_DB


def sharpen_with(scene, params, model):
    """The sharpening fixed point with ``model`` as the prior, its weights
    frozen from the scene's MS patches and averaged over the bands, as the
    pipeline freezes them."""
    patches = zero_mean_patches(scene.y_m, HS_GEOMETRY, HS_PATCH_SIDE)
    beta = posterior(patches, model, params.em.noise_variance)[0]
    k = params.em.n_components
    weights = beta.reshape(k, -1, HS_GEOMETRY.n).mean(axis=1)
    solver = params.solver
    denoiser = LinearDenoiser(model, weights, solver.tau / solver.rho, HS_GEOMETRY)
    basis = pca_basis(scene.y_h, params.n_subspace)
    return basis.e @ solve_hs(scene, basis, denoiser, solver)[0]


def test_the_scene_s_own_prior_beats_a_prior_of_other_content_in_sharpening():
    scene = generate_hs_scene(
        HsSceneSpec(HS_GEOMETRY, 64, 4, 4, 4, snr_h_db=30.0, snr_m_db=40.0, seed=0)
    )
    em = EmConfig(n_components=8, noise_variance=scene.sigma_m**2)
    params = SharpenParams(4, HS_PATCH_SIDE, em, HS_SOLVER)
    own_patches = zero_mean_patches(scene.y_m, HS_GEOMETRY, HS_PATCH_SIDE)
    own = sharpen_with(scene, params, train_em(own_patches, em)[0])
    # the own prior is the pipeline's
    np.testing.assert_array_equal(own, sharpen(scene, params)[0])
    # the grating's 4 bands, band b scaled by 0.6 + 0.1 b, with the MS noise
    rng = np.random.default_rng(0)
    grating = np.stack(
        [
            (0.6 + 0.1 * b) * sine_grating(HS_GEOMETRY)
            + scene.sigma_m * rng.standard_normal(HS_GEOMETRY.n)
            for b in range(4)
        ]
    )
    grating_patches = zero_mean_patches(grating, HS_GEOMETRY, HS_PATCH_SIDE)
    other = sharpen_with(scene, params, train_em(grating_patches, em)[0])
    peak = float(scene.z.max())
    gap = psnr(scene.z, own, peak=peak) - psnr(scene.z, other, peak=peak)
    assert gap > HS_ADAPTATION_MARGIN_DB
