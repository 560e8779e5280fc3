from types import SimpleNamespace

import numpy as np
import pytest

from pnpfusion.admm import SolverConfig, solve_fixed_point
from pnpfusion.denoiser import LinearDenoiser, denoise_image_fixed
from pnpfusion.gmm import EmConfig, posterior, train_em
from pnpfusion.patches import ImageGeometry, extract_patches, remove_means
from pnpfusion.scenes import PairSceneSpec, generate_pair_scene, smooth_field
from pnpfusion.sharpen import (
    SubspaceBasis, hs_data_term, solve_hs, train_scene_denoiser
)


def train_random_denoiser(
    geometry: ImageGeometry,
    patch_side: int,
    n_components: int,
    seed: int,
    noise_variance: float = 0.05,
    pure_linear: bool = True,
    em_iters: int = 8,
) -> LinearDenoiser:
    """A denoiser trained on a random smooth-plus-noise image (shared helper)."""
    rng = np.random.default_rng(seed)
    img = smooth_field(geometry, rng) + 0.3 * rng.standard_normal(geometry.n)
    patches = remove_means(extract_patches(img, geometry, patch_side))
    model, beta, _ = train_em(
        patches,
        EmConfig(
            n_components=n_components,
            noise_variance=0.09,
            max_iters=em_iters,
            seed=seed,
        ),
    )
    return LinearDenoiser(
        model=model,
        weights=beta,
        noise_variance=noise_variance,
        geometry=geometry,
        pure_linear=pure_linear,
    )


def band_mean_denoiser(bands, model, posterior_variance, noise_variance, geometry):
    """The practical :class:`LinearDenoiser` that freezes the posterior of the
    zero-mean patches of ``bands``, one band or a (k, n) stack, averaged over
    the k bands at each pixel, as ``train_scene_denoiser`` freezes EM's."""
    patches = remove_means(extract_patches(bands, geometry, model.patch_side))
    beta = posterior(patches, model, posterior_variance)[0]
    weights = beta.reshape(len(beta), -1, geometry.n).mean(axis=1)
    return LinearDenoiser(model, weights, noise_variance, geometry)


def mmse_map(bands, model, noise_variance, geometry):
    """The exact-MMSE denoiser that the frozen one linearizes: the weights are
    re-estimated from the input itself, then frozen and applied to it."""
    denoiser = band_mean_denoiser(bands, model, noise_variance, noise_variance, geometry)
    return denoise_image_fixed(bands, denoiser)


def scene_16(seed=7, kernel="gauss8", sigma_n=25 / 255, sigma_b=2 / 255):
    """A synthetic 16x16 blurred/noisy pair."""
    spec = PairSceneSpec(
        geometry=ImageGeometry(16, 16),
        kernel_id=kernel,
        sigma_n=sigma_n,
        sigma_b=sigma_b,
        seed=seed,
    )
    return generate_pair_scene(spec)


def trained_denoiser(
    scene, rho, tau, pure_linear=True, patch_side=2, n_components=2, em_iters=12
):
    """The denoiser the pipeline freezes for an ``HsScene`` at ``tau / rho``."""
    em = EmConfig(
        n_components=n_components,
        noise_variance=scene.sigma_m**2,
        max_iters=em_iters,
        seed=0,
    )
    return train_scene_denoiser(
        scene.y_m, scene.geometry, patch_side, em,
        denoiser_variance=tau / rho, pure_linear=pure_linear,
    )


def clean_observations(z, scene):
    """``(Z B M, R Z)`` of a cube z on an ``HsScene``: the data term with
    E = I and lam = 1, split into its HS and MS blocks."""
    identity = SubspaceBasis(np.eye(scene.r.shape[1]))
    clean = hs_data_term(scene, identity, 1.0).apply(z)
    hs, ms = np.split(clean, [scene.y_h.size])
    return hs.reshape(scene.y_h.shape), ms.reshape(scene.y_m.shape)


def relative_error(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


def both_solves(scene, basis, den, cfg):
    """``(x, report)`` of the pipeline's preconditioned solve and of the
    unpreconditioned one."""
    plain = solve_fixed_point(
        hs_data_term(scene, basis, cfg.lam),
        lambda x: denoise_image_fixed(x, den),
        cfg,
    )
    return [solve_hs(scene, basis, den, cfg), plain]


def chan_symbol(denoiser: LinearDenoiser) -> np.ndarray:
    """Eigenvalues of W averaged over every cyclic shift of the grid
    (T. Chan, SIAM J. Sci. Stat. Comput. 1988), from the stencil: the pixel
    mean of each plane of ``operator`` is the coefficient at its
    displacement, and displacements that wrap onto one pixel add up."""
    stencil = denoiser.operator
    h, w = denoiser.geometry.height, denoiser.geometry.width
    offsets = np.arange(stencil.shape[-1]) - stencil.shape[-1] // 2
    kernel = np.zeros((h, w))
    # plane [b, a] holds displacement (a - s + 1, b - s + 1) in (row, column)
    rows, cols = (offsets % h)[None, :], (offsets % w)[:, None]
    np.add.at(kernel, (rows, cols), stencil.mean(axis=(0, 1)))
    return np.fft.fft2(kernel).real


def mirror_defect(denoiser: LinearDenoiser) -> float:
    """Largest ``|W[p, p + d] - W[p + d, p]|`` over every stencil coefficient.

    Entry d of pixel p is ``operator[p][d]`` and its mirror is entry -d of
    pixel p + d, so the plane of -d, moved back by d, must equal the plane
    of d.
    """
    stencil = denoiser.operator
    span = stencil.shape[-1]
    centre = span // 2
    worst = 0.0
    for b in range(span):
        for a in range(span):
            back = np.roll(
                stencil[:, :, span - 1 - b, span - 1 - a],
                (centre - b, centre - a),
                axis=(0, 1),
            )
            worst = max(worst, float(np.abs(stencil[:, :, b, a] - back).max()))
    return worst


@pytest.fixture(scope="session")
def small_denoiser():
    """One 12x12 trained denoiser reused by read-only tests."""
    return train_random_denoiser(ImageGeometry(12, 12), 3, 3, seed=7)


@pytest.fixture(scope="session")
def pair_iterate_scene():
    """Scene 0 of the pair-iterate workload at seed 11, as its one-band
    sharpening scene on the 1x1 basis, with the workload's solver settings
    and the denoiser it trains (K = 8, 6x6 patches, 25 EM iterations);
    ``tests/test_bench_contract.py`` checks these against the workload."""
    spec = PairSceneSpec(ImageGeometry(64, 64), "motion15", 25 / 255, 2 / 255, seed=11000)
    pair = generate_pair_scene(spec)
    cfg = SolverConfig(rho=0.02, lam=0.2, tau=0.01)
    em = EmConfig(n_components=8, noise_variance=pair.sigma_n**2, max_iters=25)
    patch_side = 6
    denoiser = train_scene_denoiser(
        pair.y_n[None], pair.geometry, patch_side, em, cfg.tau / cfg.rho
    )
    return SimpleNamespace(
        scene=pair.hs_scene, basis=SubspaceBasis(np.ones((1, 1))), cfg=cfg,
        denoiser=denoiser, spec=spec, em=em, patch_side=patch_side,
    )
