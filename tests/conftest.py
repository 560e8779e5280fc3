import numpy as np
import pytest

from pnpfusion.denoiser import LinearDenoiser
from pnpfusion.gmm import EmConfig, train_em
from pnpfusion.patches import ImageGeometry, extract_patches, remove_means
from pnpfusion.scenes import smooth_field


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
