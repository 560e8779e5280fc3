"""Scene-adapted GMM priors plugged into ADMM/SALSA for image fusion.

The package provides a patch-based Gaussian-mixture denoiser whose frozen
per-patch weights make it a fixed symmetric PSD linear operator (each patch
is filtered as ``(I - J) F_i (I - J) + J``, which passes its mean through),
test-scale dense checks that it is a proximity operator (its regularizer
phi, and :meth:`DataTerm.minimizer`, which for the identity data term is
the prox), and two fusion applications built on it: hyperspectral
sharpening and blurred/noisy pair deblurring, which runs the sharpening
pipeline on a one-band scene. The operator is a cyclic stencil: each
pixel's output weights the ``(2s-1) x (2s-1)`` window of wrapped neighbours
its side-s patches span. The package needs only numpy.

Because the frozen denoiser D is linear, the PnP fixed point is the solution
of a linear system. Both applications solve it with one GMRES solve
(:func:`solve_fixed_point`), whose report counts applications of D, on
``(rho I + D (A^T A - rho I)) x = D A^T t``, preconditioned by the
DFT-diagonal inverse built from the circulant parts of ``A^T A`` and D.
The SALSA iterations of the paper (:func:`run_admm`), with D or any other map
as their v3-step, stay as the one reference that reaches the same point, and
the sharpening data term's dense minimizer as the one oracle.

Both pipelines take and return numpy arrays. Every error the package raises
on purpose is a :class:`PnpError` whose subclass names the kind of failure: a
refused shape, setting or observation, a size over a test-scale cap, a
diverged solve or an undefined metric.
"""

from .admm import (
    SolveReport,
    SolverConfig,
    run_admm,
    solve_fixed_point,
)
from .denoiser import (
    DataTerm,
    ExplicitW,
    LinearDenoiser,
    build_explicit_w,
    denoise_image_fixed,
    eval_phi,
    wiener_filter,
)
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    MetricError,
    PnpError,
    SizeError,
    StateError,
)
from .fftops import (
    CyclicBlur,
    apply_blur,
    blur_rows,
    symbol_products,
)
from .gmm import (
    EmConfig,
    GmmModel,
    eigt,
    m_step,
    posterior,
    train_em,
)
from .metrics import ergas, psnr, psnr_per_band, sam
from .pairdeblur import PairParams, PairScene, deblur_pair
from .patches import (
    ImageGeometry,
    PatchSet,
    extract_patches,
    patch_index_map,
    remove_means,
)
from .scenes import (
    HsSceneSpec,
    PairSceneSpec,
    generate_hs_scene,
    generate_pair_scene,
    make_kernel,
    synthetic_image,
)
from .sharpen import (
    HsScene,
    SharpenParams,
    SubspaceBasis,
    hs_data_term,
    make_decimation_mask,
    pca_basis,
    sharpen,
    train_scene_denoiser,
    v3_update,
)

__all__ = [
    "SolveReport",
    "SolverConfig",
    "run_admm",
    "solve_fixed_point",
    "DataTerm",
    "ExplicitW",
    "LinearDenoiser",
    "build_explicit_w",
    "denoise_image_fixed",
    "eval_phi",
    "wiener_filter",
    "ConfigError",
    "DimensionError",
    "DivergenceError",
    "MetricError",
    "PnpError",
    "SizeError",
    "StateError",
    "CyclicBlur",
    "apply_blur",
    "blur_rows",
    "symbol_products",
    "EmConfig",
    "GmmModel",
    "eigt",
    "m_step",
    "posterior",
    "train_em",
    "ergas",
    "psnr",
    "psnr_per_band",
    "sam",
    "PairParams",
    "PairScene",
    "deblur_pair",
    "ImageGeometry",
    "PatchSet",
    "extract_patches",
    "patch_index_map",
    "remove_means",
    "HsSceneSpec",
    "PairSceneSpec",
    "generate_hs_scene",
    "generate_pair_scene",
    "make_kernel",
    "synthetic_image",
    "HsScene",
    "SharpenParams",
    "SubspaceBasis",
    "hs_data_term",
    "make_decimation_mask",
    "pca_basis",
    "sharpen",
    "train_scene_denoiser",
    "v3_update",
]

__version__ = "0.1.0"
