"""Scene-adapted GMM priors plugged into ADMM/SALSA for image fusion.

The package provides a patch-based Gaussian-mixture denoiser whose frozen
per-patch weights make it a fixed symmetric PSD linear operator, proximity-
operator verification utilities for that operator, and two fusion pipelines
built on it: hyperspectral sharpening and blurred/noisy pair deblurring.

Because the frozen denoiser D is linear, the PnP fixed point is the solution
of a linear equation. The pipelines solve it with GMRES
(:func:`solve_fixed_point`), whose report counts matvecs; the ADMM/SALSA
iterations of the paper (:func:`run_admm`) stay as the reference that reaches
the same point.
"""

from .admm import SolveReport, SolverConfig, residuals, run_admm, solve_fixed_point
from .denoiser import (
    DataTerm,
    ExplicitW,
    LinearDenoiser,
    build_explicit_w,
    denoise_image_fixed,
    denoise_image_mmse,
    eval_phi,
    expansiveness_demo,
    prox_oracle,
    wiener_filter,
)
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    FormatError,
    MetricError,
    PnpError,
    SizeError,
    StateError,
)
from .fftops import (
    CyclicBlur,
    apply_blur,
    blur_rows,
    make_cyclic_blur,
    solve_x_update_hs,
    solve_x_update_pair,
)
from .gmm import (
    EmConfig,
    GmmModel,
    PatchWeights,
    e_step,
    eigt,
    log_likelihood,
    m_step,
    train_em,
)
from .metrics import MetricReport, ergas, metric_report, psnr, psnr_per_band, sam
from .pairdeblur import (
    PairParams,
    PairScene,
    deblur_pair,
    pair_data_term,
)
from .patches import (
    ImageGeometry,
    PatchSet,
    assemble_patches,
    extract_patches,
    patch_index_map,
    remove_means,
    restore_means,
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
    forward_hs,
    forward_ms,
    hs_data_term,
    make_decimation_mask,
    pca_basis,
    sharpen,
    train_scene_denoiser,
    v1_update,
    v2_update,
    v3_update,
)

__version__ = "0.1.0"
