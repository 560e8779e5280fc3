"""One table-driven test of the array and scalar boundary of every public name.

Each name in ``pnpfusion.__all__`` either takes no array, real-valued scalar
or checked package object (``NO_CASE``) or has a ``CASES`` entry: one valid
call, built from small fixtures, and the names of its array arguments, of
its real-valued scalar arguments and of its arguments that take one of the
package's classes (a patch set, mixture, denoiser, blur, dense W, basis,
scene, geometry or EM config). Each array argument (or each pair joined by
"+") is replaced in turn by

* a list of its values, which must give a result ``np.array_equal`` to the
  array's, of the same dtype;
* a 0-d array, an empty array, an array of the wrong ndim and an array that
  holds NaN, each of which must raise the ``PnpError`` subclass of the
  package's boundary rule (``pnpfusion.errors``), or the one an existing
  test pins;

each scalar argument by ``"a"``, None, a 2-vector, NaN and inf, each of
which must raise :class:`ConfigError`, or :class:`MetricError` in the
metrics; and each argument of a package class by a list, which must raise
:class:`ConfigError`. Other geometry and config arguments are not in the
table.
"""

from dataclasses import dataclass, field, fields, is_dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

import pnpfusion
from pnpfusion import (
    ConfigError,
    CyclicBlur,
    DataTerm,
    DimensionError,
    DivergenceError,
    EmConfig,
    ExplicitW,
    GmmModel,
    HsScene,
    HsSceneSpec,
    ImageGeometry,
    LinearDenoiser,
    MetricError,
    PairParams,
    PairScene,
    PairSceneSpec,
    PatchSet,
    SharpenParams,
    SolverConfig,
    SubspaceBasis,
    blur_rows,
    build_explicit_w,
    deblur_pair,
    denoise_image_fixed,
    denoise_image_mmse,
    eigt,
    ergas,
    eval_phi,
    expansiveness_demo,
    extract_patches,
    forward_hs,
    forward_ms,
    generate_hs_scene,
    generate_pair_scene,
    hs_data_term,
    m_step,
    make_cyclic_blur,
    patch_index_map,
    pca_basis,
    posterior,
    psnr,
    psnr_per_band,
    remove_means,
    run_admm,
    sam,
    sharpen,
    solve_fixed_point,
    symbol_products,
    train_em,
    train_scene_denoiser,
    v3_update,
    wiener_filter,
)
from tests.conftest import train_random_denoiser
from tests.test_admm import TwoQuadratics

NO_CASE = {
    "ConfigError",
    "DimensionError",
    "DivergenceError",
    "MetricError",
    "PnpError",
    "SizeError",
    "StateError",
    "ImageGeometry",
    "PairParams",
    "SharpenParams",
    "SolveReport",  # its traces are lists of floats
    "generate_hs_scene",
    "generate_pair_scene",
    "make_decimation_mask",
    "make_kernel",
    "synthetic_image",
}

# the error each spoiled array raises under the boundary rule
RULE = {
    "0-d": DimensionError,
    "empty": DimensionError,
    "ndim": DimensionError,
    "nan": ConfigError,
}

# the malformed values each scalar argument is replaced by
BAD_SCALARS = {
    "str": "a", "None": None, "vector": np.ones(2), "nan": np.nan, "inf": np.inf
}


@dataclass(frozen=True)
class Case:
    """``call(**args(world))`` is one valid call."""

    call: Callable
    args: Callable[[SimpleNamespace], dict]
    arrays: tuple[str, ...] = ()
    scalars: tuple[str, ...] = ()  # real-valued arguments
    objects: tuple[str, ...] = ()  # arguments that take a package class
    # (argument, variant) -> the error an existing test or the rule pins
    pinned: dict = field(default_factory=dict)
    # argument -> a wrong-ndim value, where fewer axes would not be refused
    wrong: dict = field(default_factory=dict)


def metric_case(metric, **scalars):
    # "reference+estimate" spoils both alike, as in psnr(1.0, 2.0);
    # tests/test_metrics.py pins MetricError for empty and non-finite input,
    # and the scalar rule gives MetricError in the metrics (an infinite peak
    # once gave inf, a PSNR that was never computed)
    sides = ("reference", "estimate", "reference+estimate")
    pinned = {(s, v): MetricError for s in sides for v in ("empty", "nan")}
    return Case(
        metric,
        lambda w: dict(reference=w.cube, estimate=w.cube + 0.1, **scalars),
        arrays=sides,
        scalars=tuple(scalars),
        pinned=pinned | {(s, v): MetricError for s in scalars for v in BAD_SCALARS},
        wrong={"reference+estimate": np.ones((1, 3, 8))},
    )


def solve_with_identity(apply, adjoint, target, shape):
    return solve_fixed_point(
        DataTerm(apply, adjoint, target, shape), lambda v: v, SolverConfig(rho=0.3)
    )


def objective_at_the_solution(apply, adjoint, target, shape, reg_weight, w):
    # phi of ``w`` at the data term's fixed point with D = I
    term = DataTerm(apply, adjoint, target, shape)
    x = solve_fixed_point(term, lambda v: v, SolverConfig(rho=0.3))[0]
    return term.objective(x, reg_weight, w)


def patch_set_in_use(patches, patch_side, source_geometry):
    # an empty or non-finite patch set is refused where it is used
    return remove_means(PatchSet(patches, patch_side, source_geometry))


def admm_from(problem, config, init):
    return run_admm(problem, config, [init])


def scene_fields(scene):
    return {f.name: getattr(scene, f.name) for f in fields(scene)}


ZERO_D = np.array(1.0)

# tests/test_admm.py pins DivergenceError for a NaN target
SOLVE = Case(
    solve_with_identity,
    lambda w: dict(
        apply=lambda x: w.matrix @ x, adjoint=lambda r: w.matrix.T @ r,
        target=w.image, shape=(8,),
    ),
    arrays=("target",),
    pinned={("target", "nan"): DivergenceError},
)
BLUR = Case(
    blur_rows,
    lambda w: dict(x=w.coeffs, blur=w.hs.blur),
    arrays=("x",),
    objects=("blur",),
    wrong={"x": ZERO_D},
)

CASES = {
    "CyclicBlur": Case(
        CyclicBlur,
        lambda w: dict(psf=w.psf, geometry=w.geom, transfer=w.blur.transfer),
        arrays=("psf", "transfer"),
    ),
    # tests/test_admm.py pins DivergenceError for a NaN target
    "DataTerm": Case(
        objective_at_the_solution,
        lambda w: dict(
            apply=lambda x: x, adjoint=lambda r: r, target=w.image, shape=(w.geom.n,),
            reg_weight=1.0, w=w.explicit,
        ),
        arrays=("target",),
        scalars=("reg_weight",),
        objects=("w",),
        pinned={("target", "nan"): DivergenceError},
    ),
    "EmConfig": Case(
        EmConfig,
        lambda w: dict(n_components=2, noise_variance=0.01, loglik_rel_tol=1e-5),
        scalars=("noise_variance", "loglik_rel_tol"),
    ),
    "ExplicitW": Case(
        ExplicitW,
        lambda w: dict(
            matrix=w.explicit.matrix, eigenvalues=w.explicit.eigenvalues,
            basis=w.explicit.basis,
        ),
        arrays=("matrix", "eigenvalues", "basis"),
    ),
    # tests/test_gmm.py pins ConfigError for an empty mixture
    "GmmModel": Case(
        GmmModel,
        lambda w: dict(
            alphas=w.model.alphas, covariances=w.model.covariances, patch_side=2
        ),
        arrays=("alphas", "covariances"),
        pinned={("alphas", "empty"): ConfigError},
    ),
    "HsScene": Case(
        HsScene,
        lambda w: scene_fields(w.hs),
        arrays=("y_h", "y_m", "mask", "r", "z"),
        scalars=("sigma_h", "sigma_m"),
        objects=("blur",),
    ),
    "HsSceneSpec": Case(
        HsSceneSpec,
        lambda w: dict(
            geometry=w.geom, n_bands_hs=4, n_bands_ms=2, n_subspace_true=2,
            decimation=2, snr_h_db=30.0, snr_m_db=30.0,
        ),
        scalars=("snr_h_db", "snr_m_db"),
    ),
    "LinearDenoiser": Case(
        LinearDenoiser,
        lambda w: dict(
            model=w.model, weights=w.den.weights, noise_variance=0.05,
            geometry=w.geom,
        ),
        arrays=("weights",),
        scalars=("noise_variance",),
        objects=("model",),
    ),
    "PairScene": Case(
        PairScene,
        lambda w: scene_fields(w.pair),
        arrays=("y_b", "y_n", "truth"),
        scalars=("sigma_b", "sigma_n"),
        objects=("blur",),
    ),
    "PairSceneSpec": Case(
        PairSceneSpec,
        lambda w: dict(geometry=w.geom, kernel_id="delta", sigma_n=0.1, sigma_b=0.01),
        scalars=("sigma_n", "sigma_b"),
    ),
    "PatchSet": Case(
        patch_set_in_use,
        lambda w: dict(
            patches=w.raw.patches, patch_side=2, source_geometry=w.geom
        ),
        arrays=("patches",),
    ),
    "SolverConfig": Case(
        SolverConfig,
        lambda w: dict(rho=0.05, lam=0.5, tau=0.05, primal_tol=1e-6, dual_tol=1e-6),
        scalars=("rho", "lam", "tau", "primal_tol", "dual_tol"),
    ),
    "SubspaceBasis": Case(SubspaceBasis, lambda w: dict(e=w.basis.e), arrays=("e",)),
    "apply_blur": BLUR,
    "blur_rows": BLUR,
    "build_explicit_w": Case(
        build_explicit_w, lambda w: dict(denoiser=w.den), objects=("denoiser",)
    ),
    "deblur_pair": Case(
        deblur_pair,
        lambda w: dict(scene=w.pair, params=w.pair_params),
        objects=("scene",),
    ),
    "denoise_image_fixed": Case(
        denoise_image_fixed,
        lambda w: dict(image_band=w.image, denoiser=w.den),
        arrays=("image_band",),
        objects=("denoiser",),
    ),
    "denoise_image_mmse": Case(
        denoise_image_mmse,
        lambda w: dict(
            image_band=w.image, model=w.model, noise_variance=0.05, geometry=w.geom
        ),
        arrays=("image_band",),
        scalars=("noise_variance",),
        objects=("model", "geometry"),
    ),
    "eigt": Case(eigt, lambda w: dict(matrix=w.model.covariances), arrays=("matrix",)),
    "ergas": metric_case(ergas, resolution_ratio=2.0),
    "eval_phi": Case(
        eval_phi,
        lambda w: dict(x=w.explicit.basis[:, 0], w=w.explicit),
        arrays=("x",),
        objects=("w",),
    ),
    # tests/test_gmm.py pins ConfigError for an empty mixture
    "expansiveness_demo": Case(
        expansiveness_demo,
        lambda w: dict(
            small_variance=0.01, large_variance=1.0, noise_variance=0.1,
            alphas=np.array([0.3, 0.7]),
        ),
        arrays=("alphas",),
        scalars=("small_variance", "large_variance", "noise_variance"),
        pinned={("alphas", "empty"): ConfigError},
    ),
    "extract_patches": Case(
        extract_patches,
        lambda w: dict(image_band=w.image, geometry=w.geom, patch_side=2),
        arrays=("image_band",),
        objects=("geometry",),
    ),
    "forward_hs": Case(
        forward_hs,
        lambda w: dict(z=w.hs.z, scene=w.hs),
        arrays=("z",),
        objects=("scene",),
    ),
    "forward_ms": Case(
        forward_ms,
        lambda w: dict(z=w.hs.z, scene=w.hs),
        arrays=("z",),
        objects=("scene",),
    ),
    "hs_data_term": Case(
        hs_data_term,
        lambda w: dict(scene=w.hs, basis=w.basis, lam=0.5),
        scalars=("lam",),
        objects=("scene", "basis"),
    ),
    "m_step": Case(
        m_step,
        lambda w: dict(patches=w.patches, beta=w.beta, noise_variance=0.05),
        arrays=("beta",),
        scalars=("noise_variance",),
        objects=("patches",),
    ),
    "make_cyclic_blur": Case(
        make_cyclic_blur, lambda w: dict(psf=w.psf, geometry=w.geom), arrays=("psf",)
    ),
    "patch_index_map": Case(
        patch_index_map,
        lambda w: dict(geometry=w.geom, patch_side=2),
        objects=("geometry",),
    ),
    "pca_basis": Case(
        pca_basis, lambda w: dict(y_h=w.hs.y_h, n_dims=2), arrays=("y_h",)
    ),
    "posterior": Case(
        posterior,
        lambda w: dict(patches=w.patches, model=w.model, noise_variance=0.05),
        scalars=("noise_variance",),
        objects=("patches", "model"),
    ),
    "psnr": metric_case(psnr, peak=1.0),
    "psnr_per_band": metric_case(psnr_per_band, peak=1.0),
    "remove_means": Case(
        remove_means, lambda w: dict(patch_set=w.raw), objects=("patch_set",)
    ),
    "run_admm": Case(
        admm_from,
        lambda w: dict(
            problem=TwoQuadratics(w.image, 2 * w.image, 1.0),
            config=SolverConfig(rho=1.0, max_iters=20),
            init=np.zeros(w.geom.n),
        ),
        arrays=("init",),
        wrong={"init": ZERO_D},
    ),
    "sam": metric_case(sam),
    "sharpen": Case(
        sharpen,
        lambda w: dict(scene=w.hs, params=w.hs_params),
        objects=("scene",),
    ),
    "solve_fixed_point": SOLVE,
    "symbol_products": Case(
        symbol_products,
        lambda w: dict(band=w.coeffs, symbols=w.hs.blur.transfer),
        arrays=("band", "symbols"),
        wrong={"band": ZERO_D},
    ),
    "train_em": Case(
        train_em,
        lambda w: dict(patches=w.patches, config=w.em),
        objects=("patches", "config"),
    ),
    "train_scene_denoiser": Case(
        train_scene_denoiser,
        lambda w: dict(
            y_m=w.hs.y_m, geometry=w.hs.geometry, patch_side=2, em=w.em,
            denoiser_variance=0.05,
        ),
        arrays=("y_m",),
        scalars=("denoiser_variance",),
        objects=("geometry", "em"),
    ),
    "v3_update": Case(
        v3_update,
        lambda w: dict(x=w.coeffs, d3=0.5 * w.coeffs, den=None),
        arrays=("x", "d3"),
    ),
    "wiener_filter": Case(
        wiener_filter,
        lambda w: dict(covariance=w.model.covariances[0], noise_variance=0.05),
        arrays=("covariance",),
        scalars=("noise_variance",),
    ),
}


@pytest.fixture(scope="module")
def world():
    """Small valid inputs, shared by every call of the table."""
    geom = ImageGeometry(6, 6)
    rng = np.random.default_rng(5)
    den = train_random_denoiser(geom, 2, 2, seed=5, em_iters=3)
    hs = generate_hs_scene(
        HsSceneSpec(geom, 4, 2, 2, decimation=2, snr_h_db=30.0, snr_m_db=30.0, seed=5)
    )
    pair = generate_pair_scene(PairSceneSpec(geom, "delta", 0.1, 0.01, seed=5))
    em = EmConfig(n_components=2, noise_variance=0.01, max_iters=3)
    solver = SolverConfig(rho=0.05, lam=0.5, tau=0.05)
    image = rng.standard_normal(geom.n)
    raw = extract_patches(image, geom, 2)
    patches = remove_means(raw)
    basis = pca_basis(hs.y_h, 2)
    psf = np.full((3, 3), 1 / 9)
    return SimpleNamespace(
        geom=geom,
        den=den,
        model=den.model,
        explicit=build_explicit_w(den),
        hs=hs,
        pair=pair,
        em=em,
        hs_params=SharpenParams(2, 2, em, solver),
        pair_params=PairParams(2, em, solver),
        image=image,
        cube=rng.uniform(0.5, 1.0, size=(3, 8)),
        coeffs=rng.standard_normal((2, geom.n)),
        raw=raw,
        patches=patches,
        beta=posterior(patches, den.model, 0.05)[0],
        basis=basis,
        matrix=rng.standard_normal((geom.n, 8)),
        psf=psf,
        blur=make_cyclic_blur(psf, geom),
    )


def spoiled(value: np.ndarray, variant: str, wrong=None):
    """``value`` as the list or the malformed array of ``variant``."""
    if variant == "list":
        return value.tolist()
    if variant == "0-d":
        return ZERO_D
    if variant == "empty":
        return np.zeros((0,) + value.shape[1:], value.dtype)
    if variant == "ndim":
        if wrong is not None:
            return wrong
        return value.ravel() if value.ndim > 1 else value[None, None]
    bad = value.astype(np.result_type(value, float))  # "nan"
    bad.flat[0] = np.nan
    return bad


def same(a, b) -> bool:
    """Equal results: arrays equal in value and dtype, dataclasses field by
    field, sequences item by item."""
    if is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if isinstance(a, np.ndarray):
        b = np.asarray(b)
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def test_every_public_name_is_in_the_table():
    # a new export must say which arrays and scalars it takes, or that it
    # takes none
    assert len(pnpfusion.__all__) == 60
    assert NO_CASE.isdisjoint(CASES)
    assert set(pnpfusion.__all__) == NO_CASE | set(CASES)


@pytest.mark.parametrize(
    "name, argument",
    [(name, arg) for name, case in CASES.items() for arg in case.arrays],
)
def test_a_list_gives_the_array_result(world, name, argument):
    case = CASES[name]
    args = case.args(world)
    want = case.call(**args)
    for arg in argument.split("+"):
        args[arg] = spoiled(np.asarray(args[arg]), "list")
    assert same(want, case.call(**args))


@pytest.mark.parametrize(
    "name, argument, variant",
    [
        (name, arg, variant)
        for name, case in CASES.items()
        for arg in case.arrays
        for variant in RULE
    ],
)
def test_a_malformed_array_raises(world, name, argument, variant):
    case = CASES[name]
    args = case.args(world)
    for arg in argument.split("+"):
        args[arg] = spoiled(np.asarray(args[arg]), variant, case.wrong.get(argument))
    error = case.pinned.get((argument, variant), RULE[variant])
    with pytest.raises(error):
        case.call(**args)


@pytest.mark.parametrize(
    "name, argument, variant",
    [
        (name, arg, variant)
        for name, case in CASES.items()
        for arg in case.scalars
        for variant in BAD_SCALARS
    ],
)
def test_a_malformed_scalar_raises(world, name, argument, variant):
    case = CASES[name]
    args = case.args(world)
    args[argument] = BAD_SCALARS[variant]
    with pytest.raises(case.pinned.get((argument, variant), ConfigError)):
        case.call(**args)


@pytest.mark.parametrize(
    "name, argument",
    [(name, arg) for name, case in CASES.items() for arg in case.objects],
)
def test_a_list_for_a_package_object_raises(world, name, argument):
    case = CASES[name]
    args = case.args(world)
    args[argument] = [[0.0, 1.0]]
    with pytest.raises(ConfigError):
        case.call(**args)


@pytest.mark.parametrize("name", CASES)
def test_the_table_call_is_valid(world, name):
    # every variant above spoils one argument of this call, so an error
    # must come from that argument
    case = CASES[name]
    case.call(**case.args(world))
