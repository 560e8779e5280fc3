"""One table-driven test of the input boundary of every public name.

Each name in ``pnpfusion.__all__`` either takes no array, real-valued scalar,
count, flag or package object (``NO_CASE``) or has a ``CASES`` entry: one
valid call, built from small fixtures, and the names of its array arguments,
of its real-valued scalar arguments, of its count arguments with their
minimums, of its flags and of its arguments that take one of the package's
classes (a patch set, mixture, denoiser, blur, dense W, data term, basis,
scene, geometry, spec, config or params). A test reads each export's annotations,
so that no argument is left out of the column of its type. Each array
argument (or each pair joined by "+") is replaced in turn by

* a list of its values, which must give a result ``np.array_equal`` to the
  array's, of the same dtype;
* a 0-d array, an empty array, an array of the wrong ndim, an array that
  holds NaN and a complex array, each of which must raise the ``PnpError``
  subclass of the package's boundary rule (``pnpfusion.errors``), or the one
  an existing test pins; only a circulant's symbol may be complex;

each scalar argument by ``"a"``, None, a 2-vector, NaN and inf, each of
which must raise :class:`ConfigError`, or :class:`MetricError` in the
metrics; each count argument by 2.0, 2.5, NaN, True, ``"a"``, None and its
minimum - 1, each of which must raise :class:`ConfigError`, or
:class:`DimensionError` for grid extents and patch sides; each flag by
``"False"``, 0, 1.0 and None, and each argument of a package class by a list,
each of which must raise :class:`ConfigError`. Every error but a flag's must
name the spoiled argument as a whole word, except the array items in
``PENDING``.
"""

import inspect
import re
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
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
    eigt,
    ergas,
    eval_phi,
    extract_patches,
    generate_hs_scene,
    generate_pair_scene,
    hs_data_term,
    m_step,
    make_decimation_mask,
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
    synthetic_image,
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
    "SolveReport",  # an output record (EXEMPT)
    "make_kernel",  # takes a kernel name
}

# (export, argument) left out of the column its annotation names, or of
# every column though it has no annotation
EXEMPT = {
    # the solvers fill the record and nothing reads it back
    ("SolveReport", "iterations_run"),
    ("SolveReport", "converged"),
    ("SolveReport", "final_primal"),
    ("SolveReport", "final_dual"),
    # set by remove_means, not by a caller
    ("PatchSet", "means"),
    # a list of arrays, whose one array the table spoils as ``init``
    ("run_admm", "init_v"),
    # three callables
    ("solve_fixed_point", "denoise"),
    ("solve_fixed_point", "precondition"),
    ("solve_fixed_point", "g_inverse"),
}

# the error each spoiled array raises under the boundary rule
RULE = {
    "0-d": DimensionError,
    "empty": DimensionError,
    "ndim": DimensionError,
    "nan": ConfigError,
    "complex": ConfigError,
}

# (export, argument, variant) whose spoiled array raises an error that does
# not name it yet: most name the callee's parameter it is passed on as
PENDING = {
    *(("wiener_filter", "covariance", v) for v in RULE),  # "matrix"
    ("GmmModel", "alphas", "empty"),
    ("PatchSet", "patches", "empty"),  # "the patch set is empty"
    ("extract_patches", "image_band", "nan"),  # "patches must be finite"
}

# the one array argument that may be complex: a circulant's symbol, such as a
# blur's transfer
COMPLEX = {("symbol_products", "symbols")}

# the malformed values each scalar argument is replaced by
BAD_SCALARS = {
    "str": "a", "None": None, "vector": np.ones(2), "nan": np.nan, "inf": np.inf
}


# the values each flag is replaced by: a string such as "False" was once
# taken at its truth value
BAD_FLAGS = {"str": "False", "int": 0, "float": 1.0, "None": None}


def bad_counts(minimum: int) -> dict:
    """The malformed values each count argument of that minimum is replaced by."""
    return {
        "2.0": 2.0, "2.5": 2.5, "nan": np.nan, "True": True, "str": "a",
        "None": None, "below": minimum - 1,
    }


def names(error: Exception, argument: str) -> bool:
    """Whether the error's message holds ``argument`` as a whole word: a
    one-letter name such as x is found inside "complex128" otherwise."""
    return re.search(rf"\b{re.escape(argument)}\b", str(error)) is not None


@dataclass(frozen=True)
class Case:
    """``call(**args(world))`` is one valid call."""

    call: Callable
    args: Callable[[SimpleNamespace], dict]
    arrays: tuple[str, ...] = ()
    scalars: tuple[str, ...] = ()  # real-valued arguments
    counts: dict = field(default_factory=dict)  # count argument -> its minimum
    flags: tuple[str, ...] = ()  # bool arguments
    objects: tuple[str, ...] = ()  # arguments that take a package class
    # (argument, variant) -> the error an existing test or the rule pins
    pinned: dict = field(default_factory=dict)
    # argument -> a wrong-ndim value, where fewer axes would not be refused
    wrong: dict = field(default_factory=dict)
    # argument of a wrapper -> the export's name for it, which errors give
    own: dict = field(default_factory=dict)


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


def grid_counts(*names) -> dict:
    # the count rule raises DimensionError for grid extents and patch sides
    return {(name, v): DimensionError for name in names for v in bad_counts(1)}


def solve_with_identity(data, target, config):
    # ``target`` stands in for the data term's, so the table spoils both
    data = replace(data, target=target) if isinstance(data, DataTerm) else data
    return solve_fixed_point(data, lambda v: v, config)


def objective_at_the_solution(apply, adjoint, target, shape, reg_weight, w):
    # phi of ``w`` at the data term's fixed point with D = I
    term = DataTerm(apply, adjoint, target, shape)
    x = solve_fixed_point(term, lambda v: v, SolverConfig(rho=0.3))[0]
    return term.objective(x, reg_weight, w)


def patch_set_in_use(patches, source_geometry):
    # an empty or non-finite patch set is refused where it is used
    return remove_means(PatchSet(patches, source_geometry))


def admm_from(problem, config, init):
    return run_admm(problem, config, [init])


def sharpen_with(scene, n_subspace, patch_side, em, solver, pure_linear):
    # the counts of the params are checked where sharpen uses them
    params = SharpenParams(n_subspace, patch_side, em, solver, pure_linear)
    return sharpen(scene, params)


def deblur_with(scene, patch_side, em, solver, pure_linear):
    return deblur_pair(scene, PairParams(patch_side, em, solver, pure_linear))


def scene_fields(scene):
    return {f.name: getattr(scene, f.name) for f in fields(scene)}


ZERO_D = np.array(1.0)

# tests/test_admm.py pins DivergenceError for a NaN target
SOLVE = Case(
    solve_with_identity,
    lambda w: dict(
        data=DataTerm(lambda x: w.matrix @ x, lambda r: w.matrix.T @ r, w.image, (8,)),
        target=w.image, config=SolverConfig(rho=0.3),
    ),
    arrays=("target",),
    objects=("data", "config"),
    pinned={("target", "nan"): DivergenceError},
)
BLUR = Case(
    blur_rows,
    lambda w: dict(x=w.coeffs, blur=w.hs.blur, adjoint=False),
    arrays=("x",),
    flags=("adjoint",),
    objects=("blur",),
    wrong={"x": ZERO_D},
)

CASES = {
    "CyclicBlur": Case(
        CyclicBlur,
        lambda w: dict(psf=w.psf, geometry=w.geom),
        arrays=("psf",),
        objects=("geometry",),
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
        lambda w: dict(
            n_components=2, noise_variance=0.01, max_iters=3, loglik_rel_tol=1e-5,
            seed=0,
        ),
        scalars=("noise_variance", "loglik_rel_tol"),
        counts={"n_components": 1, "max_iters": 1, "seed": 0},
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
        lambda w: dict(alphas=w.model.alphas, covariances=w.model.covariances),
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
            decimation=2, snr_h_db=30.0, snr_m_db=30.0, seed=5,
        ),
        scalars=("snr_h_db", "snr_m_db"),
        counts={
            "n_bands_hs": 1, "n_bands_ms": 1, "n_subspace_true": 1, "decimation": 1,
            "seed": 0,
        },
        objects=("geometry",),
    ),
    "ImageGeometry": Case(
        ImageGeometry,
        lambda w: dict(height=6, width=6),
        counts={"height": 1, "width": 1},
        pinned=grid_counts("height", "width"),
    ),
    "LinearDenoiser": Case(
        LinearDenoiser,
        lambda w: dict(
            model=w.model, weights=w.den.weights, noise_variance=0.05,
            geometry=w.geom, pure_linear=False,
        ),
        arrays=("weights",),
        scalars=("noise_variance",),
        flags=("pure_linear",),
        objects=("model", "geometry"),
    ),
    "PairParams": Case(
        deblur_with,
        lambda w: dict(
            scene=w.pair, patch_side=2, em=w.em, solver=w.solver, pure_linear=False
        ),
        counts={"patch_side": 1},
        flags=("pure_linear",),
        objects=("em", "solver"),
        pinned=grid_counts("patch_side"),
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
        lambda w: dict(
            geometry=w.geom, kernel_id="delta", sigma_n=0.1, sigma_b=0.01, seed=5
        ),
        scalars=("sigma_n", "sigma_b"),
        counts={"seed": 0},
        objects=("geometry",),
    ),
    "PatchSet": Case(
        patch_set_in_use,
        lambda w: dict(patches=w.raw.patches, source_geometry=w.geom),
        arrays=("patches",),
        objects=("source_geometry",),
    ),
    "SharpenParams": Case(
        sharpen_with,
        lambda w: dict(
            scene=w.hs, n_subspace=2, patch_side=2, em=w.em, solver=w.solver,
            pure_linear=False,
        ),
        counts={"n_subspace": 1, "patch_side": 1},
        flags=("pure_linear",),
        objects=("em", "solver"),
        pinned=grid_counts("patch_side"),
    ),
    "SolverConfig": Case(
        SolverConfig,
        lambda w: dict(
            rho=0.05, lam=0.5, tau=0.05, max_iters=20, primal_tol=1e-6, dual_tol=1e-6
        ),
        scalars=("rho", "lam", "tau", "primal_tol", "dual_tol"),
        counts={"max_iters": 1},
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
        objects=("scene", "params"),
    ),
    "denoise_image_fixed": Case(
        denoise_image_fixed,
        lambda w: dict(image_band=w.image, denoiser=w.den),
        arrays=("image_band",),
        objects=("denoiser",),
    ),
    "eigt": Case(eigt, lambda w: dict(matrix=w.model.covariances), arrays=("matrix",)),
    "ergas": metric_case(ergas, resolution_ratio=2.0),
    "eval_phi": Case(
        eval_phi,
        lambda w: dict(x=w.explicit.basis[:, 0], w=w.explicit),
        arrays=("x",),
        objects=("w",),
    ),
    "extract_patches": Case(
        extract_patches,
        lambda w: dict(image_band=w.image, geometry=w.geom, patch_side=2),
        arrays=("image_band",),
        counts={"patch_side": 1},
        objects=("geometry",),
        pinned=grid_counts("patch_side"),
    ),
    "generate_hs_scene": Case(
        generate_hs_scene, lambda w: dict(spec=w.hs_spec), objects=("spec",)
    ),
    "generate_pair_scene": Case(
        generate_pair_scene, lambda w: dict(spec=w.pair_spec), objects=("spec",)
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
    "make_decimation_mask": Case(
        make_decimation_mask,
        lambda w: dict(geometry=w.geom, d=2),
        counts={"d": 1},
        objects=("geometry",),
    ),
    "patch_index_map": Case(
        patch_index_map,
        lambda w: dict(geometry=w.geom, patch_side=2),
        counts={"patch_side": 1},
        objects=("geometry",),
        pinned=grid_counts("patch_side"),
    ),
    "pca_basis": Case(
        pca_basis,
        lambda w: dict(y_h=w.hs.y_h, n_dims=2),
        arrays=("y_h",),
        counts={"n_dims": 1},
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
        objects=("problem", "config"),
        wrong={"init": ZERO_D},
        own={"init": "init_v"},
    ),
    "sam": metric_case(sam),
    "sharpen": Case(
        sharpen,
        lambda w: dict(scene=w.hs, params=w.hs_params),
        objects=("scene", "params"),
    ),
    "solve_fixed_point": SOLVE,
    "symbol_products": Case(
        symbol_products,
        lambda w: dict(band=w.coeffs, symbols=w.hs.blur.transfer),
        arrays=("band", "symbols"),
        wrong={"band": ZERO_D},
    ),
    "synthetic_image": Case(
        synthetic_image, lambda w: dict(geometry=w.geom), objects=("geometry",)
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
            denoiser_variance=0.05, pure_linear=False,
        ),
        arrays=("y_m",),
        scalars=("denoiser_variance",),
        counts={"patch_side": 1},
        flags=("pure_linear",),
        objects=("geometry", "em"),
        pinned=grid_counts("patch_side"),
    ),
    "v3_update": Case(
        v3_update,
        lambda w: dict(x=w.coeffs, d3=0.5 * w.coeffs, den=None),
        arrays=("x", "d3"),
        objects=("den",),
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
    hs_spec = HsSceneSpec(
        geom, 4, 2, 2, decimation=2, snr_h_db=30.0, snr_m_db=30.0, seed=5
    )
    pair_spec = PairSceneSpec(geom, "delta", 0.1, 0.01, seed=5)
    hs = generate_hs_scene(hs_spec)
    pair = generate_pair_scene(pair_spec)
    em = EmConfig(n_components=2, noise_variance=0.01, max_iters=3)
    solver = SolverConfig(rho=0.05, lam=0.5, tau=0.05)
    image = rng.standard_normal(geom.n)
    raw = extract_patches(image, geom, 2)
    patches = remove_means(raw)
    basis = pca_basis(hs.y_h, 2)
    return SimpleNamespace(
        geom=geom,
        den=den,
        model=den.model,
        explicit=build_explicit_w(den),
        hs_spec=hs_spec,
        pair_spec=pair_spec,
        hs=hs,
        pair=pair,
        em=em,
        solver=solver,
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
        psf=np.full((3, 3), 1 / 9),
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
    if variant == "complex":
        return value + 1j
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
    # a new export must say which arrays, scalars, counts and package objects
    # it takes, or that it takes none
    assert len(pnpfusion.__all__) == 55
    assert NO_CASE.isdisjoint(CASES)
    assert set(pnpfusion.__all__) == NO_CASE | set(CASES)


def column_of(hint) -> str | None:
    """The table column an annotation belongs to: ``X | None`` counts as X,
    and str, callables and tuples belong to none."""
    if isinstance(hint, types.UnionType) or typing.get_origin(hint) is typing.Union:
        kept = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        hint = kept[0] if len(kept) == 1 else hint
    if hint is np.ndarray:
        return "arrays"
    if hint is float:
        return "scalars"
    if hint is int:
        return "counts"
    if hint is bool:
        return "flags"
    if isinstance(hint, type) and hint.__module__.startswith("pnpfusion."):
        return "objects"
    return None


def parameters(export) -> list[str]:
    """The fields of a dataclass, or the parameters of a function."""
    if is_dataclass(export):
        return [f.name for f in fields(export)]
    return list(inspect.signature(export).parameters)


def test_every_annotated_argument_is_in_its_column():
    # an argument annotated np.ndarray, float, int, bool or a package class
    # must sit in the column of its annotation, and an unannotated one in some
    # column, unless EXEMPT says why not
    missing, seen = [], set()
    for name in pnpfusion.__all__:
        export = getattr(pnpfusion, name)
        if isinstance(export, type) and issubclass(export, Exception):
            continue  # an error takes its message
        hints = typing.get_type_hints(export)
        case = CASES.get(name, Case(None, None))
        columns = {
            "arrays": {a for arg in case.arrays for a in arg.split("+")},
            "scalars": set(case.scalars),
            "counts": set(case.counts),
            "flags": set(case.flags),
            "objects": set(case.objects),
        }
        for arg in parameters(export):
            seen.add((name, arg))
            if (name, arg) in EXEMPT:
                continue
            if arg in hints:
                column = column_of(hints[arg])
                if column is not None and arg not in columns[column]:
                    missing.append(f"{name}.{arg} -> {column}")
            elif not any(arg in names for names in columns.values()):
                missing.append(f"{name}.{arg} is unannotated")
    assert missing == []
    assert EXEMPT <= seen  # no stale entry


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
        if not (variant == "complex" and (name, arg) in COMPLEX)
    ],
)
def test_a_malformed_array_raises(world, name, argument, variant):
    case = CASES[name]
    args = case.args(world)
    for arg in argument.split("+"):
        args[arg] = spoiled(np.asarray(args[arg]), variant, case.wrong.get(argument))
    error = case.pinned.get((argument, variant), RULE[variant])
    with pytest.raises(error) as raised:
        case.call(**args)
    # refused by its own name, or by one of a pair; a PENDING item that
    # comes to name it must leave the set
    named = any(
        names(raised.value, case.own.get(arg, arg)) for arg in argument.split("+")
    )
    assert named != ((name, argument, variant) in PENDING)


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
    with pytest.raises(case.pinned.get((argument, variant), ConfigError)) as error:
        case.call(**args)
    assert names(error.value, argument)  # refused by its own name


@pytest.mark.parametrize(
    "name, argument, variant",
    [
        (name, arg, variant)
        for name, case in CASES.items()
        for arg, minimum in case.counts.items()
        for variant in bad_counts(minimum)
    ],
)
def test_a_malformed_count_raises(world, name, argument, variant):
    case = CASES[name]
    args = case.args(world)
    args[argument] = bad_counts(case.counts[argument])[variant]
    with pytest.raises(case.pinned.get((argument, variant), ConfigError)) as error:
        case.call(**args)
    assert names(error.value, argument)  # refused by its own name


@pytest.mark.parametrize(
    "name, argument, variant",
    [
        (name, arg, variant)
        for name, case in CASES.items()
        for arg in case.flags
        for variant in BAD_FLAGS
    ],
)
def test_a_flag_that_is_not_a_bool_raises(world, name, argument, variant):
    case = CASES[name]
    args = case.args(world)
    args[argument] = BAD_FLAGS[variant]
    with pytest.raises(ConfigError):
        case.call(**args)


@pytest.mark.parametrize(
    "name, argument",
    [(name, arg) for name, case in CASES.items() for arg in case.objects],
)
def test_a_list_for_a_package_object_raises(world, name, argument):
    case = CASES[name]
    args = case.args(world)
    args[argument] = [[0.0, 1.0]]
    with pytest.raises(ConfigError) as error:
        case.call(**args)
    assert names(error.value, argument)  # refused by its own name


@pytest.mark.parametrize("name", CASES)
def test_the_table_call_is_valid(world, name):
    # every variant above spoils one argument of this call, so an error
    # must come from that argument
    case = CASES[name]
    case.call(**case.args(world))
