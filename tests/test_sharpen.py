import importlib
import json
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np
import pytest

from pnpfusion.admm import (
    FIXED_POINT_RTOL, SolverConfig, preconditioner_symbol, solve_fixed_point
)
from pnpfusion.denoiser import build_explicit_w, denoise_image_fixed
from pnpfusion.errors import ConfigError, DimensionError
from pnpfusion.fftops import CyclicBlur, blur_rows, symbol_products
from pnpfusion.gmm import EmConfig, train_em
from pnpfusion.metrics import psnr
from pnpfusion.patches import ImageGeometry
from pnpfusion.scenes import HsSceneSpec, generate_hs_scene
from pnpfusion.sharpen import (
    HsScene,
    SharpenParams,
    SubspaceBasis,
    hs_data_term,
    hs_normal_symbol,
    make_decimation_mask,
    pca_basis,
    run_salsa_hs,
    sharpen,
    solve_hs,
    train_scene_denoiser,
    v3_update,
)
from tests.conftest import (
    both_solves,
    chan_symbol,
    clean_observations,
    mmse_map,
    relative_error,
    scene_16,
    train_random_denoiser,
    trained_denoiser,
)
from tests.test_fftops import dense_blur_matrix_oracle

# the package's ``sharpen`` attribute is the pipeline function
sharpen_module = importlib.import_module("pnpfusion.sharpen")


def tiny_scene(seed=3, height=8, width=8, l_h=6, l_m=2, l_s=2, d=2, snr=35.0):
    spec = HsSceneSpec(
        geometry=ImageGeometry(height, width),
        n_bands_hs=l_h,
        n_bands_ms=l_m,
        n_subspace_true=l_s,
        decimation=d,
        snr_h_db=snr,
        snr_m_db=snr,
        seed=seed,
    )
    return generate_hs_scene(spec)


def identity_scene(l_h=4, side=6, noise=False):
    """Delta blur, all-ones mask, identity R: observations see Z directly."""
    geom = ImageGeometry(side, side)
    rng = np.random.default_rng(0)
    e_true, _ = np.linalg.qr(rng.standard_normal((l_h, 2)))
    x_true = np.vstack(
        [np.linspace(0.5, 1.5, geom.n), np.sin(np.linspace(0, 3, geom.n))]
    )
    z = e_true @ x_true
    blur = CyclicBlur(np.ones((1, 1)), geom)
    mask = make_decimation_mask(geom, 1)
    return HsScene(
        y_h=z.copy(),
        y_m=z.copy(),
        blur=blur,
        mask=mask,
        r=np.eye(l_h),
        sigma_h=0.0,
        sigma_m=1e-3,
        z=z,
    )


def scene_with_mask(mask):
    """A two-band 4x4 scene that keeps the pixels of ``mask``."""
    geom = ImageGeometry(4, 4)
    return HsScene(
        y_h=np.zeros((2, int(mask.sum()))),
        y_m=np.zeros((1, geom.n)),
        blur=CyclicBlur(np.ones((1, 1)), geom),
        mask=mask,
        r=np.ones((1, 2)),
        sigma_h=0.0,
        sigma_m=0.1,
    )


@dataclass(frozen=True)
class SolveCase:
    """A scene for the solver tests: its basis, data weight lam, and the EM
    settings of the denoiser trained on it."""

    scene: HsScene
    basis: SubspaceBasis
    lam: float
    patch_side: int
    n_components: int
    em_iters: int

    def denoiser(self, rho, tau, pure_linear=True):
        return trained_denoiser(
            self.scene, rho, tau, pure_linear,
            self.patch_side, self.n_components, self.em_iters,
        )

    def params(self, solver):
        """The pipeline settings that train :meth:`denoiser` on this basis."""
        em = EmConfig(
            self.n_components, self.scene.sigma_m**2, max_iters=self.em_iters, seed=0
        )
        return SharpenParams(self.basis.dim, self.patch_side, em, solver)


def hs_case(seed=17, lam=0.5, **scene_args):
    scene = tiny_scene(seed=seed, **scene_args)
    return SolveCase(scene, pca_basis(scene.y_h, 2), lam, 2, 2, 12)


def pair_case(seed=11, kernel="gauss8", lam=0.3):
    """Pair deblurring: the pair's one-band scene (E = R = 1, all-ones mask)
    on the 1x1 basis, the one that ``sharpen``'s PCA finds for one band."""
    scene = scene_16(seed=seed, kernel=kernel).hs_scene
    return SolveCase(scene, SubspaceBasis(np.ones((1, 1))), lam, 4, 3, 15)


class TestMask:
    def test_make_keeps_every_dth_row_and_column(self):
        geom = ImageGeometry(8, 12)
        for d in (1, 2, 3, 4):
            mask = make_decimation_mask(geom, d)
            kept = np.argwhere(geom.to_grid(mask)).tolist()
            assert kept == [[r, c] for r in range(0, 8, d) for c in range(0, 12, d)]

    def test_empty_mask_allowed(self):
        scene = scene_with_mask(np.zeros(16, dtype=int))
        assert scene.masked_indices.size == 0

    @pytest.mark.parametrize("length", [15, 17])
    def test_misshapen_mask_rejected(self, length):
        mask = np.zeros(length, dtype=int)
        mask[0] = 1
        with pytest.raises(DimensionError):
            scene_with_mask(mask)


@pytest.mark.parametrize("field", ["y_h", "y_m", "r"])
@pytest.mark.parametrize("value", [np.inf])  # NaN: tests/test_boundaries.py
def test_non_finite_scene_input_raises(field, value):
    # a NaN in y_h once surfaced as LinAlgError from pca_basis's SVD, and one
    # in y_m as "Probabilities contain NaN" from EM's k-means++ draw
    scene = tiny_scene()
    bad = getattr(scene, field).copy()
    bad[0, 1] = value
    with pytest.raises(ConfigError):
        replace(scene, **{field: bad})


@pytest.mark.parametrize(
    "geom,built_for",
    [
        pytest.param(ImageGeometry(8, 8), ImageGeometry(4, 4), id="smaller"),
    ],
)
def test_blur_built_on_another_grid_raises(geom, built_for):
    # once leaked numpy's "operands could not be broadcast" from the solve;
    # the scene's grid is its blur's, so arrays sized for another are refused
    with pytest.raises(DimensionError):
        HsScene(
            y_h=np.zeros((2, geom.n)),
            y_m=np.zeros((1, geom.n)),
            blur=CyclicBlur(np.ones((1, 1)), built_for),
            mask=make_decimation_mask(geom, 1),
            r=np.ones((1, 2)),
            sigma_h=0.0,
            sigma_m=0.1,
        )


@pytest.mark.parametrize("shape", [(2,), (1, 2, 1)], ids=["1d", "3d"])
def test_response_that_is_not_a_matrix_raises(shape):
    # a 1-D R once leaked IndexError, and a (1, 2, 1) R was accepted
    scene = scene_with_mask(np.ones(16, dtype=int))
    with pytest.raises(DimensionError):
        replace(scene, r=np.ones(shape))


@pytest.mark.parametrize("field", ["mask", "y_h"])
def test_list_input_is_read_as_an_array(field):
    # a list mask or y_h once leaked AttributeError
    scene = scene_with_mask(make_decimation_mask(ImageGeometry(4, 4), 2))
    listed = replace(scene, **{field: getattr(scene, field).tolist()})
    assert isinstance(getattr(listed, field), np.ndarray)
    np.testing.assert_array_equal(getattr(listed, field), getattr(scene, field))
    # a float array is taken as it is
    assert listed.y_m is scene.y_m


@pytest.mark.parametrize("sigma", ["sigma_h", "sigma_m"])
@pytest.mark.parametrize("value", [-1.0])  # NaN, inf: tests/test_boundaries.py
def test_bad_noise_level_raises(sigma, value):
    geom = ImageGeometry(4, 4)
    with pytest.raises(ConfigError):
        HsScene(
            y_h=np.zeros((2, geom.n)),
            y_m=np.zeros((1, geom.n)),
            blur=CyclicBlur(np.ones((1, 1)), geom),
            mask=make_decimation_mask(geom, 1),
            r=np.ones((1, 2)),
            **{"sigma_h": 0.0, "sigma_m": 0.1, sigma: value},
        )


CFG = SolverConfig(rho=0.1, lam=0.5, tau=0.05)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda s, b: hs_data_term(s, b, 0.5), id="hs_data_term"),
        pytest.param(lambda s, b: hs_normal_symbol(s, b, 0.5), id="hs_normal_symbol"),
        pytest.param(lambda s, b: solve_hs(s, b, None, CFG), id="solve_hs"),
        pytest.param(lambda s, b: run_salsa_hs(s, b, None, CFG), id="run_salsa_hs"),
    ],
)
@pytest.mark.parametrize("rows", [5, 7])
def test_basis_for_another_band_count_raises(call, rows):
    # once leaked numpy's matmul ValueError; tiny_scene has 6 HS bands
    e = np.linalg.qr(np.random.default_rng(1).standard_normal((rows, 2)))[0]
    with pytest.raises(DimensionError):
        call(tiny_scene(), SubspaceBasis(e))


def test_list_basis_is_read_as_an_array():
    # a list once raised AttributeError
    e = [[1.0], [0.0]]
    basis = SubspaceBasis(e)
    assert basis.dim == 1
    np.testing.assert_array_equal(basis.e, np.array(e))


@pytest.mark.parametrize(
    "shape", [(6,), (6, 0), (1, 0), (0, 2), (6, 2, 1)], ids=str
)
def test_basis_that_is_not_a_nonempty_matrix_raises(shape):
    # a 1-D basis once raised IndexError in hs_data_term, and a (1, 0) one
    # built a data term on (0, n) coefficients
    with pytest.raises(DimensionError):
        SubspaceBasis(np.ones(shape))


@pytest.mark.parametrize("value", [np.inf])  # NaN: tests/test_boundaries.py
def test_non_finite_basis_raises(value):
    # once surfaced as DivergenceError("non-finite right-hand side")
    e = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 2)))[0]
    e[3, 1] = value
    with pytest.raises(ConfigError):
        SubspaceBasis(e)


@pytest.mark.parametrize(
    "mix", [2.0 * np.eye(2), 0.5 * np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])],
    ids=["scaled-2", "scaled-half", "skewed"],
)
def test_basis_that_is_not_orthonormal_raises(mix):
    # hs_normal_symbol reads E^T E as I: on hs-sharpen's scene 0 at seed 11
    # these bases of the PCA subspace once took 23, 20 and 17 applications
    # of D where the PCA basis takes 13
    e = pca_basis(tiny_scene().y_h, 2).e
    with pytest.raises(ConfigError, match="e must have orthonormal columns"):
        SubspaceBasis(e @ mix)


@pytest.mark.parametrize("lam", [-0.1])  # NaN, inf: tests/test_boundaries.py
def test_data_term_refuses_a_bad_lam(lam):
    # a negative or NaN lam once gave a NaN target and a RuntimeWarning
    scene = tiny_scene()
    with pytest.raises(ConfigError):
        hs_data_term(scene, pca_basis(scene.y_h, 2), lam)


@pytest.mark.parametrize("shape", [(3, 64), (64,), (1, 2, 64)], ids=str)
def test_objective_of_a_misshapen_x_raises(shape):
    # the term's x is (2, 64); a (3, 64) x once leaked numpy's matmul
    # ValueError, and a (64,) or (1, 2, 64) x IndexError, from apply
    scene = tiny_scene()
    term = hs_data_term(scene, pca_basis(scene.y_h, 2), 0.5)
    assert term.shape == (2, 64)
    with pytest.raises(DimensionError):
        term.objective(np.zeros(shape), 0.0)


@pytest.mark.parametrize("solve", [solve_hs, run_salsa_hs])
@pytest.mark.parametrize(
    "built_for",
    [
        pytest.param(ImageGeometry(4, 4), id="smaller"),
        pytest.param(ImageGeometry(8, 4), id="transposed"),
    ],
)
def test_denoiser_built_on_another_grid_raises(solve, built_for):
    # solve_hs once leaked numpy's "operands could not be broadcast", and
    # run_salsa_hs ran a transposed grid's denoiser, whose pixel count fits
    scene = tiny_scene(height=4, width=8)
    den = train_random_denoiser(built_for, 2, 2, seed=1)
    with pytest.raises(DimensionError):
        solve(scene, pca_basis(scene.y_h, 2), den, CFG)


@pytest.mark.parametrize(
    "make", [pytest.param(hs_case, id="hs"), pytest.param(pair_case, id="pair")]
)
def test_a_callable_v3_step_is_run_as_the_denoiser_is(make):
    # the paper's claims pass the re-estimating MMSE map as a callable
    case = make()
    den = case.denoiser(0.1, 0.05)
    cfg = SolverConfig(rho=0.1, lam=case.lam, tau=0.05, max_iters=40)
    x, report = run_salsa_hs(case.scene, case.basis, den, cfg)
    x_call, report_call = run_salsa_hs(
        case.scene, case.basis, lambda v: denoise_image_fixed(v, den), cfg
    )
    np.testing.assert_array_equal(x_call, x)
    assert asdict(report_call) == asdict(report)


def test_the_mmse_map_is_a_v3_step_on_a_two_band_basis():
    # the map freezes one band-mean posterior per call, so it takes the
    # (2, n) coefficient stack
    case = hs_case()
    den = case.denoiser(0.1, 0.05)
    cfg = SolverConfig(rho=0.1, lam=case.lam, tau=0.05, max_iters=5)
    x, report = run_salsa_hs(
        case.scene,
        case.basis,
        lambda v: mmse_map(v, den.model, den.noise_variance, den.geometry),
        cfg,
    )
    assert x.shape == (2, case.scene.geometry.n) and np.all(np.isfinite(x))
    assert report.iterations_run == 5


@pytest.mark.parametrize(
    "solve, step, error",
    [
        pytest.param(run_salsa_hs, [[0.0, 1.0]], ConfigError, id="run_salsa_hs-list"),
        pytest.param(solve_hs, [[0.0, 1.0]], ConfigError, id="solve_hs-list"),
        # GMRES needs D linear and its circulant part
        pytest.param(solve_hs, lambda v: v, ConfigError, id="solve_hs-callable"),
        # a callable's output once leaked AttributeError ('float' object has
        # no attribute 'shape') and numpy's broadcast ValueError
        pytest.param(
            run_salsa_hs, lambda v: float(v.mean()), ConfigError,
            id="run_salsa_hs-returns-a-float",
        ),
        pytest.param(
            run_salsa_hs, lambda v: v.T, DimensionError,
            id="run_salsa_hs-returns-the-transpose",
        ),
    ],
)
def test_a_v3_step_of_another_kind_raises(solve, step, error):
    scene = tiny_scene()
    with pytest.raises(error):
        solve(scene, pca_basis(scene.y_h, 2), step, CFG)


class TestForwardModels:
    # the observation model is hs_data_term's; with E = I and lam = 1 it maps
    # a cube to its clean observations (Z B M, R Z)
    def test_delta_blur_full_mask_is_copy(self):
        scene = identity_scene()
        hs = clean_observations(scene.z, scene)[0]
        np.testing.assert_allclose(hs, scene.z, atol=1e-12)

    def test_constant_bands_blur_invariant(self):
        scene = tiny_scene()
        const = np.outer(np.arange(1.0, 7.0), np.ones(scene.geometry.n))
        out = clean_observations(const, scene)[0]
        np.testing.assert_allclose(
            out, np.outer(np.arange(1.0, 7.0), np.ones(out.shape[1])), rtol=1e-10
        )

    def test_forward_hs_matches_dense_construction(self):
        scene = tiny_scene()
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, scene.geometry.n))
        b = dense_blur_matrix_oracle(scene.blur.psf, scene.geometry)
        # rows are blurred: row -> b @ row, then masked columns kept
        expected = (z @ b.T)[:, scene.masked_indices]
        hs = clean_observations(z, scene)[0]
        np.testing.assert_allclose(hs, expected, atol=1e-10)

    def test_forward_ms_identity_r(self):
        scene = identity_scene()
        ms = clean_observations(scene.z, scene)[1]
        np.testing.assert_allclose(ms, scene.z, atol=1e-14)

    def test_forward_ms_pan_average_of_constant(self):
        scene = tiny_scene(l_m=1)
        const = np.full((6, scene.geometry.n), 2.0)
        ms = clean_observations(const, scene)[1]
        np.testing.assert_allclose(ms, 2.0, rtol=1e-12)

    def test_forward_ms_matches_dense_multiply(self):
        scene = tiny_scene()
        rng = np.random.default_rng(2)
        z = rng.standard_normal((6, scene.geometry.n))
        ms = clean_observations(z, scene)[1]
        np.testing.assert_allclose(ms, scene.r @ z, atol=1e-12)


class TestPcaBasis:
    def test_rank_one_data(self):
        rng = np.random.default_rng(3)
        direction = rng.standard_normal(5)
        y = np.outer(direction, rng.standard_normal(20))
        basis = pca_basis(y, 1)
        recon = basis.e @ (basis.e.T @ y)
        np.testing.assert_allclose(recon, y, atol=1e-10)

    def test_identity_data_full_basis(self):
        basis = pca_basis(np.eye(4), 4)
        np.testing.assert_allclose(basis.e.T @ basis.e, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(basis.e @ basis.e.T, np.eye(4), atol=1e-10)

    def test_residual_matches_tail_singular_values(self):
        rng = np.random.default_rng(4)
        low = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 30))
        y = low + 0.05 * rng.standard_normal((6, 30))
        basis = pca_basis(y, 2)
        residual = np.linalg.norm(y - basis.e @ (basis.e.T @ y))
        s = np.linalg.svd(y, compute_uv=False)
        np.testing.assert_allclose(residual, np.sqrt(np.sum(s[2:] ** 2)), rtol=1e-10)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((5, 12))
        e1 = pca_basis(y, 3).e
        e2 = pca_basis(y, 3).e
        np.testing.assert_array_equal(e1, e2)
        for col in e1.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_dimension_too_large(self):
        with pytest.raises(ConfigError):
            pca_basis(np.eye(3), 4)

    @pytest.mark.parametrize("y_h", [np.ones(5), np.ones((2, 3, 4)), np.float64(1.0)])
    def test_spectra_that_are_not_a_matrix_raise(self, y_h):
        # a 1-D y_h once leaked LinAlgError from the SVD
        with pytest.raises(DimensionError):
            pca_basis(y_h, 1)

    @pytest.mark.parametrize("n_dims", [-1, 0, 1.5, True])
    def test_dimension_outside_one_to_rank_bound(self, n_dims):
        # -1 once sliced 15 columns of 16, 0 an empty basis that sharpen
        # turned into an all-zero cube reported as converged, and 1.5 leaked
        # TypeError
        y_h = np.random.default_rng(6).standard_normal((16, 40))
        with pytest.raises(ConfigError):
            pca_basis(y_h, n_dims)

    @pytest.mark.parametrize("bad", [np.inf])  # NaN: tests/test_boundaries.py
    def test_non_finite_spectra_raise(self, bad):
        # NaN spectra once leaked LinAlgError("SVD did not converge")
        y_h = np.random.default_rng(7).standard_normal((4, 8))
        y_h[2, 5] = bad
        with pytest.raises(ConfigError):
            pca_basis(y_h, 2)


class TestVUpdates:
    def test_v3_zero_block_pure_linear(self):
        scene = tiny_scene()
        em = EmConfig(n_components=2, noise_variance=scene.sigma_m**2, max_iters=6, seed=0)
        den = train_scene_denoiser(
            scene.y_m, scene.geometry, 2, em, denoiser_variance=0.5, pure_linear=True
        )
        zeros = np.zeros((2, scene.geometry.n))
        np.testing.assert_allclose(v3_update(zeros, zeros, den), 0.0, atol=1e-14)

    def test_v3_single_band_reduction_and_matrix(self):
        scene = tiny_scene()
        em = EmConfig(n_components=2, noise_variance=scene.sigma_m**2, max_iters=6, seed=0)
        den = train_scene_denoiser(
            scene.y_m, scene.geometry, 2, em, denoiser_variance=0.5, pure_linear=True
        )
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, scene.geometry.n))
        d3 = rng.standard_normal((1, scene.geometry.n))
        out = v3_update(x, d3, den)
        np.testing.assert_allclose(
            out[0], denoise_image_fixed((x - d3)[0], den), atol=1e-14
        )
        w = build_explicit_w(den)
        np.testing.assert_allclose(out, (x - d3) @ w.matrix.T, rtol=1e-10)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_v3_blocks_of_two_shapes_raise(self, rows):
        # (3, n) once leaked numpy's broadcast ValueError, and (1, n)
        # broadcast against the (2, n) x without an error
        with pytest.raises(DimensionError):
            v3_update(np.ones((2, 36)), np.ones((rows, 36)), None)


class TestSceneDenoiser:
    @pytest.mark.parametrize("n_bands", [1, 4])
    def test_weights_are_the_mean_of_the_band_posteriors(self, monkeypatch, n_bands):
        runs = []

        def recording_train_em(patches, config):
            out = train_em(patches, config)
            runs.append(out[1])
            return out

        monkeypatch.setattr(sharpen_module, "train_em", recording_train_em)
        geom = ImageGeometry(6, 5)
        y_m = np.random.default_rng(13).uniform(size=(n_bands, geom.n))
        em = EmConfig(n_components=3, noise_variance=1e-3, max_iters=5, seed=0)
        den = train_scene_denoiser(y_m, geom, 2, em, denoiser_variance=0.5)
        (beta,) = runs
        assert beta.shape == (3, n_bands * geom.n)
        per_band = [beta[:, b * geom.n : (b + 1) * geom.n] for b in range(n_bands)]
        np.testing.assert_allclose(
            den.weights, sum(per_band) / n_bands, rtol=1e-15, atol=1e-15
        )
        assert np.all(den.weights >= 0)
        np.testing.assert_allclose(den.weights.sum(axis=0), 1.0, atol=1e-12)


class TestDirectSolve:
    def test_tau_zero_matches_normal_equations(self):
        scene = tiny_scene()
        basis = pca_basis(scene.y_h, 2)
        data = hs_data_term(scene, basis, 0.4)
        x = data.minimizer(0.0)
        # cross-check: gradient of the quadratic objective vanishes
        eps = 1e-6
        f0 = data.objective(x, 0.0)
        rng = np.random.default_rng(13)
        for _ in range(5):
            direction = rng.standard_normal(x.shape)
            direction /= np.linalg.norm(direction)
            f_plus = data.objective(x + eps * direction, 0.0)
            f_minus = data.objective(x - eps * direction, 0.0)
            assert (f_plus - f_minus) / (2 * eps) == pytest.approx(0.0, abs=1e-6)
            assert f_plus >= f0

    def test_lambda_zero_identity_observation_is_subspace_ls(self):
        scene = identity_scene()
        basis = pca_basis(scene.y_h, 2)
        x = hs_data_term(scene, basis, 0.0).minimizer(0.0)
        np.testing.assert_allclose(x, basis.e.T @ scene.y_h, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize(
        "make", [pytest.param(hs_case, id="hs"), pytest.param(pair_case, id="pair")]
    )
    def test_objective_at_limit_beats_perturbations(self, make):
        case = make()
        rho, tau = 0.1, 0.1
        w = build_explicit_w(case.denoiser(rho, tau))
        data = hs_data_term(case.scene, case.basis, case.lam)
        x_star = data.minimizer(rho, w)
        f_star = data.objective(x_star, rho, w)
        rng = np.random.default_rng(1)
        for _ in range(100):
            delta = rng.standard_normal((case.basis.dim, w.rank)) @ w.basis.T
            delta *= 0.1 / np.linalg.norm(delta)
            assert data.objective(x_star + delta, rho, w) >= f_star


class TestSharpenPipeline:
    def test_noiseless_identity_recovery(self):
        scene = identity_scene()
        em = EmConfig(n_components=1, noise_variance=1e-6, max_iters=3, seed=0)
        params = SharpenParams(
            n_subspace=2,
            patch_side=2,
            em=em,
            solver=SolverConfig(
                rho=0.5, lam=1.0, tau=0.0, max_iters=2000,
                primal_tol=1e-10, dual_tol=1e-10,
            ),
        )
        z_hat, report = sharpen(scene, params)
        assert report.converged
        assert psnr(scene.z, z_hat, peak=1.0) > 60.0

    def test_subspace_consistency(self):
        scene = tiny_scene()
        em = EmConfig(n_components=2, noise_variance=scene.sigma_m**2, max_iters=8, seed=0)
        params = SharpenParams(
            n_subspace=2,
            patch_side=2,
            em=em,
            solver=SolverConfig(rho=0.05, lam=0.5, tau=0.05, max_iters=300),
        )
        z_hat, _ = sharpen(scene, params)
        basis = pca_basis(scene.y_h, 2)
        x = basis.e.T @ z_hat
        np.testing.assert_allclose(basis.e @ x, z_hat, atol=1e-10)

    @pytest.mark.parametrize(
        "make,rho,tau,lam,empty_mask",
        [
            pytest.param(hs_case, 0.05, 0.05, 0.5, False, id="0.05-0.05"),
            pytest.param(hs_case, 0.1, 0.02, 0.5, False, id="0.1-0.02"),
            # each leaves one data block of the splitting without data
            pytest.param(hs_case, 0.05, 0.05, 0.5, True, id="all-zero-mask"),
            pytest.param(hs_case, 0.05, 0.05, 0.0, False, id="lam-0"),
            pytest.param(pair_case, 0.08, 0.08, 0.3, False, id="pair-0.08-0.08"),
            pytest.param(pair_case, 0.2, 0.05, 0.3, False, id="pair-0.2-0.05"),
        ],
    )
    def test_admm_matches_oracle(self, make, rho, tau, lam, empty_mask):
        case = make()
        scene, basis = case.scene, case.basis
        if empty_mask:
            scene = replace(
                scene, y_h=scene.y_h[:, :0], mask=np.zeros_like(scene.mask)
            )
        den = case.denoiser(rho, tau)
        w = build_explicit_w(den)
        cfg = SolverConfig(
            rho=rho, lam=lam, tau=tau, max_iters=5000,
            primal_tol=1e-10, dual_tol=1e-10,
        )
        x_admm, report = run_salsa_hs(scene, basis, den, cfg)
        assert report.converged
        data = hs_data_term(scene, basis, lam)
        x_oracle = data.minimizer(rho, w)
        assert relative_error(x_admm, x_oracle) <= 1e-5
        # optimality certificate on the subspace projection of the iterate
        proj = np.stack([w.basis @ (w.basis.T @ row) for row in x_admm])
        f_star = data.objective(x_oracle, rho, w)
        f_admm = data.objective(proj, rho, w)
        assert f_star <= f_admm + 1e-10 * abs(f_star)
        assert f_admm <= f_star + 1e-8 * abs(f_star)

    def test_residuals_below_tol_within_500_iters(self):
        scene = tiny_scene(seed=3)
        basis = pca_basis(scene.y_h, 2)
        em = EmConfig(n_components=2, noise_variance=scene.sigma_m**2, max_iters=12, seed=0)
        den = train_scene_denoiser(
            scene.y_m, scene.geometry, 2, em, denoiser_variance=1.0, pure_linear=True
        )
        cfg = SolverConfig(
            rho=0.05, lam=0.5, tau=0.05, max_iters=500,
            primal_tol=1e-6, dual_tol=1e-6,
        )
        _, report = run_salsa_hs(scene, basis, den, cfg)
        assert report.converged
        assert report.iterations_run <= 500
        assert report.final_primal < 1e-6 and report.final_dual < 1e-6

    def test_history_records_data_fit(self):
        scene = tiny_scene(seed=3)
        basis = pca_basis(scene.y_h, 2)
        em = EmConfig(n_components=2, noise_variance=scene.sigma_m**2, max_iters=12, seed=0)
        den = train_scene_denoiser(
            scene.y_m, scene.geometry, 2, em, denoiser_variance=1.0
        )
        cfg = SolverConfig(rho=0.05, lam=0.5, tau=0.05, max_iters=40)
        x, report = run_salsa_hs(scene, basis, den, cfg)
        assert len(report.objective_trace) == report.iterations_run == 40
        data = hs_data_term(scene, basis, 0.5)
        assert report.objective_trace[-1] == data.objective(x, 0.0)

    def test_paper_operating_point_converges(self):
        # rho = 1e-4, lam = 1e-1, tau = 1e-6; small-penalty runs need a large
        # iteration budget, so this uses a minimal scene and a stated primal
        # tolerance the run genuinely reaches.
        scene = tiny_scene(seed=9, l_h=4, l_m=1, snr=50.0)
        em = EmConfig(n_components=2, noise_variance=scene.sigma_m**2, max_iters=10, seed=0)
        params = SharpenParams(
            n_subspace=2,
            patch_side=2,
            em=em,
            solver=SolverConfig(
                rho=1e-4, lam=1e-1, tau=1e-6, max_iters=60000,
                primal_tol=5e-4, dual_tol=1e-6,
            ),
        )
        z_hat, report = sharpen(scene, params)
        assert report.converged
        assert psnr(scene.z, z_hat, peak=1.0) > 30.0

    def test_salsa_tolerances_do_not_change_the_result(self):
        # primal_tol/dual_tol bound run_salsa_hs only; GMRES stops at FIXED_POINT_RTOL
        scene = tiny_scene(seed=3)
        em = EmConfig(n_components=2, noise_variance=scene.sigma_m**2, max_iters=12, seed=0)
        results = []
        for tol in (1e-2, 1e-9):
            params = SharpenParams(
                n_subspace=2,
                patch_side=2,
                em=em,
                solver=SolverConfig(
                    rho=0.05, lam=0.5, tau=0.05, primal_tol=tol, dual_tol=10 * tol
                ),
            )
            z_hat, report = sharpen(scene, params)
            results.append((z_hat.tobytes(), report.iterations_run, report.final_primal))
        assert results[0] == results[1]

    def test_pipeline_is_one_solve_with_its_trained_denoiser(self):
        # the PCA basis, the practical D trained at tau / rho, then solve_hs;
        # the pair's one solve is test_pairdeblur's TestShiftedSolve
        case, rho = hs_case(), 0.05
        solver = SolverConfig(rho=rho, lam=case.lam, tau=0.05)
        z_hat, report = sharpen(case.scene, case.params(solver))
        x, expected = solve_hs(
            case.scene, case.basis, case.denoiser(rho, 0.05, pure_linear=False), solver
        )
        assert report.converged
        assert z_hat.tobytes() == (case.basis.e @ x).tobytes()
        assert asdict(report) == asdict(expected)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(hs_case, id="hs"),
            pytest.param(partial(pair_case, kernel="motion15"), id="pair-motion15"),
        ],
    )
    def test_report_records_one_residual_per_application(self, monkeypatch, make):
        case = make()
        calls = []

        def counting(v, denoiser):
            calls.append(1)
            return denoise_image_fixed(v, denoiser)

        monkeypatch.setattr(sharpen_module, "denoise_image_fixed", counting)
        solver = SolverConfig(rho=0.02, lam=case.lam, tau=0.01)
        _, report = sharpen(case.scene, case.params(solver))
        assert report.converged
        # one call for D A^T t, then one per step and per recomputed residual
        assert report.iterations_run == len(calls) - 1
        assert len(report.primal_residuals) == report.iterations_run
        assert report.primal_residuals[-1] == report.final_primal
        assert report.final_primal <= FIXED_POINT_RTOL
        den = case.denoiser(solver.rho, solver.tau, pure_linear=False)
        _, plain = solve_fixed_point(
            hs_data_term(case.scene, case.basis, case.lam),
            lambda v: counting(v, den),
            solver,
        )
        assert report.iterations_run < plain.iterations_run

    @pytest.mark.parametrize(
        "make", [pytest.param(hs_case, id="hs"), pytest.param(pair_case, id="pair")]
    )
    def test_reports_round_trip_through_json(self, make):
        case = make()
        solver = SolverConfig(rho=0.1, lam=case.lam, tau=0.05, max_iters=40)
        params = case.params(solver)
        _, gmres = sharpen(case.scene, params)
        # a budget that stops mid-run, with rho above the pair's lam
        _, short = sharpen(
            case.scene, replace(params, solver=replace(solver, rho=0.5, max_iters=4))
        )
        den = case.denoiser(solver.rho, solver.tau, pure_linear=False)
        _, salsa = run_salsa_hs(case.scene, case.basis, den, solver)
        assert gmres.converged and not short.converged
        for report in (gmres, short, salsa):
            # strict JSON: a field a solver leaves unset must not be NaN
            text = json.dumps(asdict(report), allow_nan=False)
            record = json.loads(text)
            assert json.dumps(record) == text
            assert record["primal_residuals"] == report.primal_residuals
            assert len(record["primal_residuals"]) == report.iterations_run
        assert len(salsa.dual_residuals) == len(salsa.objective_trace) == 40
        assert gmres.final_dual is None and short.final_dual is None


class TestFixedPointSolve:
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(partial(hs_case, seed=5, d=2, lam=0.4), id="2"),
            pytest.param(partial(hs_case, seed=5, d=4, lam=0.4), id="4"),
            pytest.param(
                partial(pair_case, seed=5, kernel="motion15"), id="pair-motion15"
            ),
        ],
    )
    def test_adjoint_passes_the_dot_product_test(self, make):
        case = make()
        data = hs_data_term(case.scene, case.basis, case.lam)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal(data.shape)
            r = rng.standard_normal(data.target.shape)
            ax = data.apply(x)
            atr = data.adjoint(r)
            assert atr.shape == data.shape
            scale = np.linalg.norm(ax) * np.linalg.norm(r)
            assert abs(ax @ r - np.sum(x * atr)) <= 1e-12 * scale

    def test_apply_is_the_forward_models_on_e_x(self):
        scene = tiny_scene(seed=6)
        basis = pca_basis(scene.y_h, 2)
        lam = 0.4
        x = np.random.default_rng(5).standard_normal((2, scene.geometry.n))
        hs, ms = clean_observations(basis.e @ x, scene)
        expected = np.concatenate([hs.ravel(), np.sqrt(lam) * ms.ravel()])
        np.testing.assert_allclose(
            hs_data_term(scene, basis, lam).apply(x), expected, rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize(
        "make,rho,tau,pure_linear",
        [
            pytest.param(hs_case, 0.05, 0.05, True, id="True"),
            pytest.param(hs_case, 0.05, 0.05, False, id="False"),
            pytest.param(pair_case, 0.08, 0.08, True, id="pair-True"),
            pytest.param(pair_case, 0.08, 0.08, False, id="pair-False"),
            # rho above the pair's lam = 0.3
            pytest.param(pair_case, 0.5, 0.05, False, id="pair-0.5-0.05"),
        ],
    )
    def test_matches_the_salsa_reference(self, make, rho, tau, pure_linear):
        case = make()
        den = case.denoiser(rho, tau, pure_linear)
        cfg = SolverConfig(
            rho=rho, lam=case.lam, tau=tau, max_iters=5000,
            primal_tol=1e-10, dual_tol=1e-10,
        )
        x_salsa, salsa_report = run_salsa_hs(case.scene, case.basis, den, cfg)
        assert salsa_report.converged
        for x, report in both_solves(case.scene, case.basis, den, cfg):
            assert report.converged
            assert report.iterations_run < salsa_report.iterations_run
            assert relative_error(x, x_salsa) <= 1e-8

    @pytest.mark.parametrize(
        "make,rho,tau,pure_linear",
        [
            pytest.param(hs_case, 0.05, 0.05, True, id="0.05-0.05"),
            pytest.param(hs_case, 0.1, 0.02, True, id="0.1-0.02"),
            pytest.param(hs_case, 0.05, 0.05, False, id="0.05-0.05-practical"),
            pytest.param(hs_case, 0.1, 0.02, False, id="0.1-0.02-practical"),
            pytest.param(pair_case, 0.08, 0.08, True, id="pair-0.08-0.08"),
            pytest.param(pair_case, 0.2, 0.05, True, id="pair-0.2-0.05"),
            pytest.param(pair_case, 0.08, 0.08, False, id="pair-0.08-0.08-practical"),
            pytest.param(pair_case, 0.2, 0.05, False, id="pair-0.2-0.05-practical"),
            pytest.param(pair_case, 0.5, 0.05, True, id="pair-0.5-0.05"),
            pytest.param(pair_case, 0.5, 0.05, False, id="pair-0.5-0.05-practical"),
        ],
    )
    def test_matches_the_dense_minimizer(self, make, rho, tau, pure_linear):
        case = make()
        den = case.denoiser(rho, tau, pure_linear)
        cfg = SolverConfig(rho=rho, lam=case.lam, tau=tau)
        data = hs_data_term(case.scene, case.basis, case.lam)
        expected = data.minimizer(rho, build_explicit_w(den))
        for x, report in both_solves(case.scene, case.basis, den, cfg):
            assert report.converged
            assert relative_error(x, expected) <= 1e-9

    @pytest.mark.parametrize("pure_linear", [True, False], ids=["linear", "practical"])
    @pytest.mark.parametrize("rho,tau", [(0.08, 0.08), (0.5, 0.05)], ids=str)
    @pytest.mark.parametrize("make", [hs_case, pair_case], ids=["hs", "pair"])
    def test_regularizer_at_the_fixed_point_needs_no_w(self, make, rho, tau, pure_linear):
        # at the solution x = D w with w = x - grad F(x) / rho, and
        # phi(D w) = (w^T D w - ||D w||^2) / 2, so rho * sum_bands phi(x)
        # is -<x, grad F(x)> / 2
        case = make()
        den = case.denoiser(rho, tau, pure_linear)
        cfg = SolverConfig(rho=rho, lam=case.lam, tau=tau)
        x, report = solve_hs(case.scene, case.basis, den, cfg)
        assert report.converged
        data = hs_data_term(case.scene, case.basis, case.lam)
        grad = data.adjoint(data.apply(x) - data.target)
        expected = data.objective(x, rho, build_explicit_w(den)) - data.objective(x, 0)
        assert -0.5 * np.sum(x * grad) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_g_inverse_inverts_g_where_it_is_given(self, lam):
        # A^T A is its circulant part for a pair, and G = A^T A - rho I is
        # positive definite for rho < lam; the start is taken only then
        case = pair_case(lam=lam)
        data = hs_data_term(case.scene, case.basis, lam)
        rotation, symbol = hs_normal_symbol(case.scene, case.basis, lam)
        v = np.random.default_rng(3).standard_normal(data.shape)
        for rho in (0.02, 0.2):
            g_inverse = sharpen_module._g_inverse(case.scene.mask, rotation, symbol, rho)
            g_v = data.adjoint(data.apply(g_inverse(v))) - rho * g_inverse(v)
            np.testing.assert_allclose(g_v, v, rtol=1e-10, atol=1e-12)
        assert sharpen_module._g_inverse(case.scene.mask, rotation, symbol, lam) is None

    def test_a_decimated_scene_takes_no_start(self):
        # A^T A is not circulant once the mask drops pixels
        case = hs_case()
        rotation, symbol = hs_normal_symbol(case.scene, case.basis, case.lam)
        assert sharpen_module._g_inverse(case.scene.mask, rotation, symbol, 1e-4) is None

    def test_the_start_saves_three_applications_on_pair_iterate(
        self, pair_iterate_scene, monkeypatch
    ):
        # lam = 0.2 > rho = 0.02, so the solve starts at the least-squares
        # point on the line of G^-1 A^T t, whose residual costs no D; the
        # counts pin the preconditioner on the benchmark's scene 0 as well
        p = pair_iterate_scene
        x, report = solve_hs(p.scene, p.basis, p.denoiser, p.cfg)
        monkeypatch.setattr(sharpen_module, "_g_inverse", lambda *args: None)
        x_zero, zero = solve_hs(p.scene, p.basis, p.denoiser, p.cfg)
        assert report.converged and zero.converged
        assert (report.iterations_run, zero.iterations_run) == (12, 15)
        assert relative_error(x, x_zero) <= 1e-7

    @pytest.mark.parametrize("components", [None, 1], ids=["identity", "K=1"])
    @pytest.mark.parametrize("make", [hs_case, pair_case], ids=["hs", "pair"])
    def test_one_component_preconditions_as_chan(self, make, components, monkeypatch):
        # with one component, weight 1 on every pixel, the piecewise
        # circulant preconditioner is T. Chan's single circulant
        case = make()
        cfg = SolverConfig(rho=0.05, lam=case.lam, tau=0.05)
        den = None if components is None else trained_denoiser(
            case.scene, cfg.rho, cfg.tau, False, case.patch_side, components
        )
        taken = {}

        def capture(*args, **kwargs):
            taken.update(kwargs)
            return None, None

        monkeypatch.setattr(sharpen_module, "solve_fixed_point", capture)
        solve_hs(case.scene, case.basis, den, cfg)
        rotation, normal = hs_normal_symbol(case.scene, case.basis, case.lam)
        symbol = 1.0 if den is None else chan_symbol(den)
        inverse = preconditioner_symbol(normal, symbol, cfg.rho)
        shape = (case.basis.dim, case.scene.geometry.n)
        v = np.random.default_rng(5).standard_normal(shape)
        expected = rotation @ symbol_products(rotation.T @ v, inverse)
        assert relative_error(taken["precondition"](v), expected) <= 1e-12

    def test_irregular_mask_matches_the_dense_minimizer(self):
        # 20 of 64 pixels kept at random; a mask that is not a regular grid
        # was once refused by HsScene
        scene = tiny_scene(seed=17)
        rng = np.random.default_rng(9)
        mask = np.zeros(scene.geometry.n, dtype=int)
        mask[rng.choice(scene.geometry.n, 20, replace=False)] = 1
        clean = blur_rows(scene.z, scene.blur)[:, mask == 1]
        y_h = clean + scene.sigma_h * rng.standard_normal(clean.shape)
        irregular = replace(scene, mask=mask, y_h=y_h)
        rho, tau, lam = 0.05, 0.05, 0.5
        basis = pca_basis(irregular.y_h, 2)
        den = trained_denoiser(irregular, rho, tau, pure_linear=False)
        cfg = SolverConfig(
            rho=rho, lam=lam, tau=tau, max_iters=5000,
            primal_tol=1e-10, dual_tol=1e-10,
        )
        expected = hs_data_term(irregular, basis, lam).minimizer(
            rho, build_explicit_w(den)
        )
        x, report = solve_hs(irregular, basis, den, cfg)
        assert report.converged
        assert relative_error(x, expected) <= 1e-9
        x_salsa, salsa_report = run_salsa_hs(irregular, basis, den, cfg)
        assert salsa_report.converged
        assert relative_error(x_salsa, expected) <= 1e-5

    @pytest.mark.parametrize(
        "make,tau",
        [
            pytest.param(hs_case, 0.05, id="hs"),
            pytest.param(pair_case, 0.08, id="pair"),
        ],
    )
    def test_rho_above_every_mixing_eigenvalue(self, make, tau):
        # G = A^T A - rho I is indefinite: rho exceeds lam * eig((RE)^T RE),
        # and the smallest eigenvalue of the circulant part of A^T A
        case = make()
        rho = 0.5
        re = case.scene.r @ case.basis.e
        assert np.linalg.eigvalsh(case.lam * re.T @ re).min() < rho
        assert hs_normal_symbol(case.scene, case.basis, case.lam)[1].min() < rho
        den = case.denoiser(rho, tau, pure_linear=False)
        cfg = SolverConfig(rho=rho, lam=case.lam, tau=tau)
        data = hs_data_term(case.scene, case.basis, case.lam)
        expected = data.minimizer(rho, build_explicit_w(den))
        x, report = solve_hs(case.scene, case.basis, den, cfg)
        assert report.converged
        assert relative_error(x, expected) <= 1e-9

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(partial(hs_case, seed=5, d=1, lam=0.4), id="1"),
            pytest.param(partial(hs_case, seed=5, d=2, lam=0.4), id="2"),
            pytest.param(partial(hs_case, seed=5, d=4, lam=0.4), id="4"),
            pytest.param(partial(pair_case, seed=5, kernel="motion15"), id="pair"),
        ],
    )
    def test_normal_symbol_is_the_shift_average(self, make):
        # Chan's circulant part of A^T A: the dense normal matrix averaged over
        # every cyclic shift of the grid, seen in the rotated bands Q^T X
        case = make()
        scene, basis = case.scene, case.basis
        data = hs_data_term(scene, basis, case.lam)
        k, n = data.shape
        geom = scene.geometry
        a = np.column_stack([data.apply(e.reshape(k, n)) for e in np.eye(k * n)])
        normal = (a.T @ a).reshape(k, n, k, n)
        pixels = geom.to_grid(np.arange(n))
        average = np.zeros_like(normal)
        for shift in np.ndindex(geom.height, geom.width):
            perm = geom.from_grid(np.roll(pixels, shift, axis=(0, 1)))
            average += normal[:, perm][:, :, :, perm]
        average /= n
        rotation, symbols = hs_normal_symbol(scene, basis, case.lam)
        rotated = np.einsum("am,aibj,bl->milj", rotation, average, rotation)
        v = np.random.default_rng(6).standard_normal((k, n))
        expected = symbol_products(v, symbols)
        got = np.einsum("milj,lj->mi", rotated, v)
        scale = np.abs(got).max()
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize(
        "make,rho",
        [
            pytest.param(partial(hs_case, seed=8, lam=0.4), 0.3, id="hs"),
            # rho above lam
            pytest.param(
                partial(pair_case, seed=15, kernel="motion15", lam=0.4), 0.5, id="pair"
            ),
        ],
    )
    def test_tau_zero_pipeline_is_the_least_squares_fit(self, make, rho):
        case = make()
        solver = SolverConfig(rho=rho, lam=case.lam, tau=0.0)
        z_hat, report = sharpen(case.scene, case.params(solver))
        assert report.converged
        data = hs_data_term(case.scene, case.basis, case.lam)
        expected = case.basis.e @ data.minimizer(0.0)
        assert relative_error(z_hat, expected) <= 1e-8


def test_benchmark_sized_scene_needs_few_applications():
    # the hs-sharpen benchmark setting; preconditioned by D alone its solve
    # took 40-43 applications of D
    spec = HsSceneSpec(
        ImageGeometry(32, 32), 64, 4, 4, decimation=4, snr_h_db=30.0,
        snr_m_db=40.0, seed=11000,
    )
    scene = generate_hs_scene(spec)
    em = EmConfig(8, scene.sigma_m**2, max_iters=100, loglik_rel_tol=1e-5)
    params = SharpenParams(
        n_subspace=4, patch_side=4, em=em,
        solver=SolverConfig(rho=0.01, lam=0.1, tau=1e-4),
    )
    _, report = sharpen(scene, params)
    assert report.converged
    assert report.iterations_run <= 20
