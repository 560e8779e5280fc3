import logging
from dataclasses import asdict

import numpy as np
import pytest

from pnpfusion.admm import SolverConfig
from pnpfusion.denoiser import EXPLICIT_W_CAP, denoise_image_fixed
from pnpfusion.errors import ConfigError, DimensionError
from pnpfusion.fftops import make_cyclic_blur
from pnpfusion.gmm import SIMPLEX_ATOL, EmConfig
from pnpfusion.metrics import psnr
from pnpfusion.pairdeblur import (
    PairParams,
    PairScene,
    deblur_pair,
    train_pair_denoiser,
)
from pnpfusion.patches import ImageGeometry
from pnpfusion.scenes import PairSceneSpec, generate_pair_scene
from pnpfusion.sharpen import (
    SharpenParams,
    SubspaceBasis,
    hs_data_term,
    run_salsa_hs,
    sharpen,
    solve_hs,
    train_scene_denoiser,
)
from tests.conftest import mirror_defect, relative_error, scene_16
from tests.test_fftops import dense_blur_matrix_oracle

# The pair model is sharpening with E = R = 1 and no decimation: the pair's
# one-band scene on the one-dimensional basis. The solver and oracle tests
# of that model are the "pair" cases of tests/test_sharpen.py.
ONE = SubspaceBasis(e=np.ones((1, 1)))


def pair_data(scene, lam):
    """The pair's two data terms, on a ``(1, n)`` coefficient row."""
    return hs_data_term(scene.hs_scene, ONE, lam)


def salsa(scene, denoiser, cfg):
    """The one-band SALSA reference, returning a pixel vector."""
    x, report = run_salsa_hs(scene.hs_scene, ONE, denoiser, cfg)
    return x[0], report


class TestSceneValidation:
    def test_sigma_order_warning(self, caplog):
        geom = ImageGeometry(4, 4)
        blur = make_cyclic_blur(np.ones((1, 1)), geom)
        with caplog.at_level(logging.WARNING):
            PairScene(
                y_b=np.zeros(16),
                y_n=np.zeros(16),
                blur=blur,
                sigma_b=0.5,
                sigma_n=0.1,
                geometry=geom,
            )
        assert any("sigma_b" in r.message for r in caplog.records)

    @pytest.mark.parametrize("image", ["y_b", "y_n"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_image_raises(self, image, value):
        # a NaN in y_n once reached EM's k-means++ draw as "Probabilities
        # contain NaN"
        geom = ImageGeometry(4, 4)
        images = {"y_b": np.zeros(16), "y_n": np.zeros(16)}
        images[image][5] = value
        with pytest.raises(ConfigError):
            PairScene(
                **images,
                blur=make_cyclic_blur(np.ones((1, 1)), geom),
                sigma_b=0.0,
                sigma_n=0.1,
                geometry=geom,
            )

    @pytest.mark.parametrize("sigma", ["sigma_b", "sigma_n"])
    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_bad_noise_level_raises(self, sigma, value):
        # a negative or NaN sigma_b was once accepted with only a warning
        geom = ImageGeometry(4, 4)
        with pytest.raises(ConfigError):
            PairScene(
                y_b=np.zeros(16),
                y_n=np.zeros(16),
                blur=make_cyclic_blur(np.ones((1, 1)), geom),
                geometry=geom,
                **{"sigma_b": 0.0, "sigma_n": 0.1, sigma: value},
            )

    def test_list_images_are_read_as_arrays(self):
        # a list y_b once leaked TypeError from indexing it with None
        geom = ImageGeometry(2, 2)
        scene = PairScene(
            y_b=[0.1, 0.2, 0.3, 0.4],
            y_n=[0.5, 0.6, 0.7, 0.8],
            blur=make_cyclic_blur(np.ones((1, 1)), geom),
            sigma_b=0.0,
            sigma_n=0.1,
            geometry=geom,
        )
        np.testing.assert_array_equal(scene.y_b, [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(scene.hs_scene.y_m, [[0.5, 0.6, 0.7, 0.8]])

    @pytest.mark.parametrize("image", ["y_b", "y_n"])
    def test_image_that_is_not_a_vector_raises(self, image):
        geom = ImageGeometry(4, 4)
        images = {"y_b": np.zeros(16), "y_n": np.zeros(16), image: np.zeros((4, 4))}
        with pytest.raises(DimensionError):
            PairScene(
                **images,
                blur=make_cyclic_blur(np.ones((1, 1)), geom),
                sigma_b=0.0,
                sigma_n=0.1,
                geometry=geom,
            )

    def test_shape_mismatch_raises(self):
        geom = ImageGeometry(4, 4)
        blur = make_cyclic_blur(np.ones((1, 1)), geom)
        with pytest.raises(DimensionError):
            PairScene(
                y_b=np.zeros(15),
                y_n=np.zeros(16),
                blur=blur,
                sigma_b=0.0,
                sigma_n=0.1,
                geometry=geom,
            )

    @pytest.mark.parametrize(
        "geom,built_for",
        [
            pytest.param(ImageGeometry(16, 16), ImageGeometry(8, 8), id="smaller"),
            pytest.param(ImageGeometry(4, 6), ImageGeometry(6, 4), id="transposed"),
        ],
    )
    def test_blur_built_on_another_grid_raises(self, geom, built_for):
        # once leaked numpy's "operands could not be broadcast" from the solve
        with pytest.raises(DimensionError):
            PairScene(
                y_b=np.zeros(geom.n),
                y_n=np.zeros(geom.n),
                blur=make_cyclic_blur(np.ones((1, 1)), built_for),
                sigma_b=0.0,
                sigma_n=0.1,
                geometry=geom,
            )


class TestAnalyticLimits:
    def test_delta_blur_tau_zero_weighted_average(self):
        # tau = 0, delta kernel: minimizer is (y_b + lam*y_n) / (1 + lam)
        geom = ImageGeometry(8, 8)
        rng = np.random.default_rng(0)
        blur = make_cyclic_blur(np.ones((1, 1)), geom)
        scene = PairScene(
            y_b=rng.standard_normal(geom.n),
            y_n=rng.standard_normal(geom.n),
            blur=blur,
            sigma_b=0.0,
            sigma_n=0.1,
            geometry=geom,
        )
        lam = 4.0
        cfg = SolverConfig(
            rho=1.0, lam=lam, tau=0.0, max_iters=2000,
            primal_tol=1e-11, dual_tol=1e-11,
        )
        x, report = salsa(scene, None, cfg)
        assert report.converged
        np.testing.assert_allclose(
            x, (scene.y_b + lam * scene.y_n) / (1 + lam), rtol=1e-8
        )

    def test_tau_zero_generic_blur_matches_dense(self):
        scene = scene_16()
        lam = 0.3
        cfg = SolverConfig(
            rho=0.5, lam=lam, tau=0.0, max_iters=2000,
            primal_tol=1e-11, dual_tol=1e-11,
        )
        x, _ = salsa(scene, None, cfg)
        b = dense_blur_matrix_oracle(scene.blur.psf, scene.geometry)
        expected = np.linalg.solve(
            b.T @ b + lam * np.eye(scene.geometry.n),
            b.T @ scene.y_b + lam * scene.y_n,
        )
        assert relative_error(x, expected) <= 1e-5
        oracle = pair_data(scene, lam).minimizer(0.0)[0]
        np.testing.assert_allclose(oracle, expected, rtol=1e-10, atol=1e-12)

    def test_large_lambda_pins_noisy_channel(self):
        scene = scene_16()
        lam = 1e6
        cfg = SolverConfig(rho=1.0, lam=lam, tau=0.0, max_iters=500)
        x, _ = salsa(scene, None, cfg)
        assert np.linalg.norm(x - scene.y_n) < 1e-3 * np.linalg.norm(
            x - scene.y_b
        )


class TestAdmmVsOracle:
    def test_tau_zero_objective_matches_dense_evaluation(self):
        scene = scene_16(seed=15)
        lam = 0.4
        data = pair_data(scene, lam)
        x = data.minimizer(0.0)[0]
        b = dense_blur_matrix_oracle(scene.blur.psf, scene.geometry)
        expected = 0.5 * np.sum((b @ x - scene.y_b) ** 2) + 0.5 * lam * np.sum(
            (x - scene.y_n) ** 2
        )
        assert data.objective(x[None], 0.0) == pytest.approx(expected, rel=1e-12)


class TestFullPipeline:
    def test_fusion_beats_both_inputs(self):
        spec = PairSceneSpec(
            geometry=ImageGeometry(48, 48),
            kernel_id="gauss8",
            sigma_n=25 / 255,
            sigma_b=2 / 255,
            seed=11,
        )
        scene = generate_pair_scene(spec)
        em = EmConfig(
            n_components=20, noise_variance=scene.sigma_n**2, max_iters=25, seed=0
        )
        params = PairParams(
            patch_side=8,
            em=em,
            solver=SolverConfig(
                rho=0.5, lam=0.2, tau=0.01, max_iters=300,
                primal_tol=1e-7, dual_tol=1e-7,
            ),
        )
        x_hat, report = deblur_pair(scene, params)
        assert report.converged
        fused = psnr(scene.truth, x_hat, peak=1.0)
        assert fused > psnr(scene.truth, scene.y_b, peak=1.0) + 1.0
        assert fused > psnr(scene.truth, scene.y_n, peak=1.0) + 1.0


class TestOneBandSharpening:
    """deblur_pair is sharpen on the one-band scene, bit for bit."""

    def test_deblur_pair_is_sharpen_on_the_one_band_scene(self):
        scene = scene_16(seed=16, kernel="motion15")
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        # the one-band scene: y_h = y_b, y_m = y_n, E = R = 1, all-ones mask
        one_band = scene.hs_scene
        np.testing.assert_array_equal(one_band.y_h, scene.y_b[None])
        np.testing.assert_array_equal(one_band.y_m, scene.y_n[None])
        np.testing.assert_array_equal(one_band.mask, np.ones(scene.geometry.n))
        np.testing.assert_array_equal(one_band.r, np.ones((1, 1)))
        assert one_band.blur is scene.blur and one_band.geometry == scene.geometry
        assert (one_band.sigma_h, one_band.sigma_m) == (scene.sigma_b, scene.sigma_n)
        solver = SolverConfig(rho=0.1, lam=0.3, tau=0.05)
        x, report = deblur_pair(scene, PairParams(patch_side=4, em=em, solver=solver))
        z, expected = sharpen(
            one_band, SharpenParams(n_subspace=1, patch_side=4, em=em, solver=solver)
        )
        assert report.converged
        assert x.shape == (scene.geometry.n,)
        assert x.tobytes() == z[0].tobytes()
        assert report.iterations_run == expected.iterations_run
        assert report.primal_residuals == expected.primal_residuals

    def test_pair_denoiser_is_the_one_band_scene_denoiser(self):
        # the benchmark's fixed-point gate rebuilds D through train_pair_denoiser
        scene = scene_16(seed=12)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        den = train_pair_denoiser(scene, 4, em, denoiser_variance=0.5)
        expected = train_scene_denoiser(
            scene.y_n[None], scene.geometry, 4, em, denoiser_variance=0.5
        )
        assert den.operator.tobytes() == expected.operator.tobytes()


class TestShiftedSolve:
    """The pair solve of the shifted system ``(rho I + D G) x = D b``,
    ``G = B^T B + (lam - rho) I``, whatever the sign of G."""

    @pytest.mark.parametrize(
        "rho",
        [pytest.param(0.1, id="lam-above-rho"), pytest.param(0.5, id="lam-below-rho")],
    )
    def test_deblur_pair_takes_one_solve(self, rho):
        # scene_16's gauss8 has min |b_hat|^2 < 0.2, so G = B^T B + (0.3 - rho) I
        # is positive definite at rho = 0.1 and indefinite at rho = 0.5
        scene = scene_16(seed=16)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        solver = SolverConfig(rho=rho, lam=0.3, tau=0.05)
        params = PairParams(patch_side=4, em=em, solver=solver)
        x, report = deblur_pair(scene, params)
        den = train_pair_denoiser(
            scene, 4, em, denoiser_variance=solver.tau / solver.rho
        )
        x_ref, ref = solve_hs(scene.hs_scene, ONE, den, solver)
        assert report.converged
        assert x.tobytes() == x_ref[0].tobytes()
        assert asdict(report) == asdict(ref)


class TestTheoryAtScale:
    def test_prox_conditions_hold_beyond_the_explicit_cap(self):
        # W is symmetric, W 1 = 1, every patch map has spectrum in [0, 1] and
        # the weights are convex: the conditions that make W a prox, checked
        # at a size no dense W or eigensolver reaches
        geometry = ImageGeometry(256, 256)
        assert geometry.n > EXPLICIT_W_CAP
        scene = generate_pair_scene(
            PairSceneSpec(geometry, "gauss8", 25 / 255, 2 / 255, seed=5)
        )
        em = EmConfig(n_components=3, noise_variance=scene.sigma_n**2, max_iters=3)
        den = train_pair_denoiser(scene, 4, em, denoiser_variance=scene.sigma_n**2)
        assert mirror_defect(den) == 0.0
        ones = np.ones(geometry.n)
        np.testing.assert_allclose(denoise_image_fixed(ones, den), ones, rtol=0, atol=1e-12)
        vals = den.model.spectrum[0]
        shrink = vals / (vals + den.noise_variance)
        assert np.all((shrink >= 0) & (shrink <= 1))
        beta = den.weights
        assert beta.min() >= 0
        assert np.abs(beta.sum(axis=0) - 1).max() <= SIMPLEX_ATOL
