import logging

import numpy as np
import pytest

from pnpfusion.admm import FIXED_POINT_RTOL, SolverConfig, solve_fixed_point
from pnpfusion.denoiser import build_explicit_w, denoise_image_fixed
from pnpfusion.fftops import make_cyclic_blur
from pnpfusion.gmm import EmConfig
from pnpfusion.metrics import psnr
from pnpfusion.pairdeblur import (
    PairParams,
    PairScene,
    deblur_pair,
    pair_data_term,
    run_admm_pair,
    train_pair_denoiser,
)
from pnpfusion.patches import ImageGeometry
from pnpfusion.scenes import PairSceneSpec, generate_pair_scene
from tests.test_fftops import dense_blur_matrix_oracle


def scene_16(seed=7, kernel="gauss8", sigma_n=25 / 255, sigma_b=2 / 255):
    spec = PairSceneSpec(
        geometry=ImageGeometry(16, 16),
        kernel_id=kernel,
        sigma_n=sigma_n,
        sigma_b=sigma_b,
        seed=seed,
    )
    return generate_pair_scene(spec)


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

    def test_shape_mismatch_raises(self):
        from pnpfusion.errors import DimensionError

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
        x, report = run_admm_pair(scene, None, cfg)
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
        x, _ = run_admm_pair(scene, None, cfg)
        b = dense_blur_matrix_oracle(scene.blur.psf, scene.geometry)
        expected = np.linalg.solve(
            b.T @ b + lam * np.eye(scene.geometry.n),
            b.T @ scene.y_b + lam * scene.y_n,
        )
        rel = np.linalg.norm(x - expected) / np.linalg.norm(expected)
        assert rel <= 1e-5
        oracle = pair_data_term(scene, lam).minimizer(0.0)
        np.testing.assert_allclose(oracle, expected, rtol=1e-10, atol=1e-12)

    def test_large_lambda_pins_noisy_channel(self):
        scene = scene_16()
        lam = 1e6
        cfg = SolverConfig(rho=1.0, lam=lam, tau=0.0, max_iters=500)
        x, _ = run_admm_pair(scene, None, cfg)
        assert np.linalg.norm(x - scene.y_n) < 1e-3 * np.linalg.norm(
            x - scene.y_b
        )


class TestAdmmVsOracle:
    @pytest.mark.parametrize("rho,tau", [(0.08, 0.08), (0.2, 0.05)])
    def test_tau_positive_matches_dense_kkt(self, rho, tau):
        scene = scene_16(seed=11)
        lam = 0.3
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=15, seed=0
        )
        den = train_pair_denoiser(
            scene, 4, em, denoiser_variance=tau / rho, pure_linear=True
        )
        w = build_explicit_w(den)
        cfg = SolverConfig(
            rho=rho, lam=lam, tau=tau, max_iters=5000,
            primal_tol=1e-10, dual_tol=1e-10,
        )
        x, report = run_admm_pair(scene, den, cfg)
        assert report.converged
        expected = pair_data_term(scene, lam).minimizer(rho, w)
        rel = np.linalg.norm(x - expected) / np.linalg.norm(expected)
        assert rel <= 1e-5

    def test_objective_at_limit_beats_perturbations(self):
        scene = scene_16(seed=13)
        lam, rho, tau = 0.3, 0.1, 0.1
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=15, seed=0
        )
        den = train_pair_denoiser(
            scene, 4, em, denoiser_variance=tau / rho, pure_linear=True
        )
        w = build_explicit_w(den)
        data = pair_data_term(scene, lam)
        x_star = data.minimizer(rho, w)
        f_star = data.objective(x_star, rho, w)
        rng = np.random.default_rng(1)
        for _ in range(100):
            delta = w.basis @ rng.standard_normal(w.rank)
            delta *= 0.1 / np.linalg.norm(delta)
            assert data.objective(x_star + delta, rho, w) >= f_star

    def test_objective_infinite_off_subspace(self):
        scene = scene_16(seed=14)
        em = EmConfig(
            n_components=2, noise_variance=scene.sigma_n**2, max_iters=8, seed=0
        )
        den = train_pair_denoiser(scene, 4, em, denoiser_variance=1.0, pure_linear=True)
        w = build_explicit_w(den)
        if w.rank == scene.geometry.n:
            pytest.skip("W is full rank for this model")
        rng = np.random.default_rng(2)
        x = rng.standard_normal(scene.geometry.n)
        x -= w.basis @ (w.basis.T @ x)
        assert pair_data_term(scene, 0.3).objective(x, 0.5, w) == float("inf")

    def test_tau_zero_objective_matches_dense_evaluation(self):
        scene = scene_16(seed=15)
        lam = 0.4
        data = pair_data_term(scene, lam)
        x = data.minimizer(0.0)
        b = dense_blur_matrix_oracle(scene.blur.psf, scene.geometry)
        expected = 0.5 * np.sum((b @ x - scene.y_b) ** 2) + 0.5 * lam * np.sum(
            (x - scene.y_n) ** 2
        )
        assert data.objective(x, 0.0) == pytest.approx(expected, rel=1e-12)


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

    def test_residuals_below_tol_within_1000_iters(self):
        scene = scene_16(seed=16)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        params = PairParams(
            patch_side=4,
            em=em,
            solver=SolverConfig(
                rho=0.1, lam=0.3, tau=0.05, max_iters=1000,
                primal_tol=1e-6, dual_tol=1e-6,
            ),
            pure_linear=True,
        )
        _, report = run_admm_pair(scene, denoiser_of(scene, params), params.solver)
        assert report.converged
        assert report.iterations_run <= 1000
        assert report.final_primal < 1e-6 and report.final_dual < 1e-6

    def test_history_records_data_fit(self):
        scene = scene_16(seed=16)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        solver = SolverConfig(
            rho=0.1, lam=0.3, tau=0.05, max_iters=40, record_history=True
        )
        params = PairParams(patch_side=4, em=em, solver=solver)
        x, report = run_admm_pair(scene, denoiser_of(scene, params), solver)
        assert len(report.objective_trace) == report.iterations_run == 40
        data = pair_data_term(scene, 0.3)
        assert report.objective_trace[-1] == data.objective(x, 0.0)

    def test_krylov_history_has_one_residual_per_matvec(self):
        scene = scene_16(seed=16)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        solver = SolverConfig(rho=0.1, lam=0.3, tau=0.05, record_history=True)
        _, report = deblur_pair(scene, PairParams(patch_side=4, em=em, solver=solver))
        assert report.converged
        assert len(report.primal_residuals) == report.iterations_run
        assert report.primal_residuals[-1] == report.final_primal
        assert report.final_primal <= FIXED_POINT_RTOL


def denoiser_of(scene, params):
    """The denoiser deblur_pair trains for these parameters."""
    cfg = params.solver
    return train_pair_denoiser(
        scene,
        params.patch_side,
        params.em,
        denoiser_variance=cfg.tau / cfg.rho,
        pure_linear=params.pure_linear,
    )


def trained_denoiser(scene, rho, tau, pure_linear=True):
    em = EmConfig(
        n_components=3, noise_variance=scene.sigma_n**2, max_iters=15, seed=0
    )
    return train_pair_denoiser(
        scene, 4, em, denoiser_variance=tau / rho, pure_linear=pure_linear
    )


def relative_error(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


class TestFixedPointSolve:
    def test_adjoint_passes_the_dot_product_test(self):
        scene = scene_16(seed=5, kernel="motion15")
        data = pair_data_term(scene, 0.3)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(data.shape)
            r = rng.standard_normal(data.target.shape)
            ax = data.apply(x)
            atr = data.adjoint(r)
            assert atr.shape == data.shape
            scale = np.linalg.norm(ax) * np.linalg.norm(r)
            assert abs(ax @ r - x @ atr) <= 1e-12 * scale

    @pytest.mark.parametrize("pure_linear", [True, False])
    def test_matches_the_admm_reference(self, pure_linear):
        scene = scene_16(seed=11)
        rho, tau, lam = 0.08, 0.08, 0.3
        den = trained_denoiser(scene, rho, tau, pure_linear)
        cfg = SolverConfig(
            rho=rho, lam=lam, tau=tau, max_iters=5000,
            primal_tol=1e-10, dual_tol=1e-10,
        )
        x_admm, admm_report = run_admm_pair(scene, den, cfg)
        assert admm_report.converged
        x, report = solve_fixed_point(
            pair_data_term(scene, lam),
            lambda v: denoise_image_fixed(v, den),
            rho,
            cfg,
        )
        assert report.converged
        assert report.iterations_run < admm_report.iterations_run
        assert relative_error(x, x_admm) <= 1e-8

    @pytest.mark.parametrize("rho,tau", [(0.08, 0.08), (0.2, 0.05)])
    def test_matches_the_dense_minimizer(self, rho, tau):
        scene = scene_16(seed=11)
        lam = 0.3
        den = trained_denoiser(scene, rho, tau)
        data = pair_data_term(scene, lam)
        cfg = SolverConfig(rho=rho, lam=lam, tau=tau)
        x, report = solve_fixed_point(
            data, lambda v: denoise_image_fixed(v, den), rho, cfg
        )
        assert report.converged
        expected = data.minimizer(rho, build_explicit_w(den))
        assert relative_error(x, expected) <= 1e-9

    def test_tau_zero_pipeline_is_the_least_squares_fusion(self):
        scene = scene_16(seed=15, kernel="motion15")
        lam = 0.4
        em = EmConfig(n_components=2, noise_variance=scene.sigma_n**2)
        params = PairParams(
            patch_side=4, em=em, solver=SolverConfig(rho=0.5, lam=lam, tau=0.0)
        )
        x, report = deblur_pair(scene, params)
        assert report.converged
        expected = pair_data_term(scene, lam).minimizer(0.0)
        assert relative_error(x, expected) <= 1e-8
