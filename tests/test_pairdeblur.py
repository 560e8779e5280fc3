import importlib
import json
import logging
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import pnpfusion
from pnpfusion.admm import FIXED_POINT_RTOL, SolverConfig, solve_fixed_point
from pnpfusion.denoiser import EXPLICIT_W_CAP, build_explicit_w, denoise_image_fixed
from pnpfusion.errors import ConfigError, DimensionError, DivergenceError
from pnpfusion.fftops import make_cyclic_blur
from pnpfusion.gmm import EmConfig
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
    HsScene,
    SharpenParams,
    SubspaceBasis,
    hs_data_term,
    run_salsa_hs,
    sharpen,
    solve_hs,
    train_scene_denoiser,
)
from tests.conftest import mirror_defect
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


# the package's ``sharpen`` attribute is the pipeline function
sharpen_module = importlib.import_module("pnpfusion.sharpen")

# The pair model is sharpening with E = R = 1 and no decimation: the
# one-band scene below, on the one-dimensional basis.
ONE = SubspaceBasis(e=np.ones((1, 1)))

# how far each pixel's mixture weights may sum from one
SIMPLEX_ATOL = 1e-9


def one_band(scene):
    """The pair as the one-band sharpening scene, built by hand."""
    return HsScene(
        y_h=scene.y_b[None],
        y_m=scene.y_n[None],
        blur=scene.blur,
        mask=np.ones(scene.geometry.n, dtype=int),
        r=np.ones((1, 1)),
        sigma_h=scene.sigma_b,
        sigma_m=scene.sigma_n,
        geometry=scene.geometry,
    )


def pair_data(scene, lam):
    """The pair's two data terms, on a ``(1, n)`` coefficient row."""
    return hs_data_term(one_band(scene), ONE, lam)


def salsa(scene, denoiser, cfg):
    """The one-band SALSA reference, returning a pixel vector."""
    x, report = run_salsa_hs(one_band(scene), ONE, denoiser, cfg)
    return x[0], report


def gmres(scene, denoiser, cfg):
    """The one-band GMRES solve that deblur_pair takes, returning a pixel vector."""
    x, report = solve_hs(one_band(scene), ONE, denoiser, cfg)
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
        rel = np.linalg.norm(x - expected) / np.linalg.norm(expected)
        assert rel <= 1e-5
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
        x, report = salsa(scene, den, cfg)
        assert report.converged
        expected = pair_data(scene, lam).minimizer(rho, w)[0]
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
        data = pair_data(scene, lam)
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
        assert pair_data(scene, 0.3).objective(x[None], 0.5, w) == float("inf")

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
        _, report = salsa(scene, denoiser_of(scene, params), params.solver)
        assert report.converged
        assert report.iterations_run <= 1000
        assert report.final_primal < 1e-6 and report.final_dual < 1e-6

    def test_history_records_data_fit(self):
        scene = scene_16(seed=16)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        solver = SolverConfig(rho=0.1, lam=0.3, tau=0.05, max_iters=40)
        params = PairParams(patch_side=4, em=em, solver=solver)
        x, report = salsa(scene, denoiser_of(scene, params), solver)
        assert len(report.objective_trace) == report.iterations_run == 40
        data = pair_data(scene, 0.3)
        assert report.objective_trace[-1] == data.objective(x[None], 0.0)

    def test_cg_history_has_one_residual_per_denoiser_application(self):
        scene = scene_16(seed=16)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        solver = SolverConfig(rho=0.1, lam=0.3, tau=0.05)
        _, report = deblur_pair(scene, PairParams(patch_side=4, em=em, solver=solver))
        assert report.converged
        assert len(report.primal_residuals) == report.iterations_run
        assert report.primal_residuals[-1] == report.final_primal
        assert report.final_primal <= FIXED_POINT_RTOL

    def test_reports_round_trip_through_json(self):
        scene = scene_16(seed=16)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        solver = SolverConfig(rho=0.1, lam=0.3, tau=0.05, max_iters=40)
        params = PairParams(patch_side=4, em=em, solver=solver)
        den = denoiser_of(scene, params)
        _, gmres = deblur_pair(scene, params)
        # rho > lam, and a budget that stops mid-run
        _, wide = deblur_pair(
            scene, replace(params, solver=replace(solver, rho=0.5, max_iters=4))
        )
        _, admm = salsa(scene, den, solver)
        assert gmres.converged and not wide.converged
        for report in (gmres, wide, admm):
            # strict JSON: a field a solver leaves unset must not be NaN
            text = json.dumps(asdict(report), allow_nan=False)
            record = json.loads(text)
            assert json.dumps(record) == text
            assert record["primal_residuals"] == report.primal_residuals
            assert len(record["primal_residuals"]) == report.iterations_run
        assert len(admm.dual_residuals) == len(admm.objective_trace) == 40
        assert gmres.final_dual is None and wide.final_dual is None

    def test_admm_tolerances_do_not_change_the_result(self):
        # primal_tol/dual_tol bound run_admm only; GMRES stops at FIXED_POINT_RTOL
        scene = scene_16(seed=16)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        results = []
        for tol in (1e-2, 1e-9):
            solver = SolverConfig(
                rho=0.1, lam=0.3, tau=0.05, primal_tol=tol, dual_tol=10 * tol
            )
            x, report = deblur_pair(scene, PairParams(patch_side=4, em=em, solver=solver))
            results.append((x.tobytes(), report.iterations_run, report.final_primal))
        assert results[0] == results[1]


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


def both_solves(scene, den, cfg):
    """``(x, report)`` of the pipeline's preconditioned solve and of the
    unpreconditioned one."""
    x, plain = solve_fixed_point(
        pair_data(scene, cfg.lam),
        lambda v: denoise_image_fixed(v, den),
        cfg,
    )
    return [gmres(scene, den, cfg), (x[0], plain)]


def check_admm_reference(scene, rho, tau, pure_linear, lam=0.3):
    den = trained_denoiser(scene, rho, tau, pure_linear)
    cfg = SolverConfig(
        rho=rho, lam=lam, tau=tau, max_iters=5000, primal_tol=1e-10, dual_tol=1e-10
    )
    x_admm, admm_report = salsa(scene, den, cfg)
    assert admm_report.converged
    for x, report in both_solves(scene, den, cfg):
        assert report.converged
        assert report.iterations_run < admm_report.iterations_run
        assert relative_error(x, x_admm) <= 1e-8


class TestFixedPointSolve:
    def test_adjoint_passes_the_dot_product_test(self):
        scene = scene_16(seed=5, kernel="motion15")
        data = pair_data(scene, 0.3)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(data.shape)
            r = rng.standard_normal(data.target.shape)
            ax = data.apply(x)
            atr = data.adjoint(r)
            assert atr.shape == data.shape
            scale = np.linalg.norm(ax) * np.linalg.norm(r)
            assert abs(ax @ r - np.sum(x * atr)) <= 1e-12 * scale

    @pytest.mark.parametrize("pure_linear", [True, False])
    def test_matches_the_admm_reference(self, pure_linear):
        check_admm_reference(scene_16(seed=11), 0.08, 0.08, pure_linear)

    def test_matches_the_admm_reference_with_rho_above_lam(self):
        check_admm_reference(scene_16(seed=11), 0.5, 0.05, pure_linear=False)

    @pytest.mark.parametrize(
        "rho,tau,pure_linear",
        [
            pytest.param(0.08, 0.08, True, id="0.08-0.08"),
            pytest.param(0.2, 0.05, True, id="0.2-0.05"),
            pytest.param(0.08, 0.08, False, id="0.08-0.08-practical"),
            pytest.param(0.2, 0.05, False, id="0.2-0.05-practical"),
            pytest.param(0.5, 0.05, True, id="0.5-0.05"),
            pytest.param(0.5, 0.05, False, id="0.5-0.05-practical"),
        ],
    )
    def test_matches_the_dense_minimizer(self, rho, tau, pure_linear):
        scene = scene_16(seed=11)
        lam = 0.3
        den = trained_denoiser(scene, rho, tau, pure_linear)
        cfg = SolverConfig(rho=rho, lam=lam, tau=tau)
        expected = pair_data(scene, lam).minimizer(rho, build_explicit_w(den))[0]
        for x, report in both_solves(scene, den, cfg):
            assert report.converged
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
        expected = pair_data(scene, lam).minimizer(0.0)[0]
        assert relative_error(x, expected) <= 1e-8


class TestShiftedSolve:
    """The pair solve of the shifted system ``(rho I + G D) w = b``,
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
        x_ref, ref = gmres(scene, denoiser_of(scene, params), solver)
        assert report.converged
        assert x.tobytes() == x_ref.tobytes()
        assert asdict(report) == asdict(ref)

    def test_report_records_one_residual_per_application(self, monkeypatch):
        scene = scene_16(seed=11, kernel="motion15")
        calls = []

        def counting(v, denoiser):
            calls.append(1)
            return denoise_image_fixed(v, denoiser)

        monkeypatch.setattr(sharpen_module, "denoise_image_fixed", counting)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=15, seed=0
        )
        cfg = SolverConfig(rho=0.02, lam=0.2, tau=0.01)
        params = PairParams(patch_side=4, em=em, solver=cfg)
        _, report = deblur_pair(scene, params)
        assert report.converged
        # one call for D A^T t, then one per step and per recomputed residual
        assert report.iterations_run == len(calls) - 1
        assert len(report.primal_residuals) == report.iterations_run
        assert report.primal_residuals[-1] == report.final_primal
        assert report.final_primal <= FIXED_POINT_RTOL
        den = denoiser_of(scene, params)
        _, plain = solve_fixed_point(
            pair_data(scene, 0.2), lambda v: counting(v, den), cfg
        )
        assert report.iterations_run < plain.iterations_run

    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_small_budget_is_unconverged(self, budget):
        scene = scene_16(seed=11)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=15, seed=0
        )
        cfg = SolverConfig(rho=0.08, lam=0.3, tau=0.08, max_iters=budget)
        _, report = deblur_pair(scene, PairParams(patch_side=4, em=em, solver=cfg))
        assert report.converged is False
        assert report.iterations_run <= budget
        assert len(report.primal_residuals) == report.iterations_run

    def test_missed_true_residual_restarts_from_it(self, monkeypatch):
        # the residual recomputed last in an undisturbed solve comes back
        # perturbed, so it misses the tolerance the steps met; the restart
        # recovers the fixed point
        scene = scene_16(seed=11)
        den = trained_denoiser(scene, 0.08, 0.08, pure_linear=False)
        cfg = SolverConfig(rho=0.08, lam=0.3, tau=0.08)
        blur = sharpen_module.blur_rows
        forward = []
        glitched = []

        def glitch(x, kernel, adjoint=False):
            forward.append(not adjoint)
            scale = 1 + 1e-6 * (not adjoint and sum(forward) in glitched)
            return blur(x, kernel, adjoint=adjoint) * scale

        monkeypatch.setattr(sharpen_module, "blur_rows", glitch)
        gmres(scene, den, cfg)
        # every step blurs forward once, and so does each recomputed residual
        glitched.append(sum(forward))
        forward.clear()
        x, report = gmres(scene, den, cfg)
        monkeypatch.undo()
        trace = report.primal_residuals
        missed = [
            k for k in range(1, len(trace))
            if trace[k - 1] <= FIXED_POINT_RTOL < trace[k]
        ]
        assert missed
        assert report.converged
        expected = pair_data(scene, 0.3).minimizer(0.08, build_explicit_w(den))[0]
        assert relative_error(x, expected) <= 1e-9

    def test_indefinite_denoiser_raises_divergence(self, monkeypatch):
        scene = scene_16(seed=11)
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=15, seed=0
        )
        cfg = SolverConfig(rho=0.08, lam=0.3, tau=0.08)
        monkeypatch.setattr(
            sharpen_module,
            "denoise_image_fixed",
            lambda v, d: -denoise_image_fixed(v, d),
        )
        with pytest.raises(DivergenceError):
            deblur_pair(scene, PairParams(patch_side=4, em=em, solver=cfg))

    def test_shift_that_is_not_positive_definite_solves(self):
        scene = scene_16(seed=11)
        den = trained_denoiser(scene, 0.5, 0.08, pure_linear=False)
        assert scene.blur.power_spectrum.min() + 0.3 < 0.5
        x, report = gmres(scene, den, SolverConfig(rho=0.5, lam=0.3, tau=0.08))
        assert report.converged
        expected = pair_data(scene, 0.3).minimizer(0.5, build_explicit_w(den))[0]
        assert relative_error(x, expected) <= 1e-9


class TestOneBandSharpening:
    """deblur_pair is sharpen on the one-band scene, bit for bit."""

    def test_deblur_pair_is_sharpen_on_the_one_band_scene(self):
        scene = scene_16(seed=16, kernel="motion15")
        em = EmConfig(
            n_components=3, noise_variance=scene.sigma_n**2, max_iters=10, seed=0
        )
        solver = SolverConfig(rho=0.1, lam=0.3, tau=0.05)
        x, report = deblur_pair(scene, PairParams(patch_side=4, em=em, solver=solver))
        z, expected = sharpen(
            one_band(scene),
            SharpenParams(n_subspace=1, patch_side=4, em=em, solver=solver),
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
        beta = den.weights.beta
        assert beta.min() >= 0
        assert np.abs(beta.sum(axis=0) - 1).max() <= SIMPLEX_ATOL


RUN_IN_FRESH_INTERPRETER = """
import sys

from pnpfusion import (
    EmConfig,
    HsSceneSpec,
    ImageGeometry,
    PairParams,
    PairSceneSpec,
    SharpenParams,
    SolverConfig,
    deblur_pair,
    generate_hs_scene,
    generate_pair_scene,
    sharpen,
)


def scipy_modules():
    # numpy.ma costs ~9 ms to import and the pipelines do not need it
    return " ".join(
        sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.ma")
    )


print("import:", scipy_modules())
scene = generate_pair_scene(
    PairSceneSpec(ImageGeometry(16, 16), "gauss8", 25 / 255, 2 / 255, seed=7)
)
params = PairParams(
    patch_side=4,
    em=EmConfig(n_components=2, noise_variance=scene.sigma_n**2, max_iters=5),
    solver=SolverConfig(rho=0.08, lam=0.3, tau=0.08),
)
_, report = deblur_pair(scene, params)
assert report.converged
print("deblur_pair:", scipy_modules())
scene = generate_hs_scene(
    HsSceneSpec(ImageGeometry(8, 8), 6, 2, 2, decimation=2, snr_h_db=35.0,
                snr_m_db=35.0, seed=3)
)
params = SharpenParams(
    n_subspace=2,
    patch_side=2,
    em=EmConfig(n_components=2, noise_variance=scene.sigma_m**2, max_iters=5),
    solver=SolverConfig(rho=0.05, lam=0.5, tau=0.05),
)
_, report = sharpen(scene, params)
assert report.converged
print("sharpen:", scipy_modules())
"""


def test_a_pipeline_run_loads_no_scipy():
    # pnpfusion needs only numpy; loading scipy made up ~20 MB of a 71 MB
    # peak RSS at the benchmark's pair-iterate size
    src = str(Path(pnpfusion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", RUN_IN_FRESH_INTERPRETER],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.split("\n")[:3] == ["import: ", "deblur_pair: ", "sharpen: "]
