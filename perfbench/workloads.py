"""Workload definitions: scene specs, pipeline settings and correctness gates.

Each workload turns ``--seed`` into a fixed list of scene seeds, builds the
synthetic observations with ``pnpfusion.scenes`` and hands the pipeline only
the generated arrays. Ground truth stays on the benchmark side, where the
gates use it after the timed call returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from pnpfusion import (
    EmConfig,
    HsSceneSpec,
    ImageGeometry,
    PairParams,
    PairSceneSpec,
    SharpenParams,
    SolverConfig,
    apply_blur,
    blur_rows,
    deblur_pair,
    denoise_image_fixed,
    generate_hs_scene,
    generate_pair_scene,
    pca_basis,
    psnr,
    sam,
    sharpen,
    train_scene_denoiser,
    v3_update,
)
from pnpfusion.pairdeblur import train_pair_denoiser

# Scene seeds of one run: SCENE_STRIDE * seed + i for i < scenes.
SCENE_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A run builds ``scenes`` fixed problems and times at least ``solves``
    calls, cycling over the scenes.
    """

    name: str
    kind: str  # "pair" or "hs"
    scenes: int
    solves: int
    size: int
    kernel: str = ""
    patch_side: int = 0
    components: int = 0
    em_iters: int = 100
    em_tol: float = 1e-5
    rho: float = 1.0
    lam: float = 0.0
    tau: float = 0.0
    tol: float = 1e-4
    max_iters: int = 5000
    hs_bands: int = 0
    ms_bands: int = 0
    subspace: int = 0
    decimation: int = 0
    fixed_point_tol: float = 0.0  # 10x the worst the reference solver reached
    psnr_floor_db: float = 0.0  # hs quality gate
    sam_ceiling_deg: float = 0.0  # hs quality gate

    def scene_seeds(self, seed: int) -> list[int]:
        return [SCENE_STRIDE * seed + i for i in range(self.scenes)]


SIGMA_N = 25 / 255
SIGMA_B = 2 / 255

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pair-iterate", kind="pair", scenes=3, solves=3, size=64, kernel="motion15",
            patch_side=6, components=8, em_iters=25,
            rho=0.02, lam=0.2, tau=0.01, tol=1e-6, fixed_point_tol=5e-9,
        ),
        Workload(
            name="pair-train", kind="pair", scenes=1, solves=2, size=96, kernel="gauss8",
            # A fixed EM budget: stopping at loglik_rel_tol 1e-5 takes 43-66
            # iterations across seeds, which spreads total_s by ~19 %.
            patch_side=8, components=20, em_iters=50, em_tol=1e-12,
            rho=1.0, lam=0.2, tau=0.01, tol=1e-4, fixed_point_tol=1e-5,
        ),
        Workload(
            name="hs-sharpen", kind="hs", scenes=3, solves=3, size=32,
            patch_side=4, components=8, hs_bands=64, ms_bands=4, subspace=4,
            decimation=4, rho=0.01, lam=0.1, tau=1e-4, tol=1e-4,
            psnr_floor_db=28.0, sam_ceiling_deg=2.5, fixed_point_tol=1e-6,
        ),
    )
}

# Toy sizes for the smoke mode: same code paths, seconds instead of minutes.
SMOKE_WORKLOADS = {
    "pair-iterate": Workload(
        name="pair-iterate", kind="pair", scenes=1, solves=1, size=16, kernel="motion15",
        patch_side=3, components=2, em_iters=5, rho=0.5, lam=0.2, tau=0.01,
        tol=1e-4, fixed_point_tol=1e-3,
    ),
    "pair-train": Workload(
        name="pair-train", kind="pair", scenes=1, solves=1, size=16, kernel="gauss8",
        patch_side=4, components=3, em_iters=10, rho=1.0, lam=0.2, tau=0.01,
        tol=1e-4, fixed_point_tol=1e-3,
    ),
    "hs-sharpen": Workload(
        name="hs-sharpen", kind="hs", scenes=1, solves=1, size=16, patch_side=2,
        components=2, em_iters=5, hs_bands=16, ms_bands=4, subspace=2,
        decimation=4, rho=0.5, lam=0.1, tau=1e-3, tol=1e-3,
        psnr_floor_db=15.0, sam_ceiling_deg=15.0, fixed_point_tol=1e-2,
    ),
}


@dataclass(frozen=True)
class Problem:
    """Generated observations plus the benchmark-side truth and settings."""

    seed: int
    scene: object
    params: object
    truth: np.ndarray


def build_problem(w: Workload, seed: int) -> Problem:
    geometry = ImageGeometry(w.size, w.size)
    solver = SolverConfig(
        rho=w.rho, lam=w.lam, tau=w.tau, max_iters=w.max_iters,
        primal_tol=w.tol, dual_tol=w.tol,
    )
    if w.kind == "pair":
        scene = generate_pair_scene(
            PairSceneSpec(geometry, w.kernel, SIGMA_N, SIGMA_B, seed=seed)
        )
        em = EmConfig(
            w.components, scene.sigma_n**2, max_iters=w.em_iters,
            loglik_rel_tol=w.em_tol,
        )
        params = PairParams(patch_side=w.patch_side, em=em, solver=solver)
        truth = scene.truth
        scene = replace(scene, truth=None)
    else:
        scene = generate_hs_scene(
            HsSceneSpec(
                geometry, w.hs_bands, w.ms_bands, w.subspace, w.decimation,
                snr_h_db=30.0, snr_m_db=40.0, seed=seed,
            )
        )
        em = EmConfig(
            w.components, scene.sigma_m**2, max_iters=w.em_iters,
            loglik_rel_tol=w.em_tol,
        )
        params = SharpenParams(
            n_subspace=w.subspace, patch_side=w.patch_side, em=em, solver=solver
        )
        truth = scene.z
        scene = replace(scene, z=None)
    return Problem(seed=seed, scene=scene, params=params, truth=truth)


def build_inputs(w: Workload, seed: int) -> list[Problem]:
    return [build_problem(w, s) for s in w.scene_seeds(seed)]


def solve(w: Workload, problem: Problem):
    """The timed call: one public pipeline entry point, observations in."""
    if w.kind == "pair":
        return deblur_pair(problem.scene, problem.params)
    return sharpen(problem.scene, problem.params)


def quality(w: Workload, problem: Problem, x: np.ndarray) -> dict[str, float]:
    """PSNR against the truth, and SAM.

    For ``hs-sharpen`` the PSNR peak is the true cube's maximum. A grayscale
    image is one spectrum of n values, so on the pair workloads ``sam_deg``
    is the angle between the estimate and the truth as whole vectors.
    """
    if w.kind == "pair":
        return {
            "psnr_db": psnr(problem.truth, x),
            "sam_deg": sam(problem.truth[:, None], x[:, None]),
        }
    return {
        "psnr_db": psnr(problem.truth, x, peak=float(problem.truth.max())),
        "sam_deg": sam(problem.truth, x),
    }


def fixed_point_residual(problem: Problem, x: np.ndarray) -> float:
    """Relative residual of the PnP fixed-point equation at the output.

    At the limit of the ADMM/SALSA iterations with the linear denoiser D,
    ``rho (x - D x) + D grad F(x) = 0``, where F is the data-fit part of the
    objective. For a pair, grad F(x) = A x - b with A = B^T B + lam I and
    b = B^T y_b + lam y_n; for sharpening, F is the HS and MS data terms on
    the coefficients X = E^T Z and D acts on each coefficient band. The
    residual is divided by ``||D b||`` with ``b = -grad F(0)``.

    E and D are rebuilt through the public, seed-deterministic
    ``pca_basis``/``train_*_denoiser``. D is linear in both modes, so the
    check holds at any image size and for any solver of the same problem.
    """
    scene, prm = problem.scene, problem.params
    rho = prm.solver.rho
    variance = prm.solver.tau / rho
    if isinstance(prm, PairParams):
        den = train_pair_denoiser(
            scene, prm.patch_side, prm.em, variance, pure_linear=prm.pure_linear
        )
        b = apply_blur(scene.y_b, scene.blur, adjoint=True) + prm.solver.lam * scene.y_n

        def grad(v):
            bv = apply_blur(v, scene.blur)
            return apply_blur(bv, scene.blur, adjoint=True) + prm.solver.lam * v - b

        def apply_d(v):
            return denoise_image_fixed(v, den)

    else:
        e = pca_basis(scene.y_h, prm.n_subspace).e
        den = train_scene_denoiser(
            scene.y_m, scene.geometry, prm.patch_side, prm.em, variance,
            pure_linear=prm.pure_linear,
        )
        re = scene.r @ e
        idx = scene.masked_indices
        x = e.T @ x

        def grad(v):
            fit = np.zeros_like(v)
            fit[:, idx] = e.T @ (e @ blur_rows(v, scene.blur)[:, idx] - scene.y_h)
            return blur_rows(fit, scene.blur, adjoint=True) + prm.solver.lam * (
                re.T @ (re @ v - scene.y_m)
            )

        def apply_d(v):
            return v3_update(v, np.zeros_like(v), den)

    residual = rho * (x - apply_d(x)) + apply_d(grad(x))
    return float(np.linalg.norm(residual) / np.linalg.norm(apply_d(-grad(0 * x))))


def gate(w: Workload, problem: Problem, x: np.ndarray, report) -> tuple[dict, list[str]]:
    """Quality figures of one solve and the reasons it failed, if any."""
    reasons = []
    if not report.converged:
        reasons.append(f"budget of {report.iterations_run} iterations ended unconverged")
    if not np.all(np.isfinite(x)):
        reasons.append("non-finite output")
        return {}, reasons
    figures = quality(w, problem, x)
    if w.kind == "pair":
        scene = problem.scene
        floor = max(psnr(problem.truth, scene.y_b), psnr(problem.truth, scene.y_n))
        if not figures["psnr_db"] > floor:
            reasons.append(
                f"psnr {figures['psnr_db']:.3f} dB not above both inputs ({floor:.3f})"
            )
    else:
        if not figures["psnr_db"] >= w.psnr_floor_db:
            reasons.append(f"psnr {figures['psnr_db']:.3f} dB < {w.psnr_floor_db}")
        if not figures["sam_deg"] <= w.sam_ceiling_deg:
            reasons.append(f"sam {figures['sam_deg']:.3f} deg > {w.sam_ceiling_deg}")
    figures["fixed_point"] = fixed_point_residual(problem, x)
    if not figures["fixed_point"] <= w.fixed_point_tol:
        reasons.append(
            f"fixed-point residual {figures['fixed_point']:.3e} > {w.fixed_point_tol}"
        )
    return figures, reasons
