"""PnP solvers for the frozen-denoiser fixed point: GMRES, and ADMM/SALSA.

With the GMM weights frozen the plugged-in denoiser is a fixed linear map D,
so the point where ADMM/SALSA converge solves the linear equation

    rho (x - D x) + D A^T (A x - t) = 0

for the pipeline's data term ``0.5 ||A x - t||^2``.
:func:`solve_fixed_point` solves it with restarted GMRES (Saad & Schultz,
SIAM J. Sci. Stat. Comput. 1986); the fusion pipelines call it.

:func:`run_admm` is the paper-faithful reference that reaches the same point
by iterating. A problem supplies four callbacks:

* ``x_update(vs, us)``: minimize the sum of quadratic coupling terms over x,
  given the current splitting blocks;
* ``h_apply(x)``: the list ``[H_j x]`` of linear-operator images of x;
* ``v_update(j, target)``: the prox step of the j-th term at ``target``;
* ``objective(x)``: a scalar for diagnostics, recorded with the history
  (the pipelines report their data-fit term).

The driver iterates x / v / scaled-dual updates with the v blocks initialized
by the caller (zeros in the paper-style pipelines) and the scaled duals at
zero, stops when both stacked residuals fall below their tolerances, and
never mutates callback state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError

# Relative fixed-point residual ||rho (x - D x) + D grad F(x)|| / ||D A^T t||
# that solve_fixed_point iterates to.
FIXED_POINT_RTOL = 1e-10
# GMRES restart length; 30-80 matvecs reach FIXED_POINT_RTOL on the
# benchmark scenes, so a solve rarely restarts.
GMRES_RESTART = 200


@dataclass(frozen=True)
class SolverConfig:
    """ADMM penalty, data weights, and iteration/tolerance budgets."""

    rho: float
    lam: float = 0.0
    tau: float = 0.0
    max_iters: int = 1000
    primal_tol: float = 1e-6
    dual_tol: float = 1e-6
    record_history: bool = False

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.rho > 0:
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if not (self.lam >= 0 and self.tau >= 0):
            raise ConfigError("lam and tau must be nonnegative")
        if not self.max_iters >= 1:
            raise ConfigError("max_iters must be >= 1")
        if not (self.primal_tol > 0 and self.dual_tol > 0):
            raise ConfigError("tolerances must be positive")


@dataclass
class SolveReport:
    """Per-run diagnostics; traces are populated when history is recorded.

    From :func:`run_admm` (the ADMM/SALSA reference): ``iterations_run``
    counts iterations, the residuals are the stacked primal and dual norms,
    and ``objective_trace`` holds the problem's ``objective(x)`` per
    iteration: in the fusion pipelines the data-fit term alone, without the
    regularizer phi, which needs the dense W.

    From :func:`solve_fixed_point` (the GMRES path the pipelines take):
    ``iterations_run`` counts matvecs, ``primal_residuals`` holds one
    relative fixed-point residual per matvec (GMRES's estimate after each
    Krylov step, the recomputed residual after each restart cycle),
    ``final_primal`` is the residual recomputed at the returned x, and the
    dual and objective fields stay empty.
    """

    iterations_run: int = 0
    primal_residuals: list[float] = field(default_factory=list)
    dual_residuals: list[float] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = False
    final_primal: float = float("nan")
    final_dual: float = float("nan")

    def write_csv(self, path) -> None:
        """Export the recorded traces as iteration,primal,dual,objective.

        A trace shorter than the primal one leaves its cells empty.
        """

        def cell(trace, k):
            return repr(trace[k]) if k < len(trace) else ""

        with open(path, "w") as fh:
            fh.write("iteration,primal,dual,objective\n")
            for k, primal in enumerate(self.primal_residuals):
                fh.write(
                    f"{k},{primal!r},{cell(self.dual_residuals, k)},"
                    f"{cell(self.objective_trace, k)}\n"
                )


def residuals(prev_v, cur_v, cur_hx, rho: float) -> tuple[float, float]:
    """Stacked primal ``||Hx - v||`` and dual ``rho ||v - v_prev||`` norms."""
    if not (len(prev_v) == len(cur_v) == len(cur_hx)):
        raise DimensionError("residual blocks have mismatched counts")
    primal_sq = 0.0
    dual_sq = 0.0
    for vp, vc, hx in zip(prev_v, cur_v, cur_hx):
        if vp.shape != vc.shape or vc.shape != hx.shape:
            raise DimensionError("residual blocks have mismatched shapes")
        primal_sq += float(np.sum((hx - vc) ** 2))
        dual_sq += float(np.sum((vc - vp) ** 2))
    return float(np.sqrt(primal_sq)), float(rho * np.sqrt(dual_sq))


def _all_finite(arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def run_admm(problem, config: SolverConfig, init_v):
    """Iterate SALSA-style x / v / scaled-dual updates until convergence.

    The scaled duals start at zero. Returns ``(x, SolveReport)`` with the last
    computed x. Raises :class:`DivergenceError` if any iterate goes non-finite.
    """
    vs = [np.array(v, dtype=float) for v in init_v]
    us = [np.zeros_like(v) for v in vs]
    report = SolveReport()
    x = None
    for k in range(config.max_iters):
        x = problem.x_update(vs, us)
        hx = problem.h_apply(x)
        new_vs = [problem.v_update(j, hx[j] - us[j]) for j in range(len(vs))]
        us = [u - h + v for u, h, v in zip(us, hx, new_vs)]
        primal, dual = residuals(vs, new_vs, hx, config.rho)
        vs = new_vs
        if not (np.isfinite(primal) and np.isfinite(dual) and _all_finite([x])):
            raise DivergenceError(
                f"non-finite iterate at iteration {k}", iteration=k
            )
        report.iterations_run = k + 1
        report.final_primal = primal
        report.final_dual = dual
        if config.record_history:
            report.primal_residuals.append(primal)
            report.dual_residuals.append(dual)
            report.objective_trace.append(float(problem.objective(x)))
        if primal < config.primal_tol and dual < config.dual_tol:
            report.converged = True
            break
    return x, report


def solve_fixed_point(data, denoise, rho: float, config: SolverConfig):
    """Solve ``rho (x - D x) + D A^T (A x - t) = 0`` with GMRES.

    ``data`` is the pipeline's :class:`~pnpfusion.denoiser.DataTerm` (A is
    ``data.apply``, A^T is ``data.adjoint``, t is ``data.target``) and
    ``denoise`` applies the linear denoiser D to an array of ``data.shape``.
    This is the equation whose solution ADMM/SALSA converge to with that D,
    so :func:`run_admm` on the pipeline's problem reaches the same x.

    GMRES starts from x = 0 and stops once the relative residual, measured
    against ``||D A^T t||``, is at most ``FIXED_POINT_RTOL``, or when the
    next restart cycle would not fit in ``config.max_iters`` matvecs. The
    report's ``iterations_run`` is the number of matvecs; ``converged`` and
    ``final_primal`` come from the residual recomputed at the returned x.
    Returns ``(x, SolveReport)``. Raises :class:`DivergenceError` if a
    residual or x is non-finite.
    """
    shape = data.shape

    def fixed_point_map(flat):
        x = flat.reshape(shape)
        # rho (x - D x) + D A^T A x, with one application of D
        return (denoise(data.adjoint(data.apply(x)) - rho * x) + rho * x).ravel()

    report = SolveReport()

    def on_matvec(relative):
        report.iterations_run += 1
        if not np.isfinite(relative):
            raise DivergenceError(
                f"non-finite residual at matvec {report.iterations_run}",
                iteration=report.iterations_run,
            )
        if config.record_history:
            report.primal_residuals.append(float(relative))

    rhs = denoise(data.adjoint(data.target)).ravel()
    flat, relative = _gmres(fixed_point_map, rhs, config.max_iters, on_matvec)
    if not np.all(np.isfinite(flat)):
        raise DivergenceError(
            f"non-finite solution after {report.iterations_run} matvecs",
            iteration=report.iterations_run,
        )
    report.final_primal = relative
    report.converged = relative <= FIXED_POINT_RTOL
    return flat.reshape(shape), report


def _gmres(matvec, b, max_matvecs, on_matvec):
    """Restarted GMRES for ``matvec(x) = b`` from x = 0 (Saad & Schultz 1986).

    Each cycle runs up to ``GMRES_RESTART`` Arnoldi steps, orthogonalizing
    by classical Gram-Schmidt applied twice, and keeps the Hessenberg
    least-squares problem triangular with Givens rotations. A cycle stops
    when the rotated residual estimate reaches ``FIXED_POINT_RTOL * ||b||``;
    the true residual at its x then decides whether to restart. A cycle
    starts only if one step and that residual fit in ``max_matvecs``.
    ``on_matvec`` gets the relative residual after every matvec: the
    estimate after each step, the true residual after each cycle. Returns
    ``(x, relative residual at x)``.

    scipy.sparse.linalg.gmres would do the same work, but importing it loads
    scipy.linalg too, which adds ~11 MB to the peak RSS of a pipeline run.
    """
    x = np.zeros_like(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0:
        return x, 0.0
    r, relative, used = b, 1.0, 0
    while relative > FIXED_POINT_RTOL and used + 2 <= max_matvecs:
        steps = min(GMRES_RESTART, max_matvecs - used - 1)
        # 64 basis rows cover the benchmark solves; more are allocated only
        # when a cycle needs them. All GMRES_RESTART + 1 rows up front raised
        # the peak RSS of an hs-sharpen run by ~3 MB (5 %).
        basis = np.empty((min(steps, 64) + 1, b.size))
        hess = np.zeros((steps + 1, steps))
        rotations = np.zeros((steps, 2))
        g = np.zeros(steps + 1)
        g[0] = np.linalg.norm(r)
        basis[0] = r / g[0]
        for j in range(steps):
            w = matvec(basis[j])
            used += 1
            for _ in range(2):
                h = basis[: j + 1] @ w
                w -= h @ basis[: j + 1]
                hess[: j + 1, j] += h
            w_norm = np.linalg.norm(w)
            hess[j + 1, j] = w_norm
            for i, (c, s) in enumerate(rotations[:j]):
                hess[i, j], hess[i + 1, j] = (
                    c * hess[i, j] + s * hess[i + 1, j],
                    c * hess[i + 1, j] - s * hess[i, j],
                )
            radius = np.hypot(hess[j, j], w_norm)
            c, s = (hess[j, j] / radius, w_norm / radius) if radius else (1.0, 0.0)
            rotations[j] = c, s
            hess[j, j], hess[j + 1, j] = radius, 0.0
            g[j], g[j + 1] = c * g[j], -s * g[j]
            on_matvec(abs(g[j + 1]) / b_norm)
            if abs(g[j + 1]) <= FIXED_POINT_RTOL * b_norm:  # also on breakdown
                break
            if j + 1 == len(basis):
                basis = np.concatenate([basis, np.empty_like(basis)])
            basis[j + 1] = w / w_norm
        k = j + 1
        y = np.linalg.lstsq(hess[:k, :k], g[:k], rcond=None)[0]
        x = x + y @ basis[:k]
        r = b - matvec(x)
        used += 1
        relative = float(np.linalg.norm(r)) / b_norm
        on_matvec(relative)
    return x, relative
