"""PnP solvers for the frozen-denoiser fixed point: CG, and ADMM/SALSA.

With the GMM weights frozen the plugged-in denoiser is a fixed linear map D,
so the point where ADMM/SALSA converge solves the linear equation

    rho (x - D x) + D A^T (A x - t) = 0

for the pipeline's data term ``0.5 ||A x - t||^2``. D is symmetric PSD
with ``||D|| <= 1``, so this is the symmetric positive definite system
``(A^T A + rho (D^-1 - I)) x = A^T t``, and :func:`solve_fixed_point` solves
it by conjugate gradients preconditioned with D (Hestenes & Stiefel, J. Res.
NBS 1952), which never forms ``D^-1``. The fusion pipelines call it.

:func:`run_admm` is the paper-faithful reference that reaches the same point
by iterating. A problem supplies four callbacks:

* ``x_update(vs, us)``: minimize the sum of quadratic coupling terms over x,
  given the current splitting blocks;
* ``h_apply(x)``: the list ``[H_j x]`` of linear-operator images of x;
* ``v_update(j, target)``: the prox step of the j-th term at ``target``;
* ``objective(x)``: a scalar for diagnostics, recorded every iteration
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


@dataclass(frozen=True)
class SolverConfig:
    """ADMM penalty, data weights, and iteration/tolerance budgets.

    ``primal_tol`` and ``dual_tol`` bound :func:`run_admm` only.
    :func:`solve_fixed_point`, which the fusion pipelines call, always
    iterates to ``FIXED_POINT_RTOL`` and reads ``max_iters`` as its budget
    of applications of the denoiser. Both solvers always record their
    traces in the :class:`SolveReport`.
    """

    rho: float
    lam: float = 0.0
    tau: float = 0.0
    max_iters: int = 1000
    primal_tol: float = 1e-6
    dual_tol: float = 1e-6

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
    """Per-run diagnostics; every solve fills its traces.

    The fields are an int, a bool, floats and float lists, so
    ``dataclasses.asdict(report)`` is the machine-readable record and
    ``json.dumps`` takes it as it is (a field left unset is NaN, which
    Python's json writes as ``NaN``). Each solver appends one primal
    residual per iteration, so ``len(primal_residuals) == iterations_run``.

    From :func:`run_admm` (the ADMM/SALSA reference): ``iterations_run``
    counts iterations, the residuals are the stacked primal and dual norms,
    and ``objective_trace`` holds the problem's ``objective(x)`` per
    iteration: in the fusion pipelines the data-fit term alone, without the
    regularizer phi, which needs the dense W.

    From :func:`solve_fixed_point` (the CG path the pipelines take):
    ``iterations_run`` counts applications of D, ``primal_residuals`` holds
    one relative fixed-point residual per application (CG's recursively
    updated residual after each step, the residual recomputed at x after
    each run of steps), ``final_primal`` is the residual recomputed at the
    returned x, and the dual and objective fields stay empty.
    """

    iterations_run: int = 0
    primal_residuals: list[float] = field(default_factory=list)
    dual_residuals: list[float] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = False
    final_primal: float = float("nan")
    final_dual: float = float("nan")


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
        report.primal_residuals.append(primal)
        report.dual_residuals.append(dual)
        report.objective_trace.append(float(problem.objective(x)))
        if primal < config.primal_tol and dual < config.dual_tol:
            report.converged = True
            break
    return x, report


def solve_fixed_point(data, denoise, rho: float, config: SolverConfig):
    """Solve ``rho (x - D x) + D A^T (A x - t) = 0`` by D-preconditioned CG.

    ``data`` is the pipeline's :class:`~pnpfusion.denoiser.DataTerm` (A is
    ``data.apply``, A^T is ``data.adjoint``, t is ``data.target``) and
    ``denoise`` applies the linear denoiser D to an array of ``data.shape``.
    This is the equation whose solution ADMM/SALSA converge to with that D,
    so :func:`run_admm` on the pipeline's problem reaches the same x.

    The equation is ``M x = A^T t`` with ``M = A^T A + rho (D^-1 - I)``.
    Beside each CG search direction p the solver carries s with ``p = D s``,
    so ``M p = A^T A p + rho (s - p)`` needs no ``D^-1``. Each step applies
    D once, to the residual r, and ``z = D r`` is the fixed-point residual
    at x up to sign.

    CG starts from x = 0 and steps until ``||z||``, relative to
    ``||D A^T t||``, is at most ``FIXED_POINT_RTOL``. The fixed-point
    residual is then recomputed at x, and CG restarts from it if it misses
    the tolerance. A step is taken only if it and that recomputation fit in
    ``config.max_iters`` applications of D. The report's ``iterations_run``
    counts the applications after the one that forms the right-hand side,
    ``primal_residuals`` holds one relative residual per application, and
    ``converged`` and ``final_primal`` come from the residual recomputed at
    the returned x. ``config.primal_tol`` and ``config.dual_tol`` are not
    read. Returns ``(x, SolveReport)``. Raises :class:`DivergenceError` if a
    residual is non-finite or if ``r^T z`` or ``p^T M p`` is not positive,
    as happens when D is not PSD.
    """
    report = SolveReport()
    b = data.adjoint(data.target)
    z = denoise(b)
    rhs_norm = float(np.linalg.norm(z))
    if not np.isfinite(rhs_norm):
        raise DivergenceError("non-finite right-hand side", iteration=0)
    x = np.zeros(data.shape)
    if rhs_norm == 0:
        report.converged, report.final_primal = True, 0.0
        return x, report

    def apply_d(v):
        report.iterations_run += 1
        return denoise(v)

    def measure(z):
        relative = float(np.linalg.norm(z)) / rhs_norm
        if not np.isfinite(relative):
            raise DivergenceError(
                f"non-finite residual at application {report.iterations_run}",
                iteration=report.iterations_run,
            )
        report.primal_residuals.append(relative)
        return relative

    def normal(v):
        return data.adjoint(data.apply(v))

    def budget_left():
        # room for one more step and the residual recomputed after it
        return report.iterations_run + 2 <= config.max_iters

    xi = np.zeros_like(x)  # x = D xi, so a restart can form r without D^-1
    r, relative = b, 1.0
    while True:
        p, s, rz = z, r, float(np.vdot(r, z))
        while relative > FIXED_POINT_RTOL and budget_left():
            q = normal(p) + rho * (s - p)
            pq = float(np.vdot(p, q))
            if not (rz > 0 and pq > 0):
                raise DivergenceError(
                    f"non-positive curvature at application {report.iterations_run}"
                    " (D is not symmetric PSD)",
                    iteration=report.iterations_run,
                )
            alpha = rz / pq
            x += alpha * p
            xi += alpha * s
            r = r - alpha * q
            z = apply_d(r)
            relative = measure(z)
            rz_prev, rz = rz, float(np.vdot(r, z))
            p = z + (rz / rz_prev) * p
            s = r + (rz / rz_prev) * s
        grad = normal(x) - b
        z = -(apply_d(grad - rho * x) + rho * x)
        relative = measure(z)
        if relative <= FIXED_POINT_RTOL or not budget_left():
            break
        r = -grad - rho * (xi - x)
    report.final_primal = relative
    report.converged = relative <= FIXED_POINT_RTOL
    return x, report
