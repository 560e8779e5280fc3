"""PnP solvers for the frozen-denoiser fixed point: CG, and ADMM/SALSA.

With the GMM weights frozen the plugged-in denoiser is a fixed linear map D,
so the point where ADMM/SALSA converge solves the linear equation

    rho (x - D x) + D A^T (A x - t) = 0

for the pipeline's data term ``0.5 ||A x - t||^2``. D is symmetric PSD
with ``||D|| <= 1``, so this is the symmetric positive definite system
``(A^T A + rho (D^-1 - I)) x = A^T t``. Two conjugate-gradient solves
(Hestenes & Stiefel, J. Res. NBS 1952) reach it without forming ``D^-1``:

* :func:`solve_fixed_point` preconditions with D and works for any data
  term;
* :func:`solve_shifted_fixed_point` needs ``A^T A`` circulant and
  ``G = A^T A - rho I`` positive definite. It solves the shifted system
  ``(D + rho G^-1) w = G^-1 A^T t`` for ``x = D w`` with a preconditioner
  that is diagonal in the DFT basis, and takes far fewer applications of D.

Pair deblurring takes the shifted solve whenever it applies. Sharpening's
decimation mask keeps its normal matrix off the DFT diagonal, so it takes
:func:`solve_fixed_point`.

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
from .fftops import symbol_products

# Relative fixed-point residual ||rho (x - D x) + D grad F(x)|| / ||D A^T t||
# that both CG solves iterate to.
FIXED_POINT_RTOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """ADMM penalty, data weights, and iteration/tolerance budgets.

    ``primal_tol`` and ``dual_tol`` bound :func:`run_admm` only. The CG
    solves, which the fusion pipelines call, always iterate to
    ``FIXED_POINT_RTOL`` and read ``max_iters`` as their budget of
    applications of the denoiser. Both solvers always record their
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

    The fields are an int, a bool, floats, None and float lists, so
    ``dataclasses.asdict(report)`` is the machine-readable record and
    ``json.dumps(..., allow_nan=False)`` takes it as it is: a field that a
    solver does not fill stays None. Each solver appends one primal residual
    per iteration, so ``len(primal_residuals) == iterations_run``.

    From :func:`run_admm` (the ADMM/SALSA reference): ``iterations_run``
    counts iterations, the residuals are the stacked primal and dual norms,
    and ``objective_trace`` holds the problem's ``objective(x)`` per
    iteration: in the fusion pipelines the data-fit term alone, without the
    regularizer phi, which needs the dense W.

    From the CG solves the pipelines take: ``iterations_run`` counts
    applications of D, ``primal_residuals`` holds one relative fixed-point
    residual per application, ``final_primal`` is the residual recomputed at
    the returned x, ``final_dual`` stays None and the dual and objective
    traces stay empty. An entry after a CG step is CG's recursively updated
    residual for :func:`solve_fixed_point`, and for
    :func:`solve_shifted_fixed_point` the bound ``||G r|| / ||D A^T t||`` on
    it; the entry after each run of steps is the residual recomputed at x.
    """

    iterations_run: int = 0
    primal_residuals: list[float] = field(default_factory=list)
    dual_residuals: list[float] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = False
    final_primal: float | None = None
    final_dual: float | None = None


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


class _Applications:
    """The budget and per-application trace that both CG solves share.

    Applications of D are counted after the one that forms ``D A^T t``, and
    every residual is relative to ``||D A^T t||``.
    """

    def __init__(self, denoise, rhs_norm: float, config: SolverConfig, report):
        self.denoise = denoise
        self.rhs_norm = rhs_norm
        self.max_iters = config.max_iters
        self.report = report

    def apply_d(self, v):
        self.report.iterations_run += 1
        return self.denoise(v)

    def measure(self, v) -> float:
        """Append and return ``||v||`` relative to ``||D A^T t||``."""
        relative = float(np.linalg.norm(v)) / self.rhs_norm
        if not np.isfinite(relative):
            raise DivergenceError(
                f"non-finite residual at application {self.report.iterations_run}",
                iteration=self.report.iterations_run,
            )
        self.report.primal_residuals.append(relative)
        return relative

    def budget_left(self) -> bool:
        # room for one more step and the residual recomputed after it
        return self.report.iterations_run + 2 <= self.max_iters

    def check_curvature(self, rz: float, pq: float):
        if not (rz > 0 and pq > 0):
            raise DivergenceError(
                f"non-positive curvature at application {self.report.iterations_run}"
                " (D is not symmetric PSD)",
                iteration=self.report.iterations_run,
            )

    def finish(self, relative: float):
        self.report.final_primal = relative
        self.report.converged = relative <= FIXED_POINT_RTOL
        return self.report


def _start(data, denoise, config: SolverConfig):
    """``b = A^T t``, ``D b`` and the trace; raises if ``D b`` is not finite."""
    b = data.adjoint(data.target)
    db = denoise(b)
    rhs_norm = float(np.linalg.norm(db))
    if not np.isfinite(rhs_norm):
        raise DivergenceError("non-finite right-hand side", iteration=0)
    return b, db, _Applications(denoise, rhs_norm, config, SolveReport())


def _true_residual(data, b, x, rho, steps: _Applications):
    """The fixed-point residual at x, negated, measured as one application.

    ``-(rho (x - D x) + D (A^T A x - b)) = -(D (grad - rho x) + rho x)``.
    Returns the residual, ``grad = A^T A x - b`` and the relative norm.
    """
    grad = data.adjoint(data.apply(x)) - b
    z = -(steps.apply_d(grad - rho * x) + rho * x)
    return z, grad, steps.measure(z)


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
    b, z, steps = _start(data, denoise, config)
    x = np.zeros(data.shape)
    if steps.rhs_norm == 0:
        return x, steps.finish(0.0)

    xi = np.zeros_like(x)  # x = D xi, so a restart can form r without D^-1
    r, relative = b, 1.0
    while True:
        p, s, rz = z, r, float(np.vdot(r, z))
        while relative > FIXED_POINT_RTOL and steps.budget_left():
            q = data.adjoint(data.apply(p)) + rho * (s - p)
            pq = float(np.vdot(p, q))
            steps.check_curvature(rz, pq)
            alpha = rz / pq
            x += alpha * p
            xi += alpha * s
            r = r - alpha * q
            z = steps.apply_d(r)
            relative = steps.measure(z)
            rz_prev, rz = rz, float(np.vdot(r, z))
            p = z + (rz / rz_prev) * p
            s = r + (rz / rz_prev) * s
        z, grad, relative = _true_residual(data, b, x, rho, steps)
        if relative <= FIXED_POINT_RTOL or not steps.budget_left():
            break
        r = -grad - rho * (xi - x)
    return x, steps.finish(relative)


def solve_shifted_fixed_point(
    data, denoise, rho: float, config: SolverConfig, normal_symbol, denoise_symbol
):
    """Solve the fixed point of :func:`solve_fixed_point` as a shifted system
    by CG with a circulant preconditioner.

    For a data term whose normal matrix ``A^T A`` is circulant on an image
    grid, with eigenvalues ``normal_symbol`` on the 2-D DFT grid, and with
    ``G = A^T A - rho I`` positive definite (``min(normal_symbol) > rho``).
    The fixed-point equation is ``(G + rho D^-1) x = b`` with ``b = A^T t``.
    Writing ``x = D w`` turns it into the symmetric positive definite system

        (D + rho G^-1) w = G^-1 b,

    which needs no ``D^-1``. CG solves it preconditioned with the inverse of
    ``Dbar + rho G^-1``, where Dbar is the circulant part of D with
    eigenvalues ``denoise_symbol``; both factors are diagonal in the DFT
    basis. ``Dbar`` captures the shift-invariant part of D that
    :func:`solve_fixed_point`'s preconditioning by D alone leaves out, so a
    solve takes far fewer applications of D (T. Chan, SIAM J. Sci. Stat.
    Comput. 1988).

    Each step applies D once, to the search direction p, and ``x = D w``
    accumulates from those products. At x the fixed-point residual is
    ``-D G r`` for the CG residual r, and ``||D|| <= 1``, so the report's
    per-application entry is the bound ``||G r|| / ||D b||``, and CG steps
    until it is at most ``FIXED_POINT_RTOL``. The restart, budget, trace,
    ``final_primal``/``converged`` and :class:`DivergenceError` rules are
    those of :func:`solve_fixed_point`: the residual is recomputed at x after
    each run of steps, and CG restarts from it if it misses the tolerance.
    Raises :class:`ConfigError` unless G is positive definite.
    """
    shift = normal_symbol - rho  # G's eigenvalues
    if not shift.min() > 0:
        raise ConfigError("A^T A - rho I must be positive definite")
    b, _, steps = _start(data, denoise, config)
    x = np.zeros(data.shape)
    if steps.rhs_norm == 0:
        return x, steps.finish(0.0)

    # one FFT of r gives both G r and the preconditioned residual
    residual_symbols = np.stack([shift, 1.0 / (denoise_symbol + rho / shift)])
    w = np.zeros_like(x)
    r = symbol_products(b, 1.0 / shift)
    relative = float(np.linalg.norm(b)) / steps.rhs_norm
    while True:
        z = symbol_products(r, residual_symbols[1])
        p, rz = z, float(np.vdot(r, z))
        while relative > FIXED_POINT_RTOL and steps.budget_left():
            dp = steps.apply_d(p)
            q = dp + symbol_products(p, rho / shift)
            pq = float(np.vdot(p, q))
            steps.check_curvature(rz, pq)
            alpha = rz / pq
            w += alpha * p
            x += alpha * dp
            r = r - alpha * q
            gr, z = symbol_products(r, residual_symbols)
            relative = steps.measure(gr)
            rz_prev, rz = rz, float(np.vdot(r, z))
            p = z + (rz / rz_prev) * p
        _, _, relative = _true_residual(data, b, x, rho, steps)
        if relative <= FIXED_POINT_RTOL or not steps.budget_left():
            break
        # r = G^-1 b - (D w + rho G^-1 w), with the accumulated x for D w
        r = symbol_products(b - rho * w, 1.0 / shift) - x
    return x, steps.finish(relative)
