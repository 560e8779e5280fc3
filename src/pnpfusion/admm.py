"""PnP solvers for the frozen-denoiser fixed point: GMRES, and ADMM/SALSA.

With the GMM weights frozen the plugged-in denoiser is a fixed linear map D,
so the point where ADMM/SALSA converge solves the linear equation

    rho (x - D x) + D A^T (A x - t) = 0

for the pipeline's data term ``0.5 ||A x - t||^2``. D is symmetric PSD
with ``||D|| <= 1``. :func:`solve_fixed_point` solves this equation in x,
``(rho I + D (A^T A - rho I)) x = D A^T t``, by GMRES, right-preconditioned
with an operator the caller chooses. Both pipelines pass the inverse of
``rho I + Dbar (Abar - rho I)``, built from the circulant parts Abar and
Dbar of ``A^T A`` and D, which is diagonal in the DFT basis and positive
definite for any rho; the pipeline modules build it.

:func:`run_admm` is the paper-faithful reference that reaches the same point
by iterating. A problem supplies four callbacks:

* ``x_update(vs, us)``: minimize the sum of quadratic coupling terms over x,
  given the current splitting blocks;
* ``h_apply(x)``: the list ``[H_j x]`` of linear-operator images of x;
* ``v_update(j, target)``: the j-th prox step at ``target`` (any map for SALSA's V3);
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

from .errors import ConfigError, DimensionError, DivergenceError, as_array, is_count

# Relative fixed-point residual ||rho (x - D x) + D grad F(x)|| / ||D A^T t||
# that solve_fixed_point iterates to.
FIXED_POINT_RTOL = 1e-10

# Most GMRES steps between two recomputations of the residual. Preconditioned
# as the pipelines do, a benchmark solve converges in ~20, so the basis stays
# well below the stencil's memory.
GMRES_BASIS = 30


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
        if not 0 < self.rho < np.inf:
            raise ConfigError(f"rho must be positive and finite, got {self.rho}")
        if not (0 <= self.lam < np.inf and 0 <= self.tau < np.inf):
            raise ConfigError("lam and tau must be nonnegative and finite")
        if not is_count(self.max_iters):
            raise ConfigError(
                f"max_iters must be an integer >= 1, got {self.max_iters!r}"
            )
        if not (0 < self.primal_tol < np.inf and 0 < self.dual_tol < np.inf):
            raise ConfigError("tolerances must be positive and finite")


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

    From :func:`solve_fixed_point`, which the pipelines take:
    ``iterations_run`` counts applications of D, ``primal_residuals`` holds
    one fixed-point residual ``||rho (x - D x) + D A^T (A x - t)||`` per
    application, relative to ``||D A^T t||``, ``final_primal`` is the
    residual recomputed at the returned x, ``final_dual`` stays None and the
    dual and objective traces stay empty. The entry after a GMRES step is
    the residual GMRES carries, the entry after each run of steps the one
    recomputed at x; they agree to rounding.
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


def run_admm(problem, config: SolverConfig, init_v):
    """Iterate SALSA-style x / v / scaled-dual updates until convergence.

    The scaled duals start at zero. Returns ``(x, SolveReport)`` with the last
    computed x. Raises :class:`DivergenceError` if any iterate goes non-finite.
    """
    vs = [as_array(v, "init_v", range(1, 33)) for v in init_v]
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
        if not (np.isfinite(primal) and np.isfinite(dual) and np.all(np.isfinite(x))):
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


def preconditioner_symbol(normal_symbol, denoise_symbol, rho: float):
    """Eigenvalues of ``M^-1``, ``M = rho I + Dbar (Abar - rho I)``, on the
    DFT grid.

    ``normal_symbol`` holds Abar's eigenvalues, ``A^T A``'s circulant part
    (nonnegative), and ``denoise_symbol`` Dbar's, clipped here to ``[0, 1]``
    where D's spectrum lies. Circulant matrices commute, so M is also
    ``rho I + (Abar - rho I) Dbar``, with the eigenvalue ``rho (1 - d) + a d``,
    positive unless ``a = 0`` where ``d = 1``; there ``M^-1`` is taken as 0.
    """
    d = np.clip(denoise_symbol, 0.0, 1.0)
    m = rho * (1.0 - d) + normal_symbol * d
    return np.divide(1.0, m, out=np.zeros_like(m), where=m > 0)


def _rotate(column, rotations, k: int):
    """Apply the k earlier Givens rotations ``(c, s)`` to a Hessenberg column
    and append the one that zeroes its entry ``k + 1``."""
    for j, (c, s) in enumerate(rotations[:k]):
        a, b = column[j : j + 2]
        column[j : j + 2] = c * a + s * b, c * b - s * a
    radius = np.hypot(column[k], column[k + 1])
    rotations[k] = column[k : k + 2] / radius if radius else (1.0, 0.0)
    column[k : k + 2] = radius, 0.0


def solve_fixed_point(data, denoise, config: SolverConfig, precondition=None):
    """Solve ``rho (x - D x) + D A^T (A x - t) = 0`` by right-preconditioned
    GMRES, with ``rho = config.rho``.

    ``data`` is the pipeline's :class:`~pnpfusion.denoiser.DataTerm` (A is
    ``data.apply``, A^T is ``data.adjoint``, t is ``data.target``) and
    ``denoise`` applies the linear denoiser D to an array of ``data.shape``.
    This is the equation whose solution ADMM/SALSA converge to with that D,
    so :func:`run_admm` on the pipeline's problem reaches the same x.

    With ``b = A^T t`` and ``G = A^T A - rho I`` the equation is the linear
    system

        (rho I + D G) x = D b,

    which holds for any rho. GMRES (Saad & Schultz, SIAM J. Sci. Stat.
    Comput. 1986) solves it, right-preconditioned by ``precondition``, which
    applies ``M^-1`` (the identity by default); the pipelines pass the
    inverse of ``M = rho I + Dbar (Abar - rho I)``, where Abar and Dbar are
    the circulant parts of ``A^T A`` and D (T. Chan, SIAM J. Sci. Stat.
    Comput. 1988), so that M is diagonal in the DFT basis.

    Each step applies the system, and so D, once, to the direction
    ``z = M^-1 q`` of the newest basis vector q. The system's residual is
    the fixed-point residual, so the report's entry after a step is the
    residual norm that the Givens rotations carry, relative to ``||D b||``.
    GMRES steps until that entry is at most ``FIXED_POINT_RTOL``, for at
    most ``GMRES_BASIS`` steps, and x then adds ``M^-1`` of the combined
    basis. The residual ``D (b - G x) - rho x`` is recomputed at x with one
    more application of D, and GMRES restarts from it if it misses the
    tolerance. A step is taken only if it and that recomputation fit in
    ``config.max_iters`` applications of D. The report's ``iterations_run``
    counts the applications after the one that forms ``D b``,
    ``primal_residuals`` holds one relative residual per application, and
    ``converged`` and ``final_primal`` come from the residual recomputed at
    the returned x. ``config.primal_tol`` and ``config.dual_tol`` are not
    read. Returns ``(x, SolveReport)``. Raises :class:`DivergenceError` if a
    residual is non-finite or if ``v^T D v < 0`` for a vector v that D is
    applied to (``G z`` in a step, ``G x - b`` in a recomputation). That
    test sees only those vectors, so it misses an indefinite D whose form is
    nonnegative on all of them; ``tests/test_theory_at_scale.py`` probes the
    symmetry and spectrum of D itself.
    """
    if precondition is None:
        def precondition(v):
            return v

    rho = config.rho
    report = SolveReport()

    def system(z, b=0.0):
        """``rho z + D (G z - b)``, one counted application of D: the
        system's product for ``b = 0``, the negated residual at z for the
        pipeline's b. Raises unless ``v^T D v >= 0`` for ``v = G z - b``, as
        for a PSD D."""
        report.iterations_run += 1
        v = data.adjoint(data.apply(z)) - rho * z - b
        dv = denoise(v)
        if not float(np.vdot(v, dv)) >= 0:
            raise DivergenceError(
                f"v^T D v < 0 at application {report.iterations_run}"
                " (D is not symmetric PSD)",
                iteration=report.iterations_run,
            )
        return rho * z + dv

    def measure(norm) -> float:
        """Append and return ``norm`` relative to ``||D b||``."""
        relative = float(norm) / rhs_norm
        if not np.isfinite(relative):
            raise DivergenceError(
                f"non-finite residual at application {report.iterations_run}",
                iteration=report.iterations_run,
            )
        report.primal_residuals.append(relative)
        return relative

    b = data.adjoint(data.target)
    rhs = denoise(b)  # not counted
    rhs_norm = float(np.linalg.norm(rhs))
    if not np.isfinite(rhs_norm):
        raise DivergenceError("non-finite right-hand side", iteration=0)
    x = np.zeros(data.shape)
    if rhs_norm == 0:
        report.converged, report.final_primal = True, 0.0
        return x, report

    # np.empty touches no memory until a step writes its vector
    basis = np.empty((GMRES_BASIS + 1, x.size))
    r, relative = rhs, 1.0
    while True:
        # Arnoldi on (rho I + D G) M^-1. Givens rotations turn the Hessenberg
        # matrix into the upper triangle, so after k steps |g[k]| is ||r|| at
        # the least-squares x.
        triangle = np.zeros((GMRES_BASIS, GMRES_BASIS))
        rotations = np.zeros((GMRES_BASIS, 2))
        g = np.zeros(GMRES_BASIS + 1)
        g[0] = np.linalg.norm(r)
        basis[0] = r.ravel() / g[0]
        k = 0
        # a step needs room for itself and the residual recomputed after it
        while (
            relative > FIXED_POINT_RTOL
            and k < GMRES_BASIS
            and report.iterations_run + 2 <= config.max_iters
        ):
            q = system(precondition(basis[k].reshape(x.shape))).ravel()
            # classical Gram-Schmidt, run twice to keep the basis orthonormal
            h = basis[: k + 1] @ q
            q -= h @ basis[: k + 1]
            again = basis[: k + 1] @ q
            q -= again @ basis[: k + 1]
            column = np.append(h + again, np.linalg.norm(q))
            if column[k + 1] > 0:
                basis[k + 1] = q / column[k + 1]
            _rotate(column, rotations, k)
            triangle[: k + 1, k] = column[: k + 1]
            g[k : k + 2] = rotations[k] * g[k] * (1, -1)
            k += 1
            relative = measure(abs(g[k]))
        y = np.linalg.lstsq(triangle[:k, :k], g[:k], rcond=None)[0]
        x += precondition((y @ basis[:k]).reshape(x.shape))
        r = -system(x, b)
        relative = measure(np.linalg.norm(r))
        if (
            relative <= FIXED_POINT_RTOL
            or report.iterations_run + 2 > config.max_iters
        ):
            break
    report.final_primal = relative
    report.converged = relative <= FIXED_POINT_RTOL
    return x, report
