"""Generic ADMM/SALSA driver with residual tracking and stopping rules.

A problem supplies four callbacks:

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

    ``objective_trace`` holds the problem's ``objective(x)`` per iteration: in
    the fusion pipelines the data-fit term alone, without the regularizer phi,
    which needs the dense W.
    """

    iterations_run: int = 0
    primal_residuals: list[float] = field(default_factory=list)
    dual_residuals: list[float] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = False
    final_primal: float = float("nan")
    final_dual: float = float("nan")

    def write_csv(self, path) -> None:
        """Export the recorded traces as iteration,primal,dual,objective."""
        with open(path, "w") as fh:
            fh.write("iteration,primal,dual,objective\n")
            for k in range(len(self.primal_residuals)):
                obj = (
                    repr(self.objective_trace[k])
                    if k < len(self.objective_trace)
                    else ""
                )
                fh.write(
                    f"{k},{self.primal_residuals[k]!r},{self.dual_residuals[k]!r},{obj}\n"
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
