import json
from dataclasses import asdict

import numpy as np
import pytest

from pnpfusion import admm
from pnpfusion.admm import (
    FIXED_POINT_RTOL,
    SolveReport,
    SolverConfig,
    preconditioner_symbol,
    residuals,
    run_admm,
    solve_fixed_point,
)
from pnpfusion.denoiser import DataTerm
from pnpfusion.errors import ConfigError, DivergenceError


class TwoQuadratics:
    """min 0.5||x - a||^2 + 0.5||x - b||^2 with H = I (single block)."""

    def __init__(self, a, b, rho):
        self.a = a
        self.b = b
        self.rho = rho

    def x_update(self, vs, us):
        return (self.a + self.rho * (vs[0] + us[0])) / (1 + self.rho)

    def h_apply(self, x):
        return [x]

    def v_update(self, j, target):
        return (self.b + self.rho * target) / (1 + self.rho)

    def objective(self, x):
        return 0.5 * np.sum((x - self.a) ** 2) + 0.5 * np.sum((x - self.b) ** 2)


class TestRunAdmm:
    def test_two_quadratics_midpoint(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 8))
        cfg = SolverConfig(rho=1.0, max_iters=500, primal_tol=1e-10, dual_tol=1e-10)
        problem = TwoQuadratics(a, b, cfg.rho)
        x, report = run_admm(problem, cfg, [np.zeros(8)])
        assert report.converged
        np.testing.assert_allclose(x, (a + b) / 2, rtol=1e-8)

    def test_divergence_raises_with_iteration(self):
        class Bad(TwoQuadratics):
            def x_update(self, vs, us):
                return np.full(3, np.nan)

        cfg = SolverConfig(rho=1.0, max_iters=10)
        with pytest.raises(DivergenceError) as err:
            run_admm(Bad(np.zeros(3), np.zeros(3), 1.0), cfg, [np.zeros(3)])
        assert err.value.iteration == 0

    def test_refuses_a_problem_without_the_four_callbacks(self):
        # a list once leaked AttributeError ('no attribute x_update')
        class NoObjective(TwoQuadratics):
            objective = None

        cfg = SolverConfig(rho=1.0)
        for problem in ([[1.0]], NoObjective(np.zeros(3), np.zeros(3), 1.0)):
            with pytest.raises(ConfigError, match="objective"):
                run_admm(problem, cfg, [np.zeros(3)])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(rho=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(rho=1.0, lam=-1.0)
        with pytest.raises(ConfigError):
            SolverConfig(rho=1.0, max_iters=0)
        with pytest.raises(ConfigError):
            SolverConfig(rho=1.0, primal_tol=0.0)


class TestResiduals:
    def test_zero_at_consensus(self):
        v = [np.ones((2, 3))]
        p, d = residuals(v, v, v, rho=2.0)
        assert p == 0.0 and d == 0.0

    def test_dual_linear_in_rho(self):
        prev = [np.zeros(4)]
        cur = [np.ones(4)]
        hx = [np.ones(4)]
        _, d1 = residuals(prev, cur, hx, rho=1.0)
        _, d2 = residuals(prev, cur, hx, rho=2.0)
        assert d2 == pytest.approx(2 * d1)

    def test_stacked_blocks(self):
        prev = [np.zeros(2), np.zeros(3)]
        cur = [np.ones(2), np.zeros(3)]
        hx = [np.zeros(2), np.full(3, 2.0)]
        p, d = residuals(prev, cur, hx, rho=1.0)
        assert p == pytest.approx(np.sqrt(1 + 1 + 3 * 4))
        assert d == pytest.approx(np.sqrt(2.0))

    def test_shape_mismatch_raises(self):
        from pnpfusion.errors import DimensionError

        with pytest.raises(DimensionError):
            residuals([np.zeros(2)], [np.zeros(3)], [np.zeros(3)], 1.0)


def matrix_term(a, target):
    """The data term 0.5 ||a x - target||^2 on a vector x."""
    return DataTerm(
        apply=lambda x: a @ x,
        adjoint=lambda r: a.T @ r,
        target=target,
        shape=(a.shape[1],),
    )


def linear_problem(seed, m=12, n=8):
    """A random data term and a symmetric D with spectrum in [0.05, 0.95]."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = q @ np.diag(rng.uniform(0.05, 0.95, n)) @ q.T
    return matrix_term(a, rng.standard_normal(m)), d


class TestSolveFixedPoint:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solves_the_linear_fixed_point_equation(self, seed):
        data, d = linear_problem(seed)
        a, rho = data.apply(np.eye(8)), 0.3
        x, report = solve_fixed_point(data, lambda v: d @ v, SolverConfig(rho=rho))
        expected = np.linalg.solve(
            rho * (np.eye(8) - d) + d @ a.T @ a, d @ a.T @ data.target
        )
        assert report.converged
        assert report.final_primal <= FIXED_POINT_RTOL
        np.testing.assert_allclose(x, expected, rtol=1e-8)
        # the residual the report states is the fixed-point residual at x
        grad = data.adjoint(data.apply(x) - data.target)
        residual = rho * (x - d @ x) + d @ grad
        rhs = d @ data.adjoint(data.target)
        assert np.linalg.norm(residual) / np.linalg.norm(rhs) == pytest.approx(
            report.final_primal, rel=1e-3, abs=1e-14
        )

    def test_identity_denoiser_gives_least_squares(self):
        data, _ = linear_problem(3)
        x, report = solve_fixed_point(data, lambda v: v, SolverConfig(rho=0.7))
        a = data.apply(np.eye(8))
        assert report.converged
        np.testing.assert_allclose(
            x, np.linalg.lstsq(a, data.target, rcond=None)[0], rtol=1e-8
        )

    def test_iterations_count_matvecs_within_the_budget(self):
        data, d = linear_problem(4)
        calls = []

        def denoise(v):
            calls.append(1)
            return d @ v

        _, report = solve_fixed_point(data, denoise, SolverConfig(rho=0.3))
        # one call for the right-hand side, then one per matvec
        assert report.iterations_run == len(calls) - 1
        # at most 8 GMRES steps on 8 unknowns, plus the recomputed residual
        assert report.iterations_run <= 8 + 1

    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_small_budget_is_unconverged(self, budget):
        data, d = linear_problem(5)
        cfg = SolverConfig(rho=0.3, max_iters=budget)
        _, report = solve_fixed_point(data, lambda v: d @ v, cfg)
        assert report.converged is False
        assert report.iterations_run <= budget
        assert report.final_primal > FIXED_POINT_RTOL

    def test_hundred_unknowns_match_the_dense_solve(self):
        n = 100
        data, d = linear_problem(10, m=120, n=n)
        x, report = solve_fixed_point(data, lambda v: d @ v, SolverConfig(rho=0.3))
        a = data.apply(np.eye(n))
        expected = np.linalg.solve(
            0.3 * (np.eye(n) - d) + d @ a.T @ a, d @ a.T @ data.target
        )
        assert report.converged
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_missed_true_residual_restarts_from_it(self):
        # one A x comes back perturbed, so the recursively updated residual
        # leaves the true one; the recomputed residual catches it
        data, d = linear_problem(12)
        a = data.apply(np.eye(8))
        calls = []

        def apply(x):
            calls.append(1)
            return a @ x * (1 + 1e-6 * (len(calls) == 3))

        glitch = DataTerm(apply, data.adjoint, data.target, data.shape)
        cfg = SolverConfig(rho=0.3)
        x, report = solve_fixed_point(glitch, lambda v: d @ v, cfg)
        trace = report.primal_residuals
        missed = [
            k for k in range(1, len(trace))
            if trace[k - 1] <= FIXED_POINT_RTOL < trace[k]
        ]
        assert missed  # the recursion met the tolerance, x did not
        assert report.converged
        expected = np.linalg.solve(
            0.3 * (np.eye(8) - d) + d @ a.T @ a, d @ a.T @ data.target
        )
        np.testing.assert_allclose(x, expected, rtol=1e-8)

    @pytest.mark.parametrize("low,high", [(-0.9, -0.1), (-0.5, 0.9)])
    def test_indefinite_denoiser_raises_divergence(self, low, high):
        data, _ = linear_problem(13)
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        d = q @ np.diag(np.linspace(low, high, 8)) @ q.T
        with pytest.raises(DivergenceError):
            solve_fixed_point(data, lambda v: d @ v, SolverConfig(rho=0.3))

    def test_nan_target_raises_divergence(self):
        data, d = linear_problem(6)
        target = data.target.copy()
        target[2] = np.nan
        bad = matrix_term(data.apply(np.eye(8)), target)
        with pytest.raises(DivergenceError):
            solve_fixed_point(bad, lambda v: d @ v, SolverConfig(rho=0.3))

    def test_identity_system_solves_in_one_step(self):
        target = np.random.default_rng(11).standard_normal(6)
        data = matrix_term(np.eye(6), target)
        x, report = solve_fixed_point(data, lambda v: v, SolverConfig(rho=0.3))
        assert report.converged
        assert report.iterations_run == 2  # one GMRES step, one residual
        np.testing.assert_allclose(x, target, rtol=1e-14)

    def test_zero_target_gives_zero(self):
        data, d = linear_problem(7)
        zero = matrix_term(data.apply(np.eye(8)), np.zeros_like(data.target))
        x, report = solve_fixed_point(zero, lambda v: d @ v, SolverConfig(rho=0.3))
        assert report.converged
        np.testing.assert_array_equal(x, np.zeros(8))

    def test_history_ends_with_the_recomputed_residual(self):
        data, d = linear_problem(8)
        cfg = SolverConfig(rho=0.3)
        _, report = solve_fixed_point(data, lambda v: d @ v, cfg)
        assert len(report.primal_residuals) == report.iterations_run
        assert report.primal_residuals[-1] == report.final_primal
        assert not report.dual_residuals and not report.objective_trace

    def test_exact_preconditioner_solves_in_one_step(self):
        data, d = linear_problem(14)
        a, rho = data.apply(np.eye(8)), 0.3
        system = rho * np.eye(8) + d @ (a.T @ a - rho * np.eye(8))
        inverse = np.linalg.inv(system)
        x, report = solve_fixed_point(
            data, lambda v: d @ v, SolverConfig(rho=rho),
            precondition=lambda v: inverse @ v,
        )
        assert report.converged
        assert report.iterations_run == 2  # one GMRES step, one residual
        expected = np.linalg.solve(
            rho * (np.eye(8) - d) + d @ a.T @ a, d @ a.T @ data.target
        )
        np.testing.assert_allclose(x, expected, rtol=1e-8)

    def test_full_basis_restarts_from_the_recomputed_residual(self, monkeypatch):
        monkeypatch.setattr(admm, "GMRES_BASIS", 3)
        data, d = linear_problem(15, m=40, n=30)
        a, rho = data.apply(np.eye(30)), 0.3
        x, report = solve_fixed_point(data, lambda v: d @ v, SolverConfig(rho=rho))
        assert report.converged
        # every run of three steps ends with the residual recomputed at x
        assert report.iterations_run % 4 in (0, 2, 3)
        assert report.iterations_run > 8
        assert len(report.primal_residuals) == report.iterations_run
        expected = np.linalg.solve(
            rho * (np.eye(30) - d) + d @ a.T @ a, d @ a.T @ data.target
        )
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_step_entries_bound_the_fixed_point_residual(self, monkeypatch):
        # each step's entry is the GMRES residual norm, which is the
        # fixed-point residual at x, relative to ||D b||
        data, d = linear_problem(16)
        monkeypatch.setattr(admm, "GMRES_BASIS", 1)
        _, report = solve_fixed_point(data, lambda v: d @ v, SolverConfig(rho=0.3))
        assert report.converged
        trace = report.primal_residuals
        assert len(trace) == report.iterations_run > 4
        # a basis of one: step, recomputed residual, step, recomputed residual...
        for step, recomputed in zip(trace[0::2], trace[1::2]):
            assert abs(recomputed - step) <= 1e-14

    def test_report_is_strict_json(self):
        data, d = linear_problem(17)
        for budget in (1, 4, 1000):
            _, report = solve_fixed_point(
                data, lambda v: d @ v, SolverConfig(rho=0.3, max_iters=budget)
            )
            text = json.dumps(asdict(report), allow_nan=False)
            assert json.loads(text)["primal_residuals"] == report.primal_residuals
            assert report.final_dual is None


class TestPreconditionerSymbol:
    def test_positive_for_any_rho(self):
        rng = np.random.default_rng(0)
        normal = rng.uniform(0.0, 2.0, (4, 5))
        denoise = rng.uniform(-1e-3, 1 + 1e-3, (4, 5))
        for rho in (1e-4, 0.3, 10.0):
            inverse = preconditioner_symbol(normal, denoise, rho)
            d = np.clip(denoise, 0, 1)
            np.testing.assert_allclose(
                inverse * (rho * (1 - d) + normal * d), 1.0, rtol=1e-14
            )
            assert np.all(inverse > 0)

    def test_symbol_of_one_above_one_is_clipped(self):
        # a circulant part of W can round to 1 + 2e-16 at the constant image
        inverse = preconditioner_symbol(np.array([0.5]), np.array([1 + 2e-16]), 0.3)
        assert inverse[0] == 2.0

    def test_singular_frequency_gets_zero(self):
        inverse = preconditioner_symbol(np.array([0.0, 2.0]), np.array([1.0, 1.0]), 0.3)
        np.testing.assert_array_equal(inverse, [0.0, 0.5])
