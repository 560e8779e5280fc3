import numpy as np
import pytest

from pnpfusion import admm
from pnpfusion.admm import (
    FIXED_POINT_RTOL,
    SolveReport,
    SolverConfig,
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

    def test_history_toggle_same_solution(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 5))
        base = dict(rho=0.7, max_iters=200, primal_tol=1e-9, dual_tol=1e-9)
        x1, r1 = run_admm(
            TwoQuadratics(a, b, 0.7),
            SolverConfig(record_history=False, **base),
            [np.zeros(5)],
        )
        x2, r2 = run_admm(
            TwoQuadratics(a, b, 0.7),
            SolverConfig(record_history=True, **base),
            [np.zeros(5)],
        )
        np.testing.assert_array_equal(x1, x2)
        assert r1.iterations_run == r2.iterations_run
        assert len(r2.primal_residuals) == r2.iterations_run
        assert len(r2.objective_trace) == r2.iterations_run
        assert not r1.primal_residuals

    def test_divergence_raises_with_iteration(self):
        class Bad(TwoQuadratics):
            def x_update(self, vs, us):
                return np.full(3, np.nan)

        cfg = SolverConfig(rho=1.0, max_iters=10)
        with pytest.raises(DivergenceError) as err:
            run_admm(Bad(np.zeros(3), np.zeros(3), 1.0), cfg, [np.zeros(3)])
        assert err.value.iteration == 0

    def test_report_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2, 4))
        cfg = SolverConfig(rho=1.0, max_iters=50, record_history=True)
        _, report = run_admm(TwoQuadratics(a, b, 1.0), cfg, [np.zeros(4)])
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,primal,dual,objective"
        assert len(lines) == report.iterations_run + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(report.primal_residuals[0])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(rho=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(rho=1.0, lam=-1.0)
        with pytest.raises(ConfigError):
            SolverConfig(rho=1.0, max_iters=0)
        with pytest.raises(ConfigError):
            SolverConfig(rho=1.0, primal_tol=0.0)

    @pytest.mark.parametrize(
        "field", ["rho", "lam", "tau", "max_iters", "primal_tol", "dual_tol"]
    )
    def test_config_rejects_nan(self, field):
        with pytest.raises(ConfigError):
            SolverConfig(**{"rho": 1.0, field: float("nan")})


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
        x, report = solve_fixed_point(data, lambda v: d @ v, rho, SolverConfig(rho=rho))
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
        x, report = solve_fixed_point(data, lambda v: v, 0.7, SolverConfig(rho=0.7))
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

        _, report = solve_fixed_point(data, denoise, 0.3, SolverConfig(rho=0.3))
        # one call for the right-hand side, then one per matvec
        assert report.iterations_run == len(calls) - 1
        # at most 8 Krylov steps on 8 unknowns, plus the recomputed residual
        assert report.iterations_run <= 8 + 1

    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_small_budget_is_unconverged(self, budget):
        data, d = linear_problem(5)
        cfg = SolverConfig(rho=0.3, max_iters=budget)
        _, report = solve_fixed_point(data, lambda v: d @ v, 0.3, cfg)
        assert report.converged is False
        assert report.iterations_run <= budget
        assert report.final_primal > FIXED_POINT_RTOL

    def test_cycle_longer_than_the_first_basis_block(self):
        n = 100
        data, d = linear_problem(10, m=120, n=n)
        x, report = solve_fixed_point(data, lambda v: d @ v, 0.3, SolverConfig(rho=0.3))
        a = data.apply(np.eye(n))
        expected = np.linalg.solve(
            0.3 * (np.eye(n) - d) + d @ a.T @ a, d @ a.T @ data.target
        )
        assert report.converged
        assert report.iterations_run > 65  # the basis grew past 64 + 1 rows
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_restarts_reach_the_same_solution(self, monkeypatch):
        data, d = linear_problem(9, m=30, n=24)
        cfg = SolverConfig(rho=0.3, max_iters=400)
        x, report = solve_fixed_point(data, lambda v: d @ v, 0.3, cfg)
        monkeypatch.setattr(admm, "GMRES_RESTART", 4)
        x4, report4 = solve_fixed_point(data, lambda v: d @ v, 0.3, cfg)
        assert report.converged and report4.converged
        assert report4.iterations_run > report.iterations_run
        np.testing.assert_allclose(x4, x, rtol=1e-8)

    def test_nan_target_raises_divergence(self):
        data, d = linear_problem(6)
        target = data.target.copy()
        target[2] = np.nan
        bad = matrix_term(data.apply(np.eye(8)), target)
        with pytest.raises(DivergenceError):
            solve_fixed_point(bad, lambda v: d @ v, 0.3, SolverConfig(rho=0.3))

    def test_identity_system_solves_in_one_step(self):
        target = np.random.default_rng(11).standard_normal(6)
        data = matrix_term(np.eye(6), target)
        x, report = solve_fixed_point(data, lambda v: v, 0.3, SolverConfig(rho=0.3))
        assert report.converged
        assert report.iterations_run == 2  # one Krylov step, one residual
        np.testing.assert_allclose(x, target, rtol=1e-14)

    def test_zero_target_gives_zero(self):
        data, d = linear_problem(7)
        zero = matrix_term(data.apply(np.eye(8)), np.zeros_like(data.target))
        x, report = solve_fixed_point(zero, lambda v: d @ v, 0.3, SolverConfig(rho=0.3))
        assert report.converged
        np.testing.assert_array_equal(x, np.zeros(8))

    def test_history_ends_with_the_recomputed_residual(self, tmp_path):
        data, d = linear_problem(8)
        cfg = SolverConfig(rho=0.3, record_history=True)
        _, report = solve_fixed_point(data, lambda v: d @ v, 0.3, cfg)
        assert len(report.primal_residuals) == report.iterations_run
        assert report.primal_residuals[-1] == report.final_primal
        assert not report.dual_residuals and not report.objective_trace
        path = tmp_path / "krylov.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == report.iterations_run + 1
        assert lines[-1].endswith(",,")
