import numpy as np
import pytest

from pnpfusion.admm import SolveReport, SolverConfig, residuals, run_admm
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
