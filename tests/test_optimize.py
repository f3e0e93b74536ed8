import numpy as np
import pytest

from ttcomplete import NumericError, OptimizeConfig, minimize
from ttcomplete.optimize import _WOLFE_C1, _WOLFE_C2, _hs_beta


def quadratic_bowl(x):
    return 0.5 * float(np.dot(x, x)), x.copy()


def make_quadratic(a_matrix):
    a = np.asarray(a_matrix, dtype=float)

    def f(x):
        return 0.5 * float(x @ a @ x), a @ x

    return f


class TestConfig:
    def test_defaults_valid(self):
        cfg = OptimizeConfig()
        assert (cfg.max_iters, cfg.grad_tol) == (200, 0.0)

    @pytest.mark.parametrize("kwargs", [{"max_iters": 0}, {"grad_tol": -1.0}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OptimizeConfig(**kwargs)


class TestHSBeta:
    def test_equal_gradients(self):
        g = np.array([1.0, 2.0])
        assert _hs_beta(g, g, np.array([1.0, 1.0])) == 0.0

    def test_orthogonal_numerator(self):
        g_old = np.array([1.0, 1.0])
        g_new = np.array([1.0, 1.0]) + np.array([1.0, -1.0])
        # g_new . (g_new - g_old) = [2,0] . [1,-1] = 2, so pick g_new orthogonal to diff
        g_new = np.array([1.0, 1.0])
        g_old = np.array([0.0, 2.0])
        # diff = [1,-1]; g_new . diff = 0
        assert _hs_beta(g_new, g_old, np.array([1.0, 0.0])) == 0.0

    def test_hand_value(self):
        beta = _hs_beta(np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert beta == 1.0

    def test_negative_clamped(self):
        # numerator negative, denominator positive
        beta = _hs_beta(np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([-1.0, 0.0]))
        assert beta == 0.0

    def test_tiny_denominator_restarts(self):
        assert _hs_beta(np.array([1.0]), np.array([1.0 - 1e-40]), np.array([1.0])) == 0.0


class TestMinimize:
    def test_quadratic_bowl(self):
        x0 = np.array([3.0, -2.0, 0.5, 7.0])
        cfg = OptimizeConfig(max_iters=50, grad_tol=1e-12)
        x, report = minimize(quadratic_bowl, x0, cfg)
        assert float(np.linalg.norm(x)) < 1e-8
        assert report.iterations <= 50

    def test_zero_gradient_start(self):
        x0 = np.zeros(3)
        x, report = minimize(quadratic_bowl, x0, OptimizeConfig())
        assert np.array_equal(x, x0)
        assert report.reason == "grad-tol"
        assert report.iterations == 0

    def test_ncg_two_variable_quadratic(self):
        # conjugate directions finish a 2-variable quadratic in two steps
        f = make_quadratic([[2.0, 0.0], [0.0, 10.0]])
        cfg = OptimizeConfig(max_iters=5, grad_tol=1e-10)
        x, report = minimize(f, np.array([1.0, 1.0]), cfg)
        assert report.reason == "grad-tol"
        assert report.iterations <= 2
        assert float(np.max(np.abs(f(x)[1]))) < 1e-10

    def test_monotone_descent_and_wolfe(self):
        # nonquadratic objective: accepted steps must still satisfy strong Wolfe
        def rosenbrock(x):
            a, b = 1.0, 100.0
            f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
            g = np.array(
                [
                    -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] ** 2),
                    2.0 * b * (x[1] - x[0] ** 2),
                ]
            )
            return float(f), g

        cfg = OptimizeConfig(max_iters=60)
        x, report = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        objectives = [rec.objective for rec in report.records]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_wolfe_conditions_on_trace(self):
        # replay the accepted steps (mirroring the restart rule) and check
        # both strong Wolfe inequalities at every one of them
        f = make_quadratic([[3.0, 1.0], [1.0, 5.0]])
        cfg = OptimizeConfig(max_iters=10, grad_tol=1e-14)
        _, report = minimize(f, np.array([2.0, -3.0]), cfg)

        x = np.array([2.0, -3.0])
        val, g = f(x)
        d = -g
        for k, rec in enumerate(report.records[1:], start=1):
            if float(np.dot(g, d)) >= 0.0:
                d = -g
            alpha = rec.step
            derphi0 = float(np.dot(g, d))
            assert derphi0 < 0.0
            new_val, new_g = f(x + alpha * d)
            assert new_val <= val + _WOLFE_C1 * alpha * derphi0 + 1e-15
            assert abs(float(np.dot(new_g, d))) <= _WOLFE_C2 * abs(derphi0) + 1e-15
            assert new_val == rec.objective
            x = x + alpha * d
            beta = 0.0 if k % x.size == 0 else _hs_beta(new_g, g, d)
            d = -new_g + beta * d
            val, g = new_val, new_g

    def test_determinism(self):
        f = make_quadratic([[2.0, 0.3], [0.3, 4.0]])
        cfg = OptimizeConfig(max_iters=20)
        x1, r1 = minimize(f, np.array([1.0, -1.0]), cfg)
        x2, r2 = minimize(f, np.array([1.0, -1.0]), cfg)
        assert np.array_equal(x1, x2)
        assert r1.records == r2.records
        assert r1.reason == r2.reason

    def test_line_search_failure_on_linear_function(self):
        def linear(x):
            return float(x[0]), np.array([1.0])

        x, report = minimize(linear, np.array([0.0]), OptimizeConfig(max_iters=10))
        assert report.reason == "line-search-failure"
        assert np.array_equal(x, [0.0])

    def test_nan_objective_raises(self):
        def bad(x):
            return float("nan"), np.zeros(1)

        with pytest.raises(NumericError):
            minimize(bad, np.array([1.0]), OptimizeConfig())

    def test_inf_gradient_raises(self):
        def bad(x):
            return 1.0, np.array([np.inf])

        with pytest.raises(NumericError):
            minimize(bad, np.array([1.0]), OptimizeConfig())

    def test_max_iters_reason(self):
        f = make_quadratic([[2.0, 0.0], [0.0, 10.0]])
        cfg = OptimizeConfig(max_iters=1)
        _, report = minimize(f, np.array([1.0, 1.0]), cfg)
        assert report.reason == "max-iters"
        assert report.iterations == 1

    def test_records_count_every_evaluation(self):
        f = make_quadratic([[3.0, 1.0], [1.0, 5.0]])
        calls = []

        def counted(x):
            calls.append(1)
            return f(x)

        _, report = minimize(counted, np.array([2.0, -3.0]), OptimizeConfig(max_iters=10))
        assert report.records[0].evals == 1
        assert sum(r.evals for r in report.records) == len(calls)
