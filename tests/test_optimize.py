import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcomplete import (
    NumericError,
    OptimizeConfig,
    ShapeError,
    evaluate,
    fit_cores,
    flatten_params,
    initial_cores,
    mask_random,
    minimize,
    optimize,
    synthetic_scene,
    unflatten_params,
    uniform_ranks,
)
from ttcomplete.images import _tensorized_observations
from ttcomplete.optimize import _WOLFE_C1, _WOLFE_C2, _hs_beta

import oracles


def eager(fg):
    """An (f, g) function in minimize's callback contract, (f, gradient function)."""

    def callback(x):
        f, g = fg(x)
        return f, lambda: g

    return callback


def quadratic_bowl(x):
    return 0.5 * float(np.dot(x, x)), x.copy()


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


def recording(fg, log):
    """Like ``eager``, and appends [x, f, gradient calls] to ``log`` for each evaluation."""

    def callback(x):
        f, g = fg(x)
        entry = [x.copy(), f, 0]
        log.append(entry)

        def gradient():
            entry[2] += 1
            return g

        return f, gradient

    return callback


def make_quadratic(a_matrix):
    a = np.asarray(a_matrix, dtype=float)

    def f(x):
        return 0.5 * float(x @ a @ x), a @ x

    return f


def assert_strong_wolfe_on_trace(f, x0, report):
    """Replay a run's accepted steps from x0, rebuilding its directions, and
    check both strong-Wolfe inequalities at every one of them."""
    x = np.array(x0, dtype=np.float64)
    val, g = f(x)
    d = -g
    for rec in report.records[1:]:
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
        beta = _hs_beta(new_g, g, d)
        d = -new_g + beta * d
        val, g = new_val, new_g


class TestConfig:
    def test_defaults_valid(self):
        cfg = OptimizeConfig()
        assert (cfg.max_iters, cfg.grad_tol) == (200, 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"grad_tol": -1.0},
            {"grad_tol": float("nan")},
            # an infinite tolerance would stop every run at its start
            {"grad_tol": float("inf")},
            {"grad_tol": float("1e400")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OptimizeConfig(**kwargs)

    @pytest.mark.parametrize("max_iters", [2.5, float("nan"), float("inf")])
    def test_non_integral_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters .* is not an integer"):
            OptimizeConfig(max_iters=max_iters)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_max_iters_rejected(self, flag):
        with pytest.raises(ValueError, match=f"^max_iters {flag!r} is not an integer$"):
            OptimizeConfig(max_iters=flag)

    def test_integral_max_iters_accepted(self):
        cfg = OptimizeConfig(max_iters=2.0)
        assert cfg == OptimizeConfig(max_iters=np.int64(2)) == OptimizeConfig(max_iters=2)
        _, report = minimize(eager(quadratic_bowl), np.array([1.0, -2.0]), cfg)
        assert report.iterations <= 2


class TestConstants:
    def test_wolfe_constants_ordered(self):
        # c2 < 1/2 keeps NCG directions descent ones (Nocedal & Wright, Lemma 5.6)
        assert 0 < _WOLFE_C1 < _WOLFE_C2 < 0.5

    def test_module_docstring_states_the_constants(self):
        doc = optimize.__doc__
        stated = {name: float(re.search(rf"{name} = ([0-9.e-]+)", doc).group(1)) for name in ("c1", "c2")}
        assert stated == {"c1": _WOLFE_C1, "c2": _WOLFE_C2}
        assert f"at most {optimize._MAX_LINE_SEARCH_EVALS} evaluations" in doc


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

    @pytest.mark.parametrize("j", [-200, -60, 0, 60, 200])
    def test_power_of_two_scale_cancels(self, j):
        # the rule reads no absolute scale: 2^j scales numerator and denominator
        # by 2^2j each, exactly, so the quotient keeps every bit
        g_new, g_old, d_old = np.array([0.3, -1.7, 2.2]), np.array([1.1, 0.4, -0.9]), np.array([-1.3, 0.8, 1.9])
        beta = _hs_beta(g_new, g_old, d_old)
        assert float(np.dot(d_old, g_new - g_old)) > 0.0 and beta > 0.0
        s = 2.0**j
        assert _hs_beta(s * g_new, s * g_old, s * d_old) == beta


class TestMinimize:
    def test_quadratic_bowl(self):
        x0 = np.array([3.0, -2.0, 0.5, 7.0])
        cfg = OptimizeConfig(max_iters=50, grad_tol=1e-12)
        x, report = minimize(eager(quadratic_bowl), x0, cfg)
        assert float(np.linalg.norm(x)) < 1e-8
        assert report.iterations <= 50

    def test_zero_gradient_start(self):
        x0 = np.zeros(3)
        x, report = minimize(eager(quadratic_bowl), x0, OptimizeConfig())
        assert np.array_equal(x, x0)
        assert report.reason == "grad-tol"
        assert report.iterations == 0

    def test_ncg_two_variable_quadratic(self, monkeypatch):
        # conjugate directions finish a 2-variable quadratic in two steps, but
        # only under exact line minimisation, which the strong-Wolfe search
        # approximates no closer than c2 allows
        a = np.array([[2.0, 0.0], [0.0, 10.0]])
        f = make_quadratic(a)
        cfg = OptimizeConfig(max_iters=5, grad_tol=1e-10)

        def exact_line_search(ev, f0, derphi0, alpha):
            step = -derphi0 / float(ev.d @ a @ ev.d)
            return step, ev(step), ev.gradient(), 1

        with monkeypatch.context() as patched:
            patched.setattr(optimize, "_line_search", exact_line_search)
            x, report = minimize(eager(f), np.array([1.0, 1.0]), cfg)
        assert report.reason == "grad-tol"
        assert report.iterations <= 2
        assert float(np.max(np.abs(f(x)[1]))) < 1e-10
        x, report = minimize(eager(f), np.array([1.0, 1.0]), cfg)
        assert report.reason == "grad-tol"
        assert report.iterations <= cfg.max_iters
        assert float(np.max(np.abs(f(x)[1]))) < 1e-10

    def test_hs_beta_at_every_iteration_after_the_first(self, monkeypatch):
        # no periodic restart: on n = 2 a restart every n iterations would skip every even k
        calls = []
        hs_beta = optimize._hs_beta

        def counting_hs_beta(*args):
            calls.append(args)
            return hs_beta(*args)

        monkeypatch.setattr(optimize, "_hs_beta", counting_hs_beta)
        _, report = minimize(eager(rosenbrock), np.array([-1.2, 1.0]), OptimizeConfig(max_iters=12))
        assert report.reason == "max-iters"
        assert len(calls) == report.iterations == 12

    def test_monotone_descent_and_wolfe(self):
        # nonquadratic objective: accepted steps must still satisfy strong Wolfe
        cfg = OptimizeConfig(max_iters=60)
        x, report = minimize(eager(rosenbrock), np.array([-1.2, 1.0]), cfg)
        objectives = [rec.objective for rec in report.records]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_wolfe_conditions_on_trace(self):
        f = make_quadratic([[3.0, 1.0], [1.0, 5.0]])
        cfg = OptimizeConfig(max_iters=10, grad_tol=1e-14)
        _, report = minimize(eager(f), np.array([2.0, -3.0]), cfg)
        assert_strong_wolfe_on_trace(f, np.array([2.0, -3.0]), report)

    def test_wolfe_conditions_on_tt_fit(self):
        # the objective the constants were tuned on: a tensorized image fit
        img = synthetic_scene(16, seed=0)
        obs = _tensorized_observations(img, mask_random(img.shape, 0.9, 1))
        rank = uniform_ranks(obs.shape, 4)
        _, report = fit_cores(obs, rank, OptimizeConfig(max_iters=10))
        assert report.iterations == 10
        template = initial_cores(obs, rank)

        def f(flat):
            value, gradient = evaluate(unflatten_params(template, flat), obs)
            return value, gradient()

        assert_strong_wolfe_on_trace(f, flatten_params(template), report)

    def test_determinism(self):
        f = make_quadratic([[2.0, 0.3], [0.3, 4.0]])
        cfg = OptimizeConfig(max_iters=20)
        x1, r1 = minimize(eager(f), np.array([1.0, -1.0]), cfg)
        x2, r2 = minimize(eager(f), np.array([1.0, -1.0]), cfg)
        assert np.array_equal(x1, x2)
        assert r1.records == r2.records
        assert r1.reason == r2.reason

    def test_line_search_failure_on_linear_function(self):
        def linear(x):
            return float(x[0]), np.array([1.0])

        x, report = minimize(eager(linear), np.array([0.0]), OptimizeConfig(max_iters=10))
        assert report.reason == "line-search-failure"
        assert np.array_equal(x, [0.0])

    def test_nan_objective_raises(self):
        def bad(x):
            return float("nan"), np.zeros(1)

        with pytest.raises(NumericError):
            minimize(eager(bad), np.array([1.0]), OptimizeConfig())

    def test_nan_objective_at_trial_raises(self):
        def nan_away_from_start(x):
            return (0.5 if x[0] == 1.0 else float("nan")), x.copy()

        with pytest.raises(NumericError, match="objective is NaN"):
            minimize(eager(nan_away_from_start), np.array([1.0]), OptimizeConfig())

    def test_minus_inf_objective_at_accepted_step_raises(self):
        # -inf fails the first trial's finiteness test; with a zero gradient
        # the zoom's trial then meets both Wolfe conditions and is accepted
        def minus_inf_away_from_start(x):
            if x[0] == 1.0:
                return 0.5, x.copy()
            return -np.inf, np.zeros(1)

        with pytest.raises(NumericError, match="not finite at an accepted step"):
            minimize(eager(minus_inf_away_from_start), np.array([1.0]), OptimizeConfig())

    @pytest.mark.parametrize("size", [1, 3])
    def test_gradient_of_wrong_length_raises(self, size):
        def wrong_length(x):
            return 0.5 * float(x @ x), np.ones(size)

        with pytest.raises(ShapeError, match=f"callback returned gradient of length {size}, expected 2"):
            minimize(eager(wrong_length), np.array([1.0, 2.0]), OptimizeConfig())

    @pytest.mark.parametrize(
        "f, g",
        [(np.inf, [0.0]), (1.0, [np.inf]), (-np.inf, [np.nan]), (1.0, [0.0, np.nan]), (1.0, [-np.inf, np.nan])],
    )
    def test_not_finite_start_is_named(self, f, g):
        def bad(x):
            return f, np.array(g)

        with pytest.raises(NumericError, match="not finite at the starting point"):
            minimize(eager(bad), np.ones(len(g)), OptimizeConfig())

    def test_nan_objective_at_start_is_named(self):
        # the start is no line-search trial: a NaN there is reported as the start's
        def nan_at_start(x):
            return (float("nan") if x[0] == 1.0 else 0.5), x.copy()

        with pytest.raises(NumericError, match="^objective or gradient is not finite at the starting point$"):
            minimize(eager(nan_at_start), np.array([1.0]), OptimizeConfig())

    def test_inf_gradient_raises(self):
        def bad(x):
            return 1.0, np.array([np.inf])

        with pytest.raises(NumericError):
            minimize(eager(bad), np.array([1.0]), OptimizeConfig())

    def test_max_iters_reason(self):
        f = make_quadratic([[2.0, 0.0], [0.0, 10.0]])
        cfg = OptimizeConfig(max_iters=1)
        _, report = minimize(eager(f), np.array([1.0, 1.0]), cfg)
        assert report.reason == "max-iters"
        assert report.iterations == 1

    def test_records_count_every_evaluation(self):
        f = make_quadratic([[3.0, 1.0], [1.0, 5.0]])
        calls = []

        def counted(x):
            calls.append(1)
            return f(x)

        _, report = minimize(eager(counted), np.array([2.0, -3.0]), OptimizeConfig(max_iters=10))
        assert report.records[0].evals == 1
        assert sum(r.evals for r in report.records) == len(calls) == report.evals

    def test_failed_line_search_evaluations_counted(self):
        calls = []

        def linear(x):
            calls.append(1)
            return float(x[0]), np.array([1.0])

        _, report = minimize(eager(linear), np.array([0.0]), OptimizeConfig(max_iters=10))
        assert report.reason == "line-search-failure"
        # the start, then a search that spends its whole budget of 25
        assert report.evals == len(calls) == 26
        assert sum(r.evals for r in report.records) == 1


class TestGradientOnDemand:
    def test_gradients_count_backward_passes(self):
        log = []
        cfg = OptimizeConfig(max_iters=60)
        _, report = minimize(recording(rosenbrock, log), np.array([-1.2, 1.0]), cfg)
        assert report.evals == len(log)
        assert report.gradients == sum(calls for _, _, calls in log)
        assert max(calls for _, _, calls in log) == 1
        assert report.gradients < report.evals

    def test_rejected_trial_computes_no_gradient(self):
        # f = 50 x^2 + 1000 from x = 1: the first trial aims at f = 0 and lands
        # at x = -20.21, far above the sufficient-decrease line
        def offset_bowl(x):
            return 50.0 * float(x @ x) + 1000.0, 100.0 * x

        log = []
        x0 = np.array([1.0])
        x, report = minimize(recording(offset_bowl, log), x0, OptimizeConfig(max_iters=1))
        f0, g0 = offset_bowl(x0)
        trials = log[1 : 1 + report.records[1].evals]
        rejected = [calls for z, f, calls in trials if f > f0 + _WOLFE_C1 * float(np.dot(g0, z - x0))]
        assert len(rejected) >= 1
        assert rejected == [0] * len(rejected)
        # the accepted trial is the last one, and its gradient was computed
        assert trials[-1][2] == 1 and np.array_equal(trials[-1][0], x)

    def test_nan_gradient_at_trial_passing_sufficient_decrease_raises(self):
        # the first trial lands on x = 0, where f = 0 passes sufficient decrease
        def nan_away_from_start(x):
            g = x.copy() if x[0] == 1.0 else np.array([np.nan])
            return 0.5 * float(x @ x), g

        with pytest.raises(NumericError, match="gradient contains NaN"):
            minimize(eager(nan_away_from_start), np.array([1.0]), OptimizeConfig())


class TestSteepestDescentReset:
    def test_non_descent_direction_restarts_along_minus_gradient(self, monkeypatch):
        # this beta makes g_new . (-g_new + beta * d_old) = |g_new|^2 > 0
        def uphill_beta(g_new, g_old, d_old):
            return 2.0 * float(g_new @ g_new) / float(g_new @ d_old)

        searches = []
        line_search = optimize._line_search

        def recording_line_search(ev, *args):
            searches.append((ev.x, ev.d))
            return line_search(ev, *args)

        monkeypatch.setattr(optimize, "_hs_beta", uphill_beta)
        monkeypatch.setattr(optimize, "_line_search", recording_line_search)
        # not a quadratic: there an interpolated step lands on the exact line
        # minimiser, g_new . d_old rounds to about 1e-17, and the forced beta
        # of about 1e17 swamps -g_new, so the direction is no longer uphill
        w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

        def f(x):
            return 0.5 * float(x @ (w * x)) + 0.25 * float(np.sum(x**4)), w * x + x**3

        _, report = minimize(eager(f), np.ones(5), OptimizeConfig(max_iters=4))
        assert report.iterations == len(searches) == 4
        for x, d in searches:
            assert np.array_equal(d, -f(x)[1])
        objectives = [r.objective for r in report.records]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))


def along_the_line(phi):
    """phi(x) = (f, f') of a float as an (f, g) function of a 1-vector."""

    def fg(x):
        f, slope = phi(float(x[0]))
        return f, np.array([slope])

    return fg


def first_search(phi):
    """The trials of minimize's first line search on phi from x = 0, and how the run ended.

    Every phi below has phi'(0) = -1, so the first direction is d = 1 and each
    trial's x is its step exactly.
    """
    log = []
    try:
        _, report = minimize(recording(along_the_line(phi), log), np.array([0.0]), OptimizeConfig(max_iters=1))
    except NumericError as err:
        return log[1:], str(err)
    return log[1:], report.reason


def quartic(a, b, c):
    """3 - x + a x^2 + b x^3 + c x^4 and its derivative."""
    return lambda x: (3.0 - x + a * x**2 + b * x**3 + c * x**4, -1.0 + 2 * a * x + 3 * b * x**2 + 4 * c * x**3)


def ramp_then_wall(x):
    # falls with slope -1 up to 1/3, then jumps: no point meets the curvature test
    return (-x, -1.0) if x <= 1 / 3 else (1.0, 0.0)


def wall_beyond_half(value):
    return lambda x: (2.0 * (x - 0.25) ** 2 + 10.0, 4.0 * (x - 0.25)) if x < 0.5 else (value, 0.0)


BUDGET_SPENT_ZOOMING = [
    (1.0, 0), (0.25, 1), (0.4839905460776629, 0), (0.36699527303883145, 0), (0.30849763651941575, 1),
    (0.3377464547791236, 0), (0.32312204564926966, 1), (0.3304342502141966, 1), (0.3340903524966601, 0),
    (0.33226230135542834, 1), (0.3331763269260442, 1), (0.3336333397113521, 0), (0.3334048333186982, 0),
    (0.3332905801223712, 1), (0.3333477067205347, 0), (0.33331914342145297, 1), (0.33333342507099384, 0),
    (0.3333262842462234, 1), (0.33332985465860865, 1), (0.33333163986480124, 1), (0.3333325324678975, 1),
    (0.3333329787694457, 1), (0.33333320192021976, 1), (0.3333333134956068, 1), (0.3333333692833003, 0),
]


class TestLineSearchTrials:
    """The trial steps of one search, and which of them computed a gradient, for each branch.

    The figures are the search's own output, kept so that a rewrite of the
    search must reproduce them; the cubic's 2x2 product goes through BLAS, so
    steps are compared to 1e-12 relative.
    """

    @pytest.mark.parametrize(
        "phi, trials, outcome",
        [
            pytest.param(lambda x: ((x - 1.0) ** 2 / 2.0, x - 1.0), [(1.0, 1)], "grad-tol", id="first-trial-accepted"),
            pytest.param(
                lambda x: ((x - 4.0) ** 2 / 8.0, (x - 4.0) / 4.0),
                [(1.0, 1), (2.0, 1), (4.0, 1)],
                "grad-tol",
                id="doubling-then-accepted",
            ),
            pytest.param(
                lambda x: ((x - 1.52) ** 2 / 3.04 + 0.5, (x - 1.52) / 1.52),
                [(1.0, 1), (2.0, 1), (1.52, 1)],
                "grad-tol",
                id="positive-slope-after-doubling-swaps-the-ends",
            ),
            pytest.param(
                quartic(0.0, 0.0, 1.0),
                [(1.0, 0), (0.5, 1), (0.618702408408171, 1)],
                "max-iters",
                id="sufficient-decrease-failure-then-quadratic-then-cubic",
            ),
            pytest.param(
                lambda x: (-x + 1.6 * x**1.5, -1.0 + 2.4 * np.sqrt(x)),
                [(1.0, 0), (0.3125, 1), (0.18672723288581225, 1)],
                "max-iters",
                id="positive-slope-in-the-bracket-swaps-the-ends",
            ),
            pytest.param(
                quartic(4.6, 0.9, 0.6),
                [(1.0, 0), (0.5, 0), (0.1088406970259213, 1)],
                "max-iters",
                id="rejection-in-the-bracket-feeds-the-cubic",
            ),
            pytest.param(
                quartic(6.5, -1.7, 4.2),
                [(1.0, 0), (0.5, 0), (0.0746268656716418, 1)],
                "max-iters",
                id="cubic-in-the-outer-fifth-falls-back-to-the-quadratic",
            ),
            pytest.param(
                lambda x: (50.0 * x * x - x, 100.0 * x - 1.0),
                [(1.0, 0), (0.5, 0), (0.25, 0), (0.125, 0), (0.0625, 0), (0.01, 1)],
                "grad-tol",
                id="quadratic-rejected-for-bisection",
            ),
            pytest.param(
                lambda x: (-x, -1.0),
                [(2.0**k, 1) for k in range(25)],
                "line-search-failure",
                id="budget-spent-doubling",
            ),
            pytest.param(ramp_then_wall, BUDGET_SPENT_ZOOMING, "line-search-failure", id="budget-spent-zooming"),
            pytest.param(
                wall_beyond_half(np.inf),
                [(1.0, 0), (0.5, 0), (0.25, 1)],
                "grad-tol",
                id="first-trial-plus-inf",
            ),
            pytest.param(
                wall_beyond_half(-np.inf),
                [(1.0, 0), (0.5, 1)],
                "objective or gradient is not finite at an accepted step",
                id="first-trial-minus-inf",
            ),
        ],
    )
    def test_trial_sequence(self, phi, trials, outcome):
        seen, ended = first_search(phi)
        assert [x[0] for x, _, _ in seen] == pytest.approx([step for step, _ in trials], rel=1e-12, abs=0)
        assert [calls for _, _, calls in seen] == [calls for _, calls in trials]
        assert ended == outcome


# bracket numbers: signed zeros, subnormals, huge values and ordinary ones, each a float or an np.float64
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 1.0, -1.0, 0.5]
_NUMBERS = st.tuples(
    st.one_of(st.sampled_from(_EDGES), st.floats(-1e300, 1e300), st.floats(-4.0, 4.0)), st.booleans()
).map(lambda pair: np.float64(pair[0]) if pair[1] else pair[0])


class TestFallbacks:
    def test_zero_width_bracket_bisects(self):
        # hi == lo makes both models divide by zero; the guard skips them and the trial bisects
        assert optimize._interpolate((1.0, 0.0, -1.0), (1.0, 0.0), (0.0, 0.0)) == 1.0

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_interpolate_matches_the_per_model_guards(self, data):
        a_lo, f_lo, d_lo, f_hi, a_rec, f_rec = (data.draw(_NUMBERS) for _ in range(6))
        a_hi = a_lo if data.draw(st.booleans()) else data.draw(_NUMBERS)
        args = (a_lo, f_lo, d_lo), (a_hi, f_hi), (a_rec, f_rec)
        got, want = optimize._interpolate(*args), oracles._interpolate(*args)
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_underflowed_slope_takes_the_capped_first_step(self):
        # g.g = 1e-340 underflows to -0.0, so the slope along -g looks like no
        # descent; without the guard the first-step model divides by zero
        def tiny_linear(x):
            return 1e-170 * float(x[0]), np.array([1e-170])

        x, report = minimize(eager(tiny_linear), np.array([1.0]), OptimizeConfig(max_iters=5))
        assert (report.reason, report.iterations, report.evals) == ("max-iters", 5, 6)
        assert [r.step for r in report.records[1:]] == [optimize._INITIAL_STEP] * 5
        assert np.array_equal(x, [1.0])
