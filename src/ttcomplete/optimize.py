"""Nonlinear conjugate gradient over a flat parameter vector.

Directions follow the Hestenes-Stiefel update, restarted to steepest descent
every n iterations, and each step comes from a strong-Wolfe line search
(c1 = 1e-4, c2 = 0.1, first trial step at most 1, 25 evaluations per search).
The callback returns the objective and a function that computes the
gradient. The search rejects a trial that fails sufficient decrease on its
objective alone, so it computes the gradient, and from it the directional
derivative, only at the trials that pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import whole
from .errors import NumericError, ShapeError

_HS_DENOM_FLOOR = 1e-30
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.1
_INITIAL_STEP = 1.0
_MAX_LINE_SEARCH_EVALS = 25


@dataclass(frozen=True)
class OptimizeConfig:
    """The two stopping rules of :func:`minimize`.

    ``max_iters`` caps the accepted steps. ``grad_tol`` compares against the
    gradient infinity norm with <=, so an exactly zero gradient stops the run
    even at the default tolerance of 0.
    """

    max_iters: int = 200
    grad_tol: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "max_iters", whole(self.max_iters, ValueError, "max_iters"))
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not self.grad_tol >= 0:  # NaN compares false, and would never stop a run
            raise ValueError(f"grad_tol must be non-negative, got {self.grad_tol!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One trace row; ``evals`` counts the evaluations spent to reach it (1 at the start)."""

    objective: float
    grad_norm: float
    step: float
    evals: int


@dataclass
class OptimizeReport:
    """Trace of one run: record 0 is the starting point, then one per accepted step.

    ``evals`` counts every evaluation, those of a line search that failed
    included. ``gradients`` counts the gradients computed: one at the start
    and one at each trial that passed sufficient decrease.
    """

    records: list = field(default_factory=list)
    reason: str = ""
    evals: int = 0
    gradients: int = 0

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective


def _hs_beta(g_new: np.ndarray, g_old: np.ndarray, d_old: np.ndarray) -> float:
    """Hestenes-Stiefel mixing coefficient, clamped to be non-negative.

    beta = g_new . (g_new - g_old) / d_old . (g_new - g_old); a vanishing
    denominator or a negative value restarts toward steepest descent (0).
    """
    diff = g_new - g_old
    denom = float(np.dot(d_old, diff))
    if abs(denom) < _HS_DENOM_FLOOR:
        return 0.0
    return max(float(np.dot(g_new, diff)) / denom, 0.0)


def _cubic_min(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa) with slope fpa, (b, fb), (c, fc)."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.array([[dc**2, -(db**2)], [-(dc**3), db**3]])
            aa, bb = np.dot(d1, np.array([fb - fa - fpa * db, fc - fa - fpa * dc])) / denom
            radical = bb * bb - 3.0 * aa * fpa
            xmin = a + (-bb + np.sqrt(radical)) / (3.0 * aa)
        except (ArithmeticError, FloatingPointError):
            return None
    return xmin if np.isfinite(xmin) else None


def _quad_min(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa) with slope fpa and (b, fb)."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a
            curv = (fb - fa - fpa * db) / (db * db)
            xmin = a - fpa / (2.0 * curv)
        except (ArithmeticError, FloatingPointError):
            return None
    return xmin if np.isfinite(xmin) else None


class _LineEvaluator:
    """The one caller of a run's ``f_and_g``: f along x + alpha*d, and g there on request.

    ``search(x, d)`` starts a line and resets ``calls``, its evaluation
    budget; the run's report counts every evaluation and gradient. A NaN
    objective at any trial aborts the run, and so does a NaN directional
    derivative at a trial whose gradient the search reads; a trial rejected
    on its objective computes no gradient. An infinite objective at a trial
    is tolerated (the caller rejects the step and shrinks the bracket);
    :func:`minimize` checks the accepted points.
    """

    def __init__(self, f_and_g, report: OptimizeReport):
        self.f_and_g = f_and_g
        self.report = report

    def search(self, x, d):
        """Evaluate along x + alpha*d from now on, with a fresh budget."""
        self.x, self.d, self.calls = x, d, 0

    def exhausted(self) -> bool:
        return self.calls >= _MAX_LINE_SEARCH_EVALS

    def __call__(self, alpha) -> float:
        """The objective at x + alpha*d."""
        self.calls += 1
        self.report.evals += 1
        self._gradient = None  # free the last trial's kept state before the next forward pass
        f, self._gradient = self.f_and_g(self.x + alpha * self.d)
        f = float(f)
        if f != f:
            raise NumericError("objective is NaN")
        return f

    def gradient(self) -> np.ndarray:
        """The gradient at the last trial, as a flat float64 vector the size of x."""
        self.report.gradients += 1
        g = np.asarray(self._gradient(), dtype=np.float64).ravel()
        if g.size != self.x.size:
            raise ShapeError(f"callback returned gradient of length {g.size}, expected {self.x.size}")
        return g

    def slope(self):
        """The gradient at the last trial and its directional derivative along d."""
        g = self.gradient()
        derphi = float(np.dot(g, self.d))
        if derphi != derphi:
            raise NumericError("gradient contains NaN")
        return g, derphi


def _zoom(ev, a_lo, f_lo, d_lo, a_hi, f_hi, f0, derphi0):
    """Shrink a bracketing interval until a strong-Wolfe point is found.

    The interval always contains a point satisfying both conditions; each
    round interpolates a trial (cubic, then quadratic, then bisection when
    the fit lands too close to an endpoint) and rebrackets around it.
    """
    a_rec, f_rec = 0.0, f0
    while not ev.exhausted():
        dalpha = a_hi - a_lo
        lo, hi = (a_lo, a_hi) if dalpha > 0 else (a_hi, a_lo)
        # Reject interpolants in the outer tenth/fifth of the interval.
        cchk = 0.2 * abs(dalpha)
        qchk = 0.1 * abs(dalpha)
        a_j = _cubic_min(a_lo, f_lo, d_lo, a_hi, f_hi, a_rec, f_rec)
        if a_j is None or a_j > hi - cchk or a_j < lo + cchk:
            a_j = _quad_min(a_lo, f_lo, d_lo, a_hi, f_hi)
            if a_j is None or a_j > hi - qchk or a_j < lo + qchk:
                a_j = a_lo + 0.5 * dalpha

        f_j = ev(a_j)
        if f_j > f0 + _WOLFE_C1 * a_j * derphi0 or f_j >= f_lo:
            a_rec, f_rec = a_hi, f_hi
            a_hi, f_hi = a_j, f_j
        else:
            g_j, d_j = ev.slope()
            if abs(d_j) <= -_WOLFE_C2 * derphi0:
                return a_j, f_j, g_j
            if d_j * dalpha >= 0:
                a_rec, f_rec = a_hi, f_hi
                a_hi, f_hi = a_lo, f_lo
            else:
                a_rec, f_rec = a_lo, f_lo
            a_lo, f_lo, d_lo = a_j, f_j, d_j
    return None


def _first_trial_step(f, f_prev, derphi0):
    """Initial step for one line search, at most ``_INITIAL_STEP``.

    Scales the trial to the decrease a quadratic model expects: the first
    iteration aims at f = 0, later ones at repeating the previous drop.
    Well-scaled problems hit the cap and start at exactly ``_INITIAL_STEP``.
    """
    if derphi0 >= 0.0:
        return _INITIAL_STEP
    drop = max(f, 0.0) if f_prev is None else f_prev - f
    guess = 2.02 * drop / (-derphi0)  # <= 0 when there is no drop to repeat
    return min(_INITIAL_STEP, guess) if guess > 0.0 else _INITIAL_STEP


def _line_search(ev, f0, derphi0, first_trial):
    """Find a step satisfying the strong Wolfe conditions.

    Brackets by stepping out from ``first_trial`` (doubling), then zooms.
    Returns (alpha, f_alpha, g_alpha) or None when the evaluation budget runs
    out first.
    """
    a_prev, f_prev, d_prev = 0.0, f0, derphi0
    alpha = first_trial
    first = True
    while not ev.exhausted():
        f_a = ev(alpha)
        armijo_fails = f_a > f0 + _WOLFE_C1 * alpha * derphi0 or not np.isfinite(f_a)
        if armijo_fails or (f_a >= f_prev and not first):
            return _zoom(ev, a_prev, f_prev, d_prev, alpha, f_a, f0, derphi0)
        g_a, d_a = ev.slope()
        if abs(d_a) <= -_WOLFE_C2 * derphi0:
            return alpha, f_a, g_a
        if d_a >= 0:
            return _zoom(ev, alpha, f_a, d_a, a_prev, f_prev, f0, derphi0)
        a_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha *= 2.0
        first = False
    return None


def minimize(
    f_and_g: Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]],
    x0: np.ndarray,
    cfg: OptimizeConfig | None = None,
) -> tuple[np.ndarray, OptimizeReport]:
    """Run NCG-HS from ``x0`` until a stopping rule fires.

    ``f_and_g(x)`` returns ``(f, gradient)``: the objective at x and a
    zero-argument function that returns the gradient there. One
    :class:`_LineEvaluator` makes every call, and calls ``gradient`` at most
    once, before the next evaluation, only at the start and at the
    line-search trials that pass sufficient decrease.

    Iteration 0 is the start, taken as step 0 along d = 0; iteration k >= 1 is
    the step the k-th line search accepts. Each iteration checks that f and g
    are finite (else NumericError), moves x, sets the next direction, appends
    its record and tests the stopping rules. Accepted steps satisfy the strong
    Wolfe conditions, so the recorded objectives never increase. A line search
    that exhausts its budget ends the run with reason "line-search-failure".
    """
    cfg = cfg or OptimizeConfig()
    x = np.array(x0, dtype=np.float64).ravel()
    report = OptimizeReport()
    ev = _LineEvaluator(f_and_g, report)
    d = np.zeros_like(x)
    ev.search(x, d)
    hit = 0.0, ev(0.0), ev.gradient()
    f = g = None
    restart_period = max(x.size, 1)
    for k in range(cfg.max_iters + 1):
        alpha, f_new, g_new = hit
        if not np.isfinite(f_new) or not np.all(np.isfinite(g_new)):
            where = "an accepted step" if k else "the starting point"
            raise NumericError(f"objective or gradient is not finite at {where}")
        x = x + alpha * d
        beta = 0.0 if k % restart_period == 0 else _hs_beta(g_new, g, d)
        d = -g_new + beta * d
        f_prev, f, g = f, f_new, g_new
        report.records.append(IterationRecord(f, float(np.max(np.abs(g))), float(alpha), ev.calls))
        if report.records[-1].grad_norm <= cfg.grad_tol:
            report.reason = "grad-tol"
            return x, report
        if k == cfg.max_iters:
            break
        derphi0 = float(np.dot(g, d))
        if derphi0 >= 0.0:
            d = -g
            derphi0 = float(np.dot(g, d))
        ev.search(x, d)
        hit = _line_search(ev, f, derphi0, _first_trial_step(f, f_prev, derphi0))
        if hit is None:
            report.reason = "line-search-failure"
            return x, report
    report.reason = "max-iters"
    return x, report
