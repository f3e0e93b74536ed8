"""Nonlinear conjugate gradient over a flat parameter vector.

Directions follow the Hestenes-Stiefel update, restarted to steepest descent
every n iterations, and each step comes from a strong-Wolfe line search
(c1 = 1e-4, c2 = 0.1, first trial step at most 1, 25 evaluations per search).
The callback returns objective and gradient together, so every line-search
trial yields the directional derivative for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be non-negative")


@dataclass(frozen=True)
class IterationRecord:
    """One trace row; ``evals`` counts the f+g calls spent to reach it (1 at the start)."""

    objective: float
    grad_norm: float
    step: float
    evals: int


@dataclass
class OptimizeReport:
    """Trace of one run: record 0 is the starting point, then one per accepted step."""

    records: list = field(default_factory=list)
    reason: str = ""

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
    """Evaluates f and g along x + alpha*d, counting calls against a budget.

    NaN anywhere aborts the run. An infinite objective at a trial point is
    tolerated (the caller rejects the step and shrinks the bracket); accepted
    steps are re-validated by the driver.
    """

    def __init__(self, fg, x, d):
        self.fg = fg
        self.x = x
        self.d = d
        self.calls = 0

    def exhausted(self) -> bool:
        return self.calls >= _MAX_LINE_SEARCH_EVALS

    def __call__(self, alpha):
        self.calls += 1
        f, g = self.fg(self.x + alpha * self.d)
        if f != f:
            raise NumericError("objective is NaN")
        derphi = float(np.dot(g, self.d))
        if derphi != derphi:
            raise NumericError("gradient contains NaN")
        return f, g, derphi


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

        f_j, g_j, d_j = ev(a_j)
        if f_j > f0 + _WOLFE_C1 * a_j * derphi0 or f_j >= f_lo:
            a_rec, f_rec = a_hi, f_hi
            a_hi, f_hi = a_j, f_j
        else:
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
    if derphi0 >= 0.0 or not np.isfinite(derphi0):
        return _INITIAL_STEP
    if f_prev is None:
        drop = f if f > 0 else 0.0
    else:
        drop = f_prev - f
    if drop <= 0.0:
        return _INITIAL_STEP
    guess = 2.02 * drop / (-derphi0)
    if not np.isfinite(guess) or guess <= 0.0:
        return _INITIAL_STEP
    return min(_INITIAL_STEP, guess)


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
        f_a, g_a, d_a = ev(alpha)
        armijo_fails = f_a > f0 + _WOLFE_C1 * alpha * derphi0 or not np.isfinite(f_a)
        if armijo_fails or (f_a >= f_prev and not first):
            return _zoom(ev, a_prev, f_prev, d_prev, alpha, f_a, f0, derphi0)
        if abs(d_a) <= -_WOLFE_C2 * derphi0:
            return alpha, f_a, g_a
        if d_a >= 0:
            return _zoom(ev, alpha, f_a, d_a, a_prev, f_prev, f0, derphi0)
        a_prev, f_prev, d_prev = alpha, f_a, d_a
        alpha *= 2.0
        first = False
    return None


def minimize(
    f_and_g: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    cfg: OptimizeConfig | None = None,
) -> tuple[np.ndarray, OptimizeReport]:
    """Run NCG-HS from ``x0`` until a stopping rule fires.

    Every accepted step satisfies the strong Wolfe conditions, so the
    recorded objective sequence is strictly non-increasing. A line search
    that exhausts its budget ends the run with reason "line-search-failure";
    non-finite objective or gradient values abort with NumericError.
    """
    cfg = cfg or OptimizeConfig()
    x = np.array(x0, dtype=np.float64).ravel()

    def fg(z):
        f, g = f_and_g(z)
        g = np.asarray(g, dtype=np.float64).ravel()
        if g.size != x.size:
            raise ShapeError(f"callback returned gradient of length {g.size}, expected {x.size}")
        return float(f), g

    f, g = fg(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericError("objective or gradient is not finite at the starting point")
    report = OptimizeReport()
    report.records.append(IterationRecord(f, float(np.max(np.abs(g))), 0.0, 1))
    if float(np.max(np.abs(g))) <= cfg.grad_tol:
        report.reason = "grad-tol"
        return x, report

    d = -g
    f_prev = None
    restart_period = max(x.size, 1)
    for k in range(1, cfg.max_iters + 1):
        derphi0 = float(np.dot(g, d))
        if derphi0 >= 0.0:
            d = -g
            derphi0 = float(np.dot(g, d))
        first_trial = _first_trial_step(f, f_prev, derphi0)
        ev = _LineEvaluator(fg, x, d)
        hit = _line_search(ev, f, derphi0, first_trial)
        if hit is None:
            report.reason = "line-search-failure"
            return x, report
        alpha, f_new, g_new = hit
        if not np.isfinite(f_new) or not np.all(np.isfinite(g_new)):
            raise NumericError("objective or gradient is not finite at an accepted step")
        x = x + alpha * d
        beta = 0.0 if k % restart_period == 0 else _hs_beta(g_new, g, d)
        d = -g_new + beta * d
        f_prev, f, g = f, f_new, g_new
        report.records.append(IterationRecord(f, float(np.max(np.abs(g))), float(alpha), ev.calls))
        if float(np.max(np.abs(g))) <= cfg.grad_tol:
            report.reason = "grad-tol"
            return x, report
    report.reason = "max-iters"
    return x, report
