"""Nonlinear conjugate gradient over a flat parameter vector.

Directions start along steepest descent and then follow the Hestenes-Stiefel
update clamped at 0 (HS+); each step comes from a strong-Wolfe line search
(c1 = 1e-4, c2 = 0.3, first trial step at most 1) that refines one bracket
in one loop of at most 25 evaluations. The callback returns the objective
and a function that computes the gradient. The search rejects a trial that
fails sufficient decrease on its objective alone, so it computes the
gradient, and from it the directional derivative, only at the trials that
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import whole
from .errors import NumericError, ShapeError

_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.3  # largest of 0.1-0.4 keeping img256 held-out RSE (seeds 0/7): evals 787 -> 716, RSE 0.2922/0.2903 -> 0.2915/0.2777
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
        if self.grad_tol == math.inf:  # would stop every run at its start
            raise ValueError(f"grad_tol must be finite, got {self.grad_tol!r}")


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
    """Hestenes-Stiefel mixing coefficient, clamped to be non-negative (HS+).

    beta = g_new . (g_new - g_old) / d_old . (g_new - g_old); 0 when that is
    negative or its denominator, positive after any strong-Wolfe step, is not.
    """
    diff = g_new - g_old
    denom = float(np.dot(d_old, diff))
    if denom <= 0.0:
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

    :func:`minimize` sets ``x`` and ``d`` before each line search; the run's
    report counts every evaluation and gradient. A NaN directional derivative
    at a trial whose gradient the search reads aborts the run; a trial
    rejected on its objective computes no gradient. The search aborts on a
    NaN objective and rejects an infinite one while it has no bracket;
    :func:`minimize` checks the start and the accepted points.
    """

    def __init__(self, f_and_g, report: OptimizeReport):
        self.f_and_g = f_and_g
        self.report = report

    def __call__(self, alpha) -> float:
        """The objective at x + alpha*d."""
        self.report.evals += 1
        self._gradient = None  # free the last trial's kept state before the next forward pass
        f, self._gradient = self.f_and_g(self.x + alpha * self.d)
        return float(f)

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


def _first_trial_step(f, f_prev, derphi0):
    """Initial step for one line search, at most ``_INITIAL_STEP``.

    Scales the trial to the decrease a quadratic model expects: the first
    iteration aims at f = 0, later ones at repeating the previous drop. The
    cap only limits long guesses, and it is the step taken when the model
    predicts no drop (or the slope has underflowed to zero).
    """
    if derphi0 >= 0.0:
        return _INITIAL_STEP
    drop = max(f, 0.0) if f_prev is None else f_prev - f
    guess = 2.02 * drop / (-derphi0)  # <= 0 when there is no drop to repeat
    return min(_INITIAL_STEP, guess) if guess > 0.0 else _INITIAL_STEP


def _interpolate(lo, hi, rec):
    """A trial inside the bracket from ``lo`` = (a, f, slope) to ``hi`` = (a, f).

    The cubic through lo, hi and ``rec`` comes first, then the quadratic
    through lo and hi, then bisection, each rejected when it lands in the
    outer fifth (cubic) or tenth (quadratic) of the bracket.
    """
    (a_lo, f_lo, d_lo), (a_hi, f_hi) = lo, hi
    dalpha = a_hi - a_lo
    left, right = (a_lo, a_hi) if dalpha > 0 else (a_hi, a_lo)
    cchk, qchk = 0.2 * abs(dalpha), 0.1 * abs(dalpha)
    a_j = _cubic_min(a_lo, f_lo, d_lo, a_hi, f_hi, *rec)
    if a_j is None or a_j > right - cchk or a_j < left + cchk:
        a_j = _quad_min(a_lo, f_lo, d_lo, a_hi, f_hi)
        if a_j is None or a_j > right - qchk or a_j < left + qchk:
            a_j = a_lo + 0.5 * dalpha
    return a_j


def _line_search(ev, f0, derphi0, alpha):
    """Find a step satisfying the strong Wolfe conditions (Nocedal & Wright, Alg. 3.5-3.6).

    ``lo`` = (step, f, slope) is the best trial that passed sufficient
    decrease. ``hi`` = (step, f) is None until a trial brackets a strong-Wolfe
    point; until then the trial is ``alpha``, doubled each time it becomes
    ``lo``, and after it the trial is interpolated, ``rec`` being the cubic's
    third point. Returns (step, f, g, evaluations), or None once the budget
    of ``_MAX_LINE_SEARCH_EVALS`` evaluations is spent; a NaN objective
    raises NumericError.
    """
    lo, hi, rec = (0.0, f0, derphi0), None, (0.0, f0)
    for evaluations in range(1, _MAX_LINE_SEARCH_EVALS + 1):
        step = alpha if hi is None else _interpolate(lo, hi, rec)
        f = ev(step)
        if f != f:
            raise NumericError("objective is NaN")
        armijo_fails = f > f0 + _WOLFE_C1 * step * derphi0
        if armijo_fails or (hi is None and not np.isfinite(f)) or (evaluations > 1 and f >= lo[1]):
            hi, rec = (step, f), rec if hi is None else hi
            continue
        g, slope = ev.slope()
        if abs(slope) <= -_WOLFE_C2 * derphi0:
            return step, f, g, evaluations
        if hi is None and slope < 0:
            alpha *= 2.0
        elif hi is None or slope * (hi[0] - lo[0]) >= 0:
            hi, rec = lo[:2], rec if hi is None else hi
        else:
            rec = lo[:2]
        lo = (step, f, slope)
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

    Iteration 0 is the start, step 0 along d = 0; iteration k >= 1 is the step
    the k-th line search accepts. Each iteration checks that f and g are finite
    (else NumericError), moves x, sets d (HS+, or -g at k = 0 and where HS+ is
    not downhill), appends its record and tests the stopping rules. Accepted
    steps are strong-Wolfe, so the recorded objectives never increase. A line
    search that exhausts its budget ends the run as "line-search-failure".
    """
    cfg = cfg or OptimizeConfig()
    x = np.array(x0, dtype=np.float64).ravel()
    report = OptimizeReport()
    ev = _LineEvaluator(f_and_g, report)
    d = np.zeros_like(x)
    ev.x, ev.d = x, d
    hit = 0.0, ev(0.0), ev.gradient(), 1
    f = g = None
    for k in range(cfg.max_iters + 1):
        alpha, f_new, g_new, evals = hit
        g_norm = float(np.max(np.abs(g_new)))  # NaN or inf when any entry is not finite
        if not math.isfinite(f_new) or not math.isfinite(g_norm):
            where = "an accepted step" if k else "the starting point"
            raise NumericError(f"objective or gradient is not finite at {where}")
        x = x + alpha * d
        beta = _hs_beta(g_new, g, d) if k else 0.0
        d = -g_new + beta * d
        f_prev, f, g = f, f_new, g_new
        report.records.append(IterationRecord(f, g_norm, float(alpha), evals))
        if g_norm <= cfg.grad_tol:
            report.reason = "grad-tol"
            return x, report
        if k == cfg.max_iters:
            break
        derphi0 = float(np.dot(g, d))
        if derphi0 >= 0.0:
            d = -g
            derphi0 = float(np.dot(g, d))
        ev.x, ev.d = x, d
        hit = _line_search(ev, f, derphi0, _first_trial_step(f, f_prev, derphi0))
        if hit is None:
            report.reason = "line-search-failure"
            return x, report
    report.reason = "max-iters"
    return x, report
