"""Deterministic batch L-BFGS with Armijo backtracking.

All trainers in this package share this minimizer.  It is fully
deterministic (no randomness, fixed iteration order), its accepted steps are
monotone in the objective, and it stops on an exact L2 gradient-norm
tolerance, which the training contracts require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

# The number of (s, y) curvature pairs kept.
HISTORY = 10


@dataclass(frozen=True)
class OptResult:
    x: np.ndarray
    fun: float
    grad_norm: float
    n_iter: int
    converged: bool
    trace: tuple[float, ...]


def minimize_lbfgs(
    fun: Objective,
    x0: np.ndarray,
    *,
    tol: float = 1e-4,
    max_iter: int = 500,
) -> OptResult:
    """Minimize fun, returning the iterate with ||grad||_2 <= tol if reached.

    fun maps x to (value, gradient).  Armijo backtracking guarantees the
    objective trace is non-increasing across accepted steps.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericalError("objective returned non-finite value or gradient at the start point")

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    trace = [float(f)]
    n_iter = 0
    grad_norm = float(np.linalg.norm(g))

    while grad_norm > tol and n_iter < max_iter:
        d = _two_loop_direction(g, s_hist, y_hist, rho_hist)
        gd = float(np.dot(g, d))
        if gd >= 0.0:
            # Stale curvature information; restart from steepest descent.
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
            d = -g
            gd = -float(np.dot(g, g))

        step = 1.0 if s_hist else min(1.0, 1.0 / max(grad_norm, 1e-12))
        accepted = False
        f_new = f
        g_new = g
        x_new = x
        for _ in range(60):
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * gd:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break

        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > HISTORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        x, f, g = x_new, float(f_new), g_new
        grad_norm = float(np.linalg.norm(g))
        trace.append(f)
        n_iter += 1

    return OptResult(
        x=x,
        fun=float(f),
        grad_norm=grad_norm,
        n_iter=n_iter,
        converged=grad_norm <= tol,
        trace=tuple(trace),
    )


def _two_loop_direction(
    g: np.ndarray,
    s_hist: list[np.ndarray],
    y_hist: list[np.ndarray],
    rho_hist: list[float],
) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        gamma = float(np.dot(s, y)) / max(float(np.dot(y, y)), 1e-300)
        q *= gamma
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return -q
