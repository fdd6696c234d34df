"""Class-weighted linear SVM for the binary code tasks.

Primal problem: minimize (1/2)||w||^2 + C * sum_i weight(y_i) * hinge_i with
an unregularized intercept.  Solved in the dual by sequential minimal
optimization with second-order pair selection, accelerated by an exact
solve on the settled free set; the intercept is recovered by exact 1-D
minimization of the primal, and convergence is declared on the relative
duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalError, ValidationError


class ClassWeights(NamedTuple):
    low: float
    high: float


def class_weights(y: Sequence[bool]) -> ClassWeights:
    """Weights inversely proportional to class frequencies: w_c = N / (2 N_c)."""
    yb = np.asarray(y, dtype=bool)
    n = len(yb)
    n_high = int(yb.sum())
    n_low = n - n_high
    if n_low == 0 or n_high == 0:
        raise ValidationError("both classes must be present to compute class weights")
    return ClassWeights(low=n / (2.0 * n_low), high=n / (2.0 * n_high))


@dataclass(frozen=True)
class LinearModel:
    """Trained linear decision function: high iff w.x + b > 0."""

    weights: np.ndarray
    bias: float
    C: float
    weight_low: float
    weight_high: float
    n_iter: int
    gap: float
    converged: bool
    # Provenance of the features this model expects (filled by the CLI path).
    space_fingerprint: str | None = None
    feature_mask: tuple[int, ...] | None = None
    scaler_mean: np.ndarray | None = None
    scaler_std: np.ndarray | None = None


def hinge_objective(
    X: np.ndarray, y_signed: np.ndarray, sample_c: np.ndarray, w: np.ndarray, b: float
) -> float:
    """Primal objective value at (w, b)."""
    margins = y_signed * (X @ w + b)
    return 0.5 * float(np.dot(w, w)) + float(np.dot(sample_c, np.maximum(0.0, 1.0 - margins)))


def _optimal_bias(u: np.ndarray, y: np.ndarray, sample_c: np.ndarray) -> float:
    """Exact minimizer of the piecewise-linear weighted hinge loss in b.

    u = X @ w.  The loss slope in b is non-decreasing; the optimum sits at
    the breakpoint where it crosses zero (midpoint of the flat stretch if it
    touches zero exactly).
    """
    breakpoints = y - u  # where sample i's hinge activates/deactivates
    order = np.argsort(breakpoints, kind="stable")
    slope = -float(sample_c[y > 0].sum())
    for pos, i in enumerate(order):
        slope += float(sample_c[i])
        if slope > 0.0:
            return float(breakpoints[i])
        if slope == 0.0:
            if pos + 1 < len(order):
                return float(0.5 * (breakpoints[i] + breakpoints[order[pos + 1]]))
            return float(breakpoints[i])
    return float(breakpoints[order[-1]])


def train_svm(
    X: np.ndarray,
    y: Sequence[bool],
    C: float = 1.0,
    weights: ClassWeights | None = None,
    *,
    tol: float = 1e-6,
    max_iter: int = 1_000_000,
) -> LinearModel:
    """Train the weighted linear SVM; deterministic for fixed data order."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValidationError("feature matrix contains non-finite values")
    yb = np.asarray(y, dtype=bool)
    if X.shape[0] != len(yb):
        raise ValidationError("X and y disagree in sample count")
    if weights is None:
        weights = class_weights(yb)
    if yb.all() or not yb.any():
        raise ValidationError("both classes must be present to train")
    ys = np.where(yb, 1.0, -1.0)
    sample_c = C * np.where(yb, weights.high, weights.low)

    n = X.shape[0]
    K = X @ X.T
    diag = np.diag(K).copy()
    alpha = np.zeros(n)
    u = np.zeros(n)  # equals X @ w throughout
    gap = np.inf
    primal = np.inf
    bias = 0.0
    n_iter = 0
    check_every = max(64, n)
    eps_bound = 1e-12

    def primal_dual_at(a: np.ndarray, ua: np.ndarray) -> tuple[float, float, float]:
        dual = float(a.sum()) - 0.5 * float(np.dot(a * ys, ua))
        b_opt = _optimal_bias(ua, ys, sample_c)
        margins = ys * (ua + b_opt)
        p = 0.5 * float(np.dot(a * ys, ua)) + float(
            np.dot(sample_c, np.maximum(0.0, 1.0 - margins))
        )
        return p - dual, p, b_opt

    def duality_gap() -> tuple[float, float, float]:
        return primal_dual_at(alpha, u)

    def newton_jump() -> tuple[np.ndarray, np.ndarray] | None:
        """Exactly solve the QP restricted to the current free set.

        SMO's tail convergence is linear; once the active set has settled
        this one solve lands on that set's optimum.  The move is only a
        candidate: the caller keeps it solely when it shrinks the gap.
        """
        free = (alpha > eps_bound) & (alpha < sample_c - eps_bound)
        nf = int(free.sum())
        if nf == 0:
            return None
        F = np.flatnonzero(free)
        B = np.flatnonzero(~free)
        ay_b = alpha[B] * ys[B]
        q_fb = ys[F] * (K[np.ix_(F, B)] @ ay_b) if len(B) else np.zeros(nf)
        q_ff = ys[F, None] * K[np.ix_(F, F)] * ys[None, F]
        target = -float(np.dot(ys[B], alpha[B])) if len(B) else 0.0
        system = np.zeros((nf + 1, nf + 1))
        system[:nf, :nf] = q_ff
        system[:nf, nf] = ys[F]
        system[nf, :nf] = ys[F]
        rhs = np.concatenate([1.0 - q_fb, [target]])
        # A whisper of ridge keeps rank-deficient Gram blocks solvable; the
        # residual check below is against the unperturbed system.
        ridged = system.copy()
        ridged[np.arange(nf), np.arange(nf)] += 1e-9
        try:
            sol = np.linalg.solve(ridged, rhs)
        except np.linalg.LinAlgError:
            try:
                sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            except np.linalg.LinAlgError:
                return None
        # A singular system can yield a least-squares point that is not a
        # solution at all; it would violate the dual equality constraint and
        # invalidate the gap bound, so insist on a near-exact solve.
        residual = system @ sol - rhs
        scale = 1.0 + float(np.abs(rhs).max())
        if float(np.abs(residual).max()) > 1e-7 * scale:
            return None
        new_f = sol[:nf]
        if np.any(new_f < -1e-9) or np.any(new_f > sample_c[F] + 1e-9):
            return None
        trial = alpha.copy()
        trial[F] = np.clip(new_f, 0.0, sample_c[F])
        if abs(float(np.dot(ys, trial))) > 1e-8:
            return None
        return trial, K @ (trial * ys)

    pos = ys > 0
    gap, primal, bias = duality_gap()
    v = ys - u  # equals -y * dual_gradient throughout
    while gap > tol * max(1.0, abs(primal)) and n_iter < max_iter:
        free_cap = alpha < sample_c - eps_bound
        free_floor = alpha > eps_bound
        up = np.where(pos, free_cap, free_floor)
        low = np.where(pos, free_floor, free_cap)
        if not up.any() or not low.any():
            gap, primal, bias = duality_gap()
            break
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        v_low = v[low_idx]
        i = int(up_idx[np.argmax(v[up_idx])])
        if v[i] - float(v_low.min()) <= 1e-12:
            gap, primal, bias = duality_gap()
            break
        # Second-order pair selection: maximize the analytic objective decrease.
        cand = low_idx[v_low < v[i]]
        b_cand = v[i] - v[cand]
        a_cand = np.maximum(diag[i] + diag[cand] - 2.0 * K[i, cand], 1e-12)
        j = int(cand[np.argmax(b_cand * b_cand / a_cand)])
        violation = v[i] - v[j]
        eta = diag[i] + diag[j] - 2.0 * K[i, j]
        lam_star = violation / eta if eta > 1e-12 else np.inf
        lam_i = sample_c[i] - alpha[i] if ys[i] > 0 else alpha[i]
        lam_j = alpha[j] if ys[j] > 0 else sample_c[j] - alpha[j]
        lam = min(lam_star, lam_i, lam_j)
        alpha[i] += ys[i] * lam
        alpha[j] -= ys[j] * lam
        step = lam * (K[:, i] - K[:, j])
        u += step
        v -= step
        n_iter += 1
        if n_iter % check_every == 0:
            gap, primal, bias = duality_gap()
            if gap > tol * max(1.0, abs(primal)):
                jump = newton_jump()
                if jump is not None:
                    trial, u_trial = jump
                    trial_gap, trial_primal, trial_bias = primal_dual_at(trial, u_trial)
                    if trial_gap < gap:
                        alpha = trial
                        u = u_trial
                        v = ys - u
                        gap, primal, bias = trial_gap, trial_primal, trial_bias

    gap, primal, bias = duality_gap()
    converged = gap <= tol * max(1.0, abs(primal))
    if not converged and n_iter >= max_iter:
        raise NumericalError(
            f"SVM solver hit max_iter={max_iter} with relative duality gap "
            f"{gap / max(1.0, abs(primal)):.3e} > {tol:.0e}"
        )
    w = X.T @ (alpha * ys)
    return LinearModel(
        weights=w,
        bias=float(bias),
        C=float(C),
        weight_low=float(weights.low),
        weight_high=float(weights.high),
        n_iter=n_iter,
        gap=float(gap),
        converged=bool(converged),
    )


def decision_function(model: LinearModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != model.weights.shape[0]:
        raise ValidationError(
            f"dimension mismatch: data has {X.shape[-1]} features, model has {model.weights.shape[0]}"
        )
    return X @ model.weights + model.bias


def predict(model: LinearModel, x: np.ndarray) -> bool:
    """High iff w.x + b > 0; an exact zero score is labeled low."""
    score = decision_function(model, np.atleast_2d(x))
    return bool(score[0] > 0.0)


def predict_many(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return decision_function(model, X) > 0.0
