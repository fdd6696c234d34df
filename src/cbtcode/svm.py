"""Class-weighted linear SVM for the binary code tasks.

Primal problem: minimize (1/2)||w||^2 + C * sum_i weight(y_i) * hinge_i with
an unregularized intercept.  Solved in the dual by sequential minimal
optimization with second-order pair selection, accelerated by an exact
solve on the settled free set; the intercept is recovered by exact 1-D
minimization of the primal, and convergence is declared on the relative
duality gap.  Problems of the same size are solved in lockstep batches that
share each iteration's numpy calls.
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


class SvmProblem(NamedTuple):
    """One training problem for `train_svms`; the fields are `train_svm`'s arguments."""

    X: np.ndarray
    y: Sequence[bool]
    C: float = 1.0
    weights: ClassWeights | None = None
    tol: float = 1e-6
    max_iter: int = 1_000_000


# Problems solved in one lockstep batch.  Per-iteration numpy overhead is
# shared by the batch; beyond ~20 problems the gain levels off while the
# stacked Gram matrices keep growing.
_BATCH = 20
_EPS_BOUND = 1e-12


def _newton_jump(
    alpha: np.ndarray, K: np.ndarray, ys: np.ndarray, sample_c: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exactly solve the QP restricted to the current free set.

    SMO's tail convergence is linear; once the active set has settled
    this one solve lands on that set's optimum.  The move is only a
    candidate: the caller keeps it solely when it shrinks the gap.
    """
    free = (alpha > _EPS_BOUND) & (alpha < sample_c - _EPS_BOUND)
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


class _Fit:
    """One validated problem and, once its solve stops, its dual solution."""

    def __init__(self, problem: SvmProblem):
        X = np.asarray(problem.X, dtype=float)
        if not np.all(np.isfinite(X)):
            raise ValidationError("feature matrix contains non-finite values")
        yb = np.asarray(problem.y, dtype=bool)
        if X.shape[0] != len(yb):
            raise ValidationError("X and y disagree in sample count")
        weights = problem.weights if problem.weights is not None else class_weights(yb)
        if yb.all() or not yb.any():
            raise ValidationError("both classes must be present to train")
        self.X = X
        self.C = problem.C
        self.weights = weights
        self.tol = problem.tol
        self.max_iter = problem.max_iter
        self.ys = np.where(yb, 1.0, -1.0)
        self.sample_c = problem.C * np.where(yb, weights.high, weights.low)

    def gap(self, alpha: np.ndarray, u: np.ndarray) -> tuple[float, float, float, bool]:
        """Duality gap, primal value and optimal bias at the dual point alpha
        (u = X @ w), and whether the relative gap meets tol."""
        ys, sample_c = self.ys, self.sample_c
        dual = float(alpha.sum()) - 0.5 * float(np.dot(alpha * ys, u))
        bias = _optimal_bias(u, ys, sample_c)
        margins = ys * (u + bias)
        primal = 0.5 * float(np.dot(alpha * ys, u)) + float(
            np.dot(sample_c, np.maximum(0.0, 1.0 - margins))
        )
        gap = primal - dual
        return gap, primal, bias, gap <= self.tol * max(1.0, abs(primal))

    def model(self) -> LinearModel:
        gap, primal, bias, converged = self.gap(self.alpha, self.u)
        if not converged and self.n_iter >= self.max_iter:
            raise NumericalError(
                f"SVM solver hit max_iter={self.max_iter} with relative duality gap "
                f"{gap / max(1.0, abs(primal)):.3e} > {self.tol:.0e}"
            )
        return LinearModel(
            weights=self.X.T @ (self.alpha * self.ys),
            bias=float(bias),
            C=float(self.C),
            weight_low=float(self.weights.low),
            weight_high=float(self.weights.high),
            n_iter=self.n_iter,
            gap=float(gap),
            converged=bool(converged),
        )


def _solve_lockstep(fits: list[_Fit]) -> None:
    """SMO on problems of one size n, with one shared iteration counter.

    Every numpy call of an iteration serves all problems still running, and
    each problem follows exactly the iterates it would follow alone: the
    same pair selection (ties to the first index), the same arithmetic in
    the same order, and every max(64, n) iterations its own duality-gap
    check and candidate Newton jump.  A problem leaves the batch when its
    gap meets tol, when no violating pair remains, or at its max_iter.
    """
    K = np.stack([fit.X @ fit.X.T for fit in fits])  # rows stay put as problems leave
    check_every = max(64, K.shape[1])
    live = np.arange(len(fits))
    ar = np.arange(len(fits))
    diag = np.diagonal(K, axis1=1, axis2=2).copy()
    ys = np.stack([fit.ys for fit in fits])
    sample_c = np.stack([fit.sample_c for fit in fits])
    cap = sample_c - _EPS_BOUND
    max_iter = np.array([fit.max_iter for fit in fits])
    pos = ys > 0
    alpha = np.zeros_like(ys)
    u = np.zeros_like(ys)  # equals X @ w throughout
    v = ys - u  # equals -y * dual_gradient throughout
    done = np.array([fit.gap(alpha[k], u[k])[3] for k, fit in enumerate(fits)]) | (max_iter <= 0)
    n_iter = 0
    while True:
        free_cap = alpha < cap
        free_floor = alpha > _EPS_BOUND
        up = np.where(pos, free_cap, free_floor)
        low = np.where(pos, free_floor, free_cap)
        v_up = np.where(up, v, -np.inf)
        i = v_up.argmax(axis=1)
        v_i = v_up[ar, i]
        # An empty up (low) set makes v_i -inf (its minimum +inf).
        done |= v_i - np.where(low, v, np.inf).min(axis=1) <= 1e-12
        if done.any():
            for r in np.flatnonzero(done):
                fit = fits[live[r]]
                fit.alpha, fit.u, fit.n_iter = alpha[r].copy(), u[r].copy(), n_iter
            keep = ~done
            if not keep.any():
                return
            live, alpha, u, v, diag, ys, sample_c, cap, max_iter, pos, low, i, v_i = (
                a[keep] for a in (live, alpha, u, v, diag, ys, sample_c, cap, max_iter, pos, low, i, v_i)
            )
            ar = np.arange(len(live))
        # Second-order pair selection: maximize the analytic objective decrease.
        K_i = K[live, i]
        diag_i = diag[ar, i]
        cand = low & (v < v_i[:, None])
        b = v_i[:, None] - v
        a = np.maximum(diag_i[:, None] + diag - 2.0 * K_i, 1e-12)
        j = np.where(cand, b * b / a, -np.inf).argmax(axis=1)
        violation = v_i - v[ar, j]
        eta = diag_i + diag[ar, j] - 2.0 * K_i[ar, j]
        curved = eta > 1e-12
        lam_star = np.where(curved, violation / np.where(curved, eta, 1.0), np.inf)
        alpha_i, alpha_j = alpha[ar, i], alpha[ar, j]
        ys_i, ys_j = ys[ar, i], ys[ar, j]
        lam_i = np.where(ys_i > 0, sample_c[ar, i] - alpha_i, alpha_i)
        lam_j = np.where(ys_j > 0, alpha_j, sample_c[ar, j] - alpha_j)
        lam = np.minimum(np.minimum(lam_star, lam_i), lam_j)
        alpha[ar, i] = alpha_i + ys_i * lam
        alpha[ar, j] = alpha_j - ys_j * lam
        step = lam[:, None] * (K[live, :, i] - K[live, :, j])
        u += step
        v -= step
        n_iter += 1
        done = max_iter <= n_iter
        if n_iter % check_every == 0:
            for r, k in enumerate(live):
                fit = fits[k]
                gap, _, _, converged = fit.gap(alpha[r], u[r])
                if not converged:
                    jump = _newton_jump(alpha[r], K[k], fit.ys, fit.sample_c)
                    if jump is not None:
                        trial, u_trial = jump
                        trial_gap, _, _, converged = fit.gap(trial, u_trial)
                        if trial_gap < gap:
                            alpha[r] = trial
                            u[r] = u_trial
                            v[r] = fit.ys - u_trial
                        else:
                            converged = False
                done[r] |= converged


def lockstep_batches(sizes: Sequence[int]) -> list[list[int]]:
    """The batches `train_svms` solves together: problem indices grouped by
    size n in input order, at most _BATCH to a batch."""
    by_size: dict[int, list[int]] = {}
    for k, n in enumerate(sizes):
        by_size.setdefault(n, []).append(k)
    return [group[at : at + _BATCH] for group in by_size.values() for at in range(0, len(group), _BATCH)]


def train_svms(problems: Sequence[SvmProblem]) -> list[LinearModel]:
    """Train one weighted linear SVM per problem, in lockstep batches.

    Problems of the same size share each batch's numpy calls; every model
    equals, bit for bit, the one the problem gives when solved alone.  If
    any problem hits its max_iter unconverged, the first such problem in
    order raises NumericalError.
    """
    fits = [_Fit(p) for p in problems]
    for batch in lockstep_batches([len(fit.ys) for fit in fits]):
        _solve_lockstep([fits[k] for k in batch])
    return [fit.model() for fit in fits]


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
    return train_svms([SvmProblem(X, y, C, weights, tol, max_iter)])[0]


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
