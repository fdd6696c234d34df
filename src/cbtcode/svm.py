"""Class-weighted linear SVM for the binary code tasks.

Primal problem: minimize (1/2)||w||^2 + C * sum_i weight(y_i) * hinge_i with
an unregularized intercept.  Solved in the dual by a primal-dual
interior-point method (Mehrotra predictor-corrector), whose Newton systems
go through d x d matrices when there are fewer features d than samples n;
its iteration count hardly depends on how degenerate the problem is.  The
intercept is recovered by exact 1-D minimization of the primal, and
convergence is declared on the relative duality gap.  Problems of the same
shape are solved in batches that share each iteration's numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, NamedTuple, Sequence

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


def _optimal_bias(u: np.ndarray, ys: np.ndarray, sample_c: np.ndarray, pos_c: np.ndarray) -> np.ndarray:
    """Exact minimizer of the piecewise-linear weighted hinge loss in b, per row.

    u = X @ w; pos_c is the row's positive-class total of sample_c.  The slope
    in b starts at -pos_c and grows by sample_c[i] at each breakpoint (in
    ascending order, ties in index order, summed left to right).  The optimum
    is the breakpoint where it turns positive, the midpoint of the flat
    stretch after one where it is exactly zero (unless that one is last),
    and otherwise the last breakpoint.
    """
    breakpoints = ys - u  # where sample i's hinge activates/deactivates
    order = np.argsort(breakpoints, axis=1, kind="stable")
    points = np.take_along_axis(breakpoints, order, axis=1)
    slope = np.cumsum(np.column_stack([-pos_c, np.take_along_axis(sample_c, order, axis=1)]), axis=1)[:, 1:]
    n = points.shape[1]
    rows = np.arange(len(points))
    crossed = slope >= 0.0
    at = np.where(crossed.any(axis=1), crossed.argmax(axis=1), n - 1)
    flat = (slope[rows, at] == 0.0) & (at + 1 < n)
    here = points[rows, at]
    return np.where(flat, 0.5 * (here + points[rows, np.minimum(at + 1, n - 1)]), here)


class SvmProblem(NamedTuple):
    """One training problem for `train_svms`; the fields are `train_svm`'s arguments."""

    X: np.ndarray
    y: Sequence[bool]
    C: float = 1.0
    weights: ClassWeights | None = None
    tol: float = 1e-6
    max_iter: int = 1_000_000


# Problems solved in one batch.  Per-iteration numpy overhead is shared by
# the batch; beyond ~20 problems the gain levels off while the stacked
# matrices keep growing.
_BATCH = 20
# An interior-point step goes at most this fraction of the way to the
# boundary of the box and of the nonnegative multipliers.
_TO_BOUNDARY = 0.99
# A problem's exact duality gap is tested once its complementarity, which
# bounds it, is within this factor of tol.
_SCREEN = 100.0


class _Fit:
    """One validated problem and, once its solve stops, its solution."""

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
        if not all(0.0 < v < np.inf for v in (problem.C, weights.low, weights.high)):
            raise ValidationError(f"C and the class weights must be positive and finite, got {problem.C}, {weights}")
        self.X = X
        self.C = problem.C
        self.weights = weights
        self.tol = problem.tol
        self.max_iter = problem.max_iter
        self.ys = np.where(yb, 1.0, -1.0)
        self.sample_c = problem.C * np.where(yb, weights.high, weights.low)
        self.pos_c = float(self.sample_c[yb].sum())
        # A strictly interior start on y'alpha = 0: each class's box scaled
        # so that both classes sum to half the smaller class total (c/2
        # under `class_weights`, whose class totals are equal).
        neg_c = float(self.sample_c[~yb].sum())
        half = 0.5 * min(self.pos_c, neg_c)
        self.alpha0 = self.sample_c * np.where(yb, half / self.pos_c, half / neg_c)

    def model(self) -> LinearModel:
        if not self.converged and self.n_iter >= self.max_iter:
            raise NumericalError(
                f"SVM solver hit max_iter={self.max_iter} with relative duality gap "
                f"{self.gap / max(1.0, abs(self.primal)):.3e} > {self.tol:.0e}"
            )
        return LinearModel(
            weights=self.w,
            bias=self.bias,
            C=float(self.C),
            weight_low=float(self.weights.low),
            weight_high=float(self.weights.high),
            n_iter=self.n_iter,
            gap=self.gap,
            converged=self.converged,
        )


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise matrix-vector products of a stack: A[r] @ v[r]."""
    return (A @ v[:, :, None])[:, :, 0]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=1)


def _complementarity(V: np.ndarray) -> np.ndarray:
    """alpha'z + s'xi of each row of an iterate stack V = [alpha, s, z, xi]."""
    return (V[:, 0] * V[:, 2] + V[:, 1] * V[:, 3]).sum(axis=1)


def _max_step(V: np.ndarray, dV: np.ndarray) -> np.ndarray:
    """Per row, the longest step t <= 1 that keeps V + t dV positive,
    shortened to `_TO_BOUNDARY` of the distance when a bound binds."""
    return np.minimum(1.0, _TO_BOUNDARY * np.where(dV < 0.0, -V / dV, np.inf).min(axis=(1, 2)))[:, None, None]


# A step that overflows or divides by zero is caught as a stall.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _newton_step(
    X: np.ndarray, Q: np.ndarray | None, ys: np.ndarray, u: np.ndarray, V: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Mehrotra predictor-corrector step per row of the iterate (V, nu),
    and which rows stalled: their complementarity did not fall (a non-finite
    step included), so they keep their point."""
    alpha, s, z, xi = V.swapaxes(0, 1)
    XT = X.transpose(0, 2, 1)
    # Each row's two Newton systems (Q + D) da + y dnu = r, y'da = -y'alpha
    # share one matrix.
    D = z / alpha + xi / s
    eye = np.arange(min(X.shape[1:]))  # the diagonal of G (d x d) or of M (n x n)
    if Q is None:
        # Sherman-Morrison-Woodbury: (D + Z Z')^-1 through the d x d matrix
        # G = I + Z' D^-1 Z with Z = diag(y) X; Q itself is never formed.
        inv_d = 1.0 / D
        G = XT @ (X * inv_d[:, :, None])
        G[:, eye, eye] += 1.0

        def solve(rhs: np.ndarray) -> np.ndarray:
            t = rhs * inv_d[:, :, None]
            return t - (inv_d * ys)[:, :, None] * (X @ np.linalg.solve(G, XT @ (ys[:, :, None] * t)))

    else:
        M = Q.copy()
        M[:, eye, eye] += D

        def solve(rhs: np.ndarray) -> np.ndarray:
            return np.linalg.solve(M, rhs)

    base = 1.0 - ys * u - ys * nu[:, None]  # the dual residual's negation, less z - xi
    aff, toward_y = np.moveaxis(solve(np.stack([base, ys], axis=2)), 2, 0)
    feas = _rowdot(ys, alpha)
    y_toward_y = _rowdot(ys, toward_y)

    def direction(p: np.ndarray, t_z, t_xi) -> tuple[np.ndarray, np.ndarray]:
        """(dV, dnu) from p = (Q + D)^-1 r: the step that also meets
        y'(alpha + da) = 0 and drives alpha*z to t_z and s*xi to t_xi."""
        dnu = (_rowdot(ys, p) + feas) / y_toward_y
        da = p - dnu[:, None] * toward_y
        return np.stack([da, -da, t_z / alpha - z - z / alpha * da, t_xi / s - xi + xi / s * da], axis=1), dnu

    comp = _complementarity(V)
    # Predictor: the pure Newton (affine-scaling) direction, to choose the centring.
    dV, _ = direction(aff, 0.0, 0.0)
    ratio = _complementarity(V + _max_step(V, dV) * dV) / comp
    sigma_mu = (ratio**3 * comp / (2 * alpha.shape[1]))[:, None]
    # Corrector: centre on sigma * mu and cancel the predictor's second-order term.
    t_z = sigma_mu - dV[:, 0] * dV[:, 2]
    t_xi = sigma_mu - dV[:, 1] * dV[:, 3]
    dV, dnu = direction(solve((base + t_z / alpha - t_xi / s)[:, :, None])[:, :, 0], t_z, t_xi)
    t = _max_step(V, dV)
    new_V = V + t * dV
    stalled = ~(_complementarity(new_V) < comp)
    return np.where(stalled[:, None, None], V, new_V), np.where(stalled, nu, nu + t[:, 0, 0] * dnu), stalled


def _solve_batch(fits: list[_Fit]) -> None:
    """The primal-dual interior-point method on problems of one shape (n, d).

    The dual is min (1/2) a'Qa - 1'a subject to y'a = 0 and a + s = c with
    a, s > 0, where Q = Z Z' and Z = diag(y) X; the iterate stacks alpha,
    s and the multipliers z of alpha >= 0 and xi of s >= 0 as V, with nu
    the multiplier of y'a = 0.  Every numpy call of an iteration serves all
    problems still running, and each problem follows exactly the iterates
    it would follow alone.  A problem leaves the batch once the relative
    duality gap of its iterate meets tol, at its max_iter, or when it
    stalls: its step no longer lowers the complementarity, or that is
    already below the rounding of the objective.
    """
    X = np.stack([fit.X for fit in fits])
    n, d = X.shape[1:]
    ys = np.stack([fit.ys for fit in fits])
    sample_c = np.stack([fit.sample_c for fit in fits])
    pos_c = np.array([fit.pos_c for fit in fits])
    tol = np.array([fit.tol for fit in fits])
    max_iter = np.array([fit.max_iter for fit in fits])
    # The Newton systems go through the smaller matrix: d x d when there are
    # fewer features than samples, otherwise n x n with Q.  Either route
    # alone is several times slower on some folds (n x n on 240 x 128, d x d
    # on 48 x 128).
    Q = None if d < n else ys[:, :, None] * (X @ X.transpose(0, 2, 1)) * ys[:, None, :]
    alpha = np.stack([fit.alpha0 for fit in fits])
    grad = ys * _mv(X, _mv(X.transpose(0, 2, 1), alpha * ys)) - 1.0  # the dual gradient Qa - 1
    # Multipliers that zero the dual residual Qa - 1 + y nu - z + xi at nu = 0.
    V = np.stack([alpha, sample_c - alpha, np.maximum(grad, 0.0) + 1.0, np.maximum(-grad, 0.0) + 1.0], axis=1)
    nu = np.zeros(len(fits))
    live = np.arange(len(fits))
    n_iter = np.zeros(len(fits), dtype=int)
    stalled = np.zeros(len(fits), dtype=bool)
    while True:
        alpha = V[:, 0]
        w = _mv(X.transpose(0, 2, 1), alpha * ys)
        u = _mv(X, w)
        ay_u = _rowdot(alpha * ys, u)
        dual = alpha.sum(axis=1) - 0.5 * ay_u
        comp = _complementarity(V)
        stalled |= comp <= np.finfo(float).eps * np.maximum(1.0, np.abs(dual))
        at_end = stalled | (n_iter >= max_iter)
        # The complementarity bounds the duality gap of these feasible
        # iterates, so a row's exact gap counts only once its bound is near
        # tol; it is computed for the whole batch when any row needs it.
        screened = at_end | (comp <= _SCREEN * tol * np.maximum(1.0, np.abs(dual)))
        if screened.any():
            bias = _optimal_bias(u, ys, sample_c, pos_c)
            primal = 0.5 * ay_u + _rowdot(sample_c, np.maximum(0.0, 1.0 - ys * (u + bias[:, None])))
            gap = primal - dual
            converged = screened & (gap <= tol * np.maximum(1.0, np.abs(primal)))
            done = converged | at_end
            for r in np.flatnonzero(done):
                fit = fits[live[r]]
                fit.w, fit.bias, fit.n_iter = w[r].copy(), float(bias[r]), int(n_iter[r])
                fit.gap, fit.primal, fit.converged = float(gap[r]), float(primal[r]), bool(converged[r])
            keep = ~done
            if not keep.any():
                return
            live, X, ys, sample_c, pos_c, tol, max_iter, n_iter, u, V, nu = (
                a[keep] for a in (live, X, ys, sample_c, pos_c, tol, max_iter, n_iter, u, V, nu)
            )
            Q = None if Q is None else Q[keep]
        V, nu, stalled = _newton_step(X, Q, ys, u, V, nu)
        n_iter += ~stalled


def lockstep_batches(sizes: Sequence[Hashable]) -> list[list[int]]:
    """Problem indices grouped by X shape (n, d) in input order, at most
    _BATCH to a group: the batches in which `train_svms` solves them."""
    by_size: dict[Hashable, list[int]] = {}
    for k, n in enumerate(sizes):
        by_size.setdefault(n, []).append(k)
    return [group[at : at + _BATCH] for group in by_size.values() for at in range(0, len(group), _BATCH)]


def train_svms(problems: Sequence[SvmProblem]) -> list[LinearModel]:
    """Train one weighted linear SVM per problem, in batches of one X shape.

    Every model equals, bit for bit, the one the problem gives when solved
    alone.  If any problem hits its max_iter unconverged, the first such
    problem in order raises NumericalError; a problem whose solve stalls
    first returns its model with converged=False.
    """
    fits = [_Fit(p) for p in problems]
    for batch in lockstep_batches([fit.X.shape for fit in fits]):
        _solve_batch([fits[k] for k in batch])
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


def predict_many(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """High iff w.x + b > 0, per row of X; an exact zero score is labeled low."""
    return decision_function(model, X) > 0.0
