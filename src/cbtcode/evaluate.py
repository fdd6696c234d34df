"""Cross-validation protocol, pooled F1, and the combined 5x2cv F test.

F1 is pooled: confusion counts are summed over folds first and the score is
computed from the totals, which differs from averaging per-fold F1 whenever
fold confusion ratios differ.  Feature selection, scaling, and the SVM are
fitted inside each training fold only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import CODES, CodeScores
from .errors import MissingLabelsError, ValidationError
from .features import (
    FeatureMatrix,
    ScalerStats,
    anova_f_scores,
    apply_scaler,
    fit_scaler,
    top_k_mask,
)
from .svm import LinearModel, SvmProblem, class_weights, lockstep_batches, predict_many, train_svms

# The columns of `label_matrix`: one task per code, then the total score.
LABEL_COLUMNS = (*CODES, "total")
# A code is high at this score or above, the total at this sum of the 11 scores.
HIGH_ANCHOR = 4
TOTAL_THRESHOLD = 40


def check_labels(session_ids: Sequence[str], labels_by_id: Mapping[str, object]) -> None:
    """Every session must have a label; the error gives the count and at most
    the first 5 ids without one."""
    missing = sorted(sid for sid in session_ids if sid not in labels_by_id)
    if missing:
        shown = ", ".join(map(repr, missing[:5])) + (", ..." if len(missing) > 5 else "")
        raise MissingLabelsError(f"missing labels for {len(missing)} of {len(session_ids)} sessions: {shown}")


def label_matrix(session_ids: Sequence[str], scores_by_id: Mapping[str, CodeScores]) -> np.ndarray:
    """The binarized labels of the sessions, one row per id in order and one
    column per LABEL_COLUMNS entry; True means high: a code's score is at
    least HIGH_ANCHOR, or the sum of the 11 scores at least TOTAL_THRESHOLD."""
    check_labels(session_ids, scores_by_id)
    values = np.array([scores_by_id[sid].values for sid in session_ids], dtype=np.int64).reshape(-1, len(CODES))
    return np.column_stack([values >= HIGH_ANCHOR, values.sum(axis=1) >= TOTAL_THRESHOLD])


def _check_both_classes(labels: np.ndarray, codes: Sequence[str]) -> None:
    """Each named column of a `label_matrix` must hold at least 2 sessions of
    each class: stratified folds then put each class in at least 2 folds, so
    every training fold holds both."""
    for code in codes:
        high = int(labels[:, LABEL_COLUMNS.index(code)].sum())
        low = len(labels) - high
        if min(high, low) < 2:
            raise ValidationError(
                f"code {code}: {high} high and {low} low sessions; cross-validation needs at least 2 of each"
            )


class FoldCounts(NamedTuple):
    tp: int
    fp: int
    fn: int
    tn: int


def make_folds(session_ids: Sequence[str], k: int, seed: int, y: np.ndarray) -> np.ndarray:
    """The fold, 0..k-1, of each session row.

    Each label class of y, its rows in sorted-id order, is shuffled and dealt
    round-robin by one running position, class False first, so fold sizes
    and each fold's class counts differ from an even split by at most one.
    """
    ids = list(session_ids)
    if k < 2:
        raise ValidationError(f"need at least 2 folds, got {k}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if k > len(ids):
        raise ValidationError(f"cannot make {k} folds from {len(ids)} sessions")
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate session ids")
    y = np.asarray(y)
    if y.dtype != bool or y.shape != (len(ids),):
        raise ValidationError(f"fold labels must be {len(ids)} booleans, one per session; got {y.dtype} {y.shape}")
    rng = np.random.default_rng(seed)
    rows = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    dealt = np.concatenate([group[rng.permutation(len(group))] for group in (rows[~y[rows]], rows[y[rows]])])
    fold_of = np.empty(len(ids), dtype=np.intp)
    fold_of[dealt] = np.arange(len(ids)) % k
    return fold_of


def pooled_f1(per_fold_counts: Sequence[tuple[int, int, int]]) -> float:
    """F1 from confusion counts summed over folds; all-zero denominators give 0."""
    tp = sum(c[0] for c in per_fold_counts)
    fp = sum(c[1] for c in per_fold_counts)
    fn = sum(c[2] for c in per_fold_counts)
    if min(tp, fp, fn) < 0:
        raise ValidationError("confusion counts must be non-negative")
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


class FoldTask(NamedTuple):
    """One cross-validation fold: fit on the training rows, count on the test rows."""

    X: np.ndarray
    selectable: np.ndarray
    y: np.ndarray
    train_rows: np.ndarray
    test_rows: np.ndarray
    k_features: int


class FoldFit(NamedTuple):
    counts: FoldCounts
    mask: np.ndarray
    scaler: ScalerStats
    model: LinearModel


def fit_folds_and_count(tasks: Sequence[FoldTask], svm_c: float) -> list[FoldFit]:
    """Fit selection, scaler, and SVM on each task's training rows and count
    on its test rows, which may be none.  The SVMs whose training matrices
    share a shape are solved together, in the batches `train_svms` makes, and
    only one batch's scaled training rows are held at a time."""
    masks = [
        top_k_mask(anova_f_scores(t.X[t.train_rows], t.y[t.train_rows]), t.selectable, t.k_features) for t in tasks
    ]
    fits: dict[int, FoldFit] = {}
    for batch in lockstep_batches([(len(t.train_rows), int(mask.sum())) for t, mask in zip(tasks, masks)]):
        problems = []
        scalers = []
        for t, mask in ((tasks[k], masks[k]) for k in batch):
            y_train = t.y[t.train_rows]
            X_train = t.X[np.ix_(t.train_rows, np.flatnonzero(mask))]
            scaler = fit_scaler(X_train)
            X_train = apply_scaler(X_train, scaler)
            problems.append(SvmProblem(X_train, y_train, C=svm_c, weights=class_weights(y_train)))
            scalers.append(scaler)
        for k, scaler, model in zip(batch, scalers, train_svms(problems)):
            t, mask = tasks[k], masks[k]
            pred = predict_many(model, apply_scaler(t.X[np.ix_(t.test_rows, np.flatnonzero(mask))], scaler))
            truth = t.y[t.test_rows]
            counts = FoldCounts(
                tp=int(np.sum(pred & truth)),
                fp=int(np.sum(pred & ~truth)),
                fn=int(np.sum(~pred & truth)),
                tn=int(np.sum(~pred & ~truth)),
            )
            fits[k] = FoldFit(counts, mask, scaler, model)
    return [fits[k] for k in range(len(tasks))]


def fit_fold_and_count(
    X: np.ndarray,
    selectable: np.ndarray,
    y: np.ndarray,
    train_rows: np.ndarray,
    test_rows: np.ndarray,
    k_features: int,
    svm_c: float,
) -> FoldFit:
    """Fit selection, scaler, and SVM on the training rows; count on the test rows."""
    return fit_folds_and_count([FoldTask(X, selectable, y, train_rows, test_rows, k_features)], svm_c)[0]


def _cv_tasks(
    X: np.ndarray, selectable: np.ndarray, y: np.ndarray, fold_of: np.ndarray, k_features: int
) -> list[FoldTask]:
    """One task per fold of `make_folds`: it tests on the fold and trains on
    every other row, both in session order."""
    return [
        FoldTask(X, selectable, y, np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f), k_features)
        for f in range(int(fold_of.max()) + 1)
    ]


def cv_pooled_counts(
    X: np.ndarray,
    selectable: np.ndarray,
    y: np.ndarray,
    fold_of: np.ndarray,
    k_features: int,
    svm_c: float,
) -> list[FoldCounts]:
    """Run one cross-validated task, returning per-fold confusion counts."""
    tasks = _cv_tasks(X, selectable, y, fold_of, k_features)
    return [fit.counts for fit in fit_folds_and_count(tasks, svm_c)]


def select_k_tasks(
    X: np.ndarray,
    session_ids: Sequence[str],
    selectable: np.ndarray,
    y_total: np.ndarray,
    k_grid: Sequence[int],
    folds: int,
    seed: int,
) -> tuple[list[int], list[FoldTask]]:
    """The K grid of `k_candidates` and its fold tasks, grid-major, on one
    split stratified on the total-score labels, one per row."""
    ks = k_candidates(k_grid, selectable)
    if not ks:
        return [], []
    fold_of = make_folds(session_ids, folds, seed, y_total)
    return ks, [t for k in ks for t in _cv_tasks(X, selectable, y_total, fold_of, k)]


def k_candidates(k_grid: Sequence[int], selectable: np.ndarray) -> list[int]:
    """The K grid clipped to the selectable count, ascending; empty when no
    feature is selectable."""
    if not k_grid:
        raise ValidationError("k grid is empty")
    if any(k < 1 for k in k_grid):
        raise ValidationError("k grid entries must be positive")
    n_selectable = int(selectable.sum())
    return sorted({min(k, n_selectable) for k in k_grid}) if n_selectable else []


def best_k(ks: Sequence[int], fits: Sequence[FoldFit]) -> int:
    """The K of `select_k_tasks` with the best pooled F1 over its folds;
    ties prefer the smallest K, and an empty grid gives 0."""
    if not ks:
        return 0
    n_folds = len(fits) // len(ks)
    chosen, best_f1 = 0, -1.0
    for g, k in enumerate(ks):
        counts = [f.counts for f in fits[g * n_folds : (g + 1) * n_folds]]
        f1 = pooled_f1([(c.tp, c.fp, c.fn) for c in counts])
        if f1 > best_f1:
            best_f1 = f1
            chosen = k
    return chosen


@dataclass(frozen=True)
class CodeResult:
    f1_high: float
    f1_low: float
    folds: tuple[FoldCounts, ...]


@dataclass(frozen=True)
class EvalReport:
    """Per-code pooled F1 plus the confusion counts that produced it."""

    feature_set: str
    seed: int
    n_folds: int
    chosen_k: int
    per_code: dict[str, CodeResult]
    avg_f1: float

    def to_payload(self) -> dict:
        return {
            "feature_set": self.feature_set,
            "seed": self.seed,
            "n_folds": self.n_folds,
            "chosen_k": self.chosen_k,
            "avg_f1": self.avg_f1,
            "codes": {
                code: {
                    "f1": r.f1_high,
                    "f1_low": r.f1_low,
                    "folds": [[c.tp, c.fp, c.fn, c.tn] for c in r.folds],
                }
                for code, r in self.per_code.items()
            },
        }

    def format_table(self) -> str:
        rows = [f"{'code':<6} {self.feature_set:>12}"]
        for code in CODES:
            rows.append(f"{code:<6} {self.per_code[code].f1_high:>12.2f}")
        rows.append(f"{'avg':<6} {self.avg_f1:>12.2f}")
        rows.append(f"{'tot':<6} {self.per_code['total'].f1_high:>12.2f}")
        return "\n".join(rows) + "\n"


def run_protocol(
    matrix: FeatureMatrix,
    scores_by_id: Mapping[str, CodeScores],
    n_folds: int,
    seed: int,
    k_grid: Sequence[int],
    svm_c: float = 1.0,
) -> EvalReport:
    """Full evaluation: choose K on the total-score labels, then run every
    code task with per-fold selection, scaling, and SVM training.

    The SVMs of each phase (every K x fold, then every code x fold) are
    solved together.  The total task reuses the selection's fits at the
    chosen K, which used the same folds, labels, and K."""
    ids = matrix.session_ids
    labels = label_matrix(ids, scores_by_id)
    _check_both_classes(labels, LABEL_COLUMNS)
    selectable = np.asarray(matrix.selectable, dtype=bool)

    ks, selection = select_k_tasks(matrix.X, ids, selectable, labels[:, -1], k_grid, n_folds, seed)
    selection_fits = fit_folds_and_count(selection, svm_c)
    chosen_k = best_k(ks, selection_fits)

    tasks: list[FoldTask] = []
    for code, y in zip(LABEL_COLUMNS, labels.T):
        if code != "total" or not ks:
            tasks += _cv_tasks(matrix.X, selectable, y, make_folds(ids, n_folds, seed, y), chosen_k)
    fits = fit_folds_and_count(tasks, svm_c)
    if ks:
        at = ks.index(chosen_k) * n_folds
        fits += selection_fits[at : at + n_folds]

    per_code: dict[str, CodeResult] = {}
    for i, code in enumerate(LABEL_COLUMNS):
        counts = [fit.counts for fit in fits[i * n_folds : (i + 1) * n_folds]]
        f1_high = pooled_f1([(c.tp, c.fp, c.fn) for c in counts])
        f1_low = pooled_f1([(c.tn, c.fn, c.fp) for c in counts])
        per_code[code] = CodeResult(f1_high=f1_high, f1_low=f1_low, folds=tuple(counts))

    avg = float(np.mean([per_code[c].f1_high for c in CODES]))
    return EvalReport(
        feature_set=matrix.set_name,
        seed=int(seed),
        n_folds=int(n_folds),
        chosen_k=int(chosen_k),
        per_code=per_code,
        avg_f1=avg,
    )


# ---------------------------------------------------------------------------
# Combined 5x2cv F test


@dataclass(frozen=True)
class FiveByTwoResult:
    f_statistic: float | None
    p_value: float | None
    significant: bool | None
    degenerate: bool
    verdict: str
    p_matrix: tuple[tuple[float, float], ...]
    degrees: tuple[int, int] = (10, 5)


def _f_10_5_tail(f: float) -> float:
    """P(F > f) for F(10, 5): I_x(5/2, 5) with x = 5 / (5 + 10 f), which for the
    integer shape 5 is x^(5/2) sum_{j<5} Gamma(5/2 + j) / (Gamma(5/2) j!) (1 - x)^j."""
    x = 5.0 / (5.0 + 10.0 * f)
    term = total = 1.0
    for j in range(1, 5):
        term *= (1.5 + j) / j * (1.0 - x)
        total += term
    return x**2.5 * total


def combined_f_statistic(p_matrix: Sequence[Sequence[float]]) -> FiveByTwoResult:
    """The combined F statistic over a 5x2 matrix of error-rate differences.

    f = (sum_ij p_ij^2) / (2 sum_i s_i^2) with s_i^2 the within-replication
    variance; distributed F(10, 5) under the no-difference hypothesis.
    """
    p = np.asarray(p_matrix, dtype=float)
    if p.shape != (5, 2):
        raise ValidationError(f"expected a 5x2 matrix of differences, got shape {p.shape}")
    p_tuple = tuple((float(a), float(b)) for a, b in p)
    if np.all(p == 0.0):
        return FiveByTwoResult(
            f_statistic=None,
            p_value=None,
            significant=None,
            degenerate=False,
            verdict="no difference",
            p_matrix=p_tuple,
        )
    means = p.mean(axis=1, keepdims=True)
    s_sq = ((p - means) ** 2).sum()
    numerator = (p**2).sum()
    if s_sq == 0.0:
        return FiveByTwoResult(
            f_statistic=float("inf"),
            p_value=0.0,
            significant=True,
            degenerate=True,
            verdict="significant (degenerate: zero within-replication variance)",
            p_matrix=p_tuple,
        )
    f = float(numerator / (2.0 * s_sq))
    p_value = _f_10_5_tail(f)
    significant = p_value < 0.05
    return FiveByTwoResult(
        f_statistic=f,
        p_value=p_value,
        significant=significant,
        degenerate=False,
        verdict="significant" if significant else "not significant",
        p_matrix=p_tuple,
    )


def five_by_two_cv_f_test(
    matrix_a: FeatureMatrix,
    matrix_b: FeatureMatrix,
    scores_by_id: Mapping[str, CodeScores],
    *,
    code: str = "total",
    seed: int = 0,
    k_grid: Sequence[int],
    svm_c: float = 1.0,
) -> FiveByTwoResult:
    """5 replications of 2-fold CV comparing two feature pipelines.

    p_ij is the error-rate difference (A minus B) on fold j of replication
    i, the pipelines trained on half j and tested on the other; replication
    i seeds its split with seed + i.  Each pipeline's K is chosen once from
    k_grid by 5-fold CV on the full corpus (total-score labels) and its
    selection is refitted inside every training half.
    """
    if matrix_a.session_ids != matrix_b.session_ids:
        raise ValidationError("the two feature matrices cover different sessions")
    if code not in LABEL_COLUMNS:
        raise ValidationError(f"unknown code {code!r}; expected one of {LABEL_COLUMNS}")
    ids = matrix_a.session_ids
    labels = label_matrix(ids, scores_by_id)
    _check_both_classes(labels, ("total", code))
    y = labels[:, LABEL_COLUMNS.index(code)]

    selectables = [np.asarray(m.selectable, dtype=bool) for m in (matrix_a, matrix_b)]
    grids, selection = [], []
    for matrix, selectable in zip((matrix_a, matrix_b), selectables):
        ks, tasks = select_k_tasks(matrix.X, ids, selectable, labels[:, -1], k_grid, 5, seed)
        grids.append(ks)
        selection.append(tasks)
    selection_fits = fit_folds_and_count(selection[0] + selection[1], svm_c)
    split = len(selection[0])
    chosen = (best_k(grids[0], selection_fits[:split]), best_k(grids[1], selection_fits[split:]))

    tasks = []
    for rep in range(5):
        fold_of = make_folds(ids, 2, seed + rep, y)
        for matrix, selectable, k in zip((matrix_a, matrix_b), selectables, chosen):
            tasks += _cv_tasks(matrix.X, selectable, y, fold_of, k)
    fits = fit_folds_and_count(tasks, svm_c)
    # errs[i, m, j]: replication i, pipeline m, tested on half j (so trained on half 1 - j)
    errs = np.array([(f.counts.fp + f.counts.fn) / len(t.test_rows) for t, f in zip(tasks, fits)]).reshape(5, 2, 2)
    return combined_f_statistic((errs[:, 0] - errs[:, 1])[:, ::-1])
