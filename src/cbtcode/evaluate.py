"""Cross-validation protocol, pooled F1, and the combined 5x2cv F test.

F1 is pooled: confusion counts are summed over folds first and the score is
computed from the totals, which differs from averaging per-fold F1 whenever
fold confusion ratios differ.  Feature selection, scaling, and the SVM are
fitted inside each training fold only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import fdtrc  # the F upper tail behind scipy.stats.f.sf, without scipy.stats' ~1 s import

from .corpus import CODES, CodeScores, binarize_scores
from .errors import ValidationError
from .features import (
    FeatureMatrix,
    anova_f_scores,
    apply_scaler,
    fit_scaler,
    select_k_by_cv,
    top_k_mask,
)
from .svm import class_weights, predict_many, train_svm


@dataclass(frozen=True)
class FoldPlan:
    """A deterministic partition of session ids into k folds."""

    k: int
    folds: tuple[tuple[str, ...], ...]
    seed: int
    stratified: bool


class FoldCounts(NamedTuple):
    tp: int
    fp: int
    fn: int
    tn: int


def make_folds(
    session_ids: Sequence[str],
    k: int,
    seed: int,
    stratify_on: Mapping[str, bool] | None = None,
) -> FoldPlan:
    """Shuffled partition into k folds whose sizes differ by at most one.

    When stratify_on is given, each label class is dealt across folds so
    per-fold class counts differ from an even split by at most one.
    """
    ids = list(session_ids)
    if k < 2:
        raise ValidationError(f"need at least 2 folds, got {k}")
    if k > len(ids):
        raise ValidationError(f"cannot make {k} folds from {len(ids)} sessions")
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate session ids")
    rng = np.random.default_rng(seed)
    folds: list[list[str]] = [[] for _ in range(k)]
    position = 0
    if stratify_on is None:
        groups = [sorted(ids)]
    else:
        missing = sorted(set(ids) - set(stratify_on))
        if missing:
            raise ValidationError(f"missing stratification labels for sessions: {missing}")
        groups = [
            sorted(i for i in ids if not stratify_on[i]),
            sorted(i for i in ids if stratify_on[i]),
        ]
    for group in groups:
        order = rng.permutation(len(group))
        for gi in order:
            folds[position % k].append(group[gi])
            position += 1
    return FoldPlan(
        k=k,
        folds=tuple(tuple(f) for f in folds),
        seed=int(seed),
        stratified=stratify_on is not None,
    )


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


FoldSpy = Callable[..., None]


def fit_fold_and_count(
    X: np.ndarray,
    selectable: np.ndarray,
    y: np.ndarray,
    train_rows: np.ndarray,
    test_rows: np.ndarray,
    k_features: int,
    svm_c: float,
) -> tuple[FoldCounts, np.ndarray, object]:
    """Fit selection, scaler, and SVM on the training rows; count on the test rows."""
    f_scores = anova_f_scores(X[train_rows], y[train_rows])
    mask = top_k_mask(f_scores, selectable, k_features)
    scaler = fit_scaler(X[np.ix_(train_rows, np.flatnonzero(mask))])
    X_train = apply_scaler(X[np.ix_(train_rows, np.flatnonzero(mask))], scaler)
    X_test = apply_scaler(X[np.ix_(test_rows, np.flatnonzero(mask))], scaler)
    model = train_svm(X_train, y[train_rows], C=svm_c, weights=class_weights(y[train_rows]))
    pred = predict_many(model, X_test)
    truth = y[test_rows]
    counts = FoldCounts(
        tp=int(np.sum(pred & truth)),
        fp=int(np.sum(pred & ~truth)),
        fn=int(np.sum(~pred & truth)),
        tn=int(np.sum(~pred & ~truth)),
    )
    return counts, mask, scaler


def cv_pooled_counts(
    X: np.ndarray,
    session_ids: Sequence[str],
    selectable: np.ndarray,
    y: np.ndarray,
    plan: FoldPlan,
    k_features: int,
    svm_c: float,
    spy: FoldSpy | None = None,
    code: str = "total",
) -> list[FoldCounts]:
    """Run one cross-validated task, returning per-fold confusion counts."""
    row_of = {sid: i for i, sid in enumerate(session_ids)}
    out: list[FoldCounts] = []
    for fi, fold in enumerate(plan.folds):
        test_ids = set(fold)
        train_ids = [sid for sid in session_ids if sid not in test_ids]
        train_rows = np.array([row_of[sid] for sid in train_ids], dtype=np.intp)
        test_rows = np.array([row_of[sid] for sid in fold], dtype=np.intp)
        counts, mask, scaler = fit_fold_and_count(
            X, selectable, y, train_rows, test_rows, k_features, svm_c
        )
        if spy is not None:
            spy(code=code, fold=fi, train_ids=tuple(train_ids), test_ids=tuple(fold), mask=mask, scaler=scaler)
        out.append(counts)
    return out


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

    @classmethod
    def from_payload(cls, payload: dict) -> "EvalReport":
        per_code = {
            code: CodeResult(
                f1_high=entry["f1"],
                f1_low=entry["f1_low"],
                folds=tuple(FoldCounts(*c) for c in entry["folds"]),
            )
            for code, entry in payload["codes"].items()
        }
        return cls(
            feature_set=payload["feature_set"],
            seed=payload["seed"],
            n_folds=payload["n_folds"],
            chosen_k=payload["chosen_k"],
            per_code=per_code,
            avg_f1=payload["avg_f1"],
        )

    def format_table(self) -> str:
        rows = [f"{'code':<6} {self.feature_set:>12}"]
        for code in CODES:
            rows.append(f"{code:<6} {self.per_code[code].f1_high:>12.2f}")
        rows.append(f"{'avg':<6} {self.avg_f1:>12.2f}")
        rows.append(f"{'tot':<6} {self.per_code['total'].f1_high:>12.2f}")
        return "\n".join(rows) + "\n"


def _labels_by_code(
    session_ids: Sequence[str], scores_by_id: Mapping[str, CodeScores]
) -> dict[str, dict[str, bool]]:
    missing = sorted(sid for sid in session_ids if sid not in scores_by_id)
    if missing:
        raise ValidationError(f"missing labels for sessions: {missing}")
    out: dict[str, dict[str, bool]] = {code: {} for code in CODES}
    out["total"] = {}
    for sid in session_ids:
        labels = binarize_scores(scores_by_id[sid])
        for code in CODES:
            out[code][sid] = labels[code]
        out["total"][sid] = labels.total
    return out


def run_protocol(
    matrix: FeatureMatrix,
    scores_by_id: Mapping[str, CodeScores],
    n_folds: int,
    seed: int,
    k_grid: Sequence[int],
    svm_c: float = 1.0,
    spy: FoldSpy | None = None,
) -> EvalReport:
    """Full evaluation: choose K on the total-score labels, then run every
    code task with per-fold selection, scaling, and SVM training."""
    ids = matrix.session_ids
    labels = _labels_by_code(ids, scores_by_id)
    selectable = np.asarray(matrix.selectable, dtype=bool)

    chosen_k = select_k_by_cv(
        matrix.X, ids, selectable, labels["total"], k_grid, n_folds, seed, svm_c
    )

    per_code: dict[str, CodeResult] = {}
    for code in list(CODES) + ["total"]:
        y = np.array([labels[code][sid] for sid in ids], dtype=bool)
        if y.all() or not y.any():
            raise ValidationError(f"code {code}: all sessions share one label; nothing to evaluate")
        plan = make_folds(ids, n_folds, seed, labels[code])
        counts = cv_pooled_counts(
            matrix.X, ids, selectable, y, plan, chosen_k, svm_c, spy=spy, code=code
        )
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
    p_value = float(fdtrc(10, 5, f))
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
    k_grid: Sequence[int] = (),
    selection_folds: int = 5,
    svm_c: float = 1.0,
) -> FiveByTwoResult:
    """5 replications of 2-fold CV comparing two feature pipelines.

    p_ij is the error-rate difference (A minus B) on fold j of replication
    i; replication i seeds its split with seed + i.  Each pipeline's K is
    chosen once on the full corpus (total-score labels) and its selection is
    refitted inside every training half.
    """
    if matrix_a.session_ids != matrix_b.session_ids:
        raise ValidationError("the two feature matrices cover different sessions")
    ids = matrix_a.session_ids
    labels = _labels_by_code(ids, scores_by_id)
    y = np.array([labels[code][sid] for sid in ids], dtype=bool)
    row_of = {sid: i for i, sid in enumerate(ids)}

    ks = []
    for matrix in (matrix_a, matrix_b):
        selectable = np.asarray(matrix.selectable, dtype=bool)
        grid = k_grid if k_grid else (min(64, matrix.X.shape[1]),)
        k = select_k_by_cv(
            matrix.X, ids, selectable, labels["total"], grid, selection_folds, seed, svm_c
        )
        ks.append(k)

    p = np.zeros((5, 2))
    for rep in range(5):
        plan = make_folds(ids, 2, seed + rep, labels[code])
        halves = [
            np.array([row_of[sid] for sid in fold], dtype=np.intp) for fold in plan.folds
        ]
        for j, (train_rows, test_rows) in enumerate(((halves[0], halves[1]), (halves[1], halves[0]))):
            errs = []
            for matrix, k in zip((matrix_a, matrix_b), ks):
                selectable = np.asarray(matrix.selectable, dtype=bool)
                counts, _, _ = fit_fold_and_count(
                    matrix.X, selectable, y, train_rows, test_rows, k, svm_c
                )
                n_test = len(test_rows)
                errs.append((counts.fp + counts.fn) / n_test)
            p[rep, j] = errs[0] - errs[1]
    return combined_f_statistic(p)
