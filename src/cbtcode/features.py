"""Feature extraction and fusion.

Word-level features are tf-idf over unigrams of the therapist's tokens
(idf = ln((1+N)/(1+df)) + 1, raw counts, L2-normalized vectors, inclusive
document-frequency pruning bounds).  Utterance-level features are 14-dim
tag-count blocks (per tag: utterance proportion, then word proportion).
Fusion is either concatenation or word augmentation, where each token is
rewritten as "word|TAG" before tf-idf so the same word in different
utterance contexts becomes distinct vocabulary.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import TagSet, Turn
from .errors import ValidationError
from .util import corpus_fingerprint


@dataclass(frozen=True)
class FeatureSpace:
    """A fitted tf-idf vocabulary: the term names, in column order, and their idf."""

    names: tuple[str, ...]
    idf: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.names)}


# ---------------------------------------------------------------------------
# tf-idf


def fit_tfidf(documents: Sequence[Sequence[str]], max_df: float = 0.95, min_df: float = 0.05) -> FeatureSpace:
    """Fit a unigram tf-idf vocabulary over documents, each a token sequence.

    A term is retained iff min_df <= df/N <= max_df with both bounds
    inclusive; idf(t) = ln((1+N)/(1+df(t))) + 1.
    """
    if not documents:
        raise ValidationError("no documents to fit tf-idf on")
    if not (0.0 <= min_df < max_df <= 1.0):
        raise ValidationError(f"need 0 <= min_df < max_df <= 1, got min_df={min_df}, max_df={max_df}")
    n = len(documents)
    df: Counter[str] = Counter()
    for tokens in documents:
        df.update(set(tokens))
    kept = tuple(t for t in sorted(df) if min_df <= df[t] / n <= max_df)
    if not kept:
        raise ValidationError(
            f"tf-idf vocabulary is empty after document-frequency pruning "
            f"(min_df={min_df}, max_df={max_df}); widen the bounds"
        )
    return FeatureSpace(names=kept, idf=np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in kept]))


def transform_tfidf(tokens: Sequence[str], space: FeatureSpace, index: Mapping[str, int]) -> np.ndarray:
    """Dense tf-idf row of one document: count(t) * idf(t), L2-normalized.

    Out-of-vocabulary terms are ignored, so a document with no vocabulary
    term gives a zero row.  ``index`` is ``space.index()``, built once by
    the caller for all its documents.
    """
    row = np.zeros(space.dim)
    cols, counts = np.unique([j for j in map(index.get, tokens) if j is not None], return_counts=True)
    if len(cols):
        vals = counts * space.idf[cols]
        row[cols] = vals / np.linalg.norm(vals)
    return row


def tfidf_matrix(documents: Sequence[Sequence[str]], space: FeatureSpace) -> np.ndarray:
    """Dense (len(documents), space.dim) tf-idf rows of documents, each a token sequence."""
    index = space.index()
    X = np.zeros((len(documents), space.dim))
    for row, tokens in zip(X, documents):
        row[:] = transform_tfidf(tokens, space, index)
    return X


# ---------------------------------------------------------------------------
# Tag-count blocks and word augmentation


def tag_count_features(
    tagged: Sequence[Turn],
    scheme: TagSet,
    *,
    total_words: int | None = None,
) -> np.ndarray:
    """Utterance- and word-proportion counts per tag (2 x 7 = 14 values).

    The first 7 entries are utterance proportions in tag order, the last 7
    word proportions.  total_words overrides the word denominator (used when
    word proportions are normalized by the whole session rather than the
    therapist side); it must be at least the tagged utterances' word count.
    """
    k = len(scheme.labels)
    out = np.zeros(2 * k)
    if not tagged:
        warnings.warn(f"no utterances to count {scheme.name} tags over; emitting a zero block", stacklevel=2)
        return out
    utt_counts = np.zeros(k)
    word_counts = np.zeros(k)
    n_words = 0
    for u in tagged:
        tag = u.tag(scheme.name)
        if tag is None:
            raise ValidationError(f"utterance without a {scheme.name} tag")
        j = scheme.index(tag)
        w = len(u.tokens)
        utt_counts[j] += 1
        word_counts[j] += w
        n_words += w
    denom_words = n_words if total_words is None else int(total_words)
    if denom_words < n_words:
        raise ValidationError("total_words is smaller than the tagged utterances' word count")
    out[:k] = utt_counts / len(tagged)
    if denom_words > 0:
        out[k:] = word_counts / denom_words
    return out


def augment_tokens(tagged: Sequence[Turn], scheme: TagSet) -> list[str]:
    """Rewrite each token as word|TAG using its utterance's tag, order preserved."""
    out: list[str] = []
    for u in tagged:
        tag = u.tag(scheme.name)
        if tag is None:
            raise ValidationError(f"cannot augment: utterance without a {scheme.name} tag")
        out.extend(f"{text}|{tag}" for text in u.tokens.texts)
    return out


# ---------------------------------------------------------------------------
# Fusion by concatenation


def fuse_concat(word_X: np.ndarray, block_X: np.ndarray) -> np.ndarray:
    """Rows of a concatenated set: word-level columns first, tag block second."""
    if word_X.shape[0] != block_X.shape[0]:
        raise ValidationError(
            f"dimension mismatch: {word_X.shape[0]} word-level rows and {block_X.shape[0]} tag-block rows"
        )
    return np.hstack([word_X, block_X])


# ---------------------------------------------------------------------------
# Univariate F scores, K-best selection, z-normalization


def anova_f_scores(X: np.ndarray, y: Sequence[bool]) -> np.ndarray:
    """One-way ANOVA F statistic of each feature against a binary label.

    Zero within-group variance with distinct means gives +inf (ranked
    first); zero between-group variance gives 0.
    """
    X = np.asarray(X, dtype=float)
    yb = np.asarray(y, dtype=bool)
    if X.shape[0] != len(yb):
        raise ValidationError("X and y disagree in sample count")
    n1 = int(yb.sum())
    n0 = len(yb) - n1
    if n0 == 0 or n1 == 0:
        raise ValidationError("both classes must be present to compute F scores")
    n = len(yb)
    mean0 = X[~yb].mean(axis=0)
    mean1 = X[yb].mean(axis=0)
    grand = X.mean(axis=0)
    ss_between = n0 * (mean0 - grand) ** 2 + n1 * (mean1 - grand) ** 2
    ss_within = ((X[~yb] - mean0) ** 2).sum(axis=0) + ((X[yb] - mean1) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = ss_between / (ss_within / max(n - 2, 1))
    f[ss_within == 0.0] = np.inf
    f[ss_between == 0.0] = 0.0
    return f


def top_k_mask(f_scores: np.ndarray, selectable: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask keeping the k best selectable features plus every
    non-selectable one.  Ties rank the lower feature index first."""
    selectable = np.asarray(selectable, dtype=bool)
    mask = ~selectable  # non-selectable features are always kept
    sel_idx = np.flatnonzero(selectable)
    if k > 0 and len(sel_idx):
        k = min(k, len(sel_idx))
        order = np.lexsort((sel_idx, -f_scores[sel_idx]))
        mask[sel_idx[order[:k]]] = True
    return mask


def select_k_by_cv(
    X: np.ndarray,
    session_ids: Sequence[str],
    selectable: Sequence[bool],
    y_total: Mapping[str, bool],
    k_grid: Sequence[int],
    folds: int,
    seed: int,
    svm_c: float = 1.0,
) -> int:
    """Choose K by cross-validated pooled F1 on the total-score labels.

    For each k in the grid, F scores are recomputed inside every training
    fold.  Ties prefer the smallest k.  Returns 0 when no feature is
    selectable (pure tag-count sets).
    """
    from .evaluate import best_k, check_labels, fit_folds_and_count, k_candidates, select_k_tasks

    selectable = np.asarray(selectable, dtype=bool)
    if not k_candidates(k_grid, selectable):
        return 0
    check_labels(session_ids, y_total)
    y = np.array([y_total[sid] for sid in session_ids], dtype=bool)
    ks, tasks = select_k_tasks(X, session_ids, selectable, y, k_grid, folds, seed)
    return best_k(ks, fit_folds_and_count(tasks, svm_c))


@dataclass(frozen=True)
class ScalerStats:
    """Per-feature mean and standard deviation estimated on training data."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.std.shape:
            raise ValidationError("scaler mean/std shape mismatch")
        if np.any(self.std < 0):
            raise ValidationError("scaler std must be non-negative")


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-session feature rows plus the metadata the protocol needs.

    idf is each column's idf (1.0 for a tag-block column) when the matrix
    was built in process; it is not stored in the matrix file.
    """

    set_name: str
    names: tuple[str, ...]
    selectable: tuple[bool, ...]
    session_ids: tuple[str, ...]
    X: np.ndarray
    idf: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.X.shape != (len(self.session_ids), len(self.names)):
            raise ValidationError(
                f"matrix shape {self.X.shape} disagrees with {len(self.session_ids)} sessions "
                f"x {len(self.names)} features"
            )
        if len(self.selectable) != len(self.names):
            raise ValidationError("selectable flags disagree with feature names")
        if len(set(self.session_ids)) != len(self.session_ids):
            raise ValidationError("duplicate session ids in feature matrix")

    @property
    def fingerprint(self) -> str:
        """The digest of the session ids the features were computed from."""
        return corpus_fingerprint(self.session_ids)


def fit_scaler(X: np.ndarray) -> ScalerStats:
    X = np.asarray(X, dtype=float)
    if X.size == 0 or X.shape[0] == 0:
        raise ValidationError("cannot fit a scaler on an empty matrix")
    return ScalerStats(mean=X.mean(axis=0), std=X.std(axis=0))


def apply_scaler(X: np.ndarray, stats: ScalerStats) -> np.ndarray:
    """(x - mean) / std per feature; zero-variance features map to 0."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != stats.mean.shape[0]:
        raise ValidationError(
            f"dimension mismatch: data has {X.shape[-1]} features, scaler has {stats.mean.shape[0]}"
        )
    safe = np.where(stats.std == 0.0, 1.0, stats.std)
    out = (X - stats.mean) / safe
    return np.where(stats.std == 0.0, 0.0, out)
