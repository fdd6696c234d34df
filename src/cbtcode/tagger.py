"""Utterance taggers: linear-chain CRFs for dialog acts and MI skill codes,
plus the shared training machinery.

Both taggers score an utterance from lowercased unigrams, bigrams, a length
bucket, and a bias feature.  The DA tagger decodes a whole session's
utterance sequence jointly (therapist and patient interleaved, in order);
the MC tagger is the same model over one-utterance sequences, so it labels
each utterance independently.
"""

from __future__ import annotations

import itertools
import warnings
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .chain import forward_backward, viterbi
from .corpus import DA_TAG_SET, MC_TAG_SET, TAG_SETS, Session, TagSet, Turn  # noqa: F401 (tag sets re-exported)
from .errors import ValidationError
from .optimize import minimize_lbfgs

if TYPE_CHECKING:
    from scipy import sparse

FeatureSeq = Sequence[Sequence[str]]
LabeledSequence = tuple[FeatureSeq, Sequence[str]]

# Training stops once the gradient's L2 norm is at most this.
TOL = 1e-4


def _length_bucket(n: int) -> str:
    if n <= 3:
        return str(n)
    if n <= 5:
        return "4-5"
    if n <= 8:
        return "6-8"
    if n <= 15:
        return "9-15"
    return "16+"


def utterance_features(words: Sequence[str]) -> list[str]:
    """Emission features for one utterance (case stripped)."""
    low = [w.lower() for w in words]
    feats = ["bias", "len=" + _length_bucket(len(low))]
    feats.extend("w=" + w for w in low)
    feats.extend("b=" + a + " " + b for a, b in zip(low, low[1:]))
    return feats


# ---------------------------------------------------------------------------
# Chain CRF


@dataclass(frozen=True)
class ChainCRF:
    """Linear-chain CRF with named emission features and dense transitions."""

    scheme: str
    labels: tuple[str, ...]
    feature_names: tuple[str, ...]
    weights: np.ndarray  # (n_features, n_labels)
    transitions: np.ndarray  # (n_labels, n_labels)
    l2: float
    n_iter: int = 0
    grad_norm: float = 0.0
    converged: bool = True

    @cached_property
    def _feature_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.feature_names)}

    def emission_matrix(self, feats_per_pos: FeatureSeq) -> np.ndarray:
        """(positions, n_labels) emission scores of one sequence."""
        ids, counts, _ = feature_ids([feats_per_pos], self._feature_index)
        return gather_rows(self.weights, ids, counts, np.zeros(len(self.labels)))

    def decode_many(self, sequences: Iterable[FeatureSeq]) -> list[np.ndarray]:
        """The Viterbi path of each sequence, all decoded in one batch.

        The sequences are read once, in order, so a generator streams them.
        """
        ids, counts, lengths = feature_ids(sequences, self._feature_index)
        E = gather_rows(self.weights, ids, counts, np.zeros(len(self.labels)))
        # viterbi takes no empty sequence; an empty one has no rows in E.
        paths = viterbi(E, self.transitions, lengths[lengths > 0]) if len(E) else np.zeros(0, np.intp)
        ends = np.cumsum(lengths).tolist()
        return [paths[end - n : end] for end, n in zip(ends, lengths.tolist())]


def feature_ids(
    sequences: Iterable[FeatureSeq], index: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature ids of sequences of feature rows, as compact flat arrays.

    Returns the id of every feature in order (-1 for a feature missing from
    index), the number of features in each row and the number of rows in
    each sequence.
    """
    ids, counts, lengths = array("i"), array("i"), array("i")  # C ints: 4 bytes each
    get, unknown = index.get, itertools.repeat(-1)
    for rows in sequences:
        lengths.append(len(rows))
        counts.extend(map(len, rows))
        ids.extend(map(get, itertools.chain.from_iterable(rows), unknown))
    return np.frombuffer(ids, np.intc), np.frombuffer(counts, np.intc), np.frombuffer(lengths, np.intc)


def gather_rows(weights: np.ndarray, ids: np.ndarray, counts: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per row: start plus the weight rows of its ids, added one slot at a time
    in feature order and skipping the unknown id -1, so each row is
    bit-identical to a loop of `s += weights[j]` over its known features."""
    out = np.tile(start, (len(counts), 1))
    first = np.cumsum(counts) - counts
    for slot in range(int(counts.max(initial=0))):
        rows = np.flatnonzero(counts > slot)
        j = ids[first[rows] + slot]
        known = j >= 0
        out[rows[known]] += weights[j[known]]
    return out


def _incidence(sequences: Iterable[FeatureSeq], feature_index: Mapping[str, int]) -> sparse.csr_array:
    """Position x feature counts over the rows of every sequence, mapped by
    `feature_ids`; features missing from feature_index are dropped.

    Only training builds one, so scipy is imported here and not at start-up."""
    from scipy import sparse

    ids, counts, _ = feature_ids(sequences, feature_index)
    rows = np.repeat(np.arange(len(counts)), counts)
    known = ids >= 0
    shape = (len(counts), len(feature_index))
    return sparse.csr_array((np.ones(int(known.sum())), (rows[known], ids[known])), shape=shape)


def crf_training_objective(
    data: Sequence[LabeledSequence],
    labels: Sequence[str],
    feature_names: Sequence[str],
    l2: float,
) -> Callable:
    """The exact objective train_chain_crf minimizes.

    Returns theta -> (negative penalized log-likelihood, gradient) over
    theta = [emission weights (row-major), transitions (row-major)].
    Features absent from feature_names are ignored.
    """
    if not data:
        raise ValidationError("no training sequences")
    label_index = {lab: i for i, lab in enumerate(labels)}
    feature_index = {f: i for i, f in enumerate(feature_names)}
    k, n_w, l2 = len(labels), len(feature_names) * len(labels), float(l2)
    lengths = np.array([len(tags) for _, tags in data], dtype=np.intp)
    gold_ids: list[int] = []
    for si, (feats_per_pos, tags) in enumerate(data):
        if len(feats_per_pos) != len(tags):
            raise ValidationError(f"sequence {si}: features and labels differ in length")
        if not tags:
            raise ValidationError(f"sequence {si} is empty")
        for tag in tags:
            if tag not in label_index:
                raise ValidationError(f"sequence {si}: unknown gold tag {tag!r}")
            gold_ids.append(label_index[tag])
    A = _incidence((feats_per_pos for feats_per_pos, _ in data), feature_index)
    At = A.T.tocsr()
    gold = np.array(gold_ids, dtype=np.intp)
    observed_W = At @ (gold[:, None] == np.arange(k))
    has_prev = np.ones(len(gold), dtype=bool)  # every row but a sequence's first
    has_prev[np.cumsum(lengths) - lengths] = False
    observed_T = np.bincount(gold[:-1][has_prev[1:]] * k + gold[has_prev], minlength=k * k).reshape(k, k)

    def fun(theta: np.ndarray) -> tuple[float, np.ndarray]:
        W = theta[:n_w].reshape(-1, k)
        T = theta[n_w:].reshape(k, k)
        E = A @ W
        if not (np.all(np.isfinite(E)) and np.all(np.isfinite(T))):
            return np.inf, np.full_like(theta, np.nan)  # a line-search step too far
        log_z, marginals, pairwise = forward_backward(E, T, lengths)
        loglik = float(np.vdot(observed_W, W) + np.vdot(observed_T, T) - log_z.sum())
        nll = -loglik + 0.5 * l2 * float(np.dot(theta, theta))
        grad = np.concatenate(
            [
                (At @ marginals - observed_W).reshape(-1),
                (pairwise.sum(axis=0) - observed_T).reshape(-1),
            ]
        )
        return nll, grad + l2 * theta

    return fun


def _check_l2(l2: float) -> None:
    if not 0.0 <= l2 < np.inf:  # NaN too
        raise ValidationError(f"l2 must be finite and non-negative, got {l2}")


def train_chain_crf(
    data: Sequence[LabeledSequence],
    tag_set: TagSet,
    *,
    l2: float = 0.1,
    max_iter: int = 500,
) -> ChainCRF:
    """Fit a chain CRF over the tag set's labels by penalized maximum
    likelihood (deterministic); the model's scheme is the tag set's name."""
    _check_l2(l2)
    scheme, labels = tag_set.name, tag_set.labels
    names = sorted({f for feats_per_pos, _ in data for feats in feats_per_pos for f in feats})
    fun = crf_training_objective(data, labels, names, l2)
    theta0 = np.zeros(len(names) * len(labels) + len(labels) ** 2)
    res = minimize_lbfgs(fun, theta0, tol=TOL, max_iter=max_iter)
    if not res.converged:
        warnings.warn(
            f"chain CRF training of the {scheme} model stopped at max_iter={max_iter} with gradient norm "
            f"{res.grad_norm:.3e} > {TOL:.0e}",
            stacklevel=2,
        )
    k = len(labels)
    W = res.x[: len(names) * k].reshape(len(names), k)
    T = res.x[len(names) * k :].reshape(k, k)
    return ChainCRF(
        scheme=scheme,
        labels=labels,
        feature_names=tuple(names),
        weights=W,
        transitions=T,
        l2=float(l2),
        n_iter=res.n_iter,
        grad_norm=res.grad_norm,
        converged=res.converged,
    )


def tag_da_sessions(sessions: Sequence[Sequence[Turn]], model: ChainCRF) -> list[list[Turn]]:
    """Each session's utterances with their dialog acts set by Viterbi, every
    session decoded in one batch."""
    if model.scheme != "da":
        raise ValidationError(f"model tags scheme {model.scheme!r}, expected 'da'")
    paths = model.decode_many([utterance_features(u.tokens.texts) for u in utts] for utts in sessions)
    return [
        [replace(u, da=model.labels[i]) for u, i in zip(utts, path.tolist())]
        for utts, path in zip(sessions, paths)
    ]


def tag_da(utterances: Sequence[Turn], model: ChainCRF) -> list[Turn]:
    """The session's utterances with their dialog acts set by Viterbi."""
    return tag_da_sessions([utterances], model)[0]


# ---------------------------------------------------------------------------
# MC tags: a chain CRF over one-utterance sequences


def train_utterance_classifier(
    data: Sequence[tuple[Sequence[str], str]],
    *,
    l2: float = 0.1,
    max_iter: int = 500,
) -> ChainCRF:
    """Fit the per-utterance tagger: a chain CRF whose sequences are single
    (words, tag) utterances, so it is a multinomial classifier and its
    transitions get no data gradient and stay 0 (deterministic)."""
    if not data:
        raise ValidationError("no training utterances")
    present = {lab for _, lab in data}
    for lab in MC_TAG_SET.labels:
        if lab not in present:
            raise ValidationError(f"class {lab!r} absent from training data")
    sequences = [([utterance_features(words)], [tag]) for words, tag in data]
    return train_chain_crf(sequences, MC_TAG_SET, l2=l2, max_iter=max_iter)


def tag_mc_sessions(sessions: Sequence[Sequence[Turn]], model: ChainCRF) -> list[list[Turn]]:
    """Each session's utterances with their MI skill codes set, each utterance
    decoded as its own sequence (the argmax of its scores), all in one batch."""
    if model.scheme != "mc":
        raise ValidationError(f"model tags scheme {model.scheme!r}, expected 'mc'")
    paths = iter(model.decode_many([utterance_features(u.tokens.texts)] for utts in sessions for u in utts))
    return [[replace(u, mc=model.labels[int(next(paths)[0])]) for u in utts] for utts in sessions]


def tag_mc(utterances: Sequence[Turn], model: ChainCRF) -> list[Turn]:
    """The utterances with their MI skill codes set, each independently."""
    return tag_mc_sessions([utterances], model)[0]


# ---------------------------------------------------------------------------
# Training-data builders from gold-tagged sessions


def da_training_sequences(sessions: Sequence[Session]) -> list[LabeledSequence]:
    out: list[LabeledSequence] = []
    for s in sessions:
        feats = []
        labels = []
        for i, u in enumerate(s.turns):
            if u.da is None:
                raise ValidationError(f"session {s.id}, utterance {i}: no da tag")
            feats.append(utterance_features(u.tokens.texts))
            labels.append(u.da)
        if feats:
            out.append((feats, labels))
    return out


def mc_training_examples(sessions: Sequence[Session]) -> list[tuple[list[str], str]]:
    out: list[tuple[list[str], str]] = []
    for s in sessions:
        for i, u in enumerate(s.turns):
            if u.mc is None:
                raise ValidationError(f"session {s.id}, utterance {i}: no mc tag")
            out.append((list(u.tokens.texts), u.mc))
    return out
