"""Turn splitting and utterance segmentation.

Turns are first split wherever the pause between consecutive words exceeds
the threshold (strictly; default 2.0 s).  Each resulting fragment, itself a
Turn, is then segmented into utterances by a trainable two-label sequence model
(INSIDE/BOUNDARY) decoded with Viterbi; an utterance ends at every BOUNDARY
token and at the fragment's final token.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from typing import Iterable, Sequence

from .corpus import Session, Turn
from .errors import ValidationError
from .tagger import ChainCRF, LabeledSequence, Utterance, train_chain_crf

DEFAULT_PAUSE_THRESHOLD = 2.0

INSIDE = "INSIDE"
BOUNDARY = "BOUNDARY"
# INSIDE first: Viterbi ties resolve to the lowest label index.
BOUNDARY_LABELS = (INSIDE, BOUNDARY)

SENTENCE_FINAL = frozenset({".", "?", "!"})

BOUNDARY_FEATURE_TEMPLATE = "current/prev/next lowercased token + position bucket + bias"

BoundaryModel = ChainCRF


def pause_split(turn: Turn, threshold: float = DEFAULT_PAUSE_THRESHOLD) -> list[Turn]:
    """Split a turn between tokens whose gap exceeds threshold (strictly)."""
    if threshold <= 0:
        raise ValidationError(f"pause threshold must be positive, got {threshold}")
    tokens = turn.tokens
    gaps = map(operator.sub, itertools.islice(tokens.start_s, 1, None), tokens.end_s)
    cuts = [i for i, gap in enumerate(gaps, 1) if gap > threshold]
    if not cuts:  # the common case: keep the turn rather than copy its columns
        return [turn]
    bounds = [0, *cuts, len(tokens)]
    return [Turn(turn.speaker, tokens[a:b]) for a, b in zip(bounds, bounds[1:])]


def _position_bucket(i: int) -> str:
    if i <= 2:
        return str(i)
    if i <= 5:
        return "3-5"
    if i <= 10:
        return "6-10"
    if i <= 20:
        return "11-20"
    return "21+"


def boundary_features(words: Sequence[str]) -> list[list[str]]:
    """Window features for each token of a fragment (case stripped)."""
    low = [w.lower() for w in words]
    feats = []
    for i, w in enumerate(low):
        prev = low[i - 1] if i > 0 else "<bos>"
        nxt = low[i + 1] if i + 1 < len(low) else "<eos>"
        feats.append(["bias", "cur=" + w, "prev=" + prev, "next=" + nxt, "pos=" + _position_bucket(i)])
    return feats


def make_boundary_training_data(
    sequences: Iterable[Sequence[str]],
) -> list[tuple[list[str], list[str]]]:
    """Convert punctuated token sequences into (tokens, labels) pairs.

    Sentence-final marks (. ? !) are stripped; the token immediately
    preceding a mark is labeled BOUNDARY, all others INSIDE.  Marks may be
    standalone tokens or attached to a word's tail.
    """
    out: list[tuple[list[str], list[str]]] = []
    saw_input = False
    for seq in sequences:
        saw_input = saw_input or bool(seq)
        tokens: list[str] = []
        labels: list[str] = []
        for raw in seq:
            stripped = raw.rstrip("".join(SENTENCE_FINAL))
            had_mark = stripped != raw
            if not stripped:
                # Standalone punctuation: closes the previous token's sentence.
                if labels:
                    labels[-1] = BOUNDARY
                continue
            tokens.append(stripped)
            labels.append(BOUNDARY if had_mark else INSIDE)
        if tokens:
            out.append((tokens, labels))
    if not saw_input:
        raise ValidationError("no punctuated text to build boundary training data from")
    return out


def train_boundary_model(
    data: Sequence[tuple[Sequence[str], Sequence[str]]],
    *,
    l2: float = 0.1,
    tol: float = 1e-4,
    max_iter: int = 500,
) -> BoundaryModel:
    """Train the INSIDE/BOUNDARY labeler on (tokens, labels) pairs."""
    if not data:
        raise ValidationError("no boundary training sequences")
    seen = {lab for _, labels in data for lab in labels}
    if len(seen) < 2:
        warnings.warn(
            f"boundary training data contains a single label {sorted(seen)}; "
            "the model will predict the majority label everywhere",
            stacklevel=2,
        )
    labeled: list[LabeledSequence] = [
        (boundary_features([str(w) for w in words]), list(labels)) for words, labels in data
    ]
    return train_chain_crf(
        labeled,
        BOUNDARY_LABELS,
        l2=l2,
        scheme="boundary",
        tol=tol,
        max_iter=max_iter,
        feature_template=BOUNDARY_FEATURE_TEMPLATE,
    )


def segment(fragment: Turn, model: BoundaryModel, start_index: int = 0) -> list[Utterance]:
    """Split a pause-free fragment into utterances at Viterbi-decoded BOUNDARY tokens."""
    if model.scheme != "boundary":
        raise ValidationError(f"model tags scheme {model.scheme!r}, expected 'boundary'")
    path = model.decode(boundary_features(fragment.tokens.texts))
    boundary_idx = model.labels.index(BOUNDARY)
    ends = [i + 1 for i, lab in enumerate(path[:-1]) if lab == boundary_idx] + [len(path)]
    return [
        Utterance(tokens=fragment.tokens[a:b], speaker=fragment.speaker, index_in_session=start_index + n)
        for n, (a, b) in enumerate(zip([0, *ends], ends))
    ]


def segment_session(
    session: Session,
    model: BoundaryModel | None,
    threshold: float = DEFAULT_PAUSE_THRESHOLD,
) -> list[Utterance]:
    """Pause-split every turn, then segment each fragment.

    With model=None, segmentation is disabled and each pause-split fragment
    becomes a single utterance.
    """
    utterances: list[Utterance] = []
    for turn in session.turns:
        for fragment in pause_split(turn, threshold):
            if model is None:
                utterances.append(Utterance(fragment.tokens, fragment.speaker, index_in_session=len(utterances)))
            else:
                utterances.extend(segment(fragment, model, start_index=len(utterances)))
    return utterances


def boundary_f1(
    predicted: Sequence[Sequence[str]],
    gold: Sequence[Sequence[str]],
) -> float:
    """F1 of the BOUNDARY class over aligned label sequences."""
    if len(predicted) != len(gold):
        raise ValidationError(f"{len(predicted)} predicted sequences vs {len(gold)} gold")
    tp = fp = fn = 0
    for si, (p_seq, g_seq) in enumerate(zip(predicted, gold)):
        if len(p_seq) != len(g_seq):
            raise ValidationError(f"sequence {si}: length mismatch {len(p_seq)} vs {len(g_seq)}")
        for p, g in zip(p_seq, g_seq):
            if p == BOUNDARY and g == BOUNDARY:
                tp += 1
            elif p == BOUNDARY:
                fp += 1
            elif g == BOUNDARY:
                fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)
