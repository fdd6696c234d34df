"""Turn splitting and utterance segmentation.

Turns are first split wherever the pause between consecutive words exceeds
the threshold (strictly; default 2.0 s).  Each resulting fragment, itself a
Turn, is then segmented into utterances, also Turns, by a trainable
two-label sequence model (INSIDE/BOUNDARY) decoded with Viterbi; an
utterance ends at every BOUNDARY token and at the fragment's final token.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from typing import Iterable, Sequence

import numpy as np

from .corpus import Session, TagSet, Turn
from .errors import ValidationError
from .tagger import ChainCRF, LabeledSequence, train_chain_crf

DEFAULT_PAUSE_THRESHOLD = 2.0

INSIDE = "INSIDE"
BOUNDARY = "BOUNDARY"
# INSIDE first: Viterbi ties resolve to the lowest label index.
BOUNDARY_LABELS = (INSIDE, BOUNDARY)
BOUNDARY_TAG_SET = TagSet("boundary", BOUNDARY_LABELS)

SENTENCE_FINAL = frozenset({".", "?", "!"})

BOUNDARY_FEATURE_TEMPLATE = "current/prev/next lowercased token + position bucket + bias"

BoundaryModel = ChainCRF


def pause_split(turn: Turn, threshold: float = DEFAULT_PAUSE_THRESHOLD) -> list[Turn]:
    """Split a turn between tokens whose gap exceeds threshold (strictly)."""
    if not threshold > 0:  # NaN too
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


_POSITION_FEATURES = tuple("pos=" + _position_bucket(i) for i in range(22))


def boundary_features(words: Sequence[str]) -> list[tuple[str, ...]]:
    """Window features for each token of a fragment (case stripped)."""
    low = [w.lower() for w in words]
    return list(
        zip(
            itertools.repeat("bias"),
            ["cur=" + w for w in low],
            ["prev=<bos>", *("prev=" + w for w in low[:-1])],
            [*("next=" + w for w in low[1:]), "next=<eos>"],
            [_POSITION_FEATURES[min(i, 21)] for i in range(len(low))],
        )
    )


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
    return train_chain_crf(labeled, BOUNDARY_TAG_SET, l2=l2, tol=tol, max_iter=max_iter,
                           feature_template=BOUNDARY_FEATURE_TEMPLATE)


def _utterance_ends(fragments: Sequence[Turn], model: BoundaryModel) -> list[list[int]]:
    """Each fragment's utterance end offsets, all fragments decoded in one batch."""
    if model.scheme != "boundary":
        raise ValidationError(f"model tags scheme {model.scheme!r}, expected 'boundary'")
    boundary = model.labels.index(BOUNDARY)
    paths = model.decode_many(boundary_features(f.tokens.texts) for f in fragments)
    return [[*(np.flatnonzero(path[:-1] == boundary) + 1).tolist(), len(path)] for path in paths]


def _split(fragment: Turn, ends: Sequence[int]) -> list[Turn]:
    return [Turn(fragment.speaker, fragment.tokens[a:b]) for a, b in zip([0, *ends], ends)]


def segment(fragment: Turn, model: BoundaryModel) -> list[Turn]:
    """Split a pause-free fragment into utterances at Viterbi-decoded BOUNDARY tokens."""
    return _split(fragment, _utterance_ends([fragment], model)[0])


def segment_sessions(
    sessions: Sequence[Session],
    model: BoundaryModel | None,
    threshold: float = DEFAULT_PAUSE_THRESHOLD,
) -> list[list[Turn]]:
    """Each session's utterances: pause-split every turn, then segment each
    fragment; the fragments of all sessions are decoded together.

    With model=None, segmentation is disabled and each pause-split fragment
    becomes a single utterance.
    """
    fragments = [[f for turn in s.turns for f in pause_split(turn, threshold)] for s in sessions]
    if model is None:
        return fragments
    ends = iter(_utterance_ends([f for frags in fragments for f in frags], model))
    return [[u for fragment in frags for u in _split(fragment, next(ends))] for frags in fragments]


def segment_session(
    session: Session,
    model: BoundaryModel | None,
    threshold: float = DEFAULT_PAUSE_THRESHOLD,
) -> list[Turn]:
    """segment_sessions of one session."""
    return segment_sessions([session], model, threshold)[0]
