"""Pipeline configuration and the segment, tag and featurize stages.

The seven feature sets: tfidf (therapist unigrams), da / mc (14-dim
tag-count blocks), tfidf+da / tfidf+mc (concatenation), and da-tfidf /
mc-tfidf (tf-idf over word|TAG augmented tokens).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import TAG_SETS, THERAPIST, Session
from .errors import ValidationError
from .features import (
    FeatureMatrix,
    augment_tokens,
    concat_spaces,
    fit_tfidf,
    fuse_concat,
    tag_block_space,
    tag_count_features,
    tfidf_matrix,
)
from .segmenter import DEFAULT_PAUSE_THRESHOLD, BoundaryModel, segment_sessions
from .tagger import ChainCRF, tag_da_sessions, tag_mc_sessions
from .util import corpus_fingerprint, read_config

FEATURE_SETS = ("tfidf", "da", "mc", "tfidf+da", "tfidf+mc", "da-tfidf", "mc-tfidf")

_SET_SCHEME = {
    "tfidf": None,
    "da": "da",
    "mc": "mc",
    "tfidf+da": "da",
    "tfidf+mc": "mc",
    "da-tfidf": "da",
    "mc-tfidf": "mc",
}

DEFAULT_K_GRID = (16, 32, 64, 128)


@dataclass(frozen=True)
class PipelineConfig:
    pause_threshold: float = DEFAULT_PAUSE_THRESHOLD
    segmentation: bool = True
    max_df: float = 0.95
    min_df: float = 0.05
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    svm_c: float = 1.0
    folds: int = 5
    seed: int = 0
    word_denominator: str = "therapist"

    def __post_init__(self) -> None:
        if not self.pause_threshold > 0:  # NaN too
            raise ValidationError("pause_threshold must be positive")
        if self.folds < 2:
            raise ValidationError("folds must be at least 2")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if not self.k_grid or any((not isinstance(k, int)) or k < 1 for k in self.k_grid):
            raise ValidationError("k_grid must be a non-empty list of positive integers")
        if self.word_denominator not in ("therapist", "session"):
            raise ValidationError("word_denominator must be 'therapist' or 'session'")
        if not 0 <= self.min_df < self.max_df <= 1:  # NaN too
            raise ValidationError(f"need 0 <= min_df < max_df <= 1, got min_df={self.min_df}, max_df={self.max_df}")
        if not 0 < self.svm_c < math.inf:  # NaN too
            raise ValidationError(f"C and the class weights must be positive and finite, got svm_c={self.svm_c}")

    def to_payload(self) -> dict:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PipelineConfig":
        kwargs = dict(payload)
        if "k_grid" in kwargs:
            kwargs["k_grid"] = tuple(int(k) for k in kwargs["k_grid"])
        unknown = set(kwargs) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown pipeline config fields: {sorted(unknown)}")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return read_config(cls, path, "pipeline config")


def required_scheme(feature_set: str) -> str | None:
    if feature_set not in _SET_SCHEME:
        raise ValidationError(f"unknown feature set {feature_set!r}")
    return _SET_SCHEME[feature_set]


def segment_corpus(
    sessions: Sequence[Session],
    model: BoundaryModel | None,
    threshold: float = DEFAULT_PAUSE_THRESHOLD,
) -> list[Session]:
    """Segment every session into (untagged) utterances, which become its turns."""
    segmented = segment_sessions(sessions, model, threshold)
    return [Session(s.id, tuple(u), s.scores) for s, u in zip(sessions, segmented)]


def tag_corpus(
    sessions: Sequence[Session],
    scheme: str,
    model: ChainCRF,
) -> list[Session]:
    """Tag every session's utterances with one scheme, keeping other tags."""
    if scheme not in TAG_SETS:
        raise ValidationError(f"unknown tag scheme {scheme!r}")
    tag = tag_da_sessions if scheme == "da" else tag_mc_sessions
    tagged = tag([s.turns for s in sessions], model)
    return [Session(s.id, tuple(u), s.scores) for s, u in zip(sessions, tagged)]


def build_feature_matrix(
    sessions: Sequence[Session],
    feature_set: str,
    max_df: float = PipelineConfig.max_df,
    min_df: float = PipelineConfig.min_df,
    word_denominator: str = PipelineConfig.word_denominator,
) -> FeatureMatrix:
    """Featurize a tagged corpus into one of the seven feature sets.

    Word-level sets are tf-idf over therapist tokens, or over word|TAG
    tokens for da-tfidf / mc-tfidf; tfidf+da / tfidf+mc append the tag
    block; da / mc are the tag block alone.
    """
    scheme_name = required_scheme(feature_set)
    if not sessions:
        raise ValidationError("no sessions to featurize")
    ids = tuple(s.id for s in sessions)
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate session ids in corpus")
    if scheme_name:  # the therapist utterances carry the tags a tag-based set reads
        for s in sessions:
            for i, u in enumerate(s.turns):
                if u.speaker == THERAPIST and u.tag(scheme_name) is None:
                    raise ValidationError(f"session {s.id}, utterance {i}: no {scheme_name} tag")
    fingerprint = corpus_fingerprint(ids)
    therapist = [s.therapist_turns() for s in sessions]
    scheme = TAG_SETS[scheme_name] if scheme_name else None
    augmented = feature_set in ("da-tfidf", "mc-tfidf")

    space = X = None
    if feature_set not in ("da", "mc"):
        if augmented:
            docs = [(s.id, augment_tokens(utts, scheme)) for s, utts in zip(sessions, therapist)]
        else:
            docs = [(s.id, [w for u in utts for w in u.tokens.texts]) for s, utts in zip(sessions, therapist)]
        space = fit_tfidf(docs, max_df, min_df, provenance="augmented_tfidf" if augmented else "tfidf")
        X = tfidf_matrix(docs, space)
    if scheme is not None and not augmented:
        tag_space = tag_block_space(scheme, fingerprint, len(sessions))
        rows = [
            tag_count_features(
                utts,
                scheme,
                total_words=sum(len(u.tokens) for u in s.turns)
                if word_denominator == "session"
                else None,
            )
            for s, utts in zip(sessions, therapist)
        ]
        block = np.array(rows).reshape(len(sessions), tag_space.dim)
        if space is None:
            space, X = tag_space, block
        else:
            space = concat_spaces(space, tag_space)
            X = fuse_concat(X, block, space)

    return FeatureMatrix(
        set_name=feature_set,
        names=space.names,
        selectable=space.selectable,
        provenance=space.provenance,
        fingerprint=fingerprint,
        session_ids=ids,
        X=X,
        space=space,
    )
