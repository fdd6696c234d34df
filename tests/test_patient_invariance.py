"""Metamorphic check: features are therapist-side only.

With tags held fixed, and end-to-end under the per-utterance MC tagger,
mutating patient words must leave every feature vector unchanged.  (The DA
tagger decodes the interleaved utterance chain, so patient emissions can
legitimately shift therapist DA tags; that path is exercised elsewhere.)
"""

import numpy as np
import pytest

from cbtcode.corpus import Session, Tokens, Turn
from cbtcode.pipeline import FEATURE_SETS, build_feature_matrix, tag_corpus
from cbtcode.synth import SynthConfig, generate_corpus
from cbtcode.tagger import mc_training_examples, train_utterance_classifier


def mutate_patient_words(sessions):
    """Replace every patient token with a fixed nonsense word."""
    out = []
    for s in sessions:
        utts = []
        for tu in s.turns:
            u = tu
            if u.speaker == "patient":
                tokens = Tokens(["xmutatedx"] * len(u.tokens), u.tokens.start_s, u.tokens.end_s)
                u = Turn(speaker="patient", tokens=tokens)
            utts.append(Turn(u.speaker, u.tokens, da=tu.da, mc=tu.mc))
        out.append(Session(id=s.id, turns=tuple(utts), scores=s.scores))
    return out


@pytest.fixture(scope="module")
def gold_corpus():
    config = SynthConfig(n_sessions=40, utterances_per_session=(8, 14), seed=13)
    return generate_corpus(config)


@pytest.mark.parametrize("feature_set", FEATURE_SETS)
def test_fixed_tags_patient_words_never_affect_features(gold_corpus, feature_set):
    base = build_feature_matrix(list(gold_corpus.tagged), feature_set)
    mutated = build_feature_matrix(mutate_patient_words(gold_corpus.tagged), feature_set)
    assert base.names == mutated.names
    assert np.array_equal(base.X, mutated.X)


def test_mc_pipeline_end_to_end_ignores_patient_words(gold_corpus):
    model = train_utterance_classifier(mc_training_examples(gold_corpus.tagged), l2=0.05)
    stripped = [
        Session(
            id=s.id,
            turns=tuple(Turn(u.speaker, u.tokens) for u in s.turns),
            scores=s.scores,
        )
        for s in gold_corpus.tagged
    ]
    base = build_feature_matrix(tag_corpus(stripped, "mc", model), "mc-tfidf")
    mutated_in = mutate_patient_words(stripped)
    mutated = build_feature_matrix(tag_corpus(mutated_in, "mc", model), "mc-tfidf")
    assert base.names == mutated.names
    assert np.array_equal(base.X, mutated.X)
