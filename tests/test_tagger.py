from dataclasses import replace

import numpy as np
import pytest

import cbtcode.tagger
from cbtcode.corpus import Tokens, Turn
from cbtcode.errors import ValidationError
from cbtcode.tagger import (
    DA_TAG_SET,
    MC_TAG_SET,
    ChainCRF,
    crf_training_objective,
    tag_da,
    tag_mc,
    tag_mc_sessions,
    train_chain_crf,
    train_utterance_classifier,
    utterance_features,
)
from helpers import enumerate_chain


def make_utterance(words, speaker="therapist"):
    tokens = Tokens(words, [i * 0.5 for i in range(len(words))], [i * 0.5 + 0.3 for i in range(len(words))])
    return Turn(speaker=speaker, tokens=tokens)


class TestTagSets:
    def test_da_has_seven_labels(self):
        assert len(DA_TAG_SET.labels) == 7
        assert DA_TAG_SET.labels[0] == "Question"

    def test_mc_has_seven_labels_with_merged_reflection(self):
        assert len(MC_TAG_SET.labels) == 7
        assert "RE" in MC_TAG_SET.labels
        assert "RES" not in MC_TAG_SET.labels
        assert "REC" not in MC_TAG_SET.labels

    def test_labels_unique(self):
        assert len(set(DA_TAG_SET.labels)) == 7
        assert len(set(MC_TAG_SET.labels)) == 7

    def test_tagged_utterance_validates_tags(self):
        u = make_utterance(["hi"])
        with pytest.raises(ValidationError):
            replace(u, da="NotATag")
        with pytest.raises(ValidationError):
            replace(u, mc="Question")  # da label under mc scheme


def da_toy_model(rng):
    """Small DA-chain model over utterance features with random weights."""
    vocab = ["hello", "what", "yes", "ok", "well"]
    corpus_feats = sorted(
        {f for words in ([w] for w in vocab) for f in utterance_features(words)}
        | {f for f in utterance_features(["what", "hello"])}
    )
    k = len(DA_TAG_SET.labels)
    return ChainCRF(
        scheme="da",
        labels=DA_TAG_SET.labels,
        feature_names=tuple(corpus_feats),
        weights=rng.normal(size=(len(corpus_feats), k)),
        transitions=rng.normal(size=(k, k)),
        l2=0.0,
    )


class TestTagDa:
    def test_empty_session(self):
        rng = np.random.default_rng(0)
        assert tag_da([], da_toy_model(rng)) == []

    def test_single_utterance_takes_argmax_emission(self):
        rng = np.random.default_rng(1)
        model = da_toy_model(rng)
        utt = make_utterance(["hello"])
        feats = [utterance_features(["hello"])]
        expected = model.labels[int(np.argmax(model.emission_matrix(feats)[0]))]
        assert tag_da([utt], model)[0].da == expected

    def test_output_length_matches_input(self):
        rng = np.random.default_rng(2)
        model = da_toy_model(rng)
        for n in (1, 3, 6, 9):
            utts = [make_utterance([str(rng.choice(["hello", "yes", "ok"]))]) for i in range(n)]
            assert len(tag_da(utts, model)) == n

    def test_matches_bruteforce_decoding(self):
        rng = np.random.default_rng(3)
        model = da_toy_model(rng)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            utts = [
                make_utterance(
                    [str(rng.choice(["hello", "what", "yes", "ok", "well"]))]
                )
                for i in range(n)
            ]
            feats = [utterance_features(u.tokens.texts) for u in utts]
            E = model.emission_matrix(feats)
            _, _, _, _, best_path = enumerate_chain(E, model.transitions)
            got = [model.labels.index(tu.da) for tu in tag_da(utts, model)]
            assert got == best_path

    def test_scheme_checked(self):
        rng = np.random.default_rng(4)
        model = da_toy_model(rng)
        object.__setattr__(model, "scheme", "mc")
        with pytest.raises(ValidationError):
            tag_da([make_utterance(["hello"])], model)


def planted_mc_corpus(rng, n):
    """'sounds like' marks RE; 'did you' marks QUC; other tags get their own markers."""
    markers = {
        "FA": ["okay", "fine"],
        "GI": ["let", "me", "explain"],
        "RE": ["sounds", "like"],
        "QUC": ["did", "you"],
        "QUO": ["tell", "me", "more"],
        "MIA": ["your", "choice"],
        "MIN": ["you", "must"],
    }
    data = []
    for _ in range(n):
        tag = MC_TAG_SET.labels[int(rng.integers(0, 7))]
        words = markers[tag] + [f"f{int(rng.integers(0, 40))}" for _ in range(int(rng.integers(2, 7)))]
        data.append((words, tag))
    return data


def predict_mc(model, words):
    return model.labels[model.decode_many([[utterance_features(words)]])[0][0]]


class TestUtteranceClassifier:
    """The MC tagger: a chain CRF trained and decoded on one-utterance sequences."""

    def test_planted_patterns_recovered(self):
        rng = np.random.default_rng(5)
        train = planted_mc_corpus(rng, 400)
        held = planted_mc_corpus(rng, 150)
        model = train_utterance_classifier(train, l2=0.01)
        assert isinstance(model, ChainCRF) and model.scheme == "mc"
        hits = sum(predict_mc(model, words) == tag for words, tag in held)
        assert hits / len(held) >= 0.95

    def test_zero_weights_predict_first_label(self):
        model = ChainCRF(
            scheme="mc",
            labels=MC_TAG_SET.labels,
            feature_names=("bias",),
            weights=np.zeros((1, 7)),
            transitions=np.zeros((7, 7)),
            l2=0.0,
        )
        utts = [make_utterance(["anything", "at", "all"]) for i in range(4)]
        assert all(tu.mc == "FA" for tu in tag_mc(utts, model))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        labels = ("P", "Q", "R")
        examples = []
        for _ in range(12):
            words = [str(rng.choice(["a", "b", "c", "d"])) for _ in range(int(rng.integers(1, 5)))]
            examples.append(([utterance_features(words)], [labels[int(rng.integers(0, 3))]]))
        names = sorted({f for fs, _ in examples for f in fs[0]})
        fun = crf_training_objective(examples, labels, names, l2=0.4)
        theta = rng.normal(size=len(names) * 3 + 9) * 0.3
        _, grad = fun(theta)
        h = 1e-5
        for i in range(len(theta)):
            e = np.zeros_like(theta)
            e[i] = h
            fd = (fun(theta + e)[0] - fun(theta - e)[0]) / (2 * h)
            denom = max(1.0, abs(fd), abs(grad[i]))
            assert abs(grad[i] - fd) / denom < 1e-5

    def test_absent_class_named_in_error(self):
        rng = np.random.default_rng(7)
        train = [(w, t) for w, t in planted_mc_corpus(rng, 200) if t != "MIN"]
        with pytest.raises(ValidationError, match="MIN"):
            train_utterance_classifier(train)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        train = planted_mc_corpus(rng, 120)
        m1 = train_utterance_classifier(train, l2=0.1)
        m2 = train_utterance_classifier(train, l2=0.1)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.transitions, m2.transitions)

    def test_l2_is_checked_once_per_call(self, monkeypatch):
        calls = []
        check = cbtcode.tagger._check_l2
        monkeypatch.setattr(cbtcode.tagger, "_check_l2", lambda l2: (calls.append(l2), check(l2))[1])
        train_utterance_classifier(planted_mc_corpus(np.random.default_rng(12), 120), l2=0.1)
        assert calls == [0.1]

    @pytest.mark.parametrize("l2", [float("nan"), float("inf"), -1.0])
    def test_nonfinite_or_negative_l2_is_a_validation_error(self, l2):
        with pytest.raises(ValidationError, match="l2 must be finite and non-negative"):
            train_utterance_classifier(planted_mc_corpus(np.random.default_rng(12), 120), l2=l2)

    def test_transitions_stay_zero(self):
        # One-position sequences give the transitions no data gradient, so
        # from zero under L2 they stay exactly 0.
        rng = np.random.default_rng(11)
        for l2 in (0.0, 0.05, 1.0):
            model = train_utterance_classifier(planted_mc_corpus(rng, 150), l2=l2)
            assert model.transitions.shape == (7, 7) and not model.transitions.any()

    def test_mc_tagging_is_per_utterance(self):
        # reordering utterances reorders tags identically (no chain coupling)
        rng = np.random.default_rng(9)
        model = train_utterance_classifier(planted_mc_corpus(rng, 200), l2=0.05)
        utts = [
            make_utterance(["sounds", "like", "rain"]),
            make_utterance(["did", "you", "sleep"]),
            make_utterance(["you", "must", "go"]),
        ]
        tags = [tu.mc for tu in tag_mc(utts, model)]
        tags_rev = [tu.mc for tu in tag_mc(utts[::-1], model)]
        assert tags == tags_rev[::-1]

    def test_tags_do_not_depend_on_utterance_order(self):
        # Even under nonzero transitions: each utterance is its own sequence.
        rng = np.random.default_rng(12)
        model = train_utterance_classifier(planted_mc_corpus(rng, 200), l2=0.05)
        model = replace(model, transitions=rng.normal(size=(7, 7)) * 5.0)
        sessions = [[make_utterance(words) for words, _ in planted_mc_corpus(rng, n)] for n in (1, 9, 0, 14)]
        tagged = tag_mc_sessions(sessions, model)
        reversed_tagged = tag_mc_sessions([utts[::-1] for utts in sessions], model)
        for tags, rev in zip(tagged, reversed_tagged, strict=True):
            assert [u.mc for u in tags] == [u.mc for u in rev][::-1]
            assert [u.mc for u in tags] == [predict_mc(model, u.tokens.texts) for u in tags]

    def test_scheme_checked(self):
        rng = np.random.default_rng(10)
        model = train_utterance_classifier(planted_mc_corpus(rng, 120))
        object.__setattr__(model, "scheme", "da")
        with pytest.raises(ValidationError):
            tag_mc([make_utterance(["hi"])], model)


class TestMaxIterWarning:
    @pytest.mark.parametrize("scheme", ["mc", "da"])
    def test_warning_names_the_model(self, scheme):
        rng = np.random.default_rng(13)
        data = planted_mc_corpus(rng, 60)
        with pytest.warns(UserWarning, match=f"chain CRF training of the {scheme} model stopped at max_iter=1"):
            if scheme == "mc":
                train_utterance_classifier(data, max_iter=1)
            else:
                feats = [utterance_features(words) for words, _ in data]
                train_chain_crf([(feats, [DA_TAG_SET.labels[i % 7] for i in range(60)])], DA_TAG_SET, max_iter=1)
