"""Batched decoding against the one-at-a-time references in helpers.py.

`chain.viterbi` decodes a batch given as the stacked emission rows of its
sequences plus their lengths, and every model scores its inputs through one
in-order gather of weight rows.  Paths must equal the per-sequence decoder's,
and emissions and scores must equal the per-feature loop's bit for bit.
"""

import numpy as np

import cbtcode.tagger as tagger
from cbtcode.chain import viterbi
from cbtcode.corpus import Session, Tokens, Turn, session_to_record
from cbtcode.pipeline import segment_corpus, tag_corpus
from cbtcode.segmenter import BOUNDARY, BOUNDARY_LABELS, boundary_features, pause_split
from cbtcode.tagger import (
    DA_TAG_SET,
    MC_TAG_SET,
    ChainCRF,
    utterance_features,
)
from helpers import random_session, reference_emissions, reference_viterbi

WORDS = ["so", "what", "yes", "ok", "well", "tell", "me", "more", "unseen", "other"]


def random_chain(rng, names, labels, scheme):
    k = len(labels)
    return ChainCRF(
        scheme=scheme,
        labels=labels,
        feature_names=tuple(names),
        weights=rng.normal(size=(len(names), k)),
        transitions=rng.normal(size=(k, k)),
        l2=0.0,
    )


def random_words(rng, n):
    return [WORDS[int(i)] for i in rng.integers(0, len(WORDS), size=n)]


def make_utterance(words):
    tokens = Tokens(words, [i * 0.5 for i in range(len(words))], [i * 0.5 + 0.3 for i in range(len(words))])
    return Turn(speaker="therapist", tokens=tokens)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedViterbi:
    def test_ragged_batches_match_one_at_a_time(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            T = rng.normal(size=(k, k))
            lengths = rng.integers(1, 12, size=int(rng.integers(1, 9)))
            E = rng.normal(size=(int(lengths.sum()), k)) * 3.0
            paths = viterbi(E, T, lengths)
            assert paths.shape == (lengths.sum(),)
            ends = np.cumsum(lengths)
            for end, n in zip(ends, lengths):
                assert paths[end - n : end].tolist() == reference_viterbi(E[end - n : end], T)


class TestGather:
    def test_chain_emissions_are_bit_identical_with_unknown_and_repeated_features(self):
        rng = np.random.default_rng(13)
        names = sorted({f for w in WORDS[:-2] for f in utterance_features([w, w])})
        model = random_chain(rng, names, DA_TAG_SET.labels, "da")
        for _ in range(30):
            feats = [utterance_features(random_words(rng, int(rng.integers(1, 9)))) for _ in range(6)]
            feats[1] = ["w=so", "nope", "w=so", "bias", "w=so"]  # repeated and unknown features
            feats[2] = ["nope", "never"]  # nothing known
            feats[3] = []
            want = reference_emissions(model.feature_names, model.weights, feats)
            assert same_bits(model.emission_matrix(feats), want)

    def test_classifier_scores_are_bit_identical(self):
        # The MC tagger: a chain CRF over one-utterance sequences, whose path
        # is the argmax of the utterance's scores (ties to the lowest index).
        rng = np.random.default_rng(14)
        names = sorted({f for w in WORDS[:-2] for f in utterance_features([w, w, w])})
        model = random_chain(rng, names, MC_TAG_SET.labels, "mc")
        utterances = [random_words(rng, int(rng.integers(1, 12))) for _ in range(40)] + [["so", "so", "so", "so"]]
        feats = [utterance_features(words) for words in utterances]
        got = model.emission_matrix(feats)
        paths = model.decode_many([row] for row in feats)
        for row, scores, path in zip(feats, got, paths, strict=True):
            want = reference_emissions(names, model.weights, [row])[0]
            assert same_bits(scores, want)
            assert same_bits(model.emission_matrix([row])[0], want)
            assert path.tolist() == [int(np.argmax(want))]
        bare = ChainCRF("mc", MC_TAG_SET.labels, ("w=x",), np.ones((1, 7)), np.zeros((7, 7)), 0.0)
        assert same_bits(bare.emission_matrix([utterance_features(["so"])]), np.zeros((1, 7)))
        assert bare.decode_many([[utterance_features(["so"])]])[0].tolist() == [0]  # all tied: the first label
        assert bare.decode_many([]) == []

    def test_decode_many_matches_per_sequence_decoding(self):
        rng = np.random.default_rng(15)
        names = sorted({f for w in WORDS[:-2] for row in boundary_features([w, w]) for f in row})
        model = random_chain(rng, names, BOUNDARY_LABELS, "boundary")
        fragments = [random_words(rng, int(n)) for n in rng.integers(0, 30, size=25)]
        fragments[3] = []
        paths = model.decode_many(boundary_features(words) for words in fragments)
        assert len(paths) == len(fragments)
        for words, path in zip(fragments, paths):
            feats = boundary_features(words)
            want = reference_viterbi(reference_emissions(names, model.weights, feats), model.transitions) if words else []
            assert path.tolist() == want
        assert model.decode_many([]) == []


def da_model(rng):
    names = sorted({f for w in WORDS[:-2] for f in utterance_features([w, w])})
    return random_chain(rng, names, DA_TAG_SET.labels, "da")


def mc_model(rng):
    names = sorted({f for w in WORDS[:-2] for f in utterance_features([w, w])})
    return random_chain(rng, names, MC_TAG_SET.labels, "mc")


def utterance_sessions(rng):
    sessions = []
    for s, n in enumerate([3, 0, 1, 7, 0, 4]):  # two sessions with no utterances
        utts = tuple(make_utterance(random_words(rng, int(rng.integers(1, 8)))) for _ in range(n))
        sessions.append(Session(id=f"s{s}", turns=utts))
    return sessions


class TestCorpusStages:
    def test_tag_corpus_da_matches_per_session_decoding(self):
        rng = np.random.default_rng(16)
        model = da_model(rng)
        sessions = utterance_sessions(rng)
        tagged = tag_corpus(sessions, "da", model)
        assert [s.id for s in tagged] == [s.id for s in sessions]
        for session, out in zip(sessions, tagged):
            feats = [utterance_features(u.tokens.texts) for u in session.turns]
            want = reference_viterbi(reference_emissions(model.feature_names, model.weights, feats),
                                     model.transitions) if feats else []
            assert [model.labels.index(u.da) for u in out.turns] == want
            assert [u.tokens for u in out.turns] == [u.tokens for u in session.turns]
        assert tag_corpus([], "da", model) == []

    def test_tag_corpus_mc_matches_per_utterance_scores(self):
        rng = np.random.default_rng(17)
        model = mc_model(rng)
        sessions = utterance_sessions(rng)
        for session, out in zip(sessions, tag_corpus(sessions, "mc", model)):
            for u, tagged in zip(session.turns, out.turns, strict=True):
                feats = [utterance_features(u.tokens.texts)]
                want = reference_emissions(model.feature_names, model.weights, feats)[0]
                assert tagged.mc == model.labels[int(np.argmax(want))]
        assert tag_corpus([], "mc", model) == []

    def reference_segmentation(self, sessions, model):
        """Each session's utterance token runs, one fragment decoded at a time."""
        boundary = model.labels.index(BOUNDARY)
        out = []
        for session in sessions:
            runs = []
            for fragment in (f for turn in session.turns for f in pause_split(turn)):
                E = reference_emissions(model.feature_names, model.weights, boundary_features(fragment.tokens.texts))
                path = reference_viterbi(E, model.transitions)
                ends = [i + 1 for i, tag in enumerate(path[:-1]) if tag == boundary] + [len(path)]
                runs += [fragment.tokens[a:b] for a, b in zip([0, *ends], ends)]
            out.append(runs)
        return out

    def boundary_model(self, rng):
        names = sorted({f"{p}={w}" for p in ("cur", "prev", "next") for w in WORDS} | {"bias", "pos=0", "pos=3-5"})
        names = [f"{p}=w{i}" for p in ("cur", "prev", "next") for i in range(50)] + names
        return random_chain(rng, sorted(set(names)), BOUNDARY_LABELS, "boundary")

    def test_segment_corpus_matches_per_fragment_decoding(self):
        rng = np.random.default_rng(18)
        model = self.boundary_model(rng)
        sessions = [random_session(rng, f"s{i}") for i in range(12)]
        sessions.insert(4, Session(id="empty", turns=()))
        segmented = segment_corpus(sessions, model)
        for session, out, runs in zip(sessions, segmented, self.reference_segmentation(sessions, model), strict=True):
            assert out.id == session.id
            assert [u.tokens for u in out.turns] == runs
            assert [u["index"] for u in session_to_record(out, "utterances")["utterances"]] == list(range(len(runs)))
        assert segment_corpus([], model) == []

    def test_segment_corpus_calls_viterbi_once_per_corpus(self, monkeypatch):
        rng = np.random.default_rng(19)
        model = self.boundary_model(rng)
        sessions = [random_session(rng, f"s{i}") for i in range(15)]
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return viterbi(*args, **kwargs)

        monkeypatch.setattr(tagger, "viterbi", counting)
        segmented = segment_corpus(sessions, model)
        n_positions = sum(len(turn.tokens) for s in sessions for turn in s.turns)
        assert calls == [n_positions]
        runs = self.reference_segmentation(sessions, model)
        assert [[u.tokens for u in out.turns] for out in segmented] == runs
