import numpy as np
import pytest

from cbtcode.corpus import Session, Tokens, Turn, session_to_record
from cbtcode.errors import ValidationError
from cbtcode.segmenter import (
    BOUNDARY,
    BOUNDARY_LABELS,
    INSIDE,
    boundary_features,
    make_boundary_training_data,
    pause_split,
    segment,
    segment_session,
    train_boundary_model,
)
from cbtcode.tagger import ChainCRF
from helpers import boundary_f1, enumerate_chain, joined, random_session


def turn_with_gaps(gaps, speaker="therapist"):
    """One token per gap boundary; gaps[i] separates token i and i+1."""
    texts, starts, ends = ["w0"], [0.0], [0.5]
    clock = 0.5
    for i, g in enumerate(gaps):
        texts.append(f"w{i + 1}")
        starts.append(clock + g)
        ends.append(clock + g + 0.5)
        clock = clock + g + 0.5
    return Turn(speaker=speaker, tokens=Tokens(texts, starts, ends))


class TestPauseSplit:
    def test_gap_over_threshold_splits(self):
        frags = pause_split(turn_with_gaps([2.5]), 2.0)
        assert len(frags) == 2

    def test_exact_threshold_does_not_split(self):
        frags = pause_split(turn_with_gaps([2.0]), 2.0)
        assert len(frags) == 1

    def test_single_token_turn(self):
        turn = Turn("patient", Tokens(("hi",), (0.0,), (0.2,)))
        frags = pause_split(turn)
        assert len(frags) == 1
        assert frags[0].tokens == turn.tokens
        assert frags[0].speaker == "patient"

    def test_fragments_concatenate_to_turn(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gaps = rng.uniform(0.0, 4.0, size=int(rng.integers(0, 10))).tolist()
            turn = turn_with_gaps(gaps)
            frags = pause_split(turn, 2.0)
            rebuilt = joined(f.tokens for f in frags)
            assert rebuilt == turn.tokens

    def test_threshold_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gaps = rng.uniform(0.0, 5.0, size=8).tolist()
            turn = turn_with_gaps(gaps)
            lo = len(pause_split(turn, 1.0))
            hi = len(pause_split(turn, 3.0))
            assert hi <= lo

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValidationError):
            pause_split(turn_with_gaps([1.0]), 0.0)

    def test_nan_threshold_rejected_and_infinite_never_splits(self):
        turn = turn_with_gaps([2.5, 100.0])
        with pytest.raises(ValidationError, match="positive"):
            pause_split(turn, float("nan"))
        assert pause_split(turn, float("inf")) == [turn]


class TestBoundaryTrainingData:
    def test_stated_example(self):
        data = make_boundary_training_data([["i", "see", ".", "ok", "?"]])
        assert data == [(["i", "see", "ok"], [INSIDE, BOUNDARY, BOUNDARY])]

    def test_attached_punctuation(self):
        data = make_boundary_training_data([["i", "see.", "ok?"]])
        assert data == [(["i", "see", "ok"], [INSIDE, BOUNDARY, BOUNDARY])]

    def test_no_punctuation_all_inside(self):
        data = make_boundary_training_data([["a", "b", "c"]])
        assert data[0][1] == [INSIDE, INSIDE, INSIDE]

    def test_single_sentence_one_boundary_at_end(self):
        data = make_boundary_training_data([["the", "cat", "sat", "."]])
        tokens, labels = data[0]
        assert labels.count(BOUNDARY) == 1
        assert labels[-1] == BOUNDARY
        assert tokens == ["the", "cat", "sat"]

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            make_boundary_training_data([])
        with pytest.raises(ValidationError):
            make_boundary_training_data([[]])


def crafted_boundary_model(boundary_words=("stop",)):
    """Model that labels exactly the given words BOUNDARY."""
    names = tuple(sorted(["bias"] + [f"cur={w}" for w in boundary_words]))
    W = np.zeros((len(names), 2))
    for w in boundary_words:
        W[names.index(f"cur={w}"), 1] = 10.0
    W[names.index("bias"), 0] = 1.0
    return ChainCRF(
        scheme="boundary",
        labels=BOUNDARY_LABELS,
        feature_names=names,
        weights=W,
        transitions=np.zeros((2, 2)),
        l2=0.0,
    )


def make_fragment(words, speaker="therapist"):
    starts, ends = [], []
    clock = 0.0
    for w in words:
        starts.append(clock)
        ends.append(clock + 0.3)
        clock += 0.4
    return Turn(speaker, Tokens(words, starts, ends))


class TestSegment:
    def test_all_inside_gives_single_utterance(self):
        model = crafted_boundary_model(("nomatch",))
        frag = make_fragment(["a", "b", "c", "d"])
        utts = segment(frag, model)
        assert len(utts) == 1
        assert utts[0].tokens == frag.tokens

    def test_decoded_boundaries_split_spans(self):
        # labels [I, B, I, I, B] -> spans of tokens 1..2 and 3..5
        model = crafted_boundary_model(("stop",))
        frag = make_fragment(["a", "stop", "c", "d", "stop"])
        utts = segment(frag, model)
        assert [len(u.tokens) for u in utts] == [2, 3]
        assert list(utts[0].tokens.texts) == ["a", "stop"]
        assert list(utts[1].tokens.texts) == ["c", "d", "stop"]

    def test_utterances_concatenate_to_fragment(self):
        rng = np.random.default_rng(2)
        model = crafted_boundary_model(("stop", "halt"))
        for _ in range(30):
            words = [
                str(rng.choice(["a", "b", "stop", "halt", "c"]))
                for _ in range(int(rng.integers(1, 12)))
            ]
            frag = make_fragment(words)
            utts = segment(frag, model)
            rebuilt = joined(u.tokens for u in utts)
            assert rebuilt == frag.tokens

    def test_viterbi_matches_exhaustive_search(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 11))
            words = [f"w{int(rng.integers(0, 5))}" for w in range(n)]
            names = sorted({f for row in boundary_features(words) for f in row})
            model = ChainCRF(
                scheme="boundary",
                labels=BOUNDARY_LABELS,
                feature_names=tuple(names),
                weights=rng.normal(size=(len(names), 2)),
                transitions=rng.normal(size=(2, 2)),
                l2=0.0,
            )
            E = model.emission_matrix(boundary_features(words))
            _, _, _, best_score, best_path = enumerate_chain(E, model.transitions)
            assert model.decode_many([boundary_features(words)])[0].tolist() == best_path

    def test_session_concatenation_identity(self):
        rng = np.random.default_rng(4)
        model = crafted_boundary_model(("stop",))
        for i in range(20):
            session = random_session(rng, f"s{i}")
            utts = segment_session(session, model, threshold=2.0)
            rebuilt = joined(u.tokens for u in utts)
            original = joined(turn.tokens for turn in session.turns)
            assert rebuilt == original
            record = session_to_record(Session(session.id, tuple(utts)), "utterances")
            assert [u["index"] for u in record["utterances"]] == list(range(len(utts)))


class TestBoundaryTraining:
    def make_sentinel_corpus(self, rng, n):
        """Boundary occurs exactly on the sentinel word."""
        data = []
        for _ in range(n):
            length = int(rng.integers(3, 12))
            tokens, labels = [], []
            for _ in range(length):
                if rng.random() < 0.25:
                    tokens.append("stopword")
                    labels.append(BOUNDARY)
                else:
                    tokens.append(f"w{int(rng.integers(0, 30))}")
                    labels.append(INSIDE)
            data.append((tokens, labels))
        return data

    def test_sentinel_corpus_f1(self):
        rng = np.random.default_rng(5)
        train = self.make_sentinel_corpus(rng, 200)
        held = self.make_sentinel_corpus(rng, 60)
        model = train_boundary_model(train, l2=0.01)
        paths = model.decode_many(boundary_features(tokens) for tokens, _ in held)
        predicted = [[model.labels[i] for i in path] for path in paths]
        score = boundary_f1(predicted, [labels for _, labels in held])
        assert score >= 0.99

    def test_same_seed_identical_weights(self):
        rng = np.random.default_rng(6)
        data = self.make_sentinel_corpus(rng, 40)
        m1 = train_boundary_model(data, l2=0.1)
        m2 = train_boundary_model(data, l2=0.1)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.transitions, m2.transitions)

    def test_huge_l2_shrinks_weights_to_majority_prediction(self):
        rng = np.random.default_rng(7)
        data = self.make_sentinel_corpus(rng, 60)
        model = train_boundary_model(data, l2=1e6)
        assert float(np.abs(model.weights).max()) < 1e-3
        assert float(np.abs(model.transitions).max()) < 1e-3
        # majority label is INSIDE; near-zero weights decode to it via tie-break
        for path in model.decode_many(boundary_features(tokens) for tokens, _ in data[:10]):
            majority = {0: INSIDE}  # index 0 wins ties
            assert all(model.labels[i] == INSIDE for i in path)

    def test_single_label_data_warns(self):
        data = [(["a", "b"], [INSIDE, INSIDE]), (["c"], [INSIDE])]
        with pytest.warns(UserWarning, match="single label"):
            train_boundary_model(data, l2=0.1, max_iter=20)


class TestBoundaryF1:
    def test_perfect_prediction(self):
        gold = [[INSIDE, BOUNDARY], [BOUNDARY]]
        assert boundary_f1(gold, gold) == 1.0

    def test_no_predicted_boundaries(self):
        gold = [[INSIDE, BOUNDARY]]
        pred = [[INSIDE, INSIDE]]
        assert boundary_f1(pred, gold) == 0.0

    def test_hand_computed_value(self):
        # TP=2, FP=1, FN=2 -> P=2/3, R=1/2, F1=4/7
        gold = [[BOUNDARY, BOUNDARY, BOUNDARY, BOUNDARY, INSIDE]]
        pred = [[BOUNDARY, BOUNDARY, INSIDE, INSIDE, BOUNDARY]]
        assert abs(boundary_f1(pred, gold) - 4.0 / 7.0) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            boundary_f1([[INSIDE]], [[INSIDE], [BOUNDARY]])
        with pytest.raises(ValidationError):
            boundary_f1([[INSIDE, INSIDE]], [[INSIDE]])
