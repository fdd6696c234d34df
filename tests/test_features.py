import math
import warnings

import numpy as np
import pytest

from cbtcode.corpus import Session, Tokens, Turn
from cbtcode.errors import MissingLabelsError, ValidationError
from cbtcode.features import (
    anova_f_scores,
    apply_scaler,
    augment_tokens,
    fit_scaler,
    fit_tfidf,
    fuse_concat,
    select_k_by_cv,
    tag_count_features,
    tfidf_matrix,
    top_k_mask,
    transform_tfidf,
)
from cbtcode.pipeline import build_feature_matrix
from cbtcode.tagger import DA_TAG_SET, MC_TAG_SET
from helpers import brute_tfidf


def tagged(words, mc=None, da=None, speaker="therapist"):
    tokens = Tokens(words, [i * 0.4 for i in range(len(words))], [i * 0.4 + 0.3 for i in range(len(words))])
    return Turn(speaker=speaker, tokens=tokens, da=da, mc=mc)


class TestTfidfFit:
    def test_inclusive_upper_bound(self):
        docs = [["common"] if i < 19 else ["rare"] for i in range(20)]
        space = fit_tfidf(docs, max_df=0.95, min_df=0.0)
        assert "common" in space.names  # df 19/20 = 0.95 retained

    def test_above_upper_bound_pruned(self):
        docs = [["everywhere", f"u{i}"] for i in range(20)]
        space = fit_tfidf(docs, max_df=0.95, min_df=0.05)
        assert "everywhere" not in space.names  # df 1.0 > 0.95

    def test_inclusive_lower_bound(self):
        docs = [["one"] if i == 0 else ["filler"] for i in range(20)]
        space = fit_tfidf(docs, max_df=1.0, min_df=0.05)
        assert "one" in space.names  # df 1/20 = 0.05 retained

    def test_idf_formula(self):
        docs = [["t"], ["t"], ["x"], ["x", "y", "t2"]]
        space = fit_tfidf(docs, max_df=1.0, min_df=0.0)
        idf = dict(zip(space.names, space.idf))
        assert abs(idf["t"] - (math.log(5 / 3) + 1.0)) < 1e-12  # holds only for df 2 of N 4

    def test_empty_vocabulary_advises_bounds(self):
        docs = [["t"], ["t"]]
        with pytest.raises(ValidationError, match="bounds"):
            fit_tfidf(docs, max_df=0.95, min_df=0.05)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValidationError):
            fit_tfidf([["t"]], max_df=0.5, min_df=0.5)


class TestTfidfTransform:
    def test_hand_computed_single_doc(self):
        docs = [["a", "a", "b"]]
        space = fit_tfidf(docs, max_df=1.0, min_df=0.0)
        X = tfidf_matrix(docs, space)
        assert X.shape == (1, 2)
        assert np.abs(X[0] - np.array([2, 1]) / math.sqrt(5)).max() < 1e-12

    def test_oov_only_gives_zero_vector(self):
        docs = [["x", "y"], ["x"]]
        space = fit_tfidf(docs, max_df=1.0, min_df=0.0)
        X = tfidf_matrix([["zz", "qq"], [], ["x", "y"]], space)
        assert X.shape == (3, space.dim)
        assert np.all(X[:2] == 0.0)
        assert abs(np.linalg.norm(X[2]) - 1.0) < 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            vocab = [f"t{i}" for i in range(30)]
            docs = [[vocab[int(j)] for j in rng.integers(0, 30, size=int(rng.integers(1, 40)))] for _ in range(10)]
            space = fit_tfidf(docs, max_df=0.95, min_df=0.05)
            vocab_o, idf_o, transform_o = brute_tfidf(list(docs), 0.95, 0.05)
            assert list(space.names) == vocab_o
            for name in space.names:
                assert abs(space.idf[space.names.index(name)] - idf_o[name]) < 1e-12
            # Besides the fitted documents: one with no vocabulary term, and an empty one.
            queries = docs + [["unseen", "words"], []]
            mine = tfidf_matrix(queries, space)
            theirs = np.array([transform_o(toks) for toks in queries])
            assert mine.shape == theirs.shape == (len(queries), space.dim)
            assert np.abs(mine - theirs).max() < 1e-9
            assert np.all(mine[-2:] == 0.0)

    def test_unit_norm_or_zero(self):
        rng = np.random.default_rng(1)
        docs = [[f"t{int(j)}" for j in rng.integers(0, 15, size=20)] for _ in range(12)]
        space = fit_tfidf(docs, max_df=1.0, min_df=0.0)
        for norm in np.linalg.norm(tfidf_matrix(docs, space), axis=1):
            assert abs(norm - 1.0) < 1e-9 or norm == 0.0

    def test_rows_do_not_depend_on_the_rest_of_the_corpus(self):
        rng = np.random.default_rng(12)
        docs = [[f"t{int(j)}" for j in rng.integers(0, 20, size=15)] for _ in range(8)]
        space = fit_tfidf(docs, max_df=1.0, min_df=0.0)
        whole = tfidf_matrix(docs, space)
        for i, tokens in enumerate(docs):
            assert np.array_equal(tfidf_matrix([docs[i]], space)[0], whole[i])
            assert np.array_equal(transform_tfidf(tokens, space, space.index()), whole[i])
        assert tfidf_matrix([], space).shape == (0, space.dim)


class TestTagCounts:
    def test_hand_counted_example(self):
        utts = [
            tagged([f"w{i}" for i in range(5)], mc="QUC"),
            tagged([f"w{i}" for i in range(3)], mc="RE"),
            tagged([f"w{i}" for i in range(2)], mc="RE"),
            tagged([f"w{i}" for i in range(10)], mc="FA"),
        ]
        block = tag_count_features(utts, MC_TAG_SET)
        # utterance proportions in (FA, GI, RE, QUC, QUO, MIA, MIN) order
        assert np.allclose(block[:7], [0.25, 0, 0.5, 0.25, 0, 0, 0], atol=1e-12)
        assert np.allclose(block[7:], [0.5, 0, 0.25, 0.25, 0, 0, 0], atol=1e-12)

    def test_single_tag_everywhere(self):
        utts = [tagged(["a", "b"], mc="GI") for i in range(3)]
        block = tag_count_features(utts, MC_TAG_SET)
        gi = MC_TAG_SET.labels.index("GI")
        assert block[gi] == 1.0 and block[7 + gi] == 1.0
        assert block.sum() == 2.0

    def test_dimension_is_fourteen_for_both_schemes(self):
        mc = tag_count_features([tagged(["a"], mc="FA")], MC_TAG_SET)
        da = tag_count_features([tagged(["a"], da="Question")], DA_TAG_SET)
        assert mc.shape == (14,) and da.shape == (14,)

    def test_subblocks_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            utts = [
                tagged(
                    [f"w{j}" for j in range(int(rng.integers(1, 9)))],
                    mc=MC_TAG_SET.labels[int(rng.integers(0, 7))],
                )
                for i in range(int(rng.integers(1, 12)))
            ]
            block = tag_count_features(utts, MC_TAG_SET)
            assert abs(block[:7].sum() - 1.0) < 1e-9
            assert abs(block[7:].sum() - 1.0) < 1e-9

    def test_hand_oracle_on_random_sessions(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            utts = [
                tagged(
                    [f"w{j}" for j in range(int(rng.integers(1, 9)))],
                    mc=MC_TAG_SET.labels[int(rng.integers(0, 7))],
                )
                for i in range(int(rng.integers(1, 10)))
            ]
            block = tag_count_features(utts, MC_TAG_SET)
            # independent counting
            n_words = sum(len(u.tokens) for u in utts)
            for j, tag in enumerate(MC_TAG_SET.labels):
                n_u = sum(u.mc == tag for u in utts)
                n_w = sum(len(u.tokens) for u in utts if u.mc == tag)
                assert abs(block[j] - n_u / len(utts)) < 1e-12
                assert abs(block[7 + j] - n_w / n_words) < 1e-12

    def test_zero_utterances_warn_and_zero(self):
        with pytest.warns(UserWarning, match="zero block"):
            block = tag_count_features([], MC_TAG_SET)
        assert np.all(block == 0.0)

    def test_untagged_utterance_rejected(self):
        with pytest.raises(ValidationError):
            tag_count_features([tagged(["a"], da="Question")], MC_TAG_SET)

    def test_session_word_denominator(self):
        utts = [tagged(["a", "b"], mc="FA")]
        block = tag_count_features(utts, MC_TAG_SET, total_words=8)
        assert block[7 + MC_TAG_SET.labels.index("FA")] == 2 / 8


class TestAugmentation:
    def test_stated_example(self):
        utts = [tagged(["did", "you", "finish", "the", "homework"], mc="QUC")]
        out = augment_tokens(utts, MC_TAG_SET)
        assert out[-1] == "homework|QUC"
        assert out[0] == "did|QUC"

    def test_single_tag_keeps_vocabulary_size(self):
        utts = [
            tagged(["a", "b", "a"], mc="GI"),
            tagged(["c", "b"], mc="GI"),
        ]
        out = augment_tokens(utts, MC_TAG_SET)
        base_types = {"a", "b", "c"}
        assert len(set(out)) == len(base_types)

    def test_type_count_bounded_by_seven_fold(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            utts = [
                tagged(
                    [f"w{int(rng.integers(0, 12))}" for _ in range(int(rng.integers(1, 8)))],
                    mc=MC_TAG_SET.labels[int(rng.integers(0, 7))],
                )
                for i in range(int(rng.integers(1, 10)))
            ]
            base = {w for u in utts for w in u.tokens.texts}
            out = augment_tokens(utts, MC_TAG_SET)
            assert len(set(out)) <= len(base) * 7

    def test_projection_recovers_token_stream(self):
        rng = np.random.default_rng(5)
        utts = [
            tagged(
                [f"w{int(rng.integers(0, 9))}" for _ in range(int(rng.integers(1, 6)))],
                mc=MC_TAG_SET.labels[int(rng.integers(0, 7))],
            )
            for i in range(8)
        ]
        original = [w for u in utts for w in u.tokens.texts]
        stripped = [w.rsplit("|", 1)[0] for w in augment_tokens(utts, MC_TAG_SET)]
        assert stripped == original

    def test_untagged_rejected(self):
        with pytest.raises(ValidationError):
            augment_tokens([tagged(["a"], da="Question")], MC_TAG_SET)


class TestConcatFusion:
    def make_disjoint_corpus(self, n_terms, n_sessions):
        """One tagged therapist utterance per session; session i says the terms t{j}, j = i mod n_sessions."""
        words = [[f"t{j}" for j in range(i, n_terms, n_sessions)] for i in range(n_sessions)]
        return [Session(id=f"d{i}", turns=(tagged(w, mc="RE", da="Question"),)) for i, w in enumerate(words)]

    def make_corpus(self, n_sessions=12):
        """Tagged sessions; the last one has no therapist utterance, so its tag block is zero."""
        rng = np.random.default_rng(13)
        sessions = []
        for i in range(n_sessions):
            speaker = "patient" if i == n_sessions - 1 else "therapist"
            utts = tuple(
                tagged(
                    [f"w{int(rng.integers(0, 25))}" for _ in range(int(rng.integers(1, 7)))],
                    mc=MC_TAG_SET.labels[int(rng.integers(0, 7))],
                    speaker=speaker,
                )
                for j in range(int(rng.integers(2, 8)))
            )
            sessions.append(Session(id=f"s{i}", turns=utts))
        return sessions

    def build(self, sessions, feature_set):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the empty session's zero block
            return build_feature_matrix(sessions, feature_set)

    def test_dimensions_add(self):
        sessions = self.make_disjoint_corpus(500, 2)
        assert self.build(sessions, "tfidf").X.shape == (2, 500)
        fused = self.build(sessions, "tfidf+mc")
        assert fused.X.shape == (2, 514)
        assert len(fused.names) == len(fused.idf) == 514

    def test_zero_block_leaves_word_values(self):
        sessions = self.make_corpus()
        word = self.build(sessions, "tfidf")
        fused = self.build(sessions, "tfidf+mc")
        d = word.X.shape[1]
        assert fused.X.shape == (len(sessions), d + 14)
        assert np.array_equal(fused.X[:, :d], word.X)
        assert np.all(fused.X[-1] == 0.0)  # no therapist words and a zero tag block
        assert np.all(fused.X[:-1, d:].sum(axis=1) > 0.0)

    def test_word_level_block_comes_first_and_is_deterministic(self):
        sessions = self.make_corpus()
        word = self.build(sessions, "tfidf")
        block = self.build(sessions, "mc")
        fused = self.build(sessions, "tfidf+mc")
        d = word.X.shape[1]
        assert np.array_equal(fused.idf, np.concatenate([word.idf, np.ones(14)]))
        assert fused.names[:d] == tuple(f"tfidf:{n}" for n in word.names)
        assert fused.names[d:] == block.names
        assert np.array_equal(fused.X[:, d:], block.X)
        again = self.build(sessions, "tfidf+mc")
        assert again.names == fused.names
        assert again.X.tobytes() == fused.X.tobytes()

    def test_fuse_concat_rejects_blocks_of_another_row_count(self):
        word_X = self.build(self.make_disjoint_corpus(40, 3), "tfidf").X
        assert fuse_concat(word_X, np.ones((3, 14))).shape == (3, 54)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            fuse_concat(word_X, np.ones((2, 14)))

    def test_selection_flags_preserved(self):
        sessions = self.make_disjoint_corpus(30, 2)
        for feature_set in ("tfidf+da", "tfidf+mc"):
            fused = self.build(sessions, feature_set)
            assert fused.selectable == (True,) * 30 + (False,) * 14


class TestAnovaF:
    def test_constant_feature_scores_zero(self):
        X = np.ones((10, 1))
        y = [True] * 5 + [False] * 5
        assert anova_f_scores(X, y)[0] == 0.0

    def test_hand_computed_example(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = [False, False, True, True]
        assert abs(anova_f_scores(X, y)[0] - 8.0) < 1e-12

    def test_perfect_separation_gives_inf_ranked_first(self):
        X = np.column_stack(
            [
                np.array([0.0, 0.0, 1.0, 1.0]),  # constant within class
                np.array([0.5, 0.1, 0.6, 0.2]),  # finite F
            ]
        )
        y = [False, False, True, True]
        f = anova_f_scores(X, y)
        assert np.isinf(f[0])
        mask = top_k_mask(f, np.array([True, True]), 1)
        assert mask[0] and not mask[1]

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            anova_f_scores(np.ones((4, 2)), [True] * 4)

    def test_affine_invariance_of_ranking(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            X = rng.normal(size=(24, 8))
            y = rng.random(24) < 0.5
            if y.all() or not y.any():
                y[0] = not y[0]
            f1 = anova_f_scores(X, y)
            a = float(rng.uniform(0.1, 5.0))
            b = float(rng.normal())
            j = int(rng.integers(0, 8))
            X2 = X.copy()
            X2[:, j] = a * X2[:, j] + b
            f2 = anova_f_scores(X2, y)
            assert np.array_equal(np.argsort(-f1, kind="stable"), np.argsort(-f2, kind="stable"))
            assert abs(f1[j] - f2[j]) / max(1.0, abs(f1[j])) < 1e-9


class TestSelectK:
    def test_full_grid_is_identity(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 12))
        ids = [f"s{i}" for i in range(30)]
        y = {sid: bool(rng.random() < 0.5) for sid in ids}
        if all(y.values()) or not any(y.values()):
            y[ids[0]] = not y[ids[0]]
        k = select_k_by_cv(X, ids, [True] * 12, y, [12], folds=3, seed=0)
        assert k == 12
        f = anova_f_scores(X, np.array([y[s] for s in ids]))
        assert top_k_mask(f, np.ones(12, dtype=bool), k).all()

    def test_planted_features_rank_top(self):
        rng = np.random.default_rng(8)
        n, d, planted = 120, 40, 10
        y_bits = rng.random(n) < 0.5
        if y_bits.all() or not y_bits.any():
            y_bits[0] = ~y_bits[0]
        X = rng.normal(size=(n, d))
        X[:, :planted] += 3.0 * y_bits[:, None]
        ids = [f"s{i}" for i in range(n)]
        y = {sid: bool(b) for sid, b in zip(ids, y_bits)}
        k = select_k_by_cv(X, ids, [True] * d, y, [5, 10, 20, 40], folds=5, seed=0)
        f = anova_f_scores(X, np.array([y[s] for s in ids]))
        top10 = set(np.argsort(-f, kind="stable")[:planted])
        assert top10 == set(range(planted))
        assert set(np.flatnonzero(top_k_mask(f, np.ones(d, dtype=bool), planted))) == set(range(planted))
        assert k <= 20

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 16))
        ids = [f"s{i}" for i in range(40)]
        y = {sid: bool(i % 2) for i, sid in enumerate(ids)}
        r1 = select_k_by_cv(X, ids, [True] * 16, y, [4, 8, 16], folds=4, seed=5)
        r2 = select_k_by_cv(X, ids, [True] * 16, y, [4, 8, 16], folds=4, seed=5)
        assert isinstance(r1, int) and r1 in (4, 8, 16)
        assert r1 == r2

    def test_nothing_selectable_gives_zero(self):
        ids = ["a", "b", "c", "d"]
        y = {"a": True, "b": False, "c": True, "d": False}
        assert select_k_by_cv(np.ones((4, 2)), ids, [False, False], y, [8], 2, 0) == 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            select_k_by_cv(np.ones((4, 2)), ["a", "b", "c", "d"], [True, True], {}, [], 2, 0)

    def test_labels_for_2_of_40_sessions_give_the_count_and_5_ids(self):
        """The same message as `label_matrix` gives, not every missing id."""
        ids = [f"s{i:02d}" for i in range(40)]
        X = np.random.default_rng(10).normal(size=(40, 8))
        with pytest.raises(MissingLabelsError) as info:
            select_k_by_cv(X, ids, [True] * 8, {"s00": True, "s01": False}, [4, 8], folds=4, seed=0)
        assert str(info.value) == "missing labels for 38 of 40 sessions: 's02', 's03', 's04', 's05', 's06', ..."


class TestScaler:
    def test_constant_feature_maps_to_zero(self):
        X = np.column_stack([np.full(6, 3.14), np.arange(6.0)])
        stats = fit_scaler(X)
        out = apply_scaler(X, stats)
        assert np.all(out[:, 0] == 0.0)

    def test_training_data_standardized(self):
        rng = np.random.default_rng(10)
        X = rng.normal(loc=5.0, scale=3.0, size=(50, 6))
        out = apply_scaler(X, fit_scaler(X))
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-9

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = rng.normal(size=(int(rng.integers(2, 30)), int(rng.integers(1, 8))))
            stats = fit_scaler(X)
            n = X.shape[0]
            for j in range(X.shape[1]):
                mean = sum(X[i, j] for i in range(n)) / n
                var = sum((X[i, j] - mean) ** 2 for i in range(n)) / n
                assert abs(stats.mean[j] - mean) < 1e-9
                assert abs(stats.std[j] - math.sqrt(var)) < 1e-9

    def test_dimension_mismatch_rejected(self):
        stats = fit_scaler(np.ones((3, 2)))
        with pytest.raises(ValidationError):
            apply_scaler(np.ones((3, 5)), stats)
