import re

import numpy as np
import pytest

from cbtcode.corpus import binarize_scores, parse_corpus, write_corpus
from cbtcode.errors import ValidationError
from cbtcode.evaluate import cv_pooled_counts, make_folds, pooled_f1
from cbtcode.features import anova_f_scores
from cbtcode.pipeline import build_feature_matrix
from cbtcode.serialize import read_tagged_corpus, write_tagged_corpus
from cbtcode.synth import DEFAULT_DA_TEMPLATES, DEFAULT_MC_TEMPLATES, SignalRule, SynthConfig, generate_corpus
from helpers import joined, reference_generate_corpus


def small_config(**overrides):
    base = dict(
        n_sessions=60,
        utterances_per_session=(10, 16),
        seed=5,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestGeneration:
    def test_same_seed_byte_identical(self, tmp_path):
        r1 = generate_corpus(small_config())
        r2 = generate_corpus(small_config())
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(r1.sessions, p1)
        write_corpus(r2.sessions, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert r1.boundary_lines == r2.boundary_lines

    def test_different_seed_differs(self):
        r1 = generate_corpus(small_config(seed=1))
        r2 = generate_corpus(small_config(seed=2))
        assert r1.sessions != r2.sessions

    def test_roundtrips_through_corpus_format(self, tmp_path):
        result = generate_corpus(small_config())
        path = tmp_path / "c.jsonl"
        write_corpus(result.sessions, path)
        back = parse_corpus(path)
        assert back == list(result.sessions)

    def test_tagged_corpus_roundtrips_byte_for_byte(self, tmp_path):
        result = generate_corpus(small_config())
        gold, again = tmp_path / "gold_tags.jsonl", tmp_path / "again.jsonl"
        write_tagged_corpus(result.tagged, gold)
        back = read_tagged_corpus(gold)
        assert back == list(result.tagged)
        write_tagged_corpus(back, again)
        assert again.read_bytes() == gold.read_bytes()

    def test_gold_tags_align_with_sessions(self):
        result = generate_corpus(small_config())
        for session, tagged in zip(result.sessions, result.tagged):
            assert session.id == tagged.id
            turn_tokens = joined(turn.tokens for turn in session.turns)
            utt_tokens = joined(u.tokens for u in tagged.turns)
            assert turn_tokens == utt_tokens
            assert all(tu.da is not None and tu.mc is not None for tu in tagged.turns)

    def test_missing_template_rejected(self):
        templates = dict(DEFAULT_MC_TEMPLATES)
        del templates["RE"]
        with pytest.raises(ValidationError, match="RE"):
            small_config(mc_templates=templates)

    def test_bad_rule_rejected(self):
        with pytest.raises(ValidationError):
            SignalRule("kw", "NotATag", "hw", 1.0)
        with pytest.raises(ValidationError):
            SignalRule("kw", "QUC", "zz", 1.0)
        with pytest.raises(ValidationError):
            SignalRule("kw", "QUC", "hw", 1.5)
        for keyword in ("", "two words", "tab\tword"):
            with pytest.raises(ValidationError, match=re.escape(f"rule keyword {keyword!r} must be one")):
                SignalRule(keyword, "RE", "un", 1.0)

    def test_multi_utterance_turns_and_pauses_present(self):
        result = generate_corpus(small_config(n_sessions=30))
        multi = 0
        big_gap = 0
        for session, tagged in zip(result.sessions, result.tagged):
            for turn in session.turns:
                gaps = [b - a for a, b in zip(turn.tokens.end_s, turn.tokens.start_s[1:])]
                big_gap += sum(g > 2.0 for g in gaps)
            multi += sum(len(s.tokens) for s in session.turns) < len(
                [w for turn in session.turns for w in turn.tokens.texts]
            )
        n_turns = sum(len(s.turns) for s in result.sessions)
        n_utts = sum(len(t.turns) for t in result.tagged)
        assert n_utts > n_turns  # multi-utterance turns exist
        assert big_gap > 0  # >2 s pauses exist inside turns

    def test_config_file_roundtrip(self, tmp_path):
        import json

        config = small_config(label_noise=0.1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_payload()), encoding="utf-8")
        assert SynthConfig.from_file(path) == config


# Each tag gets a 43-word phrase and a one-word one; with 60-80 fillers an
# utterance runs to 100-170 words.
_LONG_TEMPLATES = {
    name: {tag: (" ".join(["so", "then", tag.lower()] * 14 + ["end"]), tag.lower()) for tag in templates}
    for name, templates in (("da_templates", DEFAULT_DA_TEMPLATES), ("mc_templates", DEFAULT_MC_TEMPLATES))
}


class TestDrawOrder:
    """generate_corpus draws every value from the same position of the seed's
    stream as the one-scalar-draw-per-value reference, so a corpus is a
    function of its config and seed alone."""

    @pytest.mark.parametrize("n_sessions", [1, 7, 40])
    @pytest.mark.parametrize("seed", [0, 7, 99999])
    def test_default_config_matches_the_reference(self, seed, n_sessions):
        self.assert_matches(SynthConfig(n_sessions=n_sessions, seed=seed))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(word_dropout=0.3),
            dict(keyword_occurrences=(0, 0)),
            dict(keyword_occurrences=(5, 9)),
            dict(rules=()),
            dict(utterances_per_turn=(1, 1)),
            dict(utterances_per_turn=(4, 9)),
            dict(pause_rate=0.0),
            dict(pause_rate=1.0),
            dict(_LONG_TEMPLATES, filler_words_per_utterance=(60, 80), keyword_occurrences=(5, 9)),
            _LONG_TEMPLATES,
            dict(_LONG_TEMPLATES, filler_words_per_utterance=(1, 1), word_dropout=0.3),
        ],
        ids=["dropout", "no-keywords", "many-keywords", "no-rules", "one-utterance-turns", "long-turns",
             "no-pauses", "all-pauses", "long-utterances", "long-templates", "long-templates-one-filler"],
    )
    @pytest.mark.parametrize("seed", [3, 11])
    def test_config_variant_matches_the_reference(self, seed, overrides):
        self.assert_matches(SynthConfig(n_sessions=7, seed=seed, **overrides))

    @staticmethod
    def assert_matches(config):
        got, want = generate_corpus(config), reference_generate_corpus(config)
        assert got.sessions == want.sessions
        assert got.tagged == want.tagged
        assert got.boundary_lines == want.boundary_lines


class TestPlantedSignal:
    def test_noiseless_rule_determines_code_label(self):
        config = small_config(label_noise=0.0, n_sessions=50)
        result = generate_corpus(config)
        rule = config.rules[0]  # homework / QUC / hw
        for session, tagged in zip(result.sessions, result.tagged):
            label = binarize_scores(session.scores)[rule.code]
            in_tag = out_tag = 0
            for tu in tagged.turns:
                if tu.speaker != "therapist":
                    continue
                count = sum(w == rule.keyword for w in tu.tokens.texts)
                if tu.mc == rule.tag:
                    in_tag += count
                else:
                    out_tag += count
            has_tag_utts = any(
                tu.mc == rule.tag and tu.speaker == "therapist"
                for tu in tagged.turns
            )
            if in_tag + out_tag == 0 or not has_tag_utts:
                continue
            assert label == (in_tag > out_tag)

    def test_keyword_frequency_equalized_but_context_informative(self):
        config = SynthConfig(n_sessions=200, seed=3)
        result = generate_corpus(config)
        matrix_plain = build_feature_matrix(result.tagged, "tfidf")
        matrix_aug = build_feature_matrix(result.tagged, "mc-tfidf")
        y = np.array(
            [binarize_scores(s.scores)["hw"] for s in result.sessions], dtype=bool
        )
        f_plain = anova_f_scores(matrix_plain.X, y)
        f_aug = anova_f_scores(matrix_aug.X, y)
        kw = matrix_plain.names.index("homework")
        kw_aug = matrix_aug.names.index("homework|QUC")
        # the raw keyword is uninformative; its tag-contexted form is strong
        assert f_aug[kw_aug] > 50 * max(f_plain[kw], 1.0)
        assert f_plain[kw] < np.percentile(f_plain, 99)

    def test_zeroed_signals_give_chance_level_f1(self):
        for seed in (0, 1, 2):
            config = SynthConfig(
                n_sessions=120,
                utterances_per_session=(10, 16),
                rules=tuple(
                    SignalRule(r.keyword, r.tag, r.code, 0.0) for r in SynthConfig().rules
                ),
                tag_mix_strength=0.0,
                style_strength=0.0,
                seed=seed,
            )
            result = generate_corpus(config)
            matrix = build_feature_matrix(result.tagged, "mc-tfidf")
            y = np.array(
                [binarize_scores(s.scores).total for s in result.sessions], dtype=bool
            )
            counts = cv_pooled_counts(
                matrix.X,
                np.asarray(matrix.selectable, dtype=bool),
                y,
                make_folds(matrix.session_ids, 5, seed, y),
                k_features=32,
                svm_c=1.0,
            )
            f1 = pooled_f1([(c.tp, c.fp, c.fn) for c in counts])
            assert 0.35 <= f1 <= 0.65, f"seed {seed}: {f1}"

    def test_planted_scores_track_quality(self):
        config = small_config(label_noise=0.0, n_sessions=80)
        result = generate_corpus(config)
        totals = [binarize_scores(s.scores).total for s in result.sessions]
        assert 0.25 <= np.mean(totals) <= 0.65
