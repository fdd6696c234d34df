import json

import numpy as np
import pytest

from cbtcode.corpus import (
    CODES,
    CodeScores,
    Session,
    Tokens,
    Turn,
    binarize_scores,
    parse_corpus,
    read_scores_table,
    session_to_record,
    total_ctrs,
    write_corpus,
    write_scores_table,
)
from cbtcode.errors import MissingArtifactError, ParseError, ValidationError
from helpers import random_session


def write_lines(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def minimal_record():
    return {
        "format_version": 1,
        "id": "s1",
        "turns": [
            {
                "speaker": "therapist",
                "tokens": [
                    {"text": "hello", "start_s": 0.0, "end_s": 0.4},
                    {"text": "there", "start_s": 0.5, "end_s": 0.9},
                    {"text": "friend", "start_s": 1.0, "end_s": 1.3},
                ],
            }
        ],
        "scores": None,
    }


class TestParsing:
    def test_minimal_session(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [minimal_record()])
        sessions = parse_corpus(path)
        assert len(sessions) == 1
        assert len(sessions[0].turns) == 1
        assert len(sessions[0].turns[0].tokens) == 3
        assert sessions[0].scores is None

    def test_token_end_before_start_rejected(self, tmp_path):
        rec = minimal_record()
        rec["turns"][0]["tokens"][1] = {"text": "bad", "start_s": 2.0, "end_s": 1.0}
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec])
        with pytest.raises(ValidationError, match="ends before it starts"):
            parse_corpus(path)

    def test_unknown_role_rejected(self, tmp_path):
        rec = minimal_record()
        rec["turns"][0]["speaker"] = "narrator"
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec])
        with pytest.raises(ValidationError, match="narrator"):
            parse_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(minimal_record()) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            parse_corpus(path)

    def test_missing_format_version(self, tmp_path):
        rec = minimal_record()
        del rec["format_version"]
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec])
        with pytest.raises(ParseError, match="format_version"):
            parse_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [minimal_record(), minimal_record()])
        with pytest.raises(ValidationError, match="duplicate"):
            parse_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            parse_corpus(tmp_path / "absent.jsonl")

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        sessions = [random_session(rng, f"s{i}", with_scores=(i % 3 != 0)) for i in range(25)]
        path = tmp_path / "c.jsonl"
        write_corpus(sessions, path)
        back = parse_corpus(path)
        assert back == sessions
        # serialize -> parse -> serialize is byte stable
        path2 = tmp_path / "c2.jsonl"
        write_corpus(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_sessions_without_scores_accepted(self, tmp_path):
        rec = minimal_record()
        path = tmp_path / "c.jsonl"
        write_lines(path, [rec])
        assert parse_corpus(path)[0].scores is None


class TestScores:
    def test_total_zero(self):
        assert total_ctrs(CodeScores((0,) * 11)) == 0

    def test_total_all_fours(self):
        assert total_ctrs(CodeScores((4,) * 11)) == 44

    def test_total_maximum(self):
        assert total_ctrs(CodeScores((6,) * 11)) == 66

    def test_total_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            values = tuple(int(v) for v in rng.integers(0, 7, size=11))
            assert total_ctrs(CodeScores(values)) == sum(values)

    def test_binarize_anchor(self):
        base = [3] * 11
        base[CODES.index("ag")] = 4
        assert binarize_scores(CodeScores(tuple(base)))["ag"] is True
        base[CODES.index("ag")] = 3
        assert binarize_scores(CodeScores(tuple(base)))["ag"] is False

    def test_binarize_total_threshold(self):
        assert binarize_scores(CodeScores((4,) * 11)).total is True  # 44 >= 40
        assert binarize_scores(CodeScores((3,) * 11)).total is False  # 33 < 40

    def test_binarize_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            values = list(int(v) for v in rng.integers(0, 7, size=11))
            before = binarize_scores(CodeScores(tuple(values)))
            i = int(rng.integers(0, 11))
            if values[i] == 6:
                continue
            values[i] += 1
            after = binarize_scores(CodeScores(tuple(values)))
            for code in CODES:
                assert not (before[code] and not after[code])
            assert not (before.total and not after.total)

    def test_partial_scores_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            CodeScores.from_dict({"ag": 4})

    def test_unknown_code_rejected(self):
        full = {c: 3 for c in CODES}
        full["zz"] = 1
        with pytest.raises(ValidationError, match="zz"):
            CodeScores.from_dict(full)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="range"):
            CodeScores((7,) + (0,) * 10)


class TestScoresTable:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        table = {
            f"s{i}": CodeScores(tuple(int(v) for v in rng.integers(0, 7, size=11)))
            for i in range(10)
        }
        path = tmp_path / "labels.csv"
        write_scores_table(table, path)
        assert read_scores_table(path) == table

    def test_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,foo\ns1,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            read_scores_table(path)


class TestRecordShape:
    def test_record_fields(self):
        rng = np.random.default_rng(5)
        s = random_session(rng, "sx")
        rec = session_to_record(s)
        assert rec["format_version"] == 1
        assert set(rec) == {"format_version", "id", "turns", "scores"}

    def test_token_invariants(self):
        with pytest.raises(ValidationError):
            Tokens(texts=("two words",), start_s=(0.0,), end_s=(1.0,))
        with pytest.raises(ValidationError):
            Tokens(texts=("",), start_s=(0.0,), end_s=(1.0,))
        with pytest.raises(ValidationError):
            Tokens(texts=("x",), start_s=(-1.0,), end_s=(1.0,))

    def test_turn_requires_tokens(self):
        with pytest.raises(ValidationError):
            Turn(speaker="therapist", tokens=Tokens((), (), ()))

    def test_turn_time_order(self):
        with pytest.raises(ValidationError, match="time order"):
            Turn(
                speaker="therapist",
                tokens=Tokens(("a", "b"), (2.0, 1.0), (2.5, 1.5)),
            )

    def test_session_id_required(self):
        with pytest.raises(ValidationError):
            Session(id="", turns=())

    def test_slice_equals_tokens_built_from_the_sliced_columns(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            tokens = random_session(rng, "sx").turns[0].tokens
            n = len(tokens)
            for a, b, step in [(0, n, None), (1, n - 1, None), (n // 2, None, 2), (None, None, -1), (n, 0, -2)]:
                index = slice(a, b, step)
                columns = (tokens.texts[index], tokens.start_s[index], tokens.end_s[index])
                if step is not None and step < 0 and list(columns[1]) != sorted(columns[1]):
                    with pytest.raises(ValidationError, match="time order"):
                        tokens[index]
                else:
                    assert tokens[index] == Tokens(*columns)
                    assert type(tokens[index].texts) is tuple
        with pytest.raises(TypeError):
            tokens[0]
