"""Property tests for the corpus, tagged-corpus, label-table, matrix,
artifact and model readers.

Each example writes a mutated file and reads it back.  The reader must either
accept it or raise a CbtCodeError whose message starts with the file (and,
for a fault on one line, that line) exactly once; any other exception is an
escape that would reach the CLI as a traceback.
"""

import base64
import json
import re

from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cbtcode.corpus import CODES, ROLES, Tokens, Turn, parse_corpus, read_scores_table
from cbtcode.errors import CbtCodeError, ValidationError
from cbtcode.features import FeatureMatrix
from cbtcode.segmenter import make_boundary_training_data, segment, train_boundary_model
from cbtcode.serialize import (
    load_artifact,
    load_chain_crf,
    load_linear_model,
    load_utterance_classifier,
    read_matrix,
    read_tagged_corpus,
    save_chain_crf,
    save_linear_model,
    save_utterance_classifier,
    write_matrix,
)
from cbtcode.svm import class_weights, decision_function, train_svm
from cbtcode.tagger import (
    DA_TAG_SET,
    MC_TAG_SET,
    tag_da,
    tag_mc,
    train_chain_crf,
    train_utterance_classifier,
)

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

VALID_RECORD = {
    "format_version": 1,
    "id": "s1",
    "turns": [
        {
            "speaker": "therapist",
            "tokens": [
                {"text": "so", "start_s": 0.0, "end_s": 0.2},
                {"text": "homework", "start_s": 0.3, "end_s": 0.7},
            ],
        },
        {"speaker": "patient", "tokens": [{"text": "yes", "start_s": 3.1, "end_s": 3.4}]},
    ],
    "scores": {c: 3 for c in ("ag", "at", "co", "fb", "gd", "hw", "ip", "cb", "pt", "sc", "un")},
}


def paths(value, prefix=()):
    """Every location in a JSON value, as a tuple of keys and indices."""
    yield prefix
    if isinstance(value, dict):
        for k, v in value.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from paths(v, prefix + (i,))


RECORD_PATHS = [p for p in paths(VALID_RECORD) if p]


def mutate(record, path, value, delete):
    """A copy of record with the node at path replaced (or deleted), if an
    earlier edit has not removed that location."""
    record = json.loads(json.dumps(record))
    node = record
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return record
    last = path[-1]
    if isinstance(node, dict) and delete:
        node.pop(last, None)
    elif isinstance(node, dict) or (isinstance(node, list) and isinstance(last, int) and last < len(node)):
        node[last] = value
    return record


def assert_rejected_cleanly(read, path, per_line_only):
    """What `read` returns when it accepts the file."""
    try:
        return read(path)
    except CbtCodeError as exc:
        message = str(exc)
        line = r", line \d+" if per_line_only else r"(, line \d+)?"
        assert re.match(re.escape(str(path)) + line + ": ", message), message
        assert message.count(str(path)) == 1, message


@FUZZ
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(RECORD_PATHS), JSON_VALUES, st.booleans()), min_size=1, max_size=3
    ),
    position=st.integers(0, 2),
)
@example(edits=[(("turns", 0, "tokens", 0, "start_s"), 10**400, False)], position=0)  # too large for a float
@example(edits=[(("id",), [1], False)], position=0)
@example(edits=[(("turns", 1, "speaker"), "bob", False)], position=1)
def test_parse_corpus_mutated_record(tmp_path, edits, position):
    record = VALID_RECORD
    for path, value, delete in edits:
        record = mutate(record, path, value, delete)
    lines = [json.dumps({**VALID_RECORD, "id": f"ok{i}"}) for i in range(2)]
    lines.insert(position, json.dumps(record))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sessions = assert_rejected_cleanly(parse_corpus, corpus, per_line_only=True)
    if sessions is not None:  # accepted as written: ids and speakers are not rewritten
        assert [s.id for s in sessions] == [json.loads(line)["id"] for line in lines]
        assert all(t.speaker in ROLES for s in sessions for t in s.turns)


@FUZZ
@given(lines=st.lists(st.binary(max_size=40) | JSON_VALUES.map(lambda v: json.dumps(v).encode()), max_size=4))
def test_parse_corpus_arbitrary_lines(tmp_path, lines):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(json.dumps(VALID_RECORD).encode() + b"\n" + b"\n".join(lines))
    assert_rejected_cleanly(parse_corpus, corpus, per_line_only=True)


def valid_matrix_lines(tmp_path):
    matrix = FeatureMatrix(
        set_name="tfidf",
        names=("a", "b", "c"),
        selectable=(True, True, False),
        session_ids=("s1", "s2"),
        X=np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]]),
    )
    path = tmp_path / "valid.mtx"
    write_matrix(matrix, path)
    return path.read_text(encoding="utf-8").splitlines()


MATRIX_FIELDS = st.sampled_from(
    ["0", "1", "2", "3", "-1", "1e400", "nan", "inf", "0.5", "x", "", "s1", "1_0", "99999999999999999999"]
)
MATRIX_LINES = st.one_of(
    st.text(max_size=20),
    st.tuples(st.sampled_from(["#shape", "#row", "#col", "#kind", "#format_version", "#set"]),
              st.lists(MATRIX_FIELDS, max_size=3)).map(lambda t: " ".join([t[0], *t[1]])),
    st.lists(MATRIX_FIELDS, min_size=1, max_size=4).map(" ".join),
)


@FUZZ
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete", "duplicate"]), st.integers(0, 30), MATRIX_LINES),
        min_size=1,
        max_size=3,
    ),
    garbage=st.none() | st.binary(min_size=1, max_size=8),
)
def test_read_matrix_mutated_lines(tmp_path, edits, garbage):
    lines = [line.encode() for line in valid_matrix_lines(tmp_path)]
    for op, index, text in edits:
        i = index % len(lines) if lines else 0
        if op == "replace" and lines:
            lines[i] = text.encode()
        elif op == "insert":
            lines.insert(i, text.encode())
        elif op == "delete" and lines:
            del lines[i]
        elif op == "duplicate" and lines:
            lines.insert(i, lines[i])
    if garbage is not None:
        lines.append(garbage)
    path = tmp_path / "fuzzed.mtx"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert_rejected_cleanly(read_matrix, path, per_line_only=False)


VALID_ARTIFACT = {"format_version": 1, "kind": "linear_svm", "meta": {"tool": "cbtcode"}, "payload": {"bias": 0.5}}
ARTIFACT_PATHS = [p for p in paths(VALID_ARTIFACT) if p]


@FUZZ
@given(
    edits=st.lists(st.tuples(st.sampled_from(ARTIFACT_PATHS), JSON_VALUES, st.booleans()), max_size=3),
    whole=st.none() | JSON_VALUES.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=40),
)
@example(edits=[], whole=b"[1, 2]")  # a JSON list, not an object
@example(edits=[], whole=b'{"format_version": 1, "kind": "linear_svm", "payload": {"bias": "\xff"}}')  # not UTF-8
def test_load_artifact_mutated_file(tmp_path, edits, whole):
    path = tmp_path / "model.json"
    if whole is None:
        doc = VALID_ARTIFACT
        for location, value, delete in edits:
            doc = mutate(doc, location, value, delete)
        path.write_text(json.dumps(doc), encoding="utf-8")
    else:
        path.write_bytes(whole)
    try:
        payload = load_artifact(path, "linear_svm")
    except CbtCodeError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: "), message
        assert message.count(str(path)) == 1, message
    else:
        assert isinstance(payload, dict)


VALID_TAGGED_RECORD = {
    "format_version": 1,
    "id": "s1",
    "utterances": [
        {
            "speaker": "therapist",
            "index": 0,
            "tokens": [
                {"text": "did", "start_s": 0.0, "end_s": 0.2},
                {"text": "homework", "start_s": 0.3, "end_s": 0.7},
            ],
            "da": "Question",
            "mc": "QUC",
        },
        {
            "speaker": "patient",
            "index": 1,
            "tokens": [{"text": "yes", "start_s": 3.1, "end_s": 3.4}],
            "da": None,
            "mc": None,
        },
    ],
    "scores": {c: 3 for c in CODES},
}
TAGGED_PATHS = [p for p in paths(VALID_TAGGED_RECORD) if p]


@FUZZ
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(TAGGED_PATHS), JSON_VALUES, st.booleans()), min_size=1, max_size=3
    ),
    position=st.integers(0, 2),
)
@example(edits=[(("utterances", 0, "index"), "7", False)], position=0)
@example(edits=[(("utterances", 0, "index"), True, False)], position=1)
@example(edits=[(("utterances", 0, "tokens", 1, "start_s"), -0.5, False)], position=2)
@example(edits=[(("utterances", 0, "tokens"), {"text": "x"}, False)], position=0)
@example(edits=[(("id",), 7, False)], position=1)
@example(edits=[(("utterances", 1, "speaker"), ["x"], False)], position=2)
def test_read_tagged_corpus_mutated_record(tmp_path, edits, position):
    record = VALID_TAGGED_RECORD
    for path, value, delete in edits:
        record = mutate(record, path, value, delete)
    lines = [json.dumps({**VALID_TAGGED_RECORD, "id": f"ok{i}"}) for i in range(2)]
    lines.insert(position, json.dumps(record))
    corpus = tmp_path / "tagged.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sessions = assert_rejected_cleanly(read_tagged_corpus, corpus, per_line_only=True)
    if sessions is not None:  # accepted as written: ids and speakers are not rewritten
        assert [s.id for s in sessions] == [json.loads(line)["id"] for line in lines]
        assert all(u.speaker in ROLES for s in sessions for u in s.turns)


@FUZZ
@given(lines=st.lists(st.binary(max_size=40) | JSON_VALUES.map(lambda v: json.dumps(v).encode()), max_size=4))
def test_read_tagged_corpus_arbitrary_lines(tmp_path, lines):
    corpus = tmp_path / "tagged.jsonl"
    corpus.write_bytes(json.dumps(VALID_TAGGED_RECORD).encode() + b"\n" + b"\n".join(lines))
    assert_rejected_cleanly(read_tagged_corpus, corpus, per_line_only=True)


SCORE_FIELDS = st.sampled_from(["s1", "s2", "id", "0", "3", "6", "7", "-1", "x", "", " 4", "1_0", "4.0", "١"])


@FUZZ
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["replace", "insert", "delete"]),
            st.integers(0, 5),
            st.text(max_size=30) | st.lists(SCORE_FIELDS, max_size=13).map(",".join),
        ),
        min_size=1,
        max_size=3,
    ),
    garbage=st.none() | st.binary(min_size=1, max_size=8),
)
def test_read_scores_table_mutated_lines(tmp_path, edits, garbage):
    lines = ["id," + ",".join(CODES), "s1," + ",".join("3" * len(CODES)), "s2," + ",".join("5" * len(CODES))]
    lines = [line.encode() for line in lines]
    for op, index, text in edits:
        i = index % len(lines) if lines else 0
        if op == "replace" and lines:
            lines[i] = text.encode()
        elif op == "insert":
            lines.insert(i, text.encode())
        elif op == "delete" and lines:
            del lines[i]
    if garbage is not None:
        lines.append(garbage)
    path = tmp_path / "labels.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert_rejected_cleanly(read_scores_table, path, per_line_only=False)


@cache
def small_models() -> dict[str, tuple]:
    """A small trained model of each kind, with its writer and its loader."""
    boundary = train_boundary_model(make_boundary_training_data([["so", "we", "start."], ["right?", "yes", "ok."]]))
    da = train_chain_crf(
        [([["bias", "w=what"], ["bias", "w=yes"]], ["Question", "Agreement"]), ([["bias", "w=so"]], ["Statement"])],
        DA_TAG_SET,
    )
    mc = train_utterance_classifier([([f"w{i}"], tag) for i, tag in enumerate(MC_TAG_SET.labels)])
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.9, 0.2], [0.1, 0.8]])
    y = np.array([False, True, True, False])
    svm = replace(
        train_svm(X, y, C=1.0, weights=class_weights(y)),
        space_fingerprint="0123456789abcdef",
        feature_mask=(0, 1),
        scaler_mean=np.array([0.5, 0.5]),
        scaler_std=np.array([0.4, 0.4]),
    )
    return {
        "boundary": (boundary, save_chain_crf, load_chain_crf),
        "da": (da, save_chain_crf, load_chain_crf),
        "mc": (mc, save_utterance_classifier, load_utterance_classifier),
        "svm": (svm, save_linear_model, load_linear_model),
    }


def model_doc(kind: str, tmp_path) -> dict:
    """The saved artifact of the small model of this kind, as JSON."""
    model, save, _ = small_models()[kind]
    path = tmp_path / f"{kind}.json"
    save(model, path)
    return json.loads(path.read_text(encoding="utf-8"))


def use_model(kind, model):
    """Apply a loaded model the way the pipeline does."""
    tokens = Tokens(("so", "what", "yes"), (0.0, 0.5, 1.0), (0.4, 0.9, 1.4))
    utts = [Turn("therapist", tokens)]
    if kind == "svm":
        d = len(model.weights)
        assert all(len(v) == d for v in (model.feature_mask, model.scaler_mean, model.scaler_std) if v is not None)
        decision_function(model, np.zeros((1, d)))
    elif model.scheme == "boundary":
        segment(Turn("therapist", tokens), model)
    elif model.scheme == "da":
        tag_da(utts, model)
    elif model.scheme == "mc":
        tag_mc(utts, model)
    else:
        model.decode_many([[["bias"], ["w=what"]]])


@FUZZ
@given(kind=st.sampled_from(["boundary", "da", "mc", "svm"]), data=st.data())
def test_model_loaders_mutated_payload(tmp_path, kind, data):
    doc = model_doc(kind, tmp_path)
    locations = [("payload", *p) for p in paths(doc["payload"])]
    edits = data.draw(
        st.lists(st.tuples(st.sampled_from(locations), JSON_VALUES, st.booleans()), min_size=1, max_size=3)
    )
    for location, value, delete in edits:
        doc = mutate(doc, location, value, delete)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    load = small_models()[kind][2]
    try:
        model = load(path)
    except CbtCodeError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: "), message
        assert message.count(str(path)) == 1, message
    else:
        use_model(kind, model)


def test_classifier_with_empty_payload_names_the_file_and_field(tmp_path):
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "chain_crf", "payload": {}}), encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"{path}: payload field 'scheme' is missing")):
        load_utterance_classifier(path)


def encode(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def load_edited(tmp_path, kind: str, edits: dict):
    """Load the small model of this kind with some payload fields replaced."""
    doc = model_doc(kind, tmp_path)
    doc["payload"].update(edits)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, lambda: small_models()[kind][2](path)


@pytest.mark.parametrize(
    "kind, field", [("mc", "weights"), ("da", "weights"), ("da", "transitions"), ("mc", "transitions")]
)
def test_short_row_names_the_file_and_field(tmp_path, kind, field):
    blob = base64.b64decode(model_doc(kind, tmp_path)["payload"][field])
    path, load = load_edited(tmp_path, kind, {field: base64.b64encode(blob[:-8]).decode("ascii")})
    with pytest.raises(ValidationError, match=re.escape(f"{path}: payload field {field!r} must be a ")) as exc:
        load()
    assert str(exc.value).count(str(path)) == 1


def _bad_blob(blob: bytes, case: str):
    if case == "list-form":  # the encoding of earlier versions
        return np.frombuffer(blob, "<f8").tolist()
    if case == "not-base64":
        return "*" + base64.b64encode(blob).decode("ascii")[1:]
    if case == "non-ascii":
        return base64.b64encode(blob).decode("ascii")[:-4] + "\u00e9AAA"
    if case == "bad-padding":
        return base64.b64encode(blob).decode("ascii").rstrip("=") + "A"
    if case == "not-whole-values":
        return base64.b64encode(blob + b"\0\0\0").decode("ascii")
    values = np.frombuffer(blob, "<f8").copy()
    values[-1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[case]
    return encode(values)


@pytest.mark.parametrize(
    "case", ["list-form", "not-base64", "non-ascii", "bad-padding", "not-whole-values", "nan", "inf", "-inf"]
)
@pytest.mark.parametrize(
    "kind, field",
    [("boundary", "weights"), ("da", "transitions"), ("mc", "weights"), ("mc", "transitions"), ("svm", "weights"),
     ("svm", "scaler_std")],
)
def test_bad_array_blob_names_the_file_and_field(tmp_path, kind, field, case):
    blob = base64.b64decode(model_doc(kind, tmp_path)["payload"][field])
    path, load = load_edited(tmp_path, kind, {field: _bad_blob(blob, case)})
    with pytest.raises(ValidationError, match=re.escape(f"{path}: payload field {field!r} must be ")) as exc:
        load()
    message = str(exc.value)
    assert message.count(str(path)) == 1, message
    assert ("list-form model files from earlier versions must be retrained" in message) == (case == "list-form")


@pytest.mark.parametrize(
    "edits, message",
    [({"weights": [0.1, 0.2, 0.3]}, "payload field 'feature_mask' must hold 3 distinct indices"),
     ({"weights": [0.1]}, "payload field 'feature_mask' must hold 1 distinct indices"),
     ({"scaler_mean": [0.5]}, "payload field 'scaler_mean' must be a 2 array"),
     ({"scaler_std": [0.4, 0.4, 0.4]}, "payload field 'scaler_std' must be a 2 array")],
    ids=["long-weights", "short-weights", "short-mean", "long-std"],
)
def test_svm_fields_that_disagree_with_the_decoded_weights_name_the_field(tmp_path, edits, message):
    path, load = load_edited(tmp_path, "svm", {name: encode(values) for name, values in edits.items()})
    with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
        load()


EXTREMES = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, 1e-310])


def assert_bit_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("kind", ["boundary", "da", "mc", "svm"])
def test_save_load_round_trip_is_bit_exact(tmp_path, kind):
    model, save, load = small_models()[kind]
    if kind == "svm":  # room for every extreme value
        model = replace(model, weights=np.zeros(6), feature_mask=tuple(range(6)), scaler_mean=np.zeros(6),
                        scaler_std=np.ones(6))
    fields = ("weights", "scaler_mean", "scaler_std") if kind == "svm" else ("weights", "transitions")
    for name, arrays in (
        ("trained", {f: getattr(model, f) for f in fields}),
        ("extremes", {f: np.resize(EXTREMES, getattr(model, f).shape) for f in fields}),
    ):
        path = tmp_path / f"{name}.json"
        save(replace(model, **arrays), path)
        stored = json.loads(path.read_text(encoding="utf-8"))["payload"]
        loaded = load(path)
        for f in fields:  # the file holds the row-major little-endian float64 bytes, and the loader reads them back
            assert_bit_equal(np.frombuffer(base64.b64decode(stored[f]), "<f8").reshape(arrays[f].shape), arrays[f])
            assert_bit_equal(getattr(loaded, f), arrays[f])


def test_feature_names_that_disagree_with_weights_name_the_file(tmp_path):
    doc = model_doc("mc", tmp_path)
    doc["payload"]["feature_names"].append("w=extra")
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"{path}: payload field 'weights' must be a ")):
        load_utterance_classifier(path)
