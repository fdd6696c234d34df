"""Versioned artifact files.

Every artifact is self-describing: JSON files carry format_version, a kind
tag, and tool metadata; the sparse matrix file carries the same fields in
its header.  Writers are byte-deterministic (sorted keys, no timestamps) so
identical runs produce identical files.  A model's arrays are stored as
base64 of their little-endian float64 bytes: they round-trip bit for bit,
and writing them costs no Python step per value.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .corpus import DA_TAG_SET, MC_TAG_SET, Session, parse_corpus, read_json_file, read_jsonl, read_lines, write_corpus
from .errors import MissingArtifactError, ParseError, ValidationError
from .evaluate import EvalReport, FiveByTwoResult
from .features import FeatureMatrix
from .pipeline import FEATURE_SETS
from .segmenter import BOUNDARY_TAG_SET
from .svm import LinearModel
from .tagger import ChainCRF

FORMAT_VERSION = 1


def _meta() -> dict:
    return {"tool": "cbtcode", "version": __version__}


def save_artifact(path: str | Path, kind: str, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "meta": _meta(), "payload": payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, allow_nan=False, separators=(",", ": "), indent=1)
        fh.write("\n")


def load_artifact(path: str | Path, kind: str) -> dict:
    path = Path(path)
    doc = read_json_file(path, f"{kind} artifact")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported format_version {doc.get('format_version')!r}")
    if doc.get("kind") != kind:
        raise ValidationError(f"{path}: expected kind {kind!r}, found {doc.get('kind')!r}")
    if not isinstance(doc.get("payload"), dict):
        raise ValidationError(f"{path}: expected a payload object")
    return doc["payload"]


# ---------------------------------------------------------------------------
# Tagged corpus (utterance form) JSONL


def write_tagged_corpus(sessions: Sequence[Session], path: str | Path) -> None:
    write_corpus(sessions, path, "utterances")


def read_tagged_corpus(path: str | Path) -> list[Session]:
    return parse_corpus(path, "utterances")


def sniff_corpus_kind(path: str | Path) -> str:
    """Distinguish a turn-level corpus file from an utterance-level one."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"corpus not found: {path}")
    for where, rec in read_jsonl(path):
        if "turns" in rec:
            return "turns"
        if "utterances" in rec:
            return "utterances"
        raise ParseError(f"{where}: record has neither turns nor utterances")
    raise ValidationError(f"{path}: empty corpus file")


# ---------------------------------------------------------------------------
# Models


def _save_model(model: ChainCRF | LinearModel, path: str | Path, kind: str, **extra) -> None:
    """One payload field per dataclass field of the model, plus extra: arrays
    through _encode_array, tuples as lists, other values as they are."""
    payload = dict(extra)
    for field in dataclasses.fields(model):
        value = getattr(model, field.name)
        if isinstance(value, np.ndarray):
            value = _encode_array(value)
        elif isinstance(value, tuple):
            value = list(value)
        payload[field.name] = value
    save_artifact(path, kind, payload)


def save_chain_crf(model: ChainCRF, path: str | Path) -> None:
    _save_model(model, path, "chain_crf")


def load_chain_crf(path: str | Path, expect_scheme: str | None = None) -> ChainCRF:
    path = Path(path)
    p = load_artifact(path, "chain_crf")
    scheme = _field(p, path, "scheme", "str")
    if expect_scheme is not None and scheme != expect_scheme:
        raise ValidationError(f"{path}: model tags scheme {scheme!r}, expected {expect_scheme!r}")
    labels = _field(p, path, "labels", "strs")
    known = _SCHEME_LABELS.get(scheme, labels)
    if not labels or len(set(labels)) != len(labels) or sorted(labels) != sorted(known):
        raise ValidationError(f"{path}: payload field 'labels' must be distinct {scheme} labels, got {labels}")
    names = _field(p, path, "feature_names", "strs")
    k = len(labels)
    return ChainCRF(
        scheme=scheme,
        labels=tuple(labels),
        feature_names=tuple(names),
        weights=_array(p, path, "weights", (len(names), k)),
        transitions=_array(p, path, "transitions", (k, k)),
        l2=float(_field(p, path, "l2", "number")),
        n_iter=_field(p, path, "n_iter", "count"),
        grad_norm=float(_field(p, path, "grad_norm", "number")),
        converged=_field(p, path, "converged", "bool"),
    )


# The MC tagger's file is a chain_crf file; `train --what mc` writes it
# through these names.


def save_utterance_classifier(model: ChainCRF, path: str | Path) -> None:
    save_chain_crf(model, path)


def load_utterance_classifier(path: str | Path) -> ChainCRF:
    return load_chain_crf(path, "mc")


def save_linear_model(model: LinearModel, path: str | Path, code: str | None = None) -> None:
    _save_model(model, path, "linear_svm", code=code)


def load_linear_model(path: str | Path) -> LinearModel:
    path = Path(path)
    p = load_artifact(path, "linear_svm")
    weights = _array(p, path, "weights")
    d = len(weights)
    mask, mean, std = (p.get(name) is not None for name in ("feature_mask", "scaler_mean", "scaler_std"))
    if mask and not (len(_field(p, path, "feature_mask", "counts")) == d and len(set(p["feature_mask"])) == d):
        raise ValidationError(f"{path}: payload field 'feature_mask' must hold {d} distinct indices")
    return LinearModel(
        weights=weights,
        **{name: float(_field(p, path, name, "number")) for name in ("bias", "C", "weight_low", "weight_high", "gap")},
        n_iter=_field(p, path, "n_iter", "count"),
        converged=_field(p, path, "converged", "bool"),
        space_fingerprint=None if p.get("space_fingerprint") is None else _field(p, path, "space_fingerprint", "str"),
        feature_mask=tuple(p["feature_mask"]) if mask else None,
        scaler_mean=_array(p, path, "scaler_mean", (d,)) if mean else None,
        scaler_std=_array(p, path, "scaler_std", (d,)) if std else None,
    )


# Model payload fields: each error names the file and the field.

_KINDS: dict[str, tuple[str, Callable[[object], bool]]] = {
    "number": ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),  # type: ignore[arg-type]
    "count": ("a non-negative integer", lambda v: type(v) is int and v >= 0),  # type: ignore[operator]
    "bool": ("a boolean", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "base64": (
        "base64 text of little-endian float64 values (list-form model files from earlier versions must be retrained)",
        lambda v: type(v) is str,
    ),
    "strs": ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)),
    "counts": ("a list of indices", lambda v: type(v) is list and all(type(i) is int and i >= 0 for i in v)),
}
_SCHEME_LABELS = {tags.name: tags.labels for tags in (BOUNDARY_TAG_SET, DA_TAG_SET, MC_TAG_SET)}


def _field(p: dict, path: Path, name: str, kind: str):
    """p[name], of the kind named."""
    if name not in p:
        raise ValidationError(f"{path}: payload field {name!r} is missing")
    want, ok = _KINDS[kind]
    if not ok(p[name]):
        raise ValidationError(f"{path}: payload field {name!r} must be {want}")
    return p[name]


def _encode_array(a: np.ndarray) -> str:
    """The array's values in row-major order as little-endian float64 bytes, in base64."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8")).decode("ascii")


def _array(p: dict, path: Path, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The field decoded by _encode_array: finite values, of this shape (1-D of any length when None)."""
    value = _field(p, path, name, "base64")
    try:
        arr = np.frombuffer(base64.b64decode(value, validate=True), "<f8")
    except ValueError:  # a character outside the base64 alphabet, bad padding, or not a whole number of values
        arr = None
    if arr is None or (shape is not None and arr.size != math.prod(shape)) or not np.isfinite(arr).all():
        want = "a " + " x ".join(map(str, shape)) + " array" if shape is not None else "an array"
        raise ValidationError(f"{path}: payload field {name!r} must be {want} of finite numbers (base64 float64)")
    return arr.reshape(shape or -1)


def save_feature_space(matrix: FeatureMatrix, path: str | Path) -> None:
    """Write what a matrix built in process was computed from: its set, the
    fingerprint of its sessions, and each column's name, idf and selectable flag."""
    if matrix.idf is None:
        raise ValidationError("this matrix was loaded from disk and carries no fitted space")
    save_artifact(
        path,
        "feature_space",
        {
            "set": matrix.set_name,
            "fingerprint": matrix.fingerprint,
            "names": list(matrix.names),
            "idf": [float(v) for v in matrix.idf],
            "selectable": [bool(s) for s in matrix.selectable],
        },
    )


# ---------------------------------------------------------------------------
# Feature matrix (sparse triplet text)


def write_matrix(matrix: FeatureMatrix, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#format_version {FORMAT_VERSION}\n")
        fh.write("#kind feature_matrix\n")
        fh.write(f"#tool cbtcode {__version__}\n")
        fh.write(f"#set {matrix.set_name}\n")
        fh.write(f"#fingerprint {matrix.fingerprint}\n")
        fh.write(f"#shape {len(matrix.session_ids)} {len(matrix.names)}\n")
        for sid in matrix.session_ids:
            fh.write(f"#row {sid}\n")
        for sel, name in zip(matrix.selectable, matrix.names):
            fh.write(f"#col {int(sel)} {name}\n")
        for r, row in enumerate(matrix.X):  # one row's triplets at a time bounds the memory
            cols = np.flatnonzero(row)
            fh.writelines(f"{r} {c} {v!r}\n" for c, v in zip(cols.tolist(), row[cols].astype(float).tolist()))


def read_matrix(path: str | Path) -> FeatureMatrix:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"feature matrix not found: {path}")
    headers: dict[str, str] = {}
    shape_line = set_line = fingerprint_line = None
    rows: dict[str, None] = {}
    col_names: list[str] = []
    col_sel: list[bool] = []
    triplets: list[tuple[int, int, int, float]] = []
    for lineno, line in read_lines(path):
        if not line:
            continue
        if line.startswith("#row "):
            if line[5:] in rows:
                raise ValidationError(f"{path}, line {lineno}: duplicate session id {line[5:]!r}")
            rows[line[5:]] = None
        elif line.startswith("#col "):
            sel, sep, name = line[5:].partition(" ")
            if sel not in ("0", "1") or not sep:
                raise ParseError(f"{path}, line {lineno}: expected '#col <0|1> <name>'")
            col_sel.append(sel == "1")
            col_names.append(name)
        elif line.startswith("#"):
            key, _, value = line[1:].partition(" ")
            headers[key] = value
            if key == "shape":
                shape_line = lineno
            elif key == "set":
                set_line = lineno
            elif key == "fingerprint":
                fingerprint_line = lineno
        else:
            try:
                r, c, v = line.split(" ")
                triplets.append((lineno, int(r), int(c), float(v)))
            except ValueError:
                raise ParseError(f"{path}, line {lineno}: expected 'row col value'") from None
    if headers.get("kind") != "feature_matrix":
        raise ValidationError(f"{path}: not a feature matrix file")
    if headers.get("format_version") != str(FORMAT_VERSION):
        raise ValidationError(f"{path}: unsupported format_version {headers.get('format_version')!r}")
    if set_line is None:
        raise ParseError(f"{path}: expected a '#set <feature set>' header")
    if headers["set"] not in FEATURE_SETS:
        raise ParseError(
            f"{path}, line {set_line}: unknown feature set {headers['set']!r}; expected one of {FEATURE_SETS}"
        )
    if fingerprint_line is None:
        raise ParseError(f"{path}: expected a '#fingerprint <digest>' header")
    if shape_line is None:
        raise ParseError(f"{path}: expected a '#shape <rows> <cols>' header")
    try:
        n, d = (int(v) for v in headers["shape"].split(" "))
    except ValueError:
        raise ParseError(f"{path}, line {shape_line}: expected '#shape <rows> <cols>'") from None
    if len(rows) != n or len(col_names) != d:
        raise ParseError(
            f"{path}, line {shape_line}: shape {n} x {d} disagrees with "
            f"{len(rows)} #row and {len(col_names)} #col lines"
        )
    X = np.zeros((n, d))
    for lineno, r, c, v in triplets:
        if not (0 <= r < n and 0 <= c < d):
            raise ParseError(f"{path}, line {lineno}: triplet out of bounds ({r}, {c})")
        if not math.isfinite(v):
            raise ParseError(f"{path}, line {lineno}: value {v!r} is not finite")
        X[r, c] = v
    matrix = FeatureMatrix(set_name=headers["set"], names=tuple(col_names), selectable=tuple(col_sel),
                           session_ids=tuple(rows), X=X)
    if headers["fingerprint"] != matrix.fingerprint:
        raise ParseError(
            f"{path}, line {fingerprint_line}: fingerprint {headers['fingerprint']!r} disagrees with "
            f"the #row session ids, whose fingerprint is {matrix.fingerprint!r}"
        )
    return matrix


# ---------------------------------------------------------------------------
# Reports


def save_report(report: EvalReport, path: str | Path) -> None:
    save_artifact(path, "eval_report", report.to_payload())


def save_comparison(result: FiveByTwoResult, path: str | Path, *, set_a: str, set_b: str, code: str, seed: int) -> None:
    f_value: float | str | None = result.f_statistic
    if f_value is not None and not np.isfinite(f_value):
        f_value = "inf"
    save_artifact(
        path,
        "comparison",
        {
            "set_a": set_a,
            "set_b": set_b,
            "code": code,
            "seed": seed,
            "f_statistic": f_value,
            "degrees": list(result.degrees),
            "p_value": result.p_value,
            "significant": result.significant,
            "degenerate": result.degenerate,
            "verdict": result.verdict,
            "p_matrix": [list(row) for row in result.p_matrix],
        },
    )
