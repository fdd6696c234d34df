"""Transcript and label data model, file ingestion, and score binarization.

A corpus is a list of sessions; each session is an ordered list of turns;
each turn is a single speaker's ordered, timestamped words.  A segmented
session is the same kind of value: its turns are its utterances, which may
carry a dialog-act (DA) and an MI skill-code (MC) tag.  Sessions optionally
carry one 0..6 score per behavioral code, which binarize_scores turns into
low/high labels (per-code anchor 4, total threshold 40).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import MissingArtifactError, ParseError, ValidationError

CODES = ("ag", "at", "co", "fb", "gd", "hw", "ip", "cb", "pt", "sc", "un")

THERAPIST = "therapist"
PATIENT = "patient"
ROLES = (THERAPIST, PATIENT)

SCORE_MIN = 0
SCORE_MAX = 6
HIGH_ANCHOR = 4
TOTAL_THRESHOLD = 40

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Tokens:
    """A run of words as three columns: texts and start/end times in seconds.

    Every text is non-empty and holds no whitespace; times are finite,
    starts are non-negative and do not decrease, and no word ends before it
    starts.  Slicing gives a Tokens.
    """

    texts: tuple[str, ...]
    start_s: tuple[float, ...]
    end_s: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("texts", "start_s", "end_s"):
            if type(getattr(self, name)) is not tuple:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        texts, start, end = self.texts, self.start_s, self.end_s
        if not len(texts) == len(start) == len(end):
            raise ValidationError(f"token columns differ in length: {len(texts)}, {len(start)}, {len(end)}")
        try:  # one pass of C-level builtins per rule over the whole run, copying no column
            valid = (
                " ".join(texts).split() == list(texts)
                and all(map(math.isfinite, start))
                and all(map(math.isfinite, end))
                and min(start, default=0.0) >= 0
                and all(map(operator.le, start, end))
                and all(map(operator.le, start, itertools.islice(start, 1, None)))
            )
        except TypeError:
            valid = False
        if not valid:
            self._raise_first_fault()

    def _raise_first_fault(self) -> None:
        """Raise the error of the first token that breaks a rule, naming its index."""
        for i, (text, start, end) in enumerate(zip(self.texts, self.start_s, self.end_s)):
            prev = self.start_s[i - 1] if i else start
            try:
                fault = (
                    "token text must be a non-empty string without whitespace"
                    if not isinstance(text, str) or text.split() != [text]
                    else "token has non-finite times" if not (math.isfinite(start) and math.isfinite(end))
                    else f"token has negative start time {start}" if start < 0
                    else f"token ends before it starts ({end} < {start})" if end < start
                    else "tokens out of time order: starts before the token before it" if start < prev
                    else None
                )
            except TypeError:
                fault = "token times must be numbers"
            if fault:
                raise ValidationError(f"token {i} ({text!r}): {fault}")

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, index: slice) -> "Tokens":
        if not isinstance(index, slice):
            raise TypeError("Tokens supports slicing only; index texts, start_s or end_s")
        columns = (self.texts[index], self.start_s[index], self.end_s[index])
        if (index.step or 1) < 0:  # reversed, the starts decrease: check again
            return Tokens(*columns)
        # Each rule concerns one token or the order of starts, which a forward
        # slice keeps, so a slice of a checked run is checked already.
        out = object.__new__(Tokens)
        for name, column in zip(("texts", "start_s", "end_s"), columns):
            object.__setattr__(out, name, column)
        return out

    def records(self) -> list[dict]:
        """The {"text", "start_s", "end_s"} JSON records of the tokens."""
        return [{"text": t, "start_s": s, "end_s": e} for t, s, e in zip(self.texts, self.start_s, self.end_s)]


@dataclass(frozen=True)
class TagSet:
    """A named, ordered utterance label scheme."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"tag set {self.name!r} has duplicate labels")
        if not self.labels:
            raise ValidationError(f"tag set {self.name!r} is empty")

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown {self.name} tag {label!r}") from None


DA_TAG_SET = TagSet(
    "da",
    ("Question", "Statement", "Agreement", "Other", "Appreciation", "Incomplete", "Backchannel"),
)
# Reflections are a single class RE (simple/complex variants are not separated).
MC_TAG_SET = TagSet("mc", ("FA", "GI", "RE", "QUC", "QUO", "MIA", "MIN"))
TAG_SETS: dict[str, TagSet] = {"da": DA_TAG_SET, "mc": MC_TAG_SET}


@dataclass(frozen=True)
class Turn:
    """One speaker's uninterrupted sequence of tokens.  In a segmented
    session a turn is one utterance, with its (optional) DA and MC tags."""

    speaker: str
    tokens: Tokens
    da: str | None = None
    mc: str | None = None

    def __post_init__(self) -> None:
        if self.speaker not in ROLES:
            raise ValidationError(f"unknown speaker role {self.speaker!r}; expected one of {ROLES}")
        if not self.tokens:
            raise ValidationError("turn has no tokens")
        for tag_set, tag in ((DA_TAG_SET, self.da), (MC_TAG_SET, self.mc)):
            if tag is not None:
                tag_set.index(tag)  # raises for a tag outside the set

    def tag(self, scheme: str) -> str | None:
        return self.da if scheme == "da" else self.mc


@dataclass(frozen=True)
class CodeScores:
    """Integer score in [0, 6] for each of the 11 codes, in CODES order."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(CODES):
            raise ValidationError(f"expected {len(CODES)} scores, got {len(self.values)}")
        for code, v in zip(CODES, self.values):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"score for {code} must be an integer, got {v!r}")
            if not (SCORE_MIN <= v <= SCORE_MAX):
                raise ValidationError(f"score for {code} out of range [0, 6]: {v}")

    @classmethod
    def from_dict(cls, d: Mapping[str, int]) -> "CodeScores":
        """Scores keyed by code; each value must be an int (not a bool, float or string)."""
        if not isinstance(d, Mapping):
            raise ValidationError(f"scores must be an object keyed by code, got {type(d).__name__}")
        unknown = set(d) - set(CODES)
        if unknown:
            raise ValidationError(f"unknown score codes: {sorted(unknown)}")
        missing = [c for c in CODES if c not in d]
        if missing:
            raise ValidationError(f"missing score codes: {missing} (all 11 required)")
        return cls(tuple(d[c] for c in CODES))

    def to_dict(self) -> dict[str, int]:
        return {c: v for c, v in zip(CODES, self.values)}

    def __getitem__(self, code: str) -> int:
        return self.values[CODES.index(code)]


@dataclass(frozen=True)
class CodeLabels:
    """Binary high/low label per code plus the total; True means high."""

    per_code: tuple[bool, ...]
    total: bool

    def __getitem__(self, code: str) -> bool:
        if code == "total":
            return self.total
        return self.per_code[CODES.index(code)]


@dataclass(frozen=True)
class Session:
    """One recorded session: an id, ordered turns (or utterances), and
    optional scores.  Ids are non-empty strings written one per line
    (matrix `#row` lines), so they hold no line break."""

    id: str
    turns: tuple[Turn, ...]
    scores: CodeScores | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str):
            raise ValidationError(f"session id must be a string, got {self.id!r}")
        if not self.id:
            raise ValidationError("session id must be non-empty")
        if "\n" in self.id or "\r" in self.id:
            raise ValidationError(f"session id {self.id!r} contains a line break")

    def therapist_turns(self) -> list[Turn]:
        return [t for t in self.turns if t.speaker == THERAPIST]


def total_ctrs(scores: CodeScores) -> int:
    """Sum of the 11 code scores; range [0, 66]."""
    return sum(scores.values)


def binarize_scores(scores: CodeScores) -> CodeLabels:
    """Per-code label is high iff score >= 4; total is high iff the sum >= 40."""
    return CodeLabels(
        per_code=tuple(v >= HIGH_ANCHOR for v in scores.values),
        total=total_ctrs(scores) >= TOTAL_THRESHOLD,
    )


def embedded_scores(sessions: Iterable[Session]) -> dict[str, CodeScores]:
    """The scores the sessions carry, keyed by session id; sessions without
    scores are left out."""
    return {s.id: s.scores for s in sessions if s.scores is not None}


# ---------------------------------------------------------------------------
# Corpus file IO: UTF-8 JSONL, one session record per line.


_TOKEN_FIELDS = operator.itemgetter("text", "start_s", "end_s")
_TIME_TYPES = {int, float}  # JSON numbers; bool is a subclass of int but not one of these types


def tokens_from_records(recs: list, where: str) -> Tokens:
    """Tokens from a list of JSON records; times must be JSON numbers (not
    booleans or strings).  An error names `where` and the token's index."""
    try:
        texts, start_s, end_s = zip(*map(_TOKEN_FIELDS, recs)) if recs else ((), (), ())
        types = set(map(type, start_s)) | set(map(type, end_s))
        if types != {float}:  # JSON integers become floats
            if not types <= _TIME_TYPES:
                raise TypeError
            start_s, end_s = tuple(map(float, start_s)), tuple(map(float, end_s))
    except (KeyError, TypeError, OverflowError):
        _raise_record_fault(recs, where)
    try:
        return Tokens(texts, start_s, end_s)
    except ValidationError as exc:
        raise ValidationError(f"{where}, {exc}") from None


def _raise_record_fault(recs: list, where: str) -> None:
    """Raise the ParseError of the first token record that is not an object
    holding text and numeric times."""
    for ti, rec in enumerate(recs):
        try:
            _, start_s, end_s = _TOKEN_FIELDS(rec)
        except KeyError as exc:
            raise ParseError(f"{where}, token {ti}: token record missing field {exc}") from None
        except TypeError:
            kind = type(rec).__name__
            raise ParseError(f"{where}, token {ti}: token record must be an object, got {kind}") from None
        if type(start_s) not in _TIME_TYPES or type(end_s) not in _TIME_TYPES:
            bad = end_s if type(start_s) in _TIME_TYPES else start_s
            raise ParseError(f"{where}, token {ti}: token times must be numbers, got {bad!r}")
        try:
            float(start_s), float(end_s)
        except OverflowError:
            raise ParseError(f"{where}, token {ti}: token time too large") from None


def session_from_record(rec: dict, where: str = "record", form: str = "turns") -> Session:
    """Build a Session from a parsed JSON record of either corpus form:
    "turns", or "utterances" (a segmented corpus, whose utterances carry an
    `index` and optional `da`/`mc` tags).  Every error message starts with
    `where`."""
    utterances = form == "utterances"
    item = form[:-1]
    try:
        if rec.get("format_version") != FORMAT_VERSION:
            raise ParseError(f"missing or unsupported format_version (expected {FORMAT_VERSION})")
        if "id" not in rec:
            raise ParseError("missing session id")
        if not isinstance(rec.get(form), list):
            other = "turns" if utterances else "utterances"
            held = f"; the record holds {other}" if other in rec else ""
            raise ParseError(f"expected a list of {form}{held}")
        turns = []
        for i, trec in enumerate(rec[form]):
            if not isinstance(trec, dict) or "speaker" not in trec or not isinstance(trec.get("tokens"), list):
                raise ParseError(f"{item} {i}: expected object with speaker and a list of tokens")
            index = trec.get("index", i) if utterances else i  # a turn has no index
            if type(index) is not int or index < 0:
                raise ParseError(f"{item} {i}: index must be a non-negative integer, got {index!r}")
            tokens = tokens_from_records(trec["tokens"], f"{item} {i}")
            tags = (trec.get("da"), trec.get("mc")) if utterances else ()
            try:
                if not tokens and trec["speaker"] in ROLES:  # Turn's own check, named for the form
                    raise ValidationError(f"{item} has no tokens")
                turns.append(Turn(trec["speaker"], tokens, *tags))
            except ValidationError as exc:
                raise type(exc)(f"{item} {i}: {exc}") from None
        scores = None
        if rec.get("scores") is not None:
            scores = CodeScores.from_dict(rec["scores"])
        return Session(id=rec["id"], turns=tuple(turns), scores=scores)
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def session_to_record(session: Session, form: str = "turns") -> dict:
    """The JSON record of a session in either corpus form; the utterance form
    writes each utterance's position as its `index`."""
    if form == "turns":
        items = [{"speaker": t.speaker, "tokens": t.tokens.records()} for t in session.turns]
    else:
        items = [
            {"speaker": t.speaker, "index": i, "tokens": t.tokens.records(), "da": t.da, "mc": t.mc}
            for i, t in enumerate(session.turns)
        ]
    return {
        "format_version": FORMAT_VERSION,
        "id": session.id,
        form: items,
        "scores": session.scores.to_dict() if session.scores is not None else None,
    }


def read_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, text without its line ending) of each line of a UTF-8 file.

    A line that is not valid UTF-8 raises a ParseError naming the file and line.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}, line {lineno}: not valid UTF-8") from None
            yield lineno, line.rstrip("\r\n")


def read_jsonl(path: Path) -> Iterator[tuple[str, dict]]:
    """("<path>, line N", record) of each non-blank line of a JSONL file of objects."""
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        where = f"{path}, line {lineno}"
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
        if not isinstance(rec, dict):
            raise ParseError(f"{where}: expected a JSON object")
        yield where, rec


def read_json_file(path: Path, what: str) -> dict:
    """The JSON object a UTF-8 file holds; every error names the file."""
    if not path.exists():
        raise MissingArtifactError(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_bytes().decode("utf-8"))
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not valid UTF-8") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object, found {type(doc).__name__}")
    return doc


def parse_corpus(path: str | Path, form: str = "turns") -> list[Session]:
    """Read a JSONL corpus in either form ("turns" or "utterances", see
    session_from_record); raises ParseError/ValidationError on bad input."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"{'corpus file' if form == 'turns' else 'tagged corpus'} not found: {path}")
    sessions: list[Session] = []
    seen: set[str] = set()
    for where, rec in read_jsonl(path):
        session = session_from_record(rec, where, form)
        if session.id in seen:
            raise ValidationError(f"{where}: duplicate session id {session.id!r}")
        seen.add(session.id)
        sessions.append(session)
    return sessions


def write_corpus(sessions: Iterable[Session], path: str | Path, form: str = "turns") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for session in sessions:
            fh.write(json.dumps(session_to_record(session, form), sort_keys=True, allow_nan=False))
            fh.write("\n")


def read_scores_table(path: str | Path) -> dict[str, CodeScores]:
    """Read a delimited label table (header: id,ag,...,un) keyed by session id."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"labels file not found: {path}")
    out: dict[str, CodeScores] = {}
    lines = read_lines(path)
    header = next(lines, (1, ""))[1].strip()
    cols = [c.strip() for c in header.split(",")]
    if cols[:1] != ["id"] or tuple(cols[1:]) != CODES:
        raise ParseError(f"{path}: header must be 'id,{','.join(CODES)}', got {header!r}")
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != len(CODES) + 1:
            raise ParseError(f"{path}, line {lineno}: expected {len(CODES) + 1} columns")
        sid = parts[0]
        if sid in out:
            raise ValidationError(f"{path}, line {lineno}: duplicate session id {sid!r}")
        try:
            values = {c: int(v) for c, v in zip(CODES, parts[1:])}
        except ValueError:
            raise ParseError(f"{path}, line {lineno}: scores must be integers") from None
        try:
            out[sid] = CodeScores.from_dict(values)
        except ValidationError as exc:
            raise ValidationError(f"{path}, line {lineno}: {exc}") from None
    return out


def write_scores_table(scores: Mapping[str, CodeScores], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(CODES) + "\n")
        for sid in scores:
            row = scores[sid]
            fh.write(sid + "," + ",".join(str(v) for v in row.values) + "\n")
