"""Correctness checks on the artifacts the measured CLI calls write.

Every check reads files with its own parsers and recomputes what it compares
from the inputs or from a property the method must have. Nothing here
imports cbtcode, and no check compares against a stored copy of an earlier
output. Each check returns a list of error strings; an empty list passes.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

CODES = ("ag", "at", "co", "fb", "gd", "hw", "ip", "cb", "pt", "sc", "un")
TAGS = {
    "da": ("Question", "Statement", "Agreement", "Other", "Appreciation", "Incomplete", "Backchannel"),
    "mc": ("FA", "GI", "RE", "QUC", "QUO", "MIA", "MIN"),
}
SENTENCE_FINAL = ".?!"
REL_TOL = 1e-9


def read_jsonl(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_payload(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["payload"]


def read_matrix(path: str | Path) -> dict:
    """Parse the sparse triplet matrix format into headers, rows, columns and cells."""
    headers: dict[str, str] = {}
    rows: list[str] = []
    cols: list[str] = []
    cells: dict[int, dict[int, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#row "):
                rows.append(line[5:])
            elif line.startswith("#col "):
                cols.append(line[5:].split(" ", 1)[1])
            elif line.startswith("#"):
                key, _, value = line[1:].partition(" ")
                headers[key] = value
            elif line:
                r, c, v = line.split(" ")
                cells.setdefault(int(r), {})[int(c)] = float(v)
    return {"headers": headers, "rows": rows, "cols": cols, "cells": cells}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# evaluate: reports and comparisons


def pooled_f1(tp: int, fp: int, fn: int) -> float:
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def check_report(report: dict, n_sessions: int, k_grid: tuple[int, ...]) -> list[str]:
    """Fold counts cover every session, F1s follow from the counts, K is in the grid."""
    errors = []
    if report["chosen_k"] not in k_grid:
        errors.append(f"chosen_k {report['chosen_k']} is not in the grid {k_grid}")
    if set(report["codes"]) != set(CODES) | {"total"}:
        errors.append(f"report codes {sorted(report['codes'])} are not the 11 codes plus total")
        return errors
    for code, entry in report["codes"].items():
        folds = entry["folds"]
        covered = sum(sum(f) for f in folds)
        if covered != n_sessions or any(min(f) < 0 for f in folds):
            errors.append(f"{code}: fold counts cover {covered} sessions, expected {n_sessions}")
        tp, fp, fn, tn = (sum(f[i] for f in folds) for i in range(4))
        if not _close(entry["f1"], pooled_f1(tp, fp, fn)):
            errors.append(f"{code}: f1 {entry['f1']} != pooled F1 {pooled_f1(tp, fp, fn)} of its counts")
        if not _close(entry["f1_low"], pooled_f1(tn, fn, fp)):
            errors.append(f"{code}: f1_low {entry['f1_low']} != pooled F1 {pooled_f1(tn, fn, fp)} of its counts")
    avg = sum(report["codes"][c]["f1"] for c in CODES) / len(CODES)
    if not _close(report["avg_f1"], avg):
        errors.append(f"avg_f1 {report['avg_f1']} != mean of the 11 code F1s {avg}")
    return errors


def total_counts(report: dict) -> tuple[int, int, int]:
    folds = report["codes"]["total"]["folds"]
    return tuple(sum(f[i] for f in folds) for i in range(3))


def check_margin(reports_a: list[dict], reports_b: list[dict], min_margin: float) -> list[str]:
    """Total-score F1 of set A, pooled over all corpora, beats set B's by min_margin."""
    f1 = []
    for reports in (reports_a, reports_b):
        counts = [total_counts(r) for r in reports]
        f1.append(pooled_f1(*(sum(c[i] for c in counts) for i in range(3))))
    if f1[0] - f1[1] < min_margin:
        return [f"pooled total F1 {f1[0]:.3f} beats {f1[1]:.3f} by less than {min_margin}"]
    return []


def f_sf(f: float, d1: int = 10, d2: int = 5) -> float:
    """Upper tail of F(d1, d2) at f in closed form (d1 even).

    P(F > f) = I_x(d2/2, d1/2) with x = d2 / (d2 + d1 f). For an integer
    second shape b = d1/2 the regularized incomplete beta is the finite sum
    I_x(a, b) = x^a * sum_{j<b} Gamma(a+j) / (Gamma(a) j!) * (1-x)^j.
    """
    if d1 % 2:
        raise ValueError("the closed form needs an even numerator degree")
    a, b = d2 / 2.0, d1 // 2
    x = d2 / (d2 + d1 * f)
    term, total = 1.0, 1.0
    for j in range(1, b):
        term *= (a + j - 1) / j * (1.0 - x)
        total += term
    return x**a * total


def check_comparison(cmp: dict) -> list[str]:
    """The f statistic and p-value follow from the reported 5x2 difference matrix."""
    p = cmp["p_matrix"]
    if len(p) != 5 or any(len(row) != 2 for row in p):
        return [f"p_matrix is not 5x2: {p}"]
    if list(cmp["degrees"]) != [10, 5]:
        return [f"degrees {cmp['degrees']} are not [10, 5]"]
    numerator = sum(v * v for row in p for v in row)
    variance = sum((a - (a + b) / 2) ** 2 + (b - (a + b) / 2) ** 2 for a, b in p)
    if numerator == 0.0:
        if cmp["f_statistic"] is not None:
            return [f"all differences are 0 but f_statistic is {cmp['f_statistic']}"]
        return []
    if variance == 0.0:
        if cmp["f_statistic"] != "inf":
            return [f"zero within-replication variance but f_statistic is {cmp['f_statistic']}"]
        return []
    f = numerator / (2.0 * variance)
    errors = []
    if not isinstance(cmp["f_statistic"], (int, float)) or not _close(cmp["f_statistic"], f):
        errors.append(f"f_statistic {cmp['f_statistic']} != {f} from the p_matrix")
    elif not math.isclose(cmp["p_value"], f_sf(f), rel_tol=1e-7, abs_tol=1e-12):
        errors.append(f"p_value {cmp['p_value']} != F(10, 5) tail {f_sf(f)}")
    elif cmp["significant"] != (cmp["p_value"] < 0.05):
        errors.append(f"significant={cmp['significant']} disagrees with p_value {cmp['p_value']}")
    return errors


# ---------------------------------------------------------------------------
# code: segmentation, tags and features


def session_tokens(record: dict) -> list[tuple]:
    """(speaker, text, start, end) for every token of a turn- or utterance-level record."""
    units = record["turns"] if "turns" in record else record["utterances"]
    return [(u["speaker"], t["text"], t["start_s"], t["end_s"]) for u in units for t in u["tokens"]]


def unit_ends(record: dict) -> set[int]:
    """Token positions that end a turn or utterance of a session."""
    units = record["turns"] if "turns" in record else record["utterances"]
    ends, position = set(), 0
    for u in units:
        position += len(u["tokens"])
        ends.add(position - 1)
    return ends


def check_tokens_kept(inputs: list[dict], outputs: list[dict], what: str) -> list[str]:
    """Each output session holds exactly its input tokens, in order, speakers kept."""
    if [r["id"] for r in inputs] != [r["id"] for r in outputs]:
        return [f"{what}: session ids or their order differ from the input"]
    errors = []
    for a, b in zip(inputs, outputs):
        if session_tokens(a) != session_tokens(b):
            errors.append(f"{what}: session {a['id']} does not hold its input tokens and speakers")
    return errors


def punctuation_ends(corpus: list[dict], boundary_lines: list[str]) -> list[set[int]]:
    """Gold utterance ends per session from the punctuated text, one line per turn."""
    lines = iter(boundary_lines)
    out = []
    for record in corpus:
        ends, position = set(), 0
        for turn in record["turns"]:
            words = next(lines).split()
            if len(words) != len(turn["tokens"]):
                raise ValueError(f"session {record['id']}: punctuated line does not match its turn")
            for w in words:
                if w[-1] in SENTENCE_FINAL:
                    ends.add(position)
                position += 1
        out.append(ends)
    return out


def end_f1(gold: list[set[int]], predicted: list[set[int]]) -> float:
    tp = sum(len(g & p) for g, p in zip(gold, predicted))
    fp = sum(len(p - g) for g, p in zip(gold, predicted))
    fn = sum(len(g - p) for g, p in zip(gold, predicted))
    return pooled_f1(tp, fp, fn)


def spans(record: dict) -> list[tuple[int, int]]:
    """(first, last) token position of each utterance of a session."""
    out, position = [], 0
    for u in record["utterances"]:
        out.append((position, position + len(u["tokens"]) - 1))
        position += len(u["tokens"])
    return out


def matched_tag_agreement(gold: list[dict], predicted: list[dict], scheme: str) -> tuple[float, float]:
    """Over predicted utterances whose token span equals a gold utterance's:
    the share carrying the gold tag, and the share of gold utterances matched."""
    same = matched = n_gold = 0
    for g, p in zip(gold, predicted):
        gold_tags = {span: u.get(scheme) for span, u in zip(spans(g), g["utterances"])}
        n_gold += len(gold_tags)
        for span, u in zip(spans(p), p["utterances"]):
            if span in gold_tags:
                matched += 1
                same += u.get(scheme) == gold_tags[span]
    return (same / matched if matched else 0.0), (matched / n_gold if n_gold else 0.0)


def utterance_accuracy(gold: list[dict], predicted: list[dict], scheme: str) -> float:
    """Share of gold utterances tagged with their gold tag."""
    pairs = [
        (a.get(scheme), b.get(scheme))
        for g, p in zip(gold, predicted)
        for a, b in zip(g["utterances"], p["utterances"])
    ]
    return sum(a == b for a, b in pairs) / len(pairs) if pairs else 0.0


def therapist_utterances(record: dict) -> list[dict]:
    return [u for u in record["utterances"] if u["speaker"] == "therapist"]


def documents(tagged: list[dict], augment: str | None) -> list[list[str]]:
    """Therapist tokens per session, rewritten as word|TAG when augmenting."""
    docs = []
    for record in tagged:
        words = []
        for u in therapist_utterances(record):
            suffix = f"|{u[augment]}" if augment else ""
            words.extend(t["text"] + suffix for t in u["tokens"])
        docs.append(words)
    return docs


def tfidf_rows(
    docs: list[list[str]], max_df: float, min_df: float
) -> tuple[set[str], list[dict[str, float]]]:
    """Vocabulary with min_df <= df/N <= max_df, and per document
    count * (ln((1+N)/(1+df)) + 1), L2-normalized."""
    n = len(docs)
    df = Counter(t for d in docs for t in set(d))
    vocab = {t for t, c in df.items() if min_df <= c / n <= max_df}
    rows = []
    for d in docs:
        counts = Counter(t for t in d if t in vocab)
        row = {t: c * (math.log((1 + n) / (1 + df[t])) + 1.0) for t, c in counts.items()}
        norm = math.sqrt(sum(v * v for v in row.values()))
        rows.append({t: v / norm for t, v in row.items()} if norm else {})
    return vocab, rows


def tag_block(record: dict, scheme: str) -> dict[str, float]:
    """Per tag: share of therapist utterances, then share of therapist words."""
    utts = therapist_utterances(record)
    n_words = sum(len(u["tokens"]) for u in utts)
    block = {}
    for tag in TAGS[scheme]:
        mine = [u for u in utts if u[scheme] == tag]
        block[f"{scheme}:utt:{tag}"] = len(mine) / len(utts) if utts else 0.0
        words = sum(len(u["tokens"]) for u in mine)
        block[f"{scheme}:wrd:{tag}"] = words / n_words if n_words else 0.0
    return block


WORD_SETS = {
    "tfidf": (None, ""),
    "tfidf+da": (None, "tfidf:"),
    "tfidf+mc": (None, "tfidf:"),
    "da-tfidf": ("da", ""),
    "mc-tfidf": ("mc", ""),
}
BLOCK_SETS = {"da": "da", "mc": "mc", "tfidf+da": "da", "tfidf+mc": "mc"}


def matrix_row(matrix: dict, r: int) -> dict[str, float]:
    return {matrix["cols"][c]: v for c, v in matrix["cells"].get(r, {}).items()}


def check_matrix(
    matrix: dict, tagged: list[dict], set_name: str, sample: list[int], max_df: float, min_df: float
) -> list[str]:
    """Sampled tf-idf rows and every tag-count block match an independent recomputation."""
    if matrix["headers"].get("set") != set_name:
        return [f"{set_name}: matrix header names set {matrix['headers'].get('set')!r}"]
    if matrix["rows"] != [r["id"] for r in tagged]:
        return [f"{set_name}: matrix rows are not the tagged sessions in order"]
    errors = []
    if set_name in WORD_SETS:
        augment, prefix = WORD_SETS[set_name]
        vocab, expected_rows = tfidf_rows(documents(tagged, augment), max_df, min_df)
        block = set(tag_block(tagged[0], BLOCK_SETS[set_name])) if set_name in BLOCK_SETS else set()
        word_cols = set(matrix["cols"]) - block
        if word_cols != {prefix + t for t in vocab}:
            errors.append(f"{set_name}: word columns differ from the pruned vocabulary")
        for r in sample:
            got = {k: v for k, v in matrix_row(matrix, r).items() if k in word_cols}
            want = {prefix + t: v for t, v in expected_rows[r].items()}
            if got.keys() != want.keys() or any(not _close(got[k], want[k]) for k in want):
                errors.append(f"{set_name}: row {r} ({matrix['rows'][r]}) differs from the recomputed tf-idf")
    if set_name in BLOCK_SETS:
        scheme = BLOCK_SETS[set_name]
        for r, record in enumerate(tagged):
            row = matrix_row(matrix, r)
            for name, want in tag_block(record, scheme).items():
                if name not in matrix["cols"]:
                    errors.append(f"{set_name}: column {name} is missing")
                    return errors
                if not _close(row.get(name, 0.0), want):
                    errors.append(f"{set_name}: row {r} {name} = {row.get(name, 0.0)}, hand count gives {want}")
                    break
    return errors
