"""The three workloads: their inputs, set-up calls, measured calls and checks.

Every call is an argv for `cbtcode.cli.main`, so the benchmark depends only
on the documented command line. A call is a (label, argv) pair; the label
names the call in the trace ("train-da" marks the DA model's L-BFGS run).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

THREADS = 2  # the global --threads of every call, except code's measured rounds
CODE_THREADS = 1  # code's measured rounds run at the CLI's default; see README.md
FEATURE_SETS = ("tfidf", "da", "mc", "tfidf+da", "tfidf+mc", "da-tfidf", "mc-tfidf")
K_GRID = (16, 32, 64, 128)
MAX_DF, MIN_DF = 0.95, 0.05

# Input sizes
TRAIN_CORPORA = 4  # corpora a round trains one model set on each
TRAIN_SESSIONS = 20  # gold sessions the DA and MC taggers train on
TRAIN_SEQUENCES = 30  # punctuated turns the boundary model trains on
HELDOUT_SESSIONS = 20  # sessions the trained models are scored on
MODEL_SESSIONS = 20  # code set-up: gold sessions for the taggers
MODEL_SEQUENCES = 30  # code set-up: punctuated turns for the boundary model
CODE_SESSIONS = 60  # sessions coded per round
EVAL_CORPORA = 8  # corpora evaluated per round
EVAL_SESSIONS = 60  # sessions per evaluated corpus

# Floors of the quality checks; see README.md for the measured values.
TRAIN_BOUNDARY_F1 = 0.75
TRAIN_TAG_ACCURACY = 0.90
CODE_BOUNDARY_F1 = 0.75
CODE_TAG_AGREEMENT = 0.95
EVAL_MARGIN = 0.10

Call = tuple[str, list[str]]


def derive_seed(seed: int, part: str) -> int:
    """A synth seed for one part of a workload's inputs."""
    return int(hashlib.sha256(f"{seed}/{part}".encode()).hexdigest()[:8], 16)


def cli(*argv: object, threads: int = THREADS) -> list[str]:
    return ["--threads", str(threads), *(str(a) for a in argv)]


def synth(out: Path, seed: int, part: str, sessions: int) -> Call:
    return f"synth-{part}", cli("synth", "--out", out, "--seed", derive_seed(seed, part), "--n-sessions", sessions)


def train_calls(data: Path, out: Path, sequences: int) -> list[Call]:
    return [
        ("train-boundary", cli("train", "--what", "boundary", "--in", data / "boundary_text.txt",
                               "--max-sequences", sequences, "--out", out / "boundary.json")),
        ("train-da", cli("train", "--what", "da", "--in", data / "gold_tags.jsonl", "--out", out / "da.json")),
        ("train-mc", cli("train", "--what", "mc", "--in", data / "gold_tags.jsonl", "--out", out / "mc.json")),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: str
    setup: Callable[[int, Path], list[Call]]
    round: Callable[[Path, Path], list[Call]]
    # The round at --threads 2, timed alongside the traced rounds, where the
    # measured round runs at another thread count.
    threads2_round: Callable[[Path, Path], list[Call]] | None
    artifacts: Callable[[Path], list[Path]]
    check_calls: Callable[[Path, Path], list[Call]]
    check: Callable[[Path, Path], tuple[list[str], dict[str, float]]]


# -- train ------------------------------------------------------------------------


def _train_check_calls(setup: Path, work: Path) -> list[Call]:
    held = setup / "heldout"
    calls = []
    for i in range(TRAIN_CORPORA):
        models, out = work / f"models{i}", work / f"check{i}"
        calls += [
            ("check-segment", cli("segment", "--model", models / "boundary.json", "--in", held / "corpus.jsonl",
                                  "--out", out / "segmented.jsonl")),
            ("check-tag-da", cli("tag", "--scheme", "da", "--model", models / "da.json", "--in",
                                 held / "gold_tags.jsonl", "--out", out / "da.jsonl")),
            ("check-tag-mc", cli("tag", "--scheme", "mc", "--model", models / "mc.json", "--in",
                                 held / "gold_tags.jsonl", "--out", out / "mc.jsonl")),
        ]
    return calls


def _train_check(setup: Path, work: Path) -> tuple[list[str], dict[str, float]]:
    """Each trained model set, decoded on the held-out sessions, reaches the floors."""
    held = setup / "heldout"
    corpus = checks.read_jsonl(held / "corpus.jsonl")
    gold = checks.read_jsonl(held / "gold_tags.jsonl")
    gold_ends = checks.punctuation_ends(corpus, (held / "boundary_text.txt").read_text(encoding="utf-8").splitlines())
    floors = {"boundary_f1": TRAIN_BOUNDARY_F1, "da_accuracy": TRAIN_TAG_ACCURACY, "mc_accuracy": TRAIN_TAG_ACCURACY}
    errors: list[str] = []
    quality = {f"min_{k}": 1.0 for k in floors}
    for i in range(TRAIN_CORPORA):
        out = work / f"check{i}"
        segmented = checks.read_jsonl(out / "segmented.jsonl")
        errors += checks.check_tokens_kept(corpus, segmented, f"held-out segmentation by models{i}")
        found = {
            "boundary_f1": checks.end_f1(gold_ends, [checks.unit_ends(r) for r in segmented]),
            "da_accuracy": checks.utterance_accuracy(gold, checks.read_jsonl(out / "da.jsonl"), "da"),
            "mc_accuracy": checks.utterance_accuracy(gold, checks.read_jsonl(out / "mc.jsonl"), "mc"),
        }
        errors += [f"models{i}: {k} {found[k]:.3f} is below its floor {v}" for k, v in floors.items() if found[k] < v]
        quality = {f"min_{k}": min(quality[f"min_{k}"], found[k]) for k in floors}
    return errors, quality


TRAIN = Workload(
    name="train",
    why="boundary, DA and MC training: chain-CRF objective and L-BFGS do the work, no SVM",
    size=f"{TRAIN_CORPORA} model sets, each a boundary model on {TRAIN_SEQUENCES} punctuated turns "
    f"and DA and MC taggers on {TRAIN_SESSIONS} gold sessions",
    setup=lambda seed, d: [
        *(synth(d / f"corpus{i}", seed, f"corpus{i}", TRAIN_SESSIONS) for i in range(TRAIN_CORPORA)),
        synth(d / "heldout", seed, "heldout", HELDOUT_SESSIONS),
    ],
    round=lambda s, w: [
        call for i in range(TRAIN_CORPORA) for call in train_calls(s / f"corpus{i}", w / f"models{i}", TRAIN_SEQUENCES)
    ],
    threads2_round=None,
    artifacts=lambda w: [w / f"models{i}" / f"{m}.json" for i in range(TRAIN_CORPORA) for m in ("boundary", "da", "mc")],
    check_calls=_train_check_calls,
    check=_train_check,
)


# -- code -------------------------------------------------------------------------


def _code_round(setup: Path, work: Path, threads: int = CODE_THREADS) -> list[Call]:
    models = setup / "models"
    calls = [
        ("segment", cli("segment", "--model", models / "boundary.json", "--pause", "2.0",
                        "--in", setup / "input" / "corpus.jsonl", "--out", work / "segmented.jsonl", threads=threads)),
        ("tag-da", cli("tag", "--scheme", "da", "--model", models / "da.json",
                       "--in", work / "segmented.jsonl", "--out", work / "da.jsonl", threads=threads)),
        ("tag-mc", cli("tag", "--scheme", "mc", "--model", models / "mc.json",
                       "--in", work / "da.jsonl", "--out", work / "tagged.jsonl", threads=threads)),
    ]
    calls += [
        (f"featurize-{name}", cli("featurize", "--set", name, "--in", work / "tagged.jsonl",
                                  "--out", work / f"{name}.mtx", threads=threads))
        for name in FEATURE_SETS
    ]
    return calls


def _code_check(setup: Path, work: Path) -> tuple[list[str], dict[str, float]]:
    data = setup / "input"
    corpus = checks.read_jsonl(data / "corpus.jsonl")
    gold = checks.read_jsonl(data / "gold_tags.jsonl")
    lines = (data / "boundary_text.txt").read_text(encoding="utf-8").splitlines()
    segmented = checks.read_jsonl(work / "segmented.jsonl")
    tagged = checks.read_jsonl(work / "tagged.jsonl")
    errors = checks.check_tokens_kept(corpus, segmented, "segment")
    errors += checks.check_tokens_kept(corpus, tagged, "tag")
    if [checks.unit_ends(r) for r in segmented] != [checks.unit_ends(r) for r in tagged]:
        errors.append("tagging changed the utterance boundaries")
    da_agreement, matched = checks.matched_tag_agreement(gold, tagged, "da")
    quality = {
        "boundary_f1": checks.end_f1(
            checks.punctuation_ends(corpus, lines), [checks.unit_ends(r) for r in segmented]
        ),
        "utterances_matched": matched,
        "da_agreement": da_agreement,
        "mc_agreement": checks.matched_tag_agreement(gold, tagged, "mc")[0],
    }
    floors = {"boundary_f1": CODE_BOUNDARY_F1, "da_agreement": CODE_TAG_AGREEMENT, "mc_agreement": CODE_TAG_AGREEMENT}
    errors += [f"{k} {quality[k]:.3f} is below its floor {v}" for k, v in floors.items() if quality[k] < v]
    n = len(tagged)
    sample = sorted({0, n // 3, n // 2, (2 * n) // 3, n - 1})
    for name in FEATURE_SETS:
        matrix = checks.read_matrix(work / f"{name}.mtx")
        errors += checks.check_matrix(matrix, tagged, name, sample, MAX_DF, MIN_DF)
    return errors, quality


CODE = Workload(
    name="code",
    why="segment, tag and featurize a fresh corpus with trained models: parsing, Viterbi, tf-idf and I/O, no training or SVM",
    size=f"{CODE_SESSIONS} sessions: segment, tag DA, tag MC, then featurize all 7 sets",
    setup=lambda seed, d: [
        synth(d / "gold", seed, "models", MODEL_SESSIONS),
        *train_calls(d / "gold", d / "models", MODEL_SEQUENCES),
        synth(d / "input", seed, "input", CODE_SESSIONS),
    ],
    round=_code_round,
    threads2_round=lambda s, w: _code_round(s, w, threads=2),
    artifacts=lambda w: [w / "segmented.jsonl", w / "da.jsonl", w / "tagged.jsonl",
                         *(w / f"{name}.mtx" for name in FEATURE_SETS)],
    check_calls=lambda s, w: [],
    check=_code_check,
)


# -- evaluate ---------------------------------------------------------------------


def _eval_round(setup: Path, work: Path) -> list[Call]:
    grid = ",".join(str(k) for k in K_GRID)
    calls = []
    for i in range(EVAL_CORPORA):
        corpus, out = setup / f"corpus{i}", work / f"corpus{i}"
        for name in ("tfidf", "mc-tfidf"):
            calls.append((f"featurize-{name}", cli("featurize", "--set", name, "--in", corpus / "gold_tags.jsonl",
                                                   "--out", out / f"{name}.mtx")))
            calls.append((f"evaluate-{name}", cli("evaluate", "--matrix", out / f"{name}.mtx", "--labels",
                                                  corpus / "labels.csv", "--k-grid", grid,
                                                  "--report", out / f"report_{name}.json")))
        calls.append(("compare", cli("compare", "--a", "mc-tfidf", "--b", "tfidf", "--in",
                                     corpus / "gold_tags.jsonl", "--labels", corpus / "labels.csv",
                                     "--k-grid", grid, "--out", out / "compare.json")))
    return calls


def _eval_artifacts(work: Path) -> list[Path]:
    return [
        work / f"corpus{i}" / name
        for i in range(EVAL_CORPORA)
        for name in ("tfidf.mtx", "mc-tfidf.mtx", "report_tfidf.json", "report_mc-tfidf.json", "compare.json")
    ]


def _eval_check(setup: Path, work: Path) -> tuple[list[str], dict[str, float]]:
    errors: list[str] = []
    reports: dict[str, list[dict]] = {"tfidf": [], "mc-tfidf": []}
    for i in range(EVAL_CORPORA):
        out = work / f"corpus{i}"
        for name, found in reports.items():
            report = checks.read_payload(out / f"report_{name}.json")
            errors += [f"corpus{i} {name}: {e}" for e in checks.check_report(report, EVAL_SESSIONS, K_GRID)]
            found.append(report)
        errors += [f"corpus{i} compare: {e}" for e in checks.check_comparison(checks.read_payload(out / "compare.json"))]
    errors += checks.check_margin(reports["mc-tfidf"], reports["tfidf"], EVAL_MARGIN)
    quality = {
        f"total_f1_{name}": checks.pooled_f1(*(sum(c) for c in zip(*map(checks.total_counts, found))))
        for name, found in reports.items()
    }
    return errors, quality


EVALUATE = Workload(
    name="evaluate",
    why="featurize, evaluate and compare tfidf and mc-tfidf on gold-tagged corpora: SMO fits do most of the work",
    size=f"{EVAL_CORPORA} gold-tagged corpora of {EVAL_SESSIONS} sessions: featurize and evaluate tfidf and mc-tfidf, compare",
    setup=lambda seed, d: [synth(d / f"corpus{i}", seed, f"corpus{i}", EVAL_SESSIONS) for i in range(EVAL_CORPORA)],
    round=_eval_round,
    threads2_round=None,
    artifacts=_eval_artifacts,
    check_calls=lambda s, w: [],
    check=_eval_check,
)

WORKLOADS = {w.name: w for w in (TRAIN, CODE, EVALUATE)}
