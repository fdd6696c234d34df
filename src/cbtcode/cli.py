"""Command-line front end.

Subcommands: synth, segment, tag, featurize, train, evaluate, compare.
Exit codes: 0 success, 2 validation error or unusable path (a directory
where a file is expected, or the reverse), 3 missing artifact, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import embedded_scores, parse_corpus, read_scores_table, write_corpus, write_scores_table
from .errors import CbtCodeError, MissingArtifactError, MissingLabelsError, ValidationError
from .evaluate import LABEL_COLUMNS, FoldTask, fit_folds_and_count, five_by_two_cv_f_test, label_matrix, run_protocol
from .pipeline import FEATURE_SETS, PipelineConfig, build_feature_matrix, segment_corpus, tag_corpus
from .segmenter import make_boundary_training_data, train_boundary_model
from .serialize import (
    load_chain_crf,
    read_matrix,
    read_tagged_corpus,
    save_artifact,
    save_chain_crf,
    save_feature_space,
    save_comparison,
    save_linear_model,
    save_report,
    save_utterance_classifier,
    sniff_corpus_kind,
    write_matrix,
    write_tagged_corpus,
)
from .synth import SynthConfig, generate_corpus
from .tagger import (
    DA_TAG_SET,
    da_training_sequences,
    mc_training_examples,
    train_chain_crf,
    train_utterance_classifier,
)


def _parse_k_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"bad k grid {text!r}; expected comma-separated integers") from None
    if not grid:
        raise ValidationError("k grid is empty")
    return grid


# The flag of each PipelineConfig field a subcommand may take.  Each
# defaults to None, so that `_config` applies only the flags passed.
_STAGE_FLAGS = {
    "pause_threshold": ("--pause", dict(type=float, help="pause threshold in seconds")),
    "max_df": ("--max-df", dict(type=float, help="keep words in at most this share of sessions")),
    "min_df": ("--min-df", dict(type=float, help="keep words in at least this share of sessions")),
    "k_grid": ("--k-grid", dict(help="comma-separated K values")),
    "svm_c": ("--c", dict(type=float, help="SVM C")),
    "folds": ("--folds", dict(type=int, help="cross-validation folds")),
    "seed": ("--seed", dict(type=int, help="fold-assignment seed")),
}


def _add_stage_flags(p: argparse.ArgumentParser, *fields: str) -> None:
    for field in fields:
        flag, kwargs = _STAGE_FLAGS[field]
        default = getattr(PipelineConfig, field)
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
        p.add_argument(flag, dest=field, default=None, **{**kwargs, "help": f"{kwargs['help']} (default {shown})"})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbtcode",
        description="Behavioral-code prediction pipeline for diarized session transcripts.",
    )
    parser.add_argument("--version", action="version", version=f"cbtcode {__version__}")
    parser.add_argument("--threads", type=int, default=1, help="accepted for compatibility; currently has no effect")
    parser.add_argument("--config", dest="global_config", help="default config file for subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with plantable signal")
    p.add_argument("--config", help="synth config JSON (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--n-sessions", type=int, help="override the config session count")

    p = sub.add_parser("segment", help="pause-split turns and segment them into utterances")
    p.add_argument("--model", help="boundary model file (omit with --disable)")
    _add_stage_flags(p, "pause_threshold")
    p.add_argument("--disable", action="store_const", const=False, dest="segmentation",
                   help="pause-split only (no boundary model)")
    p.add_argument("--in", dest="input", required=True, help="corpus JSONL")
    p.add_argument("--out", required=True, help="segmented corpus JSONL")

    p = sub.add_parser("tag", help="tag utterances with one scheme")
    p.add_argument("--scheme", choices=("da", "mc"), required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True, help="segmented or tagged corpus JSONL")
    p.add_argument("--out", required=True, help="tagged corpus JSONL")

    p = sub.add_parser("featurize", help="build a feature matrix from a tagged corpus")
    p.add_argument("--set", dest="feature_set", choices=FEATURE_SETS, required=True)
    p.add_argument("--in", dest="input", required=True, help="tagged corpus JSONL")
    p.add_argument("--out", required=True, help="matrix file")
    _add_stage_flags(p, "max_df", "min_df")
    p.add_argument("--space-out", help="also write the fitted feature-space file")

    p = sub.add_parser("train", help="train a model (SVM, boundary labeler, or tagger)")
    p.add_argument("--what", choices=("svm", "boundary", "da", "mc"), default="svm")
    p.add_argument("--code", choices=LABEL_COLUMNS, help="code task (svm)")
    p.add_argument("--features", help="feature matrix file (svm)")
    p.add_argument("--in", dest="input",
                   help="training input (boundary text / tagged corpus; svm: corpus with embedded scores)")
    p.add_argument("--labels", help="labels CSV (svm; falls back to the scores embedded in --in)")
    p.add_argument("--k", type=int, help="keep the k best features by F score, >= 1 (svm)")
    _add_stage_flags(p, "svm_c")
    p.add_argument("--l2", type=float, help="L2 strength, finite and >= 0 (boundary/da/mc; default 0.1)")
    p.add_argument("--max-sequences", type=int, help="cap on training sequences, >= 1 (boundary)")
    p.add_argument("--out", required=True, help="model file")

    p = sub.add_parser("evaluate", help="run the cross-validated evaluation protocol")
    p.add_argument("--matrix", required=True, help="feature matrix file")
    p.add_argument("--in", dest="input", help="corpus JSONL with embedded scores (labels without --labels)")
    p.add_argument("--labels", help="labels CSV keyed by session id (falls back to the scores embedded in --in)")
    _add_stage_flags(p, "folds", "seed", "k_grid", "svm_c")
    p.add_argument("--report", required=True, help="report JSON output")
    p.add_argument("--table", help="plain-text table output")

    p = sub.add_parser("compare", help="combined 5x2cv F test between two feature sets")
    p.add_argument("--a", dest="set_a", choices=FEATURE_SETS, required=True)
    p.add_argument("--b", dest="set_b", choices=FEATURE_SETS, required=True)
    p.add_argument("--in", dest="input", required=True, help="tagged corpus JSONL")
    p.add_argument("--labels", help="labels CSV keyed by session id")
    p.add_argument("--code", choices=LABEL_COLUMNS, default="total")
    _add_stage_flags(p, "seed", "k_grid", "svm_c", "max_df", "min_df")
    p.add_argument("--out", required=True, help="comparison JSON output")

    return parser


def _config(args):
    """The synth config from `synth --config`, else the pipeline config from
    the global --config, or its defaults, with every flag passed for one of
    its fields applied."""
    cls, path = (SynthConfig, args.config) if args.command == "synth" else (PipelineConfig, args.global_config)
    config = cls.from_file(path) if path else cls()
    passed = {name: value for name, value in vars(args).items()
              if name in cls.__dataclass_fields__ and value is not None}
    if "k_grid" in passed:
        passed["k_grid"] = _parse_k_grid(passed["k_grid"])
    return replace(config, **passed)


@contextmanager
def _reading(path, errors=ValidationError):
    """Name path in an error of the kind errors raised in the block, which works on what was read from it."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _cmd_synth(args) -> int:
    config = _config(args)
    result = generate_corpus(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(result.sessions, out / "corpus.jsonl")
    write_tagged_corpus(result.tagged, out / "gold_tags.jsonl")
    write_scores_table(embedded_scores(result.sessions), out / "labels.csv")
    (out / "boundary_text.txt").write_text("\n".join(result.boundary_lines) + "\n", encoding="utf-8")
    save_artifact(out / "synth_manifest.json", "synth_manifest", {"config": config.to_payload()})
    print(f"wrote {len(result.sessions)} sessions to {out}")
    return 0


def _cmd_segment(args) -> int:
    config = _config(args)
    if not config.segmentation and args.model:
        raise ValidationError("--model applies only with segmentation on, not with --disable or segmentation: false")
    sessions = parse_corpus(args.input)
    model = None
    if config.segmentation:
        if not args.model:
            raise MissingArtifactError("segment needs --model (or pass --disable)")
        model = load_chain_crf(args.model, expect_scheme="boundary")
    segmented = segment_corpus(sessions, model, config.pause_threshold)
    write_corpus(segmented, args.out)
    n_utts = sum(len(s.turns) for s in segmented)
    print(f"segmented {len(segmented)} sessions into {n_utts} utterances -> {args.out}")
    return 0


def _cmd_tag(args) -> int:
    sessions = parse_corpus(args.input, sniff_corpus_kind(args.input))
    tagged = tag_corpus(sessions, args.scheme, load_chain_crf(args.model, expect_scheme=args.scheme))
    write_tagged_corpus(tagged, args.out)
    print(f"tagged {len(tagged)} sessions with {args.scheme} -> {args.out}")
    return 0


def _cmd_featurize(args) -> int:
    config = _config(args)
    sessions = read_tagged_corpus(args.input)
    with _reading(args.input):
        matrix = build_feature_matrix(sessions, args.feature_set, config.max_df, config.min_df)
    write_matrix(matrix, args.out)
    if args.space_out:
        save_feature_space(matrix, args.space_out)
    print(f"featurized {len(sessions)} sessions into {matrix.X.shape} ({args.feature_set}) -> {args.out}")
    return 0


def _scores_for(labels_path, corpus_path):
    if labels_path:
        return read_scores_table(labels_path)
    if corpus_path:
        return embedded_scores(parse_corpus(corpus_path, sniff_corpus_kind(corpus_path)))
    raise ValidationError("no label source: pass --labels or an input with embedded scores")


# The train flags that only some --what values read, by dest: the flag and those values.
_TRAIN_FLAG_USES = {
    "max_sequences": ("--max-sequences", ("boundary",)),
    "l2": ("--l2", ("boundary", "da", "mc")),
    "code": ("--code", ("svm",)),
    "features": ("--features", ("svm",)),
    "labels": ("--labels", ("svm",)),
    "k": ("--k", ("svm",)),
    "svm_c": ("--c", ("svm",)),
}


def _cmd_train(args) -> int:
    for dest, (flag, whats) in _TRAIN_FLAG_USES.items():
        if getattr(args, dest) is not None and args.what not in whats:
            raise ValidationError(f"{flag} applies only to --what {'|'.join(whats)}, not --what {args.what}")
    l2 = 0.1 if args.l2 is None else args.l2
    if not 0.0 <= l2 < math.inf:  # NaN too
        raise ValidationError(f"--l2 must be finite and non-negative, got {l2}")
    if args.what == "svm":
        if not args.features or not args.code:
            raise ValidationError("train --what svm needs --features and --code")
        if args.k is not None and args.k < 1:
            raise ValidationError(f"--k must be at least 1, got {args.k}")
        svm_c = _config(args).svm_c
        matrix = read_matrix(args.features)
        scores = _scores_for(args.labels, args.input)
        with _reading(args.labels or args.input, MissingLabelsError):
            y = label_matrix(matrix.session_ids, scores)[:, LABEL_COLUMNS.index(args.code)]
        selectable = np.asarray(matrix.selectable, dtype=bool)
        k = args.k if args.k is not None else int(selectable.sum())
        rows = np.arange(len(y))
        fit = fit_folds_and_count([FoldTask(matrix.X, selectable, y, rows, rows[:0], k)], svm_c)[0]
        cols = np.flatnonzero(fit.mask)
        model = replace(
            fit.model,
            space_fingerprint=matrix.fingerprint,
            feature_mask=tuple(int(c) for c in cols),
            scaler_mean=fit.scaler.mean,
            scaler_std=fit.scaler.std,
        )
        save_linear_model(model, args.out, code=args.code)
        print(f"trained svm for {args.code} on {len(y)} sessions, {len(cols)} features -> {args.out}")
        return 0
    if args.what == "boundary":
        if not args.input:
            raise ValidationError("train --what boundary needs --in (punctuated text file)")
        if args.max_sequences is not None and args.max_sequences < 1:
            raise ValidationError(f"--max-sequences must be at least 1, got {args.max_sequences}")
        path = Path(args.input)
        if not path.exists():
            raise MissingArtifactError(f"boundary training text not found: {path}")
        lines = [ln.split() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
        if args.max_sequences is not None:
            lines = lines[: args.max_sequences]
        with _reading(path):
            data = make_boundary_training_data(lines)
            model = train_boundary_model(data, l2=l2)
        save_chain_crf(model, args.out)
        print(f"trained boundary model on {len(data)} sequences -> {args.out}")
        return 0
    # da / mc taggers train on gold-tagged corpora
    if not args.input:
        raise ValidationError(f"train --what {args.what} needs --in (gold-tagged corpus)")
    sessions = read_tagged_corpus(args.input)
    with _reading(args.input):
        if args.what == "da":
            model = train_chain_crf(da_training_sequences(sessions), DA_TAG_SET, l2=l2)
        else:
            model = train_utterance_classifier(mc_training_examples(sessions), l2=l2)
    (save_chain_crf if args.what == "da" else save_utterance_classifier)(model, args.out)
    print(f"trained {args.what} tagger on {len(sessions)} sessions -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _config(args)
    matrix = read_matrix(args.matrix)
    scores = _scores_for(args.labels, args.input)
    with _reading(args.labels or args.input, MissingLabelsError):
        report = run_protocol(matrix, scores, config.folds, config.seed, config.k_grid, config.svm_c)
    save_report(report, args.report)
    if args.table:
        Path(args.table).write_text(report.format_table(), encoding="utf-8")
    print(report.format_table(), end="")
    print(f"report -> {args.report}")
    return 0


def _cmd_compare(args) -> int:
    """The 5x2cv F test under the pipeline config; its folds are fixed by the method."""
    config = _config(args)
    sessions = read_tagged_corpus(args.input)
    scores = read_scores_table(args.labels) if args.labels else embedded_scores(sessions)
    matrices = {}
    with _reading(args.input):
        for name in (args.set_a, args.set_b):
            if name not in matrices:
                matrices[name] = build_feature_matrix(sessions, name, config.max_df, config.min_df)
    with _reading(args.labels or args.input, MissingLabelsError):
        result = five_by_two_cv_f_test(matrices[args.set_a], matrices[args.set_b], scores, code=args.code,
                                       seed=config.seed, k_grid=config.k_grid, svm_c=config.svm_c)
    save_comparison(result, args.out, set_a=args.set_a, set_b=args.set_b, code=args.code, seed=config.seed)
    if result.f_statistic is None:
        print(f"{args.set_a} vs {args.set_b} on {args.code}: no difference")
    else:
        print(
            f"{args.set_a} vs {args.set_b} on {args.code}: f={result.f_statistic:.4f} "
            f"F{result.degrees} p={result.p_value:.4f} -> {result.verdict}"
        )
    print(f"comparison -> {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "segment": _cmd_segment,
    "tag": _cmd_tag,
    "featurize": _cmd_featurize,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CbtCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a path the command cannot open or create
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return ValidationError.exit_code


if __name__ == "__main__":
    sys.exit(main())
