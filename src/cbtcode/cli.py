"""Command-line front end.

Subcommands: synth, segment, tag, featurize, train, evaluate, compare.
Exit codes: 0 success, 2 validation error, 3 missing artifact, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import CODES, binarize_scores, parse_corpus, read_scores_table, write_corpus, write_scores_table
from .errors import CbtCodeError, MissingArtifactError, ValidationError
from .evaluate import five_by_two_cv_f_test, run_protocol
from .features import anova_f_scores, apply_scaler, fit_scaler, top_k_mask
from .pipeline import (
    FEATURE_SETS,
    PipelineConfig,
    PipelineModels,
    build_feature_matrix,
    run_end_to_end,
    segment_corpus,
    tag_corpus,
)
from .segmenter import make_boundary_training_data, train_boundary_model
from .serialize import (
    load_chain_crf,
    load_utterance_classifier,
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
from .svm import class_weights, train_svm
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbtcode",
        description="Behavioral-code prediction pipeline for diarized session transcripts.",
    )
    parser.add_argument("--version", action="version", version=f"cbtcode {__version__}")
    parser.add_argument("--threads", type=int, default=1, help="accepted for compatibility; currently has no effect")
    parser.add_argument("--seed", type=int, dest="global_seed", help="default seed for subcommands")
    parser.add_argument("--config", dest="global_config", help="default config file for subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with plantable signal")
    p.add_argument("--config", help="synth config JSON (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--n-sessions", type=int, help="override the config session count")

    p = sub.add_parser("segment", help="pause-split turns and segment them into utterances")
    p.add_argument("--model", help="boundary model file (omit with --disable)")
    p.add_argument("--pause", type=float, default=2.0, help="pause threshold in seconds")
    p.add_argument("--disable", action="store_true", help="pause-split only (no boundary model)")
    p.add_argument("--in", dest="input", required=True, help="corpus JSONL")
    p.add_argument("--out", required=True, help="segmented corpus JSONL")

    p = sub.add_parser("tag", help="tag utterances with one scheme")
    p.add_argument("--scheme", choices=("da", "mc"), required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True, help="segmented or tagged corpus JSONL")
    p.add_argument("--out", required=True, help="tagged corpus JSONL")

    p = sub.add_parser("featurize", help="build a feature matrix from a tagged corpus")
    p.add_argument("--set", "--features", dest="feature_set", choices=FEATURE_SETS, required=True)
    p.add_argument("--in", dest="input", required=True, help="tagged corpus JSONL")
    p.add_argument("--out", required=True, help="matrix file")
    p.add_argument("--max-df", type=float, default=0.95)
    p.add_argument("--min-df", type=float, default=0.05)
    p.add_argument("--word-denominator", choices=("therapist", "session"), default="therapist")
    p.add_argument("--space-out", help="also write the fitted feature-space file")

    p = sub.add_parser("train", help="train a model (SVM, boundary labeler, or tagger)")
    p.add_argument("--what", choices=("svm", "boundary", "da", "mc"), default="svm")
    p.add_argument("--code", choices=list(CODES) + ["total"], help="code task (svm)")
    p.add_argument("--features", help="feature matrix file (svm)")
    p.add_argument("--in", dest="input", help="training input (boundary text / tagged corpus)")
    p.add_argument("--labels", help="labels CSV (svm; falls back to --scores-from)")
    p.add_argument("--scores-from", help="corpus/tagged JSONL with embedded scores (svm)")
    p.add_argument("--k", type=int, help="keep the k best features by F score, >= 1 (svm)")
    p.add_argument("--c", type=float, default=1.0, help="SVM C")
    p.add_argument("--l2", type=float, default=0.1, help="L2 strength, finite and >= 0 (boundary/da/mc)")
    p.add_argument("--max-sequences", type=int, help="cap on training sequences, >= 1 (boundary)")
    p.add_argument("--out", required=True, help="model file")

    p = sub.add_parser("evaluate", help="run the cross-validated evaluation protocol")
    p.add_argument("--matrix", help="feature matrix file (skips featurization)")
    p.add_argument("--features", "--set", dest="feature_set", choices=FEATURE_SETS, help="feature set name")
    p.add_argument("--in", dest="input", help="corpus (turn-level) or tagged corpus JSONL")
    p.add_argument("--labels", help="labels CSV keyed by session id")
    # These flags default to None: one passed overrides --config, which
    # overrides the PipelineConfig defaults given in the help.
    p.add_argument("--folds", type=int, help="default 5")
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--k-grid", help="default 16,32,64,128")
    p.add_argument("--c", type=float, help="SVM C, default 1.0")
    p.add_argument("--max-df", type=float, help="default 0.95")
    p.add_argument("--min-df", type=float, help="default 0.05")
    p.add_argument("--word-denominator", choices=("therapist", "session"), help="default therapist")
    p.add_argument("--report", required=True, help="report JSON output")
    p.add_argument("--table", help="plain-text table output")
    p.add_argument("--out-dir", help="directory for intermediate artifacts (end-to-end mode)")
    p.add_argument("--boundary-model")
    p.add_argument("--da-model")
    p.add_argument("--mc-model")
    p.add_argument("--pause", type=float, help="pause threshold in seconds, default 2.0")
    p.add_argument("--no-segmentation", action="store_const", const=False, dest="segmentation")
    p.add_argument("--config", help="pipeline config JSON (flags passed override it)")

    p = sub.add_parser("compare", help="combined 5x2cv F test between two feature sets")
    p.add_argument("--a", dest="set_a", choices=FEATURE_SETS, required=True)
    p.add_argument("--b", dest="set_b", choices=FEATURE_SETS, required=True)
    p.add_argument("--in", dest="input", required=True, help="tagged corpus JSONL")
    p.add_argument("--labels", help="labels CSV keyed by session id")
    p.add_argument("--code", choices=list(CODES) + ["total"], default="total")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k-grid", default="16,32,64,128")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--max-df", type=float, default=0.95)
    p.add_argument("--min-df", type=float, default=0.05)
    p.add_argument("--out", required=True, help="comparison JSON output")

    return parser


def _resolved_seed(args, fallback: int = 0) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if getattr(args, "global_seed", None) is not None:
        return args.global_seed
    return fallback


def _resolved_config_path(args):
    return getattr(args, "config", None) or getattr(args, "global_config", None)


def _cmd_synth(args) -> int:
    config_path = _resolved_config_path(args)
    config = SynthConfig.from_file(config_path) if config_path else SynthConfig()
    seed = args.seed if args.seed is not None else getattr(args, "global_seed", None)
    if seed is not None:
        config = replace(config, seed=seed)
    if args.n_sessions is not None:
        config = replace(config, n_sessions=args.n_sessions)
    result = generate_corpus(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(result.sessions, out / "corpus.jsonl")
    write_tagged_corpus(result.tagged, out / "gold_tags.jsonl")
    write_scores_table(
        {s.id: s.scores for s in result.sessions if s.scores is not None}, out / "labels.csv"
    )
    (out / "boundary_text.txt").write_text("\n".join(result.boundary_lines) + "\n", encoding="utf-8")
    save_artifact(out / "synth_manifest.json", "synth_manifest", {"config": config.to_payload()})
    print(f"wrote {len(result.sessions)} sessions to {out}")
    return 0


def _cmd_segment(args) -> int:
    sessions = parse_corpus(args.input)
    model = None
    if not args.disable:
        if not args.model:
            raise MissingArtifactError("segment needs --model (or pass --disable)")
        model = load_chain_crf(args.model, expect_scheme="boundary")
    segmented = segment_corpus(sessions, model, args.pause)
    write_corpus(segmented, args.out)
    n_utts = sum(len(s.turns) for s in segmented)
    print(f"segmented {len(segmented)} sessions into {n_utts} utterances -> {args.out}")
    return 0


def _cmd_tag(args) -> int:
    sessions = parse_corpus(args.input, sniff_corpus_kind(args.input))
    if args.scheme == "da":
        model = load_chain_crf(args.model, expect_scheme="da")
    else:
        model = load_utterance_classifier(args.model, expect_scheme="mc")
    tagged = tag_corpus(sessions, args.scheme, model)
    write_tagged_corpus(tagged, args.out)
    print(f"tagged {len(tagged)} sessions with {args.scheme} -> {args.out}")
    return 0


def _cmd_featurize(args) -> int:
    sessions = read_tagged_corpus(args.input)
    matrix = build_feature_matrix(sessions, args.feature_set, args.max_df, args.min_df, args.word_denominator)
    write_matrix(matrix, args.out)
    if args.space_out:
        save_feature_space(matrix, args.space_out)
    print(f"featurized {len(sessions)} sessions into {matrix.X.shape} ({args.feature_set}) -> {args.out}")
    return 0


def _scores_for(session_ids, labels_path, scores_from_path):
    if labels_path:
        return read_scores_table(labels_path)
    if scores_from_path:
        sessions = parse_corpus(scores_from_path, sniff_corpus_kind(scores_from_path))
        return {s.id: s.scores for s in sessions if s.scores is not None}
    raise ValidationError("no label source: pass --labels or an input with embedded scores")


def _cmd_train(args) -> int:
    if args.what == "svm":
        if not args.features or not args.code:
            raise ValidationError("train --what svm needs --features and --code")
        if args.k is not None and args.k < 1:
            raise ValidationError(f"--k must be at least 1, got {args.k}")
        matrix = read_matrix(args.features)
        scores = _scores_for(matrix.session_ids, args.labels, args.scores_from or args.input)
        missing = sorted(sid for sid in matrix.session_ids if sid not in scores)
        if missing:
            raise ValidationError(f"missing labels for sessions: {missing}")
        y = np.array(
            [binarize_scores(scores[sid])[args.code] for sid in matrix.session_ids], dtype=bool
        )
        selectable = np.asarray(matrix.selectable, dtype=bool)
        k = args.k if args.k is not None else int(selectable.sum())
        scores_f = anova_f_scores(matrix.X, y)
        mask = top_k_mask(scores_f, selectable, k)
        cols = np.flatnonzero(mask)
        scaler = fit_scaler(matrix.X[:, cols])
        X = apply_scaler(matrix.X[:, cols], scaler)
        model = train_svm(X, y, C=args.c, weights=class_weights(y))
        model = replace(
            model,
            space_fingerprint=matrix.fingerprint,
            feature_mask=tuple(int(c) for c in cols),
            scaler_mean=scaler.mean,
            scaler_std=scaler.std,
        )
        save_linear_model(model, args.out, code=args.code)
        print(f"trained svm for {args.code} on {X.shape[0]} sessions, {X.shape[1]} features -> {args.out}")
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
        data = make_boundary_training_data(lines)
        model = train_boundary_model(data, l2=args.l2)
        save_chain_crf(model, args.out)
        print(f"trained boundary model on {len(data)} sequences -> {args.out}")
        return 0
    # da / mc taggers train on gold-tagged corpora
    if not args.input:
        raise ValidationError(f"train --what {args.what} needs --in (gold-tagged corpus)")
    sessions = read_tagged_corpus(args.input)
    if args.what == "da":
        model = train_chain_crf(da_training_sequences(sessions), DA_TAG_SET, l2=args.l2)
        save_chain_crf(model, args.out)
    else:
        model = train_utterance_classifier(mc_training_examples(sessions), l2=args.l2)
        save_utterance_classifier(model, args.out)
    print(f"trained {args.what} tagger on {len(sessions)} sessions -> {args.out}")
    return 0


def _evaluate_config(args) -> PipelineConfig:
    """The --config file (or the defaults) with every flag the user passed applied."""
    config_path = _resolved_config_path(args)
    config = PipelineConfig.from_file(config_path) if config_path else PipelineConfig()
    passed = {
        "feature_set": args.feature_set,
        "pause_threshold": args.pause,
        "segmentation": args.segmentation,
        "max_df": args.max_df,
        "min_df": args.min_df,
        "k_grid": None if args.k_grid is None else _parse_k_grid(args.k_grid),
        "svm_c": args.c,
        "folds": args.folds,
        "seed": args.seed if args.seed is not None else args.global_seed,
        "word_denominator": args.word_denominator,
    }
    return replace(config, **{name: value for name, value in passed.items() if value is not None})


def _cmd_evaluate(args) -> int:
    config = _evaluate_config(args)
    protocol = (config.folds, config.seed, config.k_grid, config.svm_c)
    if args.matrix:
        matrix = read_matrix(args.matrix)
        scores = _scores_for(matrix.session_ids, args.labels, args.input)
        report = run_protocol(matrix, scores, *protocol)
    else:
        if not args.feature_set or not args.input:
            raise ValidationError("evaluate needs --matrix, or --set with --in")
        kind = sniff_corpus_kind(args.input)
        if kind == "turns":
            models = PipelineModels(boundary=args.boundary_model, da=args.da_model, mc=args.mc_model)
            out_dir = args.out_dir or str(Path(args.report).parent / "artifacts")
            table_scores = read_scores_table(args.labels) if args.labels else None
            report, paths = run_end_to_end(config, args.input, models, out_dir, scores=table_scores)
            save_report(report, args.report)
            if args.table:
                Path(args.table).write_text(report.format_table(), encoding="utf-8")
            print(report.format_table(), end="")
            print(f"report -> {args.report} (artifacts in {out_dir})")
            return 0
        sessions = read_tagged_corpus(args.input)
        matrix = build_feature_matrix(sessions, config.feature_set, config.max_df, config.min_df,
                                      config.word_denominator)
        scores = _scores_for(matrix.session_ids, args.labels, args.input)
        report = run_protocol(matrix, scores, *protocol)
    save_report(report, args.report)
    if args.table:
        Path(args.table).write_text(report.format_table(), encoding="utf-8")
    print(report.format_table(), end="")
    print(f"report -> {args.report}")
    return 0


def _cmd_compare(args) -> int:
    k_grid = _parse_k_grid(args.k_grid)
    seed = _resolved_seed(args)
    sessions = read_tagged_corpus(args.input)
    scores = _scores_for([s.id for s in sessions], args.labels, args.input)
    matrices = {}
    for name in (args.set_a, args.set_b):
        if name not in matrices:
            matrices[name] = build_feature_matrix(sessions, name, args.max_df, args.min_df)
    result = five_by_two_cv_f_test(
        matrices[args.set_a],
        matrices[args.set_b],
        scores,
        code=args.code,
        seed=seed,
        k_grid=k_grid,
        svm_c=args.c,
    )
    save_comparison(result, args.out, set_a=args.set_a, set_b=args.set_b, code=args.code, seed=seed)
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


if __name__ == "__main__":
    sys.exit(main())
