"""End-to-end CLI flows: every subcommand runs, composes, and is deterministic."""

import argparse
import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cbtcode
from cbtcode.cli import _build_parser, main
from cbtcode.corpus import CODES
from cbtcode.evaluate import make_folds
from cbtcode.pipeline import PipelineConfig
from cbtcode.serialize import load_artifact, load_chain_crf, load_linear_model, read_matrix
from cbtcode.svm import decision_function
from cbtcode.synth import SynthConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus plus trained models, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    models = root / "models"
    models.mkdir()

    config = {
        "n_sessions": 60,
        "utterances_per_session": [8, 14],
        "seed": 5,
    }
    cfg_path = root / "synth.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0

    assert (
        main(
            [
                "train",
                "--what",
                "boundary",
                "--in",
                str(data / "boundary_text.txt"),
                "--max-sequences",
                "250",
                "--l2",
                "0.05",
                "--out",
                str(models / "boundary.json"),
            ]
        )
        == 0
    )
    for scheme in ("da", "mc"):
        assert (
            main(
                [
                    "train",
                    "--what",
                    scheme,
                    "--in",
                    str(data / "gold_tags.jsonl"),
                    "--l2",
                    "0.05",
                    "--out",
                    str(models / f"{scheme}.json"),
                ]
            )
            == 0
        )
    tfidf = root / "tfidf.mtx"
    assert main(["featurize", "--set", "tfidf", "--in", str(data / "gold_tags.jsonl"), "--out", str(tfidf)]) == 0
    return {"root": root, "data": data, "models": models, "tfidf": tfidf}


def test_synth_outputs_exist(workspace):
    data = workspace["data"]
    for name in ("corpus.jsonl", "gold_tags.jsonl", "labels.csv", "boundary_text.txt", "synth_manifest.json"):
        assert (data / name).exists(), name


def test_synth_deterministic(workspace, tmp_path):
    data = workspace["data"]
    cfg = workspace["root"] / "synth.json"
    out2 = tmp_path / "data2"
    assert main(["synth", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("corpus.jsonl", "gold_tags.jsonl", "labels.csv", "boundary_text.txt"):
        assert (out2 / name).read_bytes() == (data / name).read_bytes(), name


def test_segment_tag_featurize_evaluate_chain(workspace, tmp_path):
    data, models = workspace["data"], workspace["models"]
    seg = tmp_path / "seg.jsonl"
    assert (
        main(
            ["segment", "--model", str(models / "boundary.json"), "--in", str(data / "corpus.jsonl"), "--out", str(seg)]
        )
        == 0
    )
    tagged = tmp_path / "tagged.jsonl"
    assert (
        main(["tag", "--scheme", "mc", "--model", str(models / "mc.json"), "--in", str(seg), "--out", str(tagged)])
        == 0
    )
    # chaining the other scheme preserves existing tags
    tagged2 = tmp_path / "tagged2.jsonl"
    assert (
        main(["tag", "--scheme", "da", "--model", str(models / "da.json"), "--in", str(tagged), "--out", str(tagged2)])
        == 0
    )
    matrix_path = tmp_path / "mc_tfidf.mtx"
    assert main(["featurize", "--set", "mc-tfidf", "--in", str(tagged2), "--out", str(matrix_path)]) == 0
    matrix = read_matrix(matrix_path)
    assert matrix.set_name == "mc-tfidf"
    assert matrix.X.shape[0] == 60

    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "evaluate",
                "--matrix",
                str(matrix_path),
                "--labels",
                str(data / "labels.csv"),
                "--k-grid",
                "8,16",
                "--seed",
                "1",
                "--report",
                str(report_path),
            ]
        )
        == 0
    )
    report = load_artifact(report_path, "eval_report")
    assert report["feature_set"] == "mc-tfidf"
    assert 0.0 <= report["codes"]["total"]["f1"] <= 1.0

    # determinism: same invocation, byte-identical report
    report2 = tmp_path / "report2.json"
    assert (
        main(
            [
                "evaluate",
                "--matrix",
                str(matrix_path),
                "--labels",
                str(data / "labels.csv"),
                "--k-grid",
                "8,16",
                "--seed",
                "1",
                "--report",
                str(report2),
            ]
        )
        == 0
    )
    assert report_path.read_bytes() == report2.read_bytes()


def test_tfidf_report_identical_with_and_without_segmentation(workspace, tmp_path):
    """tfidf ignores utterance boundaries, and its step-by-step path needs one
    tag pass with either tagger."""
    data, models = workspace["data"], workspace["models"]
    segmented, reports = [], []
    for name, segment in (("on", ["--model", str(models / "boundary.json")]), ("off", ["--disable"])):
        seg, tagged, matrix = tmp_path / f"{name}_seg.jsonl", tmp_path / f"{name}_tagged.jsonl", tmp_path / f"{name}.mtx"
        assert main(["segment", *segment, "--in", str(data / "corpus.jsonl"), "--out", str(seg)]) == 0
        assert main(["tag", "--scheme", "da", "--model", str(models / "da.json"), "--in", str(seg),
                     "--out", str(tagged)]) == 0
        assert main(["featurize", "--set", "tfidf", "--in", str(tagged), "--out", str(matrix)]) == 0
        report = tmp_path / f"{name}.json"
        assert main(["evaluate", "--matrix", str(matrix), "--in", str(tagged), "--k-grid", "8,16", "--seed", "2",
                     "--report", str(report)]) == 0
        segmented.append(seg.read_bytes())
        reports.append(report.read_bytes())
    assert segmented[0] != segmented[1]
    assert reports[0] == reports[1]


def test_threads_do_not_change_output(workspace, tmp_path):
    data, models = workspace["data"], workspace["models"]
    seg = tmp_path / "seg.jsonl"
    main(["segment", "--model", str(models / "boundary.json"), "--in", str(data / "corpus.jsonl"), "--out", str(seg)])
    tagged = tmp_path / "tagged.jsonl"
    main(["tag", "--scheme", "mc", "--model", str(models / "mc.json"), "--in", str(seg), "--out", str(tagged)])
    m1 = tmp_path / "t1.mtx"
    m4 = tmp_path / "t4.mtx"
    assert main(["--threads", "1", "featurize", "--set", "mc-tfidf", "--in", str(tagged), "--out", str(m1)]) == 0
    assert main(["--threads", "4", "featurize", "--set", "mc-tfidf", "--in", str(tagged), "--out", str(m4)]) == 0
    assert m1.read_bytes() == m4.read_bytes()


def test_train_svm_subcommand(workspace, tmp_path):
    data, models = workspace["data"], workspace["models"]
    seg = tmp_path / "seg.jsonl"
    main(["segment", "--model", str(models / "boundary.json"), "--in", str(data / "corpus.jsonl"), "--out", str(seg)])
    tagged = tmp_path / "tagged.jsonl"
    main(["tag", "--scheme", "mc", "--model", str(models / "mc.json"), "--in", str(seg), "--out", str(tagged)])
    matrix_path = tmp_path / "m.mtx"
    main(["featurize", "--set", "mc-tfidf", "--in", str(tagged), "--out", str(matrix_path)])
    model_path = tmp_path / "svm.json"
    assert (
        main(
            [
                "train",
                "--what",
                "svm",
                "--code",
                "total",
                "--features",
                str(matrix_path),
                "--labels",
                str(data / "labels.csv"),
                "--k",
                "16",
                "--out",
                str(model_path),
            ]
        )
        == 0
    )
    model = load_linear_model(model_path)
    assert model.feature_mask is not None and len(model.feature_mask) >= 16
    assert model.scaler_mean is not None


def test_compare_subcommand(workspace, tmp_path):
    data, models = workspace["data"], workspace["models"]
    seg = tmp_path / "seg.jsonl"
    main(["segment", "--model", str(models / "boundary.json"), "--in", str(data / "corpus.jsonl"), "--out", str(seg)])
    tagged = tmp_path / "tagged.jsonl"
    main(["tag", "--scheme", "mc", "--model", str(models / "mc.json"), "--in", str(seg), "--out", str(tagged)])
    out = tmp_path / "cmp.json"
    assert (
        main(
            [
                "compare",
                "--a",
                "mc-tfidf",
                "--b",
                "mc-tfidf",
                "--in",
                str(tagged),
                "--labels",
                str(data / "labels.csv"),
                "--k-grid",
                "8",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())["payload"]
    assert payload["verdict"] == "no difference"


def test_session_order_does_not_change_matrices_reports_or_compare(tmp_path):
    """The same gold-tagged corpus with its session lines shuffled."""
    data = tmp_path / "data"
    assert main(["synth", "--n-sessions", "40", "--seed", "3", "--out", str(data)]) == 0
    lines = (data / "gold_tags.jsonl").read_text(encoding="utf-8").splitlines(True)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines[i] for i in np.random.default_rng(0).permutation(len(lines))), "utf-8")
    outputs = {}
    for name, corpus in (("sorted", data / "gold_tags.jsonl"), ("shuffled", shuffled)):
        out = tmp_path / name
        for feature_set in ("tfidf", "mc-tfidf", "da"):
            matrix = out / f"{feature_set}.mtx"
            assert main(["featurize", "--set", feature_set, "--in", str(corpus), "--out", str(matrix)]) == 0
            assert main(["evaluate", "--matrix", str(matrix), "--labels", str(data / "labels.csv"),
                         "--k-grid", "8,16", "--report", str(out / f"{feature_set}.json")]) == 0
        assert main(["compare", "--a", "mc-tfidf", "--b", "tfidf", "--in", str(corpus), "--labels",
                     str(data / "labels.csv"), "--k-grid", "8,16", "--out", str(out / "compare.json")]) == 0
        outputs[name] = out
    for feature_set in ("tfidf", "mc-tfidf", "da"):
        a, b = (read_matrix(outputs[name] / f"{feature_set}.mtx") for name in ("sorted", "shuffled"))
        assert b.session_ids != a.session_ids and sorted(b.session_ids) == sorted(a.session_ids)
        assert (b.set_name, b.names, b.selectable, b.provenance, b.fingerprint) == (
            a.set_name, a.names, a.selectable, a.provenance, a.fingerprint)
        assert np.array_equal(b.X[[b.session_ids.index(sid) for sid in a.session_ids]], a.X)
    for report in ("tfidf.json", "mc-tfidf.json", "da.json", "compare.json"):
        assert (outputs["shuffled"] / report).read_bytes() == (outputs["sorted"] / report).read_bytes(), report


def test_featurize_space_out(workspace, tmp_path):
    data, models = workspace["data"], workspace["models"]
    seg = tmp_path / "seg.jsonl"
    main(["segment", "--model", str(models / "boundary.json"), "--in", str(data / "corpus.jsonl"), "--out", str(seg)])
    tagged = tmp_path / "tagged.jsonl"
    main(["tag", "--scheme", "mc", "--model", str(models / "mc.json"), "--in", str(seg), "--out", str(tagged)])
    space_path = tmp_path / "space.json"
    assert (
        main(
            ["featurize", "--set", "mc-tfidf", "--in", str(tagged), "--out", str(tmp_path / "m.mtx"),
             "--space-out", str(space_path)]
        )
        == 0
    )
    payload = json.loads(space_path.read_text())["payload"]
    assert payload["provenance"] == "augmented_tfidf"
    assert payload["max_df"] == 0.95 and payload["min_df"] == 0.05
    assert len(payload["names"]) == len(payload["df"]) == len(payload["idf"])


def test_global_seed_flag_matches_local(workspace, tmp_path):
    data, models = workspace["data"], workspace["models"]
    seg = tmp_path / "seg.jsonl"
    main(["segment", "--model", str(models / "boundary.json"), "--in", str(data / "corpus.jsonl"), "--out", str(seg)])
    tagged = tmp_path / "tagged.jsonl"
    main(["tag", "--scheme", "mc", "--model", str(models / "mc.json"), "--in", str(seg), "--out", str(tagged)])
    matrix = tmp_path / "m.mtx"
    main(["featurize", "--set", "mc", "--in", str(tagged), "--out", str(matrix)])
    r_local = tmp_path / "local.json"
    r_global = tmp_path / "global.json"
    common = ["--matrix", str(matrix), "--labels", str(data / "labels.csv"), "--k-grid", "8"]
    assert main(["evaluate", *common, "--seed", "7", "--report", str(r_local)]) == 0
    assert main(["--seed", "7", "evaluate", *common, "--report", str(r_global)]) == 0
    assert r_local.read_bytes() == r_global.read_bytes()


def _add_seed_key(src, dst):
    """Copy a model file, adding the "seed" field that older versions wrote."""
    doc = json.loads(src.read_text(encoding="utf-8"))
    assert "seed" not in doc["payload"]
    doc["payload"]["seed"] = 0
    dst.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("model", ["boundary", "da", "mc"])
def test_tagger_file_with_seed_key_decodes_identically(workspace, tmp_path, model):
    data, models = workspace["data"], workspace["models"]
    old = tmp_path / f"old_{model}.json"
    _add_seed_key(models / f"{model}.json", old)
    outputs = []
    for path in (models / f"{model}.json", old):
        out = tmp_path / f"{path.stem}.jsonl"
        if model == "boundary":
            argv = ["segment", "--model", str(path), "--in", str(data / "corpus.jsonl")]
        else:
            argv = ["tag", "--scheme", model, "--model", str(path), "--in", str(data / "gold_tags.jsonl")]
        assert main([*argv, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_svm_file_with_seed_key_decodes_identically(workspace, tmp_path):
    data = workspace["data"]
    matrix_path = tmp_path / "mc.mtx"
    assert main(["featurize", "--set", "mc", "--in", str(data / "gold_tags.jsonl"), "--out", str(matrix_path)]) == 0
    new = tmp_path / "svm.json"
    argv = ["train", "--what", "svm", "--code", "total", "--features", str(matrix_path),
            "--labels", str(data / "labels.csv"), "--out", str(new)]
    assert main(argv) == 0
    old = tmp_path / "old_svm.json"
    _add_seed_key(new, old)
    a, b = load_linear_model(new), load_linear_model(old)
    for field in ("bias", "C", "weight_low", "weight_high", "n_iter", "gap", "converged",
                  "space_fingerprint", "feature_mask"):
        assert getattr(a, field) == getattr(b, field), field
    for field in ("weights", "scaler_mean", "scaler_std"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    X = read_matrix(matrix_path).X[:, list(a.feature_mask)]
    assert np.array_equal(decision_function(a, X), decision_function(b, X))


@pytest.mark.parametrize(
    "build",
    [
        lambda: SynthConfig(seed=-1),
        lambda: PipelineConfig(seed=-1),
        lambda: make_folds(["a", "b"], 2, -1, np.array([True, False])),
    ],
    ids=["synth-config", "pipeline-config", "make-folds"],
)
def test_negative_seed_is_a_validation_error(build):
    with pytest.raises(cbtcode.errors.ValidationError, match="seed must be non-negative, got -1"):
        build()


def _written(tmp_path, name, argv, out_flag="--out"):
    """The bytes that a successful run of argv writes to a new file."""
    out = tmp_path / name
    assert main([*argv, out_flag, str(out)]) == 0, argv
    return out.read_bytes()


def _global_config(tmp_path, values):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    return ["--config", str(path)]


def test_evaluate_config_values_reach_the_run(workspace, tmp_path):
    """The protocol fields reach `evaluate`'s report, and the segmentation
    fields `segment`'s output, under one config file."""
    data = workspace["data"]
    run = _global_config(tmp_path, {"folds": 3, "pause_threshold": 3.5, "segmentation": False, "k_grid": [16],
                                    "seed": 4})
    evaluate = ["evaluate", "--matrix", str(workspace["tfidf"]), "--in", str(data / "gold_tags.jsonl")]
    report = json.loads(_written(tmp_path, "r.json", [*run, *evaluate], "--report"))["payload"]
    assert (report["n_folds"], report["chosen_k"], report["seed"]) == (3, 16, 4)
    segment = ["segment", "--in", str(data / "corpus.jsonl")]
    segmented = _written(tmp_path, "config.jsonl", [*run, *segment])
    assert segmented == _written(tmp_path, "flags.jsonl", [*segment, "--disable", "--pause", "3.5"])
    assert segmented != _written(tmp_path, "default_pause.jsonl", [*segment, "--disable"])


def test_evaluate_flags_passed_override_the_config(workspace, tmp_path):
    """Flags passed override the config's protocol fields; its max_df reaches `featurize`."""
    data = workspace["data"]
    run = _global_config(tmp_path, {"folds": 3, "pause_threshold": 3.5, "k_grid": [16], "seed": 4, "max_df": 0.9})
    featurize = ["featurize", "--set", "tfidf", "--in", str(data / "gold_tags.jsonl")]
    matrix = tmp_path / "config.mtx"
    assert main([*run, *featurize, "--out", str(matrix)]) == 0
    assert matrix.read_bytes() == _written(tmp_path, "flag.mtx", [*featurize, "--max-df", "0.9"])
    evaluate = ["evaluate", "--matrix", str(matrix), "--in", str(data / "gold_tags.jsonl")]
    flags = ["--folds", "2", "--k-grid", "8", "--seed", "6"]
    under_config = _written(tmp_path, "config.json", [*run, *evaluate, *flags], "--report")
    report = json.loads(under_config)["payload"]
    assert (report["n_folds"], report["chosen_k"], report["seed"]) == (2, 8, 6)
    assert under_config == _written(tmp_path, "flags.json", [*evaluate, *flags], "--report")
    segment = ["segment", "--disable", "--in", str(data / "corpus.jsonl")]
    segmented = _written(tmp_path, "config.jsonl", [*run, *segment])
    assert segmented == _written(tmp_path, "flag.jsonl", [*segment, "--pause", "3.5"])
    assert segmented != _written(tmp_path, "default.jsonl", segment)


def test_nan_pause_is_exit_2_and_inf_is_accepted(workspace, tmp_path, capsys):
    data, models = workspace["data"], workspace["models"]
    common = ["--model", str(models / "boundary.json"), "--in", str(data / "corpus.jsonl")]
    assert main(["segment", *common, "--pause", "nan", "--out", str(tmp_path / "nan.jsonl")]) == 2
    assert "pause_threshold must be positive" in capsys.readouterr().err
    assert not (tmp_path / "nan.jsonl").exists()
    assert main(["segment", *common, "--pause", "inf", "--out", str(tmp_path / "inf.jsonl")]) == 0
    with pytest.raises(cbtcode.errors.ValidationError, match="pause_threshold"):
        PipelineConfig(pause_threshold=float("nan"))


def test_nan_pause_in_a_pipeline_config_is_exit_2(workspace, tmp_path, capsys):
    config = tmp_path / "pipeline.json"
    config.write_text('{"pause_threshold": NaN}', encoding="utf-8")  # Python's json reads NaN
    out = tmp_path / "seg.jsonl"
    rc = main(["--config", str(config), "segment", "--disable", "--in", str(workspace["data"] / "corpus.jsonl"),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {config}: " in err and "pause_threshold" in err, err
    assert not out.exists()


def test_one_global_config_gives_the_same_files_step_by_step_as_its_flags(workspace, tmp_path):
    """Under one config, `segment`, `tag`, `featurize` and `evaluate --matrix`
    write what the same values passed as flags write."""
    data, models = workspace["data"], workspace["models"]
    run = _global_config(tmp_path, {"max_df": 0.5, "min_df": 0.2, "k_grid": [2, 8], "seed": 3, "svm_c": 0.5,
                                    "pause_threshold": 1.5})
    seg, tagged, matrix = tmp_path / "seg.jsonl", tmp_path / "tagged.jsonl", tmp_path / "m.mtx"
    segment = ["segment", "--model", str(models / "boundary.json"), "--in", str(data / "corpus.jsonl")]
    assert main([*run, *segment, "--out", str(seg)]) == 0
    assert seg.read_bytes() == _written(tmp_path, "pause.jsonl", [*segment, "--pause", "1.5"])
    assert main([*run, "tag", "--scheme", "mc", "--model", str(models / "mc.json"), "--in", str(seg),
                 "--out", str(tagged)]) == 0
    featurize = ["featurize", "--set", "mc-tfidf", "--in", str(tagged)]
    assert main([*run, *featurize, "--out", str(matrix)]) == 0
    assert matrix.read_bytes() == _written(tmp_path, "flags.mtx", [*featurize, "--max-df", "0.5", "--min-df", "0.2"])
    evaluate = ["evaluate", "--matrix", str(matrix), "--labels", str(data / "labels.csv")]
    chain = _written(tmp_path, "chain.json", [*run, *evaluate], "--report")
    flags = _written(tmp_path, "flags.json", [*evaluate, "--k-grid", "2,8", "--seed", "3", "--c", "0.5"], "--report")
    assert flags == chain
    report = json.loads(chain)["payload"]
    assert report["seed"] == 3 and report["chosen_k"] in (2, 8)


def test_featurize_and_compare_under_the_config_equal_the_same_flags(workspace, tmp_path):
    data = workspace["data"]
    values = {"max_df": 0.5, "min_df": 0.2, "word_denominator": "session", "k_grid": [2], "seed": 3, "svm_c": 0.5}
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps(values), encoding="utf-8")
    df_flags = ["--max-df", "0.5", "--min-df", "0.2"]
    runs = {
        "featurize": (["featurize", "--set", "tfidf+mc", "--in", str(data / "gold_tags.jsonl")],
                      [*df_flags, "--word-denominator", "session"]),
        "compare": (["compare", "--a", "mc-tfidf", "--b", "tfidf", "--in", str(data / "gold_tags.jsonl"),
                     "--labels", str(data / "labels.csv")], [*df_flags, "--k-grid", "2", "--seed", "3", "--c", "0.5"]),
    }
    for name, (argv, flags) in runs.items():
        outputs = []
        for where, pre, post in (("config", ["--config", str(config)], []), ("flags", [], flags),
                                 ("defaults", [], [])):
            out = tmp_path / f"{name}_{where}"
            assert main([*pre, *argv, *post, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
        assert outputs[0] != outputs[2], name


def test_synth_ignores_the_global_pipeline_config(tmp_path):
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"max_df": 0.5, "k_grid": [2], "seed": 3}), encoding="utf-8")
    run = ["synth", "--n-sessions", "6", "--seed", "2", "--out"]
    assert main(["--config", str(config), *run, str(tmp_path / "with")]) == 0
    assert main([*run, str(tmp_path / "without")]) == 0
    names = sorted(p.name for p in (tmp_path / "without").iterdir())
    assert sorted(p.name for p in (tmp_path / "with").iterdir()) == names
    for name in names:
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes(), name


def test_every_flag_of_a_config_field_defaults_to_none():
    """A flag's default would override the config file even when not passed."""
    fields = set(PipelineConfig.__dataclass_fields__) | set(SynthConfig.__dataclass_fields__)
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    checked = set()
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest in fields:
                assert action.default is None, (command, action.option_strings)
                checked.add(action.dest)
    assert checked == {"pause_threshold", "segmentation", "max_df", "min_df", "k_grid", "svm_c",
                       "folds", "seed", "word_denominator", "n_sessions"}


@pytest.mark.parametrize("c", [float("nan"), float("inf"), 0.0, -1.0])
def test_pipeline_config_rejects_a_nonpositive_or_nonfinite_svm_c(c):
    with pytest.raises(cbtcode.errors.ValidationError, match="positive and finite, got svm_c="):
        PipelineConfig(svm_c=c)


def test_session_ids_with_spaces_and_non_ascii_survive_featurize_and_evaluate(workspace, tmp_path):
    data = workspace["data"]
    prefix = "séance ü "  # a shared prefix keeps the sorted order, hence the folds
    records = [json.loads(line) for line in (data / "gold_tags.jsonl").read_text(encoding="utf-8").splitlines()]
    renamed = tmp_path / "renamed.jsonl"
    renamed.write_text(
        "".join(json.dumps({**r, "id": prefix + r["id"]}) + "\n" for r in records), encoding="utf-8"
    )
    header, *rows = (data / "labels.csv").read_text(encoding="utf-8").splitlines()
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join([header, *(prefix + row for row in rows)]) + "\n", encoding="utf-8")
    reports = []
    for corpus, label_file, name in ((data / "gold_tags.jsonl", data / "labels.csv", "plain"), (renamed, labels, "renamed")):
        matrix = tmp_path / f"{name}.mtx"
        report = tmp_path / f"{name}.json"
        assert main(["featurize", "--set", "tfidf", "--in", str(corpus), "--out", str(matrix)]) == 0
        assert main(["evaluate", "--matrix", str(matrix), "--labels", str(label_file), "--k-grid", "8,16",
                     "--report", str(report)]) == 0
        reports.append(report.read_bytes())
    assert read_matrix(tmp_path / "renamed.mtx").session_ids == tuple(prefix + r["id"] for r in records)
    assert reports[0] == reports[1]


def test_model_file_that_is_not_a_json_object_is_exit_2(workspace, tmp_path, capsys):
    for body in (b"[1, 2]", b'{"kind": "\xff"}'):
        model = tmp_path / "m.json"
        model.write_bytes(body)
        rc = main(["tag", "--scheme", "mc", "--model", str(model), "--in", str(workspace["data"] / "gold_tags.jsonl"),
                   "--out", str(tmp_path / "out.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{model}: " in err and err.count(str(model)) == 1, err


def test_model_file_with_a_bad_payload_is_exit_2_and_names_the_field(workspace, tmp_path, capsys):
    doc = json.loads((workspace["models"] / "mc.json").read_text(encoding="utf-8"))
    blob = base64.b64decode(doc["payload"]["weights"])
    short = {**doc["payload"], "weights": base64.b64encode(blob[:-8]).decode("ascii")}
    list_form = {**doc["payload"], "weights": np.frombuffer(blob, "<f8").tolist()}
    for name, payload in (("empty", {}), ("short_row", short), ("list_form", list_form)):
        model = tmp_path / f"{name}.json"
        model.write_text(json.dumps({**doc, "payload": payload}), encoding="utf-8")
        rc = main(["tag", "--scheme", "mc", "--model", str(model), "--in", str(workspace["data"] / "gold_tags.jsonl"),
                   "--out", str(tmp_path / "out.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        field = "scheme" if name == "empty" else "weights"
        assert f"{model}: payload field {field!r}" in err and err.count(str(model)) == 1, err
        assert ("must be retrained" in err) == (name == "list_form"), err


@pytest.mark.parametrize(
    "body",
    [b"[1, 2]", b'{"n_sessions": 3', b'{"n_sessions": "x"}', b'{"n_sessions": 2.5}', b'{"seed": "\xff"}',
     b'{"utterances_per_turn": [1, 2, 3]}', b'{"rules": [{"keyword": "kw"}]}', b'{"vocabulary_size": 0}',
     b'{"vocabulary_size": -3}', b'{"rules": [{"keyword": "two words", "tag": "RE", "code": "un"}]}'],
    ids=["list", "truncated", "string-field", "float-for-int", "not-utf8", "long-pair", "rule-without-fields",
         "zero-vocabulary", "negative-vocabulary", "two-word-keyword"],
)
def test_bad_synth_config_is_exit_2_and_names_the_file(tmp_path, capsys, body):
    config = tmp_path / "synth.json"
    config.write_bytes(body)
    rc = main(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {config}: " in err and err.count(str(config)) == 1, err


@pytest.mark.parametrize(
    "body, message",
    [(b"[1, 2]", None), (b'{"folds": 5', None), (b'{"folds": "x"}', None), (b'{"k_grid": [16, "32"]}', None),
     (b'{"max_df": "\xff"}', None), (b'{"threads": 4}', "unknown pipeline config fields: ['threads']"),
     (b'{"feature_set": "tfidf", "seed": 1}', "unknown pipeline config fields: ['feature_set']")],
    ids=["list", "truncated", "string-field", "string-in-list", "not-utf8", "threads", "feature-set"],
)
def test_bad_pipeline_config_is_exit_2_and_names_the_file(workspace, tmp_path, capsys, body, message):
    config, report = tmp_path / "pipeline.json", tmp_path / "r.json"
    config.write_bytes(body)
    rc = main(["--config", str(config), "evaluate", "--matrix", str(workspace["tfidf"]), "--labels",
               str(workspace["data"] / "labels.csv"), "--report", str(report)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {config}: " in err and err.count(str(config)) == 1, err
    if message:
        assert err == f"error: {config}: {message}\n"
    assert not report.exists()


_SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
from cbtcode.cli import main
loaded = {"import": scipy_modules()}
for step in json.loads(sys.argv[1]):
    if main(step["argv"]) != 0:
        raise SystemExit(f"{step['name']} failed")
    loaded[step["name"]] = scipy_modules()
print(json.dumps(loaded))
"""


def test_only_training_loads_scipy(workspace, tmp_path):
    """In a fresh interpreter, neither `import cbtcode.cli` nor any subcommand
    but training loads a scipy module; `train --what da` loads scipy.sparse."""
    data, models = workspace["data"], workspace["models"]
    tiny, seg, mc, tagged = tmp_path / "tiny", tmp_path / "seg.jsonl", tmp_path / "mc.jsonl", tmp_path / "tagged.jsonl"
    steps = {
        "synth": ["synth", "--n-sessions", "20", "--seed", "5", "--out", tiny],
        "segment": ["segment", "--model", models / "boundary.json", "--in", tiny / "corpus.jsonl", "--out", seg],
        "tag --scheme mc": ["tag", "--scheme", "mc", "--model", models / "mc.json", "--in", seg, "--out", mc],
        "tag --scheme da": ["tag", "--scheme", "da", "--model", models / "da.json", "--in", mc, "--out", tagged],
        "featurize": ["featurize", "--set", "mc-tfidf", "--in", tagged, "--out", tmp_path / "m.mtx"],
        "evaluate --matrix": ["evaluate", "--matrix", tmp_path / "m.mtx", "--labels", tiny / "labels.csv",
                              "--k-grid", "8", "--report", tmp_path / "r.json"],
        "compare": ["compare", "--a", "mc-tfidf", "--b", "tfidf", "--in", tagged, "--labels", tiny / "labels.csv",
                    "--k-grid", "8", "--out", tmp_path / "cmp.json"],
        "train --what da": ["train", "--what", "da", "--in", tiny / "gold_tags.jsonl", "--out", tmp_path / "da.json"],
    }
    plan = json.dumps([{"name": name, "argv": list(map(str, argv))} for name, argv in steps.items()])
    env = {**os.environ, "PYTHONPATH": str(Path(cbtcode.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, plan], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert list(loaded) == ["import", *steps]
    for name in ["import", *steps][:-1]:
        assert loaded[name] == [], name
    assert "scipy.sparse" in loaded["train --what da"]


class TestExitCodes:
    def test_missing_artifact_is_exit_3(self, tmp_path):
        rc = main(
            ["evaluate", "--matrix", str(tmp_path / "missing.mtx"), "--labels", str(tmp_path / "x.csv"),
             "--report", str(tmp_path / "r.json")]
        )
        assert rc == 3

    def test_validation_error_is_exit_2(self, workspace, tmp_path):
        rc = main(
            ["evaluate", "--matrix", str(workspace["tfidf"]), "--labels", str(workspace["data"] / "labels.csv"),
             "--k-grid", "not,numbers", "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2

    def test_corpus_without_scores_is_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "bare.jsonl"
        token = {"text": "hi", "start_s": 0.0, "end_s": 0.2}
        utterance = {"speaker": "therapist", "index": 0, "tokens": [token], "da": None, "mc": None}
        record = {"format_version": 1, "id": "s1", "utterances": [utterance], "scores": None}
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        matrix, report = tmp_path / "m.mtx", tmp_path / "r.json"
        # the df bounds keep the one session's vocabulary, so the labels are what fails
        assert main(["featurize", "--set", "tfidf", "--in", str(corpus), "--max-df", "1", "--min-df", "0",
                     "--out", str(matrix)]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--matrix", str(matrix), "--in", str(corpus), "--report", str(report)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {corpus}: missing labels for 1 of 1 sessions: 's1'\n"
        assert not report.exists()

    def test_missing_tagger_model_is_exit_3(self, workspace, tmp_path, capsys):
        missing, out = tmp_path / "missing.json", tmp_path / "tagged.jsonl"
        rc = main(["tag", "--scheme", "mc", "--model", str(missing), "--in", str(workspace["data"] / "gold_tags.jsonl"),
                   "--out", str(out)])
        assert rc == 3
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_scheme_model_is_exit_2(self, workspace, tmp_path):
        data, models = workspace["data"], workspace["models"]
        seg = tmp_path / "seg.jsonl"
        main(["segment", "--model", str(models / "boundary.json"), "--in", str(data / "corpus.jsonl"), "--out", str(seg)])
        rc = main(
            ["tag", "--scheme", "da", "--model", str(models / "mc.json"), "--in", str(seg), "--out", str(tmp_path / "t.jsonl")]
        )
        assert rc == 2

    def test_matrix_col_without_name_is_exit_2(self, tmp_path, capsys):
        matrix = tmp_path / "bad.mtx"
        matrix.write_text(
            "#format_version 1\n#kind feature_matrix\n#shape 1 1\n#row s1\n#col 1\n0 0 1.0\n",
            encoding="utf-8",
        )
        labels = tmp_path / "labels.csv"
        labels.write_text("id,ag,at,co,fb,gd,hw,ip,cb,pt,sc,un\ns1,1,1,1,1,1,1,1,1,1,1,1\n", encoding="utf-8")
        rc = main(["evaluate", "--matrix", str(matrix), "--labels", str(labels), "--report", str(tmp_path / "r.json")])
        assert rc == 2
        assert f"{matrix}, line 5:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "token", [{"text": 5, "start_s": 0.0, "end_s": 0.2}, {"start_s": 0.0, "end_s": 0.2}]
    )
    def test_bad_token_is_exit_2_and_named_once(self, tmp_path, capsys, token):
        corpus = tmp_path / "bad_token.jsonl"
        record = {
            "format_version": 1,
            "id": "s1",
            "turns": [{"speaker": "therapist", "tokens": [token]}],
            "scores": None,
        }
        corpus.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        rc = main(["segment", "--disable", "--in", str(corpus), "--out", str(tmp_path / "seg.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{corpus}, line 2:" in err
        assert err.count(str(corpus)) == 1

    @pytest.mark.parametrize("command", ["tag", "featurize"])
    def test_tagged_utterance_without_tokens_is_exit_2(self, workspace, tmp_path, capsys, command):
        corpus = tmp_path / "tagged.jsonl"
        record = {
            "format_version": 1,
            "id": "s1",
            "scores": None,
            "utterances": [{"speaker": "therapist", "index": 0, "da": None, "mc": None}],
        }
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        if command == "tag":
            argv = ["tag", "--scheme", "mc", "--model", str(workspace["models"] / "mc.json")]
        else:
            argv = ["featurize", "--set", "tfidf"]
        rc = main([*argv, "--in", str(corpus), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{corpus}, line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "set_header, body, error",
        [("#set tfidf\n", "#row s1\n#row s1\n#col 1 a\n0 0 1.0\n", ", line 6: duplicate session id 's1'"),
         ("#set tfidf\n", "#row s1\n#row s2\n#col 1 a\n1 0 nan\n", ", line 8: value nan is not finite"),
         ("", "#row s1\n#row s2\n#col 1 a\n0 0 1.0\n", ": expected a '#set <feature set>' header"),
         ("#set bogus\n", "#row s1\n#row s2\n#col 1 a\n0 0 1.0\n", ", line 3: unknown feature set 'bogus'; "),
         ("#set \n", "#row s1\n#row s2\n#col 1 a\n0 0 1.0\n", ", line 3: unknown feature set ''; ")],
        ids=["duplicate-row", "nan-value", "no-set", "unknown-set", "empty-set"],
    )
    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_bad_matrix_line_is_exit_2(self, tmp_path, capsys, command, set_header, body, error):
        matrix, out = tmp_path / "bad.mtx", tmp_path / "out.json"
        matrix.write_text("#format_version 1\n#kind feature_matrix\n" + set_header + "#shape 2 1\n" + body,
                          encoding="utf-8")
        labels = ["--labels", str(tmp_path / "labels.csv")]
        if command == "evaluate":
            argv = ["evaluate", "--matrix", str(matrix), *labels, "--report", str(out)]
        else:
            argv = ["train", "--what", "svm", "--code", "total", "--features", str(matrix), *labels, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {matrix}{error}")
        assert not out.exists()

    def test_tagged_utterance_with_infinite_index_is_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "tagged.jsonl"
        token = {"text": "hi", "start_s": 0.0, "end_s": 0.2}
        utterance = {"speaker": "therapist", "index": float("inf"), "tokens": [token], "da": None, "mc": None}
        record = {"format_version": 1, "id": "s1", "scores": None, "utterances": [utterance]}
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        rc = main(["featurize", "--set", "tfidf", "--in", str(corpus), "--out", str(tmp_path / "m.mtx")])
        assert rc == 2
        assert f"{corpus}, line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["7", 2.9, True, -1, None], ids=["string", "float", "bool", "negative", "null"])
    @pytest.mark.parametrize("command", ["tag", "featurize"])
    def test_tagged_utterance_index_that_is_not_a_count_is_exit_2_and_named_once(
        self, workspace, tmp_path, capsys, command, index
    ):
        token = {"text": "hi", "start_s": 0.0, "end_s": 0.2}
        utterances = [
            {"speaker": "therapist", "index": 0, "tokens": [token], "da": None, "mc": None},
            {"speaker": "patient", "index": index, "tokens": [token], "da": None, "mc": None},
        ]
        record = {"format_version": 1, "id": "s1", "scores": None, "utterances": utterances}
        corpus = tmp_path / "bad_index.jsonl"
        corpus.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        if command == "tag":
            argv = ["tag", "--scheme", "mc", "--model", str(workspace["models"] / "mc.json")]
        else:
            argv = ["featurize", "--set", "tfidf"]
        rc = main([*argv, "--in", str(corpus), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{corpus}, line 2: utterance 1: index must be a non-negative integer, got {index!r}" in err
        assert err.count(str(corpus)) == 1

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["synth", "--n-sessions", "1", "--out", "{file}"], "{file}"),
            (["segment", "--disable", "--in", "{corpus}", "--out", "{file}/x.jsonl"], "{file}"),
            (["featurize", "--set", "tfidf", "--in", "{gold}", "--out", "{file}/x.mtx"], "{file}"),
            (["segment", "--disable", "--in", "{corpus}", "--out", "{dir}"], "{dir}"),
            (["segment", "--disable", "--in", "{dir}", "--out", "{out}"], "{dir}"),
            (["tag", "--scheme", "mc", "--model", "{dir}", "--in", "{gold}", "--out", "{out}"], "{dir}"),
            (["evaluate", "--matrix", "{dir}", "--labels", "{labels}", "--report", "{out}"], "{dir}"),
        ],
        ids=["synth-out-file", "segment-out-under-file", "featurize-out-under-file", "segment-out-dir",
             "segment-in-dir", "tag-model-dir", "evaluate-matrix-dir"],
    )
    def test_unusable_path_is_exit_2_and_named(self, workspace, tmp_path, capsys, argv, named):
        data = workspace["data"]
        paths = dict(file=tmp_path / "a_file", dir=tmp_path / "a_dir", out=tmp_path / "out", corpus=data / "corpus.jsonl",
                     gold=data / "gold_tags.jsonl", labels=data / "labels.csv")
        paths["file"].write_text("x", encoding="utf-8")
        paths["dir"].mkdir()
        rc = main([arg.format(**paths) for arg in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named.format(**paths)}: "), err
        assert not paths["out"].exists()

    def test_train_svm_with_zero_c_is_exit_2(self, tmp_path, capsys):
        matrix = tmp_path / "m.mtx"
        matrix.write_text(
            "#format_version 1\n#kind feature_matrix\n#set tfidf\n#shape 2 1\n#row s1\n#row s2\n#col 1 a\n0 0 1.0\n"
            "1 0 -1.0\n",
            encoding="utf-8",
        )
        labels = tmp_path / "labels.csv"
        rows = ["id," + ",".join(CODES), "s1," + ",".join(["6"] * 11), "s2," + ",".join(["0"] * 11)]
        labels.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = ["train", "--what", "svm", "--code", "total", "--features", str(matrix), "--labels", str(labels)]
        assert main([*argv, "--c", "0", "--out", str(tmp_path / "svm.json")]) == 2
        assert "C and the class weights must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("l2", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("what", ["boundary", "da", "mc"])
    def test_train_with_a_negative_or_nonfinite_l2_is_exit_2(self, workspace, tmp_path, capsys, what, l2):
        source = workspace["data"] / ("boundary_text.txt" if what == "boundary" else "gold_tags.jsonl")
        out = tmp_path / "model.json"
        assert main(["train", "--what", what, "--in", str(source), "--l2", l2, "--out", str(out)]) == 2
        assert f"l2 must be finite and non-negative, got {float(l2)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("feature_set", ["tfidf", "tfidf+mc"])
    def test_train_svm_with_k_below_1_is_exit_2(self, workspace, tmp_path, capsys, feature_set, k):
        data = workspace["data"]
        matrix = tmp_path / "m.mtx"
        assert main(["featurize", "--set", feature_set, "--in", str(data / "gold_tags.jsonl"), "--out", str(matrix)]) == 0
        out = tmp_path / "svm.json"
        argv = ["train", "--what", "svm", "--code", "total", "--features", str(matrix), "--labels", str(data / "labels.csv")]
        assert main([*argv, "--k", k, "--out", str(out)]) == 2
        assert f"--k must be at least 1, got {k}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, where",
        [(c, w) for c in ("synth", "evaluate", "compare") for w in ("flag", "global", "config")]
        + [(c, w) for c in ("segment", "featurize", "train-svm") for w in ("global", "config")],
    )
    def test_negative_seed_is_exit_2_and_names_the_seed(self, workspace, tmp_path, capsys, command, where):
        data, models = workspace["data"], workspace["models"]
        body = {}
        if command == "synth":
            argv = ["synth", "--out", str(tmp_path / "out")]
            body = {"n_sessions": 4}
        elif command in ("evaluate", "train-svm"):
            matrix = tmp_path / "m.mtx"
            assert main(["featurize", "--set", "tfidf", "--in", str(data / "gold_tags.jsonl"), "--out", str(matrix)]) == 0
            if command == "evaluate":
                argv = ["evaluate", "--matrix", str(matrix), "--labels", str(data / "labels.csv"),
                        "--report", str(tmp_path / "r.json")]
            else:
                argv = ["train", "--what", "svm", "--code", "total", "--features", str(matrix),
                        "--labels", str(data / "labels.csv"), "--out", str(tmp_path / "svm.json")]
        elif command == "compare":
            argv = ["compare", "--a", "tfidf", "--b", "mc", "--in", str(data / "gold_tags.jsonl"),
                    "--labels", str(data / "labels.csv"), "--out", str(tmp_path / "c.json")]
        elif command == "segment":
            argv = ["segment", "--model", str(models / "boundary.json"), "--in", str(data / "corpus.jsonl"),
                    "--out", str(tmp_path / "seg.jsonl")]
        else:
            argv = ["featurize", "--set", "tfidf", "--in", str(data / "gold_tags.jsonl"),
                    "--out", str(tmp_path / "f.mtx")]
        if where == "flag":
            argv += ["--seed", "-1"]
        elif where == "global":
            argv = ["--seed", "-1", *argv]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({**body, "seed": -1}), encoding="utf-8")
            # only synth takes a --config of its own; the others read the global one
            argv = [*argv, "--config", str(config)] if command == "synth" else ["--config", str(config), *argv]
        assert main(argv) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_train_boundary_with_max_sequences_below_1_is_exit_2(self, workspace, tmp_path, capsys, cap):
        out = tmp_path / "boundary.json"
        argv = ["train", "--what", "boundary", "--in", str(workspace["data"] / "boundary_text.txt")]
        assert main([*argv, "--max-sequences", cap, "--out", str(out)]) == 2
        assert f"--max-sequences must be at least 1, got {cap}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("id", [1], "session id must be a string, got [1]"),
            ("id", 7, "session id must be a string, got 7"),
            ("id", "", "session id must be non-empty"),
            ("id", 0, "session id must be a string, got 0"),
            ("speaker", "bob", "utterance 1: unknown speaker role 'bob'"),
            ("speaker", ["x"], "utterance 1: unknown speaker role ['x']"),
        ],
        ids=["list-id", "number-id", "empty-id", "zero-id", "unknown-speaker", "list-speaker"],
    )
    @pytest.mark.parametrize("command", ["tag", "featurize"])
    def test_tagged_record_with_a_bad_id_or_speaker_is_exit_2_and_named_once(
        self, workspace, tmp_path, capsys, command, field, value, message
    ):
        token = {"text": "hi", "start_s": 0.0, "end_s": 0.2}
        utterances = [
            {"speaker": "therapist", "index": 0, "tokens": [token], "da": None, "mc": None},
            {"speaker": "patient", "index": 1, "tokens": [token], "da": None, "mc": None},
        ]
        record = {"format_version": 1, "id": "s1", "scores": None, "utterances": utterances}
        if field == "id":
            record["id"] = value
        else:
            utterances[1]["speaker"] = value
        corpus = tmp_path / "bad_record.jsonl"
        corpus.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        if command == "tag":
            argv = ["tag", "--scheme", "mc", "--model", str(workspace["models"] / "mc.json")]
        else:
            argv = ["featurize", "--set", "tfidf"]
        rc = main([*argv, "--in", str(corpus), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{corpus}, line 2: {message}" in err
        assert err.count(str(corpus)) == 1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("id", [1], "session id must be a string, got [1]"),
            ("id", "", "session id must be non-empty"),
            ("id", 0, "session id must be a string, got 0"),
            ("speaker", "bob", "turn 1: unknown speaker role 'bob'"),
        ],
        ids=["list-id", "empty-id", "zero-id", "unknown-speaker"],
    )
    def test_turn_record_with_a_bad_id_or_speaker_is_exit_2_and_named_once(
        self, workspace, tmp_path, capsys, field, value, message
    ):
        token = {"text": "hi", "start_s": 0.0, "end_s": 0.2}
        turns = [{"speaker": "therapist", "tokens": [token]}, {"speaker": "patient", "tokens": [token]}]
        record = {"format_version": 1, "id": "s1", "scores": None, "turns": turns}
        if field == "id":
            record["id"] = value
        else:
            turns[1]["speaker"] = value
        corpus = tmp_path / "bad_turns.jsonl"
        corpus.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        rc = main(["tag", "--scheme", "mc", "--model", str(workspace["models"] / "mc.json"),
                   "--in", str(corpus), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{corpus}, line 2: {message}" in err
        assert err.count(str(corpus)) == 1

    @pytest.mark.parametrize("value", ["x", 4.7, True], ids=["string", "float", "bool"])
    @pytest.mark.parametrize("command", ["segment", "featurize"])
    def test_malformed_score_is_exit_2_and_named_once(self, tmp_path, capsys, command, value):
        scores = {code: 3 for code in CODES}
        scores["ag"] = value
        token = {"text": "hi", "start_s": 0.0, "end_s": 0.2}
        record = {"format_version": 1, "id": "s1", "scores": scores}
        if command == "segment":  # turn-level corpus
            record["turns"] = [{"speaker": "therapist", "tokens": [token]}]
            argv = ["segment", "--disable"]
        else:  # tagged corpus
            record["utterances"] = [{"speaker": "therapist", "index": 0, "tokens": [token], "da": None, "mc": "FA"}]
            argv = ["featurize", "--set", "mc"]
        corpus = tmp_path / "bad_scores.jsonl"
        corpus.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        rc = main([*argv, "--in", str(corpus), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{corpus}, line 2: score for ag must be an integer, got {value!r}" in err
        assert err.count(str(corpus)) == 1

    @pytest.mark.parametrize("time", ["0.5", True], ids=["string", "bool"])
    @pytest.mark.parametrize("command", ["segment", "featurize"])
    def test_token_time_that_is_not_a_number_is_exit_2_and_named_once(self, tmp_path, capsys, command, time):
        token = {"text": "hi", "start_s": 0.0, "end_s": 0.2}
        token["start_s" if time == "0.5" else "end_s"] = time
        record = {"format_version": 1, "id": "s1", "scores": None}
        if command == "segment":  # turn-level corpus
            record["turns"] = [{"speaker": "therapist", "tokens": [token]}]
            argv = ["segment", "--disable"]
        else:  # tagged corpus
            record["utterances"] = [{"speaker": "therapist", "index": 0, "tokens": [token], "da": None, "mc": None}]
            argv = ["featurize", "--set", "tfidf"]
        corpus = tmp_path / "bad_time.jsonl"
        corpus.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        rc = main([*argv, "--in", str(corpus), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{corpus}, line 2: " in err and f"token times must be numbers, got {time!r}" in err
        assert err.count(str(corpus)) == 1

    @pytest.mark.parametrize("sid", ["s\n1", "s\r1"], ids=["newline", "return"])
    @pytest.mark.parametrize("command", ["segment", "featurize"])
    def test_session_id_with_line_break_is_exit_2(self, tmp_path, capsys, command, sid):
        token = {"text": "hi", "start_s": 0.0, "end_s": 0.2}
        record = {"format_version": 1, "id": sid, "scores": None}
        if command == "segment":
            record["turns"] = [{"speaker": "therapist", "tokens": [token]}]
            argv = ["segment", "--disable"]
        else:
            record["utterances"] = [{"speaker": "therapist", "index": 0, "tokens": [token], "da": None, "mc": None}]
            argv = ["featurize", "--set", "tfidf"]
        corpus = tmp_path / "bad_id.jsonl"
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        rc = main([*argv, "--in", str(corpus), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{corpus}, line 1: session id {sid!r} contains a line break" in err

    def test_corpus_record_in_the_other_form_is_exit_2_and_named(self, workspace, tmp_path, capsys):
        """A turn-level reader given a tagged record, or the reverse, names the
        file, the line and the form the record holds; it never reads the
        record as a session without turns."""
        data, models = workspace["data"], workspace["models"]
        gold, corpus = data / "gold_tags.jsonl", data / "corpus.jsonl"
        mixed = tmp_path / "mixed.jsonl"  # sniffed as turn-level from its first record
        lines = corpus.read_text(encoding="utf-8").splitlines()[:1] + gold.read_text(encoding="utf-8").splitlines()[1:3]
        mixed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cases = [
            (["segment", "--disable", "--in", str(gold), "--out"], gold, 1, "turns", "utterances"),
            (["tag", "--scheme", "mc", "--model", str(models / "mc.json"), "--in", str(mixed), "--out"], mixed, 2,
             "turns", "utterances"),
            (["featurize", "--set", "tfidf", "--in", str(corpus), "--out"], corpus, 1, "utterances", "turns"),
            (["evaluate", "--matrix", str(workspace["tfidf"]), "--in", str(mixed), "--report"], mixed, 2,
             "turns", "utterances"),
        ]
        for argv, path, line, expected, held in cases:
            out = tmp_path / "out.jsonl"
            assert main([*argv, str(out)]) == 2, argv
            err = capsys.readouterr().err
            assert f"{path}, line {line}: expected a list of {expected}; the record holds {held}" in err
            assert not out.exists()

    def test_label_class_of_one_session_is_exit_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        """On this corpus code co has 1 high and 11 low sessions, so some
        training fold would hold one class only; hw has both classes twice."""
        data = tmp_path / "data"
        assert main(["synth", "--n-sessions", "12", "--seed", "8", "--out", str(data)]) == 0
        tagged, labels, matrix = data / "gold_tags.jsonl", data / "labels.csv", tmp_path / "tfidf.mtx"
        assert main(["featurize", "--set", "tfidf", "--in", str(tagged), "--out", str(matrix)]) == 0
        compare = ["compare", "--a", "mc-tfidf", "--b", "tfidf", "--in", str(tagged), "--labels", str(labels),
                   "--k-grid", "8", "--out", str(tmp_path / "cmp.json")]
        assert main([*compare, "--code", "hw"]) == 0

        def no_fit(tasks, svm_c):
            raise AssertionError("fitted before checking the label classes")

        monkeypatch.setattr(cbtcode.evaluate, "fit_folds_and_count", no_fit)
        capsys.readouterr()
        runs = [
            ["evaluate", "--matrix", str(matrix), "--labels", str(labels), "--k-grid", "8",
             "--report", str(tmp_path / "r.json")],
            [*compare, "--code", "co"],
        ]
        for argv in runs:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "code co: 1 high and 11 low sessions; cross-validation needs at least 2 of each" in err

    @pytest.mark.parametrize(
        "what, flag, value, applies",
        [("mc", "--max-sequences", "3", "boundary"), ("svm", "--l2", "5", "boundary|da|mc"),
         ("da", "--c", "3", "svm"), ("boundary", "--code", "total", "svm"), ("mc", "--features", "m.mtx", "svm"),
         ("da", "--labels", "labels.csv", "svm"), ("mc", "--k", "4", "svm")],
    )
    def test_train_flag_that_its_what_ignores_is_exit_2(self, workspace, tmp_path, capsys, what, flag, value, applies):
        source = workspace["data"] / ("boundary_text.txt" if what == "boundary" else "gold_tags.jsonl")
        out = tmp_path / "model.json"
        assert main(["train", "--what", what, "--in", str(source), flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} applies only to --what {applies}, not --what {what}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--out-dir", "artifacts"), ("--boundary-model", "boundary.json"), ("--da-model", "da.json"),
         ("--mc-model", "mc.json"), ("--pause", "3"), ("--no-segmentation", None), ("--set", "tfidf"),
         ("--features", "tfidf"), ("--max-df", "0.9"), ("--min-df", "0.1"), ("--word-denominator", "session"),
         ("--config", "pipeline.json")],
    )
    def test_evaluate_takes_no_segmentation_or_tagging_flag(self, workspace, tmp_path, capsys, flag, value):
        """`evaluate` runs no segmenter, tagger or featurizer: segment, tag and featurize do."""
        data = workspace["data"]
        report = tmp_path / "r.json"
        argv = ["evaluate", "--matrix", str(workspace["tfidf"]), "--labels", str(data / "labels.csv"), "--k-grid", "8",
                "--report", str(report)]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, *([value] if value else [])])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not report.exists()
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        evaluate = sub.choices["evaluate"]
        assert flag not in evaluate.format_help()

    @pytest.mark.parametrize(
        "argv, message",
        [(["evaluate", "--labels", "{labels}", "--report", "{out}"], "the following arguments are required: --matrix"),
         (["featurize", "--set", "tfidf", "--in", "{gold}", "--out", "{out}", "--features", "mc"],
          "unrecognized arguments: --features mc"),
         (["train", "--what", "svm", "--code", "total", "--features", "{matrix}", "--in", "{gold}", "--out", "{out}",
           "--scores-from", "{gold}"], "unrecognized arguments: --scores-from")],
        ids=["evaluate-without-matrix", "featurize-features", "train-scores-from"],
    )
    def test_missing_or_removed_flag_is_an_argparse_error(self, workspace, tmp_path, capsys, argv, message):
        """`evaluate` needs --matrix; the second spellings of a value are gone."""
        paths = dict(labels=workspace["data"] / "labels.csv", gold=workspace["data"] / "gold_tags.jsonl",
                     matrix=workspace["tfidf"], out=tmp_path / "out")
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(**paths) for arg in argv])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not paths["out"].exists()

    @pytest.mark.parametrize("command", ["evaluate", "compare", "train", "embedded"])
    def test_missing_labels_name_their_source_and_at_most_five_sessions(self, workspace, tmp_path, capsys, command):
        """Labels for 2 of the 60 sessions, from a --labels file or from the
        scores embedded in a corpus."""
        data = workspace["data"]
        gold, matrix, out = data / "gold_tags.jsonl", tmp_path / "t.mtx", tmp_path / "out.json"
        short = tmp_path / "short.csv"
        short.write_text("".join((data / "labels.csv").read_text(encoding="utf-8").splitlines(True)[:3]), "utf-8")
        assert main(["featurize", "--set", "tfidf", "--in", str(gold), "--out", str(matrix)]) == 0
        partial = tmp_path / "partial.jsonl"
        records = [json.loads(line) for line in gold.read_text(encoding="utf-8").splitlines()]
        partial.write_text("".join(json.dumps({**r, "scores": r["scores"] if i < 2 else None}) + "\n"
                                   for i, r in enumerate(records)), encoding="utf-8")
        argv, source = {
            "evaluate": (["evaluate", "--matrix", str(matrix), "--labels", str(short), "--report", str(out)], short),
            "compare": (["compare", "--a", "mc-tfidf", "--b", "tfidf", "--in", str(gold), "--labels", str(short),
                         "--out", str(out)], short),
            "train": (["train", "--what", "svm", "--code", "total", "--features", str(matrix), "--labels", str(short),
                       "--out", str(out)], short),
            "embedded": (["evaluate", "--matrix", str(matrix), "--in", str(partial), "--report", str(out)], partial),
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {source}: missing labels for 58 of 60 sessions: 's02', 's03', 's04', 's05', 's06', ...\n"
        )
        assert not out.exists()

    @staticmethod
    def _drop_mc_tag(workspace, tmp_path):
        """The gold corpus without the mc tag of one therapist utterance past
        the first of its session: the file, the session id and the index."""
        records = [json.loads(line) for line in (workspace["data"] / "gold_tags.jsonl").read_text("utf-8").splitlines()]
        record = records[3]
        index = next(i for i, u in enumerate(record["utterances"]) if i > 0 and u["speaker"] == "therapist")
        del record["utterances"][index]["mc"]
        path = tmp_path / "untagged.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return path, record["id"], index

    @pytest.mark.parametrize(
        "argv",
        [["featurize", "--set", "mc-tfidf"], ["featurize", "--set", "tfidf+mc"], ["featurize", "--set", "mc"],
         ["compare", "--a", "tfidf", "--b", "mc-tfidf"], ["train", "--what", "mc"]],
        ids=["featurize-mc-tfidf", "featurize-tfidf+mc", "featurize-mc", "compare", "train"],
    )
    def test_utterance_without_a_tag_is_exit_2_naming_file_session_and_index(self, workspace, tmp_path, capsys, argv):
        path, sid, index = self._drop_mc_tag(workspace, tmp_path)
        out = tmp_path / "out"
        assert main([*argv, "--in", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: session {sid}, utterance {index}: no mc tag\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [(["train", "--what", "boundary"], "no punctuated text to build boundary training data from"),
         (["train", "--what", "da"], "no training sequences"),
         (["train", "--what", "mc"], "no training utterances"),
         (["featurize", "--set", "tfidf"], "no sessions to featurize"),
         (["featurize", "--set", "mc"], "no sessions to featurize")],
        ids=["train-boundary", "train-da", "train-mc", "featurize-tfidf", "featurize-mc"],
    )
    def test_empty_input_is_exit_2_and_names_the_file(self, tmp_path, capsys, argv, message):
        path = tmp_path / ("blank.txt" if "boundary" in argv else "empty.jsonl")
        path.write_text("\n \n" if "boundary" in argv else "", encoding="utf-8")
        out = tmp_path / "out"
        assert main([*argv, "--in", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_utterance_classifier_file_is_exit_2_and_named(self, workspace, tmp_path, capsys):
        """MC models of earlier versions were utterance_classifier files; they must be retrained."""
        doc = json.loads((workspace["models"] / "mc.json").read_text(encoding="utf-8"))
        doc["kind"] = "utterance_classifier"
        doc["payload"]["bias"] = doc["payload"].pop("transitions")
        old = tmp_path / "old_mc.json"
        old.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "tagged.jsonl"
        argv = ["tag", "--scheme", "mc", "--model", str(old), "--in", str(workspace["data"] / "gold_tags.jsonl")]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {old}: expected kind 'chain_crf', found 'utterance_classifier'\n"
        assert not out.exists()


def test_mc_model_trained_by_the_cli_is_a_chain_crf_with_zero_transitions(workspace, tmp_path):
    doc = json.loads((workspace["models"] / "mc.json").read_text(encoding="utf-8"))
    assert (doc["kind"], doc["payload"]["scheme"]) == ("chain_crf", "mc")
    model = load_chain_crf(workspace["models"] / "mc.json", expect_scheme="mc")
    assert model.transitions.shape == (7, 7) and not model.transitions.any()
    default = tmp_path / "mc.json"  # --l2 left out trains at 0.1
    gold = workspace["data"] / "gold_tags.jsonl"
    assert main(["train", "--what", "mc", "--in", str(gold), "--out", str(default)]) == 0
    assert json.loads(default.read_text(encoding="utf-8"))["payload"]["l2"] == 0.1

