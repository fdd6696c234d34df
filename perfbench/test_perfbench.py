"""Tests of the benchmark's checks and tracer.

A small pipeline is run once through the CLI; each check must pass on its
real outputs and fail on a deliberately corrupted copy of them.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math

import pytest

import checks
import layertrace
import workloads

SESSIONS = 16
GRID = (4, 8)


def cli(*argv) -> None:
    from cbtcode.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    cli("synth", "--out", d / "gold", "--seed", 5, "--n-sessions", SESSIONS)
    for _, argv in workloads.train_calls(d / "gold", d / "models", 12):
        cli(*argv[2:])
    cli("synth", "--out", d / "input", "--seed", 6, "--n-sessions", SESSIONS)
    cli("segment", "--model", d / "models/boundary.json", "--in", d / "input/corpus.jsonl", "--out", d / "seg.jsonl")
    cli("tag", "--scheme", "da", "--model", d / "models/da.json", "--in", d / "seg.jsonl", "--out", d / "da.jsonl")
    cli("tag", "--scheme", "mc", "--model", d / "models/mc.json", "--in", d / "da.jsonl", "--out", d / "tagged.jsonl")
    for name in workloads.FEATURE_SETS:
        cli("featurize", "--set", name, "--in", d / "tagged.jsonl", "--out", d / f"{name}.mtx")
    grid = ",".join(map(str, GRID))
    gold = d / "input/gold_tags.jsonl"
    cli("featurize", "--set", "tfidf", "--in", gold, "--out", d / "gold_tfidf.mtx")
    cli("evaluate", "--matrix", d / "gold_tfidf.mtx", "--labels", d / "input/labels.csv", "--folds", 2,
        "--k-grid", grid, "--report", d / "report.json")
    cli("compare", "--a", "mc-tfidf", "--b", "tfidf", "--in", gold, "--labels", d / "input/labels.csv",
        "--k-grid", grid, "--out", d / "compare.json")
    return d


# -- evaluate checks -------------------------------------------------------------


def test_report_check_passes_on_real_report(run):
    assert checks.check_report(checks.read_payload(run / "report.json"), SESSIONS, GRID) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["codes"]["hw"]["folds"][0].__setitem__(0, r["codes"]["hw"]["folds"][0][0] + 1),
        lambda r: r["codes"]["total"].__setitem__("f1", r["codes"]["total"]["f1"] + 0.01),
        lambda r: r["codes"]["ag"].__setitem__("f1_low", 1.5),
        lambda r: r.__setitem__("avg_f1", r["avg_f1"] * 0.9 + 0.05),
        lambda r: r.__setitem__("chosen_k", 5),
        lambda r: r["codes"].pop("un"),
    ],
    ids=["fold-count", "f1", "f1-low", "avg", "chosen-k", "missing-code"],
)
def test_report_check_fails_on_corrupted_report(run, corrupt):
    report = checks.read_payload(run / "report.json")
    corrupt(report)
    assert checks.check_report(report, SESSIONS, GRID)


def test_margin_check_uses_pooled_total_counts():
    def report(tp, fp, fn):
        return {"codes": {"total": {"folds": [[tp, fp, fn, 0]]}}}

    strong, weak = [report(9, 1, 1)], [report(7, 3, 3)]  # F1 0.9 vs 0.7
    assert checks.check_margin(strong, weak, 0.10) == []
    assert checks.check_margin(weak, strong, 0.10)
    assert checks.check_margin(strong, [report(8, 1, 2)], 0.10)


def test_f_tail_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for f in (0.01, 0.5, 1.0, 3.3, 12.0, 250.0):
        assert math.isclose(checks.f_sf(f), stats.f.sf(f, 10, 5), rel_tol=1e-10)


def test_comparison_check_passes_on_real_comparison(run):
    assert checks.check_comparison(checks.read_payload(run / "compare.json")) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda c: c.__setitem__("f_statistic", c["f_statistic"] * 1.01),
        lambda c: c.__setitem__("p_value", c["p_value"] * 0.5 + 0.01),
        lambda c: c["p_matrix"][2].__setitem__(1, c["p_matrix"][2][1] + 0.05),
        lambda c: c.__setitem__("degrees", [5, 10]),
        lambda c: c.__setitem__("significant", not c["significant"]),
    ],
    ids=["f", "p", "p-matrix", "degrees", "verdict"],
)
def test_comparison_check_fails_on_corrupted_comparison(run, corrupt):
    cmp = checks.read_payload(run / "compare.json")
    if cmp["f_statistic"] is None or cmp["f_statistic"] == "inf":
        pytest.skip("this comparison has no finite statistic")
    corrupt(cmp)
    assert checks.check_comparison(cmp)


# -- code checks -----------------------------------------------------------------


def test_segmentation_checks_pass_on_real_segmentation(run):
    corpus = checks.read_jsonl(run / "input/corpus.jsonl")
    segmented = checks.read_jsonl(run / "seg.jsonl")
    tagged = checks.read_jsonl(run / "tagged.jsonl")
    assert checks.check_tokens_kept(corpus, segmented, "segment") == []
    assert checks.check_tokens_kept(corpus, tagged, "tag") == []
    lines = (run / "input/boundary_text.txt").read_text(encoding="utf-8").splitlines()
    gold_ends = checks.punctuation_ends(corpus, lines)
    gold = checks.read_jsonl(run / "input/gold_tags.jsonl")
    assert gold_ends == [checks.unit_ends(r) for r in gold]
    assert checks.end_f1(gold_ends, gold_ends) == 1.0
    assert checks.matched_tag_agreement(gold, gold, "da") == (1.0, 1.0)


def _drop_token(seg):
    seg[0]["turns"][0]["tokens"].pop()


def _swap_speaker(seg):
    turn = seg[1]["turns"][0]
    turn["speaker"] = "patient" if turn["speaker"] == "therapist" else "therapist"


def _change_word(seg):
    seg[2]["turns"][-1]["tokens"][0]["text"] += "x"


def _reorder(seg):
    seg[3]["turns"].reverse()


@pytest.mark.parametrize("corrupt", [_drop_token, _swap_speaker, _change_word, _reorder])
def test_token_check_fails_on_corrupted_segmentation(run, corrupt):
    corpus = checks.read_jsonl(run / "input/corpus.jsonl")
    segmented = checks.read_jsonl(run / "seg.jsonl")
    corrupt(segmented)
    assert checks.check_tokens_kept(corpus, segmented, "segment")


def test_boundary_f1_drops_when_utterances_are_merged(run):
    gold = checks.read_jsonl(run / "input/gold_tags.jsonl")
    merged = copy.deepcopy(gold)
    for record in merged:
        utts = record["utterances"]
        record["utterances"] = [{**utts[0], "tokens": [t for u in utts for t in u["tokens"]]}]
    ends = [checks.unit_ends(r) for r in gold]
    assert checks.end_f1(ends, [checks.unit_ends(r) for r in merged]) < 0.5


def test_tag_agreement_drops_when_tags_are_corrupted(run):
    gold = checks.read_jsonl(run / "input/gold_tags.jsonl")
    wrong = copy.deepcopy(gold)
    for record in wrong:
        for u in record["utterances"]:
            u["mc"] = "FA" if u["mc"] != "FA" else "GI"
    assert checks.matched_tag_agreement(gold, wrong, "mc")[0] == 0.0


@pytest.mark.parametrize("name", workloads.FEATURE_SETS)
def test_matrix_check_passes_on_real_matrices(run, name):
    tagged = checks.read_jsonl(run / "tagged.jsonl")
    matrix = checks.read_matrix(run / f"{name}.mtx")
    assert checks.check_matrix(matrix, tagged, name, list(range(SESSIONS)), 0.95, 0.05) == []


def _scale_cell(m):
    r = min(m["cells"])
    c = min(m["cells"][r])
    m["cells"][r][c] *= 1.001


def _drop_column(m):
    m["cols"][-1] = "nonsense"


def _shift_block(m):
    c = next(i for i, name in enumerate(m["cols"]) if ":utt:" in name)
    m["cells"].setdefault(0, {})[c] = m["cells"].get(0, {}).get(c, 0.0) + 0.01


@pytest.mark.parametrize(
    "name,corrupt",
    [("tfidf", _scale_cell), ("mc-tfidf", _scale_cell), ("tfidf+da", _drop_column),
     ("da", _shift_block), ("tfidf+mc", _shift_block), ("da-tfidf", _drop_column)],
)
def test_matrix_check_fails_on_corrupted_matrix(run, name, corrupt):
    tagged = checks.read_jsonl(run / "tagged.jsonl")
    matrix = checks.read_matrix(run / f"{name}.mtx")
    corrupt(matrix)
    assert checks.check_matrix(matrix, tagged, name, list(range(SESSIONS)), 0.95, 0.05)


# -- tracer ----------------------------------------------------------------------


def test_union_length_and_self_time():
    assert layertrace.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert layertrace.union_length([(0, 2), (1, 3)], clip=(1.5, 2.5)) == 1
    parent = layertrace.Span("pipeline.tag_corpus", None, "")
    child = layertrace.Span("tagger.tag_mc", parent, "")
    parent.start, parent.end, child.start, child.end = 0.0, 1.0, 0.25, 0.75
    raw = layertrace.summarize([parent, child])
    assert raw["pipeline.self_s"] == 0.5
    assert raw["tagger.total_s"] == 0.5
    assert raw["pipeline.tag_corpus_s"] == 1.0


def test_tracer_counts_without_changing_outputs(run, tmp_path):
    argv = ["featurize", "--set", "mc-tfidf", "--in", run / "tagged.jsonl", "--out", tmp_path / "traced.mtx"]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        cli(*argv)
    finally:
        tracer.uninstall()
    import cbtcode.features

    assert not hasattr(cbtcode.features.transform_tfidf, "__wrapped__")
    assert (tmp_path / "traced.mtx").read_bytes() == (run / "mc-tfidf.mtx").read_bytes()
    metrics = layertrace.derive(layertrace.summarize(tracer.spans))
    assert metrics["features.transform_calls"] == SESSIONS
    assert metrics["cli.total_s"] > 0
    assert tracer.absent == []


def test_tracer_reports_missing_entry_point_as_absent(run, tmp_path, monkeypatch):
    import cbtcode.chain

    monkeypatch.delattr(cbtcode.chain, "forward_backward")
    monkeypatch.setitem(layertrace.ENTRY_POINTS, "gone", ("anything",))
    monkeypatch.setitem(layertrace.ENTRY_POINTS, "features", (*layertrace.ENTRY_POINTS["features"], "Missing.method"))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        cli("featurize", "--set", "tfidf", "--in", run / "tagged.jsonl", "--out", tmp_path / "t.mtx")
    finally:
        tracer.uninstall()
    assert set(tracer.absent) == {"chain.forward_backward", "gone.anything", "features.Missing.method"}
    metrics = layertrace.derive(layertrace.summarize(tracer.spans))
    assert metrics["features.transform_calls"] == SESSIONS
    json.dumps(tracer.dump())
