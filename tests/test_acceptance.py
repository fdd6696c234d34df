"""Acceptance criteria.

Each test prints one PASS/FAIL line with the measured values.  Criteria 8-10
share a module-scoped planted-signal corpus (300 sessions, fixed seed).
"""

import json
import time

import numpy as np
import pytest

from cbtcode.chain import forward_backward, viterbi
from cbtcode.cli import main
from cbtcode.evaluate import combined_f_statistic, five_by_two_cv_f_test, run_protocol
from cbtcode.features import fit_tfidf, tag_count_features, tfidf_matrix
from cbtcode.pipeline import build_feature_matrix, segment_corpus, tag_corpus
from cbtcode.segmenter import make_boundary_training_data, train_boundary_model
from cbtcode.svm import class_weights, train_svm
from cbtcode.synth import SynthConfig, generate_corpus
from cbtcode.tagger import (
    DA_TAG_SET,
    MC_TAG_SET,
    crf_training_objective,
    da_training_sequences,
    mc_training_examples,
    train_chain_crf,
    train_utterance_classifier,
    utterance_features,
)
from helpers import brute_tfidf, enumerate_chain, hinge_objective, subgradient_hinge_oracle


def report_line(num, ok, description):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, description


def test_criterion_01_sequence_core_matches_enumeration():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(2, 5))
        E = rng.normal(size=(n, k)) * 2.0
        T = rng.normal(size=(k, k))
        (log_z,), marg, pair = forward_backward(E, T, [n])
        ez, em, ep, best_score, best_path = enumerate_chain(E, T)
        worst = max(worst, abs(log_z - ez), float(np.abs(marg - em).max()))
        if n > 1:
            worst = max(worst, float(np.abs(pair - ep).max()))
        assert viterbi(E, T, [n]).tolist() == best_path
    # The same kernels on ragged batches, the form CRF training and decoding
    # use: each sequence's rows stacked, with the lengths.
    n_batched = 0
    for _ in range(200):
        k = int(rng.integers(2, 5))
        T = rng.normal(size=(k, k))
        lengths = rng.integers(1, 7, size=int(rng.integers(1, 9)))
        E = rng.normal(size=(len(lengths), int(lengths.max()) + int(rng.integers(0, 2)), k)) * 2.0
        rows = np.concatenate([E[i, :n] for i, n in enumerate(lengths)])
        log_z, marg, pair = forward_backward(rows, T, lengths)
        paths = viterbi(rows, T, lengths)
        for i, n in enumerate(lengths):
            at = int(lengths[:i].sum())  # the sequence's first row; its first pair is at - i
            ez, em, ep, _, best_path = enumerate_chain(E[i, :n], T)
            assert paths[at : at + n].tolist() == best_path
            worst = max(worst, abs(log_z[i] - ez), float(np.abs(marg[at : at + n] - em).max()))
            if n > 1:
                worst = max(worst, float(np.abs(pair[at - i : at - i + n - 1] - ep).max()))
            n_batched += 1
    elapsed = time.time() - t0
    report_line(
        1,
        worst < 1e-9 and elapsed < 30.0,
        f"sequence core vs exhaustive enumeration: worst |delta| {worst:.2e} "
        f"(< 1e-9), 1000 instances and {n_batched} sequences in 200 batches "
        f"in {elapsed:.1f}s (< 30s)",
    )


def _max_fd_rel_error(fun, theta, h=1e-5):
    _, grad = fun(theta)
    worst = 0.0
    for i in range(len(theta)):
        e = np.zeros_like(theta)
        e[i] = h
        fd = (fun(theta + e)[0] - fun(theta - e)[0]) / (2 * h)
        denom = max(1.0, abs(fd), abs(grad[i]))
        worst = max(worst, abs(grad[i] - fd) / denom)
    return worst


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        labels = tuple(f"L{i}" for i in range(int(rng.integers(2, 4))))
        words = ["a", "b", "c", "d"]
        data = []
        for _ in range(3):
            n = int(rng.integers(1, 5))
            feats = [["bias", "w=" + words[int(rng.integers(0, 4))]] for _ in range(n)]
            gold = [labels[int(rng.integers(0, len(labels)))] for _ in range(n)]
            data.append((feats, gold))
        names = tuple(sorted({f for fs, _ in data for row in fs for f in row}))
        fun = crf_training_objective(data, labels, names, l2=float(rng.uniform(0.0, 1.0)))
        theta = rng.normal(size=len(names) * len(labels) + len(labels) ** 2) * 0.5
        worst = max(worst, _max_fd_rel_error(fun, theta))
    # The MC tagger's objective: the same CRF objective over one-utterance
    # sequences of utterance features.
    worst_single = 0.0
    for _ in range(100):
        labels = tuple(f"C{i}" for i in range(int(rng.integers(2, 4))))
        examples = []
        for _ in range(int(rng.integers(3, 8))):
            ws = [str(rng.choice(["a", "b", "c"])) for _ in range(int(rng.integers(1, 4)))]
            examples.append(([utterance_features(ws)], [labels[int(rng.integers(0, len(labels)))]]))
        names = tuple(sorted({f for fs, _ in examples for f in fs[0]}))
        fun = crf_training_objective(examples, labels, names, l2=float(rng.uniform(0.0, 1.0)))
        theta = rng.normal(size=len(names) * len(labels) + len(labels) ** 2) * 0.5
        worst_single = max(worst_single, _max_fd_rel_error(fun, theta))
    report_line(
        2,
        worst < 1e-5 and worst_single < 1e-5,
        f"gradient checks vs central differences: CRF worst rel err {worst:.2e}, "
        f"one-utterance (MC) CRF worst rel err {worst_single:.2e} (< 1e-5)",
    )


def test_criterion_03_tfidf_matches_bruteforce_oracle():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        vocab = [f"t{i}" for i in range(25)]
        docs = [[vocab[int(j)] for j in rng.integers(0, 25, size=int(rng.integers(1, 30)))] for _ in range(10)]
        space = fit_tfidf(docs, max_df=0.95, min_df=0.05)
        vocab_o, idf_o, transform_o = brute_tfidf(list(docs), 0.95, 0.05)
        assert list(space.names) == vocab_o
        mine = tfidf_matrix(docs, space)
        theirs = np.array([transform_o(toks) for toks in docs])
        worst = max(worst, float(np.abs(mine - theirs).max()))
    # document-frequency boundary cases at exactly 5% and 95% of 20 docs
    docs20 = [["lower"] if i == 0 else ["upper"] for i in range(20)]
    docs20 = [toks + ["mid"] if i % 2 else toks for i, toks in enumerate(docs20)]
    space20 = fit_tfidf(docs20, max_df=0.95, min_df=0.05)
    boundaries_kept = "lower" in space20.names and "upper" in space20.names
    report_line(
        3,
        worst < 1e-9 and boundaries_kept,
        f"tf-idf vs independent brute force: worst |delta| {worst:.2e} (< 1e-9); "
        f"df boundaries at exactly 5% and 95% retained: {boundaries_kept}",
    )


def test_criterion_04_tag_blocks_match_hand_counts():
    from cbtcode.corpus import Tokens, Turn

    rng = np.random.default_rng(11)
    worst = 0.0
    worst_sum = 0.0
    for _ in range(100):
        scheme = MC_TAG_SET if rng.random() < 0.5 else DA_TAG_SET
        utts = []
        for i in range(int(rng.integers(1, 14))):
            n_words = int(rng.integers(1, 9))
            tokens = Tokens([f"w{j}" for j in range(n_words)], [j * 0.4 for j in range(n_words)],
                            [j * 0.4 + 0.3 for j in range(n_words)])
            tag = scheme.labels[int(rng.integers(0, 7))]
            utts.append(
                Turn(
                    tokens=tokens,
                    speaker="therapist",
                    da=tag if scheme is DA_TAG_SET else None,
                    mc=tag if scheme is MC_TAG_SET else None,
                )
            )
        block = tag_count_features(utts, scheme)
        assert block.shape == (14,)
        total_words = sum(len(u.tokens) for u in utts)
        for j, tag in enumerate(scheme.labels):
            n_u = sum(u.tag(scheme.name) == tag for u in utts)
            n_w = sum(len(u.tokens) for u in utts if u.tag(scheme.name) == tag)
            worst = max(worst, abs(block[j] - n_u / len(utts)))
            worst = max(worst, abs(block[7 + j] - n_w / total_words))
        worst_sum = max(worst_sum, abs(block[:7].sum() - 1.0), abs(block[7:].sum() - 1.0))
    report_line(
        4,
        worst < 1e-12 and worst_sum < 1e-9,
        f"tag-count blocks vs hand counting on 100 sessions: worst |delta| {worst:.2e}; "
        f"sub-block sums within {worst_sum:.2e} of 1 (< 1e-9)",
    )


def test_criterion_05_pooled_f1_semantics():
    from cbtcode.evaluate import pooled_f1

    pooled = pooled_f1([(1, 0, 9), (9, 1, 1)])

    def f1(tp, fp, fn):
        p, r = tp / (tp + fp), tp / (tp + fn)
        return 2 * p * r / (p + r)

    mean_f1 = (f1(1, 0, 9) + f1(9, 1, 1)) / 2
    ok = abs(pooled - 0.6452) <= 1e-4 and abs(pooled - mean_f1) > 0.09
    report_line(
        5,
        ok,
        f"pooled F1 on the crafted two-fold example: {pooled:.6f} (= 0.6452 +/- 1e-4), "
        f"differs from per-fold average {mean_f1:.4f} by {abs(pooled - mean_f1):.4f} (> 0.09)",
    )


def test_criterion_06_svm_matches_subgradient_oracle():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        X = rng.normal(size=(20, 5))
        y = rng.random(20) < 0.5
        if y.all() or not y.any():
            y[0] = not y[0]
        w = class_weights(y)
        model = train_svm(X, y, C=1.0, weights=w, tol=1e-9)
        ys = np.where(y, 1.0, -1.0)
        sc = np.where(y, w.high, w.low)
        mine = hinge_objective(X, ys, sc, model.weights, model.bias)
        oracle = subgradient_hinge_oracle(X, ys, sc)
        worst = max(worst, abs(mine - oracle) / max(1.0, abs(oracle)))
    table = class_weights([False] * 134 + [True] * 91)
    weights_ok = round(table.low, 4) == 0.8396 and round(table.high, 4) == 1.2363
    report_line(
        6,
        worst < 1e-4 and weights_ok,
        f"SVM objective vs long subgradient oracle on 50 problems: worst rel diff {worst:.2e} (< 1e-4); "
        f"class weights on 134/91 counts: {table.low:.4f}/{table.high:.4f} (= 0.8396/1.2363)",
    )


def test_criterion_07_five_by_two_statistic():
    p = [[0.1, 0.2], [0.0, 0.1], [0.1, 0.1], [0.2, 0.0], [0.1, 0.0]]
    result = combined_f_statistic(p)
    hand_ok = abs(result.f_statistic - 13.0 / 7.0) < 1e-6

    rng = np.random.default_rng(5)
    from cbtcode.corpus import CodeScores
    from cbtcode.features import FeatureMatrix

    n = 30
    bits = np.array([i % 2 == 0 for i in range(n)])
    X = rng.normal(size=(n, 5))
    X[:, 0] += np.where(bits, 1.0, -1.0)
    matrix = FeatureMatrix(
        set_name="x",
        names=tuple(f"f{j}" for j in range(5)),
        selectable=(True,) * 5,
        session_ids=tuple(f"s{i}" for i in range(n)),
        X=X,
    )
    scores = {f"s{i}": CodeScores((6,) * 11 if b else (0,) * 11) for i, b in enumerate(bits)}
    same = five_by_two_cv_f_test(matrix, matrix, scores, seed=0, k_grid=[3])
    report_line(
        7,
        hand_ok and same.verdict == "no difference",
        f"combined 5x2cv statistic {result.f_statistic:.7f} (= 1.8571429 +/- 1e-6); "
        f"identical pipelines report {same.verdict!r}",
    )


# ---------------------------------------------------------------------------
# Criteria 8-9: planted-signal reproduction on the synthetic corpus


@pytest.fixture(scope="module")
def planted_run():
    t0 = time.time()
    config = SynthConfig(n_sessions=300, seed=11)
    result = generate_corpus(config)
    boundary = train_boundary_model(
        make_boundary_training_data(ln.split() for ln in result.boundary_lines[:400]),
        l2=0.05,
    )
    da_model = train_chain_crf(da_training_sequences(result.tagged), DA_TAG_SET, l2=0.05)
    mc_model = train_utterance_classifier(mc_training_examples(result.tagged), l2=0.05)
    scores = {s.id: s.scores for s in result.sessions}

    tagged = {}
    for seg_on in (True, False):
        segmented = segment_corpus(result.sessions, boundary if seg_on else None)
        with_da = tag_corpus(segmented, "da", da_model)
        tagged[seg_on] = tag_corpus(with_da, "mc", mc_model)

    reports = {}

    def report_for(feature_set, seg_on):
        key = (feature_set, seg_on)
        if key not in reports:
            matrix = build_feature_matrix(tagged[seg_on], feature_set)
            reports[key] = run_protocol(matrix, scores, 5, 0, (16, 32, 64, 128), 1.0)
        return reports[key]

    return {
        "result": result,
        "scores": scores,
        "report_for": report_for,
        "setup_seconds": time.time() - t0,
        "t0": t0,
    }


@pytest.mark.slow
def test_criterion_08_paper_ordering_on_synthetic_corpus(planted_run):
    t0 = time.time()
    report_for = planted_run["report_for"]
    tfidf = report_for("tfidf", True).per_code["total"].f1_high
    concat = report_for("tfidf+mc", True).per_code["total"].f1_high
    augmented = report_for("mc-tfidf", True).per_code["total"].f1_high
    elapsed = planted_run["setup_seconds"] + (time.time() - t0)
    margin = augmented - tfidf
    concat_gain = concat - tfidf
    ok = margin >= 0.10 and concat_gain < 0.05 and elapsed < 600.0
    report_line(
        8,
        ok,
        f"planted-signal ordering (total-score pooled F1): augmented {augmented:.3f} vs "
        f"tfidf {tfidf:.3f} (margin {margin:+.3f} >= 0.10); concatenation gain "
        f"{concat_gain:+.3f} (< 0.05); run time {elapsed:.0f}s (< 600s)",
    )


@pytest.mark.slow
def test_criterion_09_segmentation_ablation(planted_run, tmp_path):
    from cbtcode.serialize import save_report

    report_for = planted_run["report_for"]
    drops = {}
    for feature_set in ("da", "mc", "da-tfidf", "mc-tfidf"):
        on = report_for(feature_set, True).per_code["total"].f1_high
        off = report_for(feature_set, False).per_code["total"].f1_high
        drops[feature_set] = on - off
    n_strict = sum(d > 0 for d in drops.values())

    p_on, p_off = tmp_path / "tfidf_on.json", tmp_path / "tfidf_off.json"
    save_report(report_for("tfidf", True), p_on)
    save_report(report_for("tfidf", False), p_off)
    tfidf_identical = p_on.read_bytes() == p_off.read_bytes()

    detail = ", ".join(f"{k} {v:+.3f}" for k, v in drops.items())
    report_line(
        9,
        n_strict >= 3 and tfidf_identical,
        f"disabling segmentation lowers pooled F1 for {n_strict}/4 tag-based sets (>= 3) [{detail}]; "
        f"tfidf report bytes identical with segmentation on/off: {tfidf_identical}",
    )


def test_criterion_10_byte_identical_determinism(tmp_path):
    config = {"n_sessions": 30, "utterances_per_session": [8, 12], "seed": 3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["synth", "--config", str(cfg), "--out", str(out2)]) == 0
    synth_same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("corpus.jsonl", "gold_tags.jsonl", "labels.csv", "boundary_text.txt", "synth_manifest.json")
    )

    model = tmp_path / "mc.json"
    assert main(["train", "--what", "mc", "--in", str(out1 / "gold_tags.jsonl"), "--out", str(model)]) == 0
    model2 = tmp_path / "mc2.json"
    assert main(["train", "--what", "mc", "--in", str(out1 / "gold_tags.jsonl"), "--out", str(model2)]) == 0
    model_same = model.read_bytes() == model2.read_bytes()

    tagged = tmp_path / "tagged.jsonl"
    assert main(["tag", "--scheme", "mc", "--model", str(model), "--in", str(out1 / "gold_tags.jsonl"), "--out", str(tagged)]) == 0
    m1, m4 = tmp_path / "t1.mtx", tmp_path / "t4.mtx"
    assert main(["--threads", "1", "featurize", "--set", "mc-tfidf", "--in", str(tagged), "--out", str(m1)]) == 0
    assert main(["--threads", "4", "featurize", "--set", "mc-tfidf", "--in", str(tagged), "--out", str(m4)]) == 0
    threads_same = m1.read_bytes() == m4.read_bytes()

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for rp in (r1, r2):
        assert (
            main(
                ["evaluate", "--matrix", str(m1), "--labels", str(out1 / "labels.csv"),
                 "--k-grid", "8,16", "--seed", "2", "--report", str(rp)]
            )
            == 0
        )
    eval_same = r1.read_bytes() == r2.read_bytes()

    report_line(
        10,
        synth_same and model_same and threads_same and eval_same,
        f"byte-identical artifacts across repeated runs: synth {synth_same}, trained model {model_same}, "
        f"featurize with 1 vs 4 threads {threads_same}, evaluate {eval_same}",
    )
