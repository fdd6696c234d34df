import numpy as np
import pytest

import cbtcode.evaluate
from cbtcode.corpus import CODES, CodeScores
from cbtcode.errors import ValidationError
from cbtcode.evaluate import (
    combined_f_statistic,
    cv_pooled_counts,
    fit_folds_and_count,
    five_by_two_cv_f_test,
    label_matrix,
    make_folds,
    pooled_f1,
    run_protocol,
)
from cbtcode.features import FeatureMatrix, anova_f_scores, fit_scaler, top_k_mask
from helpers import reference_make_folds


class TestMakeFolds:
    def test_equal_fold_sizes(self):
        fold_of = make_folds([f"s{i}" for i in range(10)], 5, 0, np.arange(10) % 3 == 0)
        assert sorted(fold_of.tolist()) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_sizes_differ_by_at_most_one(self):
        fold_of = make_folds([f"s{i}" for i in range(13)], 5, 1, np.arange(13) % 4 == 0)
        sizes = np.bincount(fold_of, minlength=5)
        assert sizes.max() - sizes.min() <= 1

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(20)]
        y = np.arange(20) % 3 == 0
        assert np.array_equal(make_folds(ids, 4, 3, y), make_folds(ids, 4, 3, y))

    def test_stratified_counts(self):
        ids = [f"s{i}" for i in range(10)]
        y = np.arange(10) < 6  # 6 high / 4 low
        fold_of = make_folds(ids, 2, 0, y)
        for f in range(2):
            highs = int(y[fold_of == f].sum())
            assert highs == 3
            assert int(np.sum(fold_of == f)) - highs == 2

    def test_stratified_within_one_of_even_split(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(10, 60))
            ids = [f"s{i}" for i in range(n)]
            y = rng.random(n) < 0.3
            if y.sum() in (0, n):
                y[0] = not y[0]
            k = int(rng.integers(2, 6))
            if k > n:
                continue
            fold_of = make_folds(ids, k, trial, y)
            n_high = int(y.sum())
            for f in range(k):
                highs = int(y[fold_of == f].sum())
                assert abs(highs - n_high / k) <= 1.0

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValidationError):
            make_folds(["a", "b"], 3, 0, np.array([True, False]))

    @pytest.mark.parametrize("y", [[1, 0], [True], np.array([1, 0, 1]), np.array([True, False, True, False])])
    def test_labels_must_be_one_boolean_per_session(self, y):
        with pytest.raises(ValidationError, match="fold labels must be 3 booleans"):
            make_folds(["a", "b", "c"], 2, 0, y)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_matches_reference_dealing(self, seed):
        # Fold numbers order each report's fold counts and the 5x2cv columns,
        # so every session must keep the fold the id-by-id dealing gives it.
        # Shuffled and numeric-order ids ("s2" before "s10") differ from the
        # sorted-id order the dealing uses.
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4, 5, 7, 10, 13, 31, 60, 97, 150, 300):
            numbered = [f"s{i}" for i in range(n)]
            for ids in (numbered, [numbered[i] for i in rng.permutation(n)]):
                one_high = np.zeros(n, dtype=bool)
                one_high[rng.integers(n)] = True
                for y in (rng.random(n) < 0.3, rng.random(n) < 0.5, one_high, ~one_high):
                    for k in range(2, min(n, 6) + 1):
                        folds = reference_make_folds(ids, k, seed, dict(zip(ids, y.tolist())))
                        fold_of = make_folds(ids, k, seed, y)
                        expected = {sid: f for f, fold in enumerate(folds) for sid in fold}
                        assert fold_of.tolist() == [expected[sid] for sid in ids], (n, k)


class TestPooledF1:
    def test_crafted_two_fold_example(self):
        pooled = pooled_f1([(1, 0, 9), (9, 1, 1)])
        assert abs(pooled - 20 / 31) < 1e-12

        def f1(tp, fp, fn):
            if tp == 0:
                return 0.0
            p, r = tp / (tp + fp), tp / (tp + fn)
            return 2 * p * r / (p + r)

        mean_f1 = (f1(1, 0, 9) + f1(9, 1, 1)) / 2
        assert abs(pooled - mean_f1) > 0.09

    def test_perfect(self):
        assert pooled_f1([(5, 0, 0), (7, 0, 0)]) == 1.0

    def test_zero_tp_convention(self):
        assert pooled_f1([(0, 3, 2), (0, 0, 0)]) == 0.0

    def test_equals_per_fold_when_ratios_identical(self):
        counts = [(4, 2, 1), (8, 4, 2)]
        pooled = pooled_f1(counts)
        tp, fp, fn = counts[0]
        p, r = tp / (tp + fp), tp / (tp + fn)
        per_fold = 2 * p * r / (p + r)
        assert abs(pooled - per_fold) < 1e-12

    def test_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            counts = [tuple(int(v) for v in rng.integers(0, 20, size=3)) for _ in range(5)]
            assert 0.0 <= pooled_f1(counts) <= 1.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            pooled_f1([(-1, 0, 0)])


def build_matrix(X, name="test"):
    n, d = X.shape
    return FeatureMatrix(
        set_name=name,
        names=tuple(f"f{j}" for j in range(d)),
        selectable=tuple(True for _ in range(d)),
        session_ids=tuple(f"s{i}" for i in range(n)),
        X=X,
    )


def scores_for_bits(bits):
    """All-six scores for high sessions, all-zero for low: every code task
    (and the total) shares the same label bit."""
    return {
        f"s{i}": CodeScores((6,) * 11 if b else (0,) * 11) for i, b in enumerate(bits)
    }


class TestRunProtocol:
    def test_perfectly_informative_feature_gives_f1_one(self):
        rng = np.random.default_rng(4)
        n = 40
        bits = np.array([i % 2 == 0 for i in range(n)])
        X = rng.normal(size=(n, 6)) * 0.1
        X[:, 0] = np.where(bits, 1.0, -1.0)
        report = run_protocol(build_matrix(X), scores_for_bits(bits), 5, 0, [2, 6])
        for code in list(CODES) + ["total"]:
            assert report.per_code[code].f1_high == 1.0
        assert report.avg_f1 == 1.0

    def test_counts_reaggregate_to_reported_f1(self):
        rng = np.random.default_rng(5)
        n = 30
        bits = rng.random(n) < 0.5
        bits[:2] = [True, False]
        X = rng.normal(size=(n, 5))
        X[:, 0] += np.where(bits, 0.8, -0.8)
        report = run_protocol(build_matrix(X), scores_for_bits(bits), 3, 1, [5])
        for code, result in report.per_code.items():
            again = pooled_f1([(c.tp, c.fp, c.fn) for c in result.folds])
            assert again == result.f1_high
            low_again = pooled_f1([(c.tn, c.fn, c.fp) for c in result.folds])
            assert low_again == result.f1_low

    def test_missing_labels_listed(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(6, 3))
        scores = scores_for_bits([True, False, True])  # s3..s5 missing
        with pytest.raises(ValidationError, match="s3"):
            run_protocol(build_matrix(X), scores, 2, 0, [3])

    def test_label_matrix_columns_are_the_codes_then_total(self):
        hw_only = [0] * 11
        hw_only[CODES.index("hw")] = 4
        scores = {
            "x": CodeScores(tuple(hw_only)),
            "y": CodeScores((4,) * 11),  # total 44 >= 40
            "z": CodeScores((3,) * 10 + (6,)),  # total 36 < 40
        }
        labels = label_matrix(["z", "x", "y"], scores)
        assert labels.dtype == bool and labels.shape == (3, 12)
        assert labels[1].tolist() == [code == "hw" for code in CODES] + [False]
        assert labels[2].all()
        assert labels[0].tolist() == [False] * 10 + [True, False]
        with pytest.raises(ValidationError, match="'w'"):
            label_matrix(["x", "w", "y"], scores)

    def test_deterministic_report(self):
        rng = np.random.default_rng(7)
        n = 24
        bits = np.array([i % 3 == 0 for i in range(n)])
        X = rng.normal(size=(n, 6))
        X[:, 1] += np.where(bits, 1.0, -1.0)
        r1 = run_protocol(build_matrix(X), scores_for_bits(bits), 4, 2, [3, 6])
        r2 = run_protocol(build_matrix(X), scores_for_bits(bits), 4, 2, [3, 6])
        assert r1.to_payload() == r2.to_payload()

    def test_chance_level_f1_in_band(self):
        # random labels, random features: pooled F1 on the total task stays
        # in a broad chance band across seeds
        n = 200
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(n, 20))
            bits = rng.random(n) < 0.5
            if bits.all() or not bits.any():
                bits[0] = not bits[0]
            fold_of = make_folds([f"s{i}" for i in range(n)], 5, seed, bits)
            counts = cv_pooled_counts(X, np.ones(20, dtype=bool), bits, fold_of, k_features=20, svm_c=1.0)
            f1 = pooled_f1([(c.tp, c.fp, c.fn) for c in counts])
            assert 0.35 <= f1 <= 0.65, f"seed {seed}: chance F1 {f1}"


def captured_fits(*protocol_args):
    """Every (task, fit) that run_protocol(*protocol_args) fits, in order,
    K-selection fits included."""
    captured = []

    def recording(tasks, svm_c):
        fits = fit_folds_and_count(tasks, svm_c)
        captured.extend(zip(tasks, fits))
        return fits

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cbtcode.evaluate, "fit_folds_and_count", recording)
        run_protocol(*protocol_args)
    return captured


class TestNoLeakage:
    def test_fold_fits_never_see_test_sessions(self):
        rng = np.random.default_rng(8)
        n = 24
        bits = np.array([i % 2 == 0 for i in range(n)])
        X = rng.normal(size=(n, 8))
        X[:, 0] += np.where(bits, 1.0, -1.0)
        matrix = build_matrix(X)
        scores = scores_for_bits(bits)

        captured = captured_fits(matrix, scores, 3, 0, [4])
        assert captured

        # fitted statistics recompute exactly from the training rows alone
        for task, fit in captured:
            rows = task.train_rows
            assert not (set(rows.tolist()) & set(task.test_rows.tolist()))
            y = bits[rows]
            f = anova_f_scores(X[rows], y)
            expect_mask = top_k_mask(f, np.ones(8, dtype=bool), 4)
            assert np.array_equal(expect_mask, fit.mask)
            expect_mean = fit_scaler(X[np.ix_(rows, np.flatnonzero(expect_mask))]).mean
            assert np.array_equal(expect_mean, fit.scaler.mean)

    def test_corrupting_heldout_rows_leaves_fold_fit_unchanged(self):
        rng = np.random.default_rng(9)
        n = 20
        bits = np.array([i % 2 == 0 for i in range(n)])
        X = rng.normal(size=(n, 6))
        scores = scores_for_bits(bits)

        base = captured_fits(build_matrix(X), scores, 4, 3, [3])
        # The first fit is K-selection fold 0, which the total task reuses.
        corrupted_rows = set(base[0][0].test_rows.tolist())
        X_corrupt = X.copy()
        X_corrupt[sorted(corrupted_rows)] = 1e6
        corrupted = captured_fits(build_matrix(X_corrupt), scores, 4, 3, [3])
        unchanged = 0
        for (task, fit), (task_c, fit_c) in zip(base, corrupted, strict=True):
            assert np.array_equal(task.train_rows, task_c.train_rows)
            if corrupted_rows & set(task.train_rows.tolist()):
                continue
            assert np.array_equal(fit_c.mask, fit.mask)
            assert np.array_equal(fit_c.scaler.mean, fit.scaler.mean)
            assert np.array_equal(fit_c.scaler.std, fit.scaler.std)
            unchanged += 1
        assert unchanged > 0


class TestFiveByTwo:
    def test_hand_computed_statistic(self):
        p = [[0.1, 0.2], [0.0, 0.1], [0.1, 0.1], [0.2, 0.0], [0.1, 0.0]]
        result = combined_f_statistic(p)
        assert abs(result.f_statistic - 13.0 / 7.0) < 1e-6
        assert result.degrees == (10, 5)
        assert result.significant is False  # 1.857 << F(10,5) critical value
        stats = pytest.importorskip("scipy.stats")
        assert result.p_value == pytest.approx(stats.f.sf(13.0 / 7.0, 10, 5), rel=1e-12)

    def test_f_tail_matches_scipy_over_a_log_grid(self):
        """The closed-form F(10, 5) tail against scipy's incomplete beta over
        every scale, below the f >= 1/2 that a 5x2 matrix can give as well."""
        stats = pytest.importorskip("scipy.stats")
        for f in [*np.logspace(-8, 8, 161), 13.0 / 7.0, 14.45]:
            assert cbtcode.evaluate._f_10_5_tail(float(f)) == pytest.approx(stats.f.sf(f, 10, 5), rel=1e-12), f

    @pytest.mark.parametrize("f", [*np.logspace(0, 8, 17), 14.45])
    def test_p_value_matches_scipy(self, f):
        stats = pytest.importorskip("scipy.stats")
        m = np.sqrt(2.0 * f - 1.0)  # rows (m + 1, m - 1) give f = (m^2 + 1) / 2
        result = combined_f_statistic(np.tile([m + 1.0, m - 1.0], (5, 1)))
        assert result.f_statistic == pytest.approx(f, rel=1e-12)
        assert result.p_value == pytest.approx(stats.f.sf(result.f_statistic, 10, 5), rel=1e-12)
        assert result.significant == (result.p_value < 0.05)

    def test_symmetric_in_sign(self):
        p = np.array([[0.1, 0.2], [0.0, 0.1], [0.1, 0.1], [0.2, 0.0], [0.1, 0.0]])
        a = combined_f_statistic(p)
        b = combined_f_statistic(-p)
        assert a.f_statistic == b.f_statistic

    def test_all_zero_reports_no_difference(self):
        result = combined_f_statistic(np.zeros((5, 2)))
        assert result.f_statistic is None
        assert result.verdict == "no difference"

    def test_zero_variance_with_differences_is_degenerate_inf(self):
        p = np.full((5, 2), 0.25)
        result = combined_f_statistic(p)
        assert np.isinf(result.f_statistic)
        assert result.degenerate
        assert result.significant

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError):
            combined_f_statistic(np.zeros((4, 2)))

    def test_every_fit_trains_on_ascending_rows_and_covers_each_session_once(self):
        rng = np.random.default_rng(12)
        n = 30
        bits = np.array([i % 3 != 0 for i in range(n)])
        X_a = rng.normal(size=(n, 5))
        X_a[:, 0] += np.where(bits, 1.0, -1.0)
        X_b = rng.normal(size=(n, 5))
        captured = []

        def recording(tasks, svm_c):
            captured.extend(tasks)
            return fit_folds_and_count(tasks, svm_c)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cbtcode.evaluate, "fit_folds_and_count", recording)
            five_by_two_cv_f_test(build_matrix(X_a, "a"), build_matrix(X_b, "b"), scores_for_bits(bits),
                                  seed=3, k_grid=[2, 5])
        # K selection: 2 pipelines x 2 K x 5 folds; then 5 replications x 2 pipelines x 2 halves
        assert len(captured) == 40
        for task in captured:
            assert np.all(np.diff(task.train_rows) > 0)
            assert sorted(np.concatenate([task.train_rows, task.test_rows]).tolist()) == list(range(n))

    def test_identical_pipelines_no_difference(self):
        rng = np.random.default_rng(10)
        n = 24
        bits = np.array([i % 2 == 0 for i in range(n)])
        X = rng.normal(size=(n, 6))
        X[:, 0] += np.where(bits, 1.0, -1.0)
        matrix = build_matrix(X)
        scores = scores_for_bits(bits)
        result = five_by_two_cv_f_test(matrix, matrix, scores, seed=0, k_grid=[3])
        assert result.verdict == "no difference"

    def test_distinguishes_informative_from_noise(self):
        rng = np.random.default_rng(11)
        n = 60
        bits = np.array([i % 2 == 0 for i in range(n)])
        X_good = rng.normal(size=(n, 4)) * 0.05
        X_good[:, 0] = np.where(bits, 1.0, -1.0)
        X_noise = rng.normal(size=(n, 4))
        good = build_matrix(X_good, "good")
        noise = build_matrix(X_noise, "noise")
        result = five_by_two_cv_f_test(good, noise, scores_for_bits(bits), seed=1, k_grid=[4])
        assert result.verdict != "no difference"
        assert result.significant
