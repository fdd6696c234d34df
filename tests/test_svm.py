import numpy as np
import pytest

import cbtcode.evaluate
import cbtcode.svm
from cbtcode.errors import NumericalError, ValidationError
from cbtcode.evaluate import LABEL_COLUMNS, fit_folds_and_count, label_matrix, select_k_tasks
from cbtcode.pipeline import build_feature_matrix
from cbtcode.svm import (
    ClassWeights,
    LinearModel,
    SvmProblem,
    class_weights,
    decision_function,
    predict_many,
    train_svm,
    train_svms,
    _optimal_bias,
)
from cbtcode.synth import SynthConfig, generate_corpus
from helpers import _reference_bias, hinge_objective, smo_one_problem, subgradient_hinge_oracle


class TestClassWeights:
    def test_balanced_gives_unit_weights(self):
        w = class_weights([True, False, True, False])
        assert w.low == 1.0 and w.high == 1.0

    def test_table_counts(self):
        y = [False] * 134 + [True] * 91
        w = class_weights(y)
        assert round(w.low, 4) == 0.8396
        assert round(w.high, 4) == 1.2363

    def test_duplication_invariance(self):
        y = [False] * 10 + [True] * 4
        w1 = class_weights(y)
        w2 = class_weights(y * 2)
        assert w1 == w2

    def test_weighted_sample_sum_equals_n(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            y = rng.random(n) < rng.uniform(0.2, 0.8)
            if y.all() or not y.any():
                y[0] = not y[0]
            w = class_weights(y)
            total = sum(w.high if b else w.low for b in y)
            assert abs(total - n) < 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            class_weights([True, True])


class TestTrainSvm:
    def test_separable_pair_boundary_at_zero(self):
        X = np.array([[-1.0], [1.0]])
        y = [False, True]
        model = train_svm(X, y, C=10.0)
        assert predict_many(model, np.array([[-1.0], [1.0]])).tolist() == [False, True]
        assert abs(model.bias) < 1e-6
        assert abs(model.weights[0] - 1.0) < 1e-3

    def test_objective_not_worse_than_zero_vector(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.normal(size=(30, 6))
            y = rng.random(30) < 0.5
            if y.all() or not y.any():
                y[0] = not y[0]
            w = class_weights(y)
            model = train_svm(X, y, C=1.0, weights=w)
            ys = np.where(y, 1.0, -1.0)
            sc = np.where(y, w.high, w.low)
            at_solution = hinge_objective(X, ys, sc, model.weights, model.bias)
            at_zero = hinge_objective(X, ys, sc, np.zeros(6), 0.0)
            assert at_solution <= at_zero + 1e-9

    def test_matches_subgradient_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
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
            assert abs(mine - oracle) / max(1.0, abs(oracle)) < 1e-4

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 8))
        y = rng.random(40) < 0.5
        y[0], y[1] = True, False
        m1 = train_svm(X, y)
        m2 = train_svm(X, y)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_duplicated_minority_equals_weighted_objective(self):
        rng = np.random.default_rng(4)
        X_low = rng.normal(size=(6, 4))
        X_high = rng.normal(size=(3, 4)) + 1.0
        X = np.vstack([X_low, X_high])
        y = np.array([False] * 6 + [True] * 3)
        w = class_weights(y)
        sc_weighted = 1.0 * np.where(y, w.high, w.low)
        # duplicate the minority class to balance; unit weights, C' = N/(2 N_major)
        X_dup = np.vstack([X_low, X_high, X_high])
        y_dup = np.array([False] * 6 + [True] * 6)
        c_prime = 9 / (2 * 6)
        sc_dup = np.full(12, c_prime)
        for _ in range(20):
            wv = rng.normal(size=4)
            b = float(rng.normal())
            ys = np.where(y, 1.0, -1.0)
            ys_dup = np.where(y_dup, 1.0, -1.0)
            a = hinge_objective(X, ys, sc_weighted, wv, b)
            bb = hinge_objective(X_dup, ys_dup, sc_dup, wv, b)
            assert abs(a - bb) < 1e-9

    def test_prediction_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 5))
        y = rng.random(30) < 0.5
        y[0], y[1] = True, False
        model = train_svm(X, y)
        scaled = LinearModel(
            weights=model.weights * 7.3,
            bias=model.bias * 7.3,
            C=model.C,
            weight_low=model.weight_low,
            weight_high=model.weight_high,
            n_iter=model.n_iter,
            gap=model.gap,
            converged=model.converged,
        )
        Xt = rng.normal(size=(50, 5))
        assert np.array_equal(predict_many(model, Xt), predict_many(scaled, Xt))

    def test_nonfinite_features_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(ValidationError):
            train_svm(X, [True, False])

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            train_svm(np.ones((3, 2)), [True, True, True])

    @pytest.mark.parametrize(
        "C, weights",
        [(0.0, None), (-1.0, None), (np.inf, None), (1.0, ClassWeights(1.0, 0.0)), (1.0, ClassWeights(np.nan, 1.0))],
    )
    def test_nonpositive_or_infinite_c_and_weights_rejected(self, C, weights):
        X = np.array([[-1.0], [1.0]])
        with pytest.raises(ValidationError, match="C and the class weights must be positive and finite"):
            train_svm(X, [False, True], C, weights)


def fold_like_problem(rng, n, d, C=1.0, weights=None, tol=1e-6, max_iter=1_000_000):
    """Standardized features with a weak planted signal, as in a CV training fold."""
    y = rng.random(n) < rng.uniform(0.3, 0.7)
    y[0], y[1] = True, False
    X = rng.normal(size=(n, d))
    X[:, : max(1, d // 8)] += 0.8 * np.where(y, 1.0, -1.0)[:, None]
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    return SvmProblem(X, y, C, weights, tol, max_iter)


def mixed_problems():
    """Sizes, dimensions, C and class weights mixed, with every way a solve stops."""
    rng = np.random.default_rng(27)
    problems = [
        fold_like_problem(
            rng,
            n=int(rng.choice([48, 48, 48, 47, 30, 12])),
            d=int(rng.choice([3, 16, 64, 128])),
            C=float(rng.choice([0.1, 1.0, 10.0])),
            weights=None
            if rng.random() < 0.5
            else ClassWeights(float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))),
        )
        for _ in range(50)
    ]
    problems += [
        fold_like_problem(rng, 48, 16, C=1e-9),  # converges at the initial gap
        # One class's box is far below the other's, so the start is extreme;
        # tol=1e-30 cannot be met, so these three run until they stall.
        fold_like_problem(rng, 48, 16, weights=ClassWeights(1.0, 1e-13), tol=1e-30),
        fold_like_problem(rng, 30, 16, weights=ClassWeights(1e-13, 1.0), tol=1e-30),
        fold_like_problem(rng, 47, 64, tol=1e-30),
    ]
    return problems


def primal(p, w, b):
    """The problem's weighted primal objective at (w, b)."""
    weights = p.weights if p.weights is not None else class_weights(p.y)
    ys = np.where(p.y, 1.0, -1.0)
    return hinge_objective(p.X, ys, p.C * np.where(p.y, weights.high, weights.low), w, b)


class TestTrainSvms:
    def test_batch_equals_one_fit_at_a_time(self):
        problems = mixed_problems()
        checked = 0
        for p, batched in zip(problems, train_svms(problems)):
            alone = train_svm(p.X, p.y, p.C, p.weights, tol=p.tol, max_iter=p.max_iter)
            assert batched.weights.tobytes() == alone.weights.tobytes()
            assert (batched.bias, batched.n_iter, batched.gap, batched.converged) == (
                alone.bias, alone.n_iter, alone.gap, alone.converged
            )
            # SMO, solved independently, is the objective oracle: two
            # solutions within tol of the optimum are within 2 tol of each other.
            weights = p.weights if p.weights is not None else class_weights(p.y)
            w, bias, _, _, smo_converged = smo_one_problem(p.X, p.y, p.C, weights, p.tol, p.max_iter)
            if batched.converged and smo_converged:
                mine, oracle = primal(p, batched.weights, batched.bias), primal(p, w, bias)
                assert abs(mine - oracle) <= 2 * p.tol * max(1.0, abs(oracle))
                checked += 1
        assert checked >= 50

    def test_mixed_problems_cover_every_way_a_solve_stops(self):
        problems = mixed_problems()
        models = train_svms(problems)
        initial, *stalled = models[-4:]
        assert initial.n_iter == 0 and initial.converged
        assert all(m.converged and 0 < m.n_iter <= 50 for m in models[:-4])
        # A stalled solve ends unconverged without raising, long before max_iter.
        assert all(not m.converged and 0 < m.n_iter <= 50 for m in stalled)
        assert len({len(p.y) for p in problems}) >= 4 and len({p.X.shape[1] for p in problems}) >= 4
        assert sum(len(p.y) == 48 for p in problems) > 20  # more than one batch of one size

    def test_max_iter_exhaustion_raises_the_first_failure_in_order(self):
        rng = np.random.default_rng(13)
        fine = fold_like_problem(rng, 48, 16)
        first = fold_like_problem(rng, 30, 64, max_iter=3)
        second = fold_like_problem(rng, 48, 16, max_iter=2)
        with pytest.raises(NumericalError) as alone:
            train_svm(first.X, first.y, first.C, first.weights, tol=first.tol, max_iter=first.max_iter)
        # `second` shares a batch with `fine`, solved before the batch of `first`.
        with pytest.raises(NumericalError) as batched:
            train_svms([fine, first, second])
        assert str(batched.value) == str(alone.value)
        assert "max_iter=3" in str(batched.value)

    def test_a_problem_stops_on_its_own_test_only(self, monkeypatch):
        rng = np.random.default_rng(5)
        p = fold_like_problem(rng, 48, 16)
        k = train_svm(p.X, p.y).n_iter  # its gap meets tol at iteration k
        # A batch mate of the same shape leaves at iteration k.  With the
        # screen shut, `p` itself stops only when it stalls, later.
        mate = fold_like_problem(rng, 48, 16, max_iter=k)
        monkeypatch.setattr(cbtcode.svm, "_SCREEN", 0.0)
        alone, batched = cbtcode.svm._Fit(p), cbtcode.svm._Fit(p)
        cbtcode.svm._solve_batch([alone])
        cbtcode.svm._solve_batch([batched, cbtcode.svm._Fit(mate)])
        assert alone.converged and alone.n_iter > k
        assert (batched.n_iter, batched.gap, batched.bias) == (alone.n_iter, alone.gap, alone.bias)
        assert batched.w.tobytes() == alone.w.tobytes()

    def test_empty_list_gives_no_models(self):
        assert train_svms([]) == []


def duplicate_column_problem(C):
    """A 240 x 16 Gaussian matrix with 6 of its columns repeated: rank 16 of 22."""
    rng = np.random.default_rng(0)
    A = rng.normal(size=(240, 16))
    y = A[:, 0] + 0.3 * rng.normal(size=240) > 0
    return SvmProblem(np.hstack([A, A[:, :6]]), y, C, class_weights(y))


def reference_fold_problem():
    """The SVM problem of one K-selection fold of the reference workload (300
    planted-signal sessions, seed 11, tfidf, K=64, fold 1): its 64 scaled
    columns hold only 53 distinct ones, and SMO took 194,640 iterations."""
    result = generate_corpus(SynthConfig(n_sessions=300, seed=11))
    matrix = build_feature_matrix(result.tagged, "tfidf")
    scores = {s.id: s.scores for s in result.sessions}
    total = label_matrix(matrix.session_ids, scores)[:, LABEL_COLUMNS.index("total")]
    selectable = np.asarray(matrix.selectable, dtype=bool)
    ks, tasks = select_k_tasks(matrix.X, matrix.session_ids, selectable, total, (16, 32, 64, 128), 5, 0)
    captured = []

    def spy(problems):
        captured.extend(problems)
        return train_svms(problems)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cbtcode.evaluate, "train_svms", spy)
        fit_folds_and_count([tasks[ks.index(64) * 5 + 1]], 1.0)
    return captured[0]


class TestDegenerateProblems:
    """Rank-deficient problems, on which SMO's Newton jump was singular and a
    solve could run to max_iter, converge in a bounded number of iterations."""

    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3])
    def test_duplicate_columns_converge(self, C):
        p = duplicate_column_problem(C)
        assert np.linalg.matrix_rank(p.X) == 16
        model = train_svms([p])[0]
        assert model.converged and model.n_iter <= 50

    def test_reference_fold_with_duplicate_columns_converges(self):
        p = reference_fold_problem()
        assert p.X.shape == (240, 64)
        assert len(np.unique(p.X.round(12), axis=1).T) == 53
        model = train_svms([p])[0]
        assert model.converged and model.n_iter <= 50


class TestOptimalBias:
    """The batched `_optimal_bias` against a brute-force search and the
    one-problem loop it replaced."""

    @staticmethod
    def loss(u, ys, sample_c, b):
        return float(np.dot(sample_c, np.maximum(0.0, 1.0 - ys * (u + b))))

    def check(self, u, ys, sample_c):
        pos_c = np.array([float(c[y > 0].sum()) for c, y in zip(sample_c, ys)])
        biases = _optimal_bias(u, ys, sample_c, pos_c)
        for row, b in enumerate(biases):
            args = u[row], ys[row], sample_c[row]
            assert b == _reference_bias(*args)
            points = np.sort(ys[row] - u[row])
            candidates = np.concatenate([points, 0.5 * (points[1:] + points[:-1])])
            best = min(self.loss(*args, c) for c in candidates)
            assert self.loss(*args, b) <= best + 1e-12 * max(1.0, abs(best))

    def test_random_inputs(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 7, 48):
            ys = np.where(rng.random((20, n)) < 0.5, 1.0, -1.0)
            ys[:, 0], ys[:, 1] = 1.0, -1.0
            self.check(rng.normal(size=(20, n)), ys, rng.uniform(0.1, 3.0, size=(20, n)))

    def test_exact_ties(self):
        rng = np.random.default_rng(9)
        n = 10
        # Balanced classes with equal weights: the slope is exactly zero
        # half-way, so the optimum is the middle of a flat stretch; repeated
        # breakpoints tie in index order.
        ys = np.tile(np.repeat([1.0, -1.0], n // 2), (20, 1))
        u = rng.integers(-2, 3, size=(20, n)).astype(float)
        self.check(u, ys, np.ones((20, n)))
        # A zero-weight negative class and a positive sample with the largest
        # breakpoint: the slope first reaches zero at the last breakpoint,
        # which is then the optimum.
        c = np.where(ys > 0, 1.0, 0.0)
        pos_c = c.sum(axis=1)
        u[:, 0] = -10.0
        self.check(u, ys, c)
        last = np.sort(ys - u, axis=1)[:, -1]
        assert np.array_equal(_optimal_bias(u, ys, c, pos_c), last)
class TestPredict:
    def model_with(self, w, b):
        return LinearModel(
            weights=np.asarray(w, dtype=float),
            bias=float(b),
            C=1.0,
            weight_low=1.0,
            weight_high=1.0,
            n_iter=0,
            gap=0.0,
            converged=True,
        )

    def test_zero_vector_positive_bias(self):
        assert predict_many(self.model_with([1.0, 1.0], 0.5), np.zeros((1, 2))).tolist() == [True]

    def test_exact_zero_score_is_low(self):
        assert predict_many(self.model_with([1.0, 1.0], 0.0), np.zeros((1, 2))).tolist() == [False]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            predict_many(self.model_with([1.0, 2.0], 0.0), np.zeros((1, 3)))

    def test_decision_function_matrix(self):
        model = self.model_with([2.0, -1.0], 0.25)
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(decision_function(model, X), [2.25, -0.75])
