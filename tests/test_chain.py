import math

import numpy as np
import pytest

from cbtcode import chain
from cbtcode.chain import forward_backward, viterbi
from cbtcode.corpus import TagSet
from cbtcode.errors import ValidationError
from cbtcode.optimize import minimize_lbfgs
from cbtcode.tagger import (
    ChainCRF,
    crf_training_objective,
    train_chain_crf,
)
from helpers import enumerate_chain, path_scores, reference_viterbi


class TestForwardBackward:
    def test_length_one_symmetry(self):
        (log_z,), marg, pair = forward_backward(np.zeros((1, 2)), np.zeros((2, 2)), [1])
        assert abs(log_z - math.log(2)) < 1e-12
        assert np.allclose(marg, [[0.5, 0.5]], atol=1e-12)
        assert pair.shape == (0, 2, 2)

    def test_zero_transitions_factorize(self):
        rng = np.random.default_rng(0)
        E = rng.normal(size=(5, 3))
        _, marg, _ = forward_backward(E, np.zeros((3, 3)), [5])
        soft = np.exp(E) / np.exp(E).sum(axis=1, keepdims=True)
        assert np.allclose(marg, soft, atol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(2, 5))
            E = rng.normal(size=(n, k)) * 2
            T = rng.normal(size=(k, k))
            (log_z,), marg, pair = forward_backward(E, T, [n])
            ez, em, ep, _, _ = enumerate_chain(E, T)
            assert abs(log_z - ez) < 1e-9
            assert np.abs(marg - em).max() < 1e-9
            if n > 1:
                assert np.abs(pair - ep).max() < 1e-9

    def test_marginals_normalized_and_consistent(self):
        rng = np.random.default_rng(2)
        E = rng.normal(size=(7, 4))
        T = rng.normal(size=(4, 4))
        _, marg, pair = forward_backward(E, T, [7])
        assert np.abs(marg.sum(axis=1) - 1.0).max() < 1e-9
        assert np.abs(pair.sum(axis=2) - marg[:-1]).max() < 1e-9
        assert np.abs(pair.sum(axis=1) - marg[1:]).max() < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        E = rng.normal(size=(6, 3))
        T = rng.normal(size=(3, 3))
        _, marg, _ = forward_backward(E, T, [6])
        path = viterbi(E, T, [6])
        E2 = E.copy()
        E2[2] += 7.5
        _, marg2, _ = forward_backward(E2, T, [6])
        assert np.array_equal(viterbi(E2, T, [6]), path)
        assert np.abs(marg - marg2).max() < 1e-9

    def test_batch_lengths_rejected_when_malformed(self):
        E = np.zeros((4, 2))
        for kernel in (forward_backward, viterbi):
            # sum != rows, a zero, a negative, floats, 2-D, none at all, None
            for lengths in ([1, 2], [0, 4], [-1, 5], [1.0, 3.0], [[1, 3]], [], None):
                with pytest.raises(ValidationError, match="lengths"):
                    kernel(E, np.zeros((2, 2)), lengths)
            with pytest.raises(ValidationError, match="emissions"):
                kernel(np.zeros((2, 3, 2)), np.zeros((2, 2)), [3, 3])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            forward_backward(np.array([[np.nan, 0.0]]), np.zeros((2, 2)), [1])
        with pytest.raises(ValidationError):
            viterbi(np.array([[np.inf, 0.0]]), np.zeros((2, 2)), [1])



def ragged_batch(rng, lengths, k):
    """The stacked emission rows of random sequences of the given lengths."""
    lengths = np.asarray(lengths)
    return rng.normal(size=(int(lengths.sum()), k)) * 2, lengths


def split(rows, lengths):
    """Each sequence's slice of a stack of rows, one per position."""
    return np.split(rows, np.cumsum(lengths)[:-1])


def split_pairs(pairwise, lengths):
    """Each sequence's slice of a stack of adjacent-pair rows."""
    return np.split(pairwise, np.cumsum(np.asarray(lengths) - 1)[:-1])


@pytest.fixture
def scaled_only(monkeypatch):
    """Makes the log-space fallback raise; yields forward_backward forced
    onto it."""
    log_kernel = chain._forward_backward_log

    def fail(*args):
        raise AssertionError("the scaled recursion fell back to log space")

    monkeypatch.setattr(chain, "_forward_backward_log", fail)

    def log_space(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain, "_MAX_SPAN", -np.inf)
            mp.setattr(chain, "_forward_backward_log", log_kernel)
            return forward_backward(*args)

    return log_space


class TestScaledRecursion:
    def test_ordinary_ragged_batches_stay_on_the_scaled_path(self, scaled_only):
        log_space = scaled_only
        rng = np.random.default_rng(21)
        batches = [[5, 1, 3, 1, 7, 2], [1], [4], [1, 1, 1], [2, 9, 9, 1, 6]]
        batches += [rng.integers(1, 12, size=int(rng.integers(1, 10))) for _ in range(40)]
        for lengths in batches:
            k = int(rng.integers(2, 8))
            E, n = ragged_batch(rng, lengths, k)
            T = rng.normal(size=(k, k)) * 3
            got = forward_backward(E, T, n)
            want = log_space(E, T, n)
            assert got[1].shape == (n.sum(), k) and got[2].shape == (n.sum() - len(n), k, k)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.abs(g - w).max(initial=0.0) < 1e-12  # pairwise is empty if every length is 1
        E = rng.normal(size=(6, 3))
        T = rng.normal(size=(3, 3))
        (log_z,), marg, pair = forward_backward(E, T, [6])
        (want_z,), want_marg, want_pair = log_space(E, T, [6])
        assert abs(log_z - want_z) < 1e-12
        assert np.abs(marg - want_marg).max() < 1e-12 and np.abs(pair - want_pair).max() < 1e-12

    def test_wide_ranges_inside_the_span_stay_exact(self, scaled_only):
        rng = np.random.default_rng(24)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            # Emission spread up to 300 and transition range up to 150: a
            # span of about 600, just inside the scaled recursion's.
            E = rng.normal(size=(m, k)) - 298.0 * (rng.random(size=(m, k)) < 0.4)
            T = rng.uniform(-75.0, 75.0, size=(k, k))
            (log_z,), marg, pair = forward_backward(E, T, [m])
            ez, em, ep, _, _ = enumerate_chain(E, T)
            assert abs(log_z - ez) < 1e-9
            assert np.abs(marg - em).max() < 1e-9
            assert np.abs(pair - ep).max() < 1e-9

    def test_extreme_transitions_fall_back_to_log_space(self, monkeypatch):
        calls = []
        log_space = chain._forward_backward_log

        def counted(E, T, blocks):
            calls.append(len(E))
            return log_space(E, T, blocks)

        monkeypatch.setattr(chain, "_forward_backward_log", counted)
        rng = np.random.default_rng(22)
        # Tag 0 moves to tag 1 at +800, and every way out of tag 1 scores
        # -800: from the second step on the chain sits in tag 1, and a
        # probability-space step after that underflows to 0.
        T = np.array([[0.0, 800.0], [-800.0, -800.0]])
        E = rng.normal(size=(5, 2))
        (log_z,), marg, pair = forward_backward(E, T, [5])
        assert calls == [5]
        ez, em, ep, _, _ = enumerate_chain(E, T)
        assert abs(log_z - ez) < 1e-9
        assert np.abs(marg - em).max() < 1e-9 and np.abs(pair - ep).max() < 1e-9

        # One underflowing sequence sends its whole batch to log space.
        Eb, n = ragged_batch(rng, [2, 5, 1, 4], 2)
        Eb[2:7] = E
        log_z, marg, pair = forward_backward(Eb, T, n)
        assert calls == [5, 12]
        for i, (e, m, p) in enumerate(zip(split(Eb, n), split(marg, n), split_pairs(pair, n))):
            ez, em, ep, _, _ = enumerate_chain(e, T)
            assert abs(log_z[i] - ez) < 1e-9
            assert np.abs(m - em).max() < 1e-9
            assert np.abs(p - ep).max(initial=0.0) < 1e-9

        # Any transition range near 800 is past the scaled recursion's span.
        calls.clear()
        sizes = []
        for _ in range(40):
            m = int(rng.integers(1, 7))
            k = int(rng.integers(2, 5))
            E = rng.normal(size=(m, k)) * 2
            T = rng.normal(size=(k, k)) * 800
            (log_z,), marg, pair = forward_backward(E, T, [m])
            ez, em, ep, _, _ = enumerate_chain(E, T)
            assert abs(log_z - ez) < 1e-9
            assert np.abs(marg - em).max() < 1e-9
            if m > 1:
                assert np.abs(pair - ep).max() < 1e-9
            sizes.append(m)
        assert calls == sizes


class TestViterbi:
    def test_length_one_argmax(self):
        assert viterbi(np.array([[0.1, 0.9, 0.3]]), np.zeros((3, 3)), [1]).tolist() == [1]

    def test_all_equal_scores_takes_lowest_index(self):
        assert viterbi(np.zeros((4, 3)), np.zeros((3, 3)), [4]).tolist() == [0, 0, 0, 0]
        paths = viterbi(np.zeros((9, 4)), np.zeros((4, 4)), np.array([5, 1, 3]))
        assert paths.shape == (9,) and not paths.any()

    def test_matches_enumeration_score(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(2, 5))
            E = rng.normal(size=(n, k))
            T = rng.normal(size=(k, k))
            path = viterbi(E, T, [n])
            _, _, _, best_score, best_path = enumerate_chain(E, T)
            assert abs(path_scores(E, T, path[None])[0] - best_score) < 1e-9
            assert path.tolist() == best_path


    def test_ragged_tied_batches_match_one_at_a_time(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            k = int(rng.integers(2, 5))
            T = rng.integers(-1, 2, size=(k, k)).astype(float)
            n = rng.integers(1, 9, size=int(rng.integers(1, 8)))
            E = rng.integers(-2, 3, size=(int(n.sum()), k)).astype(float)
            paths = viterbi(E, T, n)
            assert paths.shape == (n.sum(),)
            for e, path in zip(split(E, n), split(paths, n)):
                assert path.tolist() == reference_viterbi(e, T)


XY = TagSet("chain", ("X", "Y"))


def tiny_dataset():
    # Two short sequences over the 2 tags of XY with 3 named features.
    return [
        ([["bias", "w=a"], ["bias", "w=b"]], ["X", "Y"]),
        ([["bias", "w=b"], ["bias", "w=a"], ["bias", "w=a"]], ["Y", "X", "X"]),
    ]


def objective_at(model, data):
    """The training objective at the model's weights: (negative penalized
    log-likelihood, its gradient)."""
    fun = crf_training_objective(data, model.labels, model.feature_names, model.l2)
    return fun(np.concatenate([model.weights.reshape(-1), model.transitions.reshape(-1)]))


class TestCrfGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        labels = ("X", "Y", "Z")
        names = ("bias", "w=a", "w=b", "w=c")
        data = []
        for _ in range(4):
            n = int(rng.integers(1, 5))
            feats = [["bias", "w=" + "abc"[int(rng.integers(0, 3))]] for _ in range(n)]
            gold = [labels[int(rng.integers(0, 3))] for _ in range(n)]
            data.append((feats, gold))
        fun = crf_training_objective(data, labels, names, l2=0.3)
        theta = rng.normal(size=len(names) * 3 + 9) * 0.5
        _, grad = fun(theta)
        h = 1e-5
        for i in range(len(theta)):
            e = np.zeros_like(theta)
            e[i] = h
            fd = (fun(theta + e)[0] - fun(theta - e)[0]) / (2 * h)
            denom = max(1.0, abs(fd), abs(grad[i]))
            assert abs(grad[i] - fd) / denom < 1e-5

    def test_loglik_nonpositive_without_regularization(self):
        rng = np.random.default_rng(6)
        with pytest.warns(UserWarning, match="stopped at max_iter=5"):
            model = train_chain_crf(tiny_dataset(), XY, l2=0.0, max_iter=5)
        nll, _ = objective_at(model, tiny_dataset())
        assert nll >= 0.0
        # also at random weights
        m2 = ChainCRF(
            scheme="chain",
            labels=model.labels,
            feature_names=model.feature_names,
            weights=rng.normal(size=model.weights.shape),
            transitions=rng.normal(size=model.transitions.shape),
            l2=0.0,
        )
        nll2, _ = objective_at(m2, tiny_dataset())
        assert nll2 >= 0.0

    def test_overflowing_step_returns_nonfinite_value(self):
        # L-BFGS backtracks from a trial step whose value is not finite, so
        # the objective must return one instead of raising.
        labels = ("X", "Y")
        names = ("bias", "w=a", "w=b")
        fun = crf_training_objective(tiny_dataset(), labels, names, l2=0.1)
        for theta in (np.full(10, np.inf), np.full(10, 1e308)):
            value, _ = fun(theta)
            assert not np.isfinite(value)

    def test_l2_term_is_linear_in_strength(self):
        rng = np.random.default_rng(7)
        labels = ("X", "Y")
        names = ("bias", "w=a", "w=b")
        theta = rng.normal(size=len(names) * 2 + 4)
        f1 = crf_training_objective(tiny_dataset(), labels, names, l2=0.5)
        f2 = crf_training_objective(tiny_dataset(), labels, names, l2=1.0)
        _, g1 = f1(theta)
        _, g2 = f2(theta)
        assert np.allclose(g2 - g1, 0.5 * theta, atol=1e-12)


class TestCrfTraining:
    def test_separable_data_reaches_perfect_accuracy(self):
        # each tag is emitted by a unique word
        rng = np.random.default_rng(8)
        labels = ("A", "B", "C")
        data = []
        for _ in range(30):
            n = int(rng.integers(2, 6))
            gold = [labels[int(rng.integers(0, 3))] for _ in range(n)]
            feats = [["bias", "w=tok_" + g] for g in gold]
            data.append((feats, gold))
        model = train_chain_crf(data, TagSet("abc", labels), l2=0.01)
        for (_, gold), path in zip(data, model.decode_many(feats for feats, _ in data), strict=True):
            assert [model.labels[i] for i in path] == gold

    def test_stationarity_after_training(self):
        data = tiny_dataset()
        model = train_chain_crf(data, XY, l2=0.2)
        _, grad = objective_at(model, data)
        assert float(np.linalg.norm(grad)) < 1e-4

    def test_deterministic_given_seed(self):
        m1 = train_chain_crf(tiny_dataset(), XY, l2=0.1)
        m2 = train_chain_crf(tiny_dataset(), XY, l2=0.1)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.transitions, m2.transitions)

    def test_objective_trace_nonincreasing(self):
        labels = ("X", "Y")
        names = sorted({f for fs, _ in tiny_dataset() for row in fs for f in row})
        fun = crf_training_objective(tiny_dataset(), labels, tuple(names), l2=0.1)
        res = minimize_lbfgs(fun, np.zeros(len(names) * 2 + 4), tol=1e-4, max_iter=200)
        assert np.all(np.diff(res.trace) <= 0.0)

    def test_unknown_gold_tag_rejected(self):
        with pytest.raises(ValidationError, match="unknown gold tag"):
            train_chain_crf([([["bias"]], ["Q"])], XY)

    def test_empty_data_rejected(self):
        with pytest.raises(ValidationError):
            train_chain_crf([], XY)
