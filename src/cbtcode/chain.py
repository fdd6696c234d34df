"""Linear-chain sequence primitives: forward-backward and Viterbi.

Scores are additive: a labeling y of a length-n sequence scores
sum_t emissions[t, y_t] + sum_{t>0} transitions[y_{t-1}, y_t].  There are no
separate start/stop potentials.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MAX_SPAN = 700.0  # below -log of the smallest normal float, 708.4


def _check_inputs(emissions, transitions, batched: bool = False) -> tuple[np.ndarray, np.ndarray]:
    E = np.asarray(emissions, dtype=float)
    if E.ndim != (3 if batched else 2) or 0 in E.shape:
        form = "a (batch, max_len, n_tags) array" if batched else "a (length, n_tags) matrix"
        raise ValidationError(f"emissions must be {form}, got shape {E.shape}")
    k = E.shape[-1]
    T = np.asarray(transitions, dtype=float)
    if T.shape != (k, k):
        raise ValidationError(f"transitions must be ({k}, {k}), got {T.shape}")
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(T))):
        raise ValidationError("emissions and transitions must be finite")
    return E, T


def _check_batch(emissions, transitions, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(emissions as a padded batch, transitions, lengths): one (n, k) sequence
    when lengths is None, else a (batch, max_len, k) array and its lengths."""
    if lengths is None:
        E, T = _check_inputs(emissions, transitions)
        return E[None], T, np.array([E.shape[0]])
    E, T = _check_inputs(emissions, transitions, batched=True)
    n = np.asarray(lengths)
    if n.shape != E.shape[:1] or not np.issubdtype(n.dtype, np.integer):
        raise ValidationError(f"lengths must be {E.shape[0]} integers, got {lengths!r}")
    if n.min() < 1 or n.max() > E.shape[1]:
        raise ValidationError(f"lengths must lie in [1, {E.shape[1]}]")
    return E, T, n


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def _by_length(E: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int], np.ndarray]:
    """The batch sorted by length, longest first (stable).

    Returns E and n in that order, the number of sequences live at each step
    (at step t they are rows [:live[t]]), and the permutation that restores
    the input order.
    """
    order = np.argsort(-n, kind="stable")
    live = np.count_nonzero(n[order, None] > np.arange(E.shape[1]), axis=0)
    return E[order], n[order], live.tolist(), np.argsort(order)


def _forward_backward_log(E: np.ndarray, T: np.ndarray, n: np.ndarray):
    """forward_backward of a padded batch in log space: the fallback for a
    batch whose scaled recursion could underflow."""
    b, max_len, k = E.shape
    live = np.arange(max_len)[None, :] < n[:, None]  # (b, max_len)

    # Past its end a sequence carries alpha forward and beta back unchanged, so
    # alpha[:, -1] holds each sequence's final alpha and beta is 0 from its
    # last position on.
    alpha = np.empty((b, max_len, k))
    alpha[:, 0] = E[:, 0]
    for t in range(1, max_len):
        step = E[:, t] + _logsumexp(alpha[:, t - 1, :, None] + T, axis=1)
        alpha[:, t] = np.where(live[:, t, None], step, alpha[:, t - 1])

    beta = np.zeros((b, max_len, k))
    for t in range(max_len - 2, -1, -1):
        step = _logsumexp(T + (E[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
        beta[:, t] = np.where(live[:, t + 1, None], step, beta[:, t + 1])

    log_z = _logsumexp(alpha[:, -1], axis=1)
    marginals = np.where(live[:, :, None], np.exp(alpha + beta - log_z[:, None, None]), 0.0)
    with np.errstate(over="ignore"):  # only terms past a sequence's end overflow
        pairwise = np.where(
            live[:, 1:, None, None],
            np.exp(
                alpha[:, :-1, :, None]
                + T
                + (E[:, 1:] + beta[:, 1:])[:, :, None, :]
                - log_z[:, None, None, None]
            ),
            0.0,
        )
    return log_z, marginals, pairwise


def forward_backward(emissions, transitions, lengths=None):
    """Exact marginal inference for one sequence or a padded batch.

    For one (n, k) emission matrix, returns (log_partition, marginals,
    pairwise): marginals is (n, k) with rows summing to 1 and pairwise is
    (n-1, k, k), the joint probability of the tags at adjacent positions.

    For a (batch, max_len, k) array with the length of each sequence, returns
    log_partition (batch,), marginals (batch, max_len, k) and pairwise
    (batch, max_len-1, k, k), all zero past each sequence's end.  Emissions
    past a sequence's end are ignored.

    The recursion runs in probability space over the sequences still live at
    each step, each alpha row scaled to sum to 1 (Rabiner 1989).  A batch
    whose score ranges could make a term of it underflow is computed in log
    space instead.
    """
    E, T, n = _check_batch(emissions, transitions, lengths)
    b, max_len, k = E.shape
    Es, ns, live, back = _by_length(E, n)
    steps = np.arange(max_len) < ns[:, None]
    row_max = Es.max(axis=2)
    t_max = T.max()
    # Every emission factor is at least exp(-spread) and every transition
    # factor at least exp(-(t_max - T.min())), so every alpha, beta and
    # product term of the recursion is at least exp(-span): no term leaves
    # the normal range while span stays below -log(tiny) = 708.4.
    spread = np.where(steps, row_max - Es.min(axis=2), 0.0).max()
    span = spread + 2.0 * (t_max - T.min()) + np.log(k)
    if span > _MAX_SPAN:
        log_z, marginals, pairwise = _forward_backward_log(E, T, n)
    else:
        G = np.exp(Es - row_max[:, :, None])
        P = np.exp(T - t_max)
        # alpha[:, t] and beta[:, t] of a live row are scaled by the
        # normalisers c of the steps up to t and after t, so their product is
        # the marginal.  Rows past their end stay 0 and keep c = 1.
        alpha = np.zeros((b, max_len, k))
        c = np.ones((b, max_len))
        G[:, 0].sum(axis=1, out=c[:, 0])
        np.divide(G[:, 0], c[:, 0, None], out=alpha[:, 0])
        for t in range(1, max_len):
            m = live[t]
            a = alpha[:m, t - 1] @ P
            a *= G[:m, t]
            a.sum(axis=1, out=c[:m, t])
            np.divide(a, c[:m, t, None], out=alpha[:m, t])
        # h[:, t] = G[:, t] * beta[:, t] / c[:, t]: the right factor of the
        # pairwise marginal of steps t-1 and t, and beta[:, t-1] = h[:, t] @ P.T.
        beta = np.zeros((b, max_len, k))
        beta[np.arange(b), ns - 1] = 1.0
        h = np.zeros((b, max_len, k))
        for t in range(max_len - 1, 0, -1):
            m = live[t]
            np.multiply(G[:m, t], beta[:m, t], out=h[:m, t])
            h[:m, t] /= c[:m, t, None]
            np.matmul(h[:m, t], P.T, out=beta[:m, t - 1])
        log_z = (np.log(c).sum(axis=1) + (row_max * steps).sum(axis=1) + (ns - 1) * t_max)[back]
        alpha, beta, h = alpha[back], beta[back], h[back]
        marginals = alpha * beta
        pairwise = alpha[:, :-1, :, None] * h[:, 1:, None, :] * P
    if lengths is None:
        return float(log_z[0]), marginals[0], pairwise[0]
    return log_z, marginals, pairwise


def viterbi(emissions, transitions, lengths=None):
    """Highest-scoring tag sequence; ties resolved toward the lowest tag index.

    For one (n, k) emission matrix, returns the path as a list of n tags.  For
    a (batch, max_len, k) array with the length of each sequence, returns a
    (batch, max_len) integer array holding each sequence's path, 0 past its
    end.  Emissions past a sequence's end are ignored.
    """
    E, T, n = _check_batch(emissions, transitions, lengths)
    b, max_len, k = E.shape
    Es, _, live, back = _by_length(E, n)

    # Each step updates only the live rows, so a row's delta stops at its
    # final value, its best score per last tag.
    delta = Es[:, 0].copy()
    backptr = np.empty((b, max(max_len - 1, 0), k), dtype=np.intp)
    for t in range(1, max_len):
        m = live[t]
        cand = delta[:m, :, None] + T
        cand.argmax(axis=1, out=backptr[:m, t - 1])  # first max = lowest prev tag
        np.add(Es[:m, t], cand.max(axis=1), out=delta[:m])

    rows = np.arange(b)
    paths = np.zeros((b, max_len), dtype=np.intp)
    tag = delta.argmax(axis=1)
    for t in range(max_len - 1, 0, -1):
        # A sequence that ends before t keeps its final tag until its end.
        m = live[t]
        paths[:m, t] = tag[:m]
        tag[:m] = backptr[rows[:m], t - 1, tag[:m]]
    paths[:, 0] = tag
    paths = paths[back]
    if lengths is None:
        return paths[0].tolist()
    return paths


def sequence_score(emissions, transitions, path) -> float:
    """Additive score of one labeling under the chain model."""
    E, T = _check_inputs(emissions, transitions)
    if len(path) != E.shape[0]:
        raise ValidationError("path length does not match emissions")
    score = float(E[np.arange(len(path)), path].sum())
    if len(path) > 1:
        score += float(T[path[:-1], path[1:]].sum())
    return score
