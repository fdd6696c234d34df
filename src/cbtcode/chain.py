"""Linear-chain sequence primitives: forward-backward and Viterbi.

Scores are additive: a labeling y of a length-n sequence scores
sum_t emissions[t, y_t] + sum_{t>0} transitions[y_{t-1}, y_t].  There are no
separate start/stop potentials.

Every kernel takes one layout: emissions is the (total, k) stack of each
sequence's rows, one sequence after another, and lengths gives each
sequence's length.  Inside, positions are packed step-major (`_step_major`),
so each step of a recursion works on one contiguous block of rows.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MAX_SPAN = 700.0  # below -log of the smallest normal float, 708.4


def _check_inputs(emissions, transitions, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(emissions, transitions, lengths) validated."""
    E = np.asarray(emissions, dtype=float)
    if E.ndim != 2 or 0 in E.shape:
        raise ValidationError(f"emissions must be a (positions, n_tags) matrix, got shape {E.shape}")
    k = E.shape[1]
    T = np.asarray(transitions, dtype=float)
    if T.shape != (k, k):
        raise ValidationError(f"transitions must be ({k}, {k}), got {T.shape}")
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(T))):
        raise ValidationError("emissions and transitions must be finite")
    n = np.asarray(lengths)
    if not (n.ndim == 1 and n.size and np.issubdtype(n.dtype, np.integer) and n.min() >= 1 and n.sum() == len(E)):
        raise ValidationError(
            f"lengths must be positive integers summing to the {len(E)} emission rows, got {lengths!r}"
        )
    return E, T, n.astype(np.intp)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def _step_major(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """The positions of sequences of lengths n, packed step-major.

    The sequences are ordered by length, longest first (stable).  Block t
    holds position t of every sequence still running at step t, in that
    order, so the predecessors of a block's rows are the first rows of the
    block before it; block 0 holds every sequence's first position.

    Returns the flat row of each packed row and the sequence it belongs to,
    the packed row of the predecessor of each row past block 0, and for each
    step t >= 1 its block's (start, size, predecessor block start).
    """
    order = np.argsort(-n, kind="stable")
    live = len(n) - np.cumsum(np.bincount(n))[:-1]  # live[t]: sequences longer than t
    at = np.cumsum(live) - live
    t = np.repeat(np.arange(len(live)), live)
    seq = order[np.arange(len(t)) - at[t]]
    rows = (np.cumsum(n) - n)[seq] + t
    pred = np.arange(len(n), len(t)) - live[t[len(n) :] - 1]
    return rows, seq, pred, list(zip(at[1:].tolist(), live[1:].tolist(), at[:-1].tolist()))


def _forward_backward_log(E: np.ndarray, T: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Log alpha and log beta of step-major packed emissions: the fallback for
    a batch whose scaled recursion could underflow."""
    alpha = E.copy()
    for s, m, p in blocks:
        alpha[s : s + m] += _logsumexp(alpha[p : p + m, :, None] + T, axis=1)
    beta = np.zeros_like(E)  # 0 at each sequence's last position
    for s, m, p in reversed(blocks):
        beta[p : p + m] = _logsumexp(T + (E[s : s + m] + beta[s : s + m])[:, None, :], axis=2)
    return alpha, beta


def forward_backward(emissions, transitions, lengths):
    """Exact marginal inference for a batch of sequences.

    emissions is the (total, k) stack of the sequences' rows and lengths
    their lengths.  Returns (log_partition, marginals, pairwise):
    log_partition per sequence, marginals (total, k) with rows summing to
    1, and pairwise (total - sequences, k, k), the joint probability of the
    tags of each adjacent pair of positions, the pairs in order.

    The recursion runs in probability space, each alpha row scaled to sum
    to 1 (Rabiner 1989).  A batch whose score ranges could make a term of it
    underflow is computed in log space instead.
    """
    E, T, n = _check_inputs(emissions, transitions, lengths)
    rows, seq, pred, blocks = _step_major(n)
    b, k = len(n), E.shape[1]
    Ep = E[rows]
    row_max = Ep.max(axis=1)
    t_max = T.max()
    # Every emission factor is at least exp(-spread) and every transition
    # factor at least exp(-(t_max - T.min())), so every alpha, beta and
    # product term of the recursion is at least exp(-span): no term leaves
    # the normal range while span stays below -log(tiny) = 708.4.
    span = (row_max - Ep.min(axis=1)).max() + 2.0 * (t_max - T.min()) + np.log(k)
    if span > _MAX_SPAN:
        alpha, beta = _forward_backward_log(Ep, T, blocks)
        log_z = np.empty(b)
        log_z[seq[:b]] = _logsumexp(alpha[:b] + beta[:b], axis=1)  # at each first position
        marg = np.exp(alpha + beta - log_z[seq, None])
        pair = np.exp(
            alpha[pred, :, None] + T + (Ep[b:] + beta[b:])[:, None, :] - log_z[seq[b:], None, None]
        )
    else:
        G = np.exp(Ep - row_max[:, None])
        P = np.exp(T - t_max)
        # alpha and beta of a row are scaled by the normalisers c of its
        # sequence's steps up to it and after it, so their product is the
        # marginal.
        alpha, c = np.empty_like(G), np.empty(len(E))
        c[:b] = G[:b].sum(axis=1)
        alpha[:b] = G[:b] / c[:b, None]
        for s, m, p in blocks:
            a = alpha[p : p + m] @ P
            a *= G[s : s + m]
            a.sum(axis=1, out=c[s : s + m])
            np.divide(a, c[s : s + m, None], out=alpha[s : s + m])
        # h = G * beta / c: the right factor of the pairwise marginal of a row
        # and its predecessor, whose beta is h @ P.T.
        beta = np.ones_like(G)  # 1 at each sequence's last position
        h = np.empty_like(G)
        for s, m, p in reversed(blocks):
            np.multiply(G[s : s + m], beta[s : s + m], out=h[s : s + m])
            h[s : s + m] /= c[s : s + m, None]
            np.matmul(h[s : s + m], P.T, out=beta[p : p + m])
        log_z = np.bincount(seq, weights=np.log(c) + row_max, minlength=b) + (n - 1) * t_max
        marg = alpha * beta
        pair = alpha[pred, :, None] * h[b:, None, :] * P
    marginals = np.empty_like(marg)
    marginals[rows] = marg
    pairwise = np.empty_like(pair)
    pairwise[rows[b:] - seq[b:] - 1] = pair
    return log_z, marginals, pairwise


def viterbi(emissions, transitions, lengths):
    """Highest-scoring tag sequences; ties resolved toward the lowest tag index.

    emissions is the (total, k) stack of the sequences' rows and lengths
    their lengths.  Returns the paths concatenated as a (total,) integer
    array.
    """
    E, T, n = _check_inputs(emissions, transitions, lengths)
    rows, _, _, blocks = _step_major(n)
    b = len(n)
    Ep = E[rows]

    # delta[i] is the best score per tag of the i-th longest sequence so far;
    # each step updates only the sequences still running, so a row stops at
    # its final value.
    delta = Ep[:b].copy()
    backptr = np.empty(E.shape, dtype=np.intp)  # rows of block 0 unused
    for s, m, _ in blocks:
        cand = delta[:m, :, None] + T
        cand.argmax(axis=1, out=backptr[s : s + m])  # first max = lowest prev tag
        np.add(Ep[s : s + m], cand.max(axis=1), out=delta[:m])

    path = np.empty(len(E), dtype=np.intp)
    tag = delta.argmax(axis=1)
    for s, m, _ in reversed(blocks):
        # A sequence that ends before this step keeps its final tag.
        path[s : s + m] = tag[:m]
        tag[:m] = backptr[np.arange(s, s + m), tag[:m]]
    path[:b] = tag
    paths = np.empty_like(path)
    paths[rows] = path
    return paths
