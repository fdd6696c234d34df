"""Shared independent oracles and data builders for the test suite.

Everything here is deliberately written along a different code path than the
library (pure python / brute force) so the tests check against independent
computations.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from cbtcode.corpus import CODES, DA_TAG_SET, MC_TAG_SET, CodeScores, Session, Tokens, Turn
from cbtcode.errors import ValidationError
from cbtcode.evaluate import pooled_f1
from cbtcode.segmenter import BOUNDARY
from cbtcode.synth import _DA_BASE, _MC_BASE, _STYLE_A, _STYLE_B, SynthResult, _build_vocabulary, _tag_distribution


# ---------------------------------------------------------------------------
# Chain-model enumeration oracle


def path_scores(E: np.ndarray, T: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """The additive chain score of each row of paths, one tag path per row."""
    n = E.shape[0]
    scores = E[np.arange(n), paths].sum(axis=1)
    if n > 1:
        scores = scores + T[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    return scores


def enumerate_chain(E: np.ndarray, T: np.ndarray):
    """Brute-force log-partition, marginals, pairwise marginals, best path."""
    n, k = E.shape
    seqs = np.array(list(itertools.product(range(k), repeat=n)), dtype=int)
    scores = path_scores(E, T, seqs)
    m = scores.max()
    log_z = m + math.log(np.exp(scores - m).sum())
    probs = np.exp(scores - log_z)
    marg = np.zeros((n, k))
    for t in range(n):
        for tag in range(k):
            marg[t, tag] = probs[seqs[:, t] == tag].sum()
    pair = np.zeros((max(n - 1, 0), k, k))
    for t in range(n - 1):
        for a in range(k):
            for b in range(k):
                pair[t, a, b] = probs[(seqs[:, t] == a) & (seqs[:, t + 1] == b)].sum()
    best = int(np.argmax(scores))
    return log_z, marg, pair, scores[best], list(seqs[best])


def reference_viterbi(E: np.ndarray, T: np.ndarray) -> list[int]:
    """One sequence, one position at a time: the decoder `chain.viterbi` had
    before it took batches, kept to pin the batched one's paths."""
    n, k = E.shape
    delta = E[0].copy()
    backptr = np.empty((n - 1, k), dtype=np.intp) if n > 1 else None
    for t in range(1, n):
        cand = delta[:, None] + T
        backptr[t - 1] = np.argmax(cand, axis=0)
        delta = E[t] + np.max(cand, axis=0)
    path = [int(np.argmax(delta))]
    for t in range(n - 2, -1, -1):
        path.append(int(backptr[t][path[-1]]))
    path.reverse()
    return path


def reference_emissions(feature_names, weights: np.ndarray, feats_per_pos) -> np.ndarray:
    """Per position, zeros plus the weight row of each known feature, added
    one feature at a time: the loop the taggers ran before their batched
    gather."""
    index = {name: i for i, name in enumerate(feature_names)}
    E = np.zeros((len(feats_per_pos), weights.shape[1]))
    for t, feats in enumerate(feats_per_pos):
        for f in feats:
            j = index.get(f)
            if j is not None:
                E[t] += weights[j]
    return E


def boundary_f1(predicted, gold) -> float:
    """F1 of the BOUNDARY class over aligned label sequences."""
    if len(predicted) != len(gold):
        raise ValidationError(f"{len(predicted)} predicted sequences vs {len(gold)} gold")
    tp = fp = fn = 0
    for si, (p_seq, g_seq) in enumerate(zip(predicted, gold)):
        if len(p_seq) != len(g_seq):
            raise ValidationError(f"sequence {si}: length mismatch {len(p_seq)} vs {len(g_seq)}")
        for p, g in zip(p_seq, g_seq):
            if p == BOUNDARY and g == BOUNDARY:
                tp += 1
            elif p == BOUNDARY:
                fp += 1
            elif g == BOUNDARY:
                fn += 1
    return pooled_f1([(tp, fp, fn)])


# ---------------------------------------------------------------------------
# tf-idf brute-force oracle (pure python)


def brute_tfidf(docs: list[list[str]], max_df: float, min_df: float):
    n = len(docs)
    df: Counter[str] = Counter()
    for toks in docs:
        df.update(set(toks))
    vocab = sorted(t for t in df if min_df <= df[t] / n <= max_df)
    idf = {t: math.log((1 + n) / (1 + df[t])) + 1.0 for t in vocab}

    def transform(tokens: list[str]) -> list[float]:
        counts: Counter[str] = Counter(t for t in tokens if t in idf)
        raw = [counts[t] * idf[t] for t in vocab]
        norm = math.sqrt(sum(x * x for x in raw))
        return [x / norm if norm > 0 else 0.0 for x in raw]

    return vocab, idf, transform


# ---------------------------------------------------------------------------
# Weighted-hinge subgradient oracle (independent of the SVM solver)


def hinge_objective(
    X: np.ndarray, y_signed: np.ndarray, sample_c: np.ndarray, w: np.ndarray, b: float
) -> float:
    """The weighted SVM primal objective at (w, b)."""
    margins = y_signed * (X @ w + b)
    return 0.5 * float(np.dot(w, w)) + float(np.dot(sample_c, np.maximum(0.0, 1.0 - margins)))


def subgradient_hinge_oracle(
    X: np.ndarray,
    y_signed: np.ndarray,
    sample_c: np.ndarray,
    rounds: int = 28,
    iters_per_round: int = 400,
) -> float:
    """Long projected-subgradient run with a halving Polyak target."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    f_best = hinge_objective(X, y_signed, sample_c, w, b)
    w_best, b_best = w.copy(), b
    delta = 0.5 * max(1.0, f_best)
    for _ in range(rounds):
        target = f_best - delta
        for _ in range(iters_per_round):
            margins = y_signed * (X @ w + b)
            act = margins < 1.0
            gw = w - X[act].T @ (sample_c[act] * y_signed[act])
            gb = -float(np.sum(sample_c[act] * y_signed[act]))
            gn2 = float(gw @ gw) + gb * gb
            f = hinge_objective(X, y_signed, sample_c, w, b)
            if f < f_best:
                f_best, w_best, b_best = f, w.copy(), b
            if gn2 == 0.0:
                return f_best
            step = (f - target) / gn2
            w = w - step * gw
            b = b - step * gb
        delta *= 0.5
        w, b = w_best.copy(), b_best
    return f_best

# ---------------------------------------------------------------------------
# One-problem SMO: the solver `train_svms` used before its interior-point
# method, kept as an independent objective oracle for it.


def _reference_bias(u: np.ndarray, y: np.ndarray, sample_c: np.ndarray) -> float:
    """Exact minimizer in b of the weighted hinge loss (as `svm._optimal_bias`).

    u = X @ w.  The loss slope in b is non-decreasing; the optimum sits at
    the breakpoint where it crosses zero (midpoint of the flat stretch if it
    touches zero exactly).
    """
    breakpoints = y - u  # where sample i's hinge activates/deactivates
    order = np.argsort(breakpoints, kind="stable")
    slope = -float(sample_c[y > 0].sum())
    for pos, i in enumerate(order):
        slope += float(sample_c[i])
        if slope > 0.0:
            return float(breakpoints[i])
        if slope == 0.0:
            if pos + 1 < len(order):
                return float(0.5 * (breakpoints[i] + breakpoints[order[pos + 1]]))
            return float(breakpoints[i])
    return float(breakpoints[order[-1]])


def smo_one_problem(X, y, C, weights, tol=1e-6, max_iter=1_000_000):
    """(w, bias, n_iter, gap, converged) of the weighted linear SVM, one problem alone."""
    X = np.asarray(X, dtype=float)
    yb = np.asarray(y, dtype=bool)
    ys = np.where(yb, 1.0, -1.0)
    sample_c = C * np.where(yb, weights.high, weights.low)

    n = X.shape[0]
    K = X @ X.T
    diag = np.diag(K).copy()
    alpha = np.zeros(n)
    u = np.zeros(n)  # equals X @ w throughout
    gap = np.inf
    primal = np.inf
    bias = 0.0
    n_iter = 0
    check_every = max(64, n)
    eps_bound = 1e-12

    def primal_dual_at(a: np.ndarray, ua: np.ndarray) -> tuple[float, float, float]:
        dual = float(a.sum()) - 0.5 * float(np.dot(a * ys, ua))
        b_opt = _reference_bias(ua, ys, sample_c)
        margins = ys * (ua + b_opt)
        p = 0.5 * float(np.dot(a * ys, ua)) + float(
            np.dot(sample_c, np.maximum(0.0, 1.0 - margins))
        )
        return p - dual, p, b_opt

    def duality_gap() -> tuple[float, float, float]:
        return primal_dual_at(alpha, u)

    def newton_jump() -> tuple[np.ndarray, np.ndarray] | None:
        """Exactly solve the QP restricted to the current free set.

        SMO's tail convergence is linear; once the active set has settled
        this one solve lands on that set's optimum.  The move is only a
        candidate: the caller keeps it solely when it shrinks the gap.
        """
        free = (alpha > eps_bound) & (alpha < sample_c - eps_bound)
        nf = int(free.sum())
        if nf == 0:
            return None
        F = np.flatnonzero(free)
        B = np.flatnonzero(~free)
        ay_b = alpha[B] * ys[B]
        q_fb = ys[F] * (K[np.ix_(F, B)] @ ay_b) if len(B) else np.zeros(nf)
        q_ff = ys[F, None] * K[np.ix_(F, F)] * ys[None, F]
        target = -float(np.dot(ys[B], alpha[B])) if len(B) else 0.0
        system = np.zeros((nf + 1, nf + 1))
        system[:nf, :nf] = q_ff
        system[:nf, nf] = ys[F]
        system[nf, :nf] = ys[F]
        rhs = np.concatenate([1.0 - q_fb, [target]])
        # A whisper of ridge keeps rank-deficient Gram blocks solvable; the
        # residual check below is against the unperturbed system.
        ridged = system.copy()
        ridged[np.arange(nf), np.arange(nf)] += 1e-9
        try:
            sol = np.linalg.solve(ridged, rhs)
        except np.linalg.LinAlgError:
            try:
                sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            except np.linalg.LinAlgError:
                return None
        # A singular system can yield a least-squares point that is not a
        # solution at all; it would violate the dual equality constraint and
        # invalidate the gap bound, so insist on a near-exact solve.
        residual = system @ sol - rhs
        scale = 1.0 + float(np.abs(rhs).max())
        if float(np.abs(residual).max()) > 1e-7 * scale:
            return None
        new_f = sol[:nf]
        if np.any(new_f < -1e-9) or np.any(new_f > sample_c[F] + 1e-9):
            return None
        trial = alpha.copy()
        trial[F] = np.clip(new_f, 0.0, sample_c[F])
        if abs(float(np.dot(ys, trial))) > 1e-8:
            return None
        return trial, K @ (trial * ys)

    pos = ys > 0
    gap, primal, bias = duality_gap()
    v = ys - u  # equals -y * dual_gradient throughout
    while gap > tol * max(1.0, abs(primal)) and n_iter < max_iter:
        free_cap = alpha < sample_c - eps_bound
        free_floor = alpha > eps_bound
        up = np.where(pos, free_cap, free_floor)
        low = np.where(pos, free_floor, free_cap)
        if not up.any() or not low.any():
            gap, primal, bias = duality_gap()
            break
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        v_low = v[low_idx]
        i = int(up_idx[np.argmax(v[up_idx])])
        if v[i] - float(v_low.min()) <= 1e-12:
            gap, primal, bias = duality_gap()
            break
        # Second-order pair selection: maximize the analytic objective decrease.
        cand = low_idx[v_low < v[i]]
        b_cand = v[i] - v[cand]
        a_cand = np.maximum(diag[i] + diag[cand] - 2.0 * K[i, cand], 1e-12)
        j = int(cand[np.argmax(b_cand * b_cand / a_cand)])
        violation = v[i] - v[j]
        eta = diag[i] + diag[j] - 2.0 * K[i, j]
        lam_star = violation / eta if eta > 1e-12 else np.inf
        lam_i = sample_c[i] - alpha[i] if ys[i] > 0 else alpha[i]
        lam_j = alpha[j] if ys[j] > 0 else sample_c[j] - alpha[j]
        lam = min(lam_star, lam_i, lam_j)
        alpha[i] += ys[i] * lam
        alpha[j] -= ys[j] * lam
        step = lam * (K[:, i] - K[:, j])
        u += step
        v -= step
        n_iter += 1
        if n_iter % check_every == 0:
            gap, primal, bias = duality_gap()
            if gap > tol * max(1.0, abs(primal)):
                jump = newton_jump()
                if jump is not None:
                    trial, u_trial = jump
                    trial_gap, trial_primal, trial_bias = primal_dual_at(trial, u_trial)
                    if trial_gap < gap:
                        alpha = trial
                        u = u_trial
                        v = ys - u
                        gap, primal, bias = trial_gap, trial_primal, trial_bias

    gap, primal, bias = duality_gap()
    converged = gap <= tol * max(1.0, abs(primal))
    return X.T @ (alpha * ys), float(bias), n_iter, float(gap), bool(converged)


# ---------------------------------------------------------------------------
# Synthetic-corpus draw-order oracle


def reference_generate_corpus(config):
    """generate_corpus as one scalar draw per value: `rng.choice(..., p=...)`
    for tags and fillers and two `rng.uniform` calls per word.  The library
    must draw the same values from the same positions of the stream."""
    rng = np.random.default_rng(config.seed)
    vocab = _build_vocabulary(config)
    filler_probs = 1.0 / (np.arange(len(vocab)) + 5.0)
    filler_probs /= filler_probs.sum()

    planted_codes = []
    for rule in config.rules:
        if rule.code not in planted_codes:
            planted_codes.append(rule.code)

    da_labels = list(DA_TAG_SET.labels)
    mc_labels = list(MC_TAG_SET.labels)
    da_base_probs = {q: _tag_distribution(_DA_BASE, "da", q, config.tag_mix_strength) for q in (False, True)}
    mc_base_probs = {q: _tag_distribution(_MC_BASE, "mc", q, config.tag_mix_strength) for q in (False, True)}
    da_neutral = np.array([_DA_BASE[t] for t in da_labels])
    mc_neutral = np.array([_MC_BASE[t] for t in mc_labels])

    sessions: list[Session] = []
    tagged_sessions: list[Session] = []
    boundary_lines: list[str] = []

    width = len(str(max(config.n_sessions - 1, 1)))
    for si in range(config.n_sessions):
        sid = f"s{si:0{width}d}"
        quality = bool(rng.random() < config.high_rate)

        # Utterance plan: alternating-speaker turns with 1..m utterances each.
        n_utt = int(rng.integers(config.utterances_per_session[0], config.utterances_per_session[1] + 1))
        turn_sizes: list[int] = []
        remaining = n_utt
        while remaining > 0:
            size = int(rng.integers(config.utterances_per_turn[0], config.utterances_per_turn[1] + 1))
            size = min(size, remaining)
            turn_sizes.append(size)
            remaining -= size

        # Draw tags and word lists per utterance.
        utt_speaker: list[str] = []
        utt_da: list[str] = []
        utt_mc: list[str] = []
        utt_words: list[list[str]] = []
        speaker = "therapist"
        for size in turn_sizes:
            for _ in range(size):
                therapist = speaker == "therapist"
                da_p = da_base_probs[quality] if therapist else da_neutral
                mc_p = mc_base_probs[quality] if therapist else mc_neutral
                da = da_labels[int(rng.choice(len(da_labels), p=da_p))]
                mc = mc_labels[int(rng.choice(len(mc_labels), p=mc_p))]
                phrases_da = config.da_templates[da]
                phrases_mc = config.mc_templates[mc]
                words = list(phrases_da[int(rng.integers(len(phrases_da)))].split())
                words += phrases_mc[int(rng.integers(len(phrases_mc)))].split()
                n_filler = int(
                    rng.integers(
                        config.filler_words_per_utterance[0],
                        config.filler_words_per_utterance[1] + 1,
                    )
                )
                filler_ids = rng.choice(len(vocab), size=n_filler, p=filler_probs)
                fillers = [vocab[int(i)] for i in filler_ids]
                if config.word_dropout > 0.0 and fillers:
                    fillers = [w for w in fillers if rng.random() >= config.word_dropout] or fillers[:1]
                words += fillers
                if therapist and rng.random() < config.style_rate:
                    p_a = 0.5 + (config.style_strength / 2.0 if quality else -config.style_strength / 2.0)
                    pool = _STYLE_A if rng.random() < p_a else _STYLE_B
                    words.append(pool[int(rng.integers(len(pool)))])
                utt_speaker.append(speaker)
                utt_da.append(da)
                utt_mc.append(mc)
                utt_words.append(words)
            speaker = "patient" if speaker == "therapist" else "therapist"

        # Plant rule keywords: the occurrence count is label-independent, only
        # the tag context of the occurrences depends on the code's label.
        code_labels: dict[str, bool] = {}
        for code in planted_codes:
            flip = bool(rng.random() < config.label_noise)
            code_labels[code] = quality != flip
        therapist_idx = [i for i, sp in enumerate(utt_speaker) if sp == "therapist"]
        for rule in config.rules:
            label = code_labels[rule.code]
            m = int(rng.integers(config.keyword_occurrences[0], config.keyword_occurrences[1] + 1))
            tags = utt_da if rule.scheme == "da" else utt_mc
            match_pool = [i for i in therapist_idx if tags[i] == rule.tag]
            other_pool = [i for i in therapist_idx if tags[i] != rule.tag]
            q_match = 0.5 + (rule.strength / 2.0 if label else -rule.strength / 2.0)
            for _ in range(m):
                use_match = rng.random() < q_match
                pool = match_pool if use_match else other_pool
                if not pool:
                    pool = other_pool if use_match else match_pool
                if not pool:
                    continue
                ui = pool[int(rng.integers(len(pool)))]
                head = len(utt_words[ui])  # insert anywhere after the marker head
                slot = int(rng.integers(min(4, head), head + 1))
                utt_words[ui].insert(slot, rule.keyword)

        # Scores: planted codes follow their label; the rest lean with quality.
        score_values: dict[str, int] = {}
        for code in CODES:
            if code in code_labels:
                high = code_labels[code]
                score_values[code] = int(rng.integers(4, 7)) if high else int(rng.integers(0, 4))
            else:
                score_values[code] = int(rng.integers(3, 7)) if quality else int(rng.integers(0, 4))
        scores = CodeScores.from_dict(score_values)

        # Token times: word durations with small in-utterance gaps; inside a
        # turn, occasional inter-utterance pauses exceed the 2 s threshold.
        clock = float(rng.uniform(0.0, 2.0))
        utt_tokens: list[Tokens] = []
        turn_tokens: list[Tokens] = []
        ui = 0
        for size in turn_sizes:
            words: list[str] = []
            starts: list[float] = []
            ends: list[float] = []
            for k in range(size):
                first = len(words)
                for wi, w in enumerate(utt_words[ui]):
                    if wi > 0:
                        clock += float(rng.uniform(0.02, 0.2))
                    dur = float(rng.uniform(0.18, 0.5))
                    words.append(w)
                    starts.append(round(clock, 3))
                    ends.append(round(clock + dur, 3))
                    clock += dur
                utt_tokens.append(Tokens(words[first:], starts[first:], ends[first:]))
                ui += 1
                if k < size - 1:
                    if rng.random() < config.pause_rate:
                        clock += float(rng.uniform(2.2, 4.5))
                    else:
                        clock += float(rng.uniform(0.25, 1.6))
            turn_tokens.append(Tokens(words, starts, ends))
            clock += float(rng.uniform(0.4, 2.0))

        turns: list[Turn] = []
        tagged_utts: list[Turn] = []
        boundary_turn_lines: list[str] = []
        ui = 0
        for ti, size in enumerate(turn_sizes):
            line_words: list[str] = []
            for k in range(size):
                toks = utt_tokens[ui]
                mark = "?" if utt_da[ui] == "Question" else "."
                line_words.extend(toks.texts[:-1])
                line_words.append(toks.texts[-1] + mark)
                tagged_utts.append(Turn(utt_speaker[ui], toks, da=utt_da[ui], mc=utt_mc[ui]))
                ui += 1
            turns.append(Turn(speaker=utt_speaker[ui - 1], tokens=turn_tokens[ti]))
            boundary_turn_lines.append(" ".join(line_words))

        sessions.append(Session(id=sid, turns=tuple(turns), scores=scores))
        tagged_sessions.append(Session(id=sid, turns=tuple(tagged_utts), scores=scores))
        boundary_lines.extend(boundary_turn_lines)

    return SynthResult(
        sessions=tuple(sessions),
        tagged=tuple(tagged_sessions),
        boundary_lines=tuple(boundary_lines),
    )


# ---------------------------------------------------------------------------
# Fold-assignment oracle


def reference_make_folds(session_ids, k, seed, stratify_on):
    """make_folds as session ids dealt one at a time: the folds as tuples of
    ids, fold f holding the sessions whose fold number is f.  Each label
    class of `stratify_on` ({id: bool}), its ids sorted, is permuted and
    dealt round-robin by one running position, class False first."""
    ids = list(session_ids)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    position = 0
    groups = [
        sorted(i for i in ids if not stratify_on[i]),
        sorted(i for i in ids if stratify_on[i]),
    ]
    for group in groups:
        order = rng.permutation(len(group))
        for gi in order:
            folds[position % k].append(group[gi])
            position += 1
    return tuple(tuple(f) for f in folds)


# ---------------------------------------------------------------------------
# Random corpus builders


def random_scores(rng: np.random.Generator) -> CodeScores:
    return CodeScores(tuple(int(v) for v in rng.integers(0, 7, size=len(CODES))))


def random_turn(rng: np.random.Generator, speaker: str, n_tokens: int, start: float = 0.0) -> Turn:
    words = ["w%d" % rng.integers(0, 50) for _ in range(n_tokens)]
    starts, ends = [], []
    clock = start
    for w in words:
        gap = float(rng.uniform(0.0, 3.0))
        dur = float(rng.uniform(0.1, 0.5))
        starts.append(round(clock + gap, 3))
        ends.append(round(clock + gap + dur, 3))
        clock += gap + dur
    return Turn(speaker=speaker, tokens=Tokens(words, starts, ends))


def joined(parts) -> Tokens:
    """The concatenation of Tokens runs, column by column."""
    parts = list(parts)
    return Tokens(*(tuple(x for p in parts for x in getattr(p, col)) for col in ("texts", "start_s", "end_s")))


def random_session(rng: np.random.Generator, sid: str, with_scores: bool = True) -> Session:
    n_turns = int(rng.integers(1, 6))
    turns = []
    clock = 0.0
    for _ in range(n_turns):
        speaker = "therapist" if rng.random() < 0.5 else "patient"
        turn = random_turn(rng, speaker, int(rng.integers(1, 8)), start=clock)
        clock = turn.tokens.end_s[-1] + float(rng.uniform(0.1, 1.0))
        turns.append(turn)
    return Session(
        id=sid,
        turns=tuple(turns),
        scores=random_scores(rng) if with_scores else None,
    )
