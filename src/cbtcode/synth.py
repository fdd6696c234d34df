"""Seeded synthetic-corpus generator with plantable, context-dependent signal.

Each session draws a latent quality bit.  Signal rules plant a keyword whose
per-session frequency is equalized across quality classes by construction;
only the tag context of its occurrences differs (high-quality sessions put
it inside utterances of the rule's tag, low-quality ones outside).  Plain
unigram features therefore carry no first-order trace of the rule, while
word|TAG augmented features do.  A weaker, honest lexical signal (style
words) and a mild tag-mixture shift keep the word-level and tag-count
baselines informative without giving away the planted rules.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .corpus import CODES, DA_TAG_SET, MC_TAG_SET, CodeScores, Session, Tokens, Turn
from .errors import ValidationError
from .util import read_config

DEFAULT_DA_TEMPLATES: dict[str, tuple[str, ...]] = {
    "Question": ("what about that", "how did it go", "when did you notice"),
    "Statement": ("i think that", "it seems like", "we talked about"),
    "Agreement": ("yes that is right", "right exactly so"),
    "Other": ("um well anyway", "so moving on"),
    "Appreciation": ("that is really great", "i am glad you"),
    "Incomplete": ("i was going to", "and then it just"),
    "Backchannel": ("mm hmm", "uh huh okay"),
}

DEFAULT_MC_TEMPLATES: dict[str, tuple[str, ...]] = {
    "FA": ("okay good then", "all right sure"),
    "GI": ("let me explain how", "here is the idea"),
    "RE": ("sounds like you feel", "you are saying that"),
    "QUC": ("did you finish", "have you tried"),
    "QUO": ("tell me more about", "how would you describe"),
    "MIA": ("you could try maybe", "it is your choice"),
    "MIN": ("you must stop this", "you should have done"),
}


@dataclass(frozen=True)
class SignalRule:
    """Plant keyword occurrences inside utterances of a tag, tied to a code."""

    keyword: str
    tag: str
    code: str
    strength: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.keyword, str) or self.keyword.split() != [self.keyword]:
            raise ValidationError(f"rule keyword {self.keyword!r} must be one non-empty word without whitespace")
        if not (0.0 <= self.strength <= 1.0):
            raise ValidationError(f"rule strength must be in [0, 1], got {self.strength}")
        if self.code not in CODES:
            raise ValidationError(f"rule code {self.code!r} is not one of {CODES}")
        if self.tag not in DA_TAG_SET.labels and self.tag not in MC_TAG_SET.labels:
            raise ValidationError(f"rule tag {self.tag!r} belongs to neither tag scheme")

    @property
    def scheme(self) -> str:
        return "da" if self.tag in DA_TAG_SET.labels else "mc"


DEFAULT_RULES: tuple[SignalRule, ...] = (
    SignalRule("homework", "QUC", "hw", 1.0),
    SignalRule("agenda", "GI", "ag", 1.0),
    SignalRule("feelings", "RE", "un", 1.0),
    SignalRule("goals", "Question", "gd", 1.0),
)

_DA_BASE = {
    "Question": 0.18,
    "Statement": 0.30,
    "Agreement": 0.10,
    "Other": 0.10,
    "Appreciation": 0.09,
    "Incomplete": 0.09,
    "Backchannel": 0.14,
}
_MC_BASE = {"FA": 0.16, "GI": 0.24, "RE": 0.18, "QUC": 0.14, "QUO": 0.10, "MIA": 0.09, "MIN": 0.09}
_BOOST = {"da": "Appreciation", "mc": "RE"}
_DAMP = {"da": "Incomplete", "mc": "MIN"}

_STYLE_A = ("nurelo", "vasipa", "talome", "robina", "seluda", "minavo", "ludera", "pofani")
_STYLE_B = ("gatibo", "zomela", "durepo", "kavine", "belosa", "tifuna", "remodi", "sapelo")


@dataclass(frozen=True)
class SynthConfig:
    n_sessions: int = 300
    utterances_per_session: tuple[int, int] = (16, 28)
    utterances_per_turn: tuple[int, int] = (1, 4)
    filler_words_per_utterance: tuple[int, int] = (5, 11)
    vocabulary_size: int = 240
    da_templates: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_DA_TEMPLATES)
    )
    mc_templates: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_MC_TEMPLATES)
    )
    rules: tuple[SignalRule, ...] = DEFAULT_RULES
    label_noise: float = 0.05
    high_rate: float = 0.45
    tag_mix_strength: float = 0.25
    style_strength: float = 0.3
    style_rate: float = 0.35
    keyword_occurrences: tuple[int, int] = (0, 3)
    pause_rate: float = 0.15
    word_dropout: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in (
            ("label_noise", self.label_noise),
            ("high_rate", self.high_rate),
            ("tag_mix_strength", self.tag_mix_strength),
            ("style_strength", self.style_strength),
            ("style_rate", self.style_rate),
            ("pause_rate", self.pause_rate),
            ("word_dropout", self.word_dropout),
        ):
            if not (0.0 <= value <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {value}")
        if self.n_sessions < 1:
            raise ValidationError("n_sessions must be positive")
        if self.vocabulary_size < 1:
            raise ValidationError(f"vocabulary_size must be positive, got {self.vocabulary_size}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        for name, (lo, hi) in (
            ("utterances_per_session", self.utterances_per_session),
            ("utterances_per_turn", self.utterances_per_turn),
            ("filler_words_per_utterance", self.filler_words_per_utterance),
        ):
            if lo < 1 or hi < lo:
                raise ValidationError(f"{name} must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
        lo, hi = self.keyword_occurrences
        if lo < 0 or hi < lo:
            raise ValidationError(f"keyword_occurrences must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
        for tag in DA_TAG_SET.labels:
            if not self.da_templates.get(tag):
                raise ValidationError(f"da template set is missing tag {tag!r}")
        for tag in MC_TAG_SET.labels:
            if not self.mc_templates.get(tag):
                raise ValidationError(f"mc template set is missing tag {tag!r}")

    def to_payload(self) -> dict:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SynthConfig":
        kwargs = dict(payload)
        for key in ("utterances_per_session", "utterances_per_turn", "filler_words_per_utterance", "keyword_occurrences"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        for key in ("da_templates", "mc_templates"):
            if key in kwargs:
                kwargs[key] = {k: tuple(v) for k, v in kwargs[key].items()}
        if "rules" in kwargs:
            kwargs["rules"] = tuple(SignalRule(**r) for r in kwargs["rules"])
        unknown = set(kwargs) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown synth config fields: {sorted(unknown)}")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "SynthConfig":
        return read_config(cls, path, "synth config")


@dataclass(frozen=True)
class SynthResult:
    sessions: tuple[Session, ...]
    tagged: tuple[Session, ...]  # the same sessions segmented into gold-tagged utterances
    boundary_lines: tuple[str, ...]
    config: SynthConfig


def _build_vocabulary(config: SynthConfig) -> list[str]:
    consonants = "bdfglmnprstvz"
    vowels = "aeiou"
    reserved = set(_STYLE_A) | set(_STYLE_B) | {r.keyword for r in config.rules}
    for phrases in list(config.da_templates.values()) + list(config.mc_templates.values()):
        for phrase in phrases:
            reserved.update(phrase.split())
    words = []
    for c1 in consonants:
        for v1 in vowels:
            for c2 in consonants:
                for v2 in vowels:
                    w = c1 + v1 + c2 + v2
                    if w not in reserved:
                        words.append(w)
                    if len(words) >= config.vocabulary_size:
                        return words
    raise ValidationError("vocabulary_size too large for the built-in word generator")


def _tag_distribution(base: Mapping[str, float], scheme: str, quality: bool, delta: float) -> np.ndarray:
    probs = np.array(list(base.values()), dtype=float)
    labels = list(base.keys())
    boost = labels.index(_BOOST[scheme])
    damp = labels.index(_DAMP[scheme])
    if quality:
        probs[boost] *= 1.0 + delta
        probs[damp] *= 1.0 - delta
    else:
        probs[boost] *= 1.0 - delta
        probs[damp] *= 1.0 + delta
    return probs / probs.sum()


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that `Generator.choice(n, size, p=p)` builds on every call;
    `cdf.searchsorted(rng.random(size), side="right")` then draws the same
    values from the same positions of the stream."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def generate_corpus(config: SynthConfig) -> SynthResult:
    """Deterministically generate sessions, gold tags, and boundary text."""
    rng = np.random.default_rng(config.seed)
    vocab = _build_vocabulary(config)
    filler_cdf = _choice_cdf(1.0 / (np.arange(len(vocab)) + 5.0))

    planted_codes = []
    for rule in config.rules:
        if rule.code not in planted_codes:
            planted_codes.append(rule.code)

    da_labels = list(DA_TAG_SET.labels)
    mc_labels = list(MC_TAG_SET.labels)
    # (DA, MC) tag CDFs of a therapist utterance by session quality, and of a patient's.
    therapist_cdfs = {
        q: (_choice_cdf(_tag_distribution(_DA_BASE, "da", q, config.tag_mix_strength)),
            _choice_cdf(_tag_distribution(_MC_BASE, "mc", q, config.tag_mix_strength)))
        for q in (False, True)
    }
    patient_cdfs = (_choice_cdf(np.array([_DA_BASE[t] for t in da_labels])),
                    _choice_cdf(np.array([_MC_BASE[t] for t in mc_labels])))
    # Bounds of an utterance's word-time draws: a duration per word, and a gap
    # before each word after the first (duration, gap, duration, ...).  They
    # grow to the longest utterance; each draw takes a prefix.
    time_low = time_high = np.empty(0)

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
            therapist = speaker == "therapist"
            da_cdf, mc_cdf = therapist_cdfs[quality] if therapist else patient_cdfs
            for _ in range(size):
                da = da_labels[int(da_cdf.searchsorted(rng.random(), side="right"))]
                mc = mc_labels[int(mc_cdf.searchsorted(rng.random(), side="right"))]
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
                filler_ids = filler_cdf.searchsorted(rng.random(n_filler), side="right").tolist()
                fillers = [vocab[i] for i in filler_ids]
                if config.word_dropout > 0.0:
                    kept = (rng.random(n_filler) >= config.word_dropout).tolist()
                    fillers = [w for w, keep in zip(fillers, kept) if keep] or fillers[:1]
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
            cuts: list[int] = []
            for k in range(size):
                n_draws = 2 * len(utt_words[ui]) - 1
                if n_draws > len(time_low):
                    time_low = np.resize((0.18, 0.02), 2 * n_draws)
                    time_high = np.resize((0.5, 0.2), 2 * n_draws)
                times = rng.uniform(time_low[:n_draws], time_high[:n_draws]).tolist()
                # The first word has no gap; adding 0.0 leaves the clock as it is.
                for gap, dur in zip((0.0, *times[1::2]), times[0::2]):
                    clock += gap
                    starts.append(round(clock, 3))
                    ends.append(round(clock + dur, 3))
                    clock += dur
                words += utt_words[ui]
                cuts.append(len(words))
                ui += 1
                if k < size - 1:
                    if rng.random() < config.pause_rate:
                        clock += float(rng.uniform(2.2, 4.5))
                    else:
                        clock += float(rng.uniform(0.25, 1.6))
            turn = Tokens(words, starts, ends)
            turn_tokens.append(turn)
            utt_tokens.extend(turn[first:last] for first, last in zip((0, *cuts), cuts))
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
        config=config,
    )
