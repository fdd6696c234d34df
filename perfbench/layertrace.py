"""Outside-in tracer that gives the per-layer metrics.

The tracer replaces public functions of the cbtcode modules with wrappers
that record one span per call: name, start, end, parent span, thread and the
label of the CLI call that was running. It changes no argument and no
result. Spans stay in memory; `summarize` turns them into additive raw
figures and `derive` into the reported metrics. An entry point that the
package no longer has is listed as absent and its metrics read 0, so the
run still completes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# layer -> public entry points of cbtcode.<layer>; "Class.method" for methods
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "synth": ("generate_corpus",),
    "corpus": ("parse_corpus", "write_corpus", "read_scores_table", "write_scores_table"),
    "serialize": (
        "sniff_corpus_kind",
        "read_tagged_corpus",
        "read_matrix",
        "load_chain_crf",
        "load_utterance_classifier",
        "write_tagged_corpus",
        "write_matrix",
        "save_chain_crf",
        "save_utterance_classifier",
        "save_linear_model",
        "save_feature_space",
        "save_report",
        "save_comparison",
    ),
    "segmenter": (
        "pause_split",
        "segment",
        "segment_session",
        "make_boundary_training_data",
        "train_boundary_model",
    ),
    "chain": ("viterbi", "forward_backward"),
    "tagger": (
        "ChainCRF.emission_matrix",
        "tag_da",
        "tag_mc",
        "train_chain_crf",
        "train_utterance_classifier",
        "da_training_sequences",
        "mc_training_examples",
    ),
    "optimize": ("minimize_lbfgs",),
    "features": (
        "fit_tfidf",
        "transform_tfidf",
        "FeatureSpace.index",
        "tag_count_features",
        "augment_tokens",
        "fuse_concat",
        "anova_f_scores",
        "top_k_mask",
        "select_k_by_cv",
        "fit_scaler",
        "apply_scaler",
    ),
    "svm": ("train_svm", "class_weights", "predict_many"),
    "evaluate": (
        "run_protocol",
        "five_by_two_cv_f_test",
        "cv_pooled_counts",
        "fit_fold_and_count",
        "make_folds",
        "combined_f_statistic",
    ),
    "pipeline": ("segment_corpus", "tag_corpus", "build_feature_matrix"),
    "util": ("ordered_map",),
}
LAYERS = tuple(ENTRY_POINTS)
READS = ("sniff_corpus_kind", "read_tagged_corpus", "read_matrix", "load_chain_crf", "load_utterance_classifier")
WRITES = tuple(n for n in ENTRY_POINTS["serialize"] if n not in READS)
# Each evaluation of the objective handed to minimize_lbfgs gets this span.
OBJECTIVE = "tagger.objective"
VARIANTS = ("boundary", "da", "mc")

# The reported per-layer metrics, in order, with their units.
METRICS: tuple[tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("cli.cpu_s", "s"),
    ("trace.overhead_s", "s"),
    ("util.threads2_extra_s", "s"),
    ("synth.generate_s", "s"),
    ("corpus.parse_s", "s"),
    ("serialize.read_s", "s"),
    ("serialize.write_s", "s"),
    ("segmenter.segment_s", "s"),
    ("segmenter.fragments", "count"),
    ("segmenter.train_s", "s"),
    ("chain.viterbi_s", "s"),
    ("chain.viterbi_positions", "count"),
    ("chain.viterbi_us_per_pos", "us"),
    ("tagger.emission_s", "s"),
    ("tagger.tag_da_s", "s"),
    ("tagger.tag_mc_s", "s"),
    ("tagger.train_da_s", "s"),
    ("tagger.train_mc_s", "s"),
    *((f"optimize.iters.{v}", "count") for v in VARIANTS),
    *((f"optimize.evals.{v}", "count") for v in VARIANTS),
    *((f"optimize.eval_ms.{v}", "ms") for v in VARIANTS),
    ("features.matrix_s", "s"),
    ("features.fit_tfidf_s", "s"),
    ("features.transform_s", "s"),
    ("features.transform_calls", "count"),
    ("features.index_builds", "count"),
    ("features.anova_s", "s"),
    ("features.select_k_s", "s"),
    ("svm.fits", "count"),
    ("svm.duplicate_fits", "count"),
    ("svm.smo_iters", "count"),
    ("svm.fit_s", "s"),
    ("svm.us_per_iter", "us"),
    ("svm.unconverged", "count"),
    ("evaluate.protocol_s", "s"),
    ("evaluate.compare_s", "s"),
    ("pipeline.segment_corpus_s", "s"),
    ("pipeline.tag_corpus_s", "s"),
    ("util.ordered_map_s", "s"),
    *((f"{layer}.total_s", "s") for layer in LAYERS),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
)
# Counts that must repeat exactly from run to run.
COUNTS = tuple(name for name, unit in METRICS if unit == "count")
# Raw figures summed over set-up and measured calls; all others cover only
# the measured calls.
WITH_SETUP = ("synth.", "optimize.")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "context", "data")

    def __init__(self, name: str, parent: "Span | None", context: str):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.context = context
        self.start = self.end = 0.0
        self.data: dict = {}


class Tracer:
    """Wraps the entry points of one package; spans accumulate in `spans`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.context = ""
        self.absent: list[str] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "cbtcode") -> None:
        self.absent = []
        for layer, names in ENTRY_POINTS.items():
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                if owner_name:
                    self._patch(owner, attr, original, wrapper)
                    continue
                # `from .x import f` copies the reference: patch every copy.
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == package or mod_name.startswith(package + "."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._main:
                self._main_stack = stack
        return stack

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's first span belongs to the span that is open in
            # the main thread, which waits for the pool.
            main = self._main_stack
            parent = main[-1] if main and threading.get_ident() != self._main else None
        span = Span(name, parent, self.context)
        before, after = HOOKS.get(name, (None, None))
        if before is not None:
            args, kwargs = before(self, span, args, kwargs)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if after is not None:
            after(span, result)
        return result

    def dump(self) -> list[dict]:
        """Spans in start order with parents as indices, for the trace file."""
        ordered = sorted(self.spans, key=lambda s: s.start)
        index = {id(s): i for i, s in enumerate(ordered)}
        t0 = ordered[0].start if ordered else 0.0
        return [
            {
                "name": s.name,
                "start": round(s.start - t0, 7),
                "end": round(s.end - t0, 7),
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "thread": s.thread,
                "context": s.context,
            }
            for s in ordered
        ]


# -- hooks: counts recorded at the layer boundaries ------------------------------


def _count_positions(tracer, span, args, kwargs):
    emissions = args[0] if args else kwargs.get("emissions")
    span.data["positions"] = len(emissions) if emissions is not None else 0
    return args, kwargs


def _count_items(span, result):
    span.data["items"] = len(result)


def _hash_fit_inputs(tracer, span, args, kwargs):
    digest = hashlib.sha256()
    for value in (*args, *sorted(kwargs.items())):
        if isinstance(value, np.ndarray):
            digest.update(repr((value.shape, value.dtype.str)).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())
    span.data["inputs"] = digest.hexdigest()
    return args, kwargs


def _fit_result(span, model):
    span.data["iters"] = int(getattr(model, "n_iter", 0))
    span.data["unconverged"] = int(not getattr(model, "converged", True))


def _count_objective(tracer, span, args, kwargs):
    fun = args[0] if args else kwargs["fun"]

    def objective(*a, **k):
        return tracer.call(OBJECTIVE, fun, a, k)

    if args:
        return (objective, *args[1:]), kwargs
    return args, {**kwargs, "fun": objective}


def _optimizer_result(span, result):
    span.data["iters"] = int(getattr(result, "n_iter", 0))


HOOKS = {
    "chain.viterbi": (_count_positions, None),
    "segmenter.pause_split": (None, _count_items),
    "svm.train_svm": (_hash_fit_inputs, _fit_result),
    "optimize.minimize_lbfgs": (_count_objective, _optimizer_result),
}


# -- summaries --------------------------------------------------------------------


def union_length(intervals, clip: tuple[float, float] | None = None) -> float:
    """Length of the union of (start, end) intervals, optionally clipped."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def variant(context: str) -> str:
    """The model a CLI call trains, from its label ("train-boundary" -> "boundary")."""
    return context.split("-", 1)[1] if context.startswith("train-") else ""


def summarize(spans: list[Span]) -> dict[str, float]:
    """Additive raw figures of a set of spans: busy seconds and counts."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def busy(*names: str, where=None) -> float:
        return union_length(
            (s.start, s.end) for n in names for s in by_name[n] if where is None or where(s)
        )

    def total(name: str, key: str) -> int:
        return sum(s.data.get(key, 0) for s in by_name[name])

    raw: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if layer_of(s.name) == layer]
        raw[f"{layer}.total_s"] = union_length((s.start, s.end) for s in mine)
        raw[f"{layer}.self_s"] = sum(
            (s.end - s.start)
            - union_length(((c.start, c.end) for c in children[id(s)]), clip=(s.start, s.end))
            for s in mine
        )
    seen: set[str] = set()
    duplicates = 0
    for s in sorted(by_name["svm.train_svm"], key=lambda s: s.start):
        duplicates += s.data["inputs"] in seen
        seen.add(s.data["inputs"])
    raw.update(
        {
            "synth.generate_s": busy("synth.generate_corpus"),
            "corpus.parse_s": busy("corpus.parse_corpus"),
            "serialize.read_s": busy(*(f"serialize.{n}" for n in READS)),
            "serialize.write_s": busy(*(f"serialize.{n}" for n in WRITES)),
            "segmenter.segment_s": busy("segmenter.segment_session"),
            "segmenter.fragments": total("segmenter.pause_split", "items"),
            "segmenter.train_s": busy("segmenter.train_boundary_model"),
            "chain.viterbi_s": busy("chain.viterbi"),
            "chain.viterbi_positions": total("chain.viterbi", "positions"),
            "tagger.emission_s": busy("tagger.ChainCRF.emission_matrix"),
            "tagger.tag_da_s": busy("tagger.tag_da"),
            "tagger.tag_mc_s": busy("tagger.tag_mc"),
            "tagger.train_da_s": busy("tagger.train_chain_crf", where=lambda s: variant(s.context) == "da"),
            "tagger.train_mc_s": busy("tagger.train_utterance_classifier"),
            "features.matrix_s": busy("pipeline.build_feature_matrix"),
            "features.fit_tfidf_s": busy("features.fit_tfidf"),
            "features.transform_s": busy("features.transform_tfidf"),
            "features.transform_calls": len(by_name["features.transform_tfidf"]),
            "features.index_builds": len(by_name["features.FeatureSpace.index"]),
            "features.anova_s": busy("features.anova_f_scores"),
            "features.select_k_s": busy("features.select_k_by_cv"),
            "svm.fits": len(by_name["svm.train_svm"]),
            "svm.duplicate_fits": duplicates,
            "svm.smo_iters": total("svm.train_svm", "iters"),
            "svm.fit_s": busy("svm.train_svm"),
            "svm.unconverged": total("svm.train_svm", "unconverged"),
            "evaluate.protocol_s": busy("evaluate.run_protocol"),
            "evaluate.compare_s": busy("evaluate.five_by_two_cv_f_test"),
            "pipeline.segment_corpus_s": busy("pipeline.segment_corpus"),
            "pipeline.tag_corpus_s": busy("pipeline.tag_corpus"),
            "util.ordered_map_s": busy("util.ordered_map"),
        }
    )
    for v in VARIANTS:
        runs = [s for s in by_name["optimize.minimize_lbfgs"] if variant(s.context) == v]
        evals = [c for s in runs for c in children[id(s)] if c.name == OBJECTIVE]
        raw[f"optimize.iters.{v}"] = sum(s.data.get("iters", 0) for s in runs)
        raw[f"optimize.evals.{v}"] = len(evals)
        raw[f"optimize.eval_s.{v}"] = sum(c.end - c.start for c in evals)
    return raw


def derive(raw: dict[str, float]) -> dict[str, float]:
    """Reported metrics from raw figures; ratios of zero counts read 0."""

    def ratio(num: float, den: float, scale: float) -> float:
        return num * scale / den if den else 0.0

    out = {name: float(raw.get(name, 0.0)) for name, _ in METRICS}
    out["chain.viterbi_us_per_pos"] = ratio(raw["chain.viterbi_s"], raw["chain.viterbi_positions"], 1e6)
    out["svm.us_per_iter"] = ratio(raw["svm.fit_s"], raw["svm.smo_iters"], 1e6)
    for v in VARIANTS:
        out[f"optimize.eval_ms.{v}"] = ratio(raw[f"optimize.eval_s.{v}"], raw[f"optimize.evals.{v}"], 1e3)
    return out
