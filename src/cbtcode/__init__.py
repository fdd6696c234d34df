"""cbtcode: session-level behavioral code prediction from diarized transcripts.

Pipeline: pause-split turns, segment them into utterances, tag utterances
(dialog acts and MI skill codes), featurize sessions (tf-idf, tag counts,
concatenation or word|TAG augmentation), train class-weighted linear SVMs
per code, and evaluate with pooled-F1 cross-validation.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: E402
    CODES,
    DA_TAG_SET,
    MC_TAG_SET,
    CodeLabels,
    CodeScores,
    Session,
    TagSet,
    Tokens,
    Turn,
    binarize_scores,
    parse_corpus,
    total_ctrs,
    write_corpus,
)
from .chain import forward_backward, viterbi  # noqa: E402
from .segmenter import (  # noqa: E402
    make_boundary_training_data,
    pause_split,
    segment,
    segment_session,
    segment_sessions,
    train_boundary_model,
)
from .tagger import (  # noqa: E402
    ChainCRF,
    tag_da,
    tag_da_sessions,
    tag_mc,
    tag_mc_sessions,
    train_chain_crf,
    train_utterance_classifier,
)
from .features import (  # noqa: E402
    FeatureMatrix,
    FeatureSpace,
    ScalerStats,
    anova_f_scores,
    apply_scaler,
    augment_tokens,
    fit_scaler,
    fit_tfidf,
    fuse_concat,
    select_k_by_cv,
    tag_count_features,
    tfidf_matrix,
    transform_tfidf,
)
from .svm import LinearModel, SvmProblem, class_weights, train_svm, train_svms  # noqa: E402
from .evaluate import (  # noqa: E402
    EvalReport,
    combined_f_statistic,
    five_by_two_cv_f_test,
    make_folds,
    pooled_f1,
    run_protocol,
)
from .synth import SignalRule, SynthConfig, generate_corpus  # noqa: E402
from .pipeline import (  # noqa: E402
    FEATURE_SETS,
    PipelineConfig,
    build_feature_matrix,
)
