"""Batch evaluation of multimodal role-playing agents.

Scores a predictions file against an annotated dialogue corpus on two
axes: emotional consistency (correctness, cross-modal agreement,
transition divergence, role distinctiveness, vote indecision) and
role consistency (experience, character, relationship), using panels
of LLM judges for recognition and deterministic kernels for all
arithmetic.
"""

__version__ = "0.1.0"

from .corpus import (
    AMBIGUOUS,
    DEFAULT_DELIMITERS,
    DEFAULT_EMOTION_LABELS,
    CorpusError,
    DialogueSample,
    EmotionTaxonomy,
    MultimodalResponse,
    PredictionRecord,
    RoleCard,
    UserTurn,
    default_taxonomy,
    load_corpus,
    load_predictions,
    save_jsonl,
    segment_utterances,
)
from .erc import (
    aggregate,
    run_panel,
    select_label,
)
from .formatter import FormatOutcome, format_response, validate
from .judges import (
    ConfigError,
    HttpBackend,
    JudgeClient,
    JudgeRequest,
    MockBackend,
    ReplyCache,
    RetryPolicy,
    Sampling,
    TransportError,
    parse_rc_verdict,
)
from .metrics import (
    build_transition_matrices,
    cec,
    character_distinctiveness,
    ed,
    edd,
    hellinger,
    krippendorff_alpha,
    matrix_distance,
    mec,
    normalized_entropy,
    rc_score_from_verdict,
    rcd,
)
from .pipeline import (
    EvaluationRun,
    RunConfig,
    agreement,
    evaluate,
    flatten_report,
    generate,
    gt_statistics,
    render_report,
)

__all__ = [
    "AMBIGUOUS",
    "ConfigError",
    "CorpusError",
    "DEFAULT_DELIMITERS",
    "DEFAULT_EMOTION_LABELS",
    "DialogueSample",
    "EmotionTaxonomy",
    "EvaluationRun",
    "FormatOutcome",
    "HttpBackend",
    "JudgeClient",
    "JudgeRequest",
    "MockBackend",
    "MultimodalResponse",
    "PredictionRecord",
    "ReplyCache",
    "RetryPolicy",
    "RoleCard",
    "RunConfig",
    "Sampling",
    "TransportError",
    "UserTurn",
    "aggregate",
    "agreement",
    "build_transition_matrices",
    "cec",
    "character_distinctiveness",
    "default_taxonomy",
    "ed",
    "edd",
    "evaluate",
    "flatten_report",
    "format_response",
    "generate",
    "gt_statistics",
    "hellinger",
    "krippendorff_alpha",
    "load_corpus",
    "load_predictions",
    "matrix_distance",
    "mec",
    "normalized_entropy",
    "parse_rc_verdict",
    "rc_score_from_verdict",
    "rcd",
    "render_report",
    "run_panel",
    "save_jsonl",
    "segment_utterances",
    "select_label",
    "validate",
]
