"""Batch evaluation of multimodal role-playing agents.

Scores a predictions file against an annotated dialogue corpus on two
axes: emotional consistency (correctness, cross-modal agreement,
transition divergence, role distinctiveness, vote indecision) and
role consistency (experience, character, relationship), using panels
of LLM judges for recognition and deterministic kernels for all
arithmetic.

The package root is lazy: ``import rpeval`` loads no submodule, and
each name in ``__all__`` imports its submodule on first use.  numpy and
the pipeline load only when a name that needs them is read (the metrics,
``evaluate`` and the other pipeline entry points); ``corpus``, ``config``,
``prompts``, ``judges``, ``formatter``, ``erc`` and ``scheduler`` do not
import numpy, and reading a ``RunConfig`` loads only ``config`` and
``corpus``.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, grouped by the submodule that defines it.
_EXPORTS = {
    "corpus": (
        "AMBIGUOUS",
        "DEFAULT_DELIMITERS",
        "DEFAULT_EMOTION_LABELS",
        "CorpusError",
        "DialogueSample",
        "EmotionTaxonomy",
        "MultimodalResponse",
        "PredictionRecord",
        "RoleCard",
        "UserTurn",
        "default_taxonomy",
        "load_corpus",
        "load_predictions",
        "save_jsonl",
        "segment_utterances",
    ),
    "config": ("ConfigError", "RetryPolicy", "RunConfig", "Sampling"),
    "erc": ("aggregate", "run_panel", "select_label"),
    "formatter": ("format_response", "validate"),
    "judges": (
        "HttpBackend",
        "JudgeClient",
        "MockBackend",
        "ReplyCache",
        "TransportError",
        "parse_rc_verdict",
    ),
    "metrics": (
        "build_transition_matrices",
        "cec",
        "character_distinctiveness",
        "ed",
        "edd",
        "hellinger",
        "krippendorff_alpha",
        "matrix_distance",
        "mec",
        "normalized_entropy",
        "rc_score_from_verdict",
        "rcd",
    ),
    "scheduler": ("drive",),
    "pipeline": (
        "EvaluationRun",
        "agreement",
        "evaluate",
        "flatten_report",
        "generate",
        "gt_statistics",
        "render_report",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "prompts"}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORIGIN.keys() | _SUBMODULES)
